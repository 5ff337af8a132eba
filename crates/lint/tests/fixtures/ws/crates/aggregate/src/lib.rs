// Mini-workspace fixture: raw accumulator calls are the aggregate crate's
// own implementation, so R2 stays silent here.

pub fn fold(acc: &mut dyn Accumulator, v: &Value) {
    acc.iter(v);
}
