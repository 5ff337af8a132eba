// Mini-workspace fixture: exactly one R5 finding, the `_` arm in a match
// over Value.

pub mod algorithm;

pub fn is_total(v: &Value) -> bool {
    match v {
        Value::All => true,
        _ => false,
    }
}
