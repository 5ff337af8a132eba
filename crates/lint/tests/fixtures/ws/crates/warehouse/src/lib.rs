// Mini-workspace fixture: a relaxed store that publishes a flag. Exactly
// one R8 finding, at the store.

pub fn stop(flag: &AtomicBool) {
    flag.store(true, Ordering::Relaxed);
}
