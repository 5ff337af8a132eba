// Fixture for unused suppressions: an annotation that excuses no finding
// on its own line or the next is itself a finding under the rule it names.

fn used_above(x: &AtomicU64) -> u64 {
    // cube-lint: allow(atomic, monotone counter)
    x.load(Ordering::Relaxed)
}

fn used_same_line(x: &AtomicU64) -> u64 {
    x.load(Ordering::Relaxed) // cube-lint: allow(atomic, monotone counter)
}

fn stale(x: &AtomicU64) -> u64 {
    // cube-lint: allow(atomic, the relaxed load this excused is gone)
    x.load(Ordering::Acquire)
}

fn too_far(x: &AtomicU64) -> u64 {
    // cube-lint: allow(atomic, two lines above covers nothing)

    x.load(Ordering::Relaxed)
}

fn wrong_rule(x: &AtomicU64) -> u64 {
    // cube-lint: allow(wildcard, names a rule that does not fire here)
    x.load(Ordering::Relaxed)
}

// cube-lint: allow(lockorder, a rule cube_lint does not have)
fn unknown() {}

#[cfg(test)]
mod tests {
    fn t(x: &AtomicU64) -> u64 {
        // cube-lint: allow(atomic, test code never fires)
        x.load(Ordering::Relaxed)
    }
}

fn no_reason(x: &AtomicU64) -> u64 {
    // cube-lint: allow(atomic)
    x.load(Ordering::Relaxed)
}
