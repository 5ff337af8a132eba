// Fixture for unused suppressions: an annotation that excuses no finding
// on its own line or the next is itself a finding under the rule it names.

fn used_above(x: Option<u8>) -> u8 {
    // cube-lint: allow(panic, caller checked)
    x.unwrap()
}

fn used_same_line(x: Option<u8>) -> u8 {
    x.unwrap() // cube-lint: allow(panic, caller checked)
}

fn stale(x: Option<u8>) -> u8 {
    // cube-lint: allow(panic, the unwrap this excused is gone)
    x.unwrap_or(0)
}

fn too_far(x: Option<u8>) -> u8 {
    // cube-lint: allow(panic, two lines above covers nothing)

    x.unwrap()
}

fn wrong_rule(x: Option<u8>) -> u8 {
    // cube-lint: allow(wildcard, names a rule that does not fire here)
    x.unwrap()
}

// cube-lint: allow(lockorder, a rule cube_lint does not have)
fn unknown() {}

#[cfg(test)]
mod tests {
    fn t(x: Option<u8>) -> u8 {
        // cube-lint: allow(panic, test code never fires)
        x.unwrap()
    }
}
