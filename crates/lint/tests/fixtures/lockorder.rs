// R6 fixture: hierarchy inversions, a cycle, and re-acquisition.
// Lexical test data for cube_lint — never compiled.

impl Cube {
    // PASS: store under cache follows the documented hierarchy
    // (catalog → cache → store).
    pub fn store_under_cache(&self) {
        let entries = self.entries.lock();
        let state = self.store.read();
        consume((entries, state));
    }

    // FIRE (twice): cache under store inverts it, and with the function
    // above closes the cycle cache → store → cache.
    pub fn cache_under_store(&self) {
        let state = self.store.write();
        let entries = self.entries.lock();
        consume((state, entries));
    }

    // FIRE: catalog under store inverts it too.
    pub fn inversion(&self) {
        let state = self.store.write();
        let cat = self.catalog.write();
        consume((state, cat));
    }

    // FIRE: the store lock re-acquired while already held.
    pub fn reentrant(&self) {
        let a = self.store.write();
        let b = self.store.read();
        consume((a, b));
    }

    // ALLOW: an annotated inversion is accepted (cache → catalog, a
    // kind-pair no other function in this fixture uses, so the edge's
    // single witness is the annotated line).
    pub fn allowed_inversion(&self) {
        let entries = self.entries.lock();
        // cube-lint: allow(lockorder, fixture demonstrating a reasoned suppression)
        let cat = self.catalog.read();
        consume((entries, cat));
    }
}

#[cfg(test)]
mod tests {
    // PASS (edge): test code is exempt even when it misorders locks.
    #[test]
    fn test_only_inversion() {
        let state = cube.store.write();
        let cat = cube.catalog.write();
        consume((state, cat));
    }
}
