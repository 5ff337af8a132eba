// R7 fixture: foreign (UDA/closure) code under engine locks. Lexical
// test data for cube_lint — never compiled.

impl Cube {
    // FIRE: a guard wrapper runs while the store read-lock is held.
    pub fn final_under_store(&self) -> Option<Value> {
        let state = self.store.read();
        guard("MAX", || state.cell.final_value()).ok()
    }

    // FIRE: a raw accumulator callback under the catalog lock.
    pub fn merge_under_catalog(&self, st: &[Value]) {
        let _g = self.catalog.write();
        self.acc.merge(st);
    }

    // PASS: guarded code with no lock held.
    pub fn guarded_unlocked(&self) {
        guard("SUM", || self.acc.final_value());
    }

    // PASS (edge): foreign code under the cache mutex is out of R7's
    // scope — absorb-under-cache-lock is the documented exception.
    pub fn absorb_under_cache(&self) {
        let mut entries = self.entries.lock();
        guard("cache::absorb", || entries.view.absorb());
    }

    // FIRE (transitive): the helper reaches a guard; calling it under a
    // store lock is flagged at the call site.
    pub fn stage_under_store(&self) {
        let state = self.store.write();
        self.helper_that_guards();
        consume(state);
    }

    fn helper_that_guards(&self) {
        guard("SUM", || self.acc.final_value());
    }

    // ALLOW: an annotated staging call is accepted.
    pub fn allowed_stage(&self) {
        let state = self.store.write();
        // cube-lint: allow(foreign, fixture demonstrating the staging suppression)
        self.helper_that_guards();
        consume(state);
    }

    // PASS (edge): zero-argument `.iter()` under a lock is slice
    // iteration, not the accumulator callback.
    pub fn slice_iter_under_lock(&self) {
        let state = self.store.read();
        for x in state.rows.iter() {
            consume(x);
        }
    }
}
