//! Fault-injection failpoints (test support, behind the `faults` feature).
//!
//! A failpoint is a named site in the engine — `uda::iter`, `core::scan`,
//! `parallel::worker`, ... — where a test can *arm* a [`Fault`] that fires
//! the next time execution passes through. Three fault shapes cover the
//! failure modes the governance layer must absorb:
//!
//! * [`Fault::Panic`] — the site panics, as a buggy user-defined aggregate
//!   would; the engine must convert it into `CubeError::AggPanicked`.
//! * [`Fault::SleepMs`] — the site stalls, simulating a slow worker; the
//!   engine must still honour deadlines and cancellation.
//! * [`Fault::TripBudget`] — the site reports a spent budget; the engine
//!   must unwind with `CubeError::ResourceExhausted`.
//!
//! The registry is global, so tests that arm faults must serialize (the
//! fault suites hold a `Mutex` for the duration of each scenario) and
//! disarm with [`disarm_all`] before releasing it. When no fault is armed
//! the fast path is one relaxed atomic load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// What an armed failpoint does when execution reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic with this message (stays armed; every hit panics).
    Panic(String),
    /// Sleep this many milliseconds, then continue (a slow worker).
    SleepMs(u64),
    /// Report the budget as spent: [`hit`] returns `true` and the caller
    /// is expected to unwind with a resource-exhausted error.
    TripBudget,
}

/// Every failpoint site in the engine, by name. `cube_lint` (rule R3)
/// cross-checks this list against the `failpoint("…")` / `faults::hit("…")`
/// call sites in the workspace: a site referenced but not listed here, a
/// listed name no longer referenced, or a duplicate entry all fail the
/// lint — so this registry can never drift from the code.
pub const SITES: &[&str] = &[
    "uda::init",
    "uda::iter",
    "uda::merge",
    "uda::final",
    "core::scan",
    "materialize",
    "cascade::level",
    "array::sweep",
    "sort::scan",
    "naive::scan",
    "unions::scan",
    "parallel::worker",
    "vectorized::morsel",
    "vectorized::rle_run",
    "pipesort::pipeline",
    "service::admit",
    "service::queue_wait",
    "service::respond",
    "cache::lookup",
    "cache::rewrite",
    "cache::evict",
    "cache::absorb",
    "maintain::batch_fold",
    "maintain::lock",
    "maintain::recompute",
];

/// Count of armed sites — the fast-path guard. Zero means every failpoint
/// is a single relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, Fault>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Fault>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arm `fault` at `site`. Replaces any fault already armed there.
pub fn arm(site: &str, fault: Fault) {
    let mut map = registry().lock().unwrap_or_else(|p| p.into_inner());
    if map.insert(site.to_string(), fault).is_none() {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Disarm every failpoint. Tests call this before releasing the suite
/// mutex so one scenario can never leak into the next.
pub fn disarm_all() {
    let mut map = registry().lock().unwrap_or_else(|p| p.into_inner());
    if !map.is_empty() {
        ARMED.fetch_sub(map.len(), Ordering::SeqCst);
        map.clear();
    }
}

/// Execute the failpoint at `site`: panics or sleeps in place per the
/// armed [`Fault`], and returns `true` when an armed [`Fault::TripBudget`]
/// asks the caller to unwind as if a resource budget were exhausted.
/// Returns `false` (for free) when nothing is armed.
pub fn hit(site: &str) -> bool {
    // cube-lint: allow(atomic, lock-free fast path; arming happens under the registry mutex and armed paths re-read it there)
    if ARMED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let fault = {
        let map = registry().lock().unwrap_or_else(|p| p.into_inner());
        map.get(site).cloned()
    };
    match fault {
        None => false,
        // cube-lint: allow(panic, the Panic fault exists to panic; callers guard it)
        Some(Fault::Panic(msg)) => panic!("injected fault at {site}: {msg}"),
        Some(Fault::SleepMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        Some(Fault::TripBudget) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The registry is process-global; serialize these tests.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn unarmed_sites_are_free() {
        let _g = lock();
        disarm_all();
        assert!(!hit("nowhere"));
    }

    #[test]
    fn trip_budget_reports_once_armed() {
        let _g = lock();
        arm("site::a", Fault::TripBudget);
        assert!(hit("site::a"));
        assert!(!hit("site::b"));
        disarm_all();
        assert!(!hit("site::a"));
    }

    #[test]
    fn registry_is_duplicate_free_and_covers_maintenance_sites() {
        let mut sorted: Vec<&str> = SITES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), SITES.len(), "duplicate SITES entry");

        // The incremental-maintenance sites must stay registered: the
        // fault suites drive crash-consistency scenarios through each,
        // and rule R3 cross-checks them against the code.
        let _g = lock();
        for site in [
            "cache::absorb",
            "maintain::batch_fold",
            "maintain::lock",
            "maintain::recompute",
        ] {
            assert!(SITES.contains(&site), "{site} missing from SITES");
            arm(site, Fault::TripBudget);
            assert!(hit(site), "{site} did not fire once armed");
        }
        disarm_all();
    }

    #[test]
    fn panic_fault_panics_with_site_name() {
        let _g = lock();
        arm("site::boom", Fault::Panic("kaboom".into()));
        let err = std::panic::catch_unwind(|| hit("site::boom")).unwrap_err();
        disarm_all();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("site::boom") && msg.contains("kaboom"),
            "{msg}"
        );
    }
}
