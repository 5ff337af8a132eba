//! Fault-injection failpoints (test support, armed behind the `faults`
//! feature).
//!
//! A failpoint is a [`Site`] in the engine — [`Site::UdaIter`],
//! [`Site::CoreScan`], [`Site::ParallelWorker`], ... — where a test can
//! *arm* a `Fault` that fires the next time execution passes through.
//! Three fault shapes cover the failure modes the governance layer must
//! absorb:
//!
//! * `Fault::Panic` — the site panics, as a buggy user-defined aggregate
//!   would; the engine must convert it into `CubeError::AggPanicked`.
//! * `Fault::SleepMs` — the site stalls, simulating a slow worker; the
//!   engine must still honour deadlines and cancellation.
//! * `Fault::TripBudget` — the site reports a spent budget; the engine
//!   must unwind with `CubeError::ResourceExhausted`.
//!
//! [`Site`] exists in every build, so a misspelt or duplicate site does
//! not compile. Without the feature [`hit`] is a constant `false` and the
//! registry, `arm` and `disarm_all` do not exist.
//!
//! The registry is global, so tests that arm faults must serialize (the
//! fault suites hold a `Mutex` for the duration of each scenario) and
//! disarm with `disarm_all` before releasing it. When no fault is armed
//! the fast path is one relaxed atomic load.

/// The site table: each variant with the name its messages print.
macro_rules! sites {
    ($($variant:ident => $name:literal,)*) => {
        /// Every failpoint site in the engine. The faults suite arms each
        /// of [`Site::ALL`] in turn and asserts it fires, so a site that is
        /// declared but never injected fails a test.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Site {
            $($variant,)*
        }

        impl Site {
            /// Every site, in declaration order.
            pub const ALL: &'static [Site] = &[$(Site::$variant,)*];

            /// The name a fault's message prints, e.g. `"uda::iter"`.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Site::$variant => $name,)*
                }
            }
        }
    };
}

sites! {
    UdaInit => "uda::init",
    UdaIter => "uda::iter",
    UdaMerge => "uda::merge",
    UdaFinal => "uda::final",
    CoreScan => "core::scan",
    Materialize => "materialize",
    CascadeLevel => "cascade::level",
    ArraySweep => "array::sweep",
    SortScan => "sort::scan",
    NaiveScan => "naive::scan",
    UnionsScan => "unions::scan",
    ParallelWorker => "parallel::worker",
    VectorizedMorsel => "vectorized::morsel",
    PipesortPipeline => "pipesort::pipeline",
    ServiceAdmit => "service::admit",
    ServiceQueueWait => "service::queue_wait",
    ServiceRespond => "service::respond",
    CacheLookup => "cache::lookup",
    CacheRewrite => "cache::rewrite",
    CacheEvict => "cache::evict",
    CacheAbsorb => "cache::absorb",
    MaintainBatchFold => "maintain::batch_fold",
    MaintainLock => "maintain::lock",
    MaintainRecompute => "maintain::recompute",
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// No-op without the `faults` feature: nothing can be armed.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn hit(_site: Site) -> bool {
    false
}

#[cfg(feature = "faults")]
pub use armed::{arm, disarm_all, hit, hits, Fault};

#[cfg(feature = "faults")]
mod armed {
    use super::Site;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// What an armed failpoint does when execution reaches it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Fault {
        /// Panic with this message (stays armed; every hit panics).
        Panic(String),
        /// Sleep this many milliseconds, then continue (a slow worker).
        SleepMs(u64),
        /// Report the budget as spent: [`hit`] returns `true` and the
        /// caller is expected to unwind with a resource-exhausted error.
        TripBudget,
    }

    /// An armed fault and how often execution has reached it.
    struct Armed {
        fault: Fault,
        hits: u64,
    }

    /// One slot per site, indexed by discriminant.
    static REGISTRY: Mutex<[Option<Armed>; Site::ALL.len()]> =
        Mutex::new([const { None }; Site::ALL.len()]);

    /// Count of armed sites — the fast-path guard. Zero means every
    /// failpoint is a single relaxed load.
    static ARMED: AtomicUsize = AtomicUsize::new(0);

    fn registry() -> std::sync::MutexGuard<'static, [Option<Armed>; Site::ALL.len()]> {
        REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arm `fault` at `site`. Replaces any fault already armed there and
    /// resets its hit count.
    pub fn arm(site: Site, fault: Fault) {
        let mut slots = registry();
        if slots[site as usize]
            .replace(Armed { fault, hits: 0 })
            .is_none()
        {
            ARMED.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Disarm every failpoint. Tests call this before releasing the suite
    /// mutex so one scenario can never leak into the next.
    pub fn disarm_all() {
        let mut slots = registry();
        let armed = slots.iter_mut().filter_map(Option::take).count();
        ARMED.fetch_sub(armed, Ordering::SeqCst);
    }

    /// How many times execution has reached `site` since it was armed;
    /// 0 when it is not armed.
    pub fn hits(site: Site) -> u64 {
        registry()[site as usize].as_ref().map_or(0, |a| a.hits)
    }

    /// Execute the failpoint at `site`: panics or sleeps in place per the
    /// armed [`Fault`], and returns `true` when an armed
    /// [`Fault::TripBudget`] asks the caller to unwind as if a resource
    /// budget were exhausted. Returns `false` (for free) when nothing is
    /// armed.
    pub fn hit(site: Site) -> bool {
        // cube-lint: allow(atomic, lock-free fast path; arming happens under the registry mutex and armed paths re-read it there)
        if ARMED.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let fault = {
            let mut slots = registry();
            let Some(armed) = slots[site as usize].as_mut() else {
                return false;
            };
            armed.hits += 1;
            armed.fault.clone()
        };
        match fault {
            #[expect(
                clippy::panic,
                reason = "the Panic fault exists to panic; callers guard it"
            )]
            Fault::Panic(msg) => panic!("injected fault at {site}: {msg}"),
            Fault::SleepMs(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                false
            }
            Fault::TripBudget => true,
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
            assert!(!hit(Site::CoreScan));
            assert_eq!(hits(Site::CoreScan), 0);
        }

        #[test]
        fn trip_budget_reports_once_armed_and_counts_hits() {
            let _g = lock();
            arm(Site::CoreScan, Fault::TripBudget);
            assert!(hit(Site::CoreScan));
            assert!(hit(Site::CoreScan));
            assert!(!hit(Site::NaiveScan));
            assert_eq!((hits(Site::CoreScan), hits(Site::NaiveScan)), (2, 0));
            disarm_all();
            assert!(!hit(Site::CoreScan));
            assert_eq!(hits(Site::CoreScan), 0);
        }

        #[test]
        fn panic_fault_panics_with_site_name() {
            let _g = lock();
            arm(Site::SortScan, Fault::Panic("kaboom".into()));
            let err = std::panic::catch_unwind(|| hit(Site::SortScan)).unwrap_err();
            disarm_all();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("sort::scan") && msg.contains("kaboom"),
                "{msg}"
            );
        }
    }
}
