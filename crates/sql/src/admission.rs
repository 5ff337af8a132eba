//! Admission control for the concurrent cube service.
//!
//! The cube is "potentially much larger than the base relation" (§3): one
//! 2^N query can hold the memory budget of a hundred cheap GROUP BYs. An
//! ungoverned multi-session engine therefore fails in two ways under
//! load: it queues unboundedly until every client times out, or it lets
//! one expensive query starve the cheap interactive ones. This module is
//! the gatekeeper in front of query execution:
//!
//! * **Global budget apportionment** — a service-wide cell budget
//!   ([`ServiceConfig::global_cells`], folded through the same per-cell
//!   size model `ExecLimits` uses). Each admitted query *reserves* an
//!   upper-bound share (its cost estimate, floored at
//!   [`ServiceConfig::min_grant_cells`]); the reservation is released
//!   when the query's [`Permit`] drops.
//! * **Bounded queueing with deadline-aware waiting** — when slots or
//!   budget are unavailable the query waits on a condvar, but queue time
//!   counts against the query's own deadline, and the queue itself is
//!   bounded per lane ([`ServiceConfig::queue_depth`]): beyond it the
//!   controller *sheds* with a typed `ResourceExhausted` carrying a
//!   retry-after hint instead of queueing unboundedly.
//! * **Fairness** — queries whose cost estimate is at most
//!   [`ServiceConfig::cheap_cells`] ride a dedicated *cheap lane*:
//!   [`ServiceConfig::cheap_reserved`] execution slots only they may
//!   occupy, and exemption from the global-budget availability check
//!   (their worst-case overcommit, `cheap_reserved × cheap_cells`, is
//!   part of budget sizing). A burst of 2^N cubes can saturate the heavy
//!   lane and the budget without ever starving a cheap GROUP BY.
//!
//! Cost estimates are *upper bounds*: a grouping-set family of `S` sets
//! over `T` rows materializes at most `S × (T + 1)` cells, so a granted
//! reservation can never be exceeded by the execution it admits. The
//! bound is deliberately loose (the true cell count is the §3 product of
//! dimension cardinalities, unknown before the scan); tightening it with
//! the encoding symbol tables is the one cardinality model of ROADMAP
//! item 12.

use datacube::{CancelToken, CubeError, CubeResult, ExecStats, Resource};
use dc_aggregate::faults::Site;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Test-support failpoint for the service sites (`service::admit`,
/// `service::queue_wait`, `service::respond`). With the `faults` feature
/// off this compiles to `Ok(())`; a tripped budget fault surfaces as the
/// same typed shed error a full queue produces.
#[cfg(feature = "faults")]
pub(crate) fn failpoint(site: Site) -> CubeResult<()> {
    if dc_aggregate::faults::hit(site) {
        return Err(CubeError::ResourceExhausted {
            resource: Resource::AdmissionQueue { retry_hint_ms: 1 },
            limit: 0,
            observed: 0,
            stats: ExecStats::default(),
        });
    }
    Ok(())
}

/// No-op without the `faults` feature.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub(crate) fn failpoint(_site: Site) -> CubeResult<()> {
    Ok(())
}

/// A monotone telemetry counter (the admission and cache counters). No
/// reader infers other state from its value — the state it counts lives
/// under its owner's mutex — so it needs no ordering, and its relaxed
/// one is the only one in this crate.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

// cube-lint: allow(atomic, a telemetry count publishes no other memory)
const TELEMETRY: Ordering = Ordering::Relaxed;

impl Counter {
    pub(crate) fn incr(&self) {
        self.0.fetch_add(1, TELEMETRY);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(TELEMETRY)
    }
}

/// Service-level limits shared by every session of one engine. The
/// default is fully unlimited — a library `Engine` behaves exactly as it
/// did before the service layer existed.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Maximum queries executing at once (0 = unlimited).
    pub max_concurrent: usize,
    /// Of `max_concurrent`, slots only cheap-lane queries may occupy.
    /// Clamped to `max_concurrent - 1` so at least one slot can always
    /// serve heavy queries.
    pub cheap_reserved: usize,
    /// Cost threshold (estimated cells) at or below which a query rides
    /// the cheap lane. 0 = no cheap lane; everything is heavy.
    pub cheap_cells: u64,
    /// Global cell budget apportioned across in-flight heavy queries
    /// (0 = unlimited).
    pub global_cells: u64,
    /// Floor on a single reservation, so tiny estimates still get a
    /// usable share (0 = no floor).
    pub min_grant_cells: u64,
    /// Waiters allowed per lane before load shedding kicks in (0 = no
    /// queue: shed immediately when nothing is available).
    pub queue_depth: usize,
}

impl ServiceConfig {
    /// True when no limit at all is configured — the admission fast path.
    pub fn is_unlimited(&self) -> bool {
        self.max_concurrent == 0 && self.global_cells == 0
    }
}

/// The cost estimate admission reasons about, derived from the parsed
/// statement and the catalog snapshot before execution starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Base rows feeding the aggregation (upper bound across UNION
    /// branches and joins).
    pub rows: u64,
    /// Grouping sets the statement expands to (1 for plain projection).
    pub sets: u64,
    /// Upper bound on materialized cells: `sets × (rows + 1)`.
    pub cells: u64,
}

impl QueryCost {
    pub fn new(rows: u64, sets: u64) -> Self {
        QueryCost {
            rows,
            sets,
            cells: sets.saturating_mul(rows.saturating_add(1)),
        }
    }
}

#[derive(Debug, Default)]
struct AdmState {
    running: usize,
    heavy_running: usize,
    cells_out: u64,
    cheap_queued: usize,
    heavy_queued: usize,
}

/// Admission controller shared by every session of one engine.
pub struct AdmissionController {
    cfg: ServiceConfig,
    state: Mutex<AdmState>,
    cv: Condvar,
    /// Monotone counters for observability and the stress suites.
    admitted: Counter,
    queued: Counter,
    shed: Counter,
}

/// Aggregate counters since the controller was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Queries admitted (immediately or after queueing).
    pub admitted: u64,
    /// Queries that waited in the queue before admission.
    pub queued: u64,
    /// Queries rejected by load shedding.
    pub shed: u64,
}

/// RAII grant: holds one execution slot and a cell reservation; dropping
/// it releases both and wakes the queue.
pub struct Permit {
    ctrl: Arc<AdmissionController>,
    /// False for the unlimited fast path's permit, which reserved nothing.
    governed: bool,
    heavy: bool,
    granted_cells: u64,
}

impl Permit {
    /// Cell reservation backing this permit (0 = unlimited).
    pub fn granted_cells(&self) -> u64 {
        self.granted_cells
    }
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("heavy", &self.heavy)
            .field("granted_cells", &self.granted_cells)
            .finish()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if !self.governed {
            return; // fast-path permit: nothing was reserved
        }
        let mut st = self.ctrl.lock();
        st.running = st.running.saturating_sub(1);
        if self.heavy {
            st.heavy_running = st.heavy_running.saturating_sub(1);
        }
        st.cells_out = st.cells_out.saturating_sub(self.granted_cells);
        drop(st);
        self.ctrl.cv.notify_all();
    }
}

/// Decrements the lane's queued counter exactly once, even when an
/// injected fault unwinds mid-wait — a leaked count would make every
/// later shed decision wrongly eager.
struct QueuedGuard {
    ctrl: Arc<AdmissionController>,
    heavy: bool,
    armed: bool,
}

impl QueuedGuard {
    /// Decrement inline (caller already holds the state lock) and disarm.
    fn release(&mut self, st: &mut AdmState) {
        if self.armed {
            if self.heavy {
                st.heavy_queued = st.heavy_queued.saturating_sub(1);
            } else {
                st.cheap_queued = st.cheap_queued.saturating_sub(1);
            }
            self.armed = false;
        }
    }
}

impl Drop for QueuedGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let ctrl = Arc::clone(&self.ctrl);
        let mut st = ctrl.lock();
        if self.heavy {
            st.heavy_queued = st.heavy_queued.saturating_sub(1);
        } else {
            st.cheap_queued = st.cheap_queued.saturating_sub(1);
        }
    }
}

/// How often a queued query re-polls its cancel token and deadline while
/// waiting for a wakeup that may never come (e.g. cancellation from
/// another thread does not notify the condvar).
const QUEUE_POLL: Duration = Duration::from_millis(10);

impl AdmissionController {
    pub fn new(cfg: ServiceConfig) -> Arc<Self> {
        Arc::new(AdmissionController {
            cfg,
            state: Mutex::new(AdmState::default()),
            cv: Condvar::new(),
            admitted: Counter::default(),
            queued: Counter::default(),
            shed: Counter::default(),
        })
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    pub fn counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            admitted: self.admitted.get(),
            queued: self.queued.get(),
            shed: self.shed.get(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, AdmState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Slots reserved exclusively for the cheap lane, clamped so heavy
    /// queries always have at least one slot to run in.
    fn cheap_reserved(&self) -> usize {
        if self.cfg.max_concurrent == 0 {
            0
        } else {
            self.cfg.cheap_reserved.min(self.cfg.max_concurrent - 1)
        }
    }

    fn is_heavy(&self, cost: &QueryCost) -> bool {
        self.cfg.cheap_cells == 0 || cost.cells > self.cfg.cheap_cells
    }

    /// Can this query start right now, given the current state?
    fn can_admit(&self, st: &AdmState, heavy: bool, need: u64) -> bool {
        if self.cfg.max_concurrent > 0 {
            if st.running >= self.cfg.max_concurrent {
                return false;
            }
            if heavy {
                let heavy_cap = self.cfg.max_concurrent - self.cheap_reserved();
                if st.heavy_running >= heavy_cap {
                    return false;
                }
            }
        }
        // Cheap-lane queries are exempt from the budget availability
        // check (bounded overcommit, see module docs); their reservation
        // is still counted in `cells_out`.
        if self.cfg.global_cells > 0
            && heavy
            && st.cells_out.saturating_add(need) > self.cfg.global_cells
        {
            return false;
        }
        true
    }

    /// Reservation size for a query: its upper-bound estimate, floored at
    /// the minimum grant (0 when no global budget is configured).
    fn grant_for(&self, cost: &QueryCost) -> u64 {
        if self.cfg.global_cells == 0 {
            0
        } else {
            cost.cells.max(self.cfg.min_grant_cells)
        }
    }

    /// Backoff hint for a shed response: proportional to the work already
    /// queued and running ahead of the client.
    fn retry_hint_ms(&self, st: &AdmState) -> u32 {
        let ahead = st.running + st.cheap_queued + st.heavy_queued;
        25u32.saturating_mul(ahead as u32 + 1)
    }

    fn shed_error(&self, st: &AdmState) -> CubeError {
        self.shed.incr();
        CubeError::ResourceExhausted {
            resource: Resource::AdmissionQueue {
                retry_hint_ms: self.retry_hint_ms(st),
            },
            limit: self.cfg.queue_depth as u64,
            observed: (st.cheap_queued + st.heavy_queued) as u64,
            stats: ExecStats::default(),
        }
    }

    /// Try to reserve `n` cells of the global budget for cached subcube
    /// views, so cache memory and query memory share one governed pool.
    /// Returns `false` (without reserving) when the budget cannot cover
    /// it right now — the caller simply skips caching. With no global
    /// budget configured the reservation is free and always granted.
    pub(crate) fn try_reserve_cache_cells(&self, n: u64) -> bool {
        if self.cfg.global_cells == 0 {
            return true;
        }
        let mut st = self.lock();
        if st.cells_out.saturating_add(n) > self.cfg.global_cells {
            return false;
        }
        st.cells_out = st.cells_out.saturating_add(n);
        true
    }

    /// Release a cache reservation taken by
    /// [`Self::try_reserve_cache_cells`] (eviction / invalidation path).
    pub(crate) fn release_cache_cells(&self, n: u64) {
        if self.cfg.global_cells == 0 || n == 0 {
            return;
        }
        let mut st = self.lock();
        st.cells_out = st.cells_out.saturating_sub(n);
        drop(st);
        self.cv.notify_all();
    }

    /// Admit one query, waiting (bounded by `deadline` and the lane's
    /// queue depth) until a slot and a budget share are available.
    ///
    /// Returns a typed error instead of a permit when:
    /// * the estimate can never fit the global budget (immediate shed,
    ///   retry hint 0 — retrying cannot help);
    /// * the lane's queue is full (shed with a positive retry hint);
    /// * `deadline` passes while queued (`Resource::TimeMs` — queue time
    ///   counts against the query's deadline);
    /// * `cancel` trips while queued (`CubeError::Cancelled`).
    pub fn admit(
        self: &Arc<Self>,
        cost: &QueryCost,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> CubeResult<Permit> {
        failpoint(Site::ServiceAdmit)?;
        if self.cfg.is_unlimited() {
            // No admission governance: hand out a free permit without
            // touching the lock at all.
            self.admitted.incr();
            return Ok(Permit {
                ctrl: Arc::clone(self),
                governed: false,
                heavy: false,
                granted_cells: 0,
            });
        }
        let heavy = self.is_heavy(cost);
        let need = self.grant_for(cost);
        let started = Instant::now();

        // A heavy query whose reservation exceeds the whole budget can
        // never be admitted: shed now, with no retry hint (retrying is
        // pointless until the budget is resized or the query shrinks).
        if self.cfg.global_cells > 0 && heavy && need > self.cfg.global_cells {
            self.shed.incr();
            return Err(CubeError::ResourceExhausted {
                resource: Resource::Cells,
                limit: self.cfg.global_cells,
                observed: need,
                stats: ExecStats::default(),
            });
        }

        // Declared before the lock guard so an unwinding failpoint drops
        // the guard (releasing the mutex) before this drops (re-locking).
        let mut queued_guard: Option<QueuedGuard> = None;
        let mut st = self.lock();
        loop {
            if self.can_admit(&st, heavy, need) {
                if let Some(g) = queued_guard.as_mut() {
                    g.release(&mut st);
                }
                st.running += 1;
                if heavy {
                    st.heavy_running += 1;
                }
                st.cells_out = st.cells_out.saturating_add(need);
                self.admitted.incr();
                if queued_guard.is_some() {
                    self.queued.incr();
                }
                return Ok(Permit {
                    ctrl: Arc::clone(self),
                    governed: true,
                    heavy,
                    granted_cells: need,
                });
            }
            if queued_guard.is_none() {
                let depth = if heavy {
                    st.heavy_queued
                } else {
                    st.cheap_queued
                };
                if depth >= self.cfg.queue_depth {
                    return Err(self.shed_error(&st));
                }
                if heavy {
                    st.heavy_queued += 1;
                } else {
                    st.cheap_queued += 1;
                }
                queued_guard = Some(QueuedGuard {
                    ctrl: Arc::clone(self),
                    heavy,
                    armed: true,
                });
            }
            // Deadline and cancellation are the query's own governance:
            // time spent here is time the query no longer has.
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    if let Some(g) = queued_guard.as_mut() {
                        g.release(&mut st);
                    }
                    return Err(CubeError::Cancelled {
                        stats: ExecStats::default(),
                    });
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    if let Some(g) = queued_guard.as_mut() {
                        g.release(&mut st);
                    }
                    return Err(CubeError::ResourceExhausted {
                        resource: Resource::TimeMs,
                        limit: 0,
                        observed: started.elapsed().as_millis() as u64,
                        stats: ExecStats::default(),
                    });
                }
            }
            failpoint(Site::ServiceQueueWait)?;
            let (guard, _timeout) = self
                .cv
                .wait_timeout(st, QUEUE_POLL)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_small() -> ServiceConfig {
        ServiceConfig {
            max_concurrent: 2,
            cheap_reserved: 1,
            cheap_cells: 100,
            global_cells: 10_000,
            min_grant_cells: 10,
            queue_depth: 1,
        }
    }

    #[test]
    fn unlimited_config_admits_everything_for_free() {
        let ctrl = AdmissionController::new(ServiceConfig::default());
        for _ in 0..64 {
            let p = ctrl
                .admit(&QueryCost::new(1 << 40, 1 << 20), None, None)
                .unwrap();
            assert_eq!(p.granted_cells(), 0);
            std::mem::forget(p); // never released; unlimited mode holds no state
        }
        assert_eq!(ctrl.counters().admitted, 64);
    }

    #[test]
    fn slots_are_bounded_and_released() {
        let ctrl = AdmissionController::new(cfg_small());
        let cheap = QueryCost::new(10, 2);
        let a = ctrl.admit(&cheap, None, None).unwrap();
        let b = ctrl.admit(&cheap, None, None).unwrap();
        // Third concurrent query: queue is depth 1, deadline already
        // passed → typed TimeMs error, not a hang.
        let err = ctrl.admit(&cheap, Some(Instant::now()), None).unwrap_err();
        assert!(matches!(
            err,
            CubeError::ResourceExhausted {
                resource: Resource::TimeMs,
                ..
            }
        ));
        drop(a);
        drop(b);
        let c = ctrl.admit(&cheap, None, None).unwrap();
        drop(c);
    }

    #[test]
    fn oversized_heavy_query_sheds_immediately_with_no_retry_hint() {
        let ctrl = AdmissionController::new(cfg_small());
        // 10k-cell budget, 1M-cell ask: never admissible.
        let err = ctrl
            .admit(&QueryCost::new(1_000_000, 1), None, None)
            .unwrap_err();
        // A `Cells` shed carries no hint: retrying cannot help.
        match err {
            CubeError::ResourceExhausted { resource, .. } => {
                assert_eq!(resource, Resource::Cells);
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(ctrl.counters().shed, 1);
    }

    #[test]
    fn full_queue_sheds_with_retry_hint() {
        let ctrl = AdmissionController::new(ServiceConfig {
            max_concurrent: 1,
            queue_depth: 0,
            ..cfg_small()
        });
        let cheap = QueryCost::new(10, 2);
        let _held = ctrl.admit(&cheap, None, None).unwrap();
        let err = ctrl.admit(&cheap, None, None).unwrap_err();
        match err {
            CubeError::ResourceExhausted {
                resource: Resource::AdmissionQueue { retry_hint_ms },
                ..
            } => {
                assert!(retry_hint_ms > 0, "shed must carry a retry hint");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn cancellation_while_queued_is_typed() {
        let ctrl = AdmissionController::new(ServiceConfig {
            max_concurrent: 1,
            queue_depth: 4,
            ..cfg_small()
        });
        let _held = ctrl.admit(&QueryCost::new(10, 2), None, None).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = ctrl
            .admit(&QueryCost::new(10, 2), None, Some(&token))
            .unwrap_err();
        assert!(matches!(err, CubeError::Cancelled { .. }));
    }

    #[test]
    fn cheap_lane_bypasses_heavy_saturation() {
        let ctrl = AdmissionController::new(ServiceConfig {
            max_concurrent: 2,
            cheap_reserved: 1,
            cheap_cells: 100,
            global_cells: 1_000,
            min_grant_cells: 1,
            queue_depth: 0,
        });
        // Heavy query takes the single heavy-capable slot AND most budget.
        let heavy = ctrl.admit(&QueryCost::new(800, 1), None, None).unwrap();
        // Another heavy is shed (heavy cap = 1, queue depth 0)...
        assert!(ctrl.admit(&QueryCost::new(800, 1), None, None).is_err());
        // ...but a cheap query still gets its reserved slot, budget-exempt.
        let cheap = ctrl.admit(&QueryCost::new(20, 2), None, None).unwrap();
        drop(cheap);
        drop(heavy);
    }

    #[test]
    fn queued_query_admits_once_the_slot_frees() {
        let ctrl = AdmissionController::new(ServiceConfig {
            max_concurrent: 1,
            queue_depth: 2,
            ..cfg_small()
        });
        let held = ctrl.admit(&QueryCost::new(10, 2), None, None).unwrap();
        let ctrl2 = Arc::clone(&ctrl);
        let waiter = std::thread::spawn(move || {
            ctrl2
                .admit(&QueryCost::new(10, 2), None, None)
                .map(|p| p.granted_cells())
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        // The grant is the estimate, 2 × (10 + 1) cells.
        assert_eq!(waiter.join().unwrap().unwrap(), 22);
        // Admitted after waiting: counted as queued.
        assert_eq!(ctrl.counters().queued, 1);
    }
}
