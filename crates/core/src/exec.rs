//! Execution governance: resource budgets, deadlines, cooperative
//! cancellation, and panic isolation.
//!
//! The cube is "potentially much larger than the base relation" (§3) — a
//! 2^N blow-up by construction — so an ungoverned query can allocate
//! without bound, and §5's partition-parallel plan multiplies the failure
//! surface across worker threads. This module makes every execution path
//! *governed*:
//!
//! * [`ExecLimits`] is the caller-facing budget: a maximum number of
//!   materialized cells, an estimated memory ceiling, a wall-clock
//!   timeout, and a shareable [`CancelToken`].
//! * [`ExecContext`] is the runtime form threaded through every
//!   algorithm. Cell creation calls [`ExecContext::charge_cells`]; row
//!   loops call [`ExecContext::tick`] every [`CHECKPOINT_INTERVAL`] rows
//!   to poll the deadline and the cancel token. Exceeding any budget
//!   unwinds cleanly with `CubeError::ResourceExhausted` or
//!   `CubeError::Cancelled`.
//! * [`guard`] wraps every user-defined-aggregate callback (the paper's
//!   Init / Iter / Iter_super / Final) in `catch_unwind`, converting
//!   panics into `CubeError::AggPanicked` instead of tearing down thread
//!   scopes or the whole process.
//! * `failpoint` is the hook for the `faults` test feature: named sites
//!   across the algorithms where tests inject panics, stalls, and budget
//!   trips (see `dc_aggregate::faults`).
//!
//! The context is `Sync` — parallel workers share one `&ExecContext`, so
//! the cell budget is global across partitions, and cancelling the token
//! stops every worker at its next checkpoint.

use crate::error::{CubeError, CubeResult, Resource};
use crate::groupby::ExecStats;
use crate::spec::BoundAgg;
use dc_aggregate::faults::Site;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Rows/cells between cooperative checkpoints ([`ExecContext::tick`]).
/// Small enough that a cancelled query stops in microseconds, large
/// enough that polling is invisible next to the hash-probe per row.
pub const CHECKPOINT_INTERVAL: usize = 1024;

/// A shareable cancellation flag (`Arc<AtomicBool>`): clone it, hand one
/// copy to the query via [`ExecLimits::cancel_token`], and call
/// [`CancelToken::cancel`] from any thread. The running query observes it
/// at its next checkpoint and unwinds with `CubeError::Cancelled`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        // cube-lint: allow(atomic, best-effort cancellation poll; no data crosses on this flag and the setter stores SeqCst)
        self.0.load(Ordering::Relaxed)
    }
}

/// Execution budgets for one cube query. The default is unlimited —
/// identical to pre-governance behaviour.
///
/// ```
/// use datacube::{CancelToken, ExecLimits};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let limits = ExecLimits::none()
///     .max_cells(1 << 20)
///     .max_memory_bytes(256 << 20)
///     .timeout(Duration::from_secs(30))
///     .cancel_token(token.clone());
/// // `token.cancel()` from another thread stops the query at its next
/// // checkpoint.
/// # let _ = limits;
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecLimits {
    pub(crate) max_cells: Option<u64>,
    pub(crate) max_memory_bytes: Option<u64>,
    pub(crate) timeout: Option<Duration>,
    pub(crate) cancel: Option<CancelToken>,
}

impl ExecLimits {
    /// No limits at all (the default).
    pub fn none() -> Self {
        ExecLimits::default()
    }

    /// Cap the number of materialized cells across all grouping sets.
    /// `0` means unlimited.
    pub fn max_cells(mut self, cells: u64) -> Self {
        self.max_cells = (cells > 0).then_some(cells);
        self
    }

    /// Cap the *estimated* memory footprint (cells × a per-cell size
    /// model; see [`estimate_bytes_per_cell`]). `0` means unlimited.
    pub fn max_memory_bytes(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = (bytes > 0).then_some(bytes);
        self
    }

    /// Wall-clock deadline, measured from query start.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attach a cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True when no budget, deadline, or token is configured.
    pub fn is_unlimited(&self) -> bool {
        self.max_cells.is_none()
            && self.max_memory_bytes.is_none()
            && self.timeout.is_none()
            && self.cancel.is_none()
    }
}

/// Rough per-cell footprint: the key (one `Value` per dimension plus map
/// overhead) and one boxed accumulator per aggregate. Deliberately a
/// *model*, not a measurement — the point is a monotone proxy the caller
/// can budget against, the same way §3's `Π(C_i + 1)` is a size model.
pub fn estimate_bytes_per_cell(n_dims: usize, n_aggs: usize) -> u64 {
    32 + 24 * n_dims as u64 + 96 * n_aggs as u64
}

/// The runtime form of [`ExecLimits`], shared by reference across all
/// worker threads of one query.
#[derive(Debug)]
pub struct ExecContext {
    max_cells: Option<u64>,
    max_memory_bytes: Option<u64>,
    bytes_per_cell: u64,
    /// Cells charged so far, global across threads.
    cells: AtomicU64,
    deadline: Option<Instant>,
    timeout_ms: u64,
    started: Instant,
    cancel: Option<CancelToken>,
    /// Fast-path flags: skip the atomics entirely when nothing is set.
    metered: bool,
    governed: bool,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new(&ExecLimits::none(), 1)
    }
}

impl ExecContext {
    pub fn new(limits: &ExecLimits, bytes_per_cell: u64) -> Self {
        let started = Instant::now();
        ExecContext {
            max_cells: limits.max_cells,
            max_memory_bytes: limits.max_memory_bytes,
            bytes_per_cell: bytes_per_cell.max(1),
            cells: AtomicU64::new(0),
            deadline: limits.timeout.map(|t| started + t),
            timeout_ms: limits.timeout.map(|t| t.as_millis() as u64).unwrap_or(0),
            started,
            cancel: limits.cancel.clone(),
            metered: limits.max_cells.is_some() || limits.max_memory_bytes.is_some(),
            governed: limits.timeout.is_some() || limits.cancel.is_some(),
        }
    }

    /// A context with no limits — what internal tests and ungoverned
    /// callers use; every check is a branch on a cold bool.
    pub fn unlimited() -> Self {
        ExecContext::default()
    }

    /// The effective cell budget, folding the memory budget through the
    /// per-cell size model. Degradation decisions compare projected sizes
    /// against this.
    pub fn cell_budget(&self) -> Option<u64> {
        let from_mem = self.max_memory_bytes.map(|b| b / self.bytes_per_cell);
        match (self.max_cells, from_mem) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Charge `n` freshly materialized cells against the budget. Called at
    /// every cell *creation* (the paper's Init() burst), never on updates,
    /// so the count tracks live memory, not row traffic.
    #[inline]
    pub fn charge_cells(&self, n: u64) -> CubeResult<()> {
        if !self.metered {
            return Ok(());
        }
        // cube-lint: allow(atomic, atomic RMW keeps the budget total exact; the limit check uses only the returned value and no other memory is published through it)
        let total = self.cells.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.max_cells {
            if total > limit {
                return Err(CubeError::ResourceExhausted {
                    resource: Resource::Cells,
                    limit,
                    observed: total,
                    stats: ExecStats::default(),
                });
            }
        }
        if let Some(limit) = self.max_memory_bytes {
            let bytes = total.saturating_mul(self.bytes_per_cell);
            if bytes > limit {
                return Err(CubeError::ResourceExhausted {
                    resource: Resource::MemoryBytes,
                    limit,
                    observed: bytes,
                    stats: ExecStats::default(),
                });
            }
        }
        Ok(())
    }

    /// Poll the cancel token and the deadline. Cheap enough to call per
    /// batch; row loops use [`ExecContext::tick`] instead.
    #[inline]
    pub fn checkpoint(&self) -> CubeResult<()> {
        if !self.governed {
            return Ok(());
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(CubeError::Cancelled {
                    stats: ExecStats::default(),
                });
            }
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now > deadline {
                return Err(CubeError::ResourceExhausted {
                    resource: Resource::TimeMs,
                    limit: self.timeout_ms,
                    observed: now.duration_since(self.started).as_millis() as u64,
                    stats: ExecStats::default(),
                });
            }
        }
        Ok(())
    }

    /// Cooperative checkpoint for row/cell loops: a full [`checkpoint`]
    /// every [`CHECKPOINT_INTERVAL`] iterations, a mask-and-branch
    /// otherwise.
    ///
    /// [`checkpoint`]: ExecContext::checkpoint
    #[inline]
    pub fn tick(&self, i: usize) -> CubeResult<()> {
        if i & (CHECKPOINT_INTERVAL - 1) == 0 {
            self.checkpoint()
        } else {
            Ok(())
        }
    }
}

/// Render a panic payload as text (the common `&str` / `String` payloads;
/// anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Convert a caught panic payload into the typed error.
pub(crate) fn panic_error(site: &str, payload: &(dyn std::any::Any + Send)) -> CubeError {
    CubeError::AggPanicked {
        agg: site.to_string(),
        message: panic_message(payload),
    }
}

/// Run one user-aggregate callback under `catch_unwind`, converting a
/// panic into `CubeError::AggPanicked(name, message)`. The happy path is
/// a plain call — `name` is only materialized on unwind. Public so that
/// every layer invoking accumulator or UDF code (the SQL engine included)
/// can satisfy cube_lint's panic-isolation rule with the same wrapper.
#[inline]
pub fn guard<T>(name: &str, f: impl FnOnce() -> T) -> CubeResult<T> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_error(name, p.as_ref()))
}

/// The paper's Init() burst for a new cell, with each aggregate's Init
/// guarded (a UDA can panic in Init just as well as in Iter).
#[inline]
pub(crate) fn guarded_init(
    aggs: &[BoundAgg],
) -> CubeResult<Vec<Box<dyn dc_aggregate::Accumulator>>> {
    aggs.iter()
        .map(|a| guard(a.func.name(), || a.func.init()))
        .collect()
}

/// Hardware threads available to the cascade and the materializer. Read
/// once per process: on Linux `available_parallelism` re-reads the cgroup
/// files on every call.
pub(crate) fn worker_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Claim the next `stride` indices of a shared work cursor (row morsels,
/// cascade tasks, emit chunks); the caller stops once the claim passes the
/// end of its work list.
#[inline]
pub(crate) fn claim(cursor: &AtomicUsize, stride: usize) -> usize {
    // cube-lint: allow(atomic, work-claim counter: each claimed range is consumed only by the claiming thread, over data made visible by the scoped spawn)
    cursor.fetch_add(stride, Ordering::Relaxed)
}

/// Run `work` on `n` workers — inline when `n` is 1, scoped threads
/// otherwise — each with its own [`ExecStats`]. Every worker is joined and
/// every worker's stats are folded into `stats` before the first error
/// surfaces: an early return would drop the remaining handles, let a second
/// panicking worker unwind through the scope, and lose the scan progress a
/// budget trip reports. A worker panic becomes `AggPanicked(site, ..)`.
pub(crate) fn run_workers<T: Send>(
    n: usize,
    site: &str,
    stats: &mut ExecStats,
    work: impl Fn(&mut ExecStats) -> CubeResult<T> + Sync,
) -> CubeResult<Vec<T>> {
    type Outcome<T> = (CubeResult<T>, ExecStats);
    let outcomes: Vec<Outcome<T>> = if n <= 1 {
        let mut local = ExecStats::default();
        let result = guard(site, || work(&mut local)).and_then(|r| r);
        vec![(result, local)]
    } else {
        let lost = |p: Box<dyn std::any::Any + Send>| -> Outcome<T> {
            (Err(panic_error(site, p.as_ref())), ExecStats::default())
        };
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut local = ExecStats::default();
                        let result = work(&mut local);
                        (result, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(lost))
                .collect()
        })
        .unwrap_or_else(|p| vec![lost(p)])
    };
    let mut failed = None;
    let mut done = Vec::with_capacity(outcomes.len());
    for (result, local) in outcomes {
        stats.add(&local);
        match result {
            Ok(t) => done.push(t),
            Err(e) => failed = failed.or(Some(e)),
        }
    }
    failed.map_or(Ok(done), Err)
}

/// Test-support failpoint (see `dc_aggregate::faults`). With the `faults`
/// feature off this compiles to `Ok(())`; with it on, an armed fault at
/// `site` panics or stalls in place, and a budget-trip fault returns a
/// `ResourceExhausted` error for the engine to unwind with.
#[cfg(feature = "faults")]
pub(crate) fn failpoint(site: Site) -> CubeResult<()> {
    if dc_aggregate::faults::hit(site) {
        return Err(CubeError::ResourceExhausted {
            resource: Resource::Cells,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_context_never_trips() {
        let ctx = ExecContext::unlimited();
        ctx.charge_cells(u64::MAX / 2).unwrap();
        ctx.checkpoint().unwrap();
        for i in 0..10_000 {
            ctx.tick(i).unwrap();
        }
        assert_eq!(ctx.cell_budget(), None);
    }

    #[test]
    fn cell_budget_trips_at_limit() {
        let ctx = ExecContext::new(&ExecLimits::none().max_cells(10), 1);
        ctx.charge_cells(10).unwrap();
        let err = ctx.charge_cells(1).unwrap_err();
        match err {
            CubeError::ResourceExhausted {
                resource,
                limit,
                observed,
                ..
            } => {
                assert_eq!(resource, Resource::Cells);
                assert_eq!(limit, 10);
                assert_eq!(observed, 11);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn memory_budget_uses_cell_model() {
        let ctx = ExecContext::new(&ExecLimits::none().max_memory_bytes(1000), 100);
        assert_eq!(ctx.cell_budget(), Some(10));
        ctx.charge_cells(10).unwrap();
        assert!(matches!(
            ctx.charge_cells(1),
            Err(CubeError::ResourceExhausted {
                resource: Resource::MemoryBytes,
                ..
            })
        ));
    }

    #[test]
    fn cancel_token_observed_at_checkpoint() {
        let token = CancelToken::new();
        let ctx = ExecContext::new(&ExecLimits::none().cancel_token(token.clone()), 1);
        ctx.checkpoint().unwrap();
        token.cancel();
        assert!(matches!(ctx.checkpoint(), Err(CubeError::Cancelled { .. })));
    }

    #[test]
    fn expired_deadline_trips_time_budget() {
        let ctx = ExecContext::new(&ExecLimits::none().timeout(Duration::ZERO), 1);
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            ctx.checkpoint(),
            Err(CubeError::ResourceExhausted {
                resource: Resource::TimeMs,
                ..
            })
        ));
    }

    #[test]
    fn guard_converts_panics() {
        let ok = guard("SUM", || 41 + 1).unwrap();
        assert_eq!(ok, 42);
        let err = guard("MY_AGG", || -> i32 { panic!("bad value") }).unwrap_err();
        match err {
            CubeError::AggPanicked { agg, message } => {
                assert_eq!(agg, "MY_AGG");
                assert!(message.contains("bad value"));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }
}
