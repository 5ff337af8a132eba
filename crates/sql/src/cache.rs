//! The lattice cache: materialized ancestor views shared by every
//! session of one engine, with greedy benefit-per-cell retention.
//!
//! This module is a *policy* — what to keep, keyed how, under which
//! budget — over `Arc<`[`CachedView`]`>`, the materialized store of
//! `datacube::maintain` built at the core GROUP BY of some dimension set
//! over a registered table. A query the store's usability test accepts
//! ([`CachedView::can_answer`]) is answered by re-aggregating the entry's
//! cells instead of scanning base rows; [`CubeCache::lookup`] picks the
//! *minimum-cardinality* such ancestor, the same smallest-parent rule
//! the in-query cascade uses.
//!
//! Retention is the Harinarayan-style greedy benefit argument applied
//! to observed traffic: an entry's benefit-per-cell is
//! `hits × (base_rows − cells) / cells` — rows it saves per query,
//! amortized over the memory it pins. When the configured cell budget
//! overflows, the lowest-benefit entries are evicted first. Entry
//! memory is *reserved through the admission controller*
//! ([`crate::AdmissionController`]), so cached cells and in-flight
//! query cells draw on the same global pool: a cache that cannot
//! reserve simply declines to materialize.
//!
//! Invalidation is by construction: entries are keyed by
//! `(table, catalog version)`, and [`crate::Catalog::update_table`]
//! bumps the version, so a republished table can never be served stale
//! cells. [`CubeCache::invalidate_table`] additionally drops the dead
//! entries eagerly to return their reservation.

use crate::admission::{failpoint, AdmissionController};
use datacube::{CachedView, CubeResult, GroupingSet};
use dc_relation::Table;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default retention budget: generous for a library engine (the real
/// constraint is the admission controller's global pool, when one is
/// configured).
const DEFAULT_BUDGET_CELLS: u64 = 1 << 22;

struct CacheEntry {
    /// Upper-cased table name.
    table: String,
    /// Catalog version of the table the view was built against.
    version: u64,
    /// Dimension keys (output column names), view order.
    dims: Vec<String>,
    /// Aggregate keys — each call's canonical text, parameters included
    /// (`"SUM(units)"`, `"COUNT(*)"`, `"MAXN(v, 2)"`), view order.
    aggs: Vec<String>,
    view: Arc<CachedView>,
    /// Core cells the entry pins (≥ 1 so benefit division is safe).
    cells: u64,
    /// Queries this entry has answered (plus one for the query that
    /// populated it) — the traffic term of the benefit formula.
    traffic: u64,
}

impl CacheEntry {
    /// Greedy benefit-per-cell: base rows saved per hit, amortized over
    /// the cells pinned, scaled by observed traffic.
    fn benefit(&self) -> u64 {
        self.traffic
            .saturating_mul(self.view.base_row_count().saturating_sub(self.cells))
            / self.cells
    }
}

/// A successful ancestor lookup: the view plus the index maps the
/// rewrite needs (query position → view position).
pub struct CacheHit {
    pub view: Arc<CachedView>,
    pub dim_map: Vec<usize>,
    pub agg_map: Vec<usize>,
    /// The ancestor's grouping-set bitmask, for `ExecStats`.
    pub ancestor_bits: u32,
}

/// Counters for tests, benchmarks, and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
    pub cells: u64,
    pub evictions: u64,
}

/// The engine-wide lattice cache. Cheap to share (`Arc`), safe to hit
/// concurrently: lookups clone an `Arc<CachedView>` under a short lock
/// and re-aggregate outside it.
pub struct CubeCache {
    enabled: AtomicBool,
    budget_cells: AtomicU64,
    admission: Arc<AdmissionController>,
    entries: Mutex<Vec<CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CubeCache {
    pub(crate) fn new(admission: Arc<AdmissionController>) -> Arc<Self> {
        Arc::new(CubeCache {
            enabled: AtomicBool::new(true),
            budget_cells: AtomicU64::new(DEFAULT_BUDGET_CELLS),
            admission,
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Vec<CacheEntry>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Engine-wide switch (sessions additionally opt out per-session via
    /// `SET CUBE_CACHE OFF`).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
        if !on {
            self.clear();
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Retention budget in cells. Shrinking it evicts immediately.
    pub fn set_budget_cells(&self, cells: u64) {
        self.budget_cells.store(cells.max(1), Ordering::SeqCst);
        let mut entries = self.lock();
        let _ = self.evict_to_budget(&mut entries, 0);
    }

    pub fn counters(&self) -> CacheCounters {
        let entries = self.lock();
        CacheCounters {
            // cube-lint: allow(atomic, telemetry read of a monotone counter; entry state is read under the entries mutex)
            hits: self.hits.load(Ordering::Relaxed),
            // cube-lint: allow(atomic, telemetry read of a monotone counter; entry state is read under the entries mutex)
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries.len() as u64,
            cells: entries.iter().map(|e| e.cells).sum(),
            // cube-lint: allow(atomic, telemetry read of a monotone counter; entry state is read under the entries mutex)
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drop every entry (engine shutdown / cache disable), returning all
    /// reservations to the admission pool.
    pub fn clear(&self) {
        let mut entries = self.lock();
        for e in entries.drain(..) {
            self.admission.release_cache_cells(e.cells);
        }
    }

    /// Drop every entry for `table` (any version) — the eager half of
    /// invalidation; the version key already makes stale entries
    /// unreachable.
    pub fn invalidate_table(&self, table: &str) {
        let key = table.to_uppercase();
        let mut entries = self.lock();
        entries.retain(|e| {
            if e.table == key {
                self.admission.release_cache_cells(e.cells);
                false
            } else {
                true
            }
        });
    }

    /// Fold a batch of freshly inserted rows into every retained view of
    /// `table` instead of invalidating them — §6's insert path applied to
    /// the cache. `new_version` is the catalog version the insert
    /// republished; entries at `new_version - 1` absorb the delta by
    /// Iter_super merge and are re-keyed to `new_version`, so the very
    /// next read hits warm. Anything that cannot absorb — an older
    /// version, an absorb error (injected fault, panicking UDA), or a
    /// grown view the admission pool cannot cover — falls back to
    /// version-bump invalidation: the entry is dropped and its
    /// reservation returned.
    pub fn apply_delta(&self, table: &str, new_version: u64, delta: &Table) {
        if !self.is_enabled() {
            return;
        }
        let key = table.to_uppercase();
        let prior = new_version.saturating_sub(1);
        let mut entries = self.lock();
        let mut i = 0;
        while i < entries.len() {
            if entries[i].table != key {
                i += 1;
                continue;
            }
            if entries[i].version != prior {
                let dead = entries.swap_remove(i);
                self.admission.release_cache_cells(dead.cells);
                continue;
            }
            // Absorb under the panic guard: a UDA bomb (or injected
            // fault) in the merge degrades to invalidation of this entry,
            // never to failing the already-committed write.
            let absorbed = datacube::exec::guard("cache::absorb", || entries[i].view.absorb(delta))
                .and_then(|r| r);
            match absorbed {
                Ok(absorbed) => {
                    let new_cells = absorbed.cell_count().max(1);
                    let old_cells = entries[i].cells;
                    let grown = new_cells.saturating_sub(old_cells);
                    if grown > 0 && !self.admission.try_reserve_cache_cells(grown) {
                        let dead = entries.swap_remove(i);
                        self.admission.release_cache_cells(dead.cells);
                        continue;
                    }
                    if new_cells < old_cells {
                        self.admission.release_cache_cells(old_cells - new_cells);
                    }
                    let entry = &mut entries[i];
                    entry.view = Arc::new(absorbed);
                    entry.version = new_version;
                    entry.cells = new_cells;
                    i += 1;
                }
                Err(_) => {
                    let dead = entries.swap_remove(i);
                    self.admission.release_cache_cells(dead.cells);
                }
            }
        }
        let _ = self.evict_to_budget(&mut entries, 0);
    }

    /// Find the minimum-cardinality materialized ancestor able to answer
    /// a query over `dims`/`aggs` against `(table, version)`. Records the
    /// hit in the entry's traffic (feeding later eviction decisions) and
    /// garbage-collects entries for older versions of the same table.
    pub fn lookup(
        &self,
        table: &str,
        version: u64,
        dims: &[String],
        aggs: &[String],
    ) -> CubeResult<Option<CacheHit>> {
        failpoint("cache::lookup")?;
        if !self.is_enabled() {
            return Ok(None);
        }
        let key = table.to_uppercase();
        let mut entries = self.lock();
        // Versions are monotone: anything older than the snapshot we are
        // serving is dead weight holding budget.
        entries.retain(|e| {
            if e.table == key && e.version < version {
                self.admission.release_cache_cells(e.cells);
                false
            } else {
                true
            }
        });
        // Query position → view position, when the view holds them all
        // and its usability test accepts the request.
        let positions = |of: &[String], within: &[String]| -> Option<Vec<usize>> {
            let pos = |x| within.iter().position(|y| y == x);
            of.iter().map(pos).collect()
        };
        let best = entries
            .iter_mut()
            .filter(|e| e.table == key && e.version == version)
            .filter_map(|e| {
                let dim_map = positions(dims, &e.dims)?;
                let agg_map = positions(aggs, &e.aggs)?;
                e.view
                    .can_answer(&dim_map, &agg_map)
                    .then_some((e, dim_map, agg_map))
            })
            .min_by_key(|(e, ..)| e.cells);
        match best {
            Some((entry, dim_map, agg_map)) => {
                entry.traffic = entry.traffic.saturating_add(1);
                // cube-lint: allow(atomic, monotone hit counter; the entry mutation happens under the entries mutex)
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(CacheHit {
                    view: Arc::clone(&entry.view),
                    dim_map,
                    agg_map,
                    ancestor_bits: GroupingSet::full(entry.dims.len()).bits(),
                }))
            }
            None => {
                // cube-lint: allow(atomic, monotone miss counter; lookup state is read under the entries mutex)
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Offer a freshly built view for retention. Declines silently when
    /// the cache is off, the view alone exceeds the budget, an identical
    /// entry already exists, or the admission pool cannot cover the
    /// reservation. May evict lower-benefit entries to make room.
    pub fn populate(
        &self,
        table: &str,
        version: u64,
        dims: Vec<String>,
        aggs: Vec<String>,
        view: CachedView,
    ) -> CubeResult<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        let key = table.to_uppercase();
        let cells = view.cell_count().max(1);
        if cells > self.budget_cells.load(Ordering::SeqCst) {
            return Ok(());
        }
        if !self.admission.try_reserve_cache_cells(cells) {
            return Ok(());
        }
        let mut entries = self.lock();
        if entries
            .iter()
            .any(|e| e.table == key && e.version == version && e.dims == dims && e.aggs == aggs)
        {
            self.admission.release_cache_cells(cells);
            return Ok(());
        }
        entries.push(CacheEntry {
            table: key,
            version,
            dims,
            aggs,
            view: Arc::new(view),
            cells,
            traffic: 1,
        });
        self.evict_to_budget(&mut entries, 0)
    }

    /// Evict lowest-benefit entries until total pinned cells fit the
    /// budget less `headroom`. Greedy in reverse: the marginal benefit
    /// argument says the views least worth their cells go first.
    fn evict_to_budget(&self, entries: &mut Vec<CacheEntry>, headroom: u64) -> CubeResult<()> {
        let budget = self
            .budget_cells
            .load(Ordering::SeqCst)
            .saturating_sub(headroom);
        let mut total: u64 = entries.iter().map(|e| e.cells).sum();
        if total <= budget {
            return Ok(());
        }
        failpoint("cache::evict")?;
        while total > budget && !entries.is_empty() {
            let victim = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.benefit())
                .map(|(i, _)| i)
                // cube-lint: allow(panic, the loop condition guarantees entries is non-empty)
                .expect("non-empty");
            let evicted = entries.swap_remove(victim);
            self.admission.release_cache_cells(evicted.cells);
            // cube-lint: allow(atomic, monotone eviction counter; the eviction itself happens under the entries mutex)
            self.evictions.fetch_add(1, Ordering::Relaxed);
            total -= evicted.cells;
        }
        Ok(())
    }
}

impl std::fmt::Debug for CubeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("CubeCache")
            .field("enabled", &self.is_enabled())
            .field("entries", &c.entries)
            .field("cells", &c.cells)
            .field("hits", &c.hits)
            .field("misses", &c.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::ServiceConfig;
    use datacube::{AggSpec, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table};

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
        ]);
        Table::new(
            schema,
            vec![
                row!["Chevy", 1994, 50],
                row!["Chevy", 1995, 85],
                row!["Ford", 1994, 60],
            ],
        )
        .unwrap()
    }

    fn view_over(dims: &[&str]) -> CachedView {
        let t = sales();
        let d: Vec<Dimension> = dims.iter().map(Dimension::column).collect();
        let a = vec![AggSpec::new(builtin("SUM").unwrap(), "units")];
        CachedView::build(&t, &d, &a).unwrap()
    }

    fn unlimited_cache() -> Arc<CubeCache> {
        CubeCache::new(AdmissionController::new(ServiceConfig::default()))
    }

    fn keys(dims: &[&str]) -> (Vec<String>, Vec<String>) {
        (
            dims.iter().map(|s| s.to_string()).collect(),
            vec!["SUM(units)".to_string()],
        )
    }

    #[test]
    fn lookup_prefers_smallest_ancestor() {
        let cache = unlimited_cache();
        let (d2, a) = keys(&["model", "year"]);
        cache
            .populate("t", 1, d2, a.clone(), view_over(&["model", "year"]))
            .unwrap();
        let (d1, _) = keys(&["model"]);
        cache
            .populate("t", 1, d1.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        // A model-only query matches both entries; the 2-cell model view
        // wins over the 3-cell (model, year) core.
        let hit = cache.lookup("t", 1, &d1, &a).unwrap().unwrap();
        assert_eq!(hit.view.cell_count(), 2);
        assert_eq!(hit.dim_map, vec![0]);
        // A (model, year) query can only use the 2-D view.
        let (dq, _) = keys(&["year", "model"]);
        let hit = cache.lookup("t", 1, &dq, &a).unwrap().unwrap();
        assert_eq!(hit.view.cell_count(), 3);
        assert_eq!(hit.dim_map, vec![1, 0]); // query order → view order
    }

    #[test]
    fn version_mismatch_misses_and_collects() {
        let cache = unlimited_cache();
        let (d, a) = keys(&["model"]);
        cache
            .populate("t", 1, d.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        assert!(cache.lookup("t", 2, &d, &a).unwrap().is_none());
        // The stale v1 entry was garbage-collected by the v2 lookup.
        assert_eq!(cache.counters().entries, 0);
    }

    #[test]
    fn invalidate_drops_table_entries() {
        let cache = unlimited_cache();
        let (d, a) = keys(&["model"]);
        cache
            .populate("t", 1, d.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        cache
            .populate("u", 1, d.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        cache.invalidate_table("T");
        assert!(cache.lookup("t", 1, &d, &a).unwrap().is_none());
        assert!(cache.lookup("u", 1, &d, &a).unwrap().is_some());
    }

    #[test]
    fn budget_eviction_keeps_high_traffic_views() {
        let cache = unlimited_cache();
        let (d2, a) = keys(&["model", "year"]);
        let (d1, _) = keys(&["model"]);
        cache
            .populate("t", 1, d1.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        // Drive traffic to the small view.
        for _ in 0..10 {
            cache.lookup("t", 1, &d1, &a).unwrap().unwrap();
        }
        cache
            .populate("t", 1, d2.clone(), a.clone(), view_over(&["model", "year"]))
            .unwrap();
        // Budget of 2 cells: only the hot 2-cell model view survives.
        cache.set_budget_cells(2);
        assert!(cache.lookup("t", 1, &d1, &a).unwrap().is_some());
        assert!(cache.lookup("t", 1, &d2, &a).unwrap().is_none());
        assert!(cache.counters().evictions >= 1);
    }

    #[test]
    fn admission_budget_gates_population() {
        // Global pool of 2 cells; the 3-cell (model, year) view cannot
        // reserve and is silently declined.
        let ctrl = AdmissionController::new(ServiceConfig {
            global_cells: 2,
            ..ServiceConfig::default()
        });
        let cache = CubeCache::new(ctrl);
        let (d2, a) = keys(&["model", "year"]);
        cache
            .populate("t", 1, d2.clone(), a.clone(), view_over(&["model", "year"]))
            .unwrap();
        assert!(cache.lookup("t", 1, &d2, &a).unwrap().is_none());
        // A 2-cell view fits the pool exactly.
        let (d1, _) = keys(&["model"]);
        cache
            .populate("t", 1, d1.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        assert!(cache.lookup("t", 1, &d1, &a).unwrap().is_some());
    }

    #[test]
    fn apply_delta_absorbs_instead_of_invalidating() {
        let cache = unlimited_cache();
        let (d, a) = keys(&["model"]);
        cache
            .populate("t", 1, d.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        let delta = Table::new(
            sales().schema().clone(),
            vec![row!["Dodge", 2000, 7], row!["Chevy", 1994, 15]],
        )
        .unwrap();
        cache.apply_delta("t", 2, &delta);
        // The entry followed the version bump by absorbing the batch: a
        // new cell for Dodge, a merged cell for Chevy, no invalidation.
        let hit = cache.lookup("t", 2, &d, &a).unwrap().unwrap();
        assert_eq!(hit.view.cell_count(), 3);
        assert_eq!(hit.view.base_row_count(), 5);
        assert_eq!(cache.counters().entries, 1);
    }

    #[test]
    fn apply_delta_drops_views_it_cannot_grow() {
        // Global pool of exactly 2 cells: the 2-cell model view fits, but
        // growing it to 3 cells cannot reserve — fall back to dropping.
        let ctrl = AdmissionController::new(ServiceConfig {
            global_cells: 2,
            ..ServiceConfig::default()
        });
        let cache = CubeCache::new(ctrl);
        let (d, a) = keys(&["model"]);
        cache
            .populate("t", 1, d.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        let delta = Table::new(sales().schema().clone(), vec![row!["Dodge", 2000, 7]]).unwrap();
        cache.apply_delta("t", 2, &delta);
        assert!(cache.lookup("t", 2, &d, &a).unwrap().is_none());
        // The reservation was returned with the entry.
        assert_eq!(cache.counters().cells, 0);
    }

    #[test]
    fn disabled_cache_answers_nothing() {
        let cache = unlimited_cache();
        let (d, a) = keys(&["model"]);
        cache
            .populate("t", 1, d.clone(), a.clone(), view_over(&["model"]))
            .unwrap();
        cache.set_enabled(false);
        assert!(cache.lookup("t", 1, &d, &a).unwrap().is_none());
        cache.set_enabled(true);
        // Disabling cleared retained entries (and their reservations).
        assert!(cache.lookup("t", 1, &d, &a).unwrap().is_none());
    }
}
