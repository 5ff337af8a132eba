//! The shared catalog: tables, aggregate functions, and scalar functions
//! behind one poison-tolerant `RwLock`.
//!
//! One engine serves many concurrent sessions (the paper positions CUBE
//! as an *interactive* operator — §1's "users of data analysis tools"),
//! so the name→object maps that used to live inside a single-owner
//! `Engine` are shared: registration takes the write lock, and query
//! execution takes a cheap [`CatalogSnapshot`] — `Arc` clones of the
//! tables plus shallow clones of the two registries — so no lock is held
//! while a query runs. A long 2^N cube therefore never blocks another
//! session's registration, and a writer never blocks readers for longer
//! than a map clone.
//!
//! Poisoning: a panicking session unwinds through `catch_unwind` in the
//! session layer, which can leave the `RwLock` poisoned. Every accessor
//! here recovers with `into_inner` — the catalog holds plain maps whose
//! invariants cannot be torn mid-update (each registration is a single
//! `insert`), so the poison flag carries no information for us.

use crate::cache::CubeCache;
use crate::error::{SqlError, SqlResult};
use crate::scalar::{self, ScalarFn, ScalarRegistry};
use datacube::DeltaBatch;
use dc_aggregate::{AggRef, Registry};
use dc_relation::Table;
use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockWriteGuard};

/// The mutable name→object maps, guarded by [`SharedCatalog`]. Every
/// mutator is private to this module: registration goes through
/// [`SharedCatalog`]'s `register_*` methods and a new version of a table
/// only through `SharedCatalog::publish`, so no code outside the catalog
/// runs under its lock and no version is committed that the cache does
/// not hear about.
///
/// ```compile_fail,E0624
/// // A table's contents change only through the publish path.
/// let mut c = dc_sql::Catalog::new();
/// let t = dc_relation::Table::empty(dc_relation::Schema::new(vec![]).unwrap());
/// c.replace_if_version("t", Some(1), t);
/// ```
///
/// ```compile_fail,E0599
/// // Nor is there an unconditional republish that skips the cache.
/// let mut c = dc_sql::Catalog::new();
/// let t = dc_relation::Table::empty(dc_relation::Schema::new(vec![]).unwrap());
/// c.update_table("t", t);
/// ```
pub struct Catalog {
    tables: Tables,
    aggs: Registry,
    scalars: ScalarRegistry,
}

/// Every registered table by upper-cased name, with its version: 1 at
/// registration, bumped by every publish. Cached subcube views are keyed
/// by `(name, version)`, so republishing a table under the same name
/// makes every stale view unreachable.
type Tables = HashMap<String, (Arc<Table>, u64)>;

impl Catalog {
    /// A catalog preloaded with the built-in aggregate and scalar
    /// functions.
    pub fn new() -> Self {
        Catalog {
            tables: HashMap::new(),
            aggs: dc_aggregate::builtins(),
            scalars: scalar::builtins(),
        }
    }

    fn register_table(&mut self, name: &str, table: Table) -> SqlResult<()> {
        let key = name.to_uppercase();
        if self.tables.contains_key(&key) {
            return Err(SqlError::Plan(format!("table already registered: {key}")));
        }
        self.tables.insert(key, (Arc::new(table), 1));
        Ok(())
    }

    /// Swap in a registered table's new contents and bump its version.
    /// With `expected`, this is a compare-and-swap: `Ok(None)` means
    /// another writer won the race — the caller re-reads a fresh
    /// snapshot, rebases its delta, and retries; no torn state is
    /// possible because the whole swap happens under the write lock.
    fn replace_if_version(
        &mut self,
        name: &str,
        expected: Option<u64>,
        table: Arc<Table>,
    ) -> SqlResult<Option<u64>> {
        let key = name.to_uppercase();
        let Some((current, version)) = self.tables.get_mut(&key) else {
            return Err(SqlError::Plan(format!("unknown table: {key}")));
        };
        if expected.is_some_and(|v| v != *version) {
            return Ok(None);
        }
        *current = table;
        *version += 1;
        Ok(Some(*version))
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

/// An immutable view of the catalog taken at statement start: `Arc`
/// clones of the registered tables plus shallow clones of the function
/// registries (both are maps of `Arc`'d implementations). Executing
/// against a snapshot means a statement sees one consistent catalog for
/// its whole lifetime, and concurrent registrations never invalidate an
/// in-flight plan.
#[derive(Clone)]
pub struct CatalogSnapshot {
    tables: Tables,
    pub(crate) aggs: Registry,
    pub(crate) scalars: ScalarRegistry,
}

impl CatalogSnapshot {
    /// A registered table, by case-insensitive name.
    pub fn table(&self, name: &str) -> SqlResult<Arc<Table>> {
        self.tables
            .get(&name.to_uppercase())
            .map(|(table, _)| Arc::clone(table))
            .ok_or_else(|| SqlError::Plan(format!("unknown table: {name}")))
    }

    /// The table's version at snapshot time (0 if the name is unknown).
    pub fn table_version(&self, name: &str) -> u64 {
        self.tables
            .get(&name.to_uppercase())
            .map_or(0, |&(_, version)| version)
    }
}

/// The `Arc`-shared, lock-guarded catalog handed to every [`crate::Session`].
///
/// Its lock is a leaf: each method below holds it for one map update or
/// clone and takes no other lock inside it, and no caller-supplied
/// closure runs under it.
///
/// ```compile_fail,E0599
/// // There is no way to run arbitrary code under the catalog lock.
/// let shared = dc_sql::SharedCatalog::new();
/// shared.with_write(|_| ());
/// ```
#[derive(Clone)]
pub struct SharedCatalog(Arc<RwLock<Catalog>>);

impl SharedCatalog {
    pub fn new() -> Self {
        SharedCatalog(Arc::new(RwLock::new(Catalog::new())))
    }

    fn write(&self) -> RwLockWriteGuard<'_, Catalog> {
        self.0.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a base table (case-insensitive name).
    pub(crate) fn register_table(&self, name: impl AsRef<str>, table: Table) -> SqlResult<()> {
        self.write().register_table(name.as_ref(), table)
    }

    /// Register a user-defined aggregate (the §1.2 extension mechanism).
    /// Its `name()` is the function's own code, so it runs before the lock.
    pub(crate) fn register_aggregate(&self, f: AggRef) -> SqlResult<()> {
        let name = f.name().to_string();
        self.write().aggs.register_as(name, f)?;
        Ok(())
    }

    /// Register a scalar function (e.g. the paper's `Nation(lat, lon)`).
    pub(crate) fn register_scalar(&self, f: ScalarFn) -> SqlResult<()> {
        self.write().scalars.register(f)
    }

    /// The one way a table gets a new version: swap `image` in (only if
    /// the version is still `expected`, when given), then tell `cache`.
    /// A statement passes the rows it inserted and deleted as `delta`, and
    /// the views retained for `expected` absorb them (§6) and share the
    /// `Arc` of `image` just installed as their base: the catalog vouches
    /// that `image` is that version less the deleted rows plus the
    /// inserted ones. A whole-table replace passes none and invalidates
    /// the table's views. The write lock is held for the swap only, so the
    /// cache's lock is never taken under it. `Ok(None)` is a lost race:
    /// nothing changed.
    pub(crate) fn publish(
        &self,
        cache: &CubeCache,
        table: &str,
        expected: Option<u64>,
        image: Table,
        delta: Option<&DeltaBatch>,
    ) -> SqlResult<Option<u64>> {
        let image = Arc::new(image);
        let shared = Arc::clone(&image);
        let swapped = self.write().replace_if_version(table, expected, shared)?;
        if let Some(version) = swapped {
            match delta {
                Some(delta) => cache.apply_delta(table, version, delta, &image),
                None => cache.invalidate_table(table),
            }
        }
        Ok(swapped)
    }

    /// Snapshot the catalog for one statement's execution. The read lock
    /// is held only for the duration of the three map clones (tables and
    /// the two function registries).
    pub fn snapshot(&self) -> CatalogSnapshot {
        let guard = self.0.read().unwrap_or_else(|p| p.into_inner());
        CatalogSnapshot {
            tables: guard.tables.clone(),
            aggs: guard.aggs.clone(),
            scalars: guard.scalars.clone(),
        }
    }
}

impl Default for SharedCatalog {
    fn default() -> Self {
        SharedCatalog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionController, ServiceConfig};
    use datacube::{AggSpec, CachedView, Dimension};
    use dc_relation::{row, DataType, Schema};

    fn small() -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        Table::new(schema, vec![row![1], row![2]]).unwrap()
    }

    #[test]
    fn snapshot_is_isolated_from_later_registration() {
        let shared = SharedCatalog::new();
        shared.register_table("a", small()).unwrap();
        let snap = shared.snapshot();
        shared.register_table("b", small()).unwrap();
        // The old snapshot does not see table B; a fresh one does.
        assert!(snap.table("b").is_err());
        assert!(shared.snapshot().table("b").is_ok());
        assert_eq!(snap.table("a").unwrap().len(), 2);
        assert_eq!((snap.table_version("A"), snap.table_version("b")), (1, 0));
    }

    #[test]
    fn duplicate_table_registration_is_a_typed_error() {
        let shared = SharedCatalog::new();
        shared.register_table("t", small()).unwrap();
        let err = shared.register_table("T", small()).unwrap_err();
        assert!(matches!(err, SqlError::Plan(_)));
    }

    #[test]
    fn replace_if_version_detects_races() {
        let mut c = Catalog::new();
        c.register_table("t", small()).unwrap();
        let fresh = || Arc::new(small());
        // Version 1 → CAS at 1 succeeds and returns 2.
        let v = c.replace_if_version("t", Some(1), fresh()).unwrap();
        assert_eq!(v, Some(2));
        // A writer still holding the old version loses the race.
        let stale = c.replace_if_version("T", Some(1), fresh()).unwrap();
        assert_eq!(stale, None);
        assert_eq!(c.tables["T"].1, 2);
        // An unconditional republish always wins.
        assert_eq!(c.replace_if_version("t", None, fresh()).unwrap(), Some(3));
        // Unknown tables are a typed error, not a silent miss, and leave
        // no version behind.
        assert!(c.replace_if_version("nope", Some(1), fresh()).is_err());
        assert!(c.replace_if_version("nope", None, fresh()).is_err());
        assert!(!c.tables.contains_key("NOPE"));
    }

    #[test]
    fn publish_propagates_only_what_it_commits() {
        let shared = SharedCatalog::new();
        shared.register_table("t", small()).unwrap();
        let cache = CubeCache::new(AdmissionController::new(ServiceConfig::default()));
        let (dims, aggs) = (vec!["k".to_string()], vec!["SUM(k)".to_string()]);
        let populate = |version: u64| {
            let snap = shared.snapshot();
            let d = [Dimension::column("k")];
            let a = [AggSpec::new(dc_aggregate::builtin("SUM").unwrap(), "k")];
            let view = Arc::new(CachedView::build(&snap.table("t").unwrap(), &d, &a).unwrap());
            cache
                .populate("t", version, dims.clone(), aggs.clone(), view)
                .unwrap();
        };
        populate(1);
        let grown = || Table::new(small().schema().clone(), vec![row![1], row![2], row![3]]);
        let delta = DeltaBatch::of(vec![row![3]], Vec::new());

        // A lost CAS changes nothing: version, entry and counters stay.
        let before = cache.counters();
        let lost = shared.publish(&cache, "t", Some(7), grown().unwrap(), Some(&delta));
        assert_eq!(lost.unwrap(), None);
        assert_eq!(shared.snapshot().table_version("t"), 1);
        assert_eq!(cache.counters(), before);

        // A won INSERT absorbs: the next read at the new version hits.
        let won = shared.publish(&cache, "t", Some(1), grown().unwrap(), Some(&delta));
        assert_eq!(won.unwrap(), Some(2));
        let hit = cache.lookup("t", 2, &dims, &aggs).unwrap().unwrap();
        assert_eq!(hit.view.cell_count(), 3);
        assert_eq!(cache.counters().hits, before.hits + 1);

        // A won DELETE retracts: the next read hits, one cell fewer.
        let retract = DeltaBatch::of(Vec::new(), vec![row![3]]);
        let deleted = shared.publish(&cache, "t", Some(2), small(), Some(&retract));
        assert_eq!(deleted.unwrap(), Some(3));
        let hit = cache.lookup("t", 3, &dims, &aggs).unwrap().unwrap();
        assert_eq!(hit.view.cell_count(), 2);

        // A whole-table replace invalidates: the table's entries are gone.
        let replaced = shared.publish(&cache, "t", None, small(), None).unwrap();
        assert_eq!(replaced, Some(4));
        assert_eq!(cache.counters().entries, 0);
        assert!(cache.lookup("t", 4, &dims, &aggs).unwrap().is_none());
    }

    /// An aggregate whose `name()` reads the catalog it is registered in.
    struct Peek(SharedCatalog);

    impl dc_aggregate::AggregateFunction for Peek {
        fn name(&self) -> &str {
            let _ = self.0.snapshot();
            "PEEK"
        }
        fn kind(&self) -> dc_aggregate::AggKind {
            dc_aggregate::AggKind::Distributive
        }
        fn init(&self) -> Box<dyn dc_aggregate::Accumulator> {
            dc_aggregate::builtin("SUM").unwrap().init()
        }
    }

    /// Registration runs no function code under the write lock: a `name()`
    /// that snapshots the same catalog would otherwise never return.
    #[test]
    fn register_aggregate_reads_the_name_outside_the_lock() {
        let shared = SharedCatalog::new();
        let peek = Arc::new(Peek(shared.clone()));
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = done.send(shared.register_aggregate(peek).is_ok());
        });
        let registered = finished.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(registered, Ok(true), "registration deadlocked or failed");
        worker.join().unwrap();
    }

    #[test]
    fn poisoned_lock_recovers() {
        let shared = SharedCatalog::new();
        let clone = shared.clone();
        // Poison the lock by panicking while holding it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = clone.write();
            panic!("poison");
        }));
        // The catalog is still usable.
        shared.register_table("t", small()).unwrap();
        assert!(shared.snapshot().table("t").is_ok());
    }
}
