//! The traced pass (`--trace 1`): one client; every statement is a real
//! socket round trip and then, once the round trips are done, a replay of
//! the same statement through each layer's public functions, called from
//! here and timed from here.
//!
//! Spans are `{req, id, parent, name, start_ns, end_ns}`. `wire.request` is
//! the root of a request; the replayed calls run later on the clock but
//! are parented as the server nests them (`session.execute` under the
//! root, `parser.parse` / `admission.admit` / `core.cube` ... under
//! `session.execute`), so a layer's self time is its span minus its
//! children. Spans stay in memory and are written out after the pass.
//! Spans inside `dc_sql` / `datacube` are a later change.
//!
//! The replay runs against a second engine that is never served: it
//! receives the same statements in the same order, so it is in the served
//! engine's state, and the served engine's counters see wire traffic only.

use crate::gen::{Agg, Family, Op, Read, Reader, Rng, Writer};
use crate::run::{median_f64, metric, per_statement, Args, Harness, Metric};
use datacube::{
    AncestorRequest, CachedView, CubeQuery, DeltaBatch, ExecContext, ExecStats, GroupingSet,
    MaterializedCube,
};
use dc_relation::{Column, DataType, Row, Schema, Table, Value};
use dc_sql::{parser, wire, Engine, QueryCost, ServiceConfig, Session};
use std::fmt::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const CONNECT_PROBES: usize = 10;
const PROBES: usize = 5;

struct Span {
    req: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ids: u64,
}

impl Tracer {
    fn id(&mut self) -> u64 {
        self.ids += 1;
        self.ids
    }

    /// Run `f` as span `id` (0: a fresh id) and return its result and
    /// duration in nanoseconds.
    fn span<T>(
        &mut self,
        (req, id, parent): (u64, u64, u64),
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = if id == 0 { self.id() } else { id };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }
}

/// One materialized ancestor of the replay's lattice cache, kept the way
/// `dc_sql::CubeCache` keeps its entries: populated on a miss with the
/// statement's own dimensions, absorbed into on INSERT, dropped on DELETE.
struct View {
    dims: Vec<usize>,
    aggs: Vec<Agg>,
    view: CachedView,
}

fn build_view(table: &Table, read: &Read) -> CachedView {
    let aggs: Vec<_> = read.aggs.iter().map(|a| a.spec()).collect();
    CachedView::build(table, &read.dimensions(), &aggs).expect("view over generated table")
}

struct Replay {
    // Holds the replay session's catalog, admission controller and cache.
    engine: Engine,
    session: Session,
    schema: Schema,
    /// The table as the replay engine holds it now.
    table: Table,
    views: Vec<View>,
    /// ROADMAP item 3's reference store, fed the same batches.
    cube: Option<MaterializedCube>,
}

/// What one traced statement cost, layer by layer (nanoseconds).
#[derive(Default)]
struct Sample {
    /// Which statement of the cycle (`Op::kind`).
    kind: usize,
    ok: bool,
    rt: u64,
    parse: u64,
    admit: u64,
    exec: u64,
    /// Children of `session.execute` other than parse and admit.
    core: u64,
    answer: u64,
    build: u64,
    table_new: u64,
    absorb: u64,
    enc: u64,
    dec: u64,
    apply: u64,
    req_bytes: u64,
    resp_bytes: u64,
    stats: Option<(ExecStats, u64)>,
}

impl Replay {
    fn new(h: &Harness) -> Result<Replay, String> {
        let table = h.data.table();
        let mut engine = Engine::with_service(ServiceConfig::default());
        engine.cube_cache().set_enabled(h.spec.cache);
        engine
            .register_table("t", table.clone())
            .map_err(|e| e.to_string())?;
        let cube = h.spec.writes.then(|| {
            let widest = widest(h);
            let aggs = widest.aggs.iter().map(|a| a.spec()).collect();
            MaterializedCube::cube(&table, widest.dimensions(), aggs).expect("reference cube")
        });
        Ok(Replay {
            session: engine.session(),
            engine,
            schema: h.data.schema(),
            table,
            views: Vec::new(),
            cube,
        })
    }

    fn read(&mut self, h: &Harness, t: &mut Tracer, at: (u64, u64), read: &Read, s: &mut Sample) {
        let (req, exec) = at;
        let holds = |v: &&View| {
            read.dims.iter().all(|d| v.dims.contains(d))
                && read.aggs.iter().all(|a| v.aggs.contains(a))
        };
        let Some(v) = self
            .views
            .iter()
            .filter(holds)
            .min_by_key(|v| v.view.cell_count())
        else {
            // No view holds the statement (none ever does with the cache
            // off): it scans the base table, and with the cache on its
            // finest grouping is then materialized for later statements.
            let (stats, ns) = self.core(t, (req, 0, exec), read);
            s.core = ns;
            s.stats = Some(stats);
            if h.spec.cache {
                let (view, ns) = t.span((req, 0, exec), "cubecache.build", || {
                    build_view(&self.table, read)
                });
                s.build = ns;
                self.views.push(View {
                    dims: read.dims.clone(),
                    aggs: read.aggs.clone(),
                    view,
                });
            }
            return;
        };
        fn positions<T: PartialEq>(of: &[T], within: &[T]) -> Vec<usize> {
            let pos = |x| {
                within
                    .iter()
                    .position(|y| y == x)
                    .expect("the view holds it")
            };
            of.iter().map(pos).collect()
        }
        let dim_map = positions(&read.dims, &v.dims);
        let agg_map = positions(&read.aggs, &v.aggs);
        let dim_names: Vec<String> = read.dims.iter().map(|d| format!("d{d}")).collect();
        let dim_names: Vec<&str> = dim_names.iter().map(String::as_str).collect();
        let agg_names: Vec<&str> = read.aggs.iter().map(|a| a.name()).collect();
        let sets: Vec<GroupingSet> = read
            .sets()
            .into_iter()
            .map(GroupingSet::from_bits)
            .collect();
        let req_ = AncestorRequest {
            dim_map: &dim_map,
            dim_names: &dim_names,
            agg_map: &agg_map,
            agg_names: &agg_names,
            sets: &sets,
        };
        let ctx = ExecContext::unlimited();
        let (out, ns) = t.span((req, 0, exec), "cubecache.answer", || {
            v.view.answer(&req_, &ctx)
        });
        s.answer = ns;
        s.ok &= out.is_ok();
    }

    /// The statement's `CubeQuery` equivalent, default options.
    fn core(&self, t: &mut Tracer, at: (u64, u64, u64), read: &Read) -> ((ExecStats, u64), u64) {
        let query = read
            .aggs
            .iter()
            .fold(CubeQuery::new().dimensions(read.dimensions()), |q, a| {
                q.aggregate(a.spec())
            });
        let (out, ns) = t.span(at, "core.cube", || match read.family {
            Family::Cube => query.cube_with_stats(&self.table),
            Family::Rollup => query.rollup_with_stats(&self.table),
            Family::GroupBy => {
                let full: Vec<usize> = (0..read.dims.len()).collect();
                query.grouping_sets_with_stats(&self.table, &[full])
            }
        });
        let (table, stats) = out.expect("cube over generated table");
        ((stats, table.len() as u64), ns)
    }

    fn write(&mut self, h: &Harness, t: &mut Tracer, at: (u64, u64), op: Op, s: &mut Sample) {
        let (req, exec) = at;
        let mut rows: Vec<Row> = self.table.rows().to_vec();
        let mut batch = DeltaBatch::new();
        let delta = match op {
            Op::Insert(tag) => {
                let fresh = h.data.batch_rows(tag);
                for row in &fresh {
                    batch.insert(row.clone()).expect("batch arity");
                }
                rows.extend(fresh.iter().cloned());
                Some(Table::new(self.schema.clone(), fresh).expect("batch fits"))
            }
            Op::Delete(tag) => {
                for row in h.data.batch_rows(tag) {
                    batch.delete(row);
                }
                let col = h.data.width - 2;
                rows.retain(|r| r[col] != Value::Int(tag));
                None
            }
            Op::Read(_) => unreachable!("reads go through Replay::read"),
        };
        // What every INSERT and DELETE pays to republish the table.
        let (table, ns) = t.span((req, 0, exec), "relation.table_new", || {
            Table::new(self.schema.clone(), rows.to_vec())
        });
        s.table_new = ns;
        self.table = table.expect("rows fit");
        match delta {
            Some(delta) => {
                let views = &mut self.views;
                let ((), ns) = t.span((req, 0, exec), "cubecache.absorb", || {
                    for v in views.iter_mut() {
                        v.view = v.view.absorb(&delta).expect("absorb insert batch");
                    }
                });
                s.absorb = ns;
            }
            None => self.views.clear(),
        }
        if let Some(cube) = &self.cube {
            let ctx = ExecContext::unlimited();
            let (out, ns) = t.span((req, 0, 0), "maintain.apply", || cube.apply(&batch, &ctx));
            s.apply = ns;
            s.ok &= out.is_ok();
        }
    }

    /// The statement again, in-process, one layer call at a time.
    fn replay(&mut self, h: &Harness, t: &mut Tracer, at: (u64, u64, u64), op: Op, s: &mut Sample) {
        let (req, root, exec) = at;
        let sql = h.sql_of(op);
        s.kind = op.kind(h.sql.len());
        s.req_bytes = sql.len() as u64;
        let (parsed, ns) = t.span((req, 0, exec), "parser.parse", || parser::parse(&sql));
        s.parse = ns;
        s.ok &= parsed.is_ok();
        let (rows, sets) = match op {
            Op::Read(i) => (self.table.len(), h.spec.reads[i].sets().len()),
            Op::Insert(_) => (crate::gen::BATCH_ROWS, 1),
            Op::Delete(_) => (self.table.len(), 1),
        };
        let cost = QueryCost::new(rows as u64, sets as u64);
        let admission = self.engine.admission();
        let (admitted, ns) = t.span((req, 0, exec), "admission.admit", || {
            admission.admit(&cost, None, None).is_ok()
        });
        s.admit = ns;
        s.ok &= admitted;
        let (result, ns) = t.span((req, exec, root), "session.execute", || {
            self.session.execute(&sql)
        });
        s.exec = ns;
        match op {
            Op::Read(i) => self.read(h, t, (req, exec), &h.spec.reads[i], s),
            Op::Insert(_) | Op::Delete(_) => self.write(h, t, (req, exec), op, s),
        }
        match result {
            Ok(table) => {
                let (payload, ns) = t.span((req, 0, root), "wire.encode_table", || {
                    wire::encode_table(&table)
                });
                s.enc = ns;
                s.resp_bytes = payload.len() as u64;
                let (decoded, ns) = t.span((req, 0, root), "wire.decode_response", || {
                    wire::decode_response(&payload)
                });
                s.dec = ns;
                s.ok &= decoded.is_ok_and(|r| h.verify(op, &r));
            }
            Err(_) => s.ok = false,
        }
    }
}

/// The read with the most dimensions: the ancestor the cache ends up
/// holding, and the lattice the reference cube materializes.
fn widest(h: &Harness) -> &Read {
    let reads = h.spec.fill.iter().chain(&h.spec.reads);
    reads
        .max_by_key(|r| r.dims.len())
        .expect("a workload reads")
}

/// Median of a nanosecond series in microseconds, with its sample count;
/// 0 when the layer is not on this workload's path.
fn us(ns: impl Iterator<Item = u64>) -> (f64, usize) {
    let mut v: Vec<f64> = ns.map(|n| n as f64 / 1e3).collect();
    match v.len() {
        0 => (0.0, 0),
        n => (median_f64(&mut v), n),
    }
}

/// The same for per-statement series: the median of each statement of the
/// cycle, averaged over the cycle.
fn us_per_statement(series: impl Iterator<Item = (usize, u64)>) -> (f64, usize) {
    match per_statement(series, median_f64) {
        (_, 0) => (0.0, 0),
        (ns, n) => (ns / 1e3, n),
    }
}

pub fn run(h: &mut Harness, args: &Args) -> Result<Vec<Metric>, String> {
    let mut replay = Replay::new(h)?;
    let new_tracer = || Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        ids: 0,
    };

    // Bring the replay engine to the served engine's state: the warm-up's
    // statements in the warm-up's order, in-process and untraced.
    if let Some(fill) = h.spec.fill.clone() {
        let sql = fill.sql();
        replay.session.execute(&sql).map_err(|e| e.to_string())?;
        replay.views.push(View {
            dims: fill.dims.clone(),
            aggs: fill.aggs.clone(),
            view: build_view(&replay.table, &fill),
        });
    }
    let reads = || (0..h.sql.len()).map(Op::Read);
    let mut warm_writer = Writer::new();
    let writes: Vec<Op> = (0..2).map(|_| warm_writer.next()).collect();
    let writes = writes.into_iter().filter(|_| h.spec.writes);
    for op in reads().chain(writes).chain(reads()) {
        let mut s = Sample {
            ok: true,
            ..Sample::default()
        };
        replay.replay(h, &mut new_tracer(), (0, 0, 0), op, &mut s);
        if !s.ok {
            return Err(format!("the replay engine failed warm-up statement {op:?}"));
        }
    }

    // Pass 1: the socket round trips, back to back as a closed-loop client
    // sends them. Replaying between them would leave the connection idle
    // for a statement's length after every reply, and what the transport
    // costs depends on exactly that gap.
    let mut t = new_tracer();
    let mut conn = h.take_conn();
    let mut samples: Vec<(Op, u64, u64, Sample)> = Vec::new();
    let adm0 = h.engine.admission().counters();
    let cache0 = h.engine.cube_cache().counters();
    let mut writer = std::mem::replace(&mut h.writer, Writer::new());
    let mut reader = Reader::new(h.sql.len(), 0, &mut Rng::new(args.seed ^ 0x5EED));
    let until = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    while Instant::now() < until {
        let write = h.spec.writes.then(|| writer.next());
        for op in write.into_iter().chain([reader.next()]) {
            let sql = h.sql_of(op);
            let (req, root, exec) = (samples.len() as u64 + 1, t.id(), t.id());
            let (resp, rt) = t.span((req, root, 0), "wire.request", || {
                wire::request(&mut conn, &sql)
            });
            let s = Sample {
                ok: resp.is_ok_and(|r| h.verify(op, &r)),
                rt,
                ..Sample::default()
            };
            samples.push((op, root, exec, s));
        }
    }
    let adm = h.engine.admission().counters();
    let cache = h.engine.cube_cache().counters();
    h.writer = writer;

    // Pass 2: the same statements in the same order through the replay
    // engine, which therefore goes through the served engine's states.
    for (i, (op, root, exec, s)) in samples.iter_mut().enumerate() {
        replay.replay(h, &mut t, (i as u64 + 1, *root, *exec), *op, s);
    }
    let samples: Vec<Sample> = samples.into_iter().map(|(.., s)| s).collect();
    h.attempted += samples.len() as u64;
    h.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    let traced = &samples[..];

    // Probes: layer calls that no single statement isolates.
    let cheapest = (0..h.sql.len())
        .min_by_key(|&i| h.spec.reads[i].sets().len())
        .expect("a workload reads");
    let mut connects = Vec::new();
    for _ in 0..CONNECT_PROBES {
        let (ok, ns) = t.span((0, 0, 0), "server.connect", || {
            TcpStream::connect(h.addr)
                .is_ok_and(|mut fresh| h.request(&mut fresh, Op::Read(cheapest)).0)
        });
        h.attempted += 1;
        h.failed += u64::from(!ok);
        connects.push(ns);
    }
    let mut column_builds = Vec::new();
    let mut view_builds = Vec::new();
    for _ in 0..PROBES {
        let units = h.data.units();
        let rows = replay.table.rows();
        let (_, ns) = t.span((0, 0, 0), "relation.column_build", || {
            Column::from_rows(rows, units, DataType::Int)
        });
        column_builds.push(ns);
        if h.spec.cache {
            let (_, ns) = t.span((0, 0, 0), "cubecache.build", || {
                build_view(&replay.table, widest(h))
            });
            view_builds.push(ns);
        }
    }

    // Statement-level medians are over the class the workload reports.
    let reports_writes = h.spec.view == crate::gen::View::Writes;
    let n_reads = h.sql.len();
    let (reads, writes): (Vec<&Sample>, Vec<&Sample>) =
        traced.iter().partition(|s| s.kind < n_reads);
    let inserts: Vec<&Sample> = traced.iter().filter(|s| s.kind == n_reads).collect();
    let class = if reports_writes { &writes } else { &reads };
    let of = |set: &[&Sample], f: &dyn Fn(&Sample) -> u64| {
        us_per_statement(set.iter().map(|s| (s.kind, f(s))))
    };
    let positive = |set: &[&Sample], f: &dyn Fn(&Sample) -> u64| {
        us_per_statement(set.iter().map(|s| (s.kind, f(s))).filter(|&(_, ns)| ns > 0))
    };
    // Counts: the mean of each statement of the cycle, averaged over the
    // cycle, so that they repeat exactly however many statements were traced.
    let mean = |set: &[&Sample], f: &dyn Fn(&Sample) -> u64| {
        let mean_f64 = |v: &mut [f64]| v.iter().sum::<f64>() / v.len() as f64;
        match per_statement(set.iter().map(|s| (s.kind, f(s))), mean_f64) {
            (_, 0) => 0.0,
            (mean, _) => mean,
        }
    };
    let transport = |s: &Sample| s.rt.saturating_sub(s.exec + s.enc + s.dec);
    let own = |s: &Sample| {
        let children = s.parse + s.admit + s.core + s.answer + s.build + s.table_new + s.absorb;
        s.exec.saturating_sub(children)
    };

    let mut out: Vec<Metric> = Vec::new();
    let mut timing = |name, (value, n): (f64, usize)| out.push(metric(name, value, "us", n));
    timing("server.transport_us", of(class, &transport));
    timing("server.connect_us", us(connects.into_iter()));
    timing("wire.encode_table_us", of(class, &|s| s.enc));
    timing("wire.decode_response_us", of(class, &|s| s.dec));
    timing("parser.parse_us", of(class, &|s| s.parse));
    timing("session.execute_us", of(class, &|s| s.exec));
    timing("session.self_us", of(class, &own));
    timing("admission.admit_us", of(class, &|s| s.admit));
    timing("cubecache.build_us", us(view_builds.into_iter()));
    timing("cubecache.answer_us", positive(&reads, &|s| s.answer));
    timing("core.cube_us", positive(&reads, &|s| s.core));
    timing("relation.column_build_us", us(column_builds.into_iter()));
    timing("relation.table_new_us", of(&writes, &|s| s.table_new));
    let per_row = |(value, n): (f64, usize)| (value / crate::gen::BATCH_ROWS as f64, n);
    timing(
        "parser.parse_insert_us_per_row",
        per_row(of(&inserts, &|s| s.parse)),
    );
    timing(
        "cubecache.absorb_us_per_row",
        per_row(of(&inserts, &|s| s.absorb)),
    );
    timing(
        "maintain.apply_us_per_row",
        per_row(of(&writes, &|s| s.apply)),
    );

    let n = class.len();
    let (rt_us, _) = of(class, &|s| s.rt);
    let (transport_us, _) = of(class, &transport);
    out.push(metric("trace.roundtrip_p50_ms", rt_us / 1e3, "ms", n));
    // The tail of the same round trips, pooled over the cycle.
    let mut pooled: Vec<u64> = class.iter().map(|s| s.rt).collect();
    pooled.sort_unstable();
    let p95 = match pooled.len() {
        0 => 0.0,
        n => pooled[((n - 1) as f64 * 0.95).round() as usize] as f64,
    };
    out.push(metric("trace.roundtrip_p95_ms", p95 / 1e6, "ms", n));
    let share = if rt_us > 0.0 {
        transport_us / rt_us
    } else {
        0.0
    };
    out.push(metric("server.transport_share", share, "ratio", n));
    out.push(metric("trace.spans", t.spans.len() as f64, "count", 1));
    let bytes = |name, f: &dyn Fn(&Sample) -> u64| metric(name, mean(class, f), "bytes", n);
    out.push(bytes("wire.req_bytes_per_op", &|s| s.req_bytes));
    out.push(bytes("wire.resp_bytes_per_op", &|s| s.resp_bytes));

    // Work counters of the statements that scanned the base table.
    let scans: Vec<&Sample> = traced.iter().filter(|s| s.stats.is_some()).collect();
    let stat = |f: fn(&ExecStats, u64) -> u64| {
        mean(&scans, &|s| {
            s.stats.map_or(0, |(stats, cells)| f(&stats, cells))
        })
    };
    let (core_us, _) = positive(&reads, &|s| s.core);
    let rows_scanned = stat(|s, _| s.rows_scanned);
    let ns_per_row = if rows_scanned > 0.0 {
        core_us * 1e3 / rows_scanned
    } else {
        0.0
    };
    out.push(metric("core.ns_per_row", ns_per_row, "ns", scans.len()));
    let mut count = |name, value: f64| out.push(metric(name, value, "count", scans.len()));
    count("core.rows_scanned_per_op", rows_scanned);
    count("core.morsels_per_op", stat(|s, _| s.morsels_processed));
    count("core.merge_calls_per_op", stat(|s, _| s.merge_calls));
    count("core.final_calls_per_op", stat(|s, _| s.final_calls));
    count("core.cells_out_per_op", stat(|_, cells| cells));

    // Deltas of the served engine's public counters over the traced window.
    let mut counter = |name, value: u64| out.push(metric(name, value as f64, "count", 1));
    counter("admission.admitted", adm.admitted - adm0.admitted);
    counter("admission.queued", adm.queued - adm0.queued);
    counter("admission.shed", adm.shed - adm0.shed);
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    counter("sqlcache.hits", hits);
    counter("sqlcache.misses", misses);
    counter("sqlcache.evictions", cache.evictions - cache0.evictions);
    counter("sqlcache.cells", cache.cells);
    let ratio = match hits + misses {
        0 => 0.0,
        lookups => hits as f64 / lookups as f64,
    };
    out.push(metric("sqlcache.hit_ratio", ratio, "ratio", 1));

    write_trace(args, &t, &out)?;
    Ok(out)
}

/// `<out>/trace_<workload>.jsonl`: one span per line, then the counters.
fn write_trace(args: &Args, t: &Tracer, metrics: &[Metric]) -> Result<(), String> {
    let mut text = String::new();
    for s in &t.spans {
        let _ = writeln!(
            text,
            "{{\"req\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    let counters: Vec<String> = metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "bytes")
        .map(|m| format!("\"{}\": {}", m.name, m.value))
        .collect();
    let _ = writeln!(text, "{{\"counters\": {{{}}}}}", counters.join(", "));
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let path = args.out.join(format!("trace_{}.jsonl", args.workload));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
