//! One run of one workload: set-up (generate, register, serve, connect,
//! warm up, verify), then either the measured window with tracing off
//! (`--trace 0`, end-to-end metrics) or the traced pass (`--trace 1`,
//! per-layer metrics).

use crate::gen::{self, Data, Op, Reader, Rng, Spec, View, Writer};
use crate::json::Json;
use crate::model::{self, Expected};
use crate::trace;
use dc_sql::{serve, wire, Engine, Response, ServerConfig, ServerHandle, ServiceConfig};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Closed loop: the callers are analysts and dashboards that wait for each
/// reply. Two clients on two connections, one per core of the machine the
/// baseline was taken on.
const CLIENTS: usize = 2;
/// Set-ups per `--trace 0` run, at least; `setup_s` is their median.
const SETUPS: usize = 3;
/// More set-ups are made until they have taken this share of `--seconds`
/// together (2.5 s of 20). The machine's slow bursts last about a second:
/// three 0.3 s set-ups in a row can sit inside one, and their median then
/// reads 70 % high.
const SETUP_SHARE: f64 = 0.125;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// Base-table rows in place of the workload's own (`--smoke`).
    pub rows: Option<usize>,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a gauge).
    pub n: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// How a reply to one read of the cycle is checked during the window.
pub enum Check {
    /// Static table: equal to the reply the model verified at warm-up.
    Exact(Response),
    /// Written table: cell-for-cell equal to the model with PRELOADED or
    /// PRELOADED + 1 batches present. Every batch holds the same rows, so
    /// these are the only two states a whole-batch snapshot can show.
    AnyOf(Vec<Expected>),
}

pub struct Harness {
    pub spec: Spec,
    pub data: Data,
    pub engine: Engine,
    pub addr: SocketAddr,
    pub sql: Vec<String>,
    pub checks: Vec<Check>,
    /// Positioned after the warm-up's writes.
    pub writer: Writer,
    pub attempted: u64,
    pub failed: u64,
    conns: Vec<TcpStream>,
    server: Option<ServerHandle>,
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Harness {
    /// Everything `setup_s` covers. The server is the same in-process
    /// `dc_sql::serve` the `dc_serve` binary calls (that binary can only
    /// serve its demo table), and the clients are plain `TcpStream`s with
    /// default socket options: what the transport costs is the system's
    /// business, not the benchmark's.
    pub fn setup(args: &Args) -> Result<Harness, String> {
        let spec = gen::spec(&args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        let mut rng = Rng::new(args.seed);
        let data = Data::generate(&spec, args.rows.unwrap_or(spec.rows), &mut rng);

        let mut engine = Engine::with_service(ServiceConfig::default());
        engine.cube_cache().set_enabled(spec.cache);
        engine
            .register_table("t", data.table())
            .map_err(|e| e.to_string())?;
        let server =
            serve(&engine, "127.0.0.1:0", ServerConfig::default()).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let mut h = Harness {
            sql: spec.reads.iter().map(|r| r.sql()).collect(),
            spec,
            data,
            engine,
            addr,
            checks: Vec::new(),
            writer: Writer::new(),
            attempted: 0,
            failed: 0,
            conns: Vec::new(),
            server: Some(server),
        };
        for _ in 0..CLIENTS {
            h.conns
                .push(TcpStream::connect(addr).map_err(|e| e.to_string())?);
        }
        h.warm_up();
        Ok(h)
    }

    /// Send every distinct statement once per connection and compare each
    /// reply cell-for-cell with the model.
    fn warm_up(&mut self) {
        let mut conns = std::mem::take(&mut self.conns);
        let base = model::base(&self.data.cells, &self.data);
        let grown = model::plus(&base, &model::base(&self.data.batch, &self.data));
        if let Some(fill) = self.spec.fill.clone() {
            let resp = wire::request(&mut conns[0], &fill.sql());
            let ok = resp.is_ok_and(|r| model::matches(&model::expected(&base, &fill), &fill, &r));
            self.count(ok);
        }
        for i in 0..self.sql.len() {
            let read = self.spec.reads[i].clone();
            let want = model::expected(&base, &read);
            let resp = wire::request(&mut conns[0], &self.sql[i]);
            self.count(resp.as_ref().is_ok_and(|r| model::matches(&want, &read, r)));
            self.checks.push(match resp {
                Ok(resp) if !self.spec.writes => Check::Exact(resp),
                _ => Check::AnyOf(vec![want, model::expected(&grown, &read)]),
            });
        }
        if self.spec.writes {
            for _ in 0..2 {
                let op = self.writer.next();
                let ok = self.request(&mut conns[0], op).0;
                self.count(ok);
            }
        }
        for i in 0..self.sql.len() {
            let ok = self.request(&mut conns[1], Op::Read(i)).0;
            self.count(ok);
        }
        self.conns = conns;
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn sql_of(&self, op: Op) -> String {
        match op {
            Op::Read(i) => self.sql[i].clone(),
            Op::Insert(tag) => self.data.insert_sql(tag),
            Op::Delete(tag) => gen::delete_sql(tag),
        }
    }

    /// One closed-loop statement: `wire::request` call to decoded
    /// `Response`, timed, then verified outside the timed part.
    pub fn request(&self, conn: &mut TcpStream, op: Op) -> (bool, Duration) {
        let sql = self.sql_of(op);
        let start = Instant::now();
        let resp = wire::request(conn, &sql);
        let took = start.elapsed();
        (resp.is_ok_and(|r| self.verify(op, &r)), took)
    }

    pub fn verify(&self, op: Op, resp: &Response) -> bool {
        match op {
            Op::Read(i) => match &self.checks[i] {
                Check::Exact(want) => resp == want,
                Check::AnyOf(states) => states
                    .iter()
                    .any(|want| model::matches(want, &self.spec.reads[i], resp)),
            },
            // A DML ack is one row: table name, rows touched.
            Op::Insert(_) | Op::Delete(_) => matches!(
                resp,
                Response::Table { rows, .. }
                    if rows.len() == 1 && rows[0].last().is_some_and(|n| n == "256")
            ),
        }
    }

    pub fn take_conn(&mut self) -> TcpStream {
        self.conns.remove(0)
    }
}

struct Series {
    /// (statement of the cycle, latency) of every verified reply.
    lat_ns: Vec<(usize, u64)>,
    attempted: u64,
    failed: u64,
}

fn drive(
    h: &Harness,
    conn: &mut TcpStream,
    mut next: impl FnMut() -> Op,
    until: Instant,
) -> Series {
    let mut s = Series {
        lat_ns: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    while Instant::now() < until {
        let op = next();
        let (ok, took) = h.request(conn, op);
        s.attempted += 1;
        if ok {
            s.lat_ns
                .push((op.kind(h.sql.len()), took.as_nanos() as u64));
        } else {
            s.failed += 1;
        }
    }
    s
}

/// The measured window, tracing off. Returns the verified latencies of the
/// statements the workload's view reports, with the statement each belongs
/// to, and the window's true length.
fn window(h: &mut Harness, args: &Args) -> (Vec<(usize, u64)>, f64) {
    let mut rng = Rng::new(args.seed ^ 0x5EED);
    let n = h.sql.len();
    let mut readers: Vec<Reader> = (0..CLIENTS)
        .map(|c| Reader::new(n, c * n / CLIENTS, &mut rng))
        .collect();
    let mut writer = std::mem::replace(&mut h.writer, Writer::new());
    let mut conns = std::mem::take(&mut h.conns);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(args.seconds);
    let shared = &*h;
    // Client 0 is the writer of a workload that writes.
    let mut writer_slot = shared.spec.writes.then_some(&mut writer);
    let series: Vec<Series> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(readers.iter_mut())
            .map(|(conn, reader)| {
                let writer = writer_slot.take();
                scope.spawn(move || match writer {
                    Some(w) => drive(shared, conn, || w.next(), until),
                    None => drive(shared, conn, || reader.next(), until),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    h.conns = conns;
    h.writer = writer;
    let mut lat = Vec::new();
    for (c, s) in series.into_iter().enumerate() {
        h.attempted += s.attempted;
        h.failed += s.failed;
        let is_writer = c == 0 && h.spec.writes;
        if is_writer == (h.spec.view == View::Writes) {
            lat.extend(s.lat_ns);
        }
    }
    (lat, elapsed)
}

/// `reduce` (a median, a mean) of each statement of the cycle, averaged
/// over the cycle, and the sample count. A cycle's statements cost
/// different amounts (a DELETE's `maintain.apply` is 40 times an INSERT's),
/// so the median of the pooled series sits in a gap between two of them and
/// jumps from run to run, and a pooled mean depends on which statement the
/// window happened to end on. Every statement is sent equally often.
pub fn per_statement(
    series: impl Iterator<Item = (usize, u64)>,
    reduce: fn(&mut [f64]) -> f64,
) -> (f64, usize) {
    let mut by_kind = std::collections::BTreeMap::<usize, Vec<f64>>::new();
    for (kind, v) in series {
        by_kind.entry(kind).or_default().push(v as f64);
    }
    let n = by_kind.values().map(Vec::len).sum();
    let kinds = by_kind.len() as f64;
    let reduced = by_kind.values_mut().map(|v| reduce(v));
    (reduced.sum::<f64>() / kinds, n)
}

pub fn median_f64(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process, the workload's own: every run is a fresh one.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract's result object: exactly these four keys.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.into())),
                ];
                (m.name.to_string(), Json::Obj(entry))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        let mut h = Harness::setup(args)?;
        let metrics = trace::run(&mut h, args)?;
        return Ok(Outcome {
            attempted: h.attempted,
            failed: h.failed,
            metrics,
        });
    }
    // The first set-up is the one the window runs on, so that `peak_rss_mb`
    // is that of a process that set up once; the others only time set-up.
    let timed_setup = || {
        let start = Instant::now();
        Harness::setup(args).map(|h| (h, start.elapsed().as_secs_f64()))
    };
    let (mut h, first) = timed_setup()?;
    let (lat, elapsed) = window(&mut h, args);
    let rss = peak_rss_mb();
    let (attempted, failed) = (h.attempted, h.failed);
    drop(h);
    let mut setups = vec![first];
    while setups.len() < SETUPS || setups.iter().sum::<f64>() < SETUP_SHARE * args.seconds {
        setups.push(timed_setup()?.1);
    }
    let (p50, n) = per_statement(lat.iter().copied(), median_f64);
    let metrics = vec![
        metric("setup_s", median_f64(&mut setups), "s", setups.len()),
        metric("p50_ms", p50 / 1e6, "ms", n),
        metric("ops_per_s", n as f64 / elapsed, "1/s", n),
        metric("peak_rss_mb", rss, "MB", 1),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
