//! `dc_serve` — the cube service over TCP.
//!
//! Serves the paper's demo `Sales` table through the dc-sql engine behind
//! admission control. Requests are length-prefixed SQL text; responses
//! are `OK` tables or `ERR <CODE> <retry_after_ms>` typed errors (see
//! `dc_sql::wire`).
//!
//! ```text
//! dc_serve [--addr 127.0.0.1:4780]
//!          [--max-concurrent N] [--cheap-reserved N] [--cheap-cells N]
//!          [--global-cells N] [--min-grant-cells N] [--queue-depth N]
//!          [--max-connections N]
//!          [--no-cube-cache] [--cache-cells N]
//!          [--smoke]
//! ```
//!
//! `--smoke` runs the self-test used by `verify.sh`: start on an
//! ephemeral port with a deliberately tiny budget, prove that a cheap
//! GROUP BY succeeds while a 3-dimension CUBE is shed with a typed
//! `RESOURCE_EXHAUSTED` frame and a retry hint, that a parse error
//! leaves the connection usable, that a cacheable CUBE replies the same
//! rows on its cache miss, its hit and with the cache off, that a
//! two-column UPDATE moves the grand total by its row count and back, that
//! an INSERT and a DELETE round-trip, that 50 sequential statements on one
//! default-options connection take under a second (no transport stall),
//! then shut down cleanly. Exit code 0 on success.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use dc_relation::{row, DataType, Schema, Table};
use dc_sql::wire::{self, Response};
use dc_sql::{serve, Engine, ServerConfig, ServiceConfig};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Statements `--smoke` times back to back on one connection.
const STALL_PROBE_STATEMENTS: usize = 50;

struct Args {
    addr: String,
    service: ServiceConfig,
    server: ServerConfig,
    /// Engine-wide lattice cache switch (sessions can still opt out with
    /// `SET CUBE_CACHE OFF`; `--no-cube-cache` disables it for everyone).
    cube_cache: bool,
    /// Lattice-cache cell budget override (`--cache-cells N`).
    cache_cells: Option<u64>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4780".to_string(),
        service: ServiceConfig::default(),
        server: ServerConfig::default(),
        cube_cache: true,
        cache_cells: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let num = |name: &str, it: &mut dyn Iterator<Item = String>| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--addr" => {
                args.addr = it
                    .next()
                    .ok_or_else(|| "--addr needs a value".to_string())?;
            }
            "--max-concurrent" => args.service.max_concurrent = num(&flag, &mut it)? as usize,
            "--cheap-reserved" => args.service.cheap_reserved = num(&flag, &mut it)? as usize,
            "--cheap-cells" => args.service.cheap_cells = num(&flag, &mut it)?,
            "--global-cells" => args.service.global_cells = num(&flag, &mut it)?,
            "--min-grant-cells" => args.service.min_grant_cells = num(&flag, &mut it)?,
            "--queue-depth" => args.service.queue_depth = num(&flag, &mut it)? as usize,
            "--max-connections" => args.server.max_connections = num(&flag, &mut it)? as usize,
            "--no-cube-cache" => args.cube_cache = false,
            "--cache-cells" => args.cache_cells = Some(num(&flag, &mut it)?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// The paper's Table 4 sales data, enough for demo queries.
fn demo_table() -> Result<Table, String> {
    let schema = Schema::from_pairs(&[
        ("model", DataType::Str),
        ("year", DataType::Int),
        ("color", DataType::Str),
        ("units", DataType::Int),
    ]);
    let rows = vec![
        row!["Chevy", 1994, "black", 50],
        row!["Chevy", 1994, "white", 40],
        row!["Chevy", 1995, "black", 115],
        row!["Chevy", 1995, "white", 85],
        row!["Ford", 1994, "black", 50],
        row!["Ford", 1994, "white", 10],
        row!["Ford", 1995, "black", 85],
        row!["Ford", 1995, "white", 75],
    ];
    Table::new(schema, rows).map_err(|e| format!("demo table: {e}"))
}

/// An engine under `service` serving the demo table as `Sales`.
fn demo_engine(service: ServiceConfig) -> Result<Engine, String> {
    let mut engine = Engine::with_service(service);
    engine
        .register_table("Sales", demo_table()?)
        .map_err(|e| format!("register: {e}"))?;
    Ok(engine)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.smoke {
        return smoke();
    }
    let engine = demo_engine(args.service)?;
    engine.cube_cache().set_enabled(args.cube_cache);
    if let Some(cells) = args.cache_cells {
        engine.cube_cache().set_budget_cells(cells);
    }
    let handle =
        serve(&engine, &args.addr, args.server).map_err(|e| format!("bind {}: {e}", args.addr))?;
    eprintln!("dc_serve listening on {}", handle.local_addr());
    handle.wait();
    Ok(())
}

fn expect_table(resp: &Response, what: &str) -> Result<usize, String> {
    table_rows(resp, what).map(<[_]>::len)
}

fn table_rows<'a>(resp: &'a Response, what: &str) -> Result<&'a [Vec<String>], String> {
    match resp {
        Response::Table { rows, .. } => Ok(rows),
        Response::Error { code, message, .. } => {
            Err(format!("{what}: expected table, got ERR {code}: {message}"))
        }
    }
}

fn ask(conn: &mut TcpStream, sql: &str) -> Result<Response, String> {
    wire::request(conn, sql).map_err(|e| format!("request failed: {e}"))
}

/// A cacheable CUBE over the wire: its miss and its hit must match row
/// for row. A ROLLUP of two dimensions, after a CUBE of three with its
/// aggregates, must be a hit on that wider view — each of its sets
/// derived from the one before, the first from the view's core — and
/// match a `SET CUBE_CACHE OFF` connection's reply row for row. After a
/// DELETE of one model, the next CUBE read must be a hit (the view
/// retracts the deleted rows) and match the cache-off reply. A MAX CUBE's
/// view then loses its champion (115) to a DELETE: the next MAX read must
/// be a hit as well (the view recomputes that cell from the published
/// table) and match the cache-off reply. Served unbudgeted, because the
/// main smoke's budget sheds every CUBE.
fn cache_smoke() -> Result<(), String> {
    const CUBE: &str =
        "SELECT model, year, SUM(units) AS total FROM Sales GROUP BY CUBE model, year";
    const WIDE: &str = "SELECT model, year, color, SUM(units) AS total, MIN(units) AS low \
                        FROM Sales GROUP BY CUBE model, year, color";
    const ROLLUP: &str = "SELECT model, year, SUM(units) AS total, MIN(units) AS low \
                          FROM Sales GROUP BY ROLLUP model, year";
    const MAX: &str = "SELECT model, year, MAX(units) AS top FROM Sales GROUP BY CUBE model, year";
    let engine = demo_engine(ServiceConfig::default())?;
    let handle =
        serve(&engine, "127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let connect = || TcpStream::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"));
    let (mut conn, mut off) = (connect()?, connect()?);
    expect_table(&ask(&mut off, "SET CUBE_CACHE OFF")?, "set cube_cache off")?;
    let miss = ask(&mut conn, CUBE)?;
    let hit = ask(&mut conn, CUBE)?;
    expect_table(&ask(&mut conn, WIDE)?, "wide cube miss")?;
    let derived = ask(&mut conn, ROLLUP)?;
    let derived_off = ask(&mut off, ROLLUP)?;
    expect_table(
        &ask(&mut conn, "DELETE FROM Sales WHERE model = 'Ford'")?,
        "delete one model",
    )?;
    let retracted = ask(&mut conn, CUBE)?;
    let retracted_off = ask(&mut off, CUBE)?;
    expect_table(&ask(&mut conn, MAX)?, "max cube miss")?;
    expect_table(
        &ask(&mut conn, "DELETE FROM Sales WHERE units = 115")?,
        "delete the champion",
    )?;
    let recomputed = ask(&mut conn, MAX)?;
    let recomputed_off = ask(&mut off, MAX)?;
    drop((conn, off));
    handle.shutdown();
    let c = engine.cube_cache().counters();
    if (c.misses, c.hits) != (3, 4) {
        return Err(format!(
            "cube cache: expected a SUM, a wide and a MAX miss, then four hits (SUM, the \
             ROLLUP from the wide view, SUM after the DELETE, MAX after its champion's \
             DELETE), got {c:?}"
        ));
    }
    for (got, want, n, what) in [
        (&hit, &miss, 9, "cube hit, against the miss"),
        (&derived, &derived_off, 7, "rollup hit on the wider view"),
        (&retracted, &retracted_off, 6, "cube hit after the delete"),
        (&recomputed, &recomputed_off, 6, "max hit after the delete"),
    ] {
        let rows = table_rows(got, what)?;
        if rows.len() != n {
            return Err(format!("{what}: expected {n} rows, got {}", rows.len()));
        }
        if table_rows(want, what)? != rows {
            return Err(format!("{what}: rows differ"));
        }
    }
    Ok(())
}

/// A multi-column UPDATE over the wire, on the demo rows eight times over
/// (64 rows, so its `model`, `year` predicate is decided once per pair of
/// values): the next grand total must move by exactly the acknowledged
/// row count and equal a `SET CUBE_CACHE OFF` connection's; the inverse
/// UPDATE must restore it.
fn update_smoke() -> Result<(), String> {
    const TOTAL: &str = "SELECT SUM(units) AS total FROM Sales";
    const BUMP: &str = "UPDATE Sales SET units = units + 1 WHERE model = 'Chevy' AND year = 1994";
    const UNDO: &str = "UPDATE Sales SET units = units - 1 WHERE model = 'Chevy' AND year = 1994";
    let demo = demo_table()?;
    let rows = demo.rows().iter().cycle().take(8 * demo.len()).cloned();
    let sales = Table::new(demo.schema().clone(), rows.collect()).map_err(|e| e.to_string())?;
    let mut engine = Engine::with_service(ServiceConfig::default());
    engine
        .register_table("Sales", sales)
        .map_err(|e| format!("register: {e}"))?;
    let handle =
        serve(&engine, "127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let connect = || TcpStream::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"));
    let (mut conn, mut off) = (connect()?, connect()?);
    expect_table(&ask(&mut off, "SET CUBE_CACHE OFF")?, "set cube_cache off")?;
    // The one cell of a one-row reply, as an integer.
    let int = |resp: &Response, col: usize, what: &str| -> Result<i64, String> {
        let cell = table_rows(resp, what)?.first().and_then(|r| r.get(col));
        let cell = cell.ok_or_else(|| format!("{what}: empty reply"))?;
        cell.parse().map_err(|e| format!("{what}: {cell:?}: {e}"))
    };
    let before = int(&ask(&mut conn, TOTAL)?, 0, "total before")?;
    let bumped = int(&ask(&mut conn, BUMP)?, 1, "update")?;
    let after = int(&ask(&mut conn, TOTAL)?, 0, "total after")?;
    let after_off = int(&ask(&mut off, TOTAL)?, 0, "total after, cache off")?;
    let undone = int(&ask(&mut conn, UNDO)?, 1, "inverse update")?;
    let restored = int(&ask(&mut conn, TOTAL)?, 0, "total restored")?;
    drop((conn, off));
    handle.shutdown();
    if (bumped, undone) != (16, 16) {
        return Err(format!(
            "update: expected 16 rows each way, got {bumped} and {undone}"
        ));
    }
    if (after, after_off, restored) != (before + bumped, before + bumped, before) {
        return Err(format!(
            "update: total {before} went to {after} (cache off {after_off}) on {bumped} rows, \
             then {restored}"
        ));
    }
    Ok(())
}

/// The verify.sh self-test: overload behaviour end to end over TCP.
fn smoke() -> Result<(), String> {
    // A budget sized so the cheap lane fits a plain GROUP BY (estimate:
    // 1 set × 9 cells) but a 3-dimension CUBE (8 sets × 9 = 72 cells)
    // overflows the whole global budget and must be shed.
    let service = ServiceConfig {
        max_concurrent: 2,
        cheap_reserved: 1,
        cheap_cells: 32,
        global_cells: 16,
        min_grant_cells: 1,
        queue_depth: 2,
    };
    let engine = demo_engine(service)?;
    let handle =
        serve(&engine, "127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr();

    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;

    // 1. Cheap GROUP BY rides the reserved lane, exempt from the budget.
    let resp = ask(
        &mut conn,
        "SELECT model, SUM(units) AS total FROM Sales GROUP BY model",
    )?;
    let n = expect_table(&resp, "cheap group by")?;
    if n != 2 {
        return Err(format!("cheap group by: expected 2 rows, got {n}"));
    }

    // 2. A 3-dimension CUBE overflows the 16-cell global budget: typed
    //    shed with Resource::Cells, and the connection survives.
    let resp = ask(
        &mut conn,
        "SELECT model, year, color, SUM(units) AS total FROM Sales \
         GROUP BY CUBE model, year, color",
    )?;
    match &resp {
        Response::Error { code, .. } if code == "RESOURCE_EXHAUSTED" => {}
        other => return Err(format!("cube under budget: expected shed, got {other:?}")),
    }

    // 3. Parse errors are typed frames, not dropped connections.
    let resp = ask(&mut conn, "SELEKT nonsense FROM nowhere")?;
    match &resp {
        Response::Error { code, .. } if code == "PARSE" || code == "LEX" => {}
        other => return Err(format!("parse error: expected ERR PARSE, got {other:?}")),
    }

    // 4. The same connection still serves queries after both errors.
    let resp = ask(&mut conn, "SELECT COUNT(*) AS n FROM Sales GROUP BY model")?;
    expect_table(&resp, "post-error query")?;

    // 5. A cacheable CUBE answers alike from its miss and its hit, and
    //    after a DELETE alike from its retracted view and with the cache
    //    off; so do a ROLLUP answered from a wider view and a MAX CUBE
    //    whose view recomputes a deleted champion.
    cache_smoke()?;
    //    A multi-column UPDATE moves the total by its row count, alike
    //    with the cache on and off, and its inverse restores it.
    update_smoke()?;

    // 6. The write path works over the wire: INSERT a batch, read the
    //    new total back, DELETE it again.
    let resp = ask(
        &mut conn,
        "INSERT INTO Sales VALUES ('Dodge', 1995, 'red', 7), ('Dodge', 1995, 'blue', 3)",
    )?;
    expect_table(&resp, "insert batch")?;
    let resp = ask(
        &mut conn,
        "SELECT model, SUM(units) AS total FROM Sales GROUP BY model",
    )?;
    if expect_table(&resp, "post-insert group by")? != 3 {
        return Err("post-insert group by: expected 3 models".to_string());
    }
    let resp = ask(&mut conn, "DELETE FROM Sales WHERE model = 'Dodge'")?;
    expect_table(&resp, "delete batch")?;
    let resp = ask(
        &mut conn,
        "SELECT model, SUM(units) AS total FROM Sales GROUP BY model",
    )?;
    if expect_table(&resp, "post-delete group by")? != 2 {
        return Err("post-delete group by: expected 2 models".to_string());
    }

    // 7. Small replies do not stall: 50 sequential statements on this
    //    default-options connection take well under a second. A frame
    //    sent as two writes waits ~40 ms per statement for a delayed ACK.
    let started = Instant::now();
    for _ in 0..STALL_PROBE_STATEMENTS {
        expect_table(
            &ask(&mut conn, "SELECT COUNT(*) AS n FROM Sales")?,
            "stall probe",
        )?;
    }
    let took = started.elapsed();
    if took >= Duration::from_secs(1) {
        return Err(format!(
            "{STALL_PROBE_STATEMENTS} sequential statements took {took:?} (limit 1 s): \
             the transport is stalling"
        ));
    }

    drop(conn);
    handle.shutdown();
    eprintln!(
        "dc_serve --smoke: OK (cheap lane served, cube shed typed, errors survived, \
         cache miss, hit, post-delete hits and off agreed, update and insert/delete \
         round-tripped, \
         {STALL_PROBE_STATEMENTS} statements in {took:?})"
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dc_serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
