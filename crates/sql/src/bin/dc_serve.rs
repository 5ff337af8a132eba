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
//! leaves the connection usable, that 50 sequential statements on one
//! default-options connection take under a second (no transport stall),
//! then shut down cleanly. Exit code 0 on success.

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

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.smoke {
        return smoke();
    }
    let mut engine = Engine::with_service(args.service);
    engine.cube_cache().set_enabled(args.cube_cache);
    if let Some(cells) = args.cache_cells {
        engine.cube_cache().set_budget_cells(cells);
    }
    engine
        .register_table("Sales", demo_table()?)
        .map_err(|e| format!("register: {e}"))?;
    let handle =
        serve(&engine, &args.addr, args.server).map_err(|e| format!("bind {}: {e}", args.addr))?;
    eprintln!("dc_serve listening on {}", handle.local_addr());
    handle.wait();
    Ok(())
}

fn expect_table(resp: &Response, what: &str) -> Result<usize, String> {
    match resp {
        Response::Table { rows, .. } => Ok(rows.len()),
        Response::Error { code, message, .. } => {
            Err(format!("{what}: expected table, got ERR {code}: {message}"))
        }
    }
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
    let mut engine = Engine::with_service(service);
    engine
        .register_table("Sales", demo_table()?)
        .map_err(|e| format!("register: {e}"))?;
    let handle =
        serve(&engine, "127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr();

    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let ask = |conn: &mut TcpStream, sql: &str| -> Result<Response, String> {
        wire::request(conn, sql).map_err(|e| format!("request failed: {e}"))
    };

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

    // 5. The repeated cheap query is now a lattice-cache hit (the first
    //    run materialized the MODEL view) and must return the same rows;
    //    `SET CUBE_CACHE OFF` parses over the wire and the base-scan
    //    answer agrees.
    let resp = ask(
        &mut conn,
        "SELECT model, SUM(units) AS total FROM Sales GROUP BY model",
    )?;
    if expect_table(&resp, "cached group by")? != 2 {
        return Err("cached group by: expected 2 rows".to_string());
    }
    if engine.cube_cache().counters().hits == 0 {
        return Err("cube cache: expected at least one hit".to_string());
    }
    expect_table(&ask(&mut conn, "SET CUBE_CACHE OFF")?, "set cube_cache off")?;
    let resp = ask(
        &mut conn,
        "SELECT model, SUM(units) AS total FROM Sales GROUP BY model",
    )?;
    if expect_table(&resp, "uncached group by")? != 2 {
        return Err("uncached group by: expected 2 rows".to_string());
    }

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
         cache hit observed, insert/delete round-tripped, \
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
