//! Hostile and broken clients against a real loopback server: truncated,
//! oversized, empty and non-UTF-8 frames, a mid-frame disconnect, and a
//! client that dribbles its request. In every case the server answers
//! with a typed frame or closes the connection, and afterwards a
//! `max_connections: 1` server admitting one query at a time with no
//! queue still serves a fresh client — so no case panics a connection
//! thread or leaks its slot or its admission permit.

use dc_relation::{row, DataType, Schema, Table};
use dc_sql::wire::{self, Response};
use dc_sql::{serve, AdmissionController, Engine, ServerConfig, ServerHandle, ServiceConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_FRAME_LEN: u32 = 1024;
const QUERY: &str = "SELECT model, SUM(units) AS total FROM Sales GROUP BY model";

/// A served engine and its admission controller, whose one permit a
/// leaking case would keep.
fn server() -> (ServerHandle, Arc<AdmissionController>) {
    server_framing(MAX_FRAME_LEN)
}

/// [`server`], refusing frames longer than `max_frame_len`.
fn server_framing(max_frame_len: u32) -> (ServerHandle, Arc<AdmissionController>) {
    let mut engine = Engine::with_service(ServiceConfig {
        max_concurrent: 1,
        queue_depth: 0,
        ..ServiceConfig::default()
    });
    let schema = Schema::from_pairs(&[("model", DataType::Str), ("units", DataType::Int)]);
    let t = Table::new(
        schema,
        vec![row!["Chevy", 50], row!["Ford", 60], row!["Chevy", 10]],
    )
    .unwrap();
    engine.register_table("Sales", t).unwrap();
    let cfg = ServerConfig {
        max_connections: 1,
        max_frame_len,
    };
    let admission = Arc::clone(engine.admission());
    (serve(&engine, "127.0.0.1:0", cfg).unwrap(), admission)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn
}

/// What the server did after a hostile send: one frame, or a close.
fn outcome(conn: &mut TcpStream) -> Option<Response> {
    match wire::read_frame(conn, wire::MAX_FRAME_LEN, &mut || false) {
        Ok(Some(payload)) => Some(wire::decode_response(&payload).expect("a well-formed frame")),
        Ok(None) => None,
        // A reset is a close too; a timeout means the server hung.
        Err(e) => {
            assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "server neither answered nor closed: {e}"
            );
            None
        }
    }
}

/// After the hostile client is gone, the one connection slot frees up and
/// a fresh client is served. The slot is released when the connection
/// thread exits, so a client that races it is shed; retry until then. Its
/// query is never shed by admission: that would mean the hostile case
/// still holds the one permit.
fn assert_slot_free(handle: ServerHandle, admission: &AdmissionController) {
    let shed = admission.counters().shed;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut conn = connect(handle.local_addr());
        match wire::request(&mut conn, QUERY) {
            Ok(Response::Table { rows, .. }) => {
                assert_eq!(rows.len(), 2);
                break;
            }
            Ok(Response::Error { code, .. }) if code == "RESOURCE_EXHAUSTED" => {}
            Err(_) => {}
            Ok(other) => panic!("fresh client got {other:?}"),
        }
        assert_eq!(
            admission.counters().shed,
            shed,
            "an admission permit leaked"
        );
        assert!(Instant::now() < deadline, "connection slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        admission.counters().shed,
        shed,
        "an admission permit leaked"
    );
    handle.shutdown();
}

fn assert_typed_error(resp: Option<Response>, want: &str) {
    match resp {
        Some(Response::Error { code, .. }) => assert_eq!(code, want),
        other => panic!("expected ERR {want}, got {other:?}"),
    }
}

#[test]
fn truncated_prefix_closes() {
    let (handle, admission) = server();
    let mut conn = connect(handle.local_addr());
    conn.write_all(&[0, 0]).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    assert_eq!(outcome(&mut conn), None);
    drop(conn);
    assert_slot_free(handle, &admission);
}

#[test]
fn truncated_payload_closes() {
    let (handle, admission) = server();
    let mut conn = connect(handle.local_addr());
    conn.write_all(&100u32.to_be_bytes()).unwrap();
    conn.write_all(b"SELECT").unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    assert_eq!(outcome(&mut conn), None);
    drop(conn);
    assert_slot_free(handle, &admission);
}

#[test]
fn oversized_length_is_refused_typed_then_closed() {
    let (handle, admission) = server();
    let mut conn = connect(handle.local_addr());
    conn.write_all(&(MAX_FRAME_LEN + 1).to_be_bytes()).unwrap();
    assert_typed_error(outcome(&mut conn), "PLAN");
    // The stream cannot be resynchronized, so the server hangs up.
    assert_eq!(outcome(&mut conn), None);
    drop(conn);
    assert_slot_free(handle, &admission);
}

#[test]
fn zero_length_frame_is_answered_and_the_connection_survives() {
    let (handle, admission) = server();
    let mut conn = connect(handle.local_addr());
    conn.write_all(&0u32.to_be_bytes()).unwrap();
    assert!(
        matches!(outcome(&mut conn), Some(Response::Error { .. })),
        "an empty statement is a typed error"
    );
    let resp = wire::request(&mut conn, QUERY).unwrap();
    assert!(matches!(resp, Response::Table { .. }), "{resp:?}");
    drop(conn);
    assert_slot_free(handle, &admission);
}

#[test]
fn non_utf8_payload_is_refused_typed_and_the_connection_survives() {
    let (handle, admission) = server();
    let mut conn = connect(handle.local_addr());
    wire::write_frame(&mut conn, &[b'S', 0xff, 0xfe, b'!']).unwrap();
    assert_typed_error(outcome(&mut conn), "PLAN");
    let resp = wire::request(&mut conn, QUERY).unwrap();
    assert!(matches!(resp, Response::Table { .. }), "{resp:?}");
    drop(conn);
    assert_slot_free(handle, &admission);
}

#[test]
fn half_a_frame_then_disconnect_frees_the_slot() {
    let (handle, admission) = server();
    let mut conn = connect(handle.local_addr());
    let len = u32::try_from(QUERY.len()).unwrap();
    conn.write_all(&len.to_be_bytes()).unwrap();
    conn.write_all(&QUERY.as_bytes()[..QUERY.len() / 2])
        .unwrap();
    drop(conn);
    assert_slot_free(handle, &admission);
}

#[test]
fn a_client_dribbling_one_byte_per_20ms_is_served() {
    let (handle, admission) = server();
    let mut conn = connect(handle.local_addr());
    let sql = "SELECT COUNT(*) AS n FROM Sales";
    let mut frame = u32::try_from(sql.len()).unwrap().to_be_bytes().to_vec();
    frame.extend_from_slice(sql.as_bytes());
    for byte in frame {
        conn.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    match outcome(&mut conn) {
        Some(Response::Table { rows, .. }) => assert_eq!(rows, vec![vec!["3".to_string()]]),
        other => panic!("expected the count, got {other:?}"),
    }
    // Nothing else arrives: exactly one frame per request.
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut extra = [0u8; 1];
    assert!(
        conn.read(&mut extra).is_err(),
        "unexpected bytes after the reply"
    );
    drop(conn);
    assert_slot_free(handle, &admission);
}

/// xorshift64: the hostile frame generator's fixed-seed stream, so a
/// failing frame replays.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % n
    }
}

/// What the server owes a hostile frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owed {
    /// A cut frame: the server can only close on it.
    Close,
    /// A whole frame: a typed error.
    Error,
    /// A whole statement nested past the parser's limit: `ERR PARSE`,
    /// whatever the production.
    Parse,
}

/// One hostile frame: a length prefix of 0, below, at or above
/// `MAX_FRAME_LEN`, with a printable or a random (mostly non-UTF-8)
/// payload, one in three cut short anywhere, prefix included; or a whole
/// statement, one of [`nested_statements`]' productions at a depth in
/// 65..=100 000. Returns its bytes and what the server owes it.
fn hostile_frame(rng: &mut XorShift) -> (Vec<u8>, Owed) {
    let max = u64::from(MAX_FRAME_LEN);
    let len = match rng.below(5) {
        0 => 0,
        1 => 1 + rng.below(max - 1),
        2 => max,
        3 => max + 1 + rng.below(u64::from(u32::MAX) - max),
        _ => {
            let limit = dc_sql::parser::MAX_DEPTH as u64;
            let depth = limit + 1 + rng.below(100_000 - limit);
            let mut statements = nested_statements(depth as usize);
            let pick = rng.below(statements.len() as u64) as usize;
            let (_, sql) = statements.swap_remove(pick);
            let mut frame = Vec::new();
            wire::write_frame(&mut frame, sql.as_bytes()).unwrap();
            return (frame, Owed::Parse);
        }
    };
    let mut frame = u32::try_from(len).unwrap().to_be_bytes().to_vec();
    if len > max {
        return (frame, Owed::Error); // refused on its prefix alone
    }
    let printable = rng.below(2) == 0;
    let byte = |rng: &mut XorShift| match printable {
        true => b' ' + rng.below(95) as u8,
        false => rng.below(256) as u8,
    };
    frame.extend((0..len).map(|_| byte(rng)));
    if rng.below(3) > 0 {
        return (frame, Owed::Error);
    }
    frame.truncate(rng.below(frame.len() as u64) as usize);
    (frame, Owed::Close)
}

/// 64 seeded hostile frames, each on a server of its own: a whole frame is
/// answered with a typed error (a deep statement with `ERR PARSE`), a cut
/// one with a close, and afterwards the server's one slot and one permit
/// serve a fresh client. A deep statement's server takes frames of the
/// wire's full length, so its text reaches the parser.
#[test]
fn seeded_hostile_frames_get_a_typed_error_or_a_close() {
    let mut rng = XorShift(0xDA7A_C0BE_F00D_2024);
    for i in 0..64 {
        let (frame, owed) = hostile_frame(&mut rng);
        let (handle, admission) = match owed {
            Owed::Parse => server_framing(wire::MAX_FRAME_LEN),
            Owed::Close | Owed::Error => server(),
        };
        let mut conn = connect(handle.local_addr());
        conn.write_all(&frame).unwrap();
        conn.shutdown(Shutdown::Write).unwrap();
        match outcome(&mut conn) {
            Some(Response::Error { code, .. }) => {
                assert_ne!(
                    owed,
                    Owed::Close,
                    "frame {i}: a cut frame was answered ERR {code}"
                );
                assert_ne!(code, "RESOURCE_EXHAUSTED", "frame {i}: shed, not answered");
                if owed == Owed::Parse {
                    assert_eq!(code, "PARSE", "frame {i}");
                }
            }
            None => assert_eq!(owed, Owed::Close, "frame {i}: a whole frame was closed on"),
            Some(other) => panic!("frame {i}: expected a typed error or a close, got {other:?}"),
        }
        drop(conn);
        assert_slot_free(handle, &admission);
    }
}

/// Statements that nest one production `depth` deep, each as a complete
/// query over `Sales`: parentheses, unary `-`, `NOT`, the loop-built
/// `+`, `*`, `AND`, `OR` and `UNION` chains, calls, `GROUPING(…)`,
/// scalar subqueries, and parentheses inside `GROUPING SETS`.
fn nested_statements(depth: usize) -> Vec<(&'static str, String)> {
    let wrap = |open: &str, inner: &str, close: &str| {
        format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
    };
    vec![
        (
            "parens",
            format!("SELECT {} FROM Sales", wrap("(", "1", ")")),
        ),
        ("neg", format!("SELECT {}1 FROM Sales", "- ".repeat(depth))),
        (
            "not",
            format!("SELECT model FROM Sales WHERE {}TRUE", "NOT ".repeat(depth)),
        ),
        (
            "add",
            format!("SELECT 1{} FROM Sales", " + 1".repeat(depth)),
        ),
        (
            "mul",
            format!("SELECT 1{} FROM Sales", " * 1".repeat(depth)),
        ),
        (
            "and",
            format!(
                "SELECT model FROM Sales WHERE TRUE{}",
                " AND TRUE".repeat(depth)
            ),
        ),
        (
            "or",
            format!(
                "SELECT model FROM Sales WHERE FALSE{}",
                " OR TRUE".repeat(depth)
            ),
        ),
        (
            "union",
            format!(
                "SELECT 1 FROM Sales{}",
                " UNION SELECT 1 FROM Sales".repeat(depth)
            ),
        ),
        (
            "call",
            format!("SELECT {} FROM Sales", wrap("ABS(", "1", ")")),
        ),
        (
            "grouping",
            format!(
                "SELECT {} FROM Sales GROUP BY CUBE model",
                wrap("GROUPING(", "model", ")")
            ),
        ),
        (
            "subquery",
            format!(
                "SELECT {} FROM Sales",
                wrap("(SELECT ", "1", " FROM Sales)")
            ),
        ),
        (
            "grouping_sets",
            format!(
                "SELECT COUNT(*) AS n FROM Sales GROUP BY GROUPING SETS (({}))",
                wrap("(", "model", ")")
            ),
        ),
    ]
}

/// No statement can overflow a connection thread's stack: on a default
/// server, each production nested 10^5 deep is answered with a typed
/// PARSE error naming the limit, and a fresh client is then served. Just
/// inside the limit, where the tree is tallest (a deep operand at the
/// head of a long chain), every statement gets a typed answer.
#[test]
fn statements_nested_past_the_limit_get_a_typed_error() {
    let mut engine = Engine::new();
    let schema = Schema::from_pairs(&[("model", DataType::Str), ("units", DataType::Int)]);
    let t = Table::new(schema, vec![row!["Chevy", 50], row!["Ford", 60]]).unwrap();
    engine.register_table("Sales", t).unwrap();
    let handle = serve(&engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let limit = dc_sql::parser::MAX_DEPTH;

    for (name, sql) in nested_statements(100_000) {
        let mut conn = connect(handle.local_addr());
        match wire::request(&mut conn, &sql) {
            Ok(Response::Error { code, message, .. }) => {
                assert_eq!(code, "PARSE", "{name}: {message}");
                assert!(message.contains(&limit.to_string()), "{name}: {message}");
            }
            other => panic!("{name}: expected ERR PARSE, got {other:?}"),
        }
    }

    let tallest = format!(
        "SELECT {}1{} AS x FROM Sales",
        "- ".repeat(limit - 1),
        " + 1".repeat(limit - 1)
    );
    let inside = nested_statements(limit - 10).into_iter();
    for (name, sql) in inside.chain([("tallest", tallest)]) {
        let mut conn = connect(handle.local_addr());
        match wire::request(&mut conn, &sql) {
            Ok(Response::Table { .. }) => {}
            Ok(Response::Error { code, message, .. }) => {
                assert!(
                    !message.contains("nests deeper"),
                    "{name}: {code} {message}"
                );
            }
            Err(e) => panic!("{name}: the server closed on a statement inside the limit: {e}"),
        }
    }

    let mut conn = connect(handle.local_addr());
    match wire::request(&mut conn, QUERY) {
        Ok(Response::Table { rows, .. }) => assert_eq!(rows.len(), 2),
        other => panic!("fresh client got {other:?}"),
    }
    handle.shutdown();
}
