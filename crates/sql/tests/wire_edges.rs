//! Hostile and broken clients against a real loopback server: truncated,
//! oversized, empty and non-UTF-8 frames, a mid-frame disconnect, and a
//! client that dribbles its request. In every case the server answers
//! with a typed frame or closes the connection, and afterwards a
//! `max_connections: 1` server still serves a fresh client — so no case
//! panics a connection thread or leaks its slot.

use dc_relation::{row, DataType, Schema, Table};
use dc_sql::wire::{self, Response};
use dc_sql::{serve, Engine, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const MAX_FRAME_LEN: u32 = 1024;
const QUERY: &str = "SELECT model, SUM(units) AS total FROM Sales GROUP BY model";

fn server() -> ServerHandle {
    let mut engine = Engine::new();
    let schema = Schema::from_pairs(&[("model", DataType::Str), ("units", DataType::Int)]);
    let t = Table::new(
        schema,
        vec![row!["Chevy", 50], row!["Ford", 60], row!["Chevy", 10]],
    )
    .unwrap();
    engine.register_table("Sales", t).unwrap();
    let cfg = ServerConfig {
        max_connections: 1,
        max_frame_len: MAX_FRAME_LEN,
    };
    serve(&engine, "127.0.0.1:0", cfg).unwrap()
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
/// thread exits, so a client that races it is shed; retry until then.
fn assert_slot_free(handle: ServerHandle) {
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
        assert!(Instant::now() < deadline, "connection slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
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
    let handle = server();
    let mut conn = connect(handle.local_addr());
    conn.write_all(&[0, 0]).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    assert_eq!(outcome(&mut conn), None);
    drop(conn);
    assert_slot_free(handle);
}

#[test]
fn truncated_payload_closes() {
    let handle = server();
    let mut conn = connect(handle.local_addr());
    conn.write_all(&100u32.to_be_bytes()).unwrap();
    conn.write_all(b"SELECT").unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    assert_eq!(outcome(&mut conn), None);
    drop(conn);
    assert_slot_free(handle);
}

#[test]
fn oversized_length_is_refused_typed_then_closed() {
    let handle = server();
    let mut conn = connect(handle.local_addr());
    conn.write_all(&(MAX_FRAME_LEN + 1).to_be_bytes()).unwrap();
    assert_typed_error(outcome(&mut conn), "PLAN");
    // The stream cannot be resynchronized, so the server hangs up.
    assert_eq!(outcome(&mut conn), None);
    drop(conn);
    assert_slot_free(handle);
}

#[test]
fn zero_length_frame_is_answered_and_the_connection_survives() {
    let handle = server();
    let mut conn = connect(handle.local_addr());
    conn.write_all(&0u32.to_be_bytes()).unwrap();
    assert!(
        matches!(outcome(&mut conn), Some(Response::Error { .. })),
        "an empty statement is a typed error"
    );
    let resp = wire::request(&mut conn, QUERY).unwrap();
    assert!(matches!(resp, Response::Table { .. }), "{resp:?}");
    drop(conn);
    assert_slot_free(handle);
}

#[test]
fn non_utf8_payload_is_refused_typed_and_the_connection_survives() {
    let handle = server();
    let mut conn = connect(handle.local_addr());
    wire::write_frame(&mut conn, &[b'S', 0xff, 0xfe, b'!']).unwrap();
    assert_typed_error(outcome(&mut conn), "PLAN");
    let resp = wire::request(&mut conn, QUERY).unwrap();
    assert!(matches!(resp, Response::Table { .. }), "{resp:?}");
    drop(conn);
    assert_slot_free(handle);
}

#[test]
fn half_a_frame_then_disconnect_frees_the_slot() {
    let handle = server();
    let mut conn = connect(handle.local_addr());
    let len = u32::try_from(QUERY.len()).unwrap();
    conn.write_all(&len.to_be_bytes()).unwrap();
    conn.write_all(&QUERY.as_bytes()[..QUERY.len() / 2])
        .unwrap();
    drop(conn);
    assert_slot_free(handle);
}

#[test]
fn a_client_dribbling_one_byte_per_20ms_is_served() {
    let handle = server();
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
    assert_slot_free(handle);
}
