//! A minimal TCP cube server: thread-per-connection over the [`crate::wire`]
//! protocol, with per-connection panic isolation.
//!
//! Every connection gets its own [`Session`] against the shared engine,
//! so one client's options, cancel token, and statistics never leak into
//! another's. Each request runs inside `exec::guard`, so a panicking UDA
//! or a poisoned lock produces one `ERR AGG_PANICKED` frame on one
//! connection — the process, and every other session, keeps serving.
//! Overload surfaces as `ERR RESOURCE_EXHAUSTED` frames with a
//! retry-after hint, from the admission controller (queries) or from the
//! connection cap (accepts); the server never falls over under load, it
//! sheds.

use crate::admission::{failpoint, AdmissionController};
use crate::catalog::SharedCatalog;
use crate::engine::Engine;
use crate::error::SqlError;
use crate::session::Session;
use crate::wire;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server-level limits, independent of per-query admission control.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneously open connections; further accepts are
    /// answered with one `ERR RESOURCE_EXHAUSTED` frame and closed.
    pub max_connections: usize,
    /// Largest request frame accepted, in bytes.
    pub max_frame_len: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_frame_len: wire::MAX_FRAME_LEN,
        }
    }
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] (tests) or [`ServerHandle::wait`] (the
/// `dc_serve` binary).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight connections, and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles = {
            let mut guard = self.workers.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *guard)
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Block until the accept loop exits (i.e. forever, absent shutdown
    /// or a listener error). For the foreground `dc_serve` binary.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Start serving `engine` on `addr` (e.g. `"127.0.0.1:0"`). Returns once
/// the listener is bound; connections are handled on background threads.
pub fn serve(engine: &Engine, addr: &str, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let open = Arc::new(AtomicUsize::new(0));
    let (catalog, admission, cache) = engine.service_parts();

    let accept = {
        let shutdown = Arc::clone(&shutdown);
        let workers = Arc::clone(&workers);
        std::thread::spawn(move || {
            accept_loop(
                listener, catalog, admission, cache, cfg, shutdown, workers, open,
            )
        })
    };

    Ok(ServerHandle {
        addr: local,
        shutdown,
        accept: Some(accept),
        workers,
    })
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    catalog: SharedCatalog,
    admission: Arc<AdmissionController>,
    cache: Arc<crate::cache::CubeCache>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    open: Arc<AtomicUsize>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // listener gone; nothing left to serve
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection (or any racer) during shutdown
        }
        // Connection cap: shed with a typed frame instead of hanging.
        if open.load(Ordering::SeqCst) >= cfg.max_connections {
            reject_connection(stream, cfg.max_connections);
            continue;
        }
        open.fetch_add(1, Ordering::SeqCst);
        let session = Session::new(catalog.clone(), Arc::clone(&admission), Arc::clone(&cache));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let open = Arc::clone(&open);
            let max_frame_len = cfg.max_frame_len;
            std::thread::spawn(move || {
                handle_connection(stream, session, shutdown, max_frame_len);
                open.fetch_sub(1, Ordering::SeqCst);
            })
        };
        let mut guard = workers.lock().unwrap_or_else(|p| p.into_inner());
        // Reap finished workers so long-lived servers don't accumulate
        // handles; join on a finished thread is immediate.
        guard.retain(|h| !h.is_finished());
        guard.push(handle);
    }
}

/// Answer an over-cap connection with one typed error frame and close.
fn reject_connection(mut stream: TcpStream, cap: usize) {
    let stats = datacube::ExecStats {
        admission: datacube::AdmissionVerdict::Shed,
        retry_after_ms: 50,
        ..Default::default()
    };
    let err = SqlError::Cube(datacube::CubeError::ResourceExhausted {
        resource: datacube::Resource::AdmissionQueue,
        limit: cap as u64,
        observed: cap as u64 + 1,
        stats,
    });
    let _ = wire::write_frame(&mut stream, &wire::encode_error(&err));
    let _ = stream.flush();
}

/// Serve one connection: read request frames, answer each with exactly
/// one response frame, until the peer closes, an I/O error occurs, or
/// the server shuts down.
fn handle_connection(
    mut stream: TcpStream,
    session: Session,
    shutdown: Arc<AtomicBool>,
    max_frame_len: u32,
) {
    // Replies go out as one write each; with Nagle off, the last segment
    // of a multi-segment reply does not wait for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    // Short read timeouts so blocked reads notice shutdown promptly.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        let mut keep_waiting = || !shutdown.load(Ordering::SeqCst);
        let frame = match wire::read_frame(&mut stream, max_frame_len, &mut keep_waiting) {
            Ok(Some(f)) => f,
            Ok(None) => break, // clean close
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized/corrupt frame: answer once, then close — we
                // cannot resynchronize the stream.
                let err = SqlError::Plan(format!("bad request frame: {e}"));
                let _ = wire::write_frame(&mut stream, &wire::encode_error(&err));
                break;
            }
            Err(_) => break, // timeout-at-shutdown or hard I/O error
        };
        let payload = respond(&session, &frame);
        if wire::write_frame(&mut stream, &payload).is_err() {
            break;
        }
    }
}

/// Execute one request and encode the response. Panic-isolated: a UDA
/// panic (or an injected `service::respond` fault) becomes a typed error
/// frame, never a dead process.
fn respond(session: &Session, frame: &[u8]) -> Vec<u8> {
    let sql = match std::str::from_utf8(frame) {
        Ok(s) => s,
        Err(e) => return wire::encode_error(&SqlError::Plan(format!("request is not UTF-8: {e}"))),
    };
    let guarded = datacube::exec::guard("service::respond", || {
        failpoint("service::respond").map_err(SqlError::Cube)?;
        session.execute(sql)
    });
    match guarded {
        Ok(Ok(table)) => wire::encode_table(&table),
        Ok(Err(e)) => wire::encode_error(&e),
        Err(cube_err) => wire::encode_error(&SqlError::Cube(cube_err)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Response;
    use dc_relation::{row, DataType, Schema, Table};

    fn demo_engine() -> Engine {
        let mut engine = Engine::new();
        let schema = Schema::from_pairs(&[("model", DataType::Str), ("units", DataType::Int)]);
        let t = Table::new(
            schema,
            vec![row!["Chevy", 50], row!["Ford", 60], row!["Chevy", 10]],
        )
        .unwrap();
        engine.register_table("Sales", t).unwrap();
        engine
    }

    #[test]
    fn serves_queries_and_typed_errors_over_tcp() {
        let engine = demo_engine();
        let handle = serve(&engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut conn = TcpStream::connect(handle.local_addr()).unwrap();

        let resp = wire::request(
            &mut conn,
            "SELECT model, SUM(units) AS total FROM Sales GROUP BY CUBE model",
        )
        .unwrap();
        match resp {
            Response::Table { columns, rows } => {
                assert_eq!(columns, vec!["model", "total"]);
                assert_eq!(rows.len(), 3); // Chevy, Ford, ALL
            }
            // cube-lint: allow(wildcard, scrutinee is Response, not Value)
            other => panic!("expected table, got {other:?}"),
        }

        // A parse error is a typed frame and the connection survives it.
        let resp = wire::request(&mut conn, "SELEKT nonsense").unwrap();
        assert!(
            matches!(resp, Response::Error { ref code, .. } if code == "PARSE" || code == "LEX"),
            "{resp:?}"
        );
        let resp = wire::request(&mut conn, "SELECT COUNT(*) AS n FROM Sales").unwrap();
        assert!(matches!(resp, Response::Table { .. }), "{resp:?}");

        handle.shutdown();
    }

    #[test]
    fn connection_cap_sheds_with_typed_frame() {
        let engine = demo_engine();
        let cfg = ServerConfig {
            max_connections: 1,
            ..Default::default()
        };
        let handle = serve(&engine, "127.0.0.1:0", cfg).unwrap();
        let mut first = TcpStream::connect(handle.local_addr()).unwrap();
        // Prove the first connection is live (and thus counted) before
        // the second connects.
        let resp = wire::request(&mut first, "SELECT COUNT(*) AS n FROM Sales").unwrap();
        assert!(matches!(resp, Response::Table { .. }));

        let mut second = TcpStream::connect(handle.local_addr()).unwrap();
        let payload = wire::read_frame(&mut second, wire::MAX_FRAME_LEN, &mut || true)
            .unwrap()
            .unwrap();
        match wire::decode_response(&payload).unwrap() {
            Response::Error {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, "RESOURCE_EXHAUSTED");
                assert!(retry_after_ms > 0);
            }
            // cube-lint: allow(wildcard, scrutinee is Response, not Value)
            other => panic!("expected shed frame, got {other:?}"),
        }
        handle.shutdown();
    }
}
