//! The dc-serve wire protocol: length-prefixed frames of UTF-8 text.
//!
//! A request frame is the SQL statement text. A response frame is either
//!
//! ```text
//! OK <rows> <cols>\n
//! <tab-separated header>\n
//! <tab-separated row>\n ...
//! ```
//!
//! or
//!
//! ```text
//! ERR <CODE> <retry_after_ms>\n
//! <human-readable message>
//! ```
//!
//! where `<CODE>` is one of `RESOURCE_EXHAUSTED`, `CANCELLED`,
//! `AGG_PANICKED`, `CUBE`, `LEX`, `PARSE`, `PLAN`, `REL`, or `AGG` — the
//! typed-error taxonomy clients key retry logic on. `retry_after_ms` is
//! the admission controller's backoff hint (0 when retrying is pointless
//! or the error is not load-related).
//!
//! Framing is a big-endian `u32` byte length followed by that many bytes.
//! Cell text is escaped so tabs/newlines in string values cannot corrupt
//! the tabular body: `\t` → `\\t`, `\n` → `\\n`, `\r` → `\\r`,
//! `\\` → `\\\\`.
//!
//! A frame leaves in one `write_all` of one buffer, prefix and payload
//! together. Two writes would put the payload behind Nagle's algorithm:
//! the first segment (the prefix) is unacknowledged, so the kernel holds
//! the second until the peer's delayed ACK fires, ~40 ms later.

use crate::error::SqlError;
use dc_relation::Table;
use std::io::{self, Read, Write};

/// Hard ceiling on accepted frame length (16 MiB) — a corrupt or
/// malicious length prefix must not trigger a giant allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Write one length-prefixed frame, as one write.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed the connection between requests).
///
/// `keep_waiting` is consulted on read timeouts (`WouldBlock` /
/// `TimedOut`): returning `true` retries the read, `false` aborts with
/// the timeout error. Servers pass their shutdown flag here so blocked
/// reads notice shutdown within one timeout tick.
pub fn read_frame(
    r: &mut impl Read,
    max_len: u32,
    keep_waiting: &mut dyn FnMut() -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf, keep_waiting)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf);
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {max_len}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && keep_waiting() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

/// Fill `buf` exactly; `Ok(false)` means clean EOF before the first byte.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    keep_waiting: &mut dyn FnMut() -> bool,
) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && keep_waiting() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Append `s` to `out` with the cell escapes applied.
fn escape_cell_into(out: &mut Vec<u8>, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.find(['\t', '\n', '\r', '\\']) {
        out.extend_from_slice(&rest.as_bytes()[..at]);
        out.extend_from_slice(match rest.as_bytes()[at] {
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            _ => b"\\\\",
        });
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest.as_bytes());
}

fn unescape_cell(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Encode a successful result table as a response payload.
pub fn encode_table(t: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    // Writes into a `Vec` cannot fail.
    let _ = writeln!(out, "OK {} {}", t.len(), t.schema().len());
    for (i, col) in t.schema().columns().iter().enumerate() {
        if i > 0 {
            out.push(b'\t');
        }
        escape_cell_into(&mut out, &col.name);
    }
    out.push(b'\n');
    // cube-lint: allow(checkpoint, serializing an already-computed result; no budget applies)
    for row in t.rows() {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(b'\t');
            }
            // Only strings can hold a tab, newline, CR or backslash.
            match v.as_str() {
                Some(s) => escape_cell_into(&mut out, s),
                None => {
                    let _ = write!(out, "{v}");
                }
            }
        }
        out.push(b'\n');
    }
    out
}

/// The wire error code for a [`SqlError`] plus its retry-after hint.
pub fn error_code(e: &SqlError) -> (&'static str, u64) {
    match e {
        SqlError::Cube(datacube::CubeError::ResourceExhausted { stats, .. }) => {
            ("RESOURCE_EXHAUSTED", u64::from(stats.retry_after_ms))
        }
        SqlError::Cube(datacube::CubeError::Cancelled { .. }) => ("CANCELLED", 0),
        SqlError::Cube(datacube::CubeError::AggPanicked { .. }) => ("AGG_PANICKED", 0),
        SqlError::Cube(_) => ("CUBE", 0),
        SqlError::Lex { .. } => ("LEX", 0),
        SqlError::Parse { .. } => ("PARSE", 0),
        SqlError::Plan(_) => ("PLAN", 0),
        SqlError::Rel(_) => ("REL", 0),
        SqlError::Agg(_) => ("AGG", 0),
    }
}

/// Encode a typed error as a response payload.
pub fn encode_error(e: &SqlError) -> Vec<u8> {
    let (code, retry) = error_code(e);
    format!("ERR {code} {retry}\n{e}").into_bytes()
}

/// A decoded response frame, as seen by clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A result table: header names plus unescaped cell text per row.
    Table {
        columns: Vec<String>,
        rows: Vec<Vec<String>>,
    },
    /// A typed error with the admission controller's backoff hint.
    Error {
        code: String,
        retry_after_ms: u64,
        message: String,
    },
}

/// Decode a response payload (the client half of the protocol).
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad UTF-8: {e}")))?;
    let bad =
        |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {why}"));
    let (head, body) = match text.split_once('\n') {
        Some(pair) => pair,
        None => (text, ""),
    };
    let mut parts = head.split(' ');
    match parts.next() {
        Some("OK") => {
            let rows: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("missing row count"))?;
            let _cols = parts.next();
            // Rows end in `\n` alone: `str::lines` would also strip a
            // `\r` before it, which is cell text, not line structure.
            let mut lines = body.strip_suffix('\n').unwrap_or(body).split('\n');
            let columns: Vec<String> = lines
                .next()
                .ok_or_else(|| bad("missing header"))?
                .split('\t')
                .map(unescape_cell)
                .collect();
            let mut out_rows = Vec::with_capacity(rows);
            // cube-lint: allow(checkpoint, client-side decode of a bounded frame)
            for line in lines {
                let mut cells = Vec::with_capacity(columns.len());
                cells.extend(line.split('\t').map(unescape_cell));
                out_rows.push(cells);
            }
            if out_rows.len() != rows {
                return Err(bad("row count mismatch"));
            }
            Ok(Response::Table {
                columns,
                rows: out_rows,
            })
        }
        Some("ERR") => {
            let code = parts.next().ok_or_else(|| bad("missing error code"))?;
            let retry_after_ms: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            Ok(Response::Error {
                code: code.to_string(),
                retry_after_ms,
                message: body.to_string(),
            })
        }
        // cube-lint: allow(wildcard, scrutinee is Option<&str>, not Value)
        _ => Err(bad("unknown status word")),
    }
}

/// Client helper: send one SQL request over `stream` and decode the
/// response. Blocks until the server answers or the stream errors.
pub fn request(stream: &mut (impl Read + Write), sql: &str) -> io::Result<Response> {
    write_frame(stream, sql.as_bytes())?;
    let payload = read_frame(stream, MAX_FRAME_LEN, &mut || true)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"))?;
    decode_response(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relation::{row, DataType, Schema, Value};

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"SELECT 1").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        let mut wait = || true;
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_LEN, &mut wait)
                .unwrap()
                .as_deref(),
            Some(&b"SELECT 1"[..])
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_LEN, &mut wait)
                .unwrap()
                .as_deref(),
            Some(&b""[..])
        );
        // Clean EOF at a frame boundary.
        assert!(read_frame(&mut cursor, MAX_FRAME_LEN, &mut wait)
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"SELECT 1").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = io::Cursor::new(buf);
        let err = read_frame(&mut cursor, MAX_FRAME_LEN, &mut || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = io::Cursor::new(buf);
        let err = read_frame(&mut cursor, 1024, &mut || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn table_round_trips_with_escapes() {
        let schema = Schema::from_pairs(&[("name", DataType::Str), ("n", DataType::Int)]);
        let t = dc_relation::Table::new(
            schema,
            vec![
                Row::new(vec![Value::str("tab\there"), Value::Int(1)]),
                Row::new(vec![Value::str("line\nbreak"), Value::Int(2)]),
            ],
        )
        .unwrap();
        let decoded = decode_response(&encode_table(&t)).unwrap();
        match decoded {
            Response::Table { columns, rows } => {
                assert_eq!(columns, vec!["name", "n"]);
                assert_eq!(rows[0][0], "tab\there");
                assert_eq!(rows[1][0], "line\nbreak");
            }
            // cube-lint: allow(wildcard, scrutinee is Response, not Value)
            other => panic!("expected table, got {other:?}"),
        }
        let _ = row![1]; // keep the macro import exercised
    }

    use dc_relation::Row;

    #[test]
    fn carriage_return_in_the_last_column_survives() {
        let schema = Schema::from_pairs(&[("n", DataType::Int), ("s", DataType::Str)]);
        let t = dc_relation::Table::new(
            schema,
            vec![
                Row::new(vec![Value::Int(1), Value::str("dos\r")]),
                Row::new(vec![Value::Int(2), Value::str("back\\slash")]),
            ],
        )
        .unwrap();
        let payload = encode_table(&t);
        assert_eq!(payload, b"OK 2 2\nn\ts\n1\tdos\\r\n2\tback\\\\slash\n");
        let cells = |row: [&str; 2]| row.map(String::from).to_vec();
        assert_eq!(
            decode_response(&payload).unwrap(),
            Response::Table {
                columns: cells(["n", "s"]),
                rows: vec![cells(["1", "dos\r"]), cells(["2", "back\\slash"])],
            }
        );
    }

    /// Counts `write` calls: a frame split over two would stall behind
    /// Nagle's algorithm on a default-options socket.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut w = Writes::default();
        write_frame(&mut w, b"SELECT 1").unwrap();
        assert_eq!(w.0, vec![b"\0\0\0\x08SELECT 1".to_vec()]);
    }

    #[test]
    fn errors_carry_code_and_retry_hint() {
        let stats = datacube::ExecStats {
            retry_after_ms: 75,
            ..Default::default()
        };
        let e = SqlError::Cube(datacube::CubeError::ResourceExhausted {
            resource: datacube::Resource::AdmissionQueue,
            limit: 4,
            observed: 5,
            stats,
        });
        let decoded = decode_response(&encode_error(&e)).unwrap();
        match decoded {
            Response::Error {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, "RESOURCE_EXHAUSTED");
                assert_eq!(retry_after_ms, 75);
            }
            // cube-lint: allow(wildcard, scrutinee is Response, not Value)
            other => panic!("expected error, got {other:?}"),
        }

        let parse = SqlError::Plan("nope".into());
        assert_eq!(error_code(&parse), ("PLAN", 0));
    }
}
