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
//! A cell's text is its value's `Display` bytes (`ALL`, `NULL`, `TRUE`,
//! `5`, `5.0`, `2.5`), escaped so tabs/newlines in string values cannot
//! corrupt the tabular body: `\t` → `\\t`, `\n` → `\\n`, `\r` → `\\r`,
//! `\\` → `\\\\`. [`encode_table`] prints integers and integral floats'
//! digits itself and goes through a formatter only for other floats and
//! dates. [`decode_response`] reads a body in one pass: a `\t` or `\n`
//! ends a cell, and a cell is one copy of its text unless the pass saw a
//! `\\` in it.
//!
//! A frame leaves in one `write_all` of one buffer, prefix and payload
//! together. Two writes would put the payload behind Nagle's algorithm:
//! the first segment (the prefix) is unacknowledged, so the kernel holds
//! the second until the peer's delayed ACK fires, ~40 ms later.

use crate::error::SqlError;
use dc_relation::{Table, Value};
use std::io::{self, Read, Write};

/// Hard ceiling on accepted frame length (16 MiB) — a corrupt or
/// malicious length prefix must not trigger a giant allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// The most a frame's buffer holds before its first bytes arrive.
const FIRST_READ: usize = 64 * 1024;

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
/// The payload buffer starts at 64 KiB (or the frame length, if less) and
/// doubles as it fills: a 0.3 MB reply costs three reallocations, and a
/// prefix followed by nothing costs no more than 64 KiB.
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
    // The buffer grows as bytes arrive, so a prefix alone cannot make the
    // server hold `len` bytes for a payload that never comes.
    let len = len as usize;
    let mut payload = vec![0u8; len.min(FIRST_READ)];
    let mut filled = 0usize;
    while filled < len {
        if filled == payload.len() {
            payload.resize((2 * filled).min(len), 0);
        }
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

/// The text of a cell the decoder saw a `\` in, escapes undone.
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

/// Append the decimal digits of `n`, after a `-` if `negative`.
fn write_digits(out: &mut Vec<u8>, negative: bool, mut n: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if negative {
        out.push(b'-');
    }
    out.extend_from_slice(&buf[at..]);
}

/// Append `v`'s `Display` text, escaped, without going through a
/// formatter for the common cases.
fn write_cell(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.extend_from_slice(b"NULL"),
        Value::All => out.extend_from_slice(b"ALL"),
        Value::Bool(true) => out.extend_from_slice(b"TRUE"),
        Value::Bool(false) => out.extend_from_slice(b"FALSE"),
        Value::Int(i) => write_digits(out, *i < 0, i.unsigned_abs()),
        // `Display` prints such a float as `{x:.1}`: its sign (`-0.0`
        // included), its integer's digits and `.0`. Below 1e15 the cast
        // is exact.
        Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
            write_digits(out, x.is_sign_negative(), x.abs() as u64);
            out.extend_from_slice(b".0");
        }
        // Writes into a `Vec` cannot fail.
        Value::Float(x) => {
            let _ = write!(out, "{x}");
        }
        // Only strings can hold a tab, newline, CR or backslash.
        Value::Str(s) => escape_cell_into(out, s),
        Value::Date(d) => {
            let _ = write!(out, "{d}");
        }
    }
}

/// Rows encoded before the payload's size is extrapolated from them.
const SAMPLE_ROWS: usize = 64;

/// Encode a successful result table as a response payload.
pub fn encode_table(t: &Table) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    // Writes into a `Vec` cannot fail.
    let _ = writeln!(out, "OK {} {}", t.len(), t.schema().len());
    for (i, col) in t.schema().columns().iter().enumerate() {
        if i > 0 {
            out.push(b'\t');
        }
        escape_cell_into(&mut out, &col.name);
    }
    out.push(b'\n');
    let body = out.len();
    let mut headroom = 0;
    for (r, row) in t.rows().iter().enumerate() {
        // Past the sample, the buffer is sized for the rows left at the
        // mean row so far, plus an eighth, and re-sized only if they run
        // longer: a doubling would leave up to half of it unused.
        if r == SAMPLE_ROWS || (r > SAMPLE_ROWS && out.capacity() - out.len() < headroom) {
            let mean = (out.len() - body) / r + 1;
            let rest = (t.len() - r) * mean;
            out.reserve_exact(rest + rest / 8);
            headroom = 2 * mean;
        }
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(b'\t');
            }
            write_cell(&mut out, v);
        }
        out.push(b'\n');
    }
    out
}

/// The wire error code for a [`SqlError`] plus its retry-after hint.
pub fn error_code(e: &SqlError) -> (&'static str, u64) {
    match e {
        SqlError::Cube(datacube::CubeError::ResourceExhausted {
            resource: datacube::Resource::AdmissionQueue { retry_hint_ms },
            ..
        }) => ("RESOURCE_EXHAUSTED", u64::from(*retry_hint_ms)),
        SqlError::Cube(datacube::CubeError::ResourceExhausted { .. }) => ("RESOURCE_EXHAUSTED", 0),
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
            let mut count = |what: &str| {
                let n = parts.next().and_then(|s| s.parse::<usize>().ok());
                n.ok_or_else(|| bad(&format!("missing or malformed {what} count")))
            };
            let (rows, cols) = (count("row")?, count("column")?);
            decode_table(body, rows, cols)
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
        _ => Err(bad("unknown status word")),
    }
}

/// The body of an `OK` frame, in one pass over its bytes. Every line
/// holds `cols` cells (a zero-column line is empty); one that does not is
/// an error naming its cell count.
fn decode_table(body: &str, rows: usize, cols: usize) -> io::Result<Response> {
    let ragged = |what: &str, got: usize| {
        let why = format!("bad response: {what} has {got} cells, not {cols}");
        io::Error::new(io::ErrorKind::InvalidData, why)
    };
    // Rows end in `\n` alone: a `\r` before one is cell text, not line
    // structure.
    let body = body.strip_suffix('\n').unwrap_or(body);
    // A line holds at most one cell per byte, plus one: the counts in the
    // head cannot size an allocation past what the body can fill.
    let width = cols.min(body.len() + 1);
    let mut at = 0;
    let (columns, mut last) = decode_line(body, &mut at, cols, width);
    if columns.len() != cols {
        return Err(ragged("the header", columns.len()));
    }
    let mut out_rows = Vec::with_capacity(rows.min(body.len() + 1));
    while !last {
        let (cells, end) = decode_line(body, &mut at, cols, width);
        if cells.len() != cols {
            return Err(ragged(&format!("row {}", out_rows.len()), cells.len()));
        }
        out_rows.push(cells);
        last = end;
    }
    if out_rows.len() != rows {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad response: row count mismatch",
        ));
    }
    Ok(Response::Table {
        columns,
        rows: out_rows,
    })
}

/// The cells of the line starting at `*at`, which moves past it, and
/// whether it is the body's last line. A `\t` or a `\n` ends a cell, and
/// a cell is one copy of its text unless the walk saw a `\` in it.
fn decode_line(body: &str, at: &mut usize, cols: usize, width: usize) -> (Vec<String>, bool) {
    let bytes = body.as_bytes();
    let line = *at;
    let mut cells = Vec::with_capacity(width);
    let (mut cell, mut escaped) = (line, false);
    loop {
        let pos = *at;
        let b = bytes.get(pos).copied();
        *at += 1;
        match b {
            Some(b'\\') => escaped = true,
            Some(b'\t' | b'\n') | None => {
                // An empty line of a zero-column table holds no cell.
                if cols > 0 || pos > line || b == Some(b'\t') {
                    let text = &body[cell..pos];
                    cells.push(match escaped {
                        true => unescape_cell(text),
                        false => text.to_owned(),
                    });
                }
                if b != Some(b'\t') {
                    return (cells, b.is_none());
                }
                (cell, escaped) = (*at, false);
            }
            Some(_) => {}
        }
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

    fn bad_response(payload: &[u8]) -> String {
        let err = decode_response(payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn ragged_rows_and_bad_column_counts_are_invalid_data() {
        assert_eq!(
            bad_response(b"OK 2 2\na\tb\n1\t2\n3\n"),
            "bad response: row 1 has 1 cells, not 2"
        );
        assert_eq!(
            bad_response(b"OK 1 2\na\tb\n1\t2\t3\n"),
            "bad response: row 0 has 3 cells, not 2"
        );
        assert_eq!(
            bad_response(b"OK 0 3\na\tb\n"),
            "bad response: the header has 2 cells, not 3"
        );
        for head in ["OK 1", "OK 1 x", "OK 1 -2"] {
            let payload = format!("{head}\na\n1\n");
            assert_eq!(
                bad_response(payload.as_bytes()),
                "bad response: missing or malformed column count",
                "{head}"
            );
        }
    }

    /// A row or column count in the head is the peer's claim: it bounds
    /// no allocation past what the body can fill, so an absurd one is an
    /// error, not a capacity overflow.
    #[test]
    fn absurd_counts_in_the_head_are_invalid_data() {
        assert_eq!(
            bad_response(format!("OK {} 1\na\n1\n", usize::MAX).as_bytes()),
            "bad response: row count mismatch"
        );
        assert_eq!(
            bad_response(format!("OK 1 {}\na\n1\n", usize::MAX).as_bytes()),
            format!("bad response: the header has 1 cells, not {}", usize::MAX)
        );
    }

    #[test]
    fn a_zero_column_table_round_trips() {
        let t =
            dc_relation::Table::new(Schema::new(vec![]).unwrap(), vec![Row::new(vec![])]).unwrap();
        let payload = encode_table(&t);
        assert_eq!(payload, b"OK 1 0\n\n\n");
        assert_eq!(
            decode_response(&payload).unwrap(),
            Response::Table {
                columns: vec![],
                rows: vec![vec![]],
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
        let e = SqlError::Cube(datacube::CubeError::ResourceExhausted {
            resource: datacube::Resource::AdmissionQueue { retry_hint_ms: 75 },
            limit: 4,
            observed: 5,
            stats: datacube::ExecStats::default(),
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
            other => panic!("expected error, got {other:?}"),
        }

        let parse = SqlError::Plan("nope".into());
        assert_eq!(error_code(&parse), ("PLAN", 0));
    }

    /// Each shedder's hint reaches the wire: a full admission queue sizes
    /// it to the work ahead, the connection cap says 50 ms, and a query
    /// over the whole cell budget gets 0 (retrying cannot help).
    #[test]
    fn every_shed_carries_its_own_retry_hint() {
        use crate::admission::{AdmissionController, QueryCost, ServiceConfig};
        let ctrl = AdmissionController::new(ServiceConfig {
            max_concurrent: 1,
            global_cells: 1_000,
            ..Default::default()
        });
        let cost = QueryCost::new(10, 1);
        let _held = ctrl.admit(&cost, None, None).unwrap();
        let shed = |cost| SqlError::Cube(ctrl.admit(&cost, None, None).unwrap_err());

        let (code, queue_hint) = error_code(&shed(cost));
        assert_eq!(code, "RESOURCE_EXHAUSTED");
        assert!(queue_hint > 0, "a queue shed carries a hint");
        let cap = crate::server::connection_cap_error(4);
        assert_eq!(error_code(&cap), ("RESOURCE_EXHAUSTED", 50));
        let over = shed(QueryCost::new(1_000_000, 1));
        assert!(
            matches!(
                over,
                SqlError::Cube(datacube::CubeError::ResourceExhausted {
                    resource: datacube::Resource::Cells,
                    ..
                })
            ),
            "{over:?}"
        );
        assert_eq!(error_code(&over), ("RESOURCE_EXHAUSTED", 0));
    }
}
