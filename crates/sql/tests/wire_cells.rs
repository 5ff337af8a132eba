//! A reply's cells on the wire: `encode_table` writes each cell's
//! `Display` text, escaped, byte for byte; `decode_response` gives that
//! text back; and a large reply served over loopback decodes to exactly
//! the table `Session::execute` returned.

use dc_relation::{DataType, Date, Row, Schema, Table, Value};
use dc_sql::wire::{self, Response};
use dc_sql::{serve, Engine, ServerConfig};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;

/// The escaped text of one cell, written through `Display`: the encoder
/// the wire had before it printed digits itself, kept as the reference.
fn escaped(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out
}

fn reference_encoding(t: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    writeln!(out, "OK {} {}", t.len(), t.schema().len()).unwrap();
    let names: Vec<String> = t
        .schema()
        .columns()
        .iter()
        .map(|c| escaped(&c.name))
        .collect();
    writeln!(out, "{}", names.join("\t")).unwrap();
    for row in t.rows() {
        let cells: Vec<String> = row.iter().map(|v| escaped(&v.to_string())).collect();
        writeln!(out, "{}", cells.join("\t")).unwrap();
    }
    out
}

/// Text with every character the escapes exist for.
const AWKWARD: &str = "[ab\t\n\r\\\\é ]{0,6}";

fn arb_value() -> impl Strategy<Value = Value> {
    let sign = |x: f64, neg: bool| if neg { -x } else { x };
    prop_oneof![
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        any::<i64>().prop_map(Value::Int),
        (-1000i64..1000).prop_map(Value::Int),
        // Every exponent, NaN and both infinities among them.
        any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
        // Integral floats on both sides of 1e15, where `Display` changes
        // form, and at it.
        (any::<i64>(), any::<bool>())
            .prop_map(move |(i, neg)| Value::Float(sign((i >> 11).abs() as f64, neg))),
        (0i64..4, any::<bool>()).prop_map(move |(k, neg)| Value::Float(sign(1e15 - k as f64, neg))),
        prop_oneof![
            Just(-0.0),
            Just(0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.5),
            Just(-2.5e-300),
            Just(f64::MAX),
            Just(f64::MIN_POSITIVE),
        ]
        .prop_map(Value::Float),
        Just(Value::Null),
        Just(Value::All),
        any::<bool>().prop_map(Value::Bool),
        AWKWARD.prop_map(Value::str),
        (1900i32..2100, 1u8..13, 1u8..29, 0u8..24, 0u8..60).prop_map(|(y, m, d, h, min)| {
            Value::Date(Date::new_at(y, m, d, h * (min % 2), min).unwrap())
        }),
    ]
}

/// A table of arbitrary cells, one to four columns wide: the encoder does
/// not read column types.
fn arb_table() -> impl Strategy<Value = Table> {
    let rows = collection::vec(collection::vec(arb_value(), 4), 0..12);
    (1usize..5, rows, any::<u8>()).prop_map(|(cols, rows, awkward)| {
        let names: Vec<String> = (0..cols)
            .map(|c| match awkward >> c & 1 {
                0 => format!("c{c}"),
                _ => format!("c\t{c}\\"),
            })
            .collect();
        let pairs: Vec<(&str, DataType)> = names.iter().map(|n| (&**n, DataType::Str)).collect();
        let rows = rows
            .into_iter()
            .map(|mut r| {
                r.truncate(cols);
                Row::new(r)
            })
            .collect();
        Table::from_validated_rows(Schema::from_pairs(&pairs), rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_table_writes_each_cells_display_text(t in arb_table()) {
        let (got, want) = (wire::encode_table(&t), reference_encoding(&t));
        prop_assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
    }

    #[test]
    fn decode_response_gives_each_cells_display_text_back(t in arb_table()) {
        let decoded = wire::decode_response(&wire::encode_table(&t)).unwrap();
        let columns = t.schema().columns().iter().map(|c| c.name.to_string()).collect();
        let rows = t
            .rows()
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        prop_assert_eq!(decoded, Response::Table { columns, rows });
    }
}

/// A 24 846-row CUBE reply of Int, Float, ALL and escaped Str cells: its
/// text over a real socket is the in-process table's `Display` text, cell
/// for cell.
#[test]
fn a_large_served_reply_decodes_to_the_executed_table() {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("j", DataType::Int),
        ("name", DataType::Str),
        ("x", DataType::Float),
    ]);
    let rows = (0..30_000i64)
        .map(|i| {
            let name = ["a\tb", "back\\slash", "plain", "cr\r", "é"][(i / 7 % 5) as usize];
            Row::new(vec![
                Value::Int(i % 100 - 50),
                Value::Int(i / 100 % 40),
                Value::str(name),
                Value::Float((i % 13) as f64 / 4.0 - 1.0),
            ])
        })
        .collect();
    let mut engine = Engine::new();
    engine
        .register_table("t", Table::new(schema, rows).unwrap())
        .unwrap();
    let sql = "SELECT k, j, name, SUM(x) AS s, AVG(x) AS a, COUNT(*) AS n, MIN(x) AS lo \
               FROM t GROUP BY CUBE k, j, name";
    let want = engine.session().execute(sql).unwrap();
    assert!(want.len() >= 10_000, "{} rows", want.len());

    let handle = serve(&engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = TcpStream::connect(handle.local_addr()).unwrap();
    let got = wire::request(&mut conn, sql).unwrap();
    handle.shutdown();
    let Response::Table { columns, rows } = got else {
        panic!("expected a table, got {got:?}");
    };
    let names: Vec<&str> = want.schema().columns().iter().map(|c| &*c.name).collect();
    assert_eq!(columns, names);
    assert_eq!(rows.len(), want.len());
    for (i, (got, want)) in rows.iter().zip(want.rows()).enumerate() {
        let want: Vec<String> = want.iter().map(Value::to_string).collect();
        assert_eq!(got, &want, "row {i}");
    }
}
