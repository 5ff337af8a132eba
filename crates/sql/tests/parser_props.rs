//! Parser property tests: the canonical text of any expression reparses
//! to an equivalent expression (a render/parse fixpoint), and random
//! garbage never panics the parser.

use dc_relation::Value;
use dc_sql::ast::{BinOp, Expr, Statement};
use dc_sql::parser::parse;
use proptest::prelude::*;

/// Random well-formed expressions over a small vocabulary. An operator
/// run is a chain of 1–4 links of any operators, its operands chains too.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        "[a-c]".prop_map(|s| Expr::Column {
            qualifier: None,
            name: s
        }),
        (0i64..1000).prop_map(|i| Expr::Literal(Value::Int(i))),
        (1i64..100).prop_map(|i| Expr::Literal(Value::Float(i as f64 + 0.5))),
        "[a-z]{0,5}".prop_map(|s| Expr::Literal(Value::str(s))),
        Just(Expr::Literal(Value::Null)),
        Just(Expr::Literal(Value::Bool(true))),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (
                inner.clone(),
                proptest::collection::vec((arb_binop(), inner.clone()), 1..5)
            )
                .prop_map(|(first, rest)| Expr::Chain {
                    first: Box::new(first),
                    rest,
                }),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (inner.clone(), any::<bool>()).prop_map(|(e, n)| Expr::IsNull {
                expr: Box::new(e),
                negated: n,
            }),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, n)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated: n,
                }
            ),
            (
                inner.clone(),
                proptest::collection::vec(inner.clone(), 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, n)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated: n,
                }),
            (
                prop_oneof![Just("SUM"), Just("AVG"), Just("MYFN")],
                inner.clone()
            )
                .prop_map(|(name, arg)| Expr::Func {
                    name: name.to_string(),
                    distinct: false,
                    args: vec![arg],
                }),
            inner.prop_map(|e| Expr::Grouping(Box::new(e))),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Or),
        Just(BinOp::And),
        Just(BinOp::Eq),
        Just(BinOp::Neq),
        Just(BinOp::Lt),
        Just(BinOp::Lte),
        Just(BinOp::Gt),
        Just(BinOp::Gte),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// canonical(parse(canonical(e))) == canonical(e): rendering is a
    /// fixpoint, so canonical text is a faithful expression identity —
    /// which the engine's substitution maps depend on.
    #[test]
    fn canonical_reparse_fixpoint(e in arb_expr()) {
        let text = e.canonical();
        let sql = format!("SELECT {text} FROM t");
        let parsed = parse(&sql);
        prop_assert!(parsed.is_ok(), "canonical text failed to parse: {text}\n{parsed:?}");
        let Ok(Statement::Select(stmt)) = parsed else { unreachable!() };
        prop_assert_eq!(stmt.items.len(), 1);
        let reparsed = stmt.items[0].expr.canonical();
        prop_assert_eq!(reparsed, text);
    }

    /// The lexer+parser never panic on arbitrary input; they return
    /// errors.
    #[test]
    fn parser_never_panics(garbage in "[ -~]{0,80}") {
        let _ = parse(&garbage);
        let _ = parse(&format!("SELECT {garbage} FROM t"));
    }

    /// Keyword case and surrounding whitespace never change the parse.
    #[test]
    fn whitespace_and_case_insensitive(extra_ws in "[ \t\n]{0,5}") {
        let a = parse(&format!("SELECT a,{extra_ws}SUM(b) FROM t GROUP BY CUBE a")).unwrap();
        let b = parse("select a, sum(b) from t group by cube a").unwrap();
        let (Statement::Select(sa), Statement::Select(sb)) = (a, b) else {
            unreachable!("plain SELECTs parse as Select")
        };
        prop_assert_eq!(sa.items.len(), sb.items.len());
        prop_assert_eq!(
            sa.items[1].expr.canonical(),
            sb.items[1].expr.canonical()
        );
    }
}
