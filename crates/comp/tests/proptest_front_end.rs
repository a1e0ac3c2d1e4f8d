//! Property tests over the language front-end:
//!
//! * pretty-printing any generated expression re-parses to the same AST;
//! * desugaring (rules 4–7) preserves semantics for generated group-by-free
//!   comprehensions;
//! * normalization preserves semantics for generated comprehensions with
//!   guards/lets over a fixed matrix environment;
//! * tuple-let splitting and copy propagation preserve semantics, including
//!   patterns that rebind the generator variables.

use comp::ast::{BinOp, Comprehension, Expr, Pattern, Qualifier};
use comp::desugar::{desugar, eval_core};
use comp::eval::{eval_comprehension, Env};
use comp::normalize::normalize;
use comp::parser::parse_expr;
use comp::Value;
use proptest::prelude::*;

/// Generate arithmetic/boolean expressions over variables `x` and `y`.
fn arb_scalar_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::Int),
        Just(Expr::Var("x".into())),
        Just(Expr::Var("y".into())),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_arith_op())
                .prop_map(|(a, b, op)| { Expr::BinOp(op, Box::new(a), Box::new(b)) }),
            inner.clone().prop_map(|e| match e {
                // Mirror the parser's literal folding so the roundtrip is
                // exact.
                Expr::Int(n) => Expr::Int(-n),
                other => Expr::UnOp(comp::ast::UnOp::Neg, Box::new(other)),
            }),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Tuple(vec![a, b])),
        ]
    })
}

fn arb_arith_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Eq),
    ]
}

/// Generate small group-by-free comprehensions over ranges.
fn arb_comprehension() -> impl Strategy<Value = Comprehension> {
    (
        1i64..6,
        1i64..6,
        arb_scalar_expr(),
        proptest::option::of(-10i64..10),
    )
        .prop_map(|(n, m, head, guard)| {
            let mut qualifiers = vec![
                Qualifier::Generator(
                    Pattern::Var("x".into()),
                    Expr::Range {
                        lo: Box::new(Expr::Int(0)),
                        hi: Box::new(Expr::Int(n)),
                        inclusive: false,
                    },
                ),
                Qualifier::Generator(
                    Pattern::Var("y".into()),
                    Expr::Range {
                        lo: Box::new(Expr::Int(0)),
                        hi: Box::new(Expr::Int(m)),
                        inclusive: false,
                    },
                ),
                Qualifier::Let(
                    Pattern::Var("z".into()),
                    Expr::BinOp(
                        BinOp::Add,
                        Box::new(Expr::Var("x".into())),
                        Box::new(Expr::Var("y".into())),
                    ),
                ),
            ];
            if let Some(g) = guard {
                qualifiers.push(Qualifier::Guard(Expr::BinOp(
                    BinOp::Ge,
                    Box::new(Expr::Var("z".into())),
                    Box::new(Expr::Int(g)),
                )));
            }
            Comprehension {
                head: Box::new(head),
                qualifiers,
            }
        })
}

/// `[ (h, n1, n2, n3, c) | x <- 0 until n, y <- 0 until m,
///    let ((n1, n2), n3) = ((e1, e2), e3), let c = n1 ]` with the pattern
/// names drawn from `x`, `y`, `p`, `q`: rebinding `x` or `y` makes later
/// components depend on earlier ones, which must block the split.
fn arb_tuple_let_comprehension() -> impl Strategy<Value = Comprehension> {
    const NAMES: [&str; 4] = ["x", "y", "p", "q"];
    let name = || (0usize..4).prop_map(|k| NAMES[k]);
    (
        (1i64..5, 1i64..5),
        (arb_scalar_expr(), arb_scalar_expr(), arb_scalar_expr()),
        (name(), name(), name()),
        arb_scalar_expr(),
    )
        .prop_map(|((n, m), (e1, e2, e3), (n1, n2, n3), head)| {
            let range = |hi| Expr::Range {
                lo: Box::new(Expr::Int(0)),
                hi: Box::new(Expr::Int(hi)),
                inclusive: false,
            };
            let var = |v: &str| Expr::Var(v.into());
            let pvar = |v: &str| Pattern::Var(v.into());
            Comprehension {
                head: Box::new(Expr::Tuple(vec![head, var(n1), var(n2), var(n3), var("c")])),
                qualifiers: vec![
                    Qualifier::Generator(pvar("x"), range(n)),
                    Qualifier::Generator(pvar("y"), range(m)),
                    Qualifier::Let(
                        Pattern::Tuple(vec![Pattern::Tuple(vec![pvar(n1), pvar(n2)]), pvar(n3)]),
                        Expr::Tuple(vec![Expr::Tuple(vec![e1, e2]), e3]),
                    ),
                    Qualifier::Let(pvar("c"), var(n1)),
                ],
            }
        })
}

/// Comparisons can yield booleans inside arithmetic; evaluation may fail on
/// ill-typed combinations — both sides must then fail identically.
fn eval_both(
    c: &Comprehension,
) -> (
    Result<Vec<Value>, comp::CompError>,
    Result<Vec<Value>, comp::CompError>,
) {
    let direct = eval_comprehension(c, &mut Env::new());
    let core = desugar(c).expect("group-by-free");
    let via_core = eval_core(&core, &mut Env::new());
    (direct, via_core)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pretty_print_reparses(e in arb_scalar_expr()) {
        let printed = format!("{e}");
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to re-parse: {err}"));
        prop_assert_eq!(e, reparsed, "printed form was `{}`", printed);
    }

    #[test]
    fn desugaring_agrees_with_direct_semantics(c in arb_comprehension()) {
        let (direct, via_core) = eval_both(&c);
        match (direct, via_core) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergence: direct={a:?} core={b:?}"),
        }
    }

    #[test]
    fn normalization_preserves_semantics(c in arb_comprehension()) {
        let original = Expr::Comprehension(c);
        let normalized = normalize(original.clone());
        let a = comp::eval(&original, &mut Env::new());
        let b = comp::eval(&normalized, &mut Env::new());
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergence: original={a:?} normalized={b:?}"),
        }
    }

    #[test]
    fn tuple_let_splitting_preserves_semantics(c in arb_tuple_let_comprehension()) {
        let original = Expr::Comprehension(c);
        let normalized = normalize(original.clone());
        let a = comp::eval(&original, &mut Env::new());
        let b = comp::eval(&normalized, &mut Env::new());
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergence: original={a:?} normalized={b:?}"),
        }
    }

    #[test]
    fn reductions_match_iterator_folds(xs in proptest::collection::vec(-50i64..50, 0..40)) {
        let list = Value::List(xs.iter().map(|&x| Value::Int(x)).collect());
        let mut env = Env::new();
        env.bind("L", list);
        let sum = comp::eval(&parse_expr("+/L").unwrap(), &mut env).unwrap();
        prop_assert_eq!(sum, Value::Int(xs.iter().sum()));
        if !xs.is_empty() {
            let mx = comp::eval(&parse_expr("max/L").unwrap(), &mut env).unwrap();
            prop_assert_eq!(mx, Value::Int(*xs.iter().max().unwrap()));
            let mn = comp::eval(&parse_expr("min/L").unwrap(), &mut env).unwrap();
            prop_assert_eq!(mn, Value::Int(*xs.iter().min().unwrap()));
        }
    }
}
