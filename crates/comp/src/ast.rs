//! Abstract syntax of the comprehension language (paper Fig. 2).

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Short operator tag, used in fused-region op sequences.
    pub fn tag(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// The reduction monoids `⊕` of `⊕/e` (§2). Each has an identity element
/// `1⊕` and an associative, commutative combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Monoid {
    /// `+/` — sum, identity 0.
    Sum,
    /// `*/` — product, identity 1.
    Product,
    /// `&&/` — conjunction, identity true.
    And,
    /// `||/` — disjunction, identity false.
    Or,
    /// `max/` — maximum, identity -inf.
    Max,
    /// `min/` — minimum, identity +inf.
    Min,
    /// `++/` — list concatenation, identity [] (the implicit monoid of bare
    /// lifted variables, §3).
    Concat,
}

impl Monoid {
    /// Surface syntax of the monoid.
    pub fn symbol(self) -> &'static str {
        match self {
            Monoid::Sum => "+",
            Monoid::Product => "*",
            Monoid::And => "&&",
            Monoid::Or => "||",
            Monoid::Max => "max",
            Monoid::Min => "min",
            Monoid::Concat => "++",
        }
    }
}

/// Patterns bind components of generated elements (Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// A pattern variable.
    Var(String),
    /// A tuple of sub-patterns.
    Tuple(Vec<Pattern>),
    /// `_` — matches anything, binds nothing.
    Wildcard,
}

impl Pattern {
    /// All variables bound by this pattern, left to right.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Pattern::Var(v) => out.push(v.clone()),
            Pattern::Tuple(ps) => ps.iter().for_each(|p| p.collect_vars(out)),
            Pattern::Wildcard => {}
        }
    }

    /// The pattern read back as an expression (used to evaluate group-by
    /// keys, whose pattern variables are already bound).
    pub fn to_expr(&self) -> Expr {
        match self {
            Pattern::Var(v) => Expr::Var(v.clone()),
            Pattern::Tuple(ps) => Expr::Tuple(ps.iter().map(Pattern::to_expr).collect()),
            Pattern::Wildcard => {
                panic!("wildcard pattern cannot be read back as an expression")
            }
        }
    }
}

/// Comprehension qualifiers (Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Qualifier {
    /// `p <- e` — traverse collection `e`, binding `p` to each element.
    Generator(Pattern, Expr),
    /// `let p = e`.
    Let(Pattern, Expr),
    /// A boolean filter.
    Guard(Expr),
    /// `group by p` (key pattern of already-bound variables) or
    /// `group by p : e` (bind `p` to `e`, then group — the sugar of §3).
    GroupBy(Pattern, Option<Expr>),
}

/// `[ head | qualifiers ]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comprehension {
    pub head: Box<Expr>,
    pub qualifiers: Vec<Qualifier>,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
    Var(String),
    Tuple(Vec<Expr>),
    Comprehension(Comprehension),
    /// `⊕/e` — reduce a collection with a monoid.
    Reduce(Monoid, Box<Expr>),
    BinOp(BinOp, Box<Expr>, Box<Expr>),
    UnOp(UnOp, Box<Expr>),
    /// `v[e1, ..., en]` — abstract array indexing; removed by normalization.
    Index(Box<Expr>, Vec<Expr>),
    /// `f(e1, ..., en)` — builtin function call.
    Call(String, Vec<Expr>),
    /// `e.field` — currently `length` on lists.
    Field(Box<Expr>, String),
    /// `e1 until e2` (exclusive) / `e1 to e2` (inclusive) index ranges.
    Range {
        lo: Box<Expr>,
        hi: Box<Expr>,
        inclusive: bool,
    },
    /// `if (c) e1 else e2`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `builder(args)[ e | q ]` — apply an array builder to a comprehension
    /// (e.g. `matrix(n,m)[...]`, `tiled(n,m)[...]`, `vector(n)[...]`,
    /// `rdd[...]`, `set[...]`, `array(n)[...]`).
    Build {
        builder: String,
        args: Vec<Expr>,
        body: Box<Expr>,
    },
}

impl Expr {
    /// True if `pred` holds for this expression or any expression nested
    /// in it, qualifier expressions included.
    pub fn any_subexpr(&self, pred: &mut dyn FnMut(&Expr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => false,
            Expr::Tuple(es) | Expr::Call(_, es) => es.iter().any(|e| e.any_subexpr(pred)),
            Expr::Reduce(_, e) | Expr::UnOp(_, e) | Expr::Field(e, _) => e.any_subexpr(pred),
            Expr::BinOp(_, a, b) | Expr::Range { lo: a, hi: b, .. } => {
                a.any_subexpr(pred) || b.any_subexpr(pred)
            }
            Expr::Index(e, idx) => e.any_subexpr(pred) || idx.iter().any(|i| i.any_subexpr(pred)),
            Expr::If(c, t, e) => c.any_subexpr(pred) || t.any_subexpr(pred) || e.any_subexpr(pred),
            Expr::Build { args, body, .. } => {
                args.iter().any(|a| a.any_subexpr(pred)) || body.any_subexpr(pred)
            }
            Expr::Comprehension(c) => {
                c.qualifiers.iter().any(|q| match q {
                    Qualifier::Generator(_, e) | Qualifier::Let(_, e) | Qualifier::Guard(e) => {
                        e.any_subexpr(pred)
                    }
                    Qualifier::GroupBy(_, k) => k.as_ref().is_some_and(|k| k.any_subexpr(pred)),
                }) || c.head.any_subexpr(pred)
            }
        }
    }

    /// Free variables of the expression.
    pub fn free_vars(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut Vec<String>, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) => {}
            Expr::Var(v) => {
                if !bound.contains(v) {
                    out.insert(v.clone());
                }
            }
            Expr::Tuple(es) | Expr::Call(_, es) => {
                es.iter().for_each(|e| e.collect_free(bound, out))
            }
            Expr::Reduce(_, e) | Expr::UnOp(_, e) | Expr::Field(e, _) => e.collect_free(bound, out),
            Expr::BinOp(_, a, b) => {
                a.collect_free(bound, out);
                b.collect_free(bound, out);
            }
            Expr::Index(e, idx) => {
                e.collect_free(bound, out);
                idx.iter().for_each(|i| i.collect_free(bound, out));
            }
            Expr::Range { lo, hi, .. } => {
                lo.collect_free(bound, out);
                hi.collect_free(bound, out);
            }
            Expr::If(c, t, e) => {
                c.collect_free(bound, out);
                t.collect_free(bound, out);
                e.collect_free(bound, out);
            }
            Expr::Build { args, body, .. } => {
                args.iter().for_each(|a| a.collect_free(bound, out));
                body.collect_free(bound, out);
            }
            Expr::Comprehension(c) => {
                let depth = bound.len();
                for q in &c.qualifiers {
                    match q {
                        Qualifier::Generator(p, e) => {
                            e.collect_free(bound, out);
                            bound.extend(p.vars());
                        }
                        Qualifier::Let(p, e) => {
                            e.collect_free(bound, out);
                            bound.extend(p.vars());
                        }
                        Qualifier::Guard(e) => e.collect_free(bound, out),
                        Qualifier::GroupBy(p, key) => {
                            if let Some(k) = key {
                                k.collect_free(bound, out);
                            }
                            bound.extend(p.vars());
                        }
                    }
                }
                c.head.collect_free(bound, out);
                bound.truncate(depth);
            }
        }
    }
}

impl Expr {
    /// Post-order sequence of scalar operator tags for an elementwise head
    /// expression — the trace the planner's fuse pass follows when it
    /// collapses a normalized comprehension region into one fused program.
    /// Literals tag as `const`, variables as `load`; structure-level forms
    /// (comprehensions, builders, generators) tag as `expr` and break
    /// fusion upstream.
    pub fn op_sequence(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        self.collect_ops(&mut out);
        out
    }

    fn collect_ops(&self, out: &mut Vec<&'static str>) {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) => out.push("const"),
            Expr::Var(_) => out.push("load"),
            Expr::BinOp(op, a, b) => {
                a.collect_ops(out);
                b.collect_ops(out);
                out.push(op.tag());
            }
            Expr::UnOp(UnOp::Neg, e) => {
                e.collect_ops(out);
                out.push("neg");
            }
            Expr::UnOp(UnOp::Not, e) => {
                e.collect_ops(out);
                out.push("not");
            }
            Expr::If(c, t, e) => {
                c.collect_ops(out);
                t.collect_ops(out);
                e.collect_ops(out);
                out.push("select");
            }
            Expr::Call(f, args) => {
                args.iter().for_each(|a| a.collect_ops(out));
                match f.as_str() {
                    "abs" => out.push("abs"),
                    "sqrt" => out.push("sqrt"),
                    _ => out.push("call"),
                }
            }
            _ => out.push("expr"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_vars_in_order() {
        let p = Pattern::Tuple(vec![
            Pattern::Tuple(vec![Pattern::Var("i".into()), Pattern::Var("j".into())]),
            Pattern::Var("m".into()),
            Pattern::Wildcard,
        ]);
        assert_eq!(p.vars(), vec!["i", "j", "m"]);
    }

    #[test]
    fn pattern_to_expr_roundtrip() {
        let p = Pattern::Tuple(vec![Pattern::Var("i".into()), Pattern::Var("j".into())]);
        assert_eq!(
            p.to_expr(),
            Expr::Tuple(vec![Expr::Var("i".into()), Expr::Var("j".into())])
        );
    }

    #[test]
    fn free_vars_respects_comprehension_binding() {
        // [ (i, m + x) | ((i,j),m) <- M ] — free: M, x
        let comp = Expr::Comprehension(Comprehension {
            head: Box::new(Expr::Tuple(vec![
                Expr::Var("i".into()),
                Expr::BinOp(
                    BinOp::Add,
                    Box::new(Expr::Var("m".into())),
                    Box::new(Expr::Var("x".into())),
                ),
            ])),
            qualifiers: vec![Qualifier::Generator(
                Pattern::Tuple(vec![
                    Pattern::Tuple(vec![Pattern::Var("i".into()), Pattern::Var("j".into())]),
                    Pattern::Var("m".into()),
                ]),
                Expr::Var("M".into()),
            )],
        });
        let fv = comp.free_vars();
        assert!(fv.contains("M"));
        assert!(fv.contains("x"));
        assert!(!fv.contains("i"));
        assert!(!fv.contains("m"));
    }

    #[test]
    fn monoid_symbols() {
        assert_eq!(Monoid::Sum.symbol(), "+");
        assert_eq!(Monoid::And.symbol(), "&&");
    }

    #[test]
    fn op_sequence_is_postorder() {
        // a + b * 0.5  →  load; load; const; mul; add
        let e = Expr::BinOp(
            BinOp::Add,
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::BinOp(
                BinOp::Mul,
                Box::new(Expr::Var("b".into())),
                Box::new(Expr::Float(0.5)),
            )),
        );
        assert_eq!(e.op_sequence(), vec!["load", "load", "const", "mul", "add"]);
        // if (a > 0) abs(a) else -b  →  load; const; gt; load; abs; load; neg; select
        let guarded = Expr::If(
            Box::new(Expr::BinOp(
                BinOp::Gt,
                Box::new(Expr::Var("a".into())),
                Box::new(Expr::Int(0)),
            )),
            Box::new(Expr::Call("abs".into(), vec![Expr::Var("a".into())])),
            Box::new(Expr::UnOp(UnOp::Neg, Box::new(Expr::Var("b".into())))),
        );
        assert_eq!(
            guarded.op_sequence(),
            vec!["load", "const", "gt", "load", "abs", "load", "neg", "select"]
        );
    }
}
