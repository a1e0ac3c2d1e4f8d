//! Source-to-source normalization rules from the paper.
//!
//! * **Rule (3)** — flatten nested comprehensions:
//!   `[e1 | q1, p <- [e2 | q3], q2] = [e1 | q1, q3', let p = e2', q2]`
//!   (with α-renaming of `q3`'s binders to prevent capture).
//! * **§2 array-indexing removal** — `V[e1,...,en]` inside a comprehension
//!   becomes a generator `((k1,...,kn), k0) <- V` plus guards `k1 == e1, ...`,
//!   with the index expression replaced by `k0`.
//! * **§2 index-range fusion** — a guard `v == e` where `v` is bound by an
//!   integer-range generator is replaced by `let v = e` plus the range's
//!   bound checks, fusing two index loops into one.
//! * **Rule (15)** — group-by elimination when the group-by key is provably
//!   unique (the key pattern is exactly the key of a single association-list
//!   generator): groups are singletons, so `⊕/v` collapses to `v`.
//! * **Tuple-let splitting** — `let (p1,...,pn) = (e1,...,en)` becomes
//!   `let p1 = e1, ..., let pn = en` when no `pk` binds a variable free in a
//!   later `el`. Rule (3) leaves such lets behind when it inlines a
//!   generator with a tuple pattern.
//! * **Copy propagation** — `let v = w` over a plain variable is dropped and
//!   later uses of `v` read `w`.
//!
//! Every rule is semantics-preserving; the property tests check each rewrite
//! against the reference evaluator on random inputs.

use crate::ast::*;
use std::collections::BTreeSet;

/// Apply all normalization rules to fixpoint, recursively.
pub fn normalize(expr: Expr) -> Expr {
    let mut e = expr;
    for _ in 0..16 {
        let next = normalize_once(e.clone());
        if next == e {
            return e;
        }
        e = next;
    }
    e
}

fn normalize_once(expr: Expr) -> Expr {
    let expr = map_subexprs(expr, &mut normalize_once);
    match expr {
        Expr::Comprehension(c) => {
            let c = flatten_nested(c);
            let c = split_tuple_lets(c);
            let c = propagate_copies(c);
            let c = lift_indexing(c);
            let c = fuse_ranges(c);
            let c = eliminate_injective_group_by(c);
            Expr::Comprehension(c)
        }
        other => other,
    }
}

/// Apply `f` to each direct sub-expression (not descending into the
/// comprehension rewrites themselves).
pub fn map_subexprs(e: Expr, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => e,
        Expr::Tuple(es) => Expr::Tuple(es.into_iter().map(&mut *f).collect()),
        Expr::Comprehension(c) => Expr::Comprehension(Comprehension {
            head: Box::new(f(*c.head)),
            qualifiers: c
                .qualifiers
                .into_iter()
                .map(|q| match q {
                    Qualifier::Generator(p, e) => Qualifier::Generator(p, f(e)),
                    Qualifier::Let(p, e) => Qualifier::Let(p, f(e)),
                    Qualifier::Guard(e) => Qualifier::Guard(f(e)),
                    Qualifier::GroupBy(p, k) => Qualifier::GroupBy(p, k.map(&mut *f)),
                })
                .collect(),
        }),
        Expr::Reduce(m, e) => Expr::Reduce(m, Box::new(f(*e))),
        Expr::BinOp(op, a, b) => Expr::BinOp(op, Box::new(f(*a)), Box::new(f(*b))),
        Expr::UnOp(op, a) => Expr::UnOp(op, Box::new(f(*a))),
        Expr::Index(b, idx) => Expr::Index(Box::new(f(*b)), idx.into_iter().map(&mut *f).collect()),
        Expr::Call(name, args) => Expr::Call(name, args.into_iter().map(&mut *f).collect()),
        Expr::Field(b, field) => Expr::Field(Box::new(f(*b)), field),
        Expr::Range { lo, hi, inclusive } => Expr::Range {
            lo: Box::new(f(*lo)),
            hi: Box::new(f(*hi)),
            inclusive,
        },
        Expr::If(c, t, e2) => Expr::If(Box::new(f(*c)), Box::new(f(*t)), Box::new(f(*e2))),
        Expr::Build {
            builder,
            args,
            body,
        } => Expr::Build {
            builder,
            args: args.into_iter().map(&mut *f).collect(),
            body: Box::new(f(*body)),
        },
    }
}

/// Rule (3): inline a generator whose source is itself a group-by-free
/// comprehension.
fn flatten_nested(c: Comprehension) -> Comprehension {
    let mut out: Vec<Qualifier> = Vec::new();
    let mut counter = 0usize;
    for q in c.qualifiers {
        match q {
            Qualifier::Generator(p, Expr::Comprehension(inner))
                if !inner
                    .qualifiers
                    .iter()
                    .any(|q| matches!(q, Qualifier::GroupBy(_, _))) =>
            {
                // α-rename the inner binders to fresh names.
                let inner = alpha_rename(inner, &mut counter);
                out.extend(inner.qualifiers);
                out.push(Qualifier::Let(p, *inner.head));
            }
            other => out.push(other),
        }
    }
    Comprehension {
        head: c.head,
        qualifiers: out,
    }
}

/// Tuple-let splitting: `let (p1,...,pn) = (e1,...,en)` becomes one `let`
/// per component, recursively. A tuple let evaluates every component before
/// binding any, so a split is only sound when no `pk` binds a variable free
/// in a later `el`; otherwise the let stays whole.
fn split_tuple_lets(c: Comprehension) -> Comprehension {
    fn split(p: Pattern, e: Expr, out: &mut Vec<Qualifier>) {
        match (p, e) {
            (Pattern::Tuple(ps), Expr::Tuple(es))
                if ps.len() == es.len() && components_independent(&ps, &es) =>
            {
                for (p, e) in ps.into_iter().zip(es) {
                    split(p, e, out);
                }
            }
            (p, e) => out.push(Qualifier::Let(p, e)),
        }
    }
    let mut qualifiers = Vec::with_capacity(c.qualifiers.len());
    for q in c.qualifiers {
        match q {
            Qualifier::Let(p, e) => split(p, e, &mut qualifiers),
            other => qualifiers.push(other),
        }
    }
    Comprehension {
        head: c.head,
        qualifiers,
    }
}

/// True if no pattern binds a variable free in a later expression.
fn components_independent(ps: &[Pattern], es: &[Expr]) -> bool {
    let mut bound: Vec<String> = Vec::new();
    for (p, e) in ps.iter().zip(es) {
        if e.free_vars().iter().any(|v| bound.contains(v)) {
            return false;
        }
        bound.extend(p.vars());
    }
    true
}

/// Copy propagation: drop each `let v = w` (a plain variable) and rename
/// later uses of `v` to `w`. A copy stays when a later qualifier rebinds `v`
/// or `w`, when a nested comprehension in the remainder binds either name
/// (the renaming is not binder-aware), and when a group-by follows (it would
/// lift `v` and `w` differently).
fn propagate_copies(c: Comprehension) -> Comprehension {
    let mut qualifiers = c.qualifiers;
    let mut head = *c.head;
    let mut pos = 0;
    while pos < qualifiers.len() {
        let Qualifier::Let(Pattern::Var(v), Expr::Var(w)) = &qualifiers[pos] else {
            pos += 1;
            continue;
        };
        let names = [v.as_str(), w.as_str()];
        let blocked = qualifiers[pos + 1..].iter().any(|q| match q {
            Qualifier::GroupBy(..) => true,
            Qualifier::Generator(p, e) | Qualifier::Let(p, e) => {
                p.vars().iter().any(|x| names.contains(&x.as_str())) || binds_any(e, &names)
            }
            Qualifier::Guard(e) => binds_any(e, &names),
        }) || binds_any(&head, &names);
        if blocked {
            pos += 1;
            continue;
        }
        let Qualifier::Let(Pattern::Var(v), Expr::Var(w)) = qualifiers.remove(pos) else {
            unreachable!()
        };
        let mapping = [(v, w)];
        let rest = qualifiers.split_off(pos).into_iter().map(|q| match q {
            Qualifier::Generator(p, e) => Qualifier::Generator(p, rename_vars(e, &mapping)),
            Qualifier::Let(p, e) => Qualifier::Let(p, rename_vars(e, &mapping)),
            Qualifier::Guard(e) => Qualifier::Guard(rename_vars(e, &mapping)),
            group_by => group_by,
        });
        qualifiers.extend(rest);
        head = rename_vars(head, &mapping);
    }
    Comprehension {
        head: Box::new(head),
        qualifiers,
    }
}

/// True if a comprehension inside `e` binds one of `names`.
fn binds_any(e: &Expr, names: &[&str]) -> bool {
    e.any_subexpr(&mut |x| {
        matches!(x, Expr::Comprehension(c) if c.qualifiers.iter().any(|q| match q {
            Qualifier::Generator(p, _) | Qualifier::Let(p, _) | Qualifier::GroupBy(p, _) => {
                p.vars().iter().any(|v| names.contains(&v.as_str()))
            }
            Qualifier::Guard(_) => false,
        }))
    })
}

/// Rename every variable bound inside `c` to a fresh `%rN` name.
fn alpha_rename(c: Comprehension, counter: &mut usize) -> Comprehension {
    let mut mapping: Vec<(String, String)> = Vec::new();
    let mut rename_pat = |p: &Pattern, mapping: &mut Vec<(String, String)>| -> Pattern {
        fn go(p: &Pattern, counter: &mut usize, mapping: &mut Vec<(String, String)>) -> Pattern {
            match p {
                Pattern::Wildcard => Pattern::Wildcard,
                Pattern::Var(v) => {
                    *counter += 1;
                    let fresh = format!("%r{counter}");
                    mapping.push((v.clone(), fresh.clone()));
                    Pattern::Var(fresh)
                }
                Pattern::Tuple(ps) => {
                    Pattern::Tuple(ps.iter().map(|p| go(p, counter, mapping)).collect())
                }
            }
        }
        go(p, counter, mapping)
    };
    let qualifiers: Vec<Qualifier> = c
        .qualifiers
        .into_iter()
        .map(|q| match q {
            Qualifier::Generator(p, e) => {
                let e = rename_vars(e, &mapping);
                Qualifier::Generator(rename_pat(&p, &mut mapping), e)
            }
            Qualifier::Let(p, e) => {
                let e = rename_vars(e, &mapping);
                Qualifier::Let(rename_pat(&p, &mut mapping), e)
            }
            Qualifier::Guard(e) => Qualifier::Guard(rename_vars(e, &mapping)),
            Qualifier::GroupBy(p, k) => {
                let k = k.map(|e| rename_vars(e, &mapping));
                Qualifier::GroupBy(rename_pat(&p, &mut mapping), k)
            }
        })
        .collect();
    let head = rename_vars(*c.head, &mapping);
    Comprehension {
        head: Box::new(head),
        qualifiers,
    }
}

fn rename_vars(e: Expr, mapping: &[(String, String)]) -> Expr {
    match e {
        Expr::Var(v) => {
            // Innermost (latest) mapping wins.
            match mapping.iter().rev().find(|(from, _)| *from == v) {
                Some((_, to)) => Expr::Var(to.clone()),
                None => Expr::Var(v),
            }
        }
        other => map_subexprs(other, &mut |x| rename_vars(x, mapping)),
    }
}

/// §2: replace array indexing `V[e...]` with a generator over `V` plus
/// equality guards. Applied to guard/let qualifiers and, when the
/// comprehension has no group-by, to the head.
fn lift_indexing(c: Comprehension) -> Comprehension {
    let has_group_by = c
        .qualifiers
        .iter()
        .any(|q| matches!(q, Qualifier::GroupBy(_, _)));
    let mut counter = 0usize;
    let mut added: Vec<Qualifier> = Vec::new();
    let mut qualifiers: Vec<Qualifier> = Vec::new();

    // Variables bound by generators in this comprehension: indexing into
    // those is not "array indexing into a stored array" — only free arrays
    // (registered storages) are lifted.
    let mut bound: BTreeSet<String> = BTreeSet::new();
    for q in &c.qualifiers {
        if let Qualifier::Generator(p, _) | Qualifier::Let(p, _) = q {
            bound.extend(p.vars());
        }
    }

    for q in c.qualifiers {
        let q = match q {
            Qualifier::Guard(e) => {
                Qualifier::Guard(extract_indexing(e, &bound, &mut counter, &mut added))
            }
            Qualifier::Let(p, e) => {
                Qualifier::Let(p, extract_indexing(e, &bound, &mut counter, &mut added))
            }
            other => other,
        };
        qualifiers.push(q);
    }
    let head = if has_group_by {
        *c.head
    } else {
        extract_indexing(*c.head, &bound, &mut counter, &mut added)
    };
    // New generators and guards go before any group-by.
    let gpos = qualifiers
        .iter()
        .position(|q| matches!(q, Qualifier::GroupBy(_, _)))
        .unwrap_or(qualifiers.len());
    for (off, q) in added.into_iter().enumerate() {
        qualifiers.insert(gpos + off, q);
    }
    Comprehension {
        head: Box::new(head),
        qualifiers,
    }
}

fn extract_indexing(
    e: Expr,
    bound: &BTreeSet<String>,
    counter: &mut usize,
    added: &mut Vec<Qualifier>,
) -> Expr {
    match e {
        Expr::Index(base, idx) => {
            let idx: Vec<Expr> = idx
                .into_iter()
                .map(|i| extract_indexing(i, bound, counter, added))
                .collect();
            match *base {
                Expr::Var(v) if !bound.contains(&v) => {
                    *counter += 1;
                    let kv = format!("%x{counter}");
                    let key_vars: Vec<String> =
                        (0..idx.len()).map(|d| format!("%i{counter}_{d}")).collect();
                    let key_pat = if key_vars.len() == 1 {
                        Pattern::Var(key_vars[0].clone())
                    } else {
                        Pattern::Tuple(key_vars.iter().cloned().map(Pattern::Var).collect())
                    };
                    added.push(Qualifier::Generator(
                        Pattern::Tuple(vec![key_pat, Pattern::Var(kv.clone())]),
                        Expr::Var(v),
                    ));
                    for (kvar, ie) in key_vars.iter().zip(idx) {
                        added.push(Qualifier::Guard(Expr::BinOp(
                            BinOp::Eq,
                            Box::new(Expr::Var(kvar.clone())),
                            Box::new(ie),
                        )));
                    }
                    Expr::Var(kv)
                }
                other => Expr::Index(Box::new(other), idx),
            }
        }
        // Do not descend into nested comprehensions (their own pass handles
        // them).
        Expr::Comprehension(_) => e,
        other => map_subexprs(other, &mut |x| extract_indexing(x, bound, counter, added)),
    }
}

/// §2: fuse an integer-range generator with an equality guard on its
/// variable: `v <- lo until hi, ..., v == e` becomes
/// `let v = e, lo <= v, v < hi` when `e` does not depend on `v`.
fn fuse_ranges(c: Comprehension) -> Comprehension {
    // Find a guard `a == b` where one side is a var bound by a Range
    // generator and the other side's free vars are all bound before that
    // generator.
    let quals = &c.qualifiers;
    for (gi, guard) in quals.iter().enumerate() {
        let Qualifier::Guard(Expr::BinOp(BinOp::Eq, lhs, rhs)) = guard else {
            continue;
        };
        for (var, other) in [(lhs, rhs), (rhs, lhs)] {
            let Expr::Var(v) = var.as_ref() else { continue };
            // Locate the generator binding `v` to a range.
            let Some(pos) = quals[..gi].iter().position(|q|

                matches!(q, Qualifier::Generator(Pattern::Var(pv), Expr::Range { .. }) if pv == v))
            else {
                continue;
            };
            // `other` must be fully bound before the range generator.
            let bound_before: BTreeSet<String> = quals[..pos]
                .iter()
                .flat_map(|q| match q {
                    Qualifier::Generator(p, _) | Qualifier::Let(p, _) => p.vars(),
                    _ => Vec::new(),
                })
                .collect();
            if !other.free_vars().iter().all(|fv| bound_before.contains(fv)) {
                continue;
            }
            let Qualifier::Generator(_, Expr::Range { lo, hi, inclusive }) = &quals[pos] else {
                unreachable!()
            };
            let mut new_quals = quals.clone();
            // Replace the guard position with bound checks and the generator
            // with a let.
            new_quals[gi] = Qualifier::Guard(Expr::BinOp(
                if *inclusive { BinOp::Le } else { BinOp::Lt },
                Box::new(Expr::Var(v.clone())),
                hi.clone(),
            ));
            new_quals.insert(
                gi,
                Qualifier::Guard(Expr::BinOp(
                    BinOp::Ge,
                    Box::new(Expr::Var(v.clone())),
                    lo.clone(),
                )),
            );
            new_quals[pos] = Qualifier::Let(Pattern::Var(v.clone()), (**other).clone());
            return Comprehension {
                head: c.head,
                qualifiers: new_quals,
            };
        }
    }
    c
}

/// Rule (15): a group-by whose key pattern is exactly the key pattern of a
/// single association-list generator is injective — every group is a
/// singleton — so the group-by can be removed. Lifted variables appear as
/// `⊕/v` (→ `v`), `count(v)` (→ `1`), or `v.length` (→ `1`).
fn eliminate_injective_group_by(c: Comprehension) -> Comprehension {
    let Some(gpos) = c
        .qualifiers
        .iter()
        .position(|q| matches!(q, Qualifier::GroupBy(_, _)))
    else {
        return c;
    };
    let Qualifier::GroupBy(key_pat, key_expr) = &c.qualifiers[gpos] else {
        unreachable!()
    };
    if key_expr.is_some() {
        return c;
    }
    let key_vars: Vec<String> = key_pat.vars();
    if key_vars.is_empty() {
        return c;
    }

    // The generators before the group-by. Exactly one, and its element
    // pattern must be (key_pattern, value) with the key pattern binding
    // exactly the group-by key vars — then keys are unique (association
    // lists map indices to values uniquely).
    let generators: Vec<&Qualifier> = c.qualifiers[..gpos]
        .iter()
        .filter(|q| matches!(q, Qualifier::Generator(_, _)))
        .collect();
    if generators.len() != 1 {
        return c;
    }
    let Qualifier::Generator(p, src) = generators[0] else {
        unreachable!()
    };
    // Ranges are also unique-key sources, but the common case is the
    // association-list pattern ((i,j), v).
    if matches!(src, Expr::Range { .. }) {
        return c;
    }
    let Pattern::Tuple(parts) = p else { return c };
    if parts.len() != 2 {
        return c;
    }
    let gen_key_vars = parts[0].vars();
    if gen_key_vars != key_vars {
        return c;
    }

    // Lifted variables: everything local except the keys.
    let lifted: Vec<String> = c.qualifiers[..gpos]
        .iter()
        .flat_map(|q| match q {
            Qualifier::Generator(p, _) | Qualifier::Let(p, _) => p.vars(),
            _ => Vec::new(),
        })
        .filter(|v| !key_vars.contains(v))
        .collect();

    // All uses of lifted vars (in head and post-group-by qualifiers) must be
    // reducible in singleton groups.
    let mut exprs: Vec<&Expr> = vec![&c.head];
    for q in &c.qualifiers[gpos + 1..] {
        match q {
            Qualifier::Generator(_, e) | Qualifier::Let(_, e) | Qualifier::Guard(e) => {
                exprs.push(e)
            }
            Qualifier::GroupBy(_, Some(e)) => exprs.push(e),
            Qualifier::GroupBy(_, None) => {}
        }
    }
    if !exprs.iter().all(|e| reducible_uses_only(e, &lifted)) {
        return c;
    }

    // Rewrite: drop the group-by; ⊕/v → v, count(v)/v.length → 1.
    let rewrite = |e: Expr| -> Expr { collapse_singleton_aggregates(e, &lifted) };
    let mut qualifiers: Vec<Qualifier> = Vec::new();
    for (i, q) in c.qualifiers.into_iter().enumerate() {
        if i == gpos {
            continue;
        }
        qualifiers.push(match q {
            Qualifier::Generator(p, e) => Qualifier::Generator(p, rewrite(e)),
            Qualifier::Let(p, e) => Qualifier::Let(p, rewrite(e)),
            Qualifier::Guard(e) => Qualifier::Guard(rewrite(e)),
            Qualifier::GroupBy(p, k) => Qualifier::GroupBy(p, k.map(rewrite)),
        });
    }
    Comprehension {
        head: Box::new(rewrite(*c.head)),
        qualifiers,
    }
}

/// True if every occurrence of a lifted variable in `e` is under a Reduce,
/// `count(...)`, or `.length`.
fn reducible_uses_only(e: &Expr, lifted: &[String]) -> bool {
    match e {
        Expr::Var(v) => !lifted.contains(v),
        Expr::Reduce(_, inner) => {
            if let Expr::Var(_) = inner.as_ref() {
                true
            } else {
                reducible_uses_only(inner, lifted)
            }
        }
        Expr::Call(f, args) if f == "count" && args.len() == 1 => {
            matches!(&args[0], Expr::Var(_)) || reducible_uses_only(&args[0], lifted)
        }
        Expr::Field(b, f) if f == "length" => {
            matches!(b.as_ref(), Expr::Var(_)) || reducible_uses_only(b, lifted)
        }
        Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) => true,
        Expr::Tuple(es) | Expr::Call(_, es) => es.iter().all(|x| reducible_uses_only(x, lifted)),
        Expr::BinOp(_, a, b) => reducible_uses_only(a, lifted) && reducible_uses_only(b, lifted),
        Expr::UnOp(_, a) => reducible_uses_only(a, lifted),
        Expr::Index(b, idx) => {
            reducible_uses_only(b, lifted) && idx.iter().all(|x| reducible_uses_only(x, lifted))
        }
        Expr::Field(b, _) => reducible_uses_only(b, lifted),
        Expr::Range { lo, hi, .. } => {
            reducible_uses_only(lo, lifted) && reducible_uses_only(hi, lifted)
        }
        Expr::If(c, t, f) => {
            reducible_uses_only(c, lifted)
                && reducible_uses_only(t, lifted)
                && reducible_uses_only(f, lifted)
        }
        Expr::Build { args, body, .. } => {
            args.iter().all(|x| reducible_uses_only(x, lifted)) && reducible_uses_only(body, lifted)
        }
        // Conservative for nested comprehensions.
        Expr::Comprehension(c) => {
            let fv = Expr::Comprehension(c.clone()).free_vars();
            lifted.iter().all(|v| !fv.contains(v))
        }
    }
}

/// `⊕/v → v`, `count(v) → 1`, `v.length → 1` for lifted `v` in singleton
/// groups.
fn collapse_singleton_aggregates(e: Expr, lifted: &[String]) -> Expr {
    match e {
        Expr::Reduce(monoid, inner) => match *inner {
            Expr::Var(v) if lifted.contains(&v) => Expr::Var(v),
            other => Expr::Reduce(
                monoid,
                Box::new(collapse_singleton_aggregates(other, lifted)),
            ),
        },
        Expr::Call(f, args)
            if f == "count"
                && args.len() == 1
                && matches!(&args[0], Expr::Var(v) if lifted.contains(v)) =>
        {
            Expr::Int(1)
        }
        Expr::Field(b, f)
            if f == "length" && matches!(b.as_ref(), Expr::Var(v) if lifted.contains(v)) =>
        {
            Expr::Int(1)
        }
        other => map_subexprs(other, &mut |x| collapse_singleton_aggregates(x, lifted)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};
    use crate::parser::parse_expr;
    use crate::value::Value;

    fn matrix_value(rows: usize, cols: usize) -> Value {
        let mut out = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                out.push(Value::pair(
                    Value::pair(Value::Int(i as i64), Value::Int(j as i64)),
                    Value::Float((i * cols + j) as f64),
                ));
            }
        }
        Value::List(out)
    }

    fn eval_with_m(e: &Expr) -> Value {
        let mut env = Env::new();
        env.bind("M", matrix_value(3, 3));
        env.bind("N", matrix_value(3, 3));
        env.bind("n", Value::Int(3));
        env.bind("m", Value::Int(3));
        eval(e, &mut env).unwrap()
    }

    #[test]
    fn rule3_flattens_nested_generator() {
        let nested = parse_expr("[ x + 1 | x <- [ v * 2 | ((i,j),v) <- M ] ]").unwrap();
        let flat = normalize(nested.clone());
        // One comprehension, no nested generator sources.
        let Expr::Comprehension(c) = &flat else {
            panic!()
        };
        assert!(c
            .qualifiers
            .iter()
            .all(|q| !matches!(q, Qualifier::Generator(_, Expr::Comprehension(_)))));
        assert_eq!(eval_with_m(&nested), eval_with_m(&flat));
    }

    #[test]
    fn rule3_renames_to_avoid_capture() {
        // Outer x would capture inner x without renaming.
        let nested = parse_expr("[ (x, y) | x <- [ x * 2 | (x, v) <- A ], y <- B ]").unwrap();
        let flat = normalize(nested.clone());
        let mut env = Env::new();
        env.bind(
            "A",
            Value::List(vec![
                Value::pair(Value::Int(1), Value::Int(0)),
                Value::pair(Value::Int(5), Value::Int(0)),
            ]),
        );
        env.bind("B", Value::List(vec![Value::Int(7)]));
        assert_eq!(
            eval(&nested, &mut env).unwrap(),
            eval(&flat, &mut env).unwrap()
        );
    }

    #[test]
    fn indexing_becomes_generator_and_guards() {
        let e = parse_expr("matrix(n,m)[ ((i,j), a + N[i,j]) | ((i,j),a) <- M ]").unwrap();
        let n = normalize(e.clone());
        let Expr::Build { body, .. } = &n else {
            panic!()
        };
        let Expr::Comprehension(c) = body.as_ref() else {
            panic!()
        };
        // Original generator + added generator over N + two guards.
        let gens = c
            .qualifiers
            .iter()
            .filter(|q| matches!(q, Qualifier::Generator(_, _)))
            .count();
        assert_eq!(gens, 2, "indexing must become a generator: {c:?}");
        assert_eq!(eval_with_m(&e), eval_with_m(&n));
    }

    #[test]
    fn range_fusion_preserves_semantics() {
        let e = parse_expr("[ (i, j) | i <- 0 until 5, j <- 0 until 7, j == i + 1 ]").unwrap();
        let n = normalize(e.clone());
        let Expr::Comprehension(c) = &n else { panic!() };
        // The j range generator must be gone (replaced by a let).
        let range_gens = c
            .qualifiers
            .iter()
            .filter(|q| matches!(q, Qualifier::Generator(_, Expr::Range { .. })))
            .count();
        assert_eq!(range_gens, 1, "ranges must fuse: {c:?}");
        let mut env = Env::new();
        assert_eq!(eval(&e, &mut env).unwrap(), eval(&n, &mut env).unwrap());
    }

    #[test]
    fn injective_group_by_is_eliminated() {
        // Map over a matrix grouped by its own unique key: groups are
        // singletons.
        let e = parse_expr("[ ((i,j), +/v) | ((i,j),v) <- M, group by (i,j) ]").unwrap();
        let n = normalize(e.clone());
        let Expr::Comprehension(c) = &n else { panic!() };
        assert!(
            !c.qualifiers
                .iter()
                .any(|q| matches!(q, Qualifier::GroupBy(_, _))),
            "injective group-by must be removed: {c:?}"
        );
        assert_eq!(eval_with_m(&e), eval_with_m(&n));
    }

    #[test]
    fn eliminated_group_by_keeps_a_nested_reductions_monoid() {
        // Rule (15) collapses `⊕/v` of a lifted `v`; a reduction over
        // anything else must keep its own monoid, not become `+/`.
        let e =
            parse_expr("[ ((i,j), max/[ x | ((a,b),x) <- N ]) | ((i,j),v) <- M, group by (i,j) ]")
                .unwrap();
        let n = normalize(e.clone());
        let mut env = Env::new();
        env.bind("M", matrix_value(2, 2));
        env.bind("N", matrix_value(2, 2));
        let cell = |i: i64, j: i64| {
            Value::pair(Value::pair(Value::Int(i), Value::Int(j)), Value::Float(3.0))
        };
        let want = Value::List(vec![cell(0, 0), cell(0, 1), cell(1, 0), cell(1, 1)]);
        assert_eq!(eval(&e, &mut env).unwrap(), want);
        assert_eq!(eval(&n, &mut env).unwrap(), want, "{n}");
    }

    #[test]
    fn non_injective_group_by_is_kept() {
        let e = parse_expr("[ (i, +/v) | ((i,j),v) <- M, group by i ]").unwrap();
        let n = normalize(e.clone());
        let Expr::Comprehension(c) = &n else { panic!() };
        assert!(c
            .qualifiers
            .iter()
            .any(|q| matches!(q, Qualifier::GroupBy(_, _))));
        assert_eq!(eval_with_m(&e), eval_with_m(&n));
    }

    #[test]
    fn join_group_by_is_kept() {
        // Matmul's group-by must not be eliminated (two generators).
        let e = parse_expr(
            "[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, kk == k, \
             let v = a*b, group by (i,j) ]",
        )
        .unwrap();
        let n = normalize(e.clone());
        let Expr::Comprehension(c) = &n else { panic!() };
        assert!(c
            .qualifiers
            .iter()
            .any(|q| matches!(q, Qualifier::GroupBy(_, _))));
        assert_eq!(eval_with_m(&e), eval_with_m(&n));
    }

    #[test]
    fn flattened_tuple_pattern_splits_into_variable_lets() {
        // Rule (3) leaves `let ((i,j),x) = ((%r..,%r..), e)`; splitting and
        // copy propagation leave one let for `x` and rename `i`, `j`.
        let nested =
            parse_expr("[ ((i,j), x*2) | ((i,j),x) <- [ ((i,j), v+1) | ((i,j),v) <- M ] ]")
                .unwrap();
        let flat = normalize(nested.clone());
        let Expr::Comprehension(c) = &flat else {
            panic!()
        };
        let lets: Vec<&Qualifier> = c
            .qualifiers
            .iter()
            .filter(|q| matches!(q, Qualifier::Let(..)))
            .collect();
        assert!(
            matches!(lets.as_slice(), [Qualifier::Let(Pattern::Var(x), _)] if x == "x"),
            "{flat}"
        );
        assert_eq!(eval_with_m(&nested), eval_with_m(&flat));
    }

    #[test]
    fn dependent_tuple_let_stays_whole() {
        // A swap reads `x` after the split would have rebound it.
        let e =
            parse_expr("[ (x, y) | x <- 0 until 3, y <- 0 until 2, let (x, y) = (y, x) ]").unwrap();
        let n = normalize(e.clone());
        let Expr::Comprehension(c) = &n else { panic!() };
        assert!(c
            .qualifiers
            .iter()
            .any(|q| matches!(q, Qualifier::Let(Pattern::Tuple(_), _))));
        let mut env = Env::new();
        assert_eq!(eval(&e, &mut env).unwrap(), eval(&n, &mut env).unwrap());
    }

    #[test]
    fn copy_is_not_propagated_across_a_group_by() {
        // After `group by i`, `i` is the key but `k` is lifted to a list.
        let e = parse_expr("[ (i, k) | ((i,j),v) <- M, let k = i, group by i ]").unwrap();
        let n = normalize(e.clone());
        assert_eq!(eval_with_m(&e), eval_with_m(&n));
    }

    #[test]
    fn normalization_is_idempotent() {
        for src in [
            "[ (i, +/m) | ((i,j),m) <- M, group by i ]",
            "matrix(n,m)[ ((i,j), a + N[i,j]) | ((i,j),a) <- M ]",
            "[ (i, j) | i <- 0 until 5, j <- 0 until 7, j == i + 1 ]",
        ] {
            let once = normalize(parse_expr(src).unwrap());
            let twice = normalize(once.clone());
            assert_eq!(once, twice, "normalize must be idempotent for {src}");
        }
    }
}
