//! Reference interpreter — the formal semantics of §2–§3, executed directly
//! on association lists.
//!
//! This is the oracle every optimized translation is validated against:
//! generators iterate, guards filter, `group by p` groups the prefix rows by
//! the key and lifts every other pattern variable to the list of its values
//! in the group (rule 11), and `⊕/e` folds a monoid. Builders produce plain
//! [`Value`]s: `matrix(n,m)` / `vector(n)` / `array(n)` produce *dense*
//! association lists with out-of-bounds entries discarded (matching the
//! paper's builder guards), `rdd` is the identity and `set` deduplicates.

use crate::ast::*;
use crate::errors::CompError;
use crate::value::Value;
use std::collections::HashMap;

/// A lexically scoped environment (a binding stack).
#[derive(Debug, Clone, Default)]
pub struct Env {
    stack: Vec<(String, Value)>,
}

impl Env {
    pub fn new() -> Env {
        Env::default()
    }

    /// Bind a variable (shadows previous bindings of the same name).
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.stack.push((name.into(), value));
    }

    /// Look up the innermost binding.
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        self.stack
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Current binding depth; pass to [`Env::reset`] to drop bindings made
    /// after this point (scoped evaluation).
    pub fn mark(&self) -> usize {
        self.stack.len()
    }

    /// Drop bindings made after `mark`.
    pub fn reset(&mut self, mark: usize) {
        self.stack.truncate(mark);
    }

    /// Destructure `value` against `pattern`, pushing bindings.
    pub fn bind_pattern(&mut self, pattern: &Pattern, value: Value) -> Result<(), CompError> {
        match (pattern, value) {
            (Pattern::Wildcard, _) => Ok(()),
            (Pattern::Var(v), value) => {
                self.bind(v.clone(), value);
                Ok(())
            }
            (Pattern::Tuple(ps), Value::Tuple(vs)) if ps.len() == vs.len() => {
                for (p, v) in ps.iter().zip(vs) {
                    self.bind_pattern(p, v)?;
                }
                Ok(())
            }
            (p, v) => Err(CompError::eval(format!(
                "pattern {p:?} does not match value {v:?}"
            ))),
        }
    }
}

/// Evaluate an expression in an environment.
pub fn eval(expr: &Expr, env: &mut Env) -> Result<Value, CompError> {
    match expr {
        Expr::Int(n) => Ok(Value::Int(*n)),
        Expr::Float(x) => Ok(Value::Float(*x)),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Var(v) => env
            .lookup(v)
            .cloned()
            .ok_or_else(|| CompError::eval(format!("unbound variable `{v}`"))),
        Expr::Tuple(es) => Ok(Value::Tuple(
            es.iter().map(|e| eval(e, env)).collect::<Result<_, _>>()?,
        )),
        Expr::Comprehension(c) => Ok(Value::List(eval_comprehension(c, env)?)),
        Expr::Reduce(m, e) => {
            let items = eval(e, env)?.into_list()?;
            m.reduce(&items)
        }
        Expr::BinOp(op, a, b) => {
            // Short-circuit booleans first.
            match op {
                BinOp::And => {
                    return if eval(a, env)?.as_bool()? {
                        eval(b, env)
                    } else {
                        Ok(Value::Bool(false))
                    }
                }
                BinOp::Or => {
                    return if eval(a, env)?.as_bool()? {
                        Ok(Value::Bool(true))
                    } else {
                        eval(b, env)
                    }
                }
                _ => {}
            }
            let va = eval(a, env)?;
            let vb = eval(b, env)?;
            match op {
                BinOp::Add => va.add(&vb),
                BinOp::Sub => va.sub(&vb),
                BinOp::Mul => va.mul(&vb),
                BinOp::Div => va.div(&vb),
                BinOp::Mod => va.rem(&vb),
                BinOp::Eq => Ok(Value::Bool(va == vb)),
                BinOp::Ne => Ok(Value::Bool(va != vb)),
                BinOp::Lt => Ok(Value::Bool(va.compare(&vb)? == std::cmp::Ordering::Less)),
                BinOp::Le => Ok(Value::Bool(va.compare(&vb)? != std::cmp::Ordering::Greater)),
                BinOp::Gt => Ok(Value::Bool(va.compare(&vb)? == std::cmp::Ordering::Greater)),
                BinOp::Ge => Ok(Value::Bool(va.compare(&vb)? != std::cmp::Ordering::Less)),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
        Expr::UnOp(op, e) => {
            let v = eval(e, env)?;
            match op {
                UnOp::Neg => match v {
                    Value::Int(n) => Ok(Value::Int(-n)),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    other => Err(CompError::eval(format!("cannot negate {other:?}"))),
                },
                UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
            }
        }
        Expr::Index(base, idx) => {
            // Association-list indexing: linear search (normalization removes
            // Index in compiled code; the oracle supports it directly).
            let list = eval(base, env)?.into_list()?;
            let key = if idx.len() == 1 {
                eval(&idx[0], env)?
            } else {
                Value::Tuple(idx.iter().map(|e| eval(e, env)).collect::<Result<_, _>>()?)
            };
            for item in &list {
                if let Value::Tuple(kv) = item {
                    if kv.len() == 2 && kv[0] == key {
                        return Ok(kv[1].clone());
                    }
                }
            }
            Err(CompError::eval(format!("index {key:?} not found")))
        }
        Expr::Call(f, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|e| eval(e, env))
                .collect::<Result<_, _>>()?;
            call_builtin(f, &vals)
        }
        Expr::Field(e, field) => {
            let v = eval(e, env)?;
            match (v, field.as_str()) {
                (Value::List(xs), "length") => Ok(Value::Int(xs.len() as i64)),
                (v, f) => Err(CompError::eval(format!("unknown field `{f}` on {v:?}"))),
            }
        }
        Expr::Range { lo, hi, inclusive } => {
            let lo = eval(lo, env)?.as_i64()?;
            let hi = eval(hi, env)?.as_i64()?;
            let hi = if *inclusive { hi + 1 } else { hi };
            Ok(Value::List((lo..hi).map(Value::Int).collect()))
        }
        Expr::If(c, t, f) => {
            if eval(c, env)?.as_bool()? {
                eval(t, env)
            } else {
                eval(f, env)
            }
        }
        Expr::Build {
            builder,
            args,
            body,
        } => {
            let argv: Vec<i64> = args
                .iter()
                .map(|e| eval(e, env)?.as_i64())
                .collect::<Result<_, _>>()?;
            let list = eval(body, env)?.into_list()?;
            apply_builder(builder, &argv, list)
        }
    }
}

/// Builtin scalar/aggregate functions.
fn call_builtin(name: &str, args: &[Value]) -> Result<Value, CompError> {
    match (name, args) {
        ("count", [Value::List(xs)]) => Ok(Value::Int(xs.len() as i64)),
        ("sum", [Value::List(xs)]) => Monoid::Sum.reduce(xs),
        ("avg", [Value::List(xs)]) => {
            if xs.is_empty() {
                return Err(CompError::eval("avg of an empty list"));
            }
            let total = Monoid::Sum.reduce(xs)?.as_f64()?;
            Ok(Value::Float(total / xs.len() as f64))
        }
        ("min", [Value::List(xs)]) => Monoid::Min.reduce(xs),
        ("max", [Value::List(xs)]) => Monoid::Max.reduce(xs),
        ("abs", [v]) => match v {
            Value::Int(n) => Ok(Value::Int(n.abs())),
            Value::Float(x) => Ok(Value::Float(x.abs())),
            other => Err(CompError::eval(format!("abs of {other:?}"))),
        },
        ("sqrt", [v]) => Ok(Value::Float(v.as_f64()?.sqrt())),
        _ => Err(CompError::eval(format!(
            "unknown function `{name}` with {} argument(s)",
            args.len()
        ))),
    }
}

/// Apply an array builder to the association list a comprehension produced.
fn apply_builder(builder: &str, args: &[i64], list: Vec<Value>) -> Result<Value, CompError> {
    match (builder, args) {
        // Dense matrix: all (i,j) in range, missing entries are 0.0, last
        // write wins, out-of-bounds discarded (the paper's builder guards).
        ("matrix" | "tiled", [n, m]) => {
            let mut cells: HashMap<(i64, i64), Value> = HashMap::new();
            for item in list {
                let ((i, j), v) = decode_keyed2(item)?;
                if i >= 0 && i < *n && j >= 0 && j < *m {
                    cells.insert((i, j), v);
                }
            }
            let mut out = Vec::with_capacity((n * m) as usize);
            for i in 0..*n {
                for j in 0..*m {
                    let v = cells.remove(&(i, j)).unwrap_or(Value::Float(0.0));
                    out.push(Value::pair(Value::pair(Value::Int(i), Value::Int(j)), v));
                }
            }
            Ok(Value::List(out))
        }
        ("vector" | "array" | "tiled_vector", [n]) => {
            let mut cells: HashMap<i64, Value> = HashMap::new();
            for item in list {
                let (i, v) = decode_keyed1(item)?;
                if i >= 0 && i < *n {
                    cells.insert(i, v);
                }
            }
            let out = (0..*n)
                .map(|i| Value::pair(Value::Int(i), cells.remove(&i).unwrap_or(Value::Float(0.0))))
                .collect();
            Ok(Value::List(out))
        }
        ("rdd" | "list", []) => Ok(Value::List(list)),
        ("set", []) => {
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for v in list {
                if seen.insert(v.clone()) {
                    out.push(v);
                }
            }
            Ok(Value::List(out))
        }
        _ => Err(CompError::eval(format!(
            "unknown builder `{builder}` with {} argument(s)",
            args.len()
        ))),
    }
}

fn decode_keyed2(item: Value) -> Result<((i64, i64), Value), CompError> {
    if let Value::Tuple(mut kv) = item {
        if kv.len() == 2 {
            let v = kv.pop().expect("value");
            let k = kv.pop().expect("key");
            if let Value::Tuple(ij) = k {
                if ij.len() == 2 {
                    return Ok(((ij[0].as_i64()?, ij[1].as_i64()?), v));
                }
            }
        }
    }
    Err(CompError::eval(
        "matrix builder expects ((i,j), value) elements",
    ))
}

fn decode_keyed1(item: Value) -> Result<(i64, Value), CompError> {
    if let Value::Tuple(mut kv) = item {
        if kv.len() == 2 {
            let v = kv.pop().expect("value");
            let k = kv.pop().expect("key");
            return Ok((k.as_i64()?, v));
        }
    }
    Err(CompError::eval(
        "vector builder expects (i, value) elements",
    ))
}

/// A row of comprehension-local bindings; later entries shadow earlier ones,
/// like the environment stack.
type Row = Vec<(String, Value)>;

/// Most variable bindings a generator may produce when it multiplies a row
/// set, summed over the new rows. A binding costs about 100 bytes, so the
/// cap keeps one such row set near 100 MiB. The generator checks it as it
/// extends the rows, so a cross product that would exceed it fails with a
/// typed error instead of being allocated. A generator run against a single
/// row is exempt: it yields one row per element of a list already in
/// memory, so a scan of one large array stays linear.
pub const MAX_ROW_BINDINGS: usize = 1 << 20;

/// Evaluate a comprehension to its list of head values.
///
/// Qualifiers are processed left to right over an explicit *row set*
/// (initially one empty row): generators multiply rows, guards filter them,
/// and `group by` replaces the whole row set by one row per group — which
/// makes a subsequent group-by operate across all groups of the first,
/// exactly as rule (11)'s flat translation does.
pub fn eval_comprehension(c: &Comprehension, env: &mut Env) -> Result<Vec<Value>, CompError> {
    let mut rows: Vec<Row> = vec![Vec::new()];
    for q in &c.qualifiers {
        match q {
            Qualifier::Generator(p, e) => {
                let mut next = Vec::new();
                let multiplies = rows.len() > 1;
                let mut bindings = 0usize;
                for row in rows {
                    let items = eval_in_row(e, env, &row)?.into_list()?;
                    for item in items {
                        let mut extended = row.clone();
                        bind_into_row(p, item, &mut extended)?;
                        bindings += extended.len();
                        if multiplies && bindings > MAX_ROW_BINDINGS {
                            return Err(CompError::eval(format!(
                                "comprehension row set exceeds the interpreter limit of \
                                 {MAX_ROW_BINDINGS} bindings at generator `{p}`"
                            )));
                        }
                        next.push(extended);
                    }
                }
                rows = next;
            }
            Qualifier::Let(p, e) => {
                let mut next = Vec::with_capacity(rows.len());
                for row in rows {
                    let v = eval_in_row(e, env, &row)?;
                    let mut extended = row;
                    bind_into_row(p, v, &mut extended)?;
                    next.push(extended);
                }
                rows = next;
            }
            Qualifier::Guard(e) => {
                let mut next = Vec::with_capacity(rows.len());
                for row in rows {
                    if eval_in_row(e, env, &row)?.as_bool()? {
                        next.push(row);
                    }
                }
                rows = next;
            }
            Qualifier::GroupBy(key_pat, key_expr) => {
                // Distinct local variable names bound so far (last binding
                // wins), the candidates for lifting.
                let mut names: Vec<String> = Vec::new();
                for row in &rows {
                    for (n, _) in row {
                        if !names.contains(n) {
                            names.push(n.clone());
                        }
                    }
                }
                // Group rows by key, first-seen order.
                let mut order: Vec<Value> = Vec::new();
                let mut groups: HashMap<Value, Vec<Row>> = HashMap::new();
                for row in rows {
                    let key = match key_expr {
                        Some(e) => eval_in_row(e, env, &row)?,
                        None => eval_in_row(&key_pat.to_expr(), env, &row)?,
                    };
                    groups
                        .entry(key.clone())
                        .or_insert_with(|| {
                            order.push(key);
                            Vec::new()
                        })
                        .push(row);
                }
                let key_vars = key_pat.vars();
                let mut next = Vec::with_capacity(order.len());
                for key in order {
                    let group = &groups[&key];
                    let mut grouped_row: Row = Vec::new();
                    bind_into_row(key_pat, key, &mut grouped_row)?;
                    for name in &names {
                        if key_vars.contains(name) {
                            continue;
                        }
                        let values: Vec<Value> = group
                            .iter()
                            .filter_map(|row| row_lookup(row, name).cloned())
                            .collect();
                        grouped_row.push((name.clone(), Value::List(values)));
                    }
                    next.push(grouped_row);
                }
                rows = next;
            }
        }
    }
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        out.push(eval_in_row(&c.head, env, &row)?);
    }
    Ok(out)
}

fn row_lookup<'a>(row: &'a Row, name: &str) -> Option<&'a Value> {
    row.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn bind_into_row(p: &Pattern, value: Value, row: &mut Row) -> Result<(), CompError> {
    match (p, value) {
        (Pattern::Wildcard, _) => Ok(()),
        (Pattern::Var(v), value) => {
            row.push((v.clone(), value));
            Ok(())
        }
        (Pattern::Tuple(ps), Value::Tuple(vs)) if ps.len() == vs.len() => {
            for (p, v) in ps.iter().zip(vs) {
                bind_into_row(p, v, row)?;
            }
            Ok(())
        }
        (p, v) => Err(CompError::eval(format!(
            "pattern {p:?} does not match value {v:?}"
        ))),
    }
}

/// Evaluate `e` with `row` temporarily pushed onto the environment.
fn eval_in_row(e: &Expr, env: &mut Env, row: &Row) -> Result<Value, CompError> {
    let mark = env.mark();
    for (n, v) in row {
        env.bind(n.clone(), v.clone());
    }
    let out = eval(e, env);
    env.reset(mark);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn run(src: &str, binds: Vec<(&str, Value)>) -> Value {
        let ast = parse_expr(src).unwrap();
        let mut env = Env::new();
        for (n, v) in binds {
            env.bind(n, v);
        }
        eval(&ast, &mut env).unwrap()
    }

    /// Association list for a small matrix given by a nested array.
    fn matrix_value(rows: &[&[f64]]) -> Value {
        let mut out = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.push(Value::pair(
                    Value::pair(Value::Int(i as i64), Value::Int(j as i64)),
                    Value::Float(v),
                ));
            }
        }
        Value::List(out)
    }

    #[test]
    fn fig1_row_sums() {
        // V_i = Σ_j M_ij over a 2x3 matrix.
        let m = matrix_value(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let got = run("[ (i, +/m) | ((i,j),m) <- M, group by i ]", vec![("M", m)]);
        assert_eq!(
            got,
            Value::List(vec![
                Value::pair(Value::Int(0), Value::Float(6.0)),
                Value::pair(Value::Int(1), Value::Float(15.0)),
            ])
        );
    }

    #[test]
    fn query9_matrix_multiplication() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = matrix_value(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = matrix_value(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let got = run(
            "matrix(2,2)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, \
             kk == k, let v = a*b, group by (i,j) ]",
            vec![("M", a), ("N", b)],
        );
        assert_eq!(got, matrix_value(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn query8_matrix_addition() {
        let a = matrix_value(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = matrix_value(&[&[10.0, 20.0], &[30.0, 40.0]]);
        let got = run(
            "matrix(2,2)[ ((i,j), a+b) | ((i,j),a) <- M, ((ii,jj),b) <- N, ii == i, jj == j ]",
            vec![("M", a), ("N", b)],
        );
        assert_eq!(got, matrix_value(&[&[11.0, 22.0], &[33.0, 44.0]]));
    }

    #[test]
    fn is_sorted_reduction() {
        let v = Value::List(
            [1.0, 2.0, 3.0]
                .iter()
                .enumerate()
                .map(|(i, &x)| Value::pair(Value::Int(i as i64), Value::Float(x)))
                .collect(),
        );
        let sorted = run(
            "&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]",
            vec![("V", v)],
        );
        assert_eq!(sorted, Value::Bool(true));
        let v2 = Value::List(vec![
            Value::pair(Value::Int(0), Value::Float(2.0)),
            Value::pair(Value::Int(1), Value::Float(1.0)),
        ]);
        let unsorted = run(
            "&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]",
            vec![("V", v2)],
        );
        assert_eq!(unsorted, Value::Bool(false));
    }

    #[test]
    fn smoothing_boundary_cases() {
        // §3's smoothing comprehension on a 2x2 matrix of ones is all ones.
        let m = matrix_value(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let got = run(
            "matrix(2,2)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M, \
             ii <- (i-1) to (i+1), jj <- (j-1) to (j+1), \
             ii >= 0, ii < 2, jj >= 0, jj < 2, group by (ii,jj) ]",
            vec![("M", m.clone())],
        );
        assert_eq!(got, m);
    }

    #[test]
    fn group_by_lifts_multiple_vars() {
        // After group by k, both a and b are lifted lists.
        let data = Value::List(vec![
            Value::Tuple(vec![Value::Int(1), Value::Int(10), Value::Int(100)]),
            Value::Tuple(vec![Value::Int(1), Value::Int(20), Value::Int(200)]),
            Value::Tuple(vec![Value::Int(2), Value::Int(30), Value::Int(300)]),
        ]);
        let got = run(
            "[ (k, +/a, count(b)) | (k,a,b) <- D, group by k ]",
            vec![("D", data)],
        );
        assert_eq!(
            got,
            Value::List(vec![
                Value::Tuple(vec![Value::Int(1), Value::Int(30), Value::Int(2)]),
                Value::Tuple(vec![Value::Int(2), Value::Int(30), Value::Int(1)]),
            ])
        );
    }

    #[test]
    fn matrix_rotation() {
        // §5.2's row rotation ((i+1)%m, j) on a 2x2 matrix.
        let m = matrix_value(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let got = run(
            "matrix(2,2)[ (((i+1)%2, j), v) | ((i,j),v) <- X ]",
            vec![("X", m)],
        );
        assert_eq!(got, matrix_value(&[&[3.0, 4.0], &[1.0, 2.0]]));
    }

    #[test]
    fn indexing_in_comprehension() {
        // matrix add via N[i,j] indexing, before normalization.
        let a = matrix_value(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = matrix_value(&[&[5.0, 5.0], &[5.0, 5.0]]);
        let got = run(
            "matrix(2,2)[ ((i,j), a + N[i,j]) | ((i,j),a) <- M ]",
            vec![("M", a), ("N", b)],
        );
        assert_eq!(got, matrix_value(&[&[6.0, 7.0], &[8.0, 9.0]]));
    }

    #[test]
    fn sql_department_count() {
        // The intro's SQL example shape: count employees per department.
        let employees = Value::List(vec![
            Value::pair(Value::Str("alice".into()), Value::Int(1)),
            Value::pair(Value::Str("bob".into()), Value::Int(1)),
            Value::pair(Value::Str("carol".into()), Value::Int(2)),
        ]);
        let departments = Value::List(vec![
            Value::pair(Value::Int(1), Value::Str("cs".into())),
            Value::pair(Value::Int(2), Value::Str("ee".into())),
        ]);
        let got = run(
            "[ (dname, count(e)) | (e, dno) <- Employees, (dnumber, dname) <- Departments, \
             dno == dnumber, group by dname ]",
            vec![("Employees", employees), ("Departments", departments)],
        );
        assert_eq!(
            got,
            Value::List(vec![
                Value::pair(Value::Str("cs".into()), Value::Int(2)),
                Value::pair(Value::Str("ee".into()), Value::Int(1)),
            ])
        );
    }

    #[test]
    fn vector_builder_fills_missing_with_zero() {
        let got = run("vector(3)[ (i, 1.0) | i <- 0 until 2 ]", vec![]);
        assert_eq!(
            got,
            Value::List(vec![
                Value::pair(Value::Int(0), Value::Float(1.0)),
                Value::pair(Value::Int(1), Value::Float(1.0)),
                Value::pair(Value::Int(2), Value::Float(0.0)),
            ])
        );
    }

    #[test]
    fn set_builder_dedups() {
        let got = run("set[ x % 2 | x <- 0 until 6 ]", vec![]);
        assert_eq!(got, Value::List(vec![Value::Int(0), Value::Int(1)]));
    }

    #[test]
    fn guards_filter() {
        let got = run("[ x | x <- 0 until 10, x % 3 == 0 ]", vec![]);
        assert_eq!(
            got,
            Value::List(vec![
                Value::Int(0),
                Value::Int(3),
                Value::Int(6),
                Value::Int(9)
            ])
        );
    }

    #[test]
    fn unbound_variable_errors() {
        let ast = parse_expr("x + 1").unwrap();
        assert!(eval(&ast, &mut Env::new()).is_err());
    }

    #[test]
    fn multiple_group_bys_nest_lifting() {
        // Two group-bys in sequence: first by k1 lifts v; then group by k2
        // (a function of the first group's aggregate).
        let data = Value::List(vec![
            Value::Tuple(vec![Value::Int(1), Value::Int(1)]),
            Value::Tuple(vec![Value::Int(1), Value::Int(2)]),
            Value::Tuple(vec![Value::Int(2), Value::Int(3)]),
            Value::Tuple(vec![Value::Int(3), Value::Int(10)]),
        ]);
        // First group: sums per k are {1:3, 2:3, 3:10}. Second group by the
        // sum: {3: [1,2], 10: [3]} → counts {3:2, 10:1}.
        let got = run(
            "[ (s, count(k)) | (k,v) <- D, group by k, let s = +/v, group by s ]",
            vec![("D", data)],
        );
        assert_eq!(
            got,
            Value::List(vec![
                Value::Tuple(vec![Value::Int(3), Value::Int(2)]),
                Value::Tuple(vec![Value::Int(10), Value::Int(1)]),
            ])
        );
    }
}
