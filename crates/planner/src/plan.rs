//! Plan selection — the paper's translation rules as pattern matches over
//! the decomposed comprehension.
//!
//! Before dispatch, **builder–sparsifier fusion** (§3) drops the builder of
//! every generator `((i,j),x) <- tiled(r,c)[ e | q ]` (or
//! `(i,x) <- tiled_vector(n)[ e | q ]`) whose list is provably total, unique
//! and in bounds: `q` ranges only over registered arrays of exactly the
//! builder's shape, joined on every index, and `e`'s key is those indices.
//! The dense builder then yields exactly the inner list, so rule (3) inlines
//! `q` into the enclosing comprehension and a nested elementwise query plans
//! as one region. A builder that fails any of these conditions stays, and
//! the expression plans as it would without the rewrite.
//!
//! Dispatch order for `tiled(n,m)[ e | q ]`:
//!
//! 1. **Eltwise** (§5.1, rule 17) — every generator ranges over a tiled
//!    matrix, generators are equated on both indices (rule 14 join
//!    detection), and the head key is those indices (possibly swapped →
//!    transpose). No shuffle beyond co-partitioning; tile kernels do the
//!    work.
//! 2. **Contraction** (§5.3 / §5.4) — two tiled generators joined on one
//!    index, group-by over the two free indices, head `⊕/v` with
//!    `v = f(a, b)`: matrix-multiplication-like. Translated to join +
//!    tile-level `reduceByKey` (rule 13) or to the **group-by-join** /
//!    SUMMA plan (§5.4), per configuration.
//! 3. **IndexRemap** (§5.2, rule 19) — one tiled generator, head key is an
//!    arbitrary index map: tiles are replicated to the output tiles their
//!    elements land in (the `I_f(K)` image sets), then regrouped.
//! 4. **GroupByAggregate** (§5.3 general) — one tiled generator plus range
//!    generators/guards and a group-by: the generic
//!    replicate-and-`reduceByKey` translation with one accumulator plane per
//!    aggregate (the product-of-monoids of §3). Covers stencils such as the
//!    paper's smoothing example.
//!
//! `tiled_vector(n)[ e | q ]` dispatches to **AxisReduce** (Fig. 1 row
//! sums) or GroupByAggregate. Anything else falls back to the reference
//! interpreter over sparsified arrays (`LocalFallback`), preserving
//! semantics at the cost of distribution.

use crate::analysis::{
    decompose, extract_aggregates, inline_lets, Aggregate, Decomposed, GenKind, VarClasses,
};
use crate::env::{ArrayStats, DistArray, PlanEnv};
use crate::scalar::{IdxFn, ScalarFn};
use comp::ast::{Expr, Monoid, Pattern, Qualifier};
use comp::errors::CompError;
use comp::normalize::{map_subexprs, normalize};

/// How to execute a contraction (matrix multiplication).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatMulStrategy {
    /// §4's unoptimized translation: join on the contracted index, tile
    /// products, then `groupByKey` collecting all partial products into
    /// lists before reducing — the "SAC (join + group-by)" series of
    /// Fig. 4.B.
    JoinGroupBy,
    /// §5.3: join on the contracted index, tile products, `reduceByKey`
    /// (map-side combined).
    ReduceByKey,
    /// §5.4: group-by-join (SUMMA) — replicate tiles to result coordinates,
    /// cogroup once, reduce locally.
    GroupByJoin,
    /// MLlib-style broadcast join: collect the smaller operand on the
    /// driver, [`sparkline::Context::broadcast`] it, and compute partial
    /// output tiles map-side — a single combine round, no join shuffle.
    /// Only sensible when one side fits the broadcast budget.
    Broadcast,
    /// Pick the cheapest of the above from registered array statistics
    /// (estimated shuffle bytes per candidate). This is the default.
    Auto,
}

/// The planner's record of one cost-based physical choice, carried on the
/// plan node so execution can emit it as a `plan.chosen` event.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// Chosen strategy tag, e.g. `contraction/broadcast`.
    pub chosen: &'static str,
    /// False when the strategy was pinned by configuration.
    pub auto: bool,
    /// Estimated shuffle bytes of the chosen strategy.
    pub est_shuffle_bytes: u64,
    /// Every candidate considered, with its estimated shuffle bytes
    /// (ineligible candidates — e.g. broadcast over budget — are absent).
    pub candidates: Vec<(&'static str, u64)>,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Shuffle partition count; `0` (the default) derives the count from
    /// the context's worker pool and the estimated output size at execution
    /// time. Any non-zero value pins it.
    pub partitions: usize,
    /// Strategy for contraction plans ([`MatMulStrategy::Auto`] picks from
    /// statistics).
    pub matmul: MatMulStrategy,
    /// Largest operand (estimated bytes) the broadcast contraction path may
    /// ship to every executor.
    pub broadcast_budget: u64,
    /// Threads for intra-tile kernels (the paper's `.par`); 1 = sequential.
    pub tile_threads: usize,
    /// Permit falling back to the driver-side reference interpreter.
    pub allow_local_fallback: bool,
    /// Automatically persist inputs a plan references more than once (e.g.
    /// both sides of `A*A`) through the block manager, so their lineage is
    /// computed once per execution instead of once per reference.
    pub auto_persist: bool,
    /// Collapse elementwise regions into single fused tile programs
    /// ([`Plan::FusedEltwise`]); `false` keeps the per-node interpreter
    /// ([`Plan::Eltwise`], the bit-identical oracle).
    pub fuse_eltwise: bool,
    /// Re-plan at stage boundaries from measured statistics: probe the
    /// materialized inputs of an auto-chosen shuffling strategy, overlay the
    /// observed [`crate::env::ArrayStats`], and re-run the candidate cost
    /// model on the not-yet-lowered remainder (Spark-AQE shape). `false`
    /// freezes the registration-time plan — the bit-exactness oracle.
    /// Defaults to on; env `SAC_ADAPTIVE=0` opts out process-wide.
    pub adaptive: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            partitions: 0,
            matmul: MatMulStrategy::Auto,
            broadcast_budget: 1 << 20,
            tile_threads: 1,
            allow_local_fallback: true,
            auto_persist: true,
            fuse_eltwise: true,
            adaptive: std::env::var("SAC_ADAPTIVE")
                .map(|v| v != "0")
                .unwrap_or(true),
        }
    }
}

/// Output shape of a planned comprehension.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputKind {
    Matrix { rows: i64, cols: i64 },
    Vector { len: i64 },
    Local,
}

/// Key shape for the generic group-by plan.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupKey {
    /// 2-D key `(k1, k2)` — matrix output.
    Cell(String, String),
    /// 1-D key — vector output.
    Index(String),
}

/// A selected physical plan.
#[derive(Clone)]
pub enum Plan {
    /// §5.1 element-wise over co-indexed tiled matrices.
    Eltwise {
        /// Input matrix names, in value-slot order.
        inputs: Vec<String>,
        /// Head key is `(col, row)` — transpose the output.
        transposed: bool,
        /// Value over slots `[val_0, ..., val_{k-1}, row, col]`.
        value: ScalarFn,
        /// Optional guard (same slots); failing elements become 0.
        guard: Option<ScalarFn>,
    },
    /// §5.1 elementwise after the trace-and-fuse pass: the whole region
    /// (value, guard masking, scalar constants) collapsed into one postfix
    /// tile program, executed as a single kernel pass per tile by
    /// `tiled::kernel::fused_eltwise`. Bit-identical to the unfused
    /// [`Plan::Eltwise`] oracle.
    FusedEltwise {
        /// Input matrix names, in slot order.
        inputs: Vec<String>,
        /// Head key is `(col, row)` — transpose the output.
        transposed: bool,
        /// Constant-folded program over slots `[val_0, ..., val_{k-1}]`
        /// (index-reading regions do not fuse).
        program: tiled::fused::FusedProgram,
        /// Post-order operator tags of the source region (from the
        /// normalized comprehension head), for the `region_fused` event.
        region_ops: Vec<String>,
    },
    /// §5.3/§5.4 contraction (matrix multiplication shaped).
    Contraction {
        left: String,
        right: String,
        /// The contracted index of the left input is its **row** (so the
        /// left operand must be transposed tile-wise first).
        left_contract_row: bool,
        /// The contracted index of the right input is its **column**.
        right_contract_col: bool,
        /// Head key is `(right_free, left_free)` — transpose the result.
        swap_output: bool,
        /// Element combine over slots `[a, b]` (must reduce with `+`).
        value: ScalarFn,
        /// Resolved physical strategy (never [`MatMulStrategy::Auto`]).
        strategy: MatMulStrategy,
        /// How the strategy was chosen (candidate cost estimates).
        decision: PlanDecision,
    },
    /// Fig. 1 row/column reduction to a tiled vector.
    AxisReduce {
        input: String,
        /// Group by the row index (true) or the column index (false).
        by_row: bool,
        monoid: Monoid,
        /// Per-element input over slots `[val, row, col]`.
        value: ScalarFn,
    },
    /// §5.2 rule 19: element-wise index remap with tile replication.
    IndexRemap {
        input: String,
        /// Destination row index over slots `[i, j]`.
        fi: IdxFn,
        /// Destination column index over slots `[i, j]`.
        fj: IdxFn,
        /// Value over slots `[val, i, j]`.
        value: ScalarFn,
    },
    /// §5.3 generic single-input group-by with aggregate planes.
    GroupByAggregate {
        input: String,
        /// The matrix generator's bound names `(row, col, val)`.
        gen_vars: (String, String, String),
        /// Qualifiers between the generator and the group-by (ranges,
        /// lets, guards), evaluated per element by the reference evaluator.
        inner_quals: Vec<Qualifier>,
        key: GroupKey,
        /// Optional key expression (`group by p: e`).
        key_expr: Option<Expr>,
        aggregates: Vec<Aggregate>,
        /// Finalizer over `%aggN` slots.
        finalizer: Expr,
    },
    /// Matrix–vector contraction `y_i = Σ_k f(A_ik, x_k)` (and the
    /// transposed orientation): join tiles with vector blocks on the
    /// contracted block index, partial block products, `reduceByKey`.
    MatVec {
        matrix: String,
        vector: String,
        /// The contracted index of the matrix is its **row** (computes
        /// `Aᵀ·x`).
        contract_row: bool,
        /// Element combine over slots `[a, x]` (reduced with `+`).
        value: ScalarFn,
        /// Ship the vector to every task via [`sparkline::Context::broadcast`]
        /// instead of joining — zero shuffle stages.
        broadcast: bool,
        /// How the physical path was chosen.
        decision: PlanDecision,
    },
    /// Element-wise over co-indexed tiled vectors (rule 17, 1-D).
    VectorEltwise {
        /// Input vector names, in value-slot order.
        inputs: Vec<String>,
        /// Value over slots `[val_0, ..., val_{k-1}, idx]`.
        value: ScalarFn,
        /// Optional guard (same slots); failing elements become 0.
        guard: Option<ScalarFn>,
    },
    /// Reference interpreter over sparsified arrays.
    LocalFallback {
        expr: Expr,
        /// Why no distributed plan applied.
        cause: CompError,
    },
}

/// A plan plus its output shape.
#[derive(Clone)]
pub struct Planned {
    pub plan: Plan,
    pub output: OutputKind,
}

impl Plan {
    /// Names of the distributed arrays this plan reads, one entry per
    /// reference (a name appearing twice means the plan evaluates that
    /// input's lineage twice — the signal the auto-persist pass looks for).
    pub fn input_names(&self) -> Vec<&str> {
        match self {
            Plan::Eltwise { inputs, .. }
            | Plan::FusedEltwise { inputs, .. }
            | Plan::VectorEltwise { inputs, .. } => inputs.iter().map(String::as_str).collect(),
            Plan::Contraction { left, right, .. } => vec![left, right],
            Plan::AxisReduce { input, .. }
            | Plan::IndexRemap { input, .. }
            | Plan::GroupByAggregate { input, .. } => vec![input],
            Plan::MatVec { matrix, vector, .. } => vec![matrix, vector],
            Plan::LocalFallback { .. } => vec![],
        }
    }

    /// Human-readable strategy name (used by plan-shape tests and explain).
    pub fn strategy_name(&self) -> &'static str {
        match self {
            Plan::Eltwise { .. } => "eltwise",
            // Contains "eltwise" so shape assertions on the logical
            // operation hold whether or not fusion is enabled.
            Plan::FusedEltwise { .. } => "eltwise/fused",
            Plan::Contraction { strategy, .. } => contraction_tag(*strategy),
            Plan::AxisReduce { .. } => "axisReduce",
            Plan::MatVec {
                broadcast: true, ..
            } => "matVec/broadcast",
            Plan::MatVec { .. } => "matVec",
            Plan::VectorEltwise { .. } => "vectorEltwise",
            Plan::IndexRemap { .. } => "indexRemap",
            Plan::GroupByAggregate { .. } => "groupByAggregate",
            Plan::LocalFallback { .. } => "localFallback",
        }
    }

    /// The cost-based decision record, for plans that make one.
    pub fn decision(&self) -> Option<&PlanDecision> {
        match self {
            Plan::Contraction { decision, .. } | Plan::MatVec { decision, .. } => Some(decision),
            _ => None,
        }
    }
}

/// Strategy tag of a resolved contraction strategy.
///
/// # Panics
/// On [`MatMulStrategy::Auto`], which plan selection always resolves away.
pub(crate) fn contraction_tag(strategy: MatMulStrategy) -> &'static str {
    match strategy {
        MatMulStrategy::JoinGroupBy => "contraction/joinGroupBy",
        MatMulStrategy::ReduceByKey => "contraction/reduceByKey",
        MatMulStrategy::GroupByJoin => "contraction/groupByJoin",
        MatMulStrategy::Broadcast => "contraction/broadcast",
        MatMulStrategy::Auto => unreachable!("Auto must be resolved at plan time"),
    }
}

impl Planned {
    /// One-line plan explanation.
    pub fn explain(&self) -> String {
        let shape = match &self.output {
            OutputKind::Matrix { rows, cols } => format!("matrix {rows}x{cols}"),
            OutputKind::Vector { len } => format!("vector {len}"),
            OutputKind::Local => "local value".to_string(),
        };
        match &self.plan {
            Plan::LocalFallback { cause, .. } => {
                format!("localFallback ({}) -> {shape}", cause.message)
            }
            plan => format!("{} -> {shape}", plan.strategy_name()),
        }
    }
}

/// Plan a (possibly unnormalized) comprehension expression.
pub fn plan(expr: &Expr, env: &PlanEnv, config: &PlanConfig) -> Result<Planned, CompError> {
    let expr = fuse_builders(expr, env).unwrap_or_else(|| normalize(expr.clone()));
    let planned = match &expr {
        Expr::Build {
            builder,
            args,
            body,
        } if builder == "tiled" && args.len() == 2 => {
            let rows = eval_int_arg(&args[0], env)?;
            let cols = eval_int_arg(&args[1], env)?;
            let output = OutputKind::Matrix { rows, cols };
            match plan_matrix_body(body, env, config, (rows, cols)) {
                Ok(plan) => Planned { plan, output },
                Err(e) => fallback(&expr, output, config, e)?,
            }
        }
        Expr::Build {
            builder,
            args,
            body,
        } if builder == "tiled_vector" && args.len() == 1 => {
            let len = eval_int_arg(&args[0], env)?;
            let output = OutputKind::Vector { len };
            match plan_vector_body(body, env, config, len) {
                Ok(plan) => Planned { plan, output },
                Err(e) => fallback(&expr, output, config, e)?,
            }
        }
        other => {
            let output = OutputKind::Local;
            fallback(
                other,
                output,
                config,
                CompError::plan("not a tiled builder"),
            )?
        }
    };
    Ok(planned)
}

fn fallback(
    expr: &Expr,
    output: OutputKind,
    config: &PlanConfig,
    cause: CompError,
) -> Result<Planned, CompError> {
    if !config.allow_local_fallback {
        return Err(CompError::plan(format!(
            "no distributed plan applies and local fallback is disabled: {}",
            cause.message
        )));
    }
    Ok(Planned {
        plan: Plan::LocalFallback {
            expr: expr.clone(),
            cause,
        },
        output,
    })
}

/// Builder–sparsifier fusion: drop every builder whose list is provably
/// total, unique and in bounds, then normalize so rule (3) inlines the inner
/// comprehension. `None` when no builder qualifies.
fn fuse_builders(expr: &Expr, env: &PlanEnv) -> Option<Expr> {
    let mut fired = false;
    let fused = drop_total_builders(expr.clone(), env, &mut fired);
    fired.then(|| normalize(fused))
}

/// Bottom-up, so an inner builder is dropped before the builder around it
/// is checked.
fn drop_total_builders(e: Expr, env: &PlanEnv, fired: &mut bool) -> Expr {
    let mut c = match map_subexprs(e, &mut |x| drop_total_builders(x, env, fired)) {
        Expr::Comprehension(c) => c,
        other => return other,
    };
    for q in &mut c.qualifiers {
        if let Qualifier::Generator(p, src) = q {
            if let Some(body) = total_builder_body(p, src, env) {
                *src = body;
                *fired = true;
            }
        }
    }
    Expr::Comprehension(c)
}

/// The body of `src`, normalized, when `p <- src` may read it instead of
/// the builder: `src` is `tiled(r,c)[ e | q ]` with `p = ((i,j),x)`, or
/// `tiled_vector(n)[ e | q ]` with `p = (i,x)`, and the list of `[ e | q ]`
/// is total, unique and in bounds. Then the dense sparsifier yields exactly
/// that list: zero-fill and the out-of-bounds drop never fire.
fn total_builder_body(p: &Pattern, src: &Expr, env: &PlanEnv) -> Option<Expr> {
    let Expr::Build {
        builder,
        args,
        body,
    } = src
    else {
        return None;
    };
    let body = normalize((**body).clone());
    let Expr::Comprehension(inner) = &body else {
        return None;
    };
    let d = decompose(&inner.head, &inner.qualifiers, &gen_kind(env)).ok()?;
    if d.group_by.is_some() || !d.range_gens.is_empty() || !d.other_guards.is_empty() {
        return None;
    }
    let head = inline_lets(&d.head, &d.lets);
    let (key, _) = split_head(&head).ok()?;
    let var = |p: &Pattern| matches!(p, Pattern::Var(_));
    let total = match (builder.as_str(), args.as_slice(), p) {
        ("tiled", [r, c], Pattern::Tuple(kx)) => {
            matches!(kx.as_slice(), [Pattern::Tuple(ij), x]
                if var(x) && ij.len() == 2 && ij.iter().all(var))
                && total_matrix_list(
                    &d,
                    key,
                    (eval_int_arg(r, env).ok()?, eval_int_arg(c, env).ok()?),
                    env,
                )
        }
        ("tiled_vector", [n], Pattern::Tuple(ix)) => {
            ix.len() == 2
                && ix.iter().all(var)
                && total_vector_list(&d, key, eval_int_arg(n, env).ok()?, env)
        }
        _ => false,
    };
    total.then_some(body)
}

/// No variable is bound twice, by generators or lets, and every equality
/// guard joins two index variables.
fn binds_once_and_joins_indices(d: &Decomposed) -> bool {
    let index: Vec<&String> = d
        .matrix_gens
        .iter()
        .flat_map(|g| [&g.row, &g.col])
        .chain(d.vector_gens.iter().map(|g| &g.idx))
        .collect();
    let bound: Vec<&String> = index
        .iter()
        .copied()
        .chain(d.matrix_gens.iter().map(|g| &g.val))
        .chain(d.vector_gens.iter().map(|g| &g.val))
        .chain(d.lets.iter().map(|(n, _)| n))
        .collect();
    bound
        .iter()
        .enumerate()
        .all(|(k, v)| !bound[..k].contains(v))
        && d.var_equalities
            .iter()
            .all(|(x, y)| index.contains(&x) && index.contains(&y))
}

/// `d` lists every cell of an `r x c` matrix exactly once: registered
/// matrices joined on both indices (rule 14), keyed by those indices
/// (possibly swapped), each of the builder's shape.
fn total_matrix_list(d: &Decomposed, key: &Expr, dims: (i64, i64), env: &PlanEnv) -> bool {
    let inputs: Vec<String> = d.matrix_gens.iter().map(|g| g.name.clone()).collect();
    !inputs.is_empty()
        && d.vector_gens.is_empty()
        && binds_once_and_joins_indices(d)
        && eltwise_key(d, key)
            .is_ok_and(|(_, transposed)| eltwise_matrices(env, &inputs, transposed, dims).is_ok())
}

/// `d` lists every index of a length-`n` vector exactly once: registered
/// vectors joined on their index, keyed by it, each of length `n`.
fn total_vector_list(d: &Decomposed, key: &Expr, n: i64, env: &PlanEnv) -> bool {
    let inputs: Vec<String> = d.vector_gens.iter().map(|g| g.name.clone()).collect();
    !inputs.is_empty()
        && d.matrix_gens.is_empty()
        && binds_once_and_joins_indices(d)
        && vector_eltwise_key(d, key).is_ok()
        && eltwise_vectors(env, &inputs, n).is_ok()
}

fn eval_int_arg(e: &Expr, env: &PlanEnv) -> Result<i64, CompError> {
    let mut cenv = comp::Env::new();
    for name in e.free_vars() {
        if let Some(v) = env.scalar(&name) {
            cenv.bind(name.clone(), v.clone());
        }
    }
    comp::eval(e, &mut cenv)?.as_i64()
}

fn body_comprehension(body: &Expr) -> Result<&comp::Comprehension, CompError> {
    match body {
        Expr::Comprehension(c) => Ok(c),
        _ => Err(CompError::plan("builder body must be a comprehension")),
    }
}

/// Head must be `(key, value)`.
fn split_head(head: &Expr) -> Result<(&Expr, &Expr), CompError> {
    match head {
        Expr::Tuple(items) if items.len() == 2 => Ok((&items[0], &items[1])),
        other => Err(CompError::plan(format!(
            "head must be a (key, value) pair: {other}"
        ))),
    }
}

fn gen_kind(env: &PlanEnv) -> impl Fn(&str) -> GenKind + '_ {
    |n: &str| match env.array(n) {
        Some(DistArray::Matrix(_)) => GenKind::Matrix,
        Some(DistArray::Vector(_)) => GenKind::Vector,
        _ => GenKind::Unknown,
    }
}

fn plan_matrix_body(
    body: &Expr,
    env: &PlanEnv,
    config: &PlanConfig,
    dims: (i64, i64),
) -> Result<Plan, CompError> {
    let c = body_comprehension(body)?;
    let d = decompose(&c.head, &c.qualifiers, &gen_kind(env))?;
    if d.post_group_quals > 0 {
        return Err(CompError::plan(
            "qualifiers after group-by are not supported by distributed plans",
        ));
    }
    if d.group_by.is_none() {
        if let Ok(p) = plan_eltwise(&d, env, config, dims) {
            return Ok(p);
        }
        return plan_index_remap(&d, env);
    }
    if let Ok(p) = plan_contraction(&d, env, config) {
        return Ok(p);
    }
    plan_group_by_aggregate(&d, env, GroupShape::Matrix)
}

fn plan_vector_body(
    body: &Expr,
    env: &PlanEnv,
    config: &PlanConfig,
    len: i64,
) -> Result<Plan, CompError> {
    let c = body_comprehension(body)?;
    let d = decompose(&c.head, &c.qualifiers, &gen_kind(env))?;
    if d.post_group_quals > 0 {
        return Err(CompError::plan(
            "qualifiers after group-by are not supported by distributed plans",
        ));
    }
    if let Ok(p) = plan_axis_reduce(&d, env) {
        return Ok(p);
    }
    if let Ok(p) = plan_mat_vec(&d, env, config) {
        return Ok(p);
    }
    if let Ok(p) = plan_vector_eltwise(&d, env, len) {
        return Ok(p);
    }
    plan_group_by_aggregate(&d, env, GroupShape::Vector)
}

/// §5.1 rule 17 (plus the trace-and-fuse pass when the region qualifies).
fn plan_eltwise(
    d: &Decomposed,
    env: &PlanEnv,
    config: &PlanConfig,
    dims: (i64, i64),
) -> Result<Plan, CompError> {
    if d.matrix_gens.is_empty()
        || !d.vector_gens.is_empty()
        || !d.range_gens.is_empty()
        || d.group_by.is_some()
    {
        return Err(CompError::plan("not an element-wise comprehension"));
    }
    let head = inline_lets(&d.head, &d.lets);
    let (key, value_expr) = split_head(&head)?;
    let (classes, transposed) = eltwise_key(d, key)?;
    // Equalities between non-index (value) variables are filters, not join
    // keys — keep them as guards.
    let index_vars: Vec<&String> = d
        .matrix_gens
        .iter()
        .flat_map(|g| [&g.row, &g.col])
        .collect();
    let mut extra_guards: Vec<Expr> = Vec::new();
    for (x, y) in &d.var_equalities {
        if !index_vars.contains(&x) || !index_vars.contains(&y) {
            extra_guards.push(Expr::BinOp(
                comp::BinOp::Eq,
                Box::new(Expr::Var(x.clone())),
                Box::new(Expr::Var(y.clone())),
            ));
        }
    }
    let inputs: Vec<String> = d.matrix_gens.iter().map(|g| g.name.clone()).collect();
    eltwise_matrices(env, &inputs, transposed, dims)?;

    // Slots: all value vars (and their equality aliases resolve to the same
    // slot via class representatives), then row, then col.
    let mut slots: Vec<String> = d.matrix_gens.iter().map(|g| g.val.clone()).collect();
    slots.push(d.matrix_gens[0].row.clone());
    slots.push(d.matrix_gens[0].col.clone());
    // Rewrite index aliases to the canonical generator's names.
    let canon = |e: &Expr| canonicalize_vars(e, d, &classes);
    let consts = |v: &str| env.float_scalar(v);
    let value = ScalarFn::compile(&canon(value_expr), &slots, &consts)?;
    let all_guards: Vec<Expr> = d.other_guards.iter().cloned().chain(extra_guards).collect();
    let guard_expr = match all_guards.as_slice() {
        [] => None,
        guards => {
            let mut conj = canon(&guards[0]);
            for g in &guards[1..] {
                conj = Expr::BinOp(comp::BinOp::And, Box::new(conj), Box::new(canon(g)));
            }
            Some(conj)
        }
    };
    let guard = guard_expr
        .as_ref()
        .map(|c| ScalarFn::compile(c, &slots, &consts))
        .transpose()?;
    if config.fuse_eltwise {
        if let Some(program) = crate::fuse::fuse_region(inputs.len(), &value, guard.as_ref()) {
            // Source op tags (post-order over the canonicalized head value,
            // then the guard region) for the `region_fused` event.
            let mut region_ops: Vec<String> = canon(value_expr)
                .op_sequence()
                .into_iter()
                .map(str::to_string)
                .collect();
            if let Some(conj) = &guard_expr {
                region_ops.extend(conj.op_sequence().into_iter().map(str::to_string));
                region_ops.push("select".to_string());
            }
            return Ok(Plan::FusedEltwise {
                inputs,
                transposed,
                program,
                region_ops,
            });
        }
    }
    Ok(Plan::Eltwise {
        inputs,
        transposed,
        value,
        guard,
    })
}

/// Rule 14 over an elementwise matrix body: every generator is joined on
/// both indices (not a diagonal) and the head key is those indices,
/// possibly swapped. Returns the index classes and whether the key is
/// swapped (a transpose).
fn eltwise_key(d: &Decomposed, key: &Expr) -> Result<(VarClasses, bool), CompError> {
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let row_class = classes.find(&d.matrix_gens[0].row);
    let col_class = classes.find(&d.matrix_gens[0].col);
    if row_class == col_class {
        return Err(CompError::plan("row and column indices equated (diagonal)"));
    }
    for g in &d.matrix_gens {
        if classes.find(&g.row) != row_class || classes.find(&g.col) != col_class {
            return Err(CompError::plan("generators are not joined on both indices"));
        }
    }
    let Expr::Tuple(kij) = key else {
        return Err(CompError::plan("matrix head key must be (i, j)"));
    };
    let [Expr::Var(ka), Expr::Var(kb)] = kij.as_slice() else {
        return Err(CompError::plan("matrix head key must be index variables"));
    };
    let transposed = if classes.find(ka) == row_class && classes.find(kb) == col_class {
        false
    } else if classes.find(ka) == col_class && classes.find(kb) == row_class {
        true
    } else {
        return Err(CompError::plan("head key is not the generator indices"));
    };
    Ok((classes, transposed))
}

/// The registered matrices of an elementwise region. They must share
/// dimensions and tiling, and their shape (transposed if the head swaps the
/// indices) must be the builder's `(rows, cols)`. The planner checks this
/// before it picks an elementwise plan, so a mismatch falls back; the
/// executor checks it again against the arrays bound when the plan runs.
pub(crate) fn eltwise_matrices<'a>(
    env: &'a PlanEnv,
    inputs: &[String],
    transposed: bool,
    (rows, cols): (i64, i64),
) -> Result<Vec<&'a tiled::TiledMatrix>, CompError> {
    let mats: Vec<&tiled::TiledMatrix> = inputs
        .iter()
        .map(|n| {
            env.array(n)
                .and_then(DistArray::as_matrix)
                .ok_or_else(|| CompError::plan(format!("`{n}` is not a registered tiled matrix")))
        })
        .collect::<Result<_, _>>()?;
    let first = mats[0];
    if mats.iter().any(|m| !m.same_shape(first)) {
        return Err(CompError::plan(
            "element-wise inputs must have identical dimensions and tiling",
        ));
    }
    let expected = if transposed {
        (first.cols(), first.rows())
    } else {
        (first.rows(), first.cols())
    };
    if expected != (rows, cols) {
        return Err(CompError::plan(format!(
            "builder dimensions ({rows},{cols}) do not match input dimensions {expected:?}"
        )));
    }
    Ok(mats)
}

/// Rewrite each index variable to its class representative (the first
/// generator's index with that class, in generator order) so slot lookup
/// finds it.
fn canonicalize_vars(e: &Expr, d: &Decomposed, classes: &VarClasses) -> Expr {
    let all_idx: Vec<String> = d
        .matrix_gens
        .iter()
        .flat_map(|g| [g.row.clone(), g.col.clone()])
        .collect();
    let mut reps: Vec<(String, String)> = Vec::new();
    for idx in &all_idx {
        let class = classes.find(idx);
        if !reps.iter().any(|(c, _)| *c == class) {
            reps.push((class, idx.clone()));
        }
    }
    let mut out = e.clone();
    for idx in &all_idx {
        let class = classes.find(idx);
        let rep = &reps
            .iter()
            .find(|(c, _)| *c == class)
            .expect("representative registered")
            .1;
        if idx != rep {
            out = crate::analysis::substitute(&out, idx, &Expr::Var(rep.clone()));
        }
    }
    out
}

/// §5.3/§5.4 contraction.
fn plan_contraction(d: &Decomposed, env: &PlanEnv, config: &PlanConfig) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 2
        || !d.vector_gens.is_empty()
        || !d.range_gens.is_empty()
        || !d.other_guards.is_empty()
    {
        return Err(CompError::plan("not a contraction comprehension"));
    }
    if d.var_equalities.len() != 1 {
        return Err(CompError::plan(
            "contraction requires exactly the contracted-index equality",
        ));
    }
    let Some((Pattern::Tuple(kp), None)) = &d.group_by else {
        return Err(CompError::plan("contraction requires `group by (i,j)`"));
    };
    let [Pattern::Var(kx), Pattern::Var(ky)] = kp.as_slice() else {
        return Err(CompError::plan("contraction key must be two variables"));
    };
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let (a, b) = (&d.matrix_gens[0], &d.matrix_gens[1]);

    // Find the contracted pair: one index of a equated with one index of b.
    let mut contracted: Option<(bool, bool)> = None; // (a_row_contracted, b_col_contracted)
    for (a_idx, a_is_row) in [(&a.row, true), (&a.col, false)] {
        for (b_idx, b_is_row) in [(&b.row, true), (&b.col, false)] {
            if classes.same(a_idx, b_idx) {
                if contracted.is_some() {
                    return Err(CompError::plan("more than one contracted index pair"));
                }
                contracted = Some((a_is_row, !b_is_row));
            }
        }
    }
    let Some((left_contract_row, right_contract_col)) = contracted else {
        return Err(CompError::plan("no contracted index pair"));
    };
    let a_free = if left_contract_row { &a.col } else { &a.row };
    let b_free = if right_contract_col { &b.row } else { &b.col };

    let swap_output = if classes.same(kx, a_free) && classes.same(ky, b_free) {
        false
    } else if classes.same(kx, b_free) && classes.same(ky, a_free) {
        true
    } else {
        return Err(CompError::plan(
            "group-by key is not the pair of free indices",
        ));
    };

    let head = inline_lets(&d.head, &d.lets);
    let (_key, value) = split_head(&head)?;
    let Expr::Reduce(Monoid::Sum, inner) = value else {
        return Err(CompError::plan(
            "contraction head must be a sum reduction `+/v`",
        ));
    };
    let slots = vec![a.val.clone(), b.val.clone()];
    let value = ScalarFn::compile(inner, &slots, &|v| env.float_scalar(v))?;
    let (strategy, decision) = choose_contraction_strategy(
        env,
        config,
        &a.name,
        &b.name,
        left_contract_row,
        right_contract_col,
    );
    Ok(Plan::Contraction {
        left: a.name.clone(),
        right: b.name.clone(),
        left_contract_row,
        right_contract_col,
        swap_output,
        value,
        strategy,
        decision,
    })
}

// ---------------------------------------------------------------------------
// Cost-based strategy selection.
// ---------------------------------------------------------------------------

/// Fixed per-shuffle-round cost, in byte equivalents. A pure byte model
/// never prefers the fewer-round group-by-join on small grids (its
/// replicated join input weighs at least as much as reduceByKey's combined
/// output there), so each shuffle barrier also pays this latency proxy.
const ROUND_COST: u64 = 16 << 10;

/// Nominal partition count for cost estimation when autotuning defers the
/// real choice to execution time.
pub(crate) fn nominal_partitions(config: &PlanConfig) -> u64 {
    if config.partitions > 0 {
        config.partitions as u64
    } else {
        8
    }
}

/// Estimated costs (shuffle bytes + round latency) of every eligible
/// contraction strategy, in tie-break preference order. Also re-invoked by
/// the adaptive stage driver with measured stats overlaid on `env`.
pub(crate) fn contraction_candidates(
    env: &PlanEnv,
    config: &PlanConfig,
    left: &str,
    right: &str,
    left_contract_row: bool,
    right_contract_col: bool,
) -> Vec<(MatMulStrategy, u64)> {
    let (Some(sa), Some(sb)) = (env.stats(left), env.stats(right)) else {
        return Vec::new();
    };
    // Block-grid shape after orienting the contraction: `bra` free blocks on
    // the left, `bcb` on the right, `k` contracted blocks.
    let (bra, k) = if left_contract_row {
        (sa.block_cols as u64, sa.block_rows as u64)
    } else {
        (sa.block_rows as u64, sa.block_cols as u64)
    };
    let bcb = if right_contract_col {
        sb.block_rows as u64
    } else {
        sb.block_cols as u64
    };
    let out_tiles = bra * bcb;
    let tile = ArrayStats::dense_tile_bytes(sa.tile_size.max(sb.tile_size));
    let (tiles_a, wa) = (sa.num_tiles(), sa.tile_wire_bytes());
    let (tiles_b, wb) = (sb.num_tiles(), sb.tile_wire_bytes());
    let p = nominal_partitions(config);

    let mut out = Vec::new();
    // Broadcast: ship the small side everywhere, partial tiles map-side,
    // one combine round. Eligible only under the byte budget.
    let small = sa.estimated_bytes.min(sb.estimated_bytes);
    if small <= config.broadcast_budget {
        out.push((
            MatMulStrategy::Broadcast,
            small + out_tiles * tile + ROUND_COST,
        ));
    }
    // Group-by-join (§5.4): each side replicated across the other's free
    // blocks, one cogroup round.
    out.push((
        MatMulStrategy::GroupByJoin,
        tiles_a * wa * bcb + tiles_b * wb * bra + 2 * ROUND_COST,
    ));
    // Join + reduceByKey (§5.3): both sides shuffled once for the join,
    // partial products map-side combined down to at most min(p, k) partial
    // tiles per output coordinate.
    out.push((
        MatMulStrategy::ReduceByKey,
        tiles_a * wa + tiles_b * wb + out_tiles * p.min(k) * tile + 3 * ROUND_COST,
    ));
    // Join + groupByKey (§4): every elementary tile product crosses the wire
    // uncombined.
    out.push((
        MatMulStrategy::JoinGroupBy,
        tiles_a * wa + tiles_b * wb + bra * k * bcb * tile + 3 * ROUND_COST,
    ));
    out
}

/// Resolve the configured contraction strategy: pinned configs are honored
/// verbatim; [`MatMulStrategy::Auto`] picks the cheapest candidate.
fn choose_contraction_strategy(
    env: &PlanEnv,
    config: &PlanConfig,
    left: &str,
    right: &str,
    left_contract_row: bool,
    right_contract_col: bool,
) -> (MatMulStrategy, PlanDecision) {
    let candidates = contraction_candidates(
        env,
        config,
        left,
        right,
        left_contract_row,
        right_contract_col,
    );
    let (strategy, auto) = match config.matmul {
        MatMulStrategy::Auto => {
            // First strictly-cheapest candidate wins; the preference order of
            // `contraction_candidates` breaks ties toward fewer rounds.
            let best = candidates
                .iter()
                .copied()
                .min_by_key(|&(_, cost)| cost)
                .map(|(s, _)| s)
                .unwrap_or(MatMulStrategy::GroupByJoin);
            (best, true)
        }
        pinned => (pinned, false),
    };
    let est = candidates
        .iter()
        .find(|(s, _)| *s == strategy)
        .map(|&(_, c)| c)
        .unwrap_or(0);
    let decision = PlanDecision {
        chosen: contraction_tag(strategy),
        auto,
        est_shuffle_bytes: est,
        candidates: candidates
            .into_iter()
            .map(|(s, c)| (contraction_tag(s), c))
            .collect(),
    };
    (strategy, decision)
}

/// Fig. 1 axis reduction.
fn plan_axis_reduce(d: &Decomposed, env: &PlanEnv) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1
        || !d.vector_gens.is_empty()
        || !d.range_gens.is_empty()
        || !d.other_guards.is_empty()
        || !d.var_equalities.is_empty()
    {
        return Err(CompError::plan("not an axis reduction"));
    }
    let Some((Pattern::Var(k), None)) = &d.group_by else {
        return Err(CompError::plan("axis reduction requires `group by i`"));
    };
    let g = &d.matrix_gens[0];
    let by_row = if k == &g.row {
        true
    } else if k == &g.col {
        false
    } else {
        return Err(CompError::plan("group-by key is not a generator index"));
    };
    let head = inline_lets(&d.head, &d.lets);
    let (key, value) = split_head(&head)?;
    if key != &Expr::Var(k.clone()) {
        return Err(CompError::plan("head key must be the group-by index"));
    }
    let Expr::Reduce(monoid, inner) = value else {
        return Err(CompError::plan("head value must be a reduction"));
    };
    let slots = vec![g.val.clone(), g.row.clone(), g.col.clone()];
    let value = ScalarFn::compile(inner, &slots, &|v| env.float_scalar(v))?;
    Ok(Plan::AxisReduce {
        input: g.name.clone(),
        by_row,
        monoid: *monoid,
        value,
    })
}

/// §5.2 rule 19.
fn plan_index_remap(d: &Decomposed, env: &PlanEnv) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1
        || !d.vector_gens.is_empty()
        || !d.range_gens.is_empty()
        || d.group_by.is_some()
        || !d.other_guards.is_empty()
    {
        return Err(CompError::plan("not an index remap"));
    }
    let g = &d.matrix_gens[0];
    let head = inline_lets(&d.head, &d.lets);
    let (key, value) = split_head(&head)?;
    let Expr::Tuple(kij) = key else {
        return Err(CompError::plan("matrix head key must be a pair"));
    };
    let [e1, e2] = kij.as_slice() else {
        return Err(CompError::plan("matrix head key must be a pair"));
    };
    let idx_slots = vec![g.row.clone(), g.col.clone()];
    let iconsts = |v: &str| env.int_scalar(v);
    let fi = IdxFn::compile(e1, &idx_slots, &iconsts)?;
    let fj = IdxFn::compile(e2, &idx_slots, &iconsts)?;
    let val_slots = vec![g.val.clone(), g.row.clone(), g.col.clone()];
    let value = ScalarFn::compile(value, &val_slots, &|v| env.float_scalar(v))?;
    Ok(Plan::IndexRemap {
        input: g.name.clone(),
        fi,
        fj,
        value,
    })
}

/// Matrix–vector contraction: one matrix generator, one vector generator,
/// joined on one matrix index, grouped by the other.
fn plan_mat_vec(d: &Decomposed, env: &PlanEnv, config: &PlanConfig) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1
        || d.vector_gens.len() != 1
        || !d.range_gens.is_empty()
        || !d.other_guards.is_empty()
        || d.var_equalities.len() != 1
    {
        return Err(CompError::plan("not a matrix-vector contraction"));
    }
    let Some((Pattern::Var(g), None)) = &d.group_by else {
        return Err(CompError::plan("matrix-vector requires `group by i`"));
    };
    let m = &d.matrix_gens[0];
    let v = &d.vector_gens[0];
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let contract_row = if classes.same(&m.col, &v.idx) {
        false
    } else if classes.same(&m.row, &v.idx) {
        true
    } else {
        return Err(CompError::plan(
            "vector index is not joined with the matrix",
        ));
    };
    let free = if contract_row { &m.col } else { &m.row };
    if !classes.same(g, free) {
        return Err(CompError::plan("group-by key is not the free matrix index"));
    }
    let head = inline_lets(&d.head, &d.lets);
    let (key, value) = split_head(&head)?;
    if key != &Expr::Var(g.clone()) {
        return Err(CompError::plan("head key must be the group-by index"));
    }
    let Expr::Reduce(Monoid::Sum, inner) = value else {
        return Err(CompError::plan("matrix-vector head must be `+/v`"));
    };
    let slots = vec![m.val.clone(), v.val.clone()];
    let value = ScalarFn::compile(inner, &slots, &|x| env.float_scalar(x))?;
    let (broadcast, decision) = choose_mat_vec_path(env, config, &m.name, &v.name, contract_row);
    Ok(Plan::MatVec {
        matrix: m.name.clone(),
        vector: v.name.clone(),
        contract_row,
        value,
        broadcast,
        decision,
    })
}

/// Estimated costs of both mat-vec paths, in tie-break preference order
/// (broadcast first when it fits the budget). Also re-invoked by the
/// adaptive stage driver with measured stats overlaid on `env`.
pub(crate) fn mat_vec_candidates(
    env: &PlanEnv,
    config: &PlanConfig,
    matrix: &str,
    vector: &str,
    contract_row: bool,
) -> Vec<(&'static str, u64)> {
    let mut candidates: Vec<(&'static str, u64)> = Vec::new();
    if let (Some(sm), Some(sv)) = (env.stats(matrix), env.stats(vector)) {
        let out_blocks = if contract_row {
            sm.block_cols as u64
        } else {
            sm.block_rows as u64
        };
        let k = if contract_row {
            sm.block_rows as u64
        } else {
            sm.block_cols as u64
        };
        let block = ArrayStats::block_bytes(sm.tile_size);
        if sv.estimated_bytes <= config.broadcast_budget {
            // Collect + broadcast the vector, merge partials on the driver:
            // zero shuffle rounds.
            candidates.push(("matVec/broadcast", sv.estimated_bytes + out_blocks * block));
        }
        candidates.push((
            "matVec",
            sm.num_tiles() * sm.tile_wire_bytes()
                + sv.estimated_bytes
                + out_blocks * nominal_partitions(config).min(k) * block
                + 3 * ROUND_COST,
        ));
    }
    candidates
}

/// Physical path for a matrix–vector contraction: broadcast the vector when
/// it fits the budget (no shuffle at all), else join + reduceByKey. A pinned
/// `matmul` strategy pins the analogous mat-vec path.
fn choose_mat_vec_path(
    env: &PlanEnv,
    config: &PlanConfig,
    matrix: &str,
    vector: &str,
    contract_row: bool,
) -> (bool, PlanDecision) {
    let candidates = mat_vec_candidates(env, config, matrix, vector, contract_row);
    let (broadcast, auto) = match config.matmul {
        MatMulStrategy::Auto => {
            let best = candidates.iter().copied().min_by_key(|&(_, c)| c);
            (matches!(best, Some(("matVec/broadcast", _))), true)
        }
        MatMulStrategy::Broadcast => (true, false),
        _ => (false, false),
    };
    let chosen = if broadcast {
        "matVec/broadcast"
    } else {
        "matVec"
    };
    let est = candidates
        .iter()
        .find(|(tag, _)| *tag == chosen)
        .map(|&(_, c)| c)
        .unwrap_or(0);
    (
        broadcast,
        PlanDecision {
            chosen,
            auto,
            est_shuffle_bytes: est,
            candidates,
        },
    )
}

/// Element-wise over vectors joined on their index.
fn plan_vector_eltwise(d: &Decomposed, env: &PlanEnv, len: i64) -> Result<Plan, CompError> {
    if d.vector_gens.is_empty()
        || !d.matrix_gens.is_empty()
        || !d.range_gens.is_empty()
        || d.group_by.is_some()
    {
        return Err(CompError::plan("not a vector element-wise comprehension"));
    }
    let head = inline_lets(&d.head, &d.lets);
    let (key, value) = split_head(&head)?;
    vector_eltwise_key(d, key)?;
    let inputs: Vec<String> = d.vector_gens.iter().map(|g| g.name.clone()).collect();
    eltwise_vectors(env, &inputs, len)?;
    // Canonicalize index aliases to the first generator's name.
    let canon_idx = d.vector_gens[0].idx.clone();
    let canon = |e: &Expr| {
        let mut out = e.clone();
        for g in &d.vector_gens[1..] {
            out = crate::analysis::substitute(&out, &g.idx, &Expr::Var(canon_idx.clone()));
        }
        out
    };
    let mut slots: Vec<String> = d.vector_gens.iter().map(|g| g.val.clone()).collect();
    slots.push(canon_idx.clone());
    let consts = |x: &str| env.float_scalar(x);
    let value = ScalarFn::compile(&canon(value), &slots, &consts)?;
    let guard = match d.other_guards.as_slice() {
        [] => None,
        guards => {
            let mut conj = canon(&guards[0]);
            for g in &guards[1..] {
                conj = Expr::BinOp(comp::BinOp::And, Box::new(conj), Box::new(canon(g)));
            }
            Some(ScalarFn::compile(&conj, &slots, &consts)?)
        }
    };
    Ok(Plan::VectorEltwise {
        inputs,
        value,
        guard,
    })
}

/// Rule 14 over an elementwise vector body: every generator is joined on
/// its index and the head key is that index.
fn vector_eltwise_key(d: &Decomposed, key: &Expr) -> Result<(), CompError> {
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let idx_class = classes.find(&d.vector_gens[0].idx);
    for g in &d.vector_gens {
        if classes.find(&g.idx) != idx_class {
            return Err(CompError::plan("vector generators are not joined on index"));
        }
    }
    let Expr::Var(k) = key else {
        return Err(CompError::plan(
            "vector head key must be the index variable",
        ));
    };
    if classes.find(k) != idx_class {
        return Err(CompError::plan("head key is not the generator index"));
    }
    Ok(())
}

/// The registered vectors of an elementwise vector region. They must share
/// length and blocking, and the length must be the builder's; checked by
/// the planner and the executor like [`eltwise_matrices`].
pub(crate) fn eltwise_vectors<'a>(
    env: &'a PlanEnv,
    inputs: &[String],
    len: i64,
) -> Result<Vec<&'a tiled::TiledVector>, CompError> {
    let vecs: Vec<&tiled::TiledVector> = inputs
        .iter()
        .map(|n| {
            env.array(n)
                .and_then(DistArray::as_vector)
                .ok_or_else(|| CompError::plan(format!("`{n}` is not a registered tiled vector")))
        })
        .collect::<Result<_, _>>()?;
    let first = vecs[0];
    if vecs
        .iter()
        .any(|v| v.len() != first.len() || v.block_size() != first.block_size())
    {
        return Err(CompError::plan(
            "element-wise vector inputs must have identical length and blocking",
        ));
    }
    if first.len() != len {
        return Err(CompError::plan(format!(
            "builder length {len} does not match input length {}",
            first.len()
        )));
    }
    Ok(vecs)
}

enum GroupShape {
    Matrix,
    Vector,
}

/// §5.3 generic group-by aggregation (stencils, histograms).
fn plan_group_by_aggregate(
    d: &Decomposed,
    _env: &PlanEnv,
    shape: GroupShape,
) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1 || !d.vector_gens.is_empty() {
        return Err(CompError::plan(
            "generic group-by plan requires exactly one tiled matrix generator",
        ));
    }
    let g = &d.matrix_gens[0];
    let Some((key_pat, key_expr)) = &d.group_by else {
        return Err(CompError::plan("generic group-by plan requires a group-by"));
    };
    let key = match (shape, key_pat) {
        (GroupShape::Matrix, Pattern::Tuple(kp)) => {
            let [Pattern::Var(k1), Pattern::Var(k2)] = kp.as_slice() else {
                return Err(CompError::plan("matrix group key must be two variables"));
            };
            GroupKey::Cell(k1.clone(), k2.clone())
        }
        (GroupShape::Vector, Pattern::Var(k)) => GroupKey::Index(k.clone()),
        _ => return Err(CompError::plan("group key shape does not match builder")),
    };
    let head = inline_lets(&d.head, &d.lets);
    let (_key_part, value_part) = split_head(&head)?;
    let (finalizer, aggregates) = extract_aggregates(value_part);
    if aggregates.is_empty() {
        return Err(CompError::plan("group-by head has no aggregates"));
    }
    // Reconstruct the inner qualifiers between the generator and group-by:
    // range generators, lets, and guards, in a deterministic order (ranges,
    // lets, then guards — ranges and lets only depend on earlier bindings in
    // well-formed comprehensions).
    let mut inner_quals: Vec<Qualifier> = Vec::new();
    for r in &d.range_gens {
        inner_quals.push(Qualifier::Generator(
            Pattern::Var(r.var.clone()),
            Expr::Range {
                lo: Box::new(r.lo.clone()),
                hi: Box::new(r.hi.clone()),
                inclusive: r.inclusive,
            },
        ));
    }
    for (n, e) in &d.lets {
        inner_quals.push(Qualifier::Let(Pattern::Var(n.clone()), e.clone()));
    }
    for (x, y) in &d.var_equalities {
        inner_quals.push(Qualifier::Guard(Expr::BinOp(
            comp::BinOp::Eq,
            Box::new(Expr::Var(x.clone())),
            Box::new(Expr::Var(y.clone())),
        )));
    }
    for gd in &d.other_guards {
        inner_quals.push(Qualifier::Guard(gd.clone()));
    }
    Ok(Plan::GroupByAggregate {
        input: g.name.clone(),
        gen_vars: (g.row.clone(), g.col.clone(), g.val.clone()),
        inner_quals,
        key,
        key_expr: key_expr.clone(),
        aggregates,
        finalizer,
    })
}
