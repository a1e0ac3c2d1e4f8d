//! `fig4-batch` and `shuffle-procs`: the paper's §6 programs run in a closed
//! loop by one client.
//!
//! A *round* is `A+B` (fig4-batch only), `A·B`, and one factorization step,
//! each collected to the driver. Before each round the client re-ingests
//! input `A` (a *write*: cut a local matrix into tiles and hand it to the
//! runtime); the write is timed on its own and is not part of the round.

use crate::report::{self, median, percentile, Metrics, Outcome, RunResult};
use crate::spans::Tracer;
use crate::{nproc, probes, RunConfig, Workload, OP_TIMEOUT, SETUP_REPS, STORAGE_BUDGET};
use comp::CompError;
use planner::{DistArray, ExecResult, PlanEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sac::Session;
use sparkline::JobProfile;
use std::time::{Duration, Instant};
use tiled::{LocalMatrix, TiledMatrix};

/// Tile side of every batch matrix.
pub const TILE: usize = 64;
/// Factorization step size and regularization (the paper's §6 values).
pub const GAMMA: f64 = 0.002;
pub const LAMBDA: f64 = 0.02;
/// Tolerance of the non-bitwise checks: `|got - want| <= REL_TOL * max|want|`
/// element-wise. Tile kernels sum in another order than the naive reference,
/// so products agree to rounding, not bitwise; `A+B` is compared bitwise.
pub const REL_TOL: f64 = 1e-10;

pub const ADD_SRC: &str =
    "tiled(n,m)[ ((i,j), a+b) | ((i,j),a) <- X0, ((ii,jj),b) <- X1, ii == i, jj == j ]";
pub const SUB_SRC: &str =
    "tiled(n,m)[ ((i,j), a-b) | ((i,j),a) <- X0, ((ii,jj),b) <- X1, ii == i, jj == j ]";
pub const MUL_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- X0, ((kk,j),b) <- X1, \
     kk == k, let v = a*b, group by (i,j) ]";
pub const MUL_BT_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- X0, ((j,kk),b) <- X1, \
     kk == k, let v = a*b, group by (i,j) ]";
pub const MUL_AT_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((k,i),a) <- X0, ((kk,j),b) <- X1, \
     kk == k, let v = a*b, group by (i,j) ]";
pub const P_UPDATE_SRC: &str = "tiled(n,m)[ ((i,j), p + gamma*(2.0*e - lambda*p)) | \
     ((i,j),p) <- X0, ((ii,jj),e) <- X1, ii == i, jj == j ]";
pub const Q_UPDATE_SRC: &str = "tiled(n,m)[ ((i,j), q + gamma*(2.0*e - lambda*q)) | \
     ((i,j),q) <- X0, ((ii,jj),e) <- X1, ii == i, jj == j ]";

/// Shape of a batch workload.
#[derive(Clone, Copy, Debug)]
pub struct BatchSpec {
    /// Side of `A`, `B` and `R`.
    pub n: usize,
    /// Rank of the factorization (`P`, `Q` are `n x k`).
    pub k: usize,
    pub with_add: bool,
    /// Shuffle worker processes (0 = in-process shuffle).
    pub worker_procs: usize,
}

impl BatchSpec {
    pub fn of(w: Workload) -> BatchSpec {
        match w {
            Workload::ShuffleProcs => BatchSpec {
                n: 384,
                k: 64,
                with_add: false,
                worker_procs: 2,
            },
            _ => BatchSpec {
                n: 768,
                k: 64,
                with_add: true,
                worker_procs: 0,
            },
        }
    }

    /// Nominal floating-point operations of one round, from the shapes:
    /// `n²` for the add, `2n³` for the multiply, and for the step three
    /// `2n²k` products plus `n²` for the residual and `8nk` for the updates.
    pub fn round_flops(&self) -> f64 {
        let (n, k) = (self.n as f64, self.k as f64);
        let add = if self.with_add { n * n } else { 0.0 };
        add + 2.0 * n * n * n + 3.0 * 2.0 * n * n * k + n * n + 8.0 * n * k
    }
}

/// The seeded inputs of one run.
pub struct Inputs {
    pub a: LocalMatrix,
    pub b: LocalMatrix,
    /// Sparse rating matrix, 10% non-zero, integer values in `0..=5`.
    pub r: LocalMatrix,
    pub p: LocalMatrix,
    pub q: LocalMatrix,
}

impl Inputs {
    pub fn generate(spec: &BatchSpec, seed: u64) -> Inputs {
        let rng = |i: u64| StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i);
        let (n, k) = (spec.n, spec.k);
        Inputs {
            a: LocalMatrix::random(n, n, 0.0, 10.0, &mut rng(1)),
            b: LocalMatrix::random(n, n, 0.0, 10.0, &mut rng(2)),
            r: LocalMatrix::sparse_random(n, n, 0.10, &mut rng(3)),
            p: LocalMatrix::random(n, k, 0.0, 1.0, &mut rng(4)),
            q: LocalMatrix::random(n, k, 0.0, 1.0, &mut rng(5)),
        }
    }
}

/// Collected results of one round.
pub struct RoundOut {
    pub add: Option<LocalMatrix>,
    pub mul: LocalMatrix,
    pub p2: LocalMatrix,
    pub q2: LocalMatrix,
}

/// Reference results, computed with the naive `LocalMatrix` algorithms only —
/// never with the planner under test.
pub struct Expected {
    pub add: Option<LocalMatrix>,
    pub mul: LocalMatrix,
    pub p2: LocalMatrix,
    pub q2: LocalMatrix,
}

impl Expected {
    pub fn compute(spec: &BatchSpec, x: &Inputs) -> Expected {
        let e = x.r.sub(&x.p.multiply(&x.q.transpose()));
        let eq = e.multiply(&x.q);
        let etp = e.transpose().multiply(&x.p);
        let update = |old: &LocalMatrix, grad: &LocalMatrix| {
            LocalMatrix::from_fn(old.rows, old.cols, |i, j| {
                let o = old.get(i, j);
                o + GAMMA * (2.0 * grad.get(i, j) - LAMBDA * o)
            })
        };
        Expected {
            add: spec.with_add.then(|| x.a.add(&x.b)),
            mul: x.a.multiply(&x.b),
            p2: update(&x.p, &eq),
            q2: update(&x.q, &etp),
        }
    }

    /// Does a round's output match? `A+B` bitwise, the rest within [`REL_TOL`].
    pub fn check(&self, got: &RoundOut) -> bool {
        let add_ok = match (&self.add, &got.add) {
            (Some(want), Some(have)) => want == have,
            (None, None) => true,
            _ => false,
        };
        add_ok && close(&got.mul, &self.mul) && close(&got.p2, &self.p2) && close(&got.q2, &self.q2)
    }

    /// Fingerprint of every reference result (for the determinism test).
    pub fn fingerprint(&self) -> u64 {
        crate::fnv1a(
            self.add
                .iter()
                .chain([&self.mul, &self.p2, &self.q2])
                .map(crate::matrix_fingerprint),
        )
    }
}

/// Element-wise closeness within [`REL_TOL`] of the reference's magnitude.
pub fn close(got: &LocalMatrix, want: &LocalMatrix) -> bool {
    if (got.rows, got.cols) != (want.rows, want.cols) {
        return false;
    }
    let scale = want.data().iter().fold(0.0f64, |m, x| m.max(x.abs()));
    got.max_abs_diff(want) <= REL_TOL * scale.max(1.0)
}

/// The program under test, set up: a session with every knob pinned and the
/// inputs ingested.
pub struct Rig {
    pub session: Session,
    pub a: TiledMatrix,
    pub b: TiledMatrix,
    pub r: TiledMatrix,
    pub p: TiledMatrix,
    pub q: TiledMatrix,
}

impl Rig {
    /// Build the session and ingest the inputs. Every runtime knob is set
    /// through the builders, so the `SPARKLINE_CHAOS`,
    /// `SPARKLINE_STORAGE_BUDGET`, `SPARKLINE_WORKER_PROCS`,
    /// `SPARKLINE_EXTERNAL_SHUFFLE` and `SAC_ADAPTIVE` variables cannot
    /// change the workload.
    pub fn build(spec: &BatchSpec, x: &Inputs) -> Rig {
        let mut builder = Session::builder()
            .workers(nproc())
            .storage_memory(STORAGE_BUDGET)
            .chaos_off()
            .adaptive(true)
            .worker_processes(spec.worker_procs);
        if spec.worker_procs > 0 {
            builder = builder.external_shuffle(true);
        }
        let mut session = builder.build();
        session.config_mut().fuse_eltwise = true;
        let ingest = |m: &LocalMatrix| TiledMatrix::from_local(session.spark(), m, TILE, nproc());
        Rig {
            a: ingest(&x.a),
            b: ingest(&x.b),
            r: ingest(&x.r),
            p: ingest(&x.p),
            q: ingest(&x.q),
            session,
        }
    }

    /// The write: ingest a new copy of input `A`.
    pub fn rewrite_a(&mut self, a: &LocalMatrix) {
        self.a = TiledMatrix::from_local(self.session.spark(), a, TILE, nproc());
    }

    /// One round through the public `sac::linalg` calls.
    pub fn round(&self, with_add: bool) -> Result<RoundOut, CompError> {
        let s = &self.session;
        let add = if with_add {
            Some(sac::linalg::add(s, &self.a, &self.b)?.to_local())
        } else {
            None
        };
        let mul = sac::linalg::multiply(s, &self.a, &self.b)?.to_local();
        let (p2, q2) =
            sac::linalg::factorization_step(s, &self.r, &self.p, &self.q, GAMMA, LAMBDA)?;
        Ok(RoundOut {
            add,
            mul,
            p2: p2.to_local(),
            q2: q2.to_local(),
        })
    }

    /// The same round with every layer call timed as a span: the query
    /// texts of `sac::linalg`, each split into parse, normalize, plan and
    /// execute, and every driver collect.
    pub fn round_phased(
        &self,
        with_add: bool,
        tracer: &mut Tracer,
        parent: u32,
        op: u64,
    ) -> Result<RoundOut, CompError> {
        let mut ph = Phased {
            session: &self.session,
            tracer,
            op,
            parent: Some(parent),
        };
        let add = if with_add {
            let id = ph.tracer.begin("add", Some(parent), op);
            ph.parent = Some(id);
            let out = ph.binary(ADD_SRC, &self.a, &self.b, &[])?;
            let local = ph.collect(&out);
            ph.tracer.end(id);
            Some(local)
        } else {
            None
        };
        let id = ph.tracer.begin("multiply", Some(parent), op);
        ph.parent = Some(id);
        let mul = ph.binary(MUL_SRC, &self.a, &self.b, &[])?;
        let mul = ph.collect(&mul);
        ph.tracer.end(id);

        let id = ph.tracer.begin("fstep", Some(parent), op);
        ph.parent = Some(id);
        let rates = [("gamma", GAMMA), ("lambda", LAMBDA)];
        let pqt = ph.binary_dims(
            MUL_BT_SRC,
            &self.p,
            &self.q,
            self.p.rows(),
            self.q.rows(),
            &[],
        )?;
        let e = ph.binary(SUB_SRC, &self.r, &pqt, &[])?;
        let eq = ph.binary_dims(MUL_SRC, &e, &self.q, e.rows(), self.q.cols(), &[])?;
        let p2 = ph.binary(P_UPDATE_SRC, &self.p, &eq, &rates)?;
        let etp = ph.binary_dims(MUL_AT_SRC, &e, &self.p, e.cols(), self.p.cols(), &[])?;
        let q2 = ph.binary(Q_UPDATE_SRC, &self.q, &etp, &rates)?;
        let p2 = ph.collect(&p2);
        let q2 = ph.collect(&q2);
        ph.tracer.end(id);
        Ok(RoundOut { add, mul, p2, q2 })
    }
}

/// Runs one query through the layers one call at a time, as spans.
pub struct Phased<'a> {
    pub session: &'a Session,
    pub tracer: &'a mut Tracer,
    pub op: u64,
    pub parent: Option<u32>,
}

impl Phased<'_> {
    /// Parse, normalize, plan and execute `src` against `env`.
    pub fn query(&mut self, src: &str, env: &PlanEnv) -> Result<ExecResult, CompError> {
        let (op, parent) = (self.op, self.parent);
        let expr = self
            .tracer
            .span("parse", parent, op, || comp::parse_expr(src))?;
        let expr = self
            .tracer
            .span("normalize", parent, op, || comp::normalize::normalize(expr));
        let config = self.session.config();
        let planned = self.tracer.span("plan", parent, op, || {
            planner::plan::plan(&expr, env, config)
        })?;
        // A `localFallback` plan runs the `comp::eval` interpreter.
        let name = if planned.plan.strategy_name() == "localFallback" {
            "fallback"
        } else {
            "execute"
        };
        let ctx = self.session.spark();
        self.tracer.span(name, parent, op, || {
            planner::execute(&planned, env, ctx, config)
        })
    }

    fn binary(
        &mut self,
        src: &str,
        x0: &TiledMatrix,
        x1: &TiledMatrix,
        floats: &[(&str, f64)],
    ) -> Result<TiledMatrix, CompError> {
        self.binary_dims(src, x0, x1, x0.rows(), x0.cols(), floats)
    }

    fn binary_dims(
        &mut self,
        src: &str,
        x0: &TiledMatrix,
        x1: &TiledMatrix,
        n: i64,
        m: i64,
        floats: &[(&str, f64)],
    ) -> Result<TiledMatrix, CompError> {
        let mut env = PlanEnv::new();
        env.set_array("X0", DistArray::Matrix(x0.clone()));
        env.set_array("X1", DistArray::Matrix(x1.clone()));
        env.set_int("n", n);
        env.set_int("m", m);
        for (name, v) in floats {
            env.set_float(*name, *v);
        }
        self.query(src, &env)?.into_matrix()
    }

    /// Collect a lazy result to the driver (runs its remaining stages).
    pub fn collect(&mut self, m: &TiledMatrix) -> LocalMatrix {
        self.tracer
            .span("collect", self.parent, self.op, || m.to_local())
    }
}

/// Counters folded from the program's own event bus ([`JobProfile`]).
#[derive(Default)]
pub struct ProfileTotals {
    pub profiles: u64,
    pub task_micros: Vec<f64>,
    pub replans: u64,
    pub fused_regions: u64,
    pub est_shuffle_bytes: u64,
    pub actual_shuffle_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub recomputes: u64,
}

impl ProfileTotals {
    pub fn absorb(&mut self, p: &JobProfile) {
        self.profiles += 1;
        for s in &p.stages {
            self.task_micros
                .extend(s.task_micros.iter().map(|&t| t as f64));
        }
        for c in &p.plan_choices {
            self.replans += c.replans.len() as u64;
            let actual = p.actual_shuffle_bytes_of_tag(&c.chosen);
            if actual > 0 {
                self.est_shuffle_bytes += c.est_shuffle_bytes;
                self.actual_shuffle_bytes += actual;
            }
        }
        self.fused_regions += p.fused_regions.len() as u64;
        let cache = p.cache_totals();
        self.cache_hits += cache.hits;
        self.cache_misses += cache.misses;
        self.recomputes += cache.recomputes;
    }

    /// Per-layer metrics that come from the event bus; `bus_ops` is the
    /// number of operations that ran while it was on.
    pub fn metrics(&self, bus_ops: f64, m: &mut Metrics) {
        let per = |x: u64| x as f64 / bus_ops.max(1.0);
        m.put("planner.replans", per(self.replans), "count");
        m.put("planner.fused_regions", per(self.fused_regions), "count");
        m.put(
            "planner.shuffle_est_actual",
            if self.actual_shuffle_bytes == 0 {
                0.0
            } else {
                self.est_shuffle_bytes as f64 / self.actual_shuffle_bytes as f64
            },
            "ratio",
        );
        m.put("sparkline.task_p50_us", median(&self.task_micros), "us");
        m.put(
            "sparkline.task_max_us",
            self.task_micros.iter().copied().fold(0.0, f64::max),
            "us",
        );
        let lookups = self.cache_hits + self.cache_misses;
        m.put(
            "storage.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                self.cache_hits as f64 / lookups as f64
            },
            "ratio",
        );
        m.put("storage.recomputes", self.recomputes as f64, "count");
    }
}

/// Build the workload from nothing and run one cold warm-up round; returns
/// the rig and the seconds both took.
fn set_up(
    spec: &BatchSpec,
    inputs: &Inputs,
    expected: &Expected,
    outcome: &mut Outcome,
) -> (Rig, f64) {
    let t = Instant::now();
    let rig = Rig::build(spec, inputs);
    let warm = rig.round(spec.with_add);
    let dt = t.elapsed().as_secs_f64();
    match warm {
        Ok(out) if expected.check(&out) => outcome.ok(),
        _ => outcome.fail(),
    }
    (rig, dt)
}

/// One timed write plus round; `None` latency if the round failed.
fn timed_round(
    rig: &mut Rig,
    spec: &BatchSpec,
    inputs: &Inputs,
    expected: &Expected,
    outcome: &mut Outcome,
) -> (Duration, Option<Duration>) {
    let t = Instant::now();
    rig.rewrite_a(&inputs.a);
    let write = t.elapsed();
    let t = Instant::now();
    let out = rig.round(spec.with_add);
    let dt = t.elapsed();
    let ok = dt < OP_TIMEOUT && matches!(&out, Ok(o) if expected.check(o));
    if ok {
        outcome.ok();
        (write, Some(dt))
    } else {
        outcome.fail();
        (write, None)
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let spec = BatchSpec::of(cfg.workload);
    let inputs = Inputs::generate(&spec, cfg.seed);
    let expected = Expected::compute(&spec, &inputs);
    let mut outcome = Outcome::default();
    let (rig, setup) = set_up(&spec, &inputs, &expected, &mut outcome);
    if cfg.trace {
        traced(cfg, &spec, rig, &inputs, &expected, outcome)
    } else {
        end_to_end(cfg, &spec, rig, &inputs, &expected, outcome, setup)
    }
}

fn end_to_end(
    cfg: &RunConfig,
    spec: &BatchSpec,
    mut rig: Rig,
    inputs: &Inputs,
    expected: &Expected,
    mut outcome: Outcome,
    first_setup: f64,
) -> Result<RunResult, String> {
    // Every TRACED_EVERY-th round runs with the program's event bus on
    // (its log drained after the round, outside the timed interval), so
    // traced and untraced rounds see the same machine conditions.
    let ctx = rig.session.spark().clone();
    let (mut lat, mut writes, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut busy = 0.0;
    let mut rss = None;
    let start = Instant::now();
    let mut i = 0usize;
    // The other set-ups run between rounds, evenly spaced, once the resident
    // set has been read; a throw-away rig is built and dropped each time.
    let mut setup_times = vec![first_setup];
    let setup_every = cfg.seconds / (SETUP_REPS - 1) as f64;
    let extra_setup = |outcome: &mut Outcome, times: &mut Vec<f64>| {
        let (spare, dt) = set_up(spec, inputs, expected, outcome);
        drop(spare);
        times.push(dt);
    };
    while start.elapsed().as_secs_f64() < cfg.seconds || traced.is_empty() {
        if rss.is_some()
            && setup_times.len() < SETUP_REPS
            && start.elapsed().as_secs_f64() >= setup_every * setup_times.len() as f64
        {
            extra_setup(&mut outcome, &mut setup_times);
        }
        let bus = i % crate::TRACED_EVERY == crate::TRACED_EVERY - 1;
        i += 1;
        if bus {
            ctx.trace();
        }
        let (w, r) = timed_round(&mut rig, spec, inputs, expected, &mut outcome);
        if i == RSS_AFTER_ROUNDS {
            rss = Some(report::peak_rss_mb());
        }
        if bus {
            ctx.stop_trace();
            drop(ctx.take_events());
            traced.extend(r.map(|r| r.as_secs_f64() * 1e3));
            continue;
        }
        writes.push(w.as_secs_f64() * 1e3);
        busy += w.as_secs_f64();
        if let Some(r) = r {
            lat.push(r.as_secs_f64() * 1e3);
            busy += r.as_secs_f64();
        }
    }
    while setup_times.len() < SETUP_REPS {
        extra_setup(&mut outcome, &mut setup_times);
    }
    let mut m = Metrics::default();
    m.put("latency_p50_ms", median(&lat), "ms");
    let round_s: f64 = lat.iter().sum::<f64>() / 1e3;
    m.put("ops_per_s", lat.len() as f64 / busy.max(1e-9), "1/s");
    m.put(
        "gflop_per_s",
        spec.round_flops() * lat.len() as f64 / round_s.max(1e-9) / 1e9,
        "GFLOP/s",
    );
    m.put("write_p50_ms", median(&writes), "ms");
    m.put("traced_latency_p50_ms", median(&traced), "ms");
    m.put("setup_s", median(&setup_times), "s");
    m.put(
        "peak_rss_mb",
        rss.unwrap_or_else(report::peak_rss_mb),
        "MiB",
    );
    let mut detail = Metrics::default();
    // Tail percentiles move with the host's CPU steal far more than the
    // median (and a run's few hundred rounds leave p99 fewer than ten
    // samples beyond it), so they are recorded here, not among the metrics.
    detail.put("latency_p90_ms", percentile(&lat, 90.0), "ms");
    detail.put("latency_p99_ms", percentile(&lat, 99.0), "ms");
    detail.put("peak_rss_mb_at_end", report::peak_rss_mb(), "MiB");
    detail.put("rounds", lat.len() as f64, "count");
    detail.put("traced_rounds", traced.len() as f64, "count");
    detail.put(
        "traced_over_untraced",
        median(&traced) / median(&lat).max(1e-9),
        "ratio",
    );
    Ok(RunResult {
        outcome,
        metrics: m,
        detail,
        spans_json: None,
    })
}

/// `peak_rss_mb` is read after this many measured rounds (the set-up's
/// warm-up rounds not counted), not at the end of the run: the resident set
/// grows with the rounds run, and a fixed count keeps a faster program from
/// reading as a larger one.
const RSS_AFTER_ROUNDS: usize = 16;

/// Share of `--seconds` the traced run spends on workload rounds; the layer
/// probes take the rest.
const TRACED_ROUND_SHARE: f64 = 0.6;

fn traced(
    cfg: &RunConfig,
    spec: &BatchSpec,
    mut rig: Rig,
    inputs: &Inputs,
    expected: &Expected,
    mut outcome: Outcome,
) -> Result<RunResult, String> {
    let ctx = rig.session.spark().clone();
    let threads = probes::ThreadSampler::start();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut totals = ProfileTotals::default();
    let m0 = ctx.metrics().snapshot();
    let st0 = ctx.storage_status();
    let fetch0 = ctx.worker_fetch_stats();
    let mut rounds = 0u64;
    let mut round_ms = Vec::new();
    let start = Instant::now();
    // Even rounds run with the event bus off through the phase-split path
    // and give the span timings; odd rounds run the `sac::linalg` path with
    // the bus on and give the JobProfile counters.
    while rounds < 2 || start.elapsed().as_secs_f64() < cfg.seconds * TRACED_ROUND_SHARE {
        let bus = rounds % 2 == 1;
        let out = if bus {
            rig.rewrite_a(&inputs.a);
            ctx.trace();
            let t = Instant::now();
            let out = rig.round(spec.with_add);
            let dt = t.elapsed();
            ctx.stop_trace();
            totals.absorb(&ctx.take_profile());
            out.map(|o| (o, dt))
        } else {
            let w = tracer.begin("write", None, rounds);
            rig.rewrite_a(&inputs.a);
            tracer.end(w);
            let id = tracer.begin("round", None, rounds);
            let t = Instant::now();
            let out = rig.round_phased(spec.with_add, &mut tracer, id, rounds);
            let dt = t.elapsed();
            tracer.end(id);
            round_ms.push(dt.as_secs_f64() * 1e3);
            out.map(|o| (o, dt))
        };
        match out {
            Ok((o, dt)) if dt < OP_TIMEOUT && expected.check(&o) => outcome.ok(),
            _ => outcome.fail(),
        }
        rounds += 1;
    }
    let threads_peak = threads.stop();
    let d = ctx.metrics().snapshot().since(&m0);
    let st1 = ctx.storage_status();
    let ops = rounds as f64;
    let times = tracer.self_times();
    let mean_us = |name: &str| times.get(name).map_or(0.0, |t| t.mean_self_us());
    let span_rounds = round_ms.len().max(1) as f64;
    let per_op_ms =
        |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6) / span_rounds;

    let mut m = Metrics::default();
    m.put("comp.parse_us", mean_us("parse"), "us");
    m.put("comp.normalize_us", mean_us("normalize"), "us");
    m.put(
        "comp.fallback_ops",
        times.get("fallback").map_or(0, |t| t.count) as f64,
        "count",
    );
    m.put("planner.plan_us", mean_us("plan"), "us");
    m.put("planner.execute_us", mean_us("execute"), "us");
    totals.metrics(totals.profiles as f64, &mut m);
    m.put("sparkline.collect_ms", per_op_ms("collect"), "ms");
    m.put(
        "sparkline.stages_per_op",
        d.stages_run as f64 / ops,
        "count",
    );
    m.put(
        "sparkline.tasks_per_op",
        d.tasks_launched as f64 / ops,
        "count",
    );
    m.put("sparkline.tasks_failed", d.tasks_failed as f64, "count");
    m.put("sparkline.threads_peak", threads_peak as f64, "count");
    m.put("shuffle.bytes_per_op", d.shuffle_bytes as f64 / ops, "B");
    m.put(
        "shuffle.rounds_per_op",
        d.shuffle_count as f64 / ops,
        "count",
    );
    m.put(
        "storage.evictions",
        (st1.evictions - st0.evictions) as f64,
        "count",
    );
    m.put("storage.spills", (st1.spills - st0.spills) as f64, "count");
    m.put("storage.memory_bytes", st1.memory_used as f64, "B");
    match (fetch0, ctx.worker_fetch_stats()) {
        (Some((f0, r0)), Some((f1, r1))) => {
            let fetches: Vec<f64> = f1[f0.len()..].iter().map(|&u| u as f64).collect();
            m.put(
                "transport.fetches_per_op",
                fetches.len() as f64 / ops,
                "count",
            );
            m.put("transport.fetch_p50_us", median(&fetches), "us");
            m.put("transport.fetch_p99_us", percentile(&fetches, 99.0), "us");
            m.put("transport.fetch_retries", (r1 - r0) as f64, "count");
        }
        _ => m.extend(probes::transport(&mut outcome)),
    }

    // Layer probes, each checking its own output.
    let round_median_ms = median(&round_ms);
    m.extend(probes::kernels(
        &mut outcome,
        spec.round_flops(),
        round_median_ms,
    ));
    m.extend(probes::wire(&mut outcome));
    m.extend(probes::jobs(&ctx, &mut outcome));
    m.extend(probes::fallback(&ctx, &mut outcome));
    m.extend(probes::service(&ctx, &mut outcome));
    let sac_ms = median_of(
        3,
        || {
            let t = Instant::now();
            let got = sac::linalg::multiply(&rig.session, &rig.a, &rig.b).map(|c| c.to_local());
            (
                t.elapsed(),
                matches!(&got, Ok(c) if close(c, &expected.mul)),
            )
        },
        &mut outcome,
    );
    m.extend(probes::mllib(
        &ctx,
        &inputs.a,
        &inputs.b,
        &expected.mul,
        TILE,
        sac_ms,
        &mut outcome,
    ));
    reorder(&mut m);

    let mut detail = Metrics::default();
    detail.put("rounds", ops, "count");
    let total_ns: u64 = times
        .iter()
        .filter(|(name, _)| **name == "round" || **name == "write")
        .map(|(_, t)| t.total_ns)
        .sum();
    for (name, t) in &times {
        detail.put(
            &format!("self_share.{name}"),
            t.self_ns as f64 / total_ns.max(1) as f64,
            "ratio",
        );
    }
    Ok(RunResult {
        outcome,
        metrics: m,
        detail,
        spans_json: Some(tracer.to_chrome_json()),
    })
}

/// Median wall time (ms) of `reps` checked runs of `f`.
pub fn median_of(
    reps: usize,
    mut f: impl FnMut() -> (Duration, bool),
    outcome: &mut Outcome,
) -> f64 {
    let mut v = Vec::new();
    for _ in 0..reps {
        let (dt, ok) = f();
        if ok {
            outcome.ok();
        } else {
            outcome.fail();
        }
        v.push(dt.as_secs_f64() * 1e3);
    }
    median(&v)
}

/// Put the per-layer metrics in the order `BENCHMARK.json` lists them.
pub fn reorder(m: &mut Metrics) {
    let order = crate::probes::PER_LAYER;
    m.0.sort_by_key(|x| {
        order
            .iter()
            .position(|n| *n == x.name)
            .unwrap_or(usize::MAX)
    });
}
