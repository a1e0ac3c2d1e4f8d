//! `interactive`: two tenants, each on its own TCP connection to a
//! `QueryService` behind `service::net::serve`, in a closed loop with no
//! think time.
//!
//! Requests are a seeded mix of small queries over shared 96² matrices
//! tiled 16² (see [`Kind`]). Bound variables are renamed per request so the
//! plan cache sees alpha-equivalent texts (hits); scaling by a fresh literal
//! and the rebinds below produce misses. About 1 operation in 20 is the
//! nested elementwise-over-elementwise query at 8², which plans as
//! `localFallback`, and about 1 in 20 is a *write*: a `register_matrix_for`
//! rebind of the tenant-private matrix `P` to another version, which bumps
//! its version and invalidates the tenant's cached plans over `P`.
//!
//! Every input holds small integers, so every result is exact in f64 and
//! each reply's fingerprint is compared bitwise with a reference computed
//! from `LocalMatrix` operations at set-up.

use crate::batch::{Phased, ProfileTotals};
use crate::probes::{self, int_matrix, pin_tenant, Reply, NESTED_N, NESTED_SRC, NESTED_TILE};
use crate::report::{self, mean, median, percentile, Metrics, Outcome, RunResult};
use crate::spans::Tracer;
use crate::{
    matrix_fingerprint, nproc, vector_fingerprint, RunConfig, OP_TIMEOUT, SETUP_REPS,
    STORAGE_BUDGET,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::net::{serve, Client, Server};
use service::QueryService;
use sparkline::Context;
use std::time::{Duration, Instant};
use tiled::LocalMatrix;

/// Side and tile of the shared matrices.
pub const N: usize = 96;
pub const TILE: usize = 16;
/// Tenants, one client connection each (no more than `nproc` on the
/// reference 2-vCPU machine).
pub const TENANTS: usize = 2;
/// Versions of each tenant's private matrix that writes cycle through.
pub const P_VERSIONS: usize = 4;
/// Operations generated per client at set-up; a client that gets through
/// them all starts again from the first (the list ends with `P` bound at
/// version 0, as it starts, so the expected replies still hold).
pub const SEQ_LEN: usize = 40_000;

/// The request kinds and their share of the mix, in percent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Rebind the tenant-private `P` (not a query).
    Write,
    /// The nested 8² query (`localFallback`).
    Nested,
    /// `A` scaled by one of four literals (plan-cache hits).
    Scale,
    /// `A` scaled by a fresh integer literal (plan-cache misses).
    ScaleFresh,
    Add,
    RowSum,
    /// Diagonal of `A` as a vector (the trace's terms). The scalar form
    /// `+/[ v | ((i,j),v) <- A, i == j ]` is not a tiled builder and plans as
    /// `localFallback`, so the mix uses the distributed vector form.
    Diag,
    /// `A·B`; at 96² the planner broadcasts.
    MatMul,
    /// `A·X` with `X` a 96×1 matrix.
    MatVec,
    Transpose,
    /// An 8-deep elementwise chain over `A` and `B` (one fused region).
    Chain,
    /// `P + A` over the tenant-private `P`.
    PrivAdd,
}

pub const MIX: &[(Kind, u32)] = &[
    (Kind::Write, 5),
    (Kind::Nested, 5),
    (Kind::Scale, 10),
    (Kind::ScaleFresh, 5),
    (Kind::Add, 10),
    (Kind::RowSum, 10),
    (Kind::Diag, 5),
    (Kind::MatMul, 10),
    (Kind::MatVec, 10),
    (Kind::Transpose, 10),
    (Kind::Chain, 10),
    (Kind::PrivAdd, 10),
];

const SCALE_LITERALS: [f64; 4] = [2.0, 0.5, 4.0, 0.25];

/// Alpha-renamings of the bound variables: `(i, j, k, a, b, ii, jj, v)`.
const NAMES: [[&str; 8]; 3] = [
    ["i", "j", "k", "a", "b", "ii", "jj", "v"],
    ["r", "c", "l", "x", "y", "rr", "cc", "z"],
    ["p", "q", "h", "e", "f", "pp", "qq", "g"],
];

/// Query text of `kind` with variable names `nm` (`lit` for scaling).
pub fn query_text(kind: Kind, nm: &[&str; 8], lit: f64) -> String {
    let [i, j, k, a, b, ii, jj, v] = *nm;
    let join = format!("(({i},{j}),{a}) <- A, (({ii},{jj}),{b}) <- B, {ii} == {i}, {jj} == {j}");
    match kind {
        Kind::Write => String::new(),
        Kind::Nested => NESTED_SRC.to_string(),
        Kind::Scale | Kind::ScaleFresh => {
            format!("tiled(n,n)[ (({i},{j}), {a}*{lit:?}) | (({i},{j}),{a}) <- A ]")
        }
        Kind::Add => format!("tiled(n,n)[ (({i},{j}), {a}+{b}) | {join} ]"),
        Kind::RowSum => {
            format!("tiled_vector(n)[ ({i}, +/{a}) | (({i},{j}),{a}) <- A, group by {i} ]")
        }
        Kind::Diag => format!(
            "tiled_vector(n)[ ({i}, +/{a}) | (({i},{j}),{a}) <- A, {i} == {j}, group by {i} ]"
        ),
        Kind::MatMul => format!(
            "tiled(n,n)[ (({i},{j}), +/{v}) | (({i},{k}),{a}) <- A, (({ii},{j}),{b}) <- B, \
             {ii} == {k}, let {v} = {a}*{b}, group by ({i},{j}) ]"
        ),
        Kind::MatVec => format!(
            "tiled(n,1)[ (({i},{j}), +/{v}) | (({i},{k}),{a}) <- A, (({ii},{j}),{b}) <- X, \
             {ii} == {k}, let {v} = {a}*{b}, group by ({i},{j}) ]"
        ),
        Kind::Transpose => format!("tiled(n,n)[ (({j},{i}), {a}) | (({i},{j}),{a}) <- A ]"),
        Kind::Chain => format!(
            "tiled(n,n)[ (({i},{j}), (((((({a}+{b})*2.0)-{a})*0.5)+{b})-1.0)*4.0+{a}) | {join} ]"
        ),
        Kind::PrivAdd => format!(
            "tiled(n,n)[ (({i},{j}), {a}+{b}) | (({i},{j}),{a}) <- P, (({ii},{jj}),{b}) <- A, \
             {ii} == {i}, {jj} == {j} ]"
        ),
    }
}

/// `chain(a, b)` as the query writes it, in the same operation order.
fn chain(a: f64, b: f64) -> f64 {
    (((((a + b) * 2.0) - a) * 0.5 + b) - 1.0) * 4.0 + a
}

/// Nominal flops of one request, from the shapes.
pub fn flops(kind: Kind) -> f64 {
    let n2 = (N * N) as f64;
    match kind {
        Kind::Write | Kind::Transpose => 0.0,
        Kind::Nested => 2.0 * (NESTED_N * NESTED_N) as f64,
        Kind::Scale | Kind::ScaleFresh | Kind::Add | Kind::RowSum | Kind::PrivAdd => n2,
        Kind::Diag => N as f64,
        Kind::MatMul => 2.0 * n2 * N as f64,
        Kind::MatVec => 2.0 * n2,
        Kind::Chain => 8.0 * n2,
    }
}

/// The seeded inputs.
pub struct Inputs {
    pub a: LocalMatrix,
    pub b: LocalMatrix,
    pub x: LocalMatrix,
    pub s: LocalMatrix,
    pub t: LocalMatrix,
    /// `p[tenant][version]`.
    pub p: Vec<Vec<LocalMatrix>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a2b_3c4d);
        Inputs {
            a: int_matrix(N, N, &mut rng),
            b: int_matrix(N, N, &mut rng),
            x: int_matrix(N, 1, &mut rng),
            s: int_matrix(NESTED_N, NESTED_N, &mut rng),
            t: int_matrix(NESTED_N, NESTED_N, &mut rng),
            p: (0..TENANTS)
                .map(|_| {
                    (0..P_VERSIONS)
                        .map(|_| int_matrix(N, N, &mut rng))
                        .collect()
                })
                .collect(),
        }
    }
}

/// One generated operation with its expected reply fingerprint.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub kind: Kind,
    pub text: String,
    /// For writes, the `P` version bound; otherwise the version the request
    /// reads.
    pub version: usize,
    pub expect: u64,
}

/// Reference fingerprints that do not depend on the request.
struct Refs {
    scale: Vec<u64>,
    add: u64,
    rowsum: u64,
    diag: u64,
    matmul: u64,
    matvec: u64,
    transpose: u64,
    chain: u64,
    nested: u64,
    /// `priv_add[tenant][version]`.
    priv_add: Vec<Vec<u64>>,
}

impl Refs {
    fn compute(x: &Inputs) -> Refs {
        let a = &x.a;
        let diag: Vec<f64> = (0..N).map(|i| a.get(i, i)).collect();
        Refs {
            scale: SCALE_LITERALS
                .iter()
                .map(|&c| matrix_fingerprint(&a.scale(c)))
                .collect(),
            add: matrix_fingerprint(&a.add(&x.b)),
            rowsum: vector_fingerprint(&a.row_sums()),
            diag: vector_fingerprint(&diag),
            matmul: matrix_fingerprint(&a.multiply(&x.b)),
            matvec: matrix_fingerprint(&a.multiply(&x.x)),
            transpose: matrix_fingerprint(&a.transpose()),
            chain: matrix_fingerprint(&LocalMatrix::from_fn(N, N, |i, j| {
                chain(a.get(i, j), x.b.get(i, j))
            })),
            nested: matrix_fingerprint(&probes::nested_reference(&x.s, &x.t)),
            priv_add: x
                .p
                .iter()
                .map(|vs| vs.iter().map(|p| matrix_fingerprint(&p.add(a))).collect())
                .collect(),
        }
    }
}

/// The operation sequence of one client: same seed, same sequence. It
/// starts with the tenant's `P` at version 0 and, when its last write left
/// another version bound, ends with one more write back to version 0, so a
/// client can run it round and round.
pub fn generate_ops(x: &Inputs, seed: u64, tenant: usize, len: usize) -> Vec<Op> {
    let refs = Refs::compute(x);
    generate_with(x, &refs, seed, tenant, len)
}

fn generate_with(x: &Inputs, refs: &Refs, seed: u64, tenant: usize, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ tenant as u64);
    let total: u32 = MIX.iter().map(|(_, w)| w).sum();
    let mut version = 0;
    let mut ops: Vec<Op> = (0..len)
        .map(|_| {
            let mut pick = rng.gen_range(0..total);
            let kind = MIX
                .iter()
                .find(|(_, w)| {
                    if pick < *w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .map(|(k, _)| *k)
                .expect("weights cover the range");
            let nm = &NAMES[rng.gen_range(0..NAMES.len())];
            let (lit, expect) = match kind {
                Kind::Write => {
                    version = (version + rng.gen_range(1..P_VERSIONS)) % P_VERSIONS;
                    (0.0, 0)
                }
                Kind::Scale => {
                    let c = rng.gen_range(0..SCALE_LITERALS.len());
                    (SCALE_LITERALS[c], refs.scale[c])
                }
                Kind::ScaleFresh => {
                    let c = rng.gen_range(1..=1_000_000i64) as f64;
                    (c, matrix_fingerprint(&x.a.scale(c)))
                }
                Kind::Nested => (0.0, refs.nested),
                Kind::Add => (0.0, refs.add),
                Kind::RowSum => (0.0, refs.rowsum),
                Kind::Diag => (0.0, refs.diag),
                Kind::MatMul => (0.0, refs.matmul),
                Kind::MatVec => (0.0, refs.matvec),
                Kind::Transpose => (0.0, refs.transpose),
                Kind::Chain => (0.0, refs.chain),
                Kind::PrivAdd => (0.0, refs.priv_add[tenant][version]),
            };
            Op {
                kind,
                text: query_text(kind, nm, lit),
                version,
                expect,
            }
        })
        .collect();
    if version != 0 {
        ops.push(Op {
            kind: Kind::Write,
            text: String::new(),
            version: 0,
            expect: 0,
        });
    }
    ops
}

fn tenant_name(t: usize) -> String {
    format!("tenant{t}")
}

/// The program under test, set up: runtime, service, TCP front end, and
/// one connection per tenant.
struct Rig {
    ctx: Context,
    svc: QueryService,
    server: Server,
    clients: Vec<Client>,
}

impl Rig {
    fn build(x: &Inputs) -> Result<Rig, String> {
        let ctx = Context::builder()
            .workers(nproc())
            .storage_memory(STORAGE_BUDGET)
            .chaos_off()
            .worker_processes(0)
            .build();
        let svc = QueryService::builder().context(ctx.clone()).build();
        for (name, m, tile) in [
            ("A", &x.a, TILE),
            ("B", &x.b, TILE),
            ("X", &x.x, TILE),
            ("S", &x.s, NESTED_TILE),
            ("T", &x.t, NESTED_TILE),
        ] {
            svc.register_shared_matrix(name, m, tile)
                .map_err(|e| format!("register {name}: {e:?}"))?;
        }
        svc.register_shared_int("n", N as i64);
        svc.register_shared_int("m", NESTED_N as i64);
        for t in 0..TENANTS {
            let tenant = tenant_name(t);
            pin_tenant(&svc, &tenant);
            svc.register_matrix_for(&tenant, "P", &x.p[t][0], TILE)
                .map_err(|e| format!("register P: {e:?}"))?;
        }
        let server = serve(svc.clone(), ("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
        let clients = (0..TENANTS)
            .map(|_| Client::connect_with(server.addr(), probes::client_timeouts()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Rig {
            ctx,
            svc,
            server,
            clients,
        })
    }

    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// What one client saw in one phase.
#[derive(Default)]
struct ClientLog {
    outcome: Outcome,
    /// `(kind, client latency µs, reply)` of every successful request.
    reads: Vec<(Kind, f64, Reply)>,
    writes_ms: Vec<f64>,
    tracer: Option<Tracer>,
    /// Peak resident set when tenant 0 completed [`RSS_AFTER_OPS`] ops.
    rss_mb: Option<f64>,
}

/// Run one client's operations from `cursor` until `deadline`.
#[allow(clippy::too_many_arguments)]
fn drive(
    svc: &QueryService,
    addr: std::net::SocketAddr,
    client: &mut Client,
    tenant: usize,
    x: &Inputs,
    ops: &[Op],
    cursor: &mut usize,
    deadline: Instant,
    mut tracer: Option<Tracer>,
) -> ClientLog {
    let name = tenant_name(tenant);
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        let op = &ops[*cursor % ops.len()];
        let op_id = *cursor as u64;
        *cursor += 1;
        if tenant == 0 && *cursor == RSS_AFTER_OPS {
            log.rss_mb = Some(report::peak_rss_mb());
        }
        if op.kind == Kind::Write {
            let span = tracer.as_mut().map(|t| t.begin("write", None, op_id));
            let t = Instant::now();
            let ok = svc
                .register_matrix_for(&name, "P", &x.p[tenant][op.version], TILE)
                .is_ok();
            let dt = t.elapsed();
            if let (Some(tr), Some(id)) = (tracer.as_mut(), span) {
                tr.end(id);
            }
            if ok && dt < OP_TIMEOUT {
                log.outcome.ok();
                log.writes_ms.push(dt.as_secs_f64() * 1e3);
            } else {
                log.outcome.fail();
            }
            continue;
        }
        let span = tracer.as_mut().map(|t| t.begin("request", None, op_id));
        let t = Instant::now();
        let reply = client.run(&name, &op.text);
        let lat_us = t.elapsed().as_secs_f64() * 1e6;
        let parsed = match reply {
            Ok(Ok(json)) => Reply::parse(&json),
            Ok(Err(e)) => {
                eprintln!("perfbench: {name} {:?} failed: {e}", op.kind);
                None
            }
            Err(e) => {
                // A timed-out or broken connection is out of sync: reconnect.
                eprintln!("perfbench: {name} {:?} i/o error: {e}", op.kind);
                if let Ok(c) = Client::connect_with(addr, probes::client_timeouts()) {
                    *client = c;
                }
                None
            }
        };
        if let (Some(tr), Some(id), Some(r)) = (tracer.as_mut(), span, parsed.as_ref()) {
            // Server-side intervals from the reply, laid end to end at the
            // start of the request: their durations are exact, their
            // placement nominal.
            let start = tr.span_start_ns(id);
            let (q, w) = ((r.queue_us * 1e3) as u64, (r.wall_us * 1e3) as u64);
            tr.record("queue", Some(id), op_id, start, q);
            tr.record("exec", Some(id), op_id, start + q, w);
        }
        if let (Some(tr), Some(id)) = (tracer.as_mut(), span) {
            tr.end(id);
        }
        match parsed {
            Some(r) if r.fingerprint == op.expect && lat_us < OP_TIMEOUT.as_secs_f64() * 1e6 => {
                log.outcome.ok();
                log.reads.push((op.kind, lat_us, r));
            }
            Some(r) => {
                eprintln!(
                    "perfbench: {name} {:?} fingerprint {} != expected {}",
                    op.kind, r.fingerprint, op.expect
                );
                log.outcome.fail();
            }
            None => log.outcome.fail(),
        }
    }
    log.tracer = tracer;
    log
}

/// Run both clients concurrently for `seconds`; with `bus`, the program's
/// event bus is on and the main thread drains it into `totals`.
fn phase(
    rig: &mut Rig,
    x: &Inputs,
    ops: &[Vec<Op>],
    cursors: &mut [usize],
    seconds: f64,
    bus: Option<&mut ProfileTotals>,
    traced: Option<Instant>,
) -> (Vec<ClientLog>, f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let addr = rig.server.addr();
    let svc = &rig.svc;
    let ctx = &rig.ctx;
    let start = Instant::now();
    let has_bus = bus.is_some();
    if has_bus {
        ctx.trace();
    }
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(t, (client, cursor))| {
                let ops = &ops[t];
                let tracer = traced.map(|origin| Tracer::new(origin, t as u32));
                scope.spawn(move || drive(svc, addr, client, t, x, ops, cursor, deadline, tracer))
            })
            .collect();
        if let Some(totals) = bus {
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(100));
                totals.absorb(&ctx.take_profile());
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    if has_bus {
        ctx.stop_trace();
        drop(ctx.take_events());
    }
    (logs, wall)
}

/// Build the workload from nothing; the build ends with one warm-up pass
/// over every request kind for every tenant. Returns the rig and the
/// seconds it took.
fn set_up(x: &Inputs, ops: &[Vec<Op>], outcome: &mut Outcome) -> Result<(Rig, f64), String> {
    let t = Instant::now();
    let mut rig = Rig::build(x)?;
    for (tenant, client) in rig.clients.iter_mut().enumerate() {
        let mut seen = Vec::new();
        for op in &ops[tenant] {
            // P is bound at version 0 until the first write.
            let stale = op.kind == Kind::PrivAdd && op.version != 0;
            if op.kind == Kind::Write || stale || seen.contains(&op.kind) {
                continue;
            }
            seen.push(op.kind);
            let ok = matches!(
                client.run(&tenant_name(tenant), &op.text),
                Ok(Ok(j)) if Reply::parse(&j).is_some_and(|r| r.fingerprint == op.expect)
            );
            if ok {
                outcome.ok()
            } else {
                outcome.fail()
            }
        }
    }
    Ok((rig, t.elapsed().as_secs_f64()))
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let x = Inputs::generate(cfg.seed);
    let refs = Refs::compute(&x);
    let ops: Vec<Vec<Op>> = (0..TENANTS)
        .map(|t| generate_with(&x, &refs, cfg.seed, t, SEQ_LEN))
        .collect();
    let mut outcome = Outcome::default();
    let (rig, setup) = set_up(&x, &ops, &mut outcome)?;
    if cfg.trace {
        Ok(traced(cfg, rig, &x, &ops, outcome))
    } else {
        end_to_end(cfg, rig, &x, &ops, outcome, setup)
    }
}

fn merge(logs: &[ClientLog]) -> (Outcome, Vec<(Kind, f64, Reply)>, Vec<f64>) {
    let mut outcome = Outcome::default();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for l in logs {
        outcome.add(l.outcome);
        reads.extend(l.reads.iter().cloned());
        writes.extend(l.writes_ms.iter().copied());
    }
    (outcome, reads, writes)
}

fn end_to_end(
    cfg: &RunConfig,
    mut rig: Rig,
    x: &Inputs,
    ops: &[Vec<Op>],
    mut outcome: Outcome,
    first_setup: f64,
) -> Result<RunResult, String> {
    // Time slices alternate: three quarters with the event bus off, one
    // with it on, so both see the same machine conditions.
    const SLICES: usize = 8;
    let slice = cfg.seconds / SLICES as f64;
    let off = slice * (crate::TRACED_EVERY - 1) as f64 / crate::TRACED_EVERY as f64;
    let mut cursors = vec![0usize; TENANTS];
    let (mut reads, mut writes, mut traced_reads) = (Vec::new(), Vec::new(), Vec::new());
    let mut wall = 0.0;
    let mut rss = None;
    let mut totals = ProfileTotals::default();
    // The other set-ups run between slices, once the resident set has been
    // read; a throw-away rig is built and shut down each time.
    let mut setup_times = vec![first_setup];
    let extra_setup = |outcome: &mut Outcome, times: &mut Vec<f64>| -> Result<(), String> {
        let (spare, dt) = set_up(x, ops, outcome)?;
        spare.shutdown();
        times.push(dt);
        Ok(())
    };
    for _ in 0..SLICES {
        let (logs, w) = phase(&mut rig, x, ops, &mut cursors, off, None, None);
        let (o, r, wr) = merge(&logs);
        outcome.add(o);
        reads.extend(r);
        writes.extend(wr);
        wall += w;
        rss = rss.or(logs.iter().find_map(|l| l.rss_mb));
        let (logs, _) = phase(
            &mut rig,
            x,
            ops,
            &mut cursors,
            slice - off,
            Some(&mut totals),
            None,
        );
        rss = rss.or(logs.iter().find_map(|l| l.rss_mb));
        let (o, r, _) = merge(&logs);
        outcome.add(o);
        traced_reads.extend(r);
        if rss.is_some() && setup_times.len() < SETUP_REPS {
            extra_setup(&mut outcome, &mut setup_times)?;
        }
    }
    rig.shutdown();
    while setup_times.len() < SETUP_REPS {
        extra_setup(&mut outcome, &mut setup_times)?;
    }

    let lat_ms: Vec<f64> = reads.iter().map(|(_, us, _)| us / 1e3).collect();
    let traced_ms: Vec<f64> = traced_reads.iter().map(|(_, us, _)| us / 1e3).collect();
    let flops: f64 = reads.iter().map(|(k, _, _)| flops(*k)).sum();
    let mut m = Metrics::default();
    m.put("latency_p50_ms", median(&lat_ms), "ms");
    m.put(
        "ops_per_s",
        (reads.len() + writes.len()) as f64 / wall,
        "1/s",
    );
    m.put("gflop_per_s", flops / wall / 1e9, "GFLOP/s");
    m.put("write_p50_ms", median(&writes), "ms");
    m.put("traced_latency_p50_ms", median(&traced_ms), "ms");
    m.put("setup_s", median(&setup_times), "s");
    m.put(
        "peak_rss_mb",
        rss.unwrap_or_else(report::peak_rss_mb),
        "MiB",
    );
    let mut detail = Metrics::default();
    detail.put("latency_p90_ms", percentile(&lat_ms, 90.0), "ms");
    detail.put("latency_p99_ms", percentile(&lat_ms, 99.0), "ms");
    detail.put("peak_rss_mb_at_end", report::peak_rss_mb(), "MiB");
    detail.put("reads", reads.len() as f64, "count");
    detail.put("writes", writes.len() as f64, "count");
    detail.put("traced_reads", traced_reads.len() as f64, "count");
    let hits = reads.iter().filter(|(_, _, r)| r.cache_hit).count();
    detail.put(
        "reply_cache_hit_share",
        hits as f64 / reads.len().max(1) as f64,
        "ratio",
    );
    Ok(RunResult {
        outcome,
        metrics: m,
        detail,
        spans_json: None,
    })
}

/// `peak_rss_mb` is read when tenant 0 has completed this many operations,
/// so a faster server does not read as a larger one.
const RSS_AFTER_OPS: usize = 1_000;

/// Share of `--seconds` the traced run spends serving the mix; the mirror
/// front-end run and the layer probes take the rest.
const TRACED_SERVE_SHARE: f64 = 0.6;

/// Read requests replayed through the phase-split path on a mirror session.
const MIRROR_OPS: usize = 400;

fn traced(
    cfg: &RunConfig,
    mut rig: Rig,
    x: &Inputs,
    ops: &[Vec<Op>],
    mut outcome: Outcome,
) -> RunResult {
    let origin = Instant::now();
    let ctx = rig.ctx.clone();
    let threads = probes::ThreadSampler::start();
    let m0 = ctx.metrics().snapshot();
    let st0 = ctx.storage_status();
    let (h0, mi0, _) = rig.svc.plan_cache_stats();
    let mut cursors = vec![0usize; TENANTS];
    let half = cfg.seconds * TRACED_SERVE_SHARE / 2.0;
    // First half with the event bus off (span timings, replies); second half
    // with it on (JobProfile counters).
    let (logs, _) = phase(&mut rig, x, ops, &mut cursors, half, None, Some(origin));
    let mut totals = ProfileTotals::default();
    let (bus_logs, _) = phase(
        &mut rig,
        x,
        ops,
        &mut cursors,
        half,
        Some(&mut totals),
        None,
    );
    let threads_peak = threads.stop();
    let d = ctx.metrics().snapshot().since(&m0);
    let st1 = ctx.storage_status();
    let (h1, mi1, _) = rig.svc.plan_cache_stats();
    let (o, reads, writes) = merge(&logs);
    outcome.add(o);
    let (o, bus_reads, bus_writes) = merge(&bus_logs);
    outcome.add(o);
    let mut tracer = Tracer::new(origin, 0);
    for l in logs {
        if let Some(t) = l.tracer {
            tracer.merge(t);
        }
    }
    let all_ops = (reads.len() + writes.len() + bus_reads.len() + bus_writes.len()).max(1) as f64;
    let status_rtt = probes::status_rtt_us(&mut rig.clients[0], &mut outcome);
    let service_m = probes::service_metrics(
        &reads
            .iter()
            .map(|(_, lat, r)| (r.clone(), *lat))
            .collect::<Vec<_>>(),
        (h1 - h0, mi1 - mi0),
        status_rtt,
    );
    rig.shutdown();

    // The front end cannot be timed inside the service from outside, so the
    // same request texts run through the phase-split path on a mirror
    // session over the same runtime and the same inputs.
    let mut mirror_tracer = Tracer::new(origin, TENANTS as u32);
    let mirror = mirror_session(&ctx, x);
    let mut replayed = 0;
    for (i, op) in ops[0].iter().enumerate() {
        if replayed == MIRROR_OPS {
            break;
        }
        // The mirror binds P at version 0, so only those requests replay.
        if op.kind == Kind::Write || (op.kind == Kind::PrivAdd && op.version != 0) {
            continue;
        }
        replayed += 1;
        let id = mirror_tracer.begin("mirror_op", None, i as u64);
        let mut ph = Phased {
            session: &mirror,
            tracer: &mut mirror_tracer,
            op: i as u64,
            parent: Some(id),
        };
        let got = ph.query(&op.text, mirror.env()).map(|r| {
            ph.tracer.span("collect", Some(id), i as u64, || match r {
                planner::ExecResult::Matrix(m) => matrix_fingerprint(&m.to_local()),
                planner::ExecResult::Vector(v) => vector_fingerprint(&v.to_local()),
                planner::ExecResult::Local(_) => 0,
            })
        });
        mirror_tracer.end(id);
        if matches!(got, Ok(fp) if fp == op.expect) {
            outcome.ok()
        } else {
            outcome.fail()
        }
    }
    let times = mirror_tracer.self_times();
    let mean_us = |name: &str| times.get(name).map_or(0.0, |t| t.mean_self_us());

    let nested_ms: Vec<f64> = reads
        .iter()
        .chain(&bus_reads)
        .filter(|(k, _, _)| *k == Kind::Nested)
        .map(|(_, _, r)| r.wall_us / 1e3)
        .collect();
    let mut m = Metrics::default();
    m.put("comp.parse_us", mean_us("parse"), "us");
    m.put("comp.normalize_us", mean_us("normalize"), "us");
    m.put("comp.fallback_ops", nested_ms.len() as f64, "count");
    m.put("comp.fallback_ms", median(&nested_ms), "ms");
    m.put("planner.plan_us", mean_us("plan"), "us");
    m.put("planner.execute_us", mean_us("execute"), "us");
    totals.metrics((bus_reads.len() + bus_writes.len()) as f64, &mut m);
    m.put(
        "sparkline.collect_ms",
        times.get("collect").map_or(0.0, |t| t.self_ns as f64 / 1e6) / replayed.max(1) as f64,
        "ms",
    );
    m.put(
        "sparkline.stages_per_op",
        d.stages_run as f64 / all_ops,
        "count",
    );
    m.put(
        "sparkline.tasks_per_op",
        d.tasks_launched as f64 / all_ops,
        "count",
    );
    m.put("sparkline.tasks_failed", d.tasks_failed as f64, "count");
    m.put("sparkline.threads_peak", threads_peak as f64, "count");
    m.put(
        "shuffle.bytes_per_op",
        d.shuffle_bytes as f64 / all_ops,
        "B",
    );
    m.put(
        "shuffle.rounds_per_op",
        d.shuffle_count as f64 / all_ops,
        "count",
    );
    m.put(
        "storage.evictions",
        (st1.evictions - st0.evictions) as f64,
        "count",
    );
    m.put("storage.spills", (st1.spills - st0.spills) as f64, "count");
    m.put("storage.memory_bytes", st1.memory_used as f64, "B");
    m.extend(probes::transport(&mut outcome));
    let flops_per_req = mean(&reads.iter().map(|(k, _, _)| flops(*k)).collect::<Vec<_>>());
    let ms_per_req = mean(&reads.iter().map(|(_, us, _)| us / 1e3).collect::<Vec<_>>());
    m.extend(probes::kernels(&mut outcome, flops_per_req, ms_per_req));
    m.extend(probes::wire(&mut outcome));
    m.extend(probes::jobs(&ctx, &mut outcome));
    m.extend(service_m);
    let (ta, tb) = (
        mirror.matrix_named("A").expect("A registered"),
        mirror.matrix_named("B").expect("B registered"),
    );
    let want = x.a.multiply(&x.b);
    let sac_ms = crate::batch::median_of(
        5,
        || {
            let t = Instant::now();
            let got = sac::linalg::multiply(&mirror, &ta, &tb).map(|c| c.to_local());
            (t.elapsed(), matches!(&got, Ok(c) if *c == want))
        },
        &mut outcome,
    );
    m.extend(probes::mllib(
        &ctx,
        &x.a,
        &x.b,
        &want,
        TILE,
        sac_ms,
        &mut outcome,
    ));
    crate::batch::reorder(&mut m);

    tracer.merge(mirror_tracer);
    let mut detail = Metrics::default();
    detail.put("reads", reads.len() as f64, "count");
    detail.put("mirror_ops", replayed as f64, "count");
    let all = tracer.self_times();
    let total_ns: u64 = all
        .iter()
        .filter(|(n, _)| matches!(**n, "request" | "write"))
        .map(|(_, t)| t.total_ns)
        .sum();
    for name in ["request", "queue", "exec", "write"] {
        if let Some(t) = all.get(name) {
            detail.put(
                &format!("self_share.{name}"),
                t.self_ns as f64 / total_ns.max(1) as f64,
                "ratio",
            );
        }
    }
    let mirror_total: u64 = all.get("mirror_op").map_or(0, |t| t.total_ns);
    for name in [
        "parse",
        "normalize",
        "plan",
        "execute",
        "fallback",
        "collect",
    ] {
        if let Some(t) = all.get(name) {
            detail.put(
                &format!("mirror_self_share.{name}"),
                t.self_ns as f64 / mirror_total.max(1) as f64,
                "ratio",
            );
        }
    }
    RunResult {
        outcome,
        metrics: m,
        detail,
        spans_json: Some(tracer.to_chrome_json()),
    }
}

/// A session on the service's runtime with the same bindings a tenant sees
/// (`P` at version 0).
fn mirror_session(ctx: &Context, x: &Inputs) -> sac::Session {
    let mut s = sac::Session::builder().context(ctx.clone()).build();
    s.config_mut().adaptive = true;
    s.config_mut().fuse_eltwise = true;
    for (name, m, tile) in [
        ("A", &x.a, TILE),
        ("B", &x.b, TILE),
        ("X", &x.x, TILE),
        ("S", &x.s, NESTED_TILE),
        ("T", &x.t, NESTED_TILE),
        ("P", &x.p[0][0], TILE),
    ] {
        s.register_local_matrix(name, m, tile);
    }
    s.set_int("n", N as i64);
    s.set_int("m", NESTED_N as i64);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client that runs past the end of its list keeps getting the
    /// replies its operations expect.
    #[test]
    fn client_runs_past_the_end_of_its_list() {
        const LEN: usize = 60;
        // A list that reads `P` before its first write, and whose last
        // generated write leaves `P` at another version.
        let (seed, x, ops) = (1..=100)
            .map(|seed| {
                let x = Inputs::generate(seed);
                let ops = generate_ops(&x, seed, 0, LEN);
                (seed, x, ops)
            })
            .find(|(_, _, ops)| {
                let first_write = ops.iter().position(|op| op.kind == Kind::Write);
                ops[..first_write.unwrap_or(0)]
                    .iter()
                    .any(|op| op.kind == Kind::PrivAdd)
                    && ops[..LEN]
                        .iter()
                        .rev()
                        .find(|op| op.kind == Kind::Write)
                        .is_some_and(|op| op.version != 0)
            })
            .expect("some seed moves P away from version 0");
        let mut rig = Rig::build(&x).expect("rig builds");
        let (svc, addr) = (rig.svc.clone(), rig.server.addr());
        let mut cursor = 0;
        let mut outcome = Outcome::default();
        let give_up = Instant::now() + Duration::from_secs(120);
        while cursor < 3 * ops.len() && Instant::now() < give_up {
            let deadline = Instant::now() + Duration::from_millis(200);
            let log = drive(
                &svc,
                addr,
                &mut rig.clients[0],
                0,
                &x,
                &ops,
                &mut cursor,
                deadline,
                None,
            );
            outcome.add(log.outcome);
        }
        rig.shutdown();
        assert!(
            cursor >= 3 * ops.len(),
            "seed {seed}: only {cursor} ops ran"
        );
        assert_eq!(outcome.failed, 0, "seed {seed}: {outcome:?}");
    }
}
