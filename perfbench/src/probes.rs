//! Layer probes: small timed calls into one module's public functions, made
//! from outside the program. Every probe checks its own output against an
//! independent oracle, so a probe cannot get faster by being wrong; a failed
//! check counts as a failed operation of the run.

use crate::nproc;
use crate::report::{median, percentile, threads_now, Metrics, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::net::{serve, Client, ClientTimeouts};
use service::QueryService;
use sparkline::transport::WorkerConfig;
use sparkline::{Context, WorkerGroup};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiled::kernel::{self, Backend};
use tiled::{CscTile, DenseMatrix, ElemwiseOp, FusedProgram, LocalMatrix};

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// traced run reports exactly these on every workload.
pub const PER_LAYER: &[&str] = &[
    "comp.parse_us",
    "comp.normalize_us",
    "comp.fallback_ops",
    "comp.fallback_ms",
    "planner.plan_us",
    "planner.execute_us",
    "planner.replans",
    "planner.fused_regions",
    "planner.shuffle_est_actual",
    "sparkline.collect_ms",
    "sparkline.stages_per_op",
    "sparkline.tasks_per_op",
    "sparkline.tasks_failed",
    "sparkline.task_p50_us",
    "sparkline.task_max_us",
    "sparkline.narrow_job_us",
    "sparkline.shuffle_job_us",
    "sparkline.threads_peak",
    "shuffle.bytes_per_op",
    "shuffle.rounds_per_op",
    "wire.encode_mb_s",
    "wire.decode_mb_s",
    "wire.crc32_mb_s",
    "transport.fetches_per_op",
    "transport.fetch_p50_us",
    "transport.fetch_p99_us",
    "transport.fetch_retries",
    "storage.hit_ratio",
    "storage.evictions",
    "storage.spills",
    "storage.recomputes",
    "storage.memory_bytes",
    "tiled.gemm64_gflops",
    "tiled.gemm768_gflops",
    "tiled.spmm_gflops",
    "tiled.fused_gb_s",
    "tiled.compute_share",
    "service.queue_us",
    "service.exec_us",
    "service.plan_cache_hit_ratio",
    "net.overhead_us",
    "net.status_rtt_us",
    "mllib.multiply_ms",
    "mllib.sac_speedup",
];

/// Every end-to-end metric, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: &[&str] = &[
    "latency_p50_ms",
    "ops_per_s",
    "gflop_per_s",
    "write_p50_ms",
    "traced_latency_p50_ms",
    "setup_s",
    "peak_rss_mb",
];

fn check(outcome: &mut Outcome, ok: bool) {
    if ok {
        outcome.ok()
    } else {
        outcome.fail()
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn dense(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Median over `batches` of the seconds one batch of `f` takes.
fn batch_seconds(batches: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Tile kernels: packed GEMM at 64² on one thread and at 768² on `nproc`
/// threads (bitwise equal to the naive FMA chain), CSC sparse × dense
/// (bitwise equal to the dense chain), and an 8-op fused elementwise program
/// (bitwise equal to its per-element interpreter). `compute_share` is
/// computed, not measured: the op's nominal flops at the single-core GEMM
/// rate, over the op's wall time on all cores.
pub fn kernels(outcome: &mut Outcome, flops_per_op: f64, ms_per_op: f64) -> Metrics {
    let backend = Backend::active();
    let mut rng = StdRng::seed_from_u64(64);
    let mut m = Metrics::default();

    let (a, b) = (dense(64, 64, &mut rng), dense(64, 64, &mut rng));
    let mut want = DenseMatrix::zeros(64, 64);
    want.gemm_acc_naive(&a, &b);
    let mut c = vec![0.0; 64 * 64];
    kernel::gemm(&mut c, a.data(), b.data(), 64, 64, 64, 1, backend);
    check(outcome, bits_equal(&c, want.data()));
    let reps = 200;
    let s = batch_seconds(7, || {
        for _ in 0..reps {
            c.fill(0.0);
            kernel::gemm(
                &mut c,
                black_box(a.data()),
                b.data(),
                64,
                64,
                64,
                1,
                backend,
            );
            black_box(&c);
        }
    });
    let gemm64 = 2.0 * 64f64.powi(3) * reps as f64 / s / 1e9;
    m.put("tiled.gemm64_gflops", gemm64, "GFLOP/s");

    let n = 768;
    let (a, b) = (dense(n, n, &mut rng), dense(n, n, &mut rng));
    let mut want = DenseMatrix::zeros(n, n);
    want.gemm_acc_naive(&a, &b);
    let mut c = vec![0.0; n * n];
    kernel::gemm(&mut c, a.data(), b.data(), n, n, n, nproc(), backend);
    check(outcome, bits_equal(&c, want.data()));
    let s = batch_seconds(3, || {
        c.fill(0.0);
        kernel::gemm(
            &mut c,
            black_box(a.data()),
            b.data(),
            n,
            n,
            n,
            nproc(),
            backend,
        );
        black_box(&c);
    });
    m.put(
        "tiled.gemm768_gflops",
        2.0 * (n as f64).powi(3) / s / 1e9,
        "GFLOP/s",
    );

    let n = 256;
    let sparse = DenseMatrix::from_fn(n, n, |_, _| {
        if rng.gen_bool(0.10) {
            rng.gen_range(-1.0..1.0)
        } else {
            0.0
        }
    });
    let csc = CscTile::from_dense(&sparse);
    let b = dense(n, n, &mut rng);
    let mut want = DenseMatrix::zeros(n, n);
    want.gemm_acc_naive(&sparse, &b);
    let mut out = DenseMatrix::zeros(n, n);
    csc.spmm_acc(&b, &mut out);
    check(outcome, bits_equal(out.data(), want.data()));
    let reps = 20;
    let s = batch_seconds(5, || {
        for _ in 0..reps {
            let mut out = DenseMatrix::zeros(n, n);
            csc.spmm_acc(black_box(&b), &mut out);
            black_box(&out);
        }
    });
    let spmm_flops = 2.0 * csc.nnz() as f64 * n as f64 * reps as f64;
    m.put("tiled.spmm_gflops", spmm_flops / s / 1e9, "GFLOP/s");

    use ElemwiseOp::*;
    let prog = FusedProgram::new(vec![
        Slot(0),
        Slot(1),
        Add,
        Const(2.0),
        Mul,
        Slot(0),
        Sub,
        Const(0.5),
        Mul,
        Slot(1),
        Add,
        Const(1.0),
        Sub,
        Const(4.0),
        Mul,
        Slot(0),
        Add,
    ])
    .expect("valid fused program");
    let len = 1 << 16;
    let x: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let y: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let got = kernel::fused_eltwise(&prog, &[&x, &y], len, backend);
    let oracle: Vec<f64> = (0..len).map(|i| prog.eval_scalar(&[x[i], y[i]])).collect();
    check(outcome, bits_equal(&got, &oracle));
    let reps = 20;
    let s = batch_seconds(5, || {
        for _ in 0..reps {
            black_box(kernel::fused_eltwise(
                &prog,
                &[black_box(&x), &y],
                len,
                backend,
            ));
        }
    });
    let bytes = 3.0 * 8.0 * len as f64 * reps as f64;
    m.put("tiled.fused_gb_s", bytes / s / 1e9, "GB/s");

    let kernel_s = flops_per_op / (gemm64 * 1e9);
    let core_s = ms_per_op / 1e3 * nproc() as f64;
    m.put(
        "tiled.compute_share",
        if core_s > 0.0 { kernel_s / core_s } else { 0.0 },
        "ratio",
    );
    m
}

/// The `wire` codec on 64² `DenseMatrix` frames: encode, decode (checked
/// equal to the tile) and the frame checksum.
pub fn wire(outcome: &mut Outcome) -> Metrics {
    use sparkline::wire;
    let mut rng = StdRng::seed_from_u64(65);
    let tiles: Vec<DenseMatrix> = (0..32).map(|_| dense(64, 64, &mut rng)).collect();
    let frames: Vec<Vec<u8>> = tiles.iter().map(wire::encode_frame).collect();
    let ok = frames
        .iter()
        .zip(&tiles)
        .all(|(f, t)| matches!(wire::decode_frame::<DenseMatrix>(f), Ok(d) if d == *t));
    check(outcome, ok);
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let reps = 10;
    let mb = (bytes * reps) as f64 / 1e6;
    let mut m = Metrics::default();
    let s = batch_seconds(7, || {
        for _ in 0..reps {
            for t in &tiles {
                black_box(wire::encode_frame(black_box(t)));
            }
        }
    });
    m.put("wire.encode_mb_s", mb / s, "MB/s");
    let s = batch_seconds(7, || {
        for _ in 0..reps {
            for f in &frames {
                black_box(wire::decode_frame::<DenseMatrix>(black_box(f)).ok());
            }
        }
    });
    m.put("wire.decode_mb_s", mb / s, "MB/s");
    let s = batch_seconds(7, || {
        for _ in 0..reps {
            for f in &frames {
                black_box(wire::crc32(black_box(f)));
            }
        }
    });
    m.put("wire.crc32_mb_s", mb / s, "MB/s");
    m
}

/// Fixed cost of a tiny narrow job (`parallelize → map → collect`) and a
/// tiny shuffle job (`parallelize → reduceByKey → collect`) through the
/// workload's own runtime.
pub fn jobs(ctx: &Context, outcome: &mut Outcome) -> Metrics {
    let parts = ctx.workers().max(1);
    let narrow = || {
        let got = ctx
            .parallelize((0..64u64).collect(), parts)
            .map(|x| x + 1)
            .collect();
        got == (1..65u64).collect::<Vec<_>>()
    };
    let shuffle = || {
        let mut got = ctx
            .parallelize((0..64u64).map(|x| (x % 8, x)).collect(), parts)
            .reduce_by_key(parts, |a, b| a + b)
            .collect();
        got.sort_unstable();
        got == (0..8u64).map(|k| (k, 8 * k + 224)).collect::<Vec<_>>()
    };
    let mut m = Metrics::default();
    for (name, job, reps) in [
        ("sparkline.narrow_job_us", &narrow as &dyn Fn() -> bool, 200),
        ("sparkline.shuffle_job_us", &shuffle, 100),
    ] {
        let mut us = Vec::with_capacity(reps);
        let mut ok = true;
        for i in 0..reps + 10 {
            let t = Instant::now();
            ok &= job();
            if i >= 10 {
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        check(outcome, ok);
        m.put(name, median(&us), "us");
    }
    m
}

/// Integer-valued random matrix: every sum and product the workloads form
/// from these is exact in f64, so results compare bitwise in any order.
pub fn int_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> LocalMatrix {
    LocalMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-4i64..=4) as f64)
}

/// The nested elementwise-over-elementwise query, which plans as
/// `localFallback` and runs in the `comp::eval` interpreter.
pub const NESTED_SRC: &str =
    "tiled(m,m)[ ((i,j), x*2.0) | ((i,j),x) <- tiled(m,m)[ ((i,j), a+b) | \
     ((i,j),a) <- S, ((ii,jj),b) <- T, ii == i, jj == j ] ]";
/// Side and tile of the nested query's inputs.
pub const NESTED_N: usize = 8;
pub const NESTED_TILE: usize = 4;

/// The reference of [`NESTED_SRC`]: `(S + T) * 2`, from the flat
/// `LocalMatrix` operations.
pub fn nested_reference(s: &LocalMatrix, t: &LocalMatrix) -> LocalMatrix {
    s.add(t).scale(2.0)
}

/// Wall time of the `comp::eval` fallback on the nested 8² query, run
/// through a session on the workload's runtime.
pub fn fallback(ctx: &Context, outcome: &mut Outcome) -> Metrics {
    let mut rng = StdRng::seed_from_u64(66);
    let (s_m, t_m) = (
        int_matrix(NESTED_N, NESTED_N, &mut rng),
        int_matrix(NESTED_N, NESTED_N, &mut rng),
    );
    let want = nested_reference(&s_m, &t_m);
    let mut s = sac::Session::builder().context(ctx.clone()).build();
    s.config_mut().adaptive = true;
    s.config_mut().fuse_eltwise = true;
    s.register_local_matrix("S", &s_m, NESTED_TILE);
    s.register_local_matrix("T", &t_m, NESTED_TILE);
    s.set_int("m", NESTED_N as i64);
    let mut ms = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let got = s.matrix(NESTED_SRC).map(|r| r.to_local());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        check(outcome, matches!(got, Ok(g) if g == want));
    }
    let mut m = Metrics::default();
    m.put("comp.fallback_ms", median(&ms), "ms");
    m
}

/// Transport probe for workloads without worker processes: one spawned
/// `sparkline-worker`, 16 frames of 64² tiles put and fetched back (checked
/// byte-equal) eight times each.
pub fn transport(outcome: &mut Outcome) -> Metrics {
    let mut m = Metrics::default();
    m.put("transport.fetches_per_op", 0.0, "count");
    let group = match WorkerGroup::spawn(1, WorkerConfig::default()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: transport probe could not spawn a worker: {e}");
            outcome.fail();
            m.put("transport.fetch_p50_us", 0.0, "us");
            m.put("transport.fetch_p99_us", 0.0, "us");
            m.put("transport.fetch_retries", 0.0, "count");
            return m;
        }
    };
    let mut rng = StdRng::seed_from_u64(67);
    let frames: Vec<Vec<u8>> = (0..16)
        .map(|_| sparkline::wire::encode_frame(&dense(64, 64, &mut rng)))
        .collect();
    let mut ok = true;
    for (i, f) in frames.iter().enumerate() {
        ok &= group.put(0, 1, i as u64, 0, f.clone()).is_ok();
    }
    for _ in 0..8 {
        for (i, f) in frames.iter().enumerate() {
            ok &= matches!(group.fetch(0, 1, i as u64, 0), Ok(got) if got == *f);
        }
    }
    check(outcome, ok);
    let (lat, retries) = group.fetch_stats();
    let lat: Vec<f64> = lat.into_iter().map(|u| u as f64).collect();
    m.put("transport.fetch_p50_us", median(&lat), "us");
    m.put("transport.fetch_p99_us", percentile(&lat, 99.0), "us");
    m.put("transport.fetch_retries", retries as f64, "count");
    drop(group);
    m
}

/// The fields of a `RUN` reply the benchmark reads.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    pub kind: String,
    pub fingerprint: u64,
    pub wall_us: f64,
    pub queue_us: f64,
    pub cache_hit: bool,
}

/// Extract a top-level field of the reply's flat JSON object.
fn json_field<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let key = format!("\"{field}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

impl Reply {
    pub fn parse(json: &str) -> Option<Reply> {
        Some(Reply {
            kind: json_field(json, "kind")?.to_string(),
            fingerprint: json_field(json, "fingerprint")?.parse().ok()?,
            wall_us: json_field(json, "wall_micros")?.parse().ok()?,
            queue_us: json_field(json, "queue_micros")?.parse().ok()?,
            cache_hit: json_field(json, "cache_hit")? == "true",
        })
    }
}

/// Socket timeouts of every benchmark client: an operation that exceeds
/// them fails instead of hanging the run.
pub fn client_timeouts() -> ClientTimeouts {
    ClientTimeouts {
        connect: Some(Duration::from_secs(5)),
        read: Some(crate::OP_TIMEOUT),
        write: Some(Duration::from_secs(5)),
    }
}

/// Median round trip of a `STATUS` request.
pub fn status_rtt_us(client: &mut Client, outcome: &mut Outcome) -> f64 {
    let mut us = Vec::new();
    for _ in 0..100 {
        let t = Instant::now();
        let ok = matches!(client.status(), Ok(Ok(s)) if s.starts_with('{'));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        check(outcome, ok);
    }
    median(&us)
}

/// Service-layer metrics from a series of replies and their client-side
/// latencies (µs).
pub fn service_metrics(replies: &[(Reply, f64)], cache: (u64, u64), status_rtt: f64) -> Metrics {
    let queue: Vec<f64> = replies.iter().map(|(r, _)| r.queue_us).collect();
    let exec: Vec<f64> = replies.iter().map(|(r, _)| r.wall_us).collect();
    let overhead: Vec<f64> = replies
        .iter()
        .map(|(r, lat)| lat - r.queue_us - r.wall_us)
        .collect();
    let (hits, misses) = cache;
    let mut m = Metrics::default();
    m.put("service.queue_us", crate::report::mean(&queue), "us");
    m.put("service.exec_us", crate::report::mean(&exec), "us");
    m.put(
        "service.plan_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.put("net.overhead_us", median(&overhead), "us");
    m.put("net.status_rtt_us", status_rtt, "us");
    m
}

const PROBE_ADD_SRC: &str =
    "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]";

/// Service probe for workloads that do not serve: a `QueryService` and its
/// TCP front end on the workload's runtime, 200 `RUN`s of a 96² add
/// (fingerprint checked) and 100 `STATUS` round trips.
pub fn service(ctx: &Context, outcome: &mut Outcome) -> Metrics {
    let svc = QueryService::builder().context(ctx.clone()).build();
    let mut rng = StdRng::seed_from_u64(68);
    let (a, b) = (int_matrix(96, 96, &mut rng), int_matrix(96, 96, &mut rng));
    let want = crate::matrix_fingerprint(&a.add(&b));
    let registered = svc.register_shared_matrix("A", &a, 16).is_ok()
        && svc.register_shared_matrix("B", &b, 16).is_ok();
    check(outcome, registered);
    svc.register_shared_int("n", 96);
    pin_tenant(&svc, "probe");
    let server = match serve(svc.clone(), ("127.0.0.1", 0)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: service probe could not bind: {e}");
            outcome.fail();
            return service_metrics(&[], (0, 0), 0.0);
        }
    };
    let mut client = match Client::connect_with(server.addr(), client_timeouts()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: service probe could not connect: {e}");
            outcome.fail();
            return service_metrics(&[], (0, 0), 0.0);
        }
    };
    let (h0, m0, _) = svc.plan_cache_stats();
    let mut replies = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let reply = client.run("probe", PROBE_ADD_SRC);
        let lat = t.elapsed().as_secs_f64() * 1e6;
        match reply
            .ok()
            .and_then(|r| r.ok())
            .and_then(|j| Reply::parse(&j))
        {
            Some(r) if r.fingerprint == want => {
                outcome.ok();
                replies.push((r, lat));
            }
            _ => outcome.fail(),
        }
    }
    let (h1, m1, _) = svc.plan_cache_stats();
    let rtt = status_rtt_us(&mut client, outcome);
    drop(client);
    server.shutdown();
    service_metrics(&replies, (h1 - h0, m1 - m0), rtt)
}

/// Pin a tenant's planner knobs to the defaults explicitly, so `SAC_ADAPTIVE`
/// in the environment cannot change them.
pub fn pin_tenant(svc: &QueryService, tenant: &str) {
    svc.configure_tenant(tenant, |c| {
        c.adaptive = true;
        c.fuse_eltwise = true;
    });
}

/// The paper's baseline: MLlib-style `BlockMatrix` multiply on the same
/// inputs and runtime as the workload's SAC multiply (checked against the
/// reference), and SAC's speed-up over it (Fig. 4B).
pub fn mllib(
    ctx: &Context,
    a: &LocalMatrix,
    b: &LocalMatrix,
    want: &LocalMatrix,
    tile: usize,
    sac_ms: f64,
    outcome: &mut Outcome,
) -> Metrics {
    let ba = mllib::BlockMatrix::from_local(ctx, a, tile, nproc());
    let bb = mllib::BlockMatrix::from_local(ctx, b, tile, nproc());
    let ms = crate::batch::median_of(
        3,
        || {
            let t = Instant::now();
            let c = ba.multiply(&bb).to_local();
            (t.elapsed(), crate::batch::close(&c, want))
        },
        outcome,
    );
    let mut m = Metrics::default();
    m.put("mllib.multiply_ms", ms, "ms");
    m.put("mllib.sac_speedup", ms / sac_ms.max(1e-9), "ratio");
    m
}

/// Samples this process's thread count every 5 ms until stopped.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: std::thread::JoinHandle<()>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (s, p) = (stop.clone(), peak.clone());
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::SeqCst) {
                p.fetch_max(threads_now(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        ThreadSampler { stop, peak, handle }
    }

    /// Stop sampling; the peak thread count seen (the sampler included).
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("thread sampler panicked");
        self.peak.load(Ordering::Relaxed)
    }
}
