//! Elementwise-fusion smoke benchmark: measure the win from executing a
//! whole elementwise region as one fused tile kernel (`Plan::FusedEltwise`)
//! over the unfused per-op interpreter (`ScalarFn::eval_batch`, one scratch
//! `Vec` per expression node per tile).
//!
//! One deep right-nested elementwise panel over 384x384 inputs with 128-wide
//! tiles, run twice through the full session stack:
//!
//! - **fused**: the default plan — the planner traces the region into a
//!   postfix program and each tile runs one pass through a fixed register
//!   file of chunk buffers.
//! - **unfused**: `fuse_eltwise = false` — the per-op oracle, whose
//!   recursive interpreter keeps one live tile-sized scratch vector per
//!   expression-tree level.
//!
//! A second panel times builder–sparsifier fusion: `x*2.0` over a nested
//! `tiled(m,m)[ a+b | ... ]` builder at 256x256 against its flat twin
//! `(a+b)*2.0`. The planner flattens the nested query into the same plan,
//! so the two differ only in planning time.
//!
//! ```text
//! cargo run --release -p bench --bin fusion            # writes BENCH_fusion.json
//! cargo run --release -p bench --bin fusion -- out.json
//! ```
//!
//! Exit is nonzero (failing CI) unless the fused and unfused results are
//! bit-identical, fused peak allocation is >= 1.6x lower, fused wall time is
//! no worse (10% tolerance), and the nested query compiles to its flat
//! twin's plan, is bit-identical to it, and has a median per-pair wall ratio
//! of at most 1.2x.

use planner::plan::Plan;
use sac::Session;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Global allocator wrapper tracking live bytes and the high-water mark.
struct PeakAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl PeakAlloc {
    fn on_alloc(&self, size: usize) {
        let live = self.current.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(&self, size: usize) {
        self.current.fetch_sub(size, Ordering::Relaxed);
    }

    /// Drop the high-water mark back to the live level, so the next
    /// measurement window reports only its own growth.
    fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.on_dealloc(layout.size());
            self.on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc {
    current: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

const N: usize = 384;
const TILE: usize = 192;
const ITERS: usize = 3;
const DEPTH: usize = 24;

/// Side, tile and interleaved repetitions of the nested-vs-flat panel.
const NESTED_N: usize = 256;
const NESTED_TILE: usize = 64;
const NESTED_REPS: usize = 61;
const NESTED_SRC: &str = "tiled(m,m)[ ((i,j), x*2.0) | ((i,j),x) <- tiled(m,m)[ ((i,j), a+b) | \
     ((i,j),a) <- S, ((ii,jj),b) <- T, ii == i, jj == j ] ]";
const FLAT_SRC: &str =
    "tiled(m,m)[ ((i,j), (a+b)*2.0) | ((i,j),a) <- S, ((ii,jj),b) <- T, ii == i, jj == j ]";

struct Row {
    name: String,
    wall_ms: f64,
    peak_bytes: usize,
}

/// A deep right-nested elementwise chain: every level adds one live
/// tile-sized scratch vector to the unfused interpreter's recursion, while
/// the fused program still runs in `max_stack` chunk-sized registers.
fn panel_src() -> String {
    let mut expr = "a".to_string();
    for i in 0..DEPTH {
        let c = 0.25 + (i % 4) as f64 * 0.25;
        expr = if i % 2 == 0 {
            format!("((b * {c:?}) + {expr})")
        } else {
            format!("((a - {expr}) * {c:?})")
        };
    }
    format!("tiled(n,n)[ ((i,j), {expr}) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]")
}

fn session(workers: usize, fuse: bool) -> Session {
    let mut s = Session::builder().workers(workers).chaos_off().build();
    s.register_local_matrix("A", &bench::dense_local(N, 300), TILE);
    s.register_local_matrix("B", &bench::dense_local(N, 400), TILE);
    s.set_int("n", N as i64);
    s.config_mut().fuse_eltwise = fuse;
    s
}

fn fingerprint(s: &Session, src: &str) -> Vec<u64> {
    s.matrix(src)
        .expect("panel must run")
        .to_local()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Run the panel ITERS times; report the best wall time and the largest
/// peak any iteration hit above the pre-run live level.
fn measure(name: &str, s: &Session, src: &str) -> Row {
    let mut wall_ms = f64::INFINITY;
    let mut peak_bytes = 0usize;
    for _ in 0..ITERS {
        ALLOC.reset_peak();
        let start = Instant::now();
        s.run(src).expect("panel must run").force();
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        peak_bytes = peak_bytes.max(ALLOC.peak());
    }
    println!(
        "{name:>16}: {wall_ms:>9.2} ms  peak {:>9.2} MiB",
        peak_bytes as f64 / (1 << 20) as f64
    );
    Row {
        name: name.to_string(),
        wall_ms,
        peak_bytes,
    }
}

/// The nested-vs-flat panel: whether the two compile to the same plan and
/// give bit-identical results, their median compile and wall times, and the
/// median over repetitions of the per-repetition nested/flat wall ratio.
struct NestedPanel {
    same_plan: bool,
    same_bits: bool,
    nested_compile_us: f64,
    flat_compile_us: f64,
    nested_ms: f64,
    flat_ms: f64,
    wall_ratio: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Compile and time the nested query and its flat twin in one session.
/// Each repetition runs both back to back, alternating which goes first, so
/// a pair sees the same machine state; the ratio is taken per pair before
/// the median, which cancels load that drifts between repetitions.
fn nested_vs_flat(workers: usize) -> NestedPanel {
    let mut s = Session::builder().workers(workers).chaos_off().build();
    s.register_local_matrix("S", &bench::dense_local(NESTED_N, 500), NESTED_TILE);
    s.register_local_matrix("T", &bench::dense_local(NESTED_N, 600), NESTED_TILE);
    s.set_int("m", NESTED_N as i64);
    let plan_of = |src| {
        let planned = s.compile(src).expect("panel must plan");
        match planned.plan {
            Plan::FusedEltwise {
                inputs,
                transposed,
                program,
                ..
            } => Some((planned.output, inputs, transposed, program)),
            _ => None,
        }
    };
    let nested_plan = plan_of(NESTED_SRC);
    let same_plan = nested_plan.is_some() && nested_plan == plan_of(FLAT_SRC);
    let same_bits = fingerprint(&s, NESTED_SRC) == fingerprint(&s, FLAT_SRC);
    let compile_us = |src| {
        median(
            (0..NESTED_REPS)
                .map(|_| {
                    let start = Instant::now();
                    s.compile(src).expect("panel must plan");
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect(),
        )
    };
    let (nested_compile_us, flat_compile_us) = (compile_us(NESTED_SRC), compile_us(FLAT_SRC));
    let mut times = [Vec::new(), Vec::new()];
    for rep in 0..NESTED_REPS {
        for k in [rep % 2, 1 - rep % 2] {
            let start = Instant::now();
            s.run([NESTED_SRC, FLAT_SRC][k])
                .expect("panel must run")
                .force();
            times[k].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let [nested, flat] = times;
    let wall_ratio = median(nested.iter().zip(&flat).map(|(n, f)| n / f).collect());
    let panel = NestedPanel {
        same_plan,
        same_bits,
        nested_compile_us,
        flat_compile_us,
        nested_ms: median(nested),
        flat_ms: median(flat),
        wall_ratio,
    };
    for (name, ms, us) in [
        ("nested_eltwise", panel.nested_ms, panel.nested_compile_us),
        ("flat_eltwise", panel.flat_ms, panel.flat_compile_us),
    ] {
        println!("{name:>16}: {ms:>9.2} ms, compile {us:>6.1} us  (medians of {NESTED_REPS})");
    }
    panel
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fusion.json".to_string());
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let src = panel_src();

    // One session alive at a time, so each phase's peak sits on its own live
    // baseline rather than on both sessions' registered inputs at once.
    // Fingerprinting first also warms each session before its timed runs.
    let (fused, fused_bits) = {
        let s = session(workers, true);
        let bits = fingerprint(&s, &src);
        (measure("fused_eltwise", &s, &src), bits)
    };
    let (unfused, unfused_bits) = {
        let s = session(workers, false);
        let bits = fingerprint(&s, &src);
        (measure("unfused_eltwise", &s, &src), bits)
    };
    // The fused region must reproduce the unfused per-op oracle bit-for-bit
    // for the timings to be comparing the same computation.
    let fingerprint_match = fused_bits == unfused_bits;

    let peak_ratio = unfused.peak_bytes as f64 / fused.peak_bytes.max(1) as f64;
    let wall_ratio = fused.wall_ms / unfused.wall_ms.max(1e-9);
    println!(
        "fused vs unfused: {peak_ratio:.2}x less peak, {wall_ratio:.2}x wall, \
         fingerprint_match {fingerprint_match}"
    );

    let nested = nested_vs_flat(workers);
    println!(
        "nested vs flat: {:.2}x wall (median per-pair ratio), same_plan {}, fingerprint_match {}",
        nested.wall_ratio, nested.same_plan, nested.same_bits
    );

    let rows = [fused, unfused];
    let mut json = String::from("{\"bench\":\"fusion\",\"results\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"wall_ms\":{:.3},\"peak_bytes\":{}}}",
            r.name, r.wall_ms, r.peak_bytes
        ));
    }
    json.push_str(&format!(
        "],\"fused_vs_unfused\":{{\"peak_ratio\":{peak_ratio:.3},\"wall_ratio\":{wall_ratio:.3}}},\
         \"fingerprint_match\":{fingerprint_match},\
         \"nested_vs_flat\":{{\"nested_ms\":{:.3},\"flat_ms\":{:.3},\"wall_ratio\":{:.3},\
         \"nested_compile_us\":{:.1},\"flat_compile_us\":{:.1},\
         \"same_plan\":{},\"fingerprint_match\":{}}}}}\n",
        nested.nested_ms,
        nested.flat_ms,
        nested.wall_ratio,
        nested.nested_compile_us,
        nested.flat_compile_us,
        nested.same_plan,
        nested.same_bits
    ));
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");

    // CI gates: bit-exactness is non-negotiable; fusion must actually pay —
    // >= 1.6x lower peak allocation on the panel and wall clock no worse
    // than the unfused oracle (10% noise tolerance).
    if !fingerprint_match {
        eprintln!("FAIL: fused result is not bit-identical to the unfused oracle");
        std::process::exit(1);
    }
    if peak_ratio < 1.6 {
        eprintln!("FAIL: fused peak only {peak_ratio:.2}x lower than unfused (need >= 1.6x)");
        std::process::exit(1);
    }
    if wall_ratio > 1.10 {
        eprintln!("FAIL: fused panel slower than unfused ({wall_ratio:.2}x wall)");
        std::process::exit(1);
    }
    // Builder–sparsifier fusion: the nested query must run as its flat twin.
    if !nested.same_plan {
        eprintln!("FAIL: nested query does not compile to its flat twin's plan");
        std::process::exit(1);
    }
    if !nested.same_bits {
        eprintln!("FAIL: nested query is not bit-identical to its flat twin");
        std::process::exit(1);
    }
    if nested.wall_ratio > 1.2 {
        eprintln!(
            "FAIL: nested query {:.2}x the flat twin's wall (need <= 1.2x)",
            nested.wall_ratio
        );
        std::process::exit(1);
    }
}
