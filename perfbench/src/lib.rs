//! The repository benchmark: three seeded workloads over the public crate
//! APIs, end-to-end metrics with the program's tracing off, and a separate
//! traced run that splits the time into the workspace's layers.
//!
//! Usage (from the repository root):
//!
//! ```text
//! python3 perfbench/run.py --workload fig4-batch --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/README.md`
//! describes the workloads, the metrics and which layer moves which number.

pub mod batch;
pub mod interactive;
pub mod probes;
pub mod report;
pub mod spans;

use std::time::Duration;

/// Executor threads of every runtime the benchmark builds: one per core, so
/// a workload never runs more client or worker threads than `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Storage budget pinned on every runtime (beats `SPARKLINE_STORAGE_BUDGET`).
/// Large enough that no workload evicts, so a change that makes the block
/// manager evict shows as new evictions, not as noise.
pub const STORAGE_BUDGET: usize = 1 << 30;

/// One operation running longer than this counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);

/// How many times an end-to-end run builds its workload from nothing: once
/// before measuring (the build that is measured), then spread evenly over
/// the measured interval, so that one burst of load on the host cannot move
/// the median, `setup_s`.
pub const SETUP_REPS: usize = 9;

/// In an end-to-end run, one operation (or time slice) in this many runs
/// with the program's event bus on; the rest run with it off.
pub const TRACED_EVERY: usize = 4;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig4Batch,
    Interactive,
    ShuffleProcs,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig4Batch,
        Workload::Interactive,
        Workload::ShuffleProcs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Batch => "fig4-batch",
            Workload::Interactive => "interactive",
            Workload::ShuffleProcs => "shuffle-procs",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn from_args(args: &[String]) -> Result<RunConfig, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} out of range (0, 600]"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(RunConfig {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// FNV-1a over a stream of u64 words — the same fingerprint
/// `service::QueryReply` carries, so a reference result can be compared
/// with a served one bit for bit.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of a matrix result: shape, then element bits row-major.
pub fn matrix_fingerprint(m: &tiled::LocalMatrix) -> u64 {
    fnv1a(
        [m.rows as u64, m.cols as u64]
            .into_iter()
            .chain(m.data().iter().map(|x| x.to_bits())),
    )
}

/// Fingerprint of a vector result (shape `len x 1`).
pub fn vector_fingerprint(v: &[f64]) -> u64 {
    fnv1a(
        [v.len() as u64, 1]
            .into_iter()
            .chain(v.iter().map(|x| x.to_bits())),
    )
}
