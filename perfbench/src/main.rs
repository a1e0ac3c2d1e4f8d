//! `perfbench` — see the crate docs and `perfbench/README.md`.

use perfbench::probes::{END_TO_END, PER_LAYER};
use perfbench::report::{machine_block, result_line, RunResult};
use perfbench::{batch, interactive, RunConfig, Workload};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Directory (relative to the working directory) for result files, traces
/// and the runtime's scratch files.
const OUT_DIR: &str = ".perfbench";

/// A run that has not finished after this long is abandoned with a non-zero
/// exit, so a hung operation can never hold the caller.
const HARD_DEADLINE: Duration = Duration::from_secs(170);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match RunConfig::from_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig4-batch|interactive|shuffle-procs> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = prepare_environment(cfg.workload) {
        eprintln!("perfbench: set-up error: {e}");
        std::process::exit(3);
    }
    std::thread::spawn(|| {
        std::thread::sleep(HARD_DEADLINE);
        eprintln!("perfbench: run exceeded {HARD_DEADLINE:?}; abandoning it");
        std::process::exit(4);
    });

    let ticks0 = perfbench::report::cpu_ticks();
    let result = match cfg.workload {
        Workload::Interactive => interactive::run(&cfg),
        _ => batch::run(&cfg),
    };
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(5);
        }
    };
    let expected = if cfg.trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = result.metrics.0.iter().map(|m| m.name.as_str()).collect();
    if names != expected {
        eprintln!("perfbench: internal error: metrics {names:?} differ from {expected:?}");
        std::process::exit(6);
    }
    let ticks1 = perfbench::report::cpu_ticks();
    result.detail.put(
        "cpu_steal_share",
        (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64,
        "ratio",
    );
    write_files(&cfg, &result);
    let failed_frac = result.outcome.failed as f64 / result.outcome.attempted.max(1) as f64;
    println!(
        "perfbench: {} seed {} trace {}: {} ops attempted, {} failed (failed_frac {failed_frac})",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace as u8,
        result.outcome.attempted,
        result.outcome.failed
    );
    println!("{}", result_line(result.outcome, &result.metrics));
}

/// Pin what the environment could otherwise change, and check that the
/// worker binary a multi-process workload needs is present.
fn prepare_environment(workload: Workload) -> Result<(), String> {
    // Spill and external-shuffle files go under the working directory.
    let tmp = Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let tmp = std::fs::canonicalize(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    // `run.py` builds the `sparkline` package's worker next to `perfbench`;
    // a stale `SPARKLINE_WORKER_BIN` from the environment must not replace it.
    let worker = worker_binary()?;
    if workload == Workload::ShuffleProcs && !worker.is_file() {
        return Err(format!(
            "sparkline-worker not found at {} (run the benchmark through \
             perfbench/run.py, or `cargo build --release -p sparkline --bin \
             sparkline-worker` into the same target directory)",
            worker.display()
        ));
    }
    std::env::set_var(sparkline::transport::WORKER_BIN_ENV, &worker);
    Ok(())
}

fn worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.with_file_name("sparkline-worker"))
}

fn write_files(cfg: &RunConfig, result: &RunResult) {
    let stem = format!(
        "{}/{}-seed{}-trace{}",
        OUT_DIR,
        cfg.workload.name(),
        cfg.seed,
        cfg.trace as u8
    );
    let detail: Vec<String> = result
        .detail
        .0
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.value))
        .collect();
    let doc = format!(
        "{{\"machine\": {},\n\"result\": {},\n\"detail\": {{{}}}}}\n",
        machine_block(cfg.workload.name(), cfg.seed, cfg.trace),
        result_line(result.outcome, &result.metrics),
        detail.join(", ")
    );
    if let Err(e) = std::fs::write(format!("{stem}.json"), doc) {
        eprintln!("perfbench: could not write {stem}.json: {e}");
    }
    if let Some(spans) = &result.spans_json {
        if let Err(e) = std::fs::write(format!("{stem}.spans.json"), spans) {
            eprintln!("perfbench: could not write {stem}.spans.json: {e}");
        }
    }
}
