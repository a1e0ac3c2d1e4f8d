//! Percentiles, process readings, and the result document.

use std::fmt::Write as _;

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples;
/// 0 for an empty series.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust prints; non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Operation outcome counters of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn add(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything a workload run reports.
pub struct RunResult {
    pub outcome: Outcome,
    /// The metrics on the result line: end-to-end ones with `--trace 0`,
    /// per-layer ones with `--trace 1`.
    pub metrics: Metrics,
    /// Supporting numbers written to the result file only (sample counts,
    /// failure share, span self-time shares).
    pub detail: Metrics,
    /// Chrome trace of the benchmark's spans, for traced runs.
    pub spans_json: Option<String>,
}

/// The result line: the last line of standard output.
pub fn result_line(outcome: Outcome, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json()
    )
}

/// Machine and build identity recorded with every result.
pub fn machine_block(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {}, \
         \"kernel\": \"{}\", \"git_rev\": \"{}\", \"os\": \"{}\", \"arch\": \"{}\"}}",
        crate::nproc(),
        tiled::kernel::signature(),
        git_revision(),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// The checkout's revision: `.git/HEAD` resolved by hand (no `git`
/// process), else `unknown`.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// A field of this process's `/proc/self/status`, in its own unit.
fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(field)?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Machine-wide CPU tick counters `(steal, total)` from `/proc/stat`: the
/// share stolen by the hypervisor during a run tells a noisy-neighbour run
/// from a slow program.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Current thread count of this process.
pub fn threads_now() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = result_line(
            Outcome {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
