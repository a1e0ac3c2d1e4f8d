//! The benchmark's own spans: recorded around each call into a layer, kept
//! in memory, and written once when the run ends.
//!
//! A span has a name, a parent, the id of the operation it belongs to, and
//! start/end instants. Self time is a span's duration minus the part its
//! children cover; children of one span never overlap because each tracer is
//! used from one thread.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    /// Thread lane (client index) for the trace viewer.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals from [`Tracer::self_times`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.count as f64 / 1e3
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, lane: u32) -> Tracer {
        Tracer {
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            lane: self.lane,
            start_ns: start,
            end_ns: start,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span measured elsewhere (e.g. a server-side interval taken
    /// from a reply), placed at `start_ns` relative to the tracer's origin.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            lane: self.lane,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    pub fn span_start_ns(&self, id: u32) -> u64 {
        self.spans[id as usize].start_ns
    }

    /// Absorb another tracer's spans (ids are renumbered).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                child_ns[p as usize] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// The spans as a Chrome trace-event document (opens in Perfetto or
    /// `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.record("op", None, 1, 0, 100);
        t.record("parse", Some(0), 1, 10, 20);
        t.record("execute", Some(0), 1, 40, 50);
        let totals = t.self_times();
        assert_eq!(totals["op"].self_ns, 30);
        assert_eq!(totals["op"].total_ns, 100);
        assert_eq!(totals["parse"].self_ns, 20);
    }
}
