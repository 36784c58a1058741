//! Reads a finished [`Trace`] from outside the program: spans rebuilt from
//! begin/end events and clipped to a time window, and counters and
//! histogram sums with a baseline trace subtracted.

use std::collections::BTreeMap;

use zg_trace::{EventKind, Trace};

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub stream: usize,
    pub name: String,
    pub arg: Option<i64>,
    pub begin: f64,
    pub end: f64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        self.end - self.begin
    }
}

/// Every closed span of `trace` that lies wholly inside `[t0, t1]`.
pub fn spans_within(trace: &Trace, t0: f64, t1: f64) -> Vec<SpanRec> {
    let mut out = Vec::new();
    for (stream, s) in trace.streams.iter().enumerate() {
        let mut open: Vec<(String, Option<i64>, f64)> = Vec::new();
        for ev in &s.events {
            match &ev.kind {
                EventKind::Begin { name, arg } => open.push((name.clone(), *arg, ev.t)),
                EventKind::End => {
                    if let Some((name, arg, begin)) = open.pop() {
                        if begin >= t0 && ev.t <= t1 {
                            out.push(SpanRec {
                                stream,
                                name,
                                arg,
                                begin,
                                end: ev.t,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Per-name span totals: (count, seconds, summed integer args).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSum {
    pub count: u64,
    pub secs: f64,
    pub args: i64,
}

pub fn sum_by_name(spans: &[SpanRec]) -> BTreeMap<String, SpanSum> {
    let mut out: BTreeMap<String, SpanSum> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.secs += s.secs();
        e.args += s.arg.unwrap_or(0);
    }
    out
}

/// Counters plus the `sum` of every histogram (as `<name>.sum`), summed
/// over streams, minus the same figures of `baseline` (work done before
/// the measured phase, replayed identically under its own tracer).
pub fn counters_minus(trace: &Trace, baseline: Option<&Trace>) -> BTreeMap<String, f64> {
    let collect = |t: &Trace| {
        let mut m = t.counters();
        for (name, h) in t.hists() {
            m.insert(format!("{name}.sum"), h.sum);
        }
        m
    };
    let mut out = collect(trace);
    if let Some(b) = baseline {
        for (k, v) in collect(b) {
            *out.entry(k).or_insert(0.0) -= v;
        }
    }
    out
}

/// GEMM calls and GFLOP (2·m·n·k per call) from the `gemm.dispatch.*`
/// counters and the `gemm.mnk` histogram.
pub fn gemm_work(counters: &BTreeMap<String, f64>) -> (f64, f64) {
    let calls = counters
        .iter()
        .filter(|(k, _)| k.starts_with("gemm.dispatch."))
        .map(|(_, v)| v)
        .sum();
    let mnk = counters.get("gemm.mnk.sum").copied().unwrap_or(0.0);
    (calls, 2.0 * mnk / 1e9)
}

/// Busy time of the serving loop that no named layer covers, as a share
/// of all tick time. Per batch the critical path is the replica chunk
/// that finished last; its `serve.score` spans are the engine layer, and
/// `Server::tick` minus `execute` is the scheduler layer. What remains is
/// dispatch, reply merging and per-chunk overhead.
pub fn serve_unattributed(spans: &[SpanRec]) -> f64 {
    let by = |name: &str| -> Vec<&SpanRec> { spans.iter().filter(|s| s.name == name).collect() };
    let ticks: f64 = by("serve.tick").iter().map(|s| s.secs()).sum();
    let chunks = by("serve.chunk");
    let scores = by("serve.score");
    let mut uncovered = 0.0;
    for exec in by("serve.execute") {
        let critical = chunks
            .iter()
            .filter(|c| c.begin >= exec.begin && c.begin <= exec.end)
            .max_by(|a, b| a.end.total_cmp(&b.end));
        let covered: f64 = match critical {
            Some(c) => scores
                .iter()
                .filter(|s| s.stream == c.stream && s.begin >= c.begin && s.end <= c.end)
                .map(|s| s.secs())
                .sum(),
            None => 0.0,
        };
        uncovered += exec.secs() - covered;
    }
    crate::stats::ratio(uncovered, ticks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zg_trace::{ManualClock, Tracer};

    #[test]
    fn spans_are_clipped_to_the_window() {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(clock.clock());
        {
            let _g = tracer.install("main");
            {
                let _a = zg_trace::span_arg("a", 3);
                clock.advance(1.0);
            }
            {
                let _b = zg_trace::span_arg("b", 5);
                let _c = zg_trace::span("c");
                clock.advance(2.0);
            }
        }
        let trace = tracer.finish();
        let all = sum_by_name(&spans_within(&trace, 0.0, 10.0));
        assert_eq!(all["a"].args, 3);
        assert_eq!(all["b"].secs, 2.0);
        assert_eq!(all["c"].count, 1);
        let late = sum_by_name(&spans_within(&trace, 0.5, 10.0));
        assert!(!late.contains_key("a"));
        assert_eq!(late["b"].args, 5);
    }

    #[test]
    fn baseline_counters_are_subtracted() {
        let run = |n: usize| {
            let tracer = Tracer::new();
            {
                let _g = tracer.install("main");
                for _ in 0..n {
                    zg_trace::counter_add("gemm.dispatch.simd", 1.0);
                    zg_trace::hist_record("gemm.mnk", 1e9);
                }
            }
            tracer.finish()
        };
        let (full, base) = (run(5), run(2));
        let c = counters_minus(&full, Some(&base));
        let (calls, gflop) = gemm_work(&c);
        assert_eq!(calls, 3.0);
        assert_eq!(gflop, 6.0);
    }
}
