//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own code, around each call into a
//! layer's public functions; nothing is recorded inside the program. Every
//! span belongs to one sample (a set-up repetition or an operation), names
//! the span that encloses it, and may carry the algorithm it ran for and
//! counters read at the same boundary. The log is written out once, when the
//! run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Sample the span belongs to (shared by all spans of one operation).
    pub sample: u32,
    /// Unique id within the run.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer boundary, such as `graph.partition`.
    pub name: &'static str,
    /// Algorithm the span ran for, when the sample runs several.
    pub alg: Option<&'static str>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Counters read at this boundary.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans; see the module docs. A disabled recorder runs the
/// wrapped calls and records nothing, so timed and traced runs share one
/// code path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    sample: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            sample: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new sample; later spans belong to it.
    pub fn begin_sample(&mut self) -> u32 {
        self.sample += 1;
        self.sample
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span and returns its result together with the span
    /// id, so that counters can be attached once the result is known.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        alg: Option<&'static str>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, u32) {
        if !self.enabled {
            return (f(self), u32::MAX);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            sample: self.sample,
            id,
            parent: self.open.last().copied(),
            name,
            alg,
            start_ns: self.now_ns(),
            end_ns: 0,
            counters: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        (out, id)
    }

    /// Attaches a counter to a span (ignored when disabled).
    pub fn count(&mut self, span: u32, key: &'static str, value: f64) {
        if self.enabled {
            self.spans[span as usize].counters.push((key, value));
        }
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-sample metrics: every span contributes `<name>.s` and each of its
    /// counters `<key>`, summed over the sample, both plain and with
    /// `.<alg>` appended when the span names an algorithm. Keys listed in
    /// `max_keys` take the largest value instead of the sum.
    pub fn sample_metrics(&self, max_keys: &[&str]) -> BTreeMap<u32, BTreeMap<String, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<String, f64>> = BTreeMap::new();
        for span in &self.spans {
            let sample = out.entry(span.sample).or_default();
            let time_key = format!("{}.s", span.name);
            let entries = std::iter::once((time_key.as_str(), span.secs()))
                .chain(span.counters.iter().map(|&(k, v)| (k, v)));
            for (key, value) in entries {
                let mut keys = vec![key.to_string()];
                if let Some(alg) = span.alg {
                    keys.push(format!("{key}.{alg}"));
                }
                for k in keys {
                    let slot = sample.entry(k).or_insert(0.0);
                    if max_keys.contains(&key) {
                        *slot = slot.max(value);
                    } else {
                        *slot += value;
                    }
                }
            }
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let alg = s.alg.map_or("null".to_string(), |a| format!("\"{a}\""));
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
                .collect();
            let _ = writeln!(
                out,
                "{{\"sample\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"alg\":{alg},\"start_ns\":{},\"end_ns\":{},\"counters\":{{{}}}}}",
                s.sample,
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                counters.join(",")
            );
        }
        out
    }
}

/// Formats a number for JSON; non-finite values, which JSON cannot hold,
/// become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_sum_per_algorithm() {
        let mut rec = Recorder::new(true);
        rec.begin_sample();
        let ((), op) = rec.span("bench.op", None, |rec| {
            for alg in ["pr", "spmv"] {
                let ((), id) = rec.span("graph.partition", Some(alg), |_| ());
                rec.count(id, "graph.grid.blocks", 10.0);
                rec.count(id, "core.plan.p", if alg == "pr" { 8.0 } else { 4.0 });
            }
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|s| s.parent == Some(op)));
        let metrics = rec.sample_metrics(&["core.plan.p"]);
        let m = &metrics[&1];
        assert_eq!(m["graph.grid.blocks"], 20.0);
        assert_eq!(m["graph.grid.blocks.pr"], 10.0);
        assert_eq!(m["core.plan.p"], 8.0);
        assert_eq!(m["core.plan.p.spmv"], 4.0);
        assert!(m["bench.op.s"] >= m["graph.partition.s"]);
        assert_eq!(rec.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_runs_the_call_and_records_nothing() {
        let mut rec = Recorder::new(false);
        let (v, id) = rec.span("core.run", None, |_| 7);
        rec.count(id, "core.run.iterations", 1.0);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }
}
