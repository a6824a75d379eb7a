//! Host-clock spans around the benchmark's calls into each layer.
//!
//! The recorder is always present; when it is off, [`Recorder::span`]
//! is a single branch around the call, so the untraced run and the
//! traced run execute the same op code. Spans are kept in memory and
//! exported once, at exit, through `hipe_trace`'s Chrome Trace writer.

use hipe_trace::{TraceSink, Tracer, TrackKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed host-time interval.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// `layer.call[.arch]`, e.g. `compiler.lower.x86`; `op` for the op
    /// span itself.
    pub name: &'static str,
    /// Id of the op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for op spans.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub begin_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl HostSpan {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }

    /// The layer the span is charged to: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested host spans (only while on).
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    t0: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<HostSpan>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder::new(false)
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Recorder::new(true)
    }

    fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Runs op number `op` inside an `op` span; every span opened by
    /// `f` carries the op's id and has the op span as its ancestor.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op = op;
        if !self.on {
            return f(self);
        }
        let idx = self.enter("op");
        let out = f(self);
        self.exit(idx);
        out
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(HostSpan {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            begin_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize) {
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Number of op spans recorded.
    pub fn ops(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).count() as u64
    }

    /// Total duration per span name, over all ops.
    pub fn total_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Self time (duration minus the part covered by direct children)
    /// summed per layer over all ops.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        let children = self.child_ns();
        for (s, covered) in self.spans.iter().zip(&children) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(*covered);
        }
        out
    }

    /// The smallest share of an op span's wall time that its child
    /// spans cover (1.0 when no op was recorded).
    pub fn min_op_coverage(&self) -> f64 {
        let children = self.child_ns();
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.parent.is_none())
            .map(|(s, &covered)| covered as f64 / s.dur_ns().max(1) as f64)
            .fold(1.0, f64::min)
    }

    /// Per span: nanoseconds covered by its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        covered
    }

    /// Renders the spans as Chrome Trace JSON (one sync track; host
    /// nanoseconds are written in the viewer's microsecond field, so
    /// the timeline reads 1000x stretched).
    pub fn to_chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut tracer = Tracer::new();
        let track = tracer.track(&format!("perfbench {workload} (host ns)"), TrackKind::Sync);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => format!("{}#{p}", self.spans[p].name),
                None => "none".to_string(),
            };
            tracer.span_on(
                track,
                s.name,
                s.begin_ns,
                s.end_ns,
                vec![
                    ("op", s.op.into()),
                    ("span", i.into()),
                    ("parent", parent.into()),
                ],
            );
        }
        tracer.to_chrome_json(&[
            ("workload", format!("\"{workload}\"")),
            ("seed", seed.to_string()),
            (
                "clock",
                "\"host nanoseconds (shown as viewer us)\"".to_string(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_keeps_nothing() {
        let mut rec = Recorder::off();
        let v = rec.op(0, |rec| rec.span("db.x", || 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.min_op_coverage(), 1.0);
    }

    #[test]
    fn spans_nest_under_their_op() {
        let mut rec = Recorder::on();
        rec.op(3, |rec| {
            rec.span("compiler.lower.x86", || std::hint::black_box(1));
            rec.span("core.run_plan.x86", || std::hint::black_box(2));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 3));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(rec.ops(), 1);
        let by_layer = rec.self_ns_by_layer();
        assert!(by_layer.contains_key("compiler") && by_layer.contains_key("core"));
        let json = rec.to_chrome_json("scan", 1);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("compiler.lower.x86"));
    }
}
