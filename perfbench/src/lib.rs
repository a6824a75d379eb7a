//! The repository benchmark: three closed-loop workloads driving the
//! public API of `hipe-core`, `hipe-serve` and `hipe-db` from one
//! thread, measured on the host clock (what the simulator costs to
//! run) next to the simulated clock (what the modelled machines take).
//!
//! * `scan` — the paper's figure path: every point freshly lowered and
//!   run on all four machines (execution-heavy, bypasses plan caches);
//! * `serve` — `run_service` on a replicated cluster, alternating clean
//!   and failover runs (scheduler-heavy, plan cache warm);
//! * `ingest` — a fresh 1M-row shipdate-clustered system per op, then
//!   pruned window scans (write path and pruned reads).
//!
//! One op is one closed-loop request: one client, no think time. Set-up
//! and one warm-up op run before timing starts, and every op's outputs
//! are checked outside the timed region; a mismatch counts the op as
//! failed. An untraced run gives the end-to-end metrics; a traced run
//! (host spans around every layer call, see [`probe`]) gives the
//! per-layer metrics and the tracing overhead.

pub mod ingest;
pub mod probe;
pub mod scan;
pub mod serve;
pub mod stats;
pub mod sweep;

use hipe::Arch;
use hipe_sim::Samples;
use hipe_trace::TraceSink;
use probe::Recorder;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Hard cap on one run's measuring loops, well inside the 180 s a run
/// may take in total.
const LOOP_CAP: Duration = Duration::from_secs(100);

/// Share of each traced op's wall time its layer spans must cover.
const MIN_COVERAGE: f64 = 0.9;

/// Steps (two untraced and two traced ops each) a traced run needs at
/// least (no percentile is taken there, only throughput).
const MIN_TRACE_OPS: u64 = 5;

/// Metric-name suffix of each machine.
pub const ARCH_KEYS: [&str; 4] = ["x86", "hmcisa", "hive", "hipe"];

/// `compiler.lower.<arch>` span names, in [`Arch::ALL`] order.
pub const LOWER_SPANS: [&str; 4] = [
    "compiler.lower.x86",
    "compiler.lower.hmcisa",
    "compiler.lower.hive",
    "compiler.lower.hipe",
];

/// `core.run_plan.<arch>` span names, in [`Arch::ALL`] order.
pub const RUN_SPANS: [&str; 4] = [
    "core.run_plan.x86",
    "core.run_plan.hmcisa",
    "core.run_plan.hive",
    "core.run_plan.hipe",
];

/// Position of `arch` in [`Arch::ALL`].
pub fn arch_index(arch: Arch) -> usize {
    Arch::ALL
        .iter()
        .position(|&a| a == arch)
        .expect("Arch::ALL lists every machine")
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure sweep: 3 queries x 4 machines, freshly lowered.
    Scan,
    /// Replicated service with failover.
    Serve,
    /// Fresh clustered table, pruned window scans.
    Ingest,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Scan, Kind::Serve, Kind::Ingest];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Scan => "scan",
            Kind::Serve => "serve",
            Kind::Ingest => "ingest",
        }
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to drive.
    pub kind: Kind,
    /// Input seed: every generated table and query stream derives
    /// from it.
    pub seed: u64,
    /// Seconds the measuring loop runs (at least
    /// [`stats::MIN_OPS_FOR_P90`] ops are timed regardless).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs, for the benchmark's self-tests.
    pub tiny: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count behind the value, where it is a statistic.
    pub samples: Option<u64>,
}

impl Metric {
    /// A metric with no sample count.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }
}

/// End-to-end metrics reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "ops/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("served_per_s", "queries/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics reported by every workload's traced run. A layer
/// the workload does not call reads 0, as do ratios whose base is 0 on
/// that workload.
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let per_arch = |out: &mut Vec<(String, &'static str)>, base: &str, unit, archs: &[&str]| {
        for a in archs {
            out.push((format!("{base}.{a}"), unit));
        }
    };
    per_arch(&mut out, "compiler.lower_ms", "ms", &ARCH_KEYS);
    per_arch(&mut out, "compiler.instrs", "count", &ARCH_KEYS);
    per_arch(&mut out, "compiler.ns_per_instr", "ns", &ARCH_KEYS);
    per_arch(&mut out, "core.run_ms", "ms", &ARCH_KEYS);
    per_arch(&mut out, "core.run_ns_per_instr", "ns", &ARCH_KEYS);
    out.push(("core.pruned_run_ms".into(), "ms"));
    per_arch(&mut out, "cpu.ops", "count", &ARCH_KEYS[..2]);
    out.push(("cpu.mispredict_ratio".into(), "ratio"));
    out.push(("cache.accesses.x86".into(), "count"));
    out.push(("cache.l1_hit_ratio.x86".into(), "ratio"));
    out.push(("cache.prefetch_hit_ratio.x86".into(), "ratio"));
    per_arch(&mut out, "hmc.link_bytes", "B", &ARCH_KEYS);
    per_arch(&mut out, "hmc.activations", "count", &ARCH_KEYS);
    per_arch(&mut out, "hmc.fu_ops", "count", &ARCH_KEYS);
    per_arch(&mut out, "logic.instructions", "count", &ARCH_KEYS[2..]);
    out.push(("logic.squash_ratio.hipe".into(), "ratio"));
    for (name, unit) in [
        ("db.generate_ms", "ms"),
        ("db.zonemap_ms", "ms"),
        ("db.materialize_ms", "ms"),
        ("db.generate_mrows_per_s", "Mrows/s"),
        ("db.materialize_gb_per_s", "GB/s"),
        ("serve.build_ms", "ms"),
        ("serve.fixed_ms", "ms"),
        ("serve.ns_per_query", "ns"),
        ("serve.materializations_per_run", "count"),
        ("serve.compilations_per_run", "count"),
        ("serve.failovers", "count"),
        ("serve.redispatched", "count"),
    ] {
        out.push((name.into(), unit));
    }
    for layer in SPAN_LAYERS {
        out.push((format!("self_ms.{layer}"), "ms"));
    }
    out.push(("trace.overhead_frac".into(), "ratio"));
    out.push(("trace.tracer_overhead_frac".into(), "ratio"));
    out.push(("trace.span_coverage_min".into(), "ratio"));
    out
}

/// Layers the benchmark's spans are charged to (`op` is the op span's
/// own time not covered by a layer call).
pub const SPAN_LAYERS: [&str; 5] = ["op", "db", "compiler", "core", "serve"];

/// Per-layer values collected by a traced run, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Adds to one metric.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// One metric's value (0 when not set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds one run's model counters under `arch`'s keys.
    pub fn add_run(&mut self, report: &hipe::RunReport) {
        let a = ARCH_KEYS[arch_index(report.arch)];
        self.add(&format!("hmc.link_bytes.{a}"), report.hmc.link_bytes as f64);
        self.add(
            &format!("hmc.activations.{a}"),
            report.hmc.activations as f64,
        );
        self.add(&format!("hmc.fu_ops.{a}"), report.hmc.fu_ops as f64);
        if matches!(report.arch, Arch::HostX86 | Arch::HmcIsa) {
            self.add(&format!("cpu.ops.{a}"), report.core.ops as f64);
        }
        if report.arch == Arch::HostX86 {
            self.add("x86.branches", report.core.branches as f64);
            self.add("x86.mispredicts", report.core.mispredicts as f64);
        }
        if let (Arch::HostX86, Some(c)) = (report.arch, &report.cache) {
            self.add("cache.accesses.x86", c.accesses as f64);
            self.add("x86.l1_hits", c.l1_hits as f64);
            self.add("x86.l1_lookups", (c.l1_hits + c.l1_misses) as f64);
            self.add("x86.prefetches", c.prefetches as f64);
            self.add("x86.prefetch_hits", c.prefetch_hits as f64);
        }
        if let Some(e) = &report.engine {
            if matches!(report.arch, Arch::Hive | Arch::Hipe) {
                self.add(&format!("logic.instructions.{a}"), e.instructions as f64);
            }
            if report.arch == Arch::Hipe {
                self.add("hipe.squashed", e.squashed as f64);
            }
        }
    }

    /// Turns the raw sums [`add_run`](Self::add_run) keeps into the
    /// published ratios (0 where the base is 0).
    fn finish_ratios(&mut self) {
        let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
        let pairs = [
            ("cpu.mispredict_ratio", "x86.mispredicts", "x86.branches"),
            ("cache.l1_hit_ratio.x86", "x86.l1_hits", "x86.l1_lookups"),
            (
                "cache.prefetch_hit_ratio.x86",
                "x86.prefetch_hits",
                "x86.prefetches",
            ),
            (
                "logic.squash_ratio.hipe",
                "hipe.squashed",
                "logic.instructions.hipe",
            ),
        ];
        for (out, num, den) in pairs {
            let v = ratio(self.get(num), self.get(den));
            self.set(out, v);
        }
        for a in ARCH_KEYS {
            let instrs = self.get(&format!("compiler.instrs.{a}"));
            let lower_ns = self.get(&format!("compiler.lower_ms.{a}")) * 1e6;
            let run_ns = self.get(&format!("core.run_ms.{a}")) * 1e6;
            self.set(
                &format!("compiler.ns_per_instr.{a}"),
                ratio(lower_ns, instrs),
            );
            self.set(&format!("core.run_ns_per_instr.{a}"), ratio(run_ns, instrs));
        }
    }
}

/// What one workload provides to the measuring loop.
pub trait Workload {
    /// Runs one op. Timed by the caller; outputs are kept for
    /// [`check`](Self::check).
    fn op(&mut self, rec: &mut Recorder);

    /// Checks the last op's outputs (untimed). The first call checks
    /// the warm-up op against the reference answers and records its
    /// simulated statistics; later calls also require the same
    /// statistics for the same (machine, query). `false` fails the op.
    fn check(&mut self) -> bool;

    /// Simulated instructions (`core.ops + engine.instructions`) one op
    /// executes.
    fn instructions_per_op(&self) -> u64;

    /// Simulated queries one op answers.
    fn queries_per_op(&self) -> u64;

    /// Workload-specific model outputs (deterministic `sim_*` figures),
    /// computed outside the timed ops, and the digest of every
    /// simulated statistic the run produced.
    fn model(&mut self) -> (Vec<Metric>, u64);

    /// Per-op model counts and the workload's layer probes, for the
    /// traced run. `rec` holds the traced ops' spans.
    fn layers(&mut self, rec: &Recorder, out: &mut Layers);
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Ops timed (warm-up excluded).
    pub attempted: u64,
    /// Ops whose outputs failed a check.
    pub failed: u64,
    /// No check failed, set-up included.
    pub correct: bool,
    /// The metrics of the result line: end-to-end (untraced run) or
    /// per-layer (traced run).
    pub metrics: Vec<Metric>,
    /// Metrics printed by name but kept out of the result line: the
    /// untraced run's p10 and median op times, and the workload-specific
    /// model outputs (not defined on every workload).
    pub extra: Vec<Metric>,
    /// FNV digest of every simulated statistic.
    pub sim_digest: u64,
    /// Chrome Trace JSON of the traced run.
    pub trace_json: Option<String>,
}

/// Builds the workload's inputs and hands it to `k`.
fn with_workload(cfg: &Config, k: &mut dyn FnMut(&mut dyn Workload)) {
    match cfg.kind {
        Kind::Scan => scan::with(cfg, k),
        Kind::Serve => serve::with(cfg, k),
        Kind::Ingest => ingest::with(cfg, k),
    }
}

/// Runs the workload through set-up and warm-up [`SETUP_REPS`] times
/// (once for a traced run, which does not report `setup_s`), then
/// measures the last one. `process_start` is when the process began;
/// the first set-up is timed from it.
pub fn run(cfg: &Config, process_start: Instant) -> Outcome {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_ns = Samples::new();
    let mut setup_ok = true;
    let mut measured = None;
    for rep in 0..reps {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let last = rep + 1 == reps;
        with_workload(cfg, &mut |w| {
            w.op(&mut Recorder::off());
            setup_ok &= w.check();
            setup_ns.push(t0.elapsed().as_nanos() as u64);
            if last {
                measured = Some(measure(cfg, w));
            }
        });
    }
    let mut outcome = measured.expect("the last set-up is measured");
    outcome.correct &= setup_ok;
    if !cfg.trace {
        let setup_s = setup_ns.p50().expect("at least one set-up ran") as f64 / 1e9;
        let mut m = Metric::new("setup_s", setup_s, "s");
        m.samples = Some(setup_ns.count());
        outcome.metrics.insert(0, m);
        if let Some(rss) = stats::peak_rss_mib() {
            outcome.metrics.push(Metric::new("peak_rss_mb", rss, "MiB"));
        }
    }
    outcome
}

/// One measuring loop's results.
#[derive(Default)]
struct Loop {
    attempted: u64,
    failed: u64,
    op_ns: Samples,
    busy_ns: u64,
}

impl Loop {
    fn ops_per_s(&self) -> f64 {
        self.op_ns.count() as f64 / (self.busy_ns.max(1) as f64 / 1e9)
    }

    /// Times one op and checks its outputs outside the timing.
    fn time_op(&mut self, w: &mut dyn Workload, rec: &mut Recorder) {
        let t = Instant::now();
        rec.op(self.attempted, |rec| w.op(rec));
        let ns = t.elapsed().as_nanos() as u64;
        self.op_ns.push(ns);
        self.busy_ns += ns;
        self.attempted += 1;
        if !w.check() {
            self.failed += 1;
        }
    }
}

/// Runs `step` closed-loop until `seconds` have passed and at least
/// `min_steps` steps ran (within [`LOOP_CAP`]).
fn closed_loop(seconds: f64, min_steps: u64, mut step: impl FnMut()) {
    let target = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut steps = 0;
    while (start.elapsed() < target || steps < min_steps) && start.elapsed() < LOOP_CAP {
        step();
        steps += 1;
    }
}

fn measure(cfg: &Config, w: &mut dyn Workload) -> Outcome {
    let mut extra = Vec::new();
    let (attempted, failed, metrics, trace_json) = if cfg.trace {
        // Each step runs untraced, traced, traced, untraced. Both sides
        // see the same host contention and, where a workload's ops
        // alternate in kind (`serve`: clean, failover), one op of each
        // kind, so their difference is the tracing overhead.
        let (mut plain, mut traced) = (Loop::default(), Loop::default());
        let (mut off, mut rec) = (Recorder::off(), Recorder::on());
        closed_loop(cfg.seconds, MIN_TRACE_OPS, || {
            plain.time_op(w, &mut off);
            traced.time_op(w, &mut rec);
            traced.time_op(w, &mut rec);
            plain.time_op(w, &mut off);
        });
        let mut layers = Layers::default();
        w.layers(&rec, &mut layers);
        layers.set(
            "trace.overhead_frac",
            1.0 - traced.ops_per_s() / plain.ops_per_s(),
        );
        let coverage = rec.min_op_coverage();
        layers.set("trace.span_coverage_min", coverage);
        // An op whose wall time the layer spans do not cover is an
        // unmeasured layer: count it as one failed op.
        let uncovered = u64::from(coverage < MIN_COVERAGE);
        (
            plain.attempted + traced.attempted,
            plain.failed + traced.failed + uncovered,
            finish_layers(layers, &rec),
            Some(rec.to_chrome_json(cfg.kind.name(), cfg.seed)),
        )
    } else {
        let mut l = Loop::default();
        let mut off = Recorder::off();
        closed_loop(cfg.seconds, stats::MIN_OPS_FOR_P90, || {
            l.time_op(w, &mut off)
        });
        // On a shared host whose contention comes in phases, op times
        // form an uncontended and a contended mode; p10 and the median
        // land in one or the other depending on each run's phase mix,
        // too far apart for any bound. p90 sits in the contended mode on
        // every run, so only it enters the result line.
        extra.extend(op_ms(&mut l.op_ns, "op_ms_p10", 10.0));
        extra.extend(op_ms(&mut l.op_ns, "op_ms_p50", 50.0));
        let mut metrics = Vec::new();
        metrics.extend(op_ms(&mut l.op_ns, "op_ms_p90", 90.0));
        let ops_per_s = l.ops_per_s();
        metrics.push(Metric::new("ops_per_s", ops_per_s, "ops/s"));
        metrics.push(Metric::new(
            "sim_minstr_per_s",
            ops_per_s * w.instructions_per_op() as f64 / 1e6,
            "Minstr/s",
        ));
        metrics.push(Metric::new(
            "served_per_s",
            ops_per_s * w.queries_per_op() as f64,
            "queries/s",
        ));
        (l.attempted, l.failed, metrics, None)
    };
    let (model, sim_digest) = w.model();
    extra.extend(model);
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        extra,
        sim_digest,
        trace_json,
    }
}

/// The `p`-th percentile of op times in ms, with its sample count;
/// `None` when the percentile does not qualify.
fn op_ms(op_ns: &mut Samples, name: &str, p: f64) -> Option<Metric> {
    let ns = stats::qualified_percentile(op_ns, p)?;
    let mut m = Metric::new(name, ns as f64 / 1e6, "ms");
    m.samples = Some(op_ns.count());
    Some(m)
}

/// Adds the span-derived times to a traced run's layer values and
/// emits every per-layer metric in [`layer_metric_names`] order.
fn finish_layers(mut layers: Layers, rec: &Recorder) -> Vec<Metric> {
    let ops = rec.ops().max(1) as f64;
    let by_name = rec.total_ns_by_name();
    for (i, a) in ARCH_KEYS.iter().enumerate() {
        let ms = |span: &str| by_name.get(span).copied().unwrap_or(0) as f64 / ops / 1e6;
        layers.set(&format!("compiler.lower_ms.{a}"), ms(LOWER_SPANS[i]));
        layers.set(&format!("core.run_ms.{a}"), ms(RUN_SPANS[i]));
    }
    for (layer, ns) in rec.self_ns_by_layer() {
        layers.set(&format!("self_ms.{layer}"), ns as f64 / ops / 1e6);
    }
    layers.finish_ratios();
    let names = layer_metric_names();
    for key in layers.0.keys() {
        let internal = key.starts_with("x86.") || key.starts_with("hipe.");
        assert!(
            internal || names.iter().any(|(n, _)| n == key),
            "layer metric {key} is not in the published list"
        );
    }
    names
        .into_iter()
        .map(|(name, unit)| {
            let v = layers.get(&name);
            Metric::new(&name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}

/// Renders the result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    out
}

/// Repetitions of each layer probe in a traced run; probes report the
/// median.
pub const PROBE_REPS: usize = 5;

/// Median wall time of `f` over [`PROBE_REPS`] calls, in ms.
pub fn probe_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut ns = Samples::new();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let v = std::hint::black_box(f());
        ns.push(t.elapsed().as_nanos() as u64);
        // Freed after the timer stops: the probe times only the call.
        drop(v);
    }
    ns.p50().expect("PROBE_REPS > 0") as f64 / 1e6
}

/// Records the table-side layer probes: generation, zone-map build and
/// materialization times, and the rates they imply.
pub fn set_db_layers(
    out: &mut Layers,
    rows: u64,
    image_bytes: u64,
    gen_ms: f64,
    zone_ms: f64,
    mat_ms: f64,
) {
    out.set("db.generate_ms", gen_ms);
    out.set("db.zonemap_ms", zone_ms);
    out.set("db.materialize_ms", mat_ms);
    out.set("db.generate_mrows_per_s", rows as f64 / 1e3 / gen_ms);
    out.set("db.materialize_gb_per_s", image_bytes as f64 / 1e6 / mat_ms);
}

/// `Session::run_traced` with a `Tracer` against `Session::run`, on
/// HIPE: the relative cost of the program's own cycle-domain tracing.
pub fn tracer_overhead(session: &mut hipe::Session<'_>, query: &hipe_db::Query) -> f64 {
    let mut run = |traced: bool| {
        let mut tracer = hipe_trace::Tracer::new();
        let track = tracer.track("hipe", hipe_trace::TrackKind::Sync);
        let ctx = traced.then_some(hipe::TraceCtx {
            sink: &mut tracer,
            track,
            at: 0,
        });
        session.run_traced(Arch::Hipe, query, ctx)
    };
    paired_overhead(|traced| {
        run(traced);
    })
}

/// Median over [`PROBE_REPS`] pairs of `f(true)` time / `f(false)`
/// time, minus 1. The pair order alternates, so host contention falls
/// on both sides alike.
pub fn paired_overhead(mut f: impl FnMut(bool)) -> f64 {
    let mut time = |traced| {
        let t = Instant::now();
        f(traced);
        t.elapsed().as_nanos().max(1) as f64
    };
    let mut ratios: Vec<f64> = (0..PROBE_REPS)
        .map(|i| {
            let first = i % 2 == 0;
            let (a, b) = (time(first), time(!first));
            let (traced, plain) = if first { (a, b) } else { (b, a) };
            traced / plain
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2] - 1.0
}
