//! CI schema check for `BENCH_figures.json`.
//!
//! The `figures` bench writes the four-machine sweep through
//! `hipe_trace::json`; this binary parses the emitted file with the
//! same module and fails the pipeline if the document is not JSON (a
//! truncated file, trailing data, a duplicate key), if its `schema` is
//! missing or not the version this checker reads, or if the figures
//! drift — in particular it requires the aggregate
//! sweep (the `agg_*` points plus `q6`) to be present with all four
//! architectures and non-empty phase breakdowns, so a regression that
//! silently drops the fused-aggregate rows (or zeroes their cycles)
//! cannot pass CI. The partitioned-execution sweep (`par_1` through
//! `par_8`, HIVE/HIPE only) is validated for presence and for
//! *monotonically non-increasing* cycles and scan ends as the engine
//! count grows — a regression that makes more engines slower fails
//! the pipeline.
//!
//! The sharded service sweep (`serve_1` / `serve_2` / `serve_4` /
//! `serve_4x2`, emitted by the `hipe-serve` scheduler) is validated
//! for presence, ordered latency percentiles, and *monotonically
//! non-decreasing* throughput (queries per gigacycle) as the cube
//! count grows — a regression where adding cubes slows the service
//! down fails CI. The replication point `serve_4x2` must additionally
//! reach at least 1.7x of `serve_4`'s throughput (one sub-query per
//! replica means two replicas serve nearly twice the load), and the
//! failover point `serve_fail` must have actually failed over
//! (`failovers` ≥ 1), served every query, and produced per-arch
//! answer digests equal to its fault-free counterparts — the
//! machine-checked form of "failover is bit-identical".
//!
//! The zone-map skip sweep (`skip_1%` / `skip_3%` / `skip_10%`) pairs
//! a pruned and an unpruned run of the same clustered-shipdate window
//! in one row (`base_*` fields are the unpruned baseline). Every
//! machine must have pruned something (`regions_pruned` ≥ 1) and must
//! not be slower pruned than unpruned; the ≤ 3 % selectivity rows
//! must additionally cut both the scan and the dispatch completion
//! cycle by at least 1.5x. The `serve_skip` row must report at least
//! one shard never scattered to, at no cycle cost over the full
//! scatter — a data-skipping regression fails CI.
//!
//! The data-plane rate rows (`perf_materialize` / `perf_generate` /
//! `perf_engine`) record the host-side throughput of the zero-copy
//! hot paths: each must be present and report a positive work size
//! and a positive integer rate — a rate of zero means the measured
//! path produced nothing (or the recording harness broke), and a
//! missing row means the sweep silently dropped its throughput
//! tracking.
//!
//! Every point must also record its host wall-clock as a `host_ms`
//! field — the simulator-speed trajectory is part of the schema — and
//! the `host_par` row (the same four-arch batch and 4-shard scatter on
//! a 1-worker and a 4-worker pool) must show equal result digests for
//! both legs (parallel co-simulation is bit-identical to serial) and
//! parallel legs no slower than the serial ones. The wall-clock half
//! of that contract is only enforced when the recording host reported
//! `host_cpus` ≥ 2 — a single-core runner cannot demonstrate a
//! speedup, only determinism.
//!
//! With `--trace [PATH]` the binary validates a Chrome trace written
//! by `trace_dump` (default `BENCH_trace.json` at the workspace root)
//! instead of the figures document: the file must parse, every event
//! must carry the fields its phase requires, sync
//! spans on each track must nest (a child may not straddle its
//! parent's end) and end inside the recorded makespan, async
//! begin/end pairs must balance id-for-id, and the event population
//! must reconcile exactly with the `ServiceReport` counters embedded
//! in `otherData` — one async lifetime span per query served, one
//! `fault.kill` instant per failover, one `redispatch` instant per
//! lost sub-query, and a total event count matching the recorder's.
//!
//! Usage: run the `figures` bench first, then
//! `cargo run -p hipe-bench --bin check_figures`. The file location
//! follows the bench's convention: `HIPE_BENCH_JSON` if set, else
//! `BENCH_figures.json` at the workspace root.

// The bench harness is the terminal boundary of the workspace: the
// library-wide print lints stop here.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use hipe_bench::FIGURES_SCHEMA;
use hipe_trace::json::{self, Value};
use std::process::ExitCode;

/// The architecture labels every selectivity point must report, in
/// sweep order.
const ARCHS: [&str; 4] = ["x86", "HMC-ISA", "HIVE", "HIPE"];

/// Point names that make up the aggregate sweep.
const AGGREGATE_POINTS: [&str; 4] = ["agg_2%", "agg_10%", "agg_50%", "q6"];

/// The logic machines the partition sweep reports.
const LOGIC_ARCHS: [&str; 2] = ["HIVE", "HIPE"];

/// Point names of the partitioned-execution sweep, in engine-count
/// order (cycles must not increase along this list).
const PARTITION_POINTS: [&str; 4] = ["par_1", "par_2", "par_4", "par_8"];

/// Point names of the sharded service sweep, in cube-count order
/// (throughput must not decrease along this list; the last point
/// doubles the shards of `serve_4` into replicas).
const SERVE_POINTS: [&str; 4] = ["serve_1", "serve_2", "serve_4", "serve_4x2"];

/// Point names of the zone-map skip sweep, in selectivity order.
const SKIP_POINTS: [&str; 3] = ["skip_1%", "skip_3%", "skip_10%"];

/// Skip points at ≤ 3 % selectivity: these owe a ≥ 1.5x reduction in
/// both scan and dispatch completion cycles on every machine.
const SKIP_TIGHT_POINTS: [&str; 2] = ["skip_1%", "skip_3%"];

/// Data-plane rate rows recorded by the figures bench (host-side
/// throughput of the zero-copy hot paths).
const PERF_POINTS: [&str; 3] = ["perf_materialize", "perf_generate", "perf_engine"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = args.iter().position(|a| a == "--trace") {
        let path = args.get(at + 1).cloned().unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json").into()
        });
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {path}: {e} (run trace_dump first)")),
        };
        return match check_trace(&text) {
            Ok((events, queries)) => {
                println!(
                    "check_figures: {path} ok ({events} trace events, \
                     {queries} query spans reconciled)"
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }
    if let Some(unknown) = args.first() {
        return fail(&format!(
            "unknown argument `{unknown}` (only --trace [PATH] is accepted)"
        ));
    }
    let path = std::env::var("HIPE_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json").into()
    });
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            return fail(&format!(
                "cannot read {path}: {e} (run the figures bench first)"
            ))
        }
    };
    match check(&text) {
        Ok(points) => {
            println!("check_figures: {path} ok ({points} points, aggregate sweep present)");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("check_figures: FAIL: {msg}");
    ExitCode::FAILURE
}

/// One point of the figures document, or one arch's run within it.
#[derive(Clone, Copy)]
struct Row<'a> {
    name: &'a str,
    arch: Option<&'a str>,
    value: &'a Value,
}

impl<'a> Row<'a> {
    fn lacks(&self, field: &str) -> String {
        match self.arch {
            None => format!("point {} lacks {field}", self.name),
            Some(arch) => format!("point {}: arch {arch} lacks {field}", self.name),
        }
    }

    /// Non-negative integer `field`.
    fn num(&self, field: &str) -> Result<u64, String> {
        let value = self.value.get(field).and_then(Value::as_u64);
        value.ok_or_else(|| self.lacks(field))
    }

    /// Numeric `field`, integer or float (the host wall-clock fields).
    fn ms(&self, field: &str) -> Result<f64, String> {
        let value = self.value.get(field).and_then(Value::as_f64);
        value.ok_or_else(|| self.lacks(field))
    }

    /// The point's run on `arch`, from its `archs` object.
    fn arch(&self, arch: &'a str) -> Result<Row<'a>, String> {
        let value = self.value.get("archs").and_then(|archs| archs.get(arch));
        let value = value.ok_or_else(|| format!("point {}: arch {arch} missing", self.name))?;
        Ok(Row {
            arch: Some(arch),
            value,
            ..*self
        })
    }
}

/// The point named `name`; `sweep` names its sweep in the error.
fn find<'a>(points: &[Row<'a>], sweep: &str, name: &str) -> Result<Row<'a>, String> {
    let point = points.iter().find(|p| p.name == name).copied();
    point.ok_or_else(|| format!("{sweep} point {name} missing"))
}

/// Validates the document; returns the number of points on success.
fn check(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| format!("not a JSON document: {e}"))?;
    if doc.get("bench").and_then(Value::as_str) != Some("figures") {
        return Err("not a figures document (missing \"bench\": \"figures\")".into());
    }
    match doc.get("schema") {
        None => return Err("figures document has no `schema` field".into()),
        Some(v) if v.as_u64() == Some(FIGURES_SCHEMA) => {}
        Some(v) => {
            return Err(format!(
                "unknown figures schema {} (this checker reads schema {FIGURES_SCHEMA})",
                v.to_json()
            ))
        }
    }
    let archs = Value::Array(ARCHS.iter().map(|&a| Value::from(a)).collect());
    if doc.get("archs") != Some(&archs) {
        return Err(format!("arch list drifted (expected {})", archs.to_json()));
    }
    let mut points = Vec::new();
    let values = doc.get("points").and_then(Value::as_array);
    for (i, value) in values
        .ok_or("figures document has no `points` array")?
        .iter()
        .enumerate()
    {
        let name = value.get("name").and_then(Value::as_str);
        let name = name.ok_or_else(|| format!("point #{i} has no name"))?;
        points.push(Row {
            name,
            arch: None,
            value,
        });
    }
    if points.is_empty() {
        return Err("no sweep points found".into());
    }

    for point in &points {
        let name = point.name;
        // Service-sweep points describe the scheduler, the
        // host-parallel row describes the simulator, and the perf rows
        // describe host data-plane rates, not per-arch runs; their own
        // fields are validated below.
        if name.starts_with("serve_") || name.starts_with("perf_") || name == "host_par" {
            continue;
        }
        // Partition-sweep points carry only the logic machines.
        let archs: &[&str] = if name.starts_with("par_") {
            &LOGIC_ARCHS
        } else {
            &ARCHS
        };
        for &arch in archs {
            let run = point.arch(arch)?;
            if run.num("cycles")? == 0 || run.num("scan_end")? == 0 {
                return Err(format!("point {name}: arch {arch} has empty phases"));
            }
        }
    }

    for wanted in AGGREGATE_POINTS {
        let point = find(&points, "aggregate sweep", wanted)?;
        for arch in ARCHS {
            if point.arch(arch)?.num("gather_cycles")? == 0 {
                return Err(format!(
                    "point {wanted}: arch {arch} reports a zero-cycle aggregate phase"
                ));
            }
        }
    }

    // Partition sweep: all four engine counts present, and on both
    // logic machines scan ends and total cycles fall monotonically
    // (non-increasing) with the engine count.
    for arch in LOGIC_ARCHS {
        let mut prev = (u64::MAX, u64::MAX);
        for wanted in PARTITION_POINTS {
            let run = find(&points, "partition sweep", wanted)?.arch(arch)?;
            let cycles = run.num("cycles")?;
            let scan = run.num("scan_end")?;
            if scan > prev.0 || cycles > prev.1 {
                return Err(format!(
                    "point {wanted}: {arch} got slower with more engines \
                     (scan {} -> {scan}, cycles {} -> {cycles})",
                    prev.0, prev.1
                ));
            }
            prev = (scan, cycles);
        }
    }

    // Service sweep: every cube count present, throughput monotone
    // non-decreasing in cube count, percentiles present and ordered.
    let mut prev_qpgc = 0;
    for wanted in SERVE_POINTS {
        let point = find(&points, "service sweep", wanted)?;
        let qpgc = point.num("queries_per_gigacycle")?;
        if qpgc == 0 {
            return Err(format!("point {wanted}: zero service throughput"));
        }
        if qpgc < prev_qpgc {
            return Err(format!(
                "point {wanted}: throughput fell with more cubes \
                 ({prev_qpgc} -> {qpgc} q/Gcyc)"
            ));
        }
        prev_qpgc = qpgc;
        let p50 = point.num("p50_cycles")?;
        let p95 = point.num("p95_cycles")?;
        let p99 = point.num("p99_cycles")?;
        if p50 == 0 || p50 > p95 || p95 > p99 {
            return Err(format!(
                "point {wanted}: latency percentiles disordered \
                 (p50 {p50}, p95 {p95}, p99 {p99})"
            ));
        }
    }

    // Replication: two replicas per shard must buy at least 1.7x of
    // the single-replica throughput (integer-only: qpgc_4x2 / qpgc_4
    // >= 17/10), and the point must really carry two replicas.
    let serve_4_qpgc = find(&points, "service sweep", "serve_4")?.num("queries_per_gigacycle")?;
    let serve_4x2 = find(&points, "service sweep", "serve_4x2")?;
    let serve_4x2_qpgc = serve_4x2.num("queries_per_gigacycle")?;
    if serve_4x2.num("replicas") != Ok(2) {
        return Err("point serve_4x2 does not report 2 replicas".into());
    }
    if serve_4x2_qpgc * 10 < serve_4_qpgc * 17 {
        return Err(format!(
            "point serve_4x2: replication speedup below 1.7x \
             ({serve_4_qpgc} -> {serve_4x2_qpgc} q/Gcyc)"
        ));
    }
    let queries_4x2 = serve_4x2.num("queries")?;

    // Failover: the kill actually fired, every query was still
    // served, and on every architecture the answer digest equals the
    // fault-free run's — bit-identical failover, machine-checked.
    let fail = find(&points, "failover", "serve_fail")?;
    if fail.num("failovers")? == 0 {
        return Err("point serve_fail: no failover fired (the fault was a no-op)".into());
    }
    fail.num("redispatched")?;
    let queries_fail = fail.num("queries")?;
    if queries_fail != queries_4x2 {
        return Err(format!(
            "point serve_fail: lost queries under failover \
             ({queries_4x2} clean vs {queries_fail} with the fault)"
        ));
    }
    for arch in ARCHS {
        let clean = fail.num(&format!("digest_{arch}_clean"))?;
        let fault = fail.num(&format!("digest_{arch}_fault"))?;
        if clean != fault {
            return Err(format!(
                "point serve_fail: {arch} answer digest changed under failover \
                 ({clean} clean vs {fault} with the fault)"
            ));
        }
    }

    // Zone-map skip sweep: each point carries a pruned run next to its
    // unpruned baseline. Pruning must have fired on every machine, must
    // never cost cycles, and at <= 3 % selectivity must cut both scan
    // and dispatch completion by at least 1.5x (integer-only:
    // base * 10 >= pruned * 15).
    for wanted in SKIP_POINTS {
        let point = find(&points, "zone-map skip", wanted)?;
        let tight = SKIP_TIGHT_POINTS.contains(&wanted);
        for arch in ARCHS {
            let run = point.arch(arch)?;
            let cycles = run.num("cycles")?;
            let base_cycles = run.num("base_cycles")?;
            if cycles > base_cycles {
                return Err(format!(
                    "point {wanted}: {arch} pruned run slower than unpruned \
                     ({base_cycles} -> {cycles} cycles)"
                ));
            }
            if run.num("regions_pruned")? == 0 {
                return Err(format!("point {wanted}: {arch} pruned no regions"));
            }
            if tight {
                let scan = run.num("scan_end")?;
                let base_scan = run.num("base_scan_end")?;
                let dispatch = run.num("dispatch_end")?;
                let base_dispatch = run.num("base_dispatch_end")?;
                if base_scan * 10 < scan * 15 || base_dispatch * 10 < dispatch * 15 {
                    return Err(format!(
                        "point {wanted}: {arch} skip win below 1.5x \
                         (scan {base_scan} -> {scan}, dispatch {base_dispatch} -> {dispatch})"
                    ));
                }
            }
        }
    }

    // Serve skip row: the scatter path must really have skipped shards,
    // at no cycle cost over the full scatter.
    let skip = find(&points, "shard-skipping", "serve_skip")?;
    if skip.num("shards_skipped")? == 0 {
        return Err("point serve_skip: the scatter path skipped no shards".into());
    }
    let cycles = skip.num("cycles")?;
    let base_cycles = skip.num("base_cycles")?;
    if cycles > base_cycles {
        return Err(format!(
            "point serve_skip: shard skipping slower than the full scatter \
             ({base_cycles} -> {cycles} cycles)"
        ));
    }

    // Data-plane rate rows: every perf point present, with a positive
    // work size and a positive integer rate — a zero rate means the
    // measured hot path did no work per unit time (a recording bug or
    // a catastrophic regression either way).
    for wanted in PERF_POINTS {
        let point = find(&points, "data-plane rate", wanted)?;
        if point.num("work")? == 0 {
            return Err(format!("point {wanted}: zero work per iteration"));
        }
        if point.num("rate_per_s")? == 0 {
            return Err(format!("point {wanted}: zero data-plane rate"));
        }
    }

    // Host wall-clock: every row must record how long the simulator
    // itself took (the figures track simulated cycles *and* the cost
    // of producing them).
    for point in &points {
        point.ms("host_ms")?;
    }

    // Host-parallel speedup row: both legs must have produced
    // bit-identical results (equal digests), and the 4-worker legs
    // must not be slower than the serial ones (whole-millisecond
    // comparison; the bench itself asserts the digests too). The
    // wall-clock requirement only applies when the recording host had
    // at least two CPUs — on a single-core runner the parallel leg
    // cannot win and the comparison is pure scheduler noise.
    let par = find(&points, "host-parallel", "host_par")?;
    let workers = par.num("workers")?;
    if workers < 2 {
        return Err(format!(
            "point host_par: parallel leg ran on {workers} worker(s)"
        ));
    }
    let digest_serial = par.num("digest_serial")?;
    let digest_parallel = par.num("digest_parallel")?;
    if digest_serial != digest_parallel {
        return Err(format!(
            "point host_par: parallel results diverged from serial \
             (digest {digest_serial} vs {digest_parallel})"
        ));
    }
    let host_cpus = par.num("host_cpus")?;
    for leg in ["sweep", "scatter"] {
        let serial = par.ms(&format!("{leg}_serial_ms"))?.trunc();
        let parallel = par.ms(&format!("{leg}_parallel_ms"))?.trunc();
        if host_cpus >= 2 && parallel > serial {
            return Err(format!(
                "point host_par: {leg} slower on {workers} workers than serial \
                 ({serial} ms -> {parallel} ms)"
            ));
        }
    }
    Ok(points.len())
}

// ---------------------------------------------------------------------
// Trace validation (`--trace`): the Chrome trace written by trace_dump.
// ---------------------------------------------------------------------

/// Validates a Chrome trace document; returns `(events, query spans)`
/// on success.
///
/// Checks, in order: the document parses and every event carries the
/// structural fields its phase requires; sync spans on each track nest
/// properly (sorted by start, a span must close before the enclosing
/// span's end) and end within the recorded makespan; async begin/end
/// events pair one-to-one by id with `end.ts >= begin.ts`; and the
/// event population reconciles with the `ServiceReport` counters in
/// `otherData` — async spans on the `queries` track == queries
/// served, `fault.kill` instants == failovers, `redispatch` instants
/// == re-dispatched sub-queries, total events == the recorder's count.
fn check_trace(text: &str) -> Result<(u64, u64), String> {
    use std::collections::BTreeMap;

    let doc = json::parse(text).map_err(|e| format!("not a JSON document: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("not a trace document (missing \"traceEvents\" array)")?;
    let reported = |key: &str| -> Result<u64, String> {
        doc.get("otherData")
            .and_then(|other| other.get(key))
            .ok_or_else(|| format!("otherData is missing `{key}`"))?
            .as_u64()
            .ok_or_else(|| format!("otherData `{key}` is not a non-negative integer"))
    };
    let queries = reported("queries")?;
    let failovers = reported("failovers")?;
    let redispatched = reported("redispatched")?;
    let recorded = reported("events")?;
    let makespan = reported("makespan_cyc")?;

    let mut queries_tid: Option<u64> = None;
    let mut sync_spans: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut begins: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // id -> (tid, ts)
    let mut ends: BTreeMap<u64, u64> = BTreeMap::new(); // id -> ts
    let (mut x_count, mut i_count, mut c_count) = (0u64, 0u64, 0u64);
    let (mut kills, mut redispatches) = (0u64, 0u64);

    for event in events {
        let text = || event.to_json();
        let num = |key: &str, what: &str| {
            event
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{what} has no {key}: {}", text()))
        };
        let name = event.get("name").and_then(Value::as_str);
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event has no phase: {}", text()))?;
        if ph == "M" {
            let row = event.get("args").and_then(|a| a.get("name"));
            if name == Some("thread_name") && row.and_then(Value::as_str) == Some("queries") {
                queries_tid = Some(num("tid", "thread_name record")?);
            }
            continue;
        }
        let tid = num("tid", "event")?;
        let ts = num("ts", "event")?;
        match ph {
            "X" => {
                let end = ts.saturating_add(num("dur", "complete event")?);
                if end > makespan {
                    return Err(format!(
                        "span ends at {end} cyc, past the {makespan} cyc makespan: {}",
                        text()
                    ));
                }
                sync_spans.entry(tid).or_default().push((ts, end));
                x_count += 1;
            }
            "b" => {
                let id = num("id", "async begin")?;
                if begins.insert(id, (tid, ts)).is_some() {
                    return Err(format!("async id {id} begun twice"));
                }
            }
            "e" => {
                let id = num("id", "async end")?;
                if ts > makespan {
                    return Err(format!(
                        "async span ends at {ts} cyc, past the {makespan} cyc makespan: {}",
                        text()
                    ));
                }
                if ends.insert(id, ts).is_some() {
                    return Err(format!("async id {id} ended twice"));
                }
            }
            "i" => {
                match name {
                    Some("fault.kill") => kills += 1,
                    Some("redispatch") => redispatches += 1,
                    Some(_) => {}
                    None => return Err(format!("instant has no name: {}", text())),
                }
                i_count += 1;
            }
            "C" => {
                let value = event.get("args").and_then(|a| a.get("value"));
                value
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("counter has no value: {}", text()))?;
                c_count += 1;
            }
            other => return Err(format!("unknown phase `{other}`: {}", text())),
        }
    }

    // Async begin/end pairs must balance id-for-id, time-ordered.
    if begins.len() != ends.len() {
        return Err(format!(
            "{} async begins but {} async ends",
            begins.len(),
            ends.len()
        ));
    }
    for (id, (_, b_ts)) in &begins {
        let e_ts = ends
            .get(id)
            .ok_or_else(|| format!("async id {id} begins but never ends"))?;
        if e_ts < b_ts {
            return Err(format!(
                "async id {id} ends at {e_ts}, before its begin at {b_ts}"
            ));
        }
    }

    // Sync spans on each track must nest: sorted by (start asc, end
    // desc), every span must close before the innermost still-open
    // enclosing span does.
    for (tid, spans) in sync_spans.iter_mut() {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut open: Vec<u64> = Vec::new();
        for &(ts, end) in spans.iter() {
            while let Some(&outer) = open.last() {
                if outer <= ts {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&outer) = open.last() {
                if end > outer {
                    return Err(format!(
                        "track {tid}: span [{ts}, {end}] straddles its parent's end at {outer}"
                    ));
                }
            }
            open.push(end);
        }
    }

    // The events must reconcile with the ServiceReport counters.
    let qtid = queries_tid.ok_or("no `queries` track in the metadata records")?;
    let query_spans = begins.values().filter(|(tid, _)| *tid == qtid).count() as u64;
    if query_spans != queries {
        return Err(format!(
            "{query_spans} query lifetime spans for {queries} queries served"
        ));
    }
    if kills != failovers {
        return Err(format!(
            "{kills} fault.kill instants for {failovers} failover(s)"
        ));
    }
    if redispatches != redispatched {
        return Err(format!(
            "{redispatches} redispatch instants for {redispatched} re-dispatched sub-queries"
        ));
    }
    let total = x_count + i_count + c_count + begins.len() as u64;
    if total != recorded {
        return Err(format!(
            "decoded {total} events, the recorder wrote {recorded}"
        ));
    }
    Ok((total, query_spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `archs` object with one run per machine.
    fn archs(machines: &[&str], run: impl Fn(&str) -> Value) -> Value {
        machines
            .iter()
            .fold(Value::object(), |archs, &a| archs.with(a, run(a)))
    }

    fn phases(cycles: u64, dispatch: u64, scan: u64, gather: u64) -> Value {
        Value::object()
            .with("cycles", cycles)
            .with("dispatch_end", dispatch)
            .with("scan_end", scan)
            .with("gather_cycles", gather)
    }

    fn four_arch_point(name: &str, gather: u64) -> Value {
        Value::object()
            .with("name", name)
            .with("host_ms", 12.5)
            .with("archs", archs(&ARCHS, |_| phases(100, 1, 90, gather)))
    }

    fn par_point(name: &str, cycles: u64) -> Value {
        let run = |_: &str| phases(cycles, 1, cycles - 10, 5);
        Value::object()
            .with("name", name)
            .with("host_ms", 8.125)
            .with("archs", archs(&LOGIC_ARCHS, run))
    }

    fn serve_point(name: &str, replicas: u64, qpgc: u64, queries: u64) -> Value {
        Value::object()
            .with("name", name)
            .with("shards", 1u64)
            .with("replicas", replicas)
            .with("queries", queries)
            .with("makespan_cycles", 1000u64)
            .with("queries_per_gigacycle", qpgc)
            .with("p50_cycles", 100u64)
            .with("p95_cycles", 200u64)
            .with("p99_cycles", 300u64)
            .with("failovers", 0u64)
            .with("redispatched", 0u64)
            .with("host_ms", 20.0)
    }

    fn fail_point() -> Value {
        let mut point = serve_point("serve_fail", 2, 700, 96);
        set(&mut point, "failovers", 1u64);
        set(&mut point, "redispatched", 6u64);
        ARCHS.iter().fold(point, |point, a| {
            point
                .with(&format!("digest_{a}_clean"), 11u64)
                .with(&format!("digest_{a}_fault"), 11u64)
        })
    }

    /// A skip point whose pruned phases all complete at `scan` and
    /// whose unpruned baseline completes at `base`.
    fn skip_point(name: &str, scan: u64, base: u64) -> Value {
        let run = |_: &str| {
            phases(scan, scan, scan, 0)
                .with("regions_scanned", 2u64)
                .with("regions_pruned", 62u64)
                .with("base_cycles", base)
                .with("base_dispatch_end", base)
                .with("base_scan_end", base)
        };
        Value::object()
            .with("name", name)
            .with("host_ms", 6.25)
            .with("archs", archs(&ARCHS, run))
    }

    fn perf_point(name: &str, unit: &str, work: u64, rate: u64) -> Value {
        Value::object()
            .with("name", name)
            .with("unit", unit)
            .with("work", work)
            .with("rate_per_s", rate)
            .with("host_ms", 2.375)
    }

    fn doc_full(gather_q6: u64, par_cycles: [u64; 4], serve_qpgc: [u64; 4]) -> Value {
        let mut points = vec![
            four_arch_point("sel_2%", 0),
            four_arch_point("agg_2%", 7),
            four_arch_point("agg_10%", 7),
            four_arch_point("agg_50%", 7),
            four_arch_point("q6", gather_q6),
        ];
        for (name, cycles) in PARTITION_POINTS.iter().zip(par_cycles) {
            points.push(par_point(name, cycles));
        }
        for (name, qpgc) in SERVE_POINTS.iter().zip(serve_qpgc) {
            let replicas = if *name == "serve_4x2" { 2 } else { 1 };
            points.push(serve_point(name, replicas, qpgc, 96));
        }
        points.push(fail_point());
        points.push(skip_point("skip_1%", 10, 300));
        points.push(skip_point("skip_3%", 20, 200));
        points.push(skip_point("skip_10%", 60, 100));
        points.push(
            Value::object()
                .with("name", "serve_skip")
                .with("shards", 4u64)
                .with("shards_skipped", 3u64)
                .with("cycles", 40u64)
                .with("base_cycles", 90u64)
                .with("host_ms", 4.75),
        );
        points.push(
            Value::object()
                .with("name", "host_par")
                .with("workers", 4u64)
                .with("host_cpus", 8u64)
                .with("sweep_serial_ms", 100.21)
                .with("sweep_parallel_ms", 30.125)
                .with("scatter_serial_ms", 80.3)
                .with("scatter_parallel_ms", 25.4)
                .with("digest_serial", 42u64)
                .with("digest_parallel", 42u64)
                .with("host_ms", 99.0),
        );
        points.push(perf_point(
            "perf_materialize",
            "bytes",
            1 << 20,
            5_000_000_000,
        ));
        points.push(perf_point("perf_generate", "rows", 32_768, 60_000_000));
        points.push(perf_point("perf_engine", "instr", 98_304, 20_000_000));
        Value::object()
            .with("schema", FIGURES_SCHEMA)
            .with("bench", "figures")
            .with(
                "archs",
                ARCHS.iter().map(|&a| Value::from(a)).collect::<Vec<_>>(),
            )
            .with("points", points)
    }

    fn doc_with(gather_q6: u64, par_cycles: [u64; 4]) -> Value {
        doc_full(gather_q6, par_cycles, [100, 180, 300, 600])
    }

    fn doc(gather_q6: u64) -> Value {
        doc_with(gather_q6, [800, 400, 200, 100])
    }

    /// Checks a fixture through the writer and the parser.
    fn checked(doc: &Value) -> Result<usize, String> {
        check(&doc.to_json())
    }

    /// The fixture's point named `name`.
    fn point<'a>(doc: &'a mut Value, name: &str) -> &'a mut Value {
        match field(doc, "points") {
            Value::Array(points) => points
                .iter_mut()
                .find(|p| p.get("name").and_then(Value::as_str) == Some(name))
                .expect("fixture point"),
            _ => panic!("fixture without points"),
        }
    }

    /// `doc` with `edit` applied to the point named `name`.
    fn edited(mut doc: Value, name: &str, edit: impl FnOnce(&mut Value)) -> Value {
        edit(point(&mut doc, name));
        doc
    }

    /// Member `key` of the fixture object `obj`.
    fn field<'a>(obj: &'a mut Value, key: &str) -> &'a mut Value {
        match obj {
            Value::Object(members) => {
                let member = members.iter_mut().find(|(k, _)| k == key);
                &mut member.expect("fixture field").1
            }
            _ => panic!("not an object"),
        }
    }

    fn set(obj: &mut Value, key: &str, value: impl Into<Value>) {
        *field(obj, key) = value.into();
    }

    /// Renames member `from` of `obj` to `to`.
    fn rename(obj: &mut Value, from: &str, to: &str) {
        match obj {
            Value::Object(members) => {
                let member = members.iter_mut().find(|(k, _)| k == from);
                member.expect("fixture field").0 = to.to_string();
            }
            _ => panic!("not an object"),
        }
    }

    fn remove(obj: &mut Value, key: &str) {
        match obj {
            Value::Object(members) => members.retain(|(k, _)| k != key),
            _ => panic!("not an object"),
        }
    }

    /// `doc` with the point `from` renamed to `to`.
    fn renamed_point(doc: Value, from: &str, to: &str) -> Value {
        edited(doc, from, |p| set(p, "name", to))
    }

    /// `doc` with `key` of `arch`'s run in point `name` set to `value`.
    fn with_run_field(doc: Value, name: &str, arch: &str, key: &str, value: u64) -> Value {
        edited(doc, name, |p| {
            set(field(field(p, "archs"), arch), key, value);
        })
    }

    #[test]
    fn accepts_a_complete_document() {
        assert_eq!(checked(&doc(10)), Ok(22));
    }

    #[test]
    fn accepts_the_committed_document_and_rejects_it_truncated() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_figures.json");
        assert!(check(&text).is_ok(), "{:?}", check(&text));
        // The committed file without its closing `]` and `}` lines.
        let lines: Vec<&str> = text.lines().collect();
        let cut = lines[..lines.len() - 2].join("\n");
        let err = check(&cut).unwrap_err();
        assert!(err.contains("not a JSON document"), "{err}");
    }

    #[test]
    fn rejects_a_figures_document_without_a_schema() {
        let mut doc = doc(10);
        remove(&mut doc, "schema");
        let err = checked(&doc).unwrap_err();
        assert!(err.contains("no `schema`"), "{err}");
    }

    #[test]
    fn rejects_an_unknown_figures_schema() {
        for schema in [Value::from(2u64), Value::from("1"), Value::Float(1.0)] {
            let mut doc = doc(10);
            set(&mut doc, "schema", schema);
            let err = checked(&doc).unwrap_err();
            assert!(err.contains("unknown figures schema"), "{err}");
        }
    }

    #[test]
    fn rejects_a_point_without_host_wall_clock() {
        let text = edited(doc(10), "serve_skip", |p| remove(p, "host_ms"));
        let err = checked(&text).unwrap_err();
        assert!(
            err.contains("serve_skip") && err.contains("host_ms"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_missing_host_par_row() {
        // Renamed to a serve_-prefixed point so only the host_par
        // presence check can fire.
        let text = renamed_point(doc(10), "host_par", "serve_extra");
        assert!(checked(&text).unwrap_err().contains("host_par missing"));
    }

    #[test]
    fn rejects_parallel_results_diverging_from_serial() {
        let text = edited(doc(10), "host_par", |p| set(p, "digest_parallel", 43u64));
        let err = checked(&text).unwrap_err();
        assert!(err.contains("diverged from serial"), "{err}");
    }

    #[test]
    fn rejects_a_parallel_sweep_slower_than_serial() {
        let text = edited(doc(10), "host_par", |p| {
            set(p, "sweep_parallel_ms", 101.125)
        });
        let err = checked(&text).unwrap_err();
        assert!(err.contains("sweep slower on 4 workers"), "{err}");
        let text = edited(doc(10), "host_par", |p| set(p, "scatter_parallel_ms", 81.4));
        let err = checked(&text).unwrap_err();
        assert!(err.contains("scatter slower on 4 workers"), "{err}");
    }

    #[test]
    fn accepts_a_slow_parallel_leg_on_a_single_core_host() {
        // One recording CPU: the wall-clock requirement is waived
        // (the digests still must match).
        let text = edited(doc(10), "host_par", |p| {
            set(p, "host_cpus", 1u64);
            set(p, "sweep_parallel_ms", 101.125);
        });
        assert_eq!(checked(&text), Ok(22));
    }

    #[test]
    fn rejects_a_missing_perf_rate_row() {
        let text = renamed_point(doc(10), "perf_generate", "perf_generate_v2");
        let err = checked(&text).unwrap_err();
        assert!(err.contains("perf_generate missing"), "{err}");
    }

    #[test]
    fn rejects_a_zero_perf_rate() {
        let text = edited(doc(10), "perf_engine", |p| set(p, "rate_per_s", 0u64));
        let err = checked(&text).unwrap_err();
        assert!(
            err.contains("perf_engine") && err.contains("zero data-plane rate"),
            "{err}"
        );
        let text = edited(doc(10), "perf_generate", |p| set(p, "work", 0u64));
        let err = checked(&text).unwrap_err();
        assert!(
            err.contains("perf_generate") && err.contains("zero work"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_host_par_row_without_host_cpus() {
        let text = edited(doc(10), "host_par", |p| remove(p, "host_cpus"));
        let err = checked(&text).unwrap_err();
        assert!(err.contains("host_cpus"), "{err}");
    }

    #[test]
    fn rejects_a_serial_host_par_leg() {
        let text = edited(doc(10), "host_par", |p| set(p, "workers", 1u64));
        let err = checked(&text).unwrap_err();
        assert!(err.contains("1 worker"), "{err}");
    }

    #[test]
    fn rejects_missing_aggregate_points() {
        let text = renamed_point(doc(10), "agg_10%", "agg_renamed");
        assert!(checked(&text).unwrap_err().contains("agg_10%"));
    }

    #[test]
    fn rejects_empty_aggregate_phase() {
        assert!(checked(&doc(0)).unwrap_err().contains("zero-cycle"));
    }

    #[test]
    fn rejects_missing_arch() {
        let text = edited(doc(10), "sel_2%", |p| {
            rename(field(p, "archs"), "HIVE", "hive");
        });
        assert!(checked(&text).unwrap_err().contains("HIVE"));
    }

    #[test]
    fn rejects_missing_partition_points() {
        let text = renamed_point(doc(10), "par_4", "par_5");
        assert!(checked(&text).unwrap_err().contains("par_4"));
    }

    #[test]
    fn rejects_more_engines_getting_slower() {
        // par_4 slower than par_2: the partition win regressed.
        let text = doc_with(10, [800, 400, 500, 100]);
        let err = checked(&text).unwrap_err();
        assert!(err.contains("par_4") && err.contains("slower"), "{err}");
    }

    #[test]
    fn accepts_flat_partition_scaling() {
        // Non-increasing, not strictly decreasing, is acceptable (the
        // knee flattens once dispatch bandwidth saturates).
        assert!(checked(&doc_with(10, [800, 400, 400, 400])).is_ok());
    }

    #[test]
    fn rejects_missing_serve_points() {
        let text = renamed_point(doc(10), "serve_2", "serve_3");
        assert!(checked(&text).unwrap_err().contains("serve_2"));
    }

    #[test]
    fn rejects_throughput_falling_with_more_shards() {
        let text = doc_full(10, [800, 400, 200, 100], [100, 90, 300, 600]);
        let err = checked(&text).unwrap_err();
        assert!(err.contains("serve_2") && err.contains("fell"), "{err}");
    }

    #[test]
    fn accepts_flat_service_scaling() {
        // Non-decreasing, not strictly increasing, is acceptable for
        // the *shard* points (a tiny table can saturate the front end
        // before the shards); the replication point still owes 1.7x.
        assert!(checked(&doc_full(10, [800, 400, 200, 100], [100, 100, 100, 170])).is_ok());
    }

    #[test]
    fn rejects_zero_or_disordered_service_rows() {
        let text = doc_full(10, [800, 400, 200, 100], [0, 100, 200, 400]);
        assert!(checked(&text)
            .unwrap_err()
            .contains("zero service throughput"));
        let text = edited(doc(10), "serve_1", |p| set(p, "p95_cycles", 400u64));
        assert!(checked(&text).unwrap_err().contains("disordered"));
    }

    #[test]
    fn rejects_replication_speedup_below_17x() {
        // 300 -> 400 q/Gcyc is monotone but short of the 1.7x the
        // second replica owes.
        let text = doc_full(10, [800, 400, 200, 100], [100, 180, 300, 400]);
        let err = checked(&text).unwrap_err();
        assert!(err.contains("below 1.7x"), "{err}");
    }

    #[test]
    fn rejects_a_replication_point_without_two_replicas() {
        let text = edited(doc(10), "serve_4x2", |p| set(p, "replicas", 1u64));
        let err = checked(&text).unwrap_err();
        assert!(err.contains("does not report 2 replicas"), "{err}");
    }

    #[test]
    fn rejects_a_failover_run_whose_fault_never_fired() {
        let text = edited(doc(10), "serve_fail", |p| set(p, "failovers", 0u64));
        let err = checked(&text).unwrap_err();
        assert!(err.contains("no failover fired"), "{err}");
    }

    #[test]
    fn rejects_query_loss_under_failover() {
        let text = edited(doc(10), "serve_fail", |p| set(p, "queries", 95u64));
        let err = checked(&text).unwrap_err();
        assert!(err.contains("lost queries"), "{err}");
    }

    #[test]
    fn rejects_an_answer_digest_changed_by_failover() {
        assert!(checked(&doc(10)).is_ok());
        let text = edited(doc(10), "serve_fail", |p| {
            set(p, "digest_HIPE_fault", 12u64)
        });
        let err = checked(&text).unwrap_err();
        assert!(err.contains("HIPE answer digest changed"), "{err}");
        // A missing digest pair is as fatal as a mismatched one.
        let text = edited(doc(10), "serve_fail", |p| {
            rename(p, "digest_x86_clean", "digest_x86_gone");
        });
        let err = checked(&text).unwrap_err();
        assert!(err.contains("digest_x86_clean"), "{err}");
    }

    #[test]
    fn rejects_missing_skip_points() {
        let text = renamed_point(doc(10), "skip_3%", "skip_33%");
        assert!(checked(&text).unwrap_err().contains("skip_3%"));
    }

    #[test]
    fn rejects_pruning_costing_cycles() {
        // skip_10% prunes to 60 cycles; a baseline of 40 means pruning
        // made the machine slower.
        let text = with_run_field(doc(10), "skip_10%", "HIVE", "base_cycles", 40);
        let err = checked(&text).unwrap_err();
        assert!(err.contains("skip_10%") && err.contains("slower"), "{err}");
    }

    #[test]
    fn rejects_a_skip_row_that_pruned_nothing() {
        let text = with_run_field(doc(10), "skip_1%", "x86", "regions_pruned", 0);
        let err = checked(&text).unwrap_err();
        assert!(err.contains("pruned no regions"), "{err}");
    }

    #[test]
    fn rejects_a_skip_win_below_15x_at_low_selectivity() {
        // skip_3% prunes to 20 cycles against base 200; a baseline of
        // 25 leaves only a 1.25x scan win — short of the 1.5x owed at
        // <= 3 % selectivity. skip_10% owes no such margin.
        let text = with_run_field(doc(10), "skip_3%", "HIPE", "base_scan_end", 25);
        let err = checked(&text).unwrap_err();
        assert!(
            err.contains("skip_3%") && err.contains("below 1.5x"),
            "{err}"
        );
        let text = with_run_field(doc(10), "skip_10%", "HIPE", "base_scan_end", 70);
        assert!(checked(&text).is_ok());
    }

    #[test]
    fn rejects_a_scatter_path_that_never_skipped() {
        let text = edited(doc(10), "serve_skip", |p| set(p, "shards_skipped", 0u64));
        let err = checked(&text).unwrap_err();
        assert!(err.contains("skipped no shards"), "{err}");
        let text = renamed_point(doc(10), "serve_skip", "serve_skap");
        assert!(checked(&text).unwrap_err().contains("serve_skip"));
    }

    #[test]
    fn point_field_requires_a_delimited_top_level_key() {
        // The key's text inside a string value or as the tail of a
        // longer field name is not the field.
        let decoy = json::parse(
            "{\"name\": \"serve_x\", \
             \"note\": \"was \\\"queries_per_gigacycle\\\": 9\", \
             \"old_queries_per_gigacycle\": 7}",
        )
        .expect("valid JSON");
        let row = |value| Row {
            name: "serve_x",
            arch: None,
            value,
        };
        assert!(row(&decoy).num("queries_per_gigacycle").is_err());
        // A real field is found, and an arch object's fields are not
        // the point's.
        let real = json::parse(
            "{\"p50_cycles\": 3, \"p95_cycles\": 4, \"archs\": {\"HIPE\": {\"p99_cycles\": 9}}}",
        )
        .expect("valid JSON");
        assert_eq!(row(&real).num("p50_cycles"), Ok(3));
        assert_eq!(row(&real).num("p95_cycles"), Ok(4));
        assert!(row(&real).num("p99_cycles").is_err());
        assert_eq!(
            row(&real).arch("HIPE").and_then(|r| r.num("p99_cycles")),
            Ok(9)
        );
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(check("{}").is_err());
        let err = check("\"bench\": \"figures\"").unwrap_err();
        assert!(err.contains("not a JSON document"), "{err}");
    }

    /// Renders a miniature service trace through the real writer: one
    /// query, one failover, one redispatch, eight recorder events.
    fn sample_trace(queries: u64, failovers: u64, redispatched: u64) -> String {
        use hipe_trace::{TraceSink, Tracer, TrackKind};
        let mut t = Tracer::new();
        let adm = t.track("admission", TrackKind::Sync);
        let fe = t.track("front-end", TrackKind::Sync);
        let q = t.track("queries", TrackKind::Async);
        let eng = t.track("s0.r0 engine", TrackKind::Sync);
        t.instant(adm, "arrival", 0, vec![("tag", 0usize.into())]);
        t.counter(adm, "batch_fill", 0, 1);
        t.span_on(fe, "batch 0", 5, 10, vec![("queries", 1usize.into())]);
        t.span_on(q, "q0", 0, 40, vec![("tag", 0usize.into())]);
        t.span_on(eng, "q0", 10, 40, vec![]);
        t.span_on(eng, "scan", 12, 30, vec![]);
        t.instant(eng, "fault.kill", 20, vec![]);
        t.instant(fe, "redispatch", 25, vec![("shard", 0usize.into())]);
        let other = [
            ("queries", queries.to_string()),
            ("makespan_cyc", "40".to_string()),
            ("failovers", failovers.to_string()),
            ("redispatched", redispatched.to_string()),
            ("events", t.len().to_string()),
        ];
        t.to_chrome_json(&other)
    }

    /// `trace` with `edit` applied to its parsed document.
    fn edit_trace(trace: &str, edit: impl FnOnce(&mut Value)) -> String {
        let mut doc = json::parse(trace).expect("the writer emits valid JSON");
        edit(&mut doc);
        doc.to_json()
    }

    /// The trace event with phase `ph` at time `ts`.
    fn trace_event<'a>(doc: &'a mut Value, ph: &str, ts: u64) -> &'a mut Value {
        match field(doc, "traceEvents") {
            Value::Array(events) => events
                .iter_mut()
                .find(|e| {
                    e.get("ph").and_then(Value::as_str) == Some(ph)
                        && e.get("ts").and_then(Value::as_u64) == Some(ts)
                })
                .expect("sample event"),
            _ => panic!("trace without events"),
        }
    }

    fn set_other(doc: &mut Value, key: &str, value: u64) {
        set(field(doc, "otherData"), key, value);
    }

    #[test]
    fn trace_roundtrip_validates() {
        assert_eq!(check_trace(&sample_trace(1, 1, 1)), Ok((8, 1)));
    }

    #[test]
    fn trace_rejects_the_committed_trace_truncated() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_trace.json");
        assert!(check_trace(&text).is_ok(), "{:?}", check_trace(&text));
        // The committed file without its last two lines.
        let lines: Vec<&str> = text.lines().collect();
        let cut = lines[..lines.len() - 2].join("\n");
        let err = check_trace(&cut).unwrap_err();
        assert!(err.contains("not a JSON document"), "{err}");
    }

    #[test]
    fn trace_catches_report_reconciliation_drift() {
        let err = check_trace(&sample_trace(2, 1, 1)).unwrap_err();
        assert!(err.contains("query lifetime spans"), "{err}");
        let err = check_trace(&sample_trace(1, 0, 1)).unwrap_err();
        assert!(err.contains("fault.kill"), "{err}");
        let err = check_trace(&sample_trace(1, 1, 2)).unwrap_err();
        assert!(err.contains("redispatch instants"), "{err}");
        let text = edit_trace(&sample_trace(1, 1, 1), |d| set_other(d, "events", 9));
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("recorder wrote 9"), "{err}");
    }

    #[test]
    fn trace_catches_spans_that_straddle_or_escape_the_run() {
        // The scan child [12, 30] stretched to end at 45 straddles its
        // parent engine span's end at 40 (makespan raised out of the
        // way so only the nesting check can fire).
        let text = edit_trace(&sample_trace(1, 1, 1), |d| {
            set_other(d, "makespan_cyc", 60);
            set(trace_event(d, "X", 12), "dur", 33u64);
        });
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("straddles"), "{err}");
        // A span past the recorded makespan is rejected outright.
        let text = edit_trace(&sample_trace(1, 1, 1), |d| set_other(d, "makespan_cyc", 39));
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("past the 39 cyc makespan"), "{err}");
    }

    #[test]
    fn trace_catches_unbalanced_async_pairs() {
        // Retag the async end as a second begin with a fresh id: the
        // original id never ends.
        let text = edit_trace(&sample_trace(1, 1, 1), |d| {
            let end = trace_event(d, "e", 40);
            set(end, "ph", "b");
            set(end, "id", 7u64);
        });
        let err = check_trace(&text).unwrap_err();
        assert!(err.contains("async"), "{err}");
    }

    #[test]
    fn trace_rejects_foreign_documents() {
        assert!(check_trace("{}").is_err());
        let err = check_trace("{\"traceEvents\": [\n]\n}").unwrap_err();
        assert!(err.contains("otherData"), "{err}");
    }
}
