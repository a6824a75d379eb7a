//! `serve`: one op is one `run_service` call on HIPE — a closed loop
//! of 8 clients over the figures' query mix on a 4-shard, 2-replica
//! cluster. Ops alternate between a clean run and a run that kills
//! replica 0 of shard 1 at half the clean makespan, so the
//! discrete-event scheduler, routing and failover dominate and the
//! plan cache stays warm.

use crate::probe::Recorder;
use crate::stats::{debug_digest, fnv, samples_of, FNV_OFFSET};
use crate::sweep::sim_instructions;
use crate::{paired_overhead, probe_ms, set_db_layers, Config, Layers, Metric, Workload};
use hipe::{Arch, RunReport};
use hipe_db::scan::{reference, ScanResult};
use hipe_db::{LineitemTable, Query, TableShape, ZoneMap};
use hipe_serve::{
    run_service, run_service_traced, Cluster, ClusterConfig, FaultPlan, ServiceConfig,
    ServiceReport,
};
use hipe_sim::{Cycle, WorkerPool};
use hipe_trace::{TraceSink, Tracer};
use std::time::Instant;

const ROWS: usize = 65_536;
const SHARDS: usize = 4;
const REPLICAS: usize = 2;
const CLIENTS: usize = 8;
/// Queries per op: enough that the replay, not the profile pass,
/// dominates an op.
const QUERIES: usize = 200_000;
/// Queries of the `serve.fixed_ms` probe (the figures' service size):
/// its time is the per-call cost of profile pass and materialization.
const FIXED_QUERIES: usize = 96;

/// The open-loop ladder behind `sim_capacity_q_per_gcyc`: offered rates
/// of 1, 2, ... `LADDER_RUNGS` steps, in queries per gigacycle. Queries
/// are dispatched one per front-end batch, so modelled latency only
/// grows with the rate and the ladder stops at the first rung that
/// misses the limit.
const LADDER_STEP_Q_PER_GCYC: u64 = 1_000;
const LADDER_RUNGS: u64 = 30;
/// Queries per ladder rung.
const LADDER_QUERIES: usize = 20_000;
/// Modelled p99 latency a rung must stay within, in cycles.
const P99_LIMIT_CYC: Cycle = 1_500_000;
/// Served over offered rate a rung must reach (below it the backlog
/// grows).
const KEEP_UP: f64 = 0.95;

const SPAN_CLEAN: &str = "serve.run_service.clean";
const SPAN_FAULT: &str = "serve.run_service.fault";

struct Serve {
    cluster: Cluster,
    tiny: bool,
    clean_cfg: ServiceConfig,
    /// Set once the warm-up op has measured the clean makespan.
    fault_cfg: Option<ServiceConfig>,
    references: Vec<ScanResult>,
    build_ms: f64,
    /// Every execution the service's profile pass performs, replayed
    /// through the cluster's public API at set-up.
    profile: Vec<RunReport>,
    next: u64,
    last: Option<(bool, ServiceReport)>,
    /// Warm-up (clean) and first faulted reports: the repeat baselines.
    clean: Option<(ServiceReport, u64)>,
    fault: Option<(ServiceReport, u64)>,
}

fn mix() -> Vec<(Query, u32)> {
    vec![
        (Query::q6(), 1),
        (Query::quantity_below_permille(100), 2),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ]
}

/// Builds the workload and hands it to `k`.
pub fn with(cfg: &Config, k: &mut dyn FnMut(&mut dyn Workload)) {
    let (rows, queries) = if cfg.tiny {
        (8192, 2_000)
    } else {
        (ROWS, QUERIES)
    };
    let t = Instant::now();
    let cluster = Cluster::with_config(ClusterConfig {
        workers: 1,
        ..ClusterConfig::replicated(rows, cfg.seed, SHARDS, REPLICAS)
    });
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let table = LineitemTable::generate_shaped_on(
        &WorkerPool::serial(),
        cfg.seed,
        0,
        rows,
        TableShape::Uniform,
    );
    let references = mix().iter().map(|(q, _)| reference(&table, q)).collect();
    drop(table);
    let mut profile = Vec::new();
    let mut session = cluster.session();
    for (q, _) in mix() {
        for r in 0..REPLICAS {
            let report = session.run_routed(Arch::Hipe, &q, &[r; SHARDS]);
            profile.extend(report.shard_reports);
        }
    }
    drop(session);
    let mut w = Serve {
        clean_cfg: ServiceConfig::closed(Arch::Hipe, queries, mix(), CLIENTS),
        cluster,
        tiny: cfg.tiny,
        fault_cfg: None,
        references,
        build_ms,
        profile,
        next: 0,
        last: None,
        clean: None,
        fault: None,
    };
    k(&mut w);
}

impl Workload for Serve {
    fn op(&mut self, rec: &mut Recorder) {
        let faulted = self.next % 2 == 1;
        self.next += 1;
        let report = match (&self.fault_cfg, faulted) {
            (Some(cfg), true) => rec.span(SPAN_FAULT, || run_service(&self.cluster, cfg)),
            _ => rec.span(SPAN_CLEAN, || run_service(&self.cluster, &self.clean_cfg)),
        };
        self.last = Some((faulted, report));
    }

    fn check(&mut self) -> bool {
        let (faulted, report) = self.last.take().expect("check follows an op");
        let digest = debug_digest(&report);
        let answers_ok = report.answers == self.references;
        if !faulted {
            return match &self.clean {
                Some((_, d)) => answers_ok && digest == *d,
                None => {
                    self.fault_cfg = Some(ServiceConfig {
                        faults: vec![FaultPlan::new(1, 0, report.makespan / 2)],
                        ..self.clean_cfg.clone()
                    });
                    self.clean = Some((report, digest));
                    answers_ok
                }
            };
        }
        let (clean, _) = self.clean.as_ref().expect("the warm-up op is clean");
        let failover_ok =
            report.failovers == 1 && report.answers_digest() == clean.answers_digest();
        match &self.fault {
            Some((_, d)) => answers_ok && failover_ok && digest == *d,
            None => {
                self.fault = Some((report, digest));
                answers_ok && failover_ok
            }
        }
    }

    fn instructions_per_op(&self) -> u64 {
        self.profile.iter().map(sim_instructions).sum()
    }

    fn queries_per_op(&self) -> u64 {
        self.clean_cfg.queries as u64
    }

    fn model(&mut self) -> (Vec<Metric>, u64) {
        let (clean, clean_digest) = self.clean.as_ref().expect("the warm-up op is clean");
        let mut digest = fnv(FNV_OFFSET, &clean_digest.to_le_bytes());
        if let Some((_, d)) = &self.fault {
            digest = fnv(digest, &d.to_le_bytes());
        }
        let mut capacity = 0;
        let ladder_queries = if self.tiny { 500 } else { LADDER_QUERIES };
        for rate in (1..=LADDER_RUNGS).map(|i| i * LADDER_STEP_Q_PER_GCYC) {
            let cfg = ServiceConfig {
                batch: 1,
                ..ServiceConfig::open(Arch::Hipe, ladder_queries, mix(), 1_000_000_000 / rate)
            };
            let report = run_service(&self.cluster, &cfg);
            digest = fnv(digest, &debug_digest(&report).to_le_bytes());
            let kept_up = report.queries_per_gigacycle() as f64 >= KEEP_UP * rate as f64;
            if !kept_up || report.latency.p99 > P99_LIMIT_CYC {
                break;
            }
            capacity = rate;
        }
        let metrics = vec![
            Metric::new(
                "sim_q_per_gcyc",
                clean.queries_per_gigacycle() as f64,
                "q/Gcyc",
            ),
            Metric::new("sim_p99_kcyc", clean.latency.p99 as f64 / 1e3, "kcyc"),
            Metric::new("sim_capacity_q_per_gcyc", capacity as f64, "q/Gcyc"),
        ];
        (metrics, digest)
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) {
        for r in &self.profile {
            out.add_run(r);
        }
        out.set("serve.build_ms", self.build_ms);
        let fixed = ServiceConfig::closed(Arch::Hipe, FIXED_QUERIES, mix(), CLIENTS);
        let fixed_ms = probe_ms(|| run_service(&self.cluster, &fixed));
        out.set("serve.fixed_ms", fixed_ms);
        let clean_ns = rec
            .spans()
            .iter()
            .filter(|s| s.name == SPAN_CLEAN)
            .map(|s| s.dur_ns());
        if let Some(ns) = samples_of(clean_ns).p50() {
            let per_query = (ns as f64 - fixed_ms * 1e6) / self.clean_cfg.queries as f64;
            out.set("serve.ns_per_query", per_query);
        }
        if let Some((f, _)) = &self.fault {
            out.set("serve.materializations_per_run", f.materializations as f64);
            out.set("serve.compilations_per_run", f.compilations as f64);
            out.set("serve.failovers", f.failovers as f64);
            out.set("serve.redispatched", f.redispatched as f64);
        }
        // The cluster's tables, generated and summarized as its build
        // does, and materialized as each `run_service` call does.
        let serial = WorkerPool::serial();
        let ranges: Vec<_> = (0..SHARDS).map(|s| self.cluster.shard_rows(s)).collect();
        let generate = || {
            ranges
                .iter()
                .flat_map(|r| std::iter::repeat_n(r, REPLICAS))
                .map(|r| {
                    LineitemTable::generate_shaped_on(
                        &serial,
                        self.cluster.config().seed,
                        r.start,
                        r.len(),
                        TableShape::Uniform,
                    )
                })
                .collect::<Vec<_>>()
        };
        let gen_ms = probe_ms(generate);
        let tables = generate();
        let zone_ms = probe_ms(|| tables.iter().map(ZoneMap::build).collect::<Vec<_>>());
        let mat_ms = probe_ms(|| self.cluster.session());
        let image_bytes = (0..SHARDS)
            .map(|s| self.cluster.shard(s).layout().image_bytes() * REPLICAS as u64)
            .sum();
        let rows = (self.cluster.rows() * REPLICAS) as u64;
        set_db_layers(out, rows, image_bytes, gen_ms, zone_ms, mat_ms);
        let frac = paired_overhead(|traced| {
            let mut tracer = Tracer::new();
            let sink = traced.then_some(&mut tracer as &mut dyn TraceSink);
            run_service_traced(&self.cluster, &fixed, sink);
        });
        out.set("trace.tracer_overhead_frac", frac);
    }
}
