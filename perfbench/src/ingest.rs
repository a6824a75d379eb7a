//! `ingest`: the write side and pruned reads. One op builds a fresh
//! 1M-row shipdate-clustered system with zone-map pruning on, opens its
//! session (materializing the table), then lowers and runs two narrow
//! shipdate windows on all four machines. The table is written, not
//! scanned: the execution models are nearly idle, the db layer and the
//! per-run fixed cost are not.

use crate::probe::Recorder;
use crate::sweep::Sweep;
use crate::RUN_SPANS;
use crate::{probe_ms, set_db_layers, tracer_overhead, Config, Layers, Metric, Workload};
use hipe::{System, SystemConfig};
use hipe_db::{DsmLayout, LineitemTable, Query, TableShape, ZoneMap};
use hipe_sim::WorkerPool;

const ROWS: usize = 1_048_576;
const TINY_ROWS: usize = 16_384;
/// Shipdate windows scanned per op, in permille of the date span.
const WINDOWS: [u32; 2] = [10, 30];
/// Share of regions a run must prune to count as a pruned run.
const PRUNED_SHARE: f64 = 0.95;

struct Ingest {
    sys_cfg: SystemConfig,
    sweep: Sweep,
}

/// Builds the workload and hands it to `k`.
pub fn with(cfg: &Config, k: &mut dyn FnMut(&mut dyn Workload)) {
    let rows = if cfg.tiny { TINY_ROWS } else { ROWS };
    let sys_cfg = SystemConfig {
        shape: TableShape::ClusteredShipdate { total_rows: rows },
        pruning: true,
        ..SystemConfig::paper(rows, cfg.seed)
    };
    let queries = WINDOWS
        .iter()
        .map(|&pm| Query::shipdate_window_permille(pm))
        .collect();
    let sweep = Sweep::new(queries, &generate(&sys_cfg));
    k(&mut Ingest { sys_cfg, sweep });
}

/// The table `System::with_config(cfg)` generates, on one thread.
fn generate(cfg: &SystemConfig) -> LineitemTable {
    LineitemTable::generate_shaped_on(&WorkerPool::serial(), cfg.seed, 0, cfg.rows, cfg.shape)
}

impl Workload for Ingest {
    fn op(&mut self, rec: &mut Recorder) {
        let sys = rec.span("db.system_build", || {
            System::with_config(self.sys_cfg.clone())
        });
        let mut session = rec.span("db.materialize", || sys.session());
        self.sweep.pass(rec, &sys, &mut session);
        rec.span("db.release", || drop(session));
        rec.span("db.release", || drop(sys));
    }

    fn check(&mut self) -> bool {
        self.sweep.check()
    }

    fn instructions_per_op(&self) -> u64 {
        self.sweep.instructions()
    }

    fn queries_per_op(&self) -> u64 {
        self.sweep.points()
    }

    fn model(&mut self) -> (Vec<Metric>, u64) {
        (Vec::new(), self.sweep.digest())
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Layers) {
        self.sweep.add_counts(out);
        let all_pruned = self.sweep.warm().iter().all(|r| {
            let total = (r.report.regions_scanned + r.report.regions_pruned).max(1);
            r.report.regions_pruned as f64 / total as f64 >= PRUNED_SHARE
        });
        let runs: Vec<u64> = rec
            .spans()
            .iter()
            .filter(|s| RUN_SPANS.contains(&s.name))
            .map(|s| s.dur_ns())
            .collect();
        if all_pruned && !runs.is_empty() {
            let mean_ns = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
            out.set("core.pruned_run_ms", mean_ns / 1e6);
        }
        let mat_ns = rec.total_ns_by_name().get("db.materialize").copied();
        let mat_ms = mat_ns.unwrap_or(0) as f64 / rec.ops().max(1) as f64 / 1e6;
        let gen_ms = probe_ms(|| generate(&self.sys_cfg));
        let table = generate(&self.sys_cfg);
        let zone_ms = probe_ms(|| ZoneMap::build(&table));
        drop(table);
        let rows = self.sys_cfg.rows;
        let image_bytes = DsmLayout::partitioned(0, rows, 1).image_bytes();
        set_db_layers(out, rows as u64, image_bytes, gen_ms, zone_ms, mat_ms);
        let sys = System::with_config(self.sys_cfg.clone());
        let frac = tracer_overhead(&mut sys.session(), &self.sweep.queries()[1]);
        out.set("trace.tracer_overhead_frac", frac);
    }
}
