//! `scan`: the paper's figure path. One op is a full sweep pass —
//! {Q6, sel 2 %, aggregating sel 10 %} on all four machines, every
//! point freshly lowered (`Backend::compile`) and run against one warm
//! session (`Session::run_plan`), so the plan cache is bypassed and
//! the execution models dominate.

use crate::probe::Recorder;
use crate::sweep::Sweep;
use crate::{probe_ms, set_db_layers, tracer_overhead, Config, Layers, Metric, Workload};
use hipe::{Arch, Session, System};
use hipe_db::{LineitemTable, Query, TableShape, ZoneMap};
use hipe_sim::WorkerPool;

/// Rows of the scanned table: Q6's four 8 B columns (4 MiB) overflow
/// the modelled 2.5 MiB L3, a single column (1 MiB) fits.
const ROWS: usize = 131_072;
const TINY_ROWS: usize = 4096;

struct Scan<'a> {
    sys: &'a System,
    session: Session<'a>,
    sweep: Sweep,
}

/// Builds the workload and hands it to `k`.
pub fn with(cfg: &Config, k: &mut dyn FnMut(&mut dyn Workload)) {
    let rows = if cfg.tiny { TINY_ROWS } else { ROWS };
    let sys = System::new(rows, cfg.seed);
    let queries = vec![
        Query::q6(),
        Query::quantity_below_permille(20),
        Query::quantity_below_permille(100).with_aggregate(),
    ];
    let mut w = Scan {
        sys: &sys,
        session: sys.session(),
        sweep: Sweep::new(queries, sys.table()),
    };
    k(&mut w);
}

impl Workload for Scan<'_> {
    fn op(&mut self, rec: &mut Recorder) {
        self.sweep.pass(rec, self.sys, &mut self.session);
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
        let q6 = |arch| {
            self.sweep
                .warm()
                .iter()
                .find(|r| r.query == 0 && r.report.arch == arch)
                .expect("the sweep runs Q6 on every machine")
                .report
                .cycles
        };
        let speedup = q6(Arch::HostX86) as f64 / q6(Arch::Hipe).max(1) as f64;
        let speedup = Metric::new("sim_q6_speedup", speedup, "x");
        (vec![speedup], self.sweep.digest())
    }

    fn layers(&mut self, _rec: &Recorder, out: &mut Layers) {
        self.sweep.add_counts(out);
        let (rows, seed) = (self.sys.config().rows, self.sys.config().seed);
        let serial = WorkerPool::serial();
        let generate =
            || LineitemTable::generate_shaped_on(&serial, seed, 0, rows, TableShape::Uniform);
        let gen_ms = probe_ms(generate);
        let table = generate();
        let zone_ms = probe_ms(|| ZoneMap::build(&table));
        let mat_ms = probe_ms(|| self.sys.session());
        let image_bytes = self.sys.layout().image_bytes();
        set_db_layers(out, rows as u64, image_bytes, gen_ms, zone_ms, mat_ms);
        let frac = tracer_overhead(&mut self.session, &self.sweep.queries()[0]);
        out.set("trace.tracer_overhead_frac", frac);
    }
}
