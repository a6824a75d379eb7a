//! A set of queries lowered and run on all four machines, with the
//! answer and repeat checks both `scan` and `ingest` apply to it.

use crate::probe::Recorder;
use crate::stats::{debug_digest, fnv, FNV_OFFSET};
use crate::{arch_index, Layers, ARCH_KEYS, LOWER_SPANS, RUN_SPANS};
use hipe::{Arch, RunReport, Session, System};
use hipe_db::scan::{reference, ScanResult};
use hipe_db::{LineitemTable, Query};

/// One lowered and executed point.
pub struct Run {
    /// Index into the sweep's queries.
    pub query: usize,
    /// Instructions of the lowered plan.
    pub instrs: u64,
    /// What the run produced.
    pub report: RunReport,
}

/// Queries x `Arch::ALL`, freshly lowered on every pass.
pub struct Sweep {
    queries: Vec<Query>,
    references: Vec<ScanResult>,
    last: Vec<Run>,
    /// The warm-up pass and its digests: the repeat baseline.
    warm: Vec<Run>,
    warm_digests: Vec<u64>,
}

impl Sweep {
    /// A sweep over `queries`, checked against their reference answers
    /// on `table`.
    pub fn new(queries: Vec<Query>, table: &LineitemTable) -> Self {
        let references = queries.iter().map(|q| reference(table, q)).collect();
        Sweep {
            queries,
            references,
            last: Vec::new(),
            warm: Vec::new(),
            warm_digests: Vec::new(),
        }
    }

    /// The swept queries.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Lowers every point with `Backend::compile` and runs it with
    /// `Session::run_plan`, each call inside its layer span.
    pub fn pass(&mut self, rec: &mut Recorder, sys: &System, session: &mut Session<'_>) {
        self.last.clear();
        for (qi, query) in self.queries.iter().enumerate() {
            for (ai, &arch) in Arch::ALL.iter().enumerate() {
                let plan = rec
                    .span(LOWER_SPANS[ai], || {
                        System::backend(arch).compile(sys, query)
                    })
                    .expect("a live system always compiles");
                let report = rec.span(RUN_SPANS[ai], || session.run_plan(&plan));
                self.last.push(Run {
                    query: qi,
                    instrs: plan.instructions() as u64,
                    report,
                });
            }
        }
    }

    /// Checks the last pass: every answer equals the reference, and
    /// every report equals the warm-up pass's (the first pass checked
    /// becomes that baseline).
    pub fn check(&mut self) -> bool {
        let answers_ok = self
            .last
            .iter()
            .all(|r| r.report.result == self.references[r.query]);
        let digests: Vec<u64> = self.last.iter().map(|r| debug_digest(&r.report)).collect();
        if self.warm.is_empty() {
            self.warm = std::mem::take(&mut self.last);
            self.warm_digests = digests;
            answers_ok
        } else {
            answers_ok && digests == self.warm_digests
        }
    }

    /// The warm-up pass's runs.
    pub fn warm(&self) -> &[Run] {
        &self.warm
    }

    /// Simulated instructions of one pass.
    pub fn instructions(&self) -> u64 {
        self.warm.iter().map(|r| sim_instructions(&r.report)).sum()
    }

    /// Runs in one pass.
    pub fn points(&self) -> u64 {
        (self.queries.len() * Arch::ALL.len()) as u64
    }

    /// Digest of every report of the warm-up pass.
    pub fn digest(&self) -> u64 {
        self.warm_digests
            .iter()
            .fold(FNV_OFFSET, |h, d| fnv(h, &d.to_le_bytes()))
    }

    /// Adds one pass's model counters and plan sizes to `out`.
    pub fn add_counts(&self, out: &mut Layers) {
        for r in &self.warm {
            out.add_run(&r.report);
            let a = ARCH_KEYS[arch_index(r.report.arch)];
            out.add(&format!("compiler.instrs.{a}"), r.instrs as f64);
        }
    }
}

/// Simulated instructions of one run: host core ops plus logic-layer
/// engine instructions.
pub fn sim_instructions(report: &RunReport) -> u64 {
    report.core.ops + report.engine.as_ref().map_or(0, |e| e.instructions)
}
