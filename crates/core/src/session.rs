//! Warm execution sessions: one materialized cube image, many runs.

use crate::backend::{ExecutablePlan, PlanCode};
use crate::report::{Arch, RunReport};
use crate::system::System;
use crate::{host, neardata};
use hipe_db::{Query, REGION_BYTES};
use hipe_hmc::Hmc;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// A compiled-plan cache shared by sessions over bit-identical
/// systems — the replicas of one `hipe-serve` shard. Replicas are
/// constructed from the same seed, rows and configuration, and
/// compilation is deterministic, so a plan lowered against any of them
/// is *the* plan for all of them: the first session to need an
/// `(arch, query)` pair compiles it for every replica, cutting
/// [`System::compilations`] by the replication factor.
///
/// Sessions keep their private per-arch map for lock-free hot-path
/// hits; the shared map is consulted only on a local miss. The lock is
/// held across the compile so racing sessions lower each key exactly
/// once.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<(Arch, Query), Arc<ExecutablePlan>>>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Number of distinct `(arch, query)` plans cached so far.
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// Returns `true` if no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached plan for `(arch, query)`, lowering it against `sys`
    /// on first use.
    fn get_or_compile(&self, sys: &System, arch: Arch, query: &Query) -> Arc<ExecutablePlan> {
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        let plan = plans.entry((arch, query.clone())).or_insert_with(|| {
            Arc::new(
                System::backend(arch)
                    .compile(sys, query)
                    .expect("only unsatisfiable predicates fail to compile over a live system"),
            )
        });
        Arc::clone(plan)
    }
}

/// A warm execution context over one [`System`].
///
/// Creating a session materializes the generated table into the cube
/// image **once**; every subsequent run reuses that image. Before each
/// run the session applies its *reset protocol*: it zeroes the output
/// footprint of the last plan it executed — the packed mask words and
/// 256 B region masks over that plan's live regions, plus the
/// aggregate partial-sum area — and rebuilds the cube's run-scoped
/// timing, stats and energy meters ([`Hmc::reset_run_state`]) while
/// the table bytes stay put. A run writes nothing outside its plan's
/// footprint, so the image before each run is the cold image, and a
/// warm run is bit- and cycle-identical to a cold [`System::run`] (the
/// integration tests assert this). The reset costs what the last run
/// scanned, not what the table holds. Materialization leaves the whole
/// mask and aggregate area zeroed, so a fresh or rematerialized
/// session starts with an empty footprint.
///
/// This is the execution half of the compile → session → execute
/// split: plans compiled by a [`Backend`](crate::Backend) can be
/// executed any number of times, on any architecture, against the one
/// materialization.
///
/// # Example
///
/// ```
/// use hipe::{Arch, System};
/// use hipe_db::Query;
///
/// let sys = System::new(2048, 7);
/// let mut session = sys.session();
/// let reports = session.run_all(Arch::Hipe, &[Query::q6(), Query::quantity_below_permille(100)]);
/// assert_eq!(reports.len(), 2);
/// assert_eq!(sys.materializations(), 1);
/// ```
#[derive(Debug)]
pub struct Session<'a> {
    sys: &'a System,
    hmc: Hmc,
    /// Compiled-plan cache: one entry per distinct `(arch, query)`
    /// the session has run. Batch loops re-running the same queries
    /// compile once, not per run ([`System::compilations`] counts).
    /// Keyed arch-first so the hot hit path looks up by `&Query`
    /// without cloning it.
    plans: HashMap<Arch, HashMap<Query, Arc<ExecutablePlan>>>,
    /// Cross-session fallback consulted on a local miss; see
    /// [`PlanCache`]. `None` for standalone sessions.
    shared: Option<Arc<PlanCache>>,
    /// Live region runs of the last plan [`run_plan`](Self::run_plan)
    /// executed — the output footprint the next reset zeroes. Empty
    /// when the output area is known to be all zero (after
    /// materialization or [`reset`](Self::reset)).
    written: Vec<Range<usize>>,
}

// Compile-time guard for host-parallel co-simulation: a `System` must
// be shareable across worker threads and a `Session` movable onto one.
// If a future change smuggles in `Rc`, `RefCell` or a raw pointer,
// this fails to build instead of failing at a distant spawn site.
const _: () = {
    fn _assert_send<T: Send>() {}
    fn _assert_sync<T: Sync>() {}
    fn _guards() {
        _assert_send::<System>();
        _assert_sync::<System>();
        _assert_send::<Session<'_>>();
        _assert_send::<Arc<ExecutablePlan>>();
        _assert_sync::<ExecutablePlan>();
        _assert_send::<PlanCache>();
        _assert_sync::<PlanCache>();
    }
};

impl<'a> Session<'a> {
    /// Creates a session, materializing the table image (the one
    /// expensive setup step a warm batch amortizes).
    pub(crate) fn new(sys: &'a System) -> Self {
        Session::build(sys, None)
    }

    /// Creates a session whose plan lookups fall back to a shared
    /// [`PlanCache`] (see [`System::session_with_plans`]).
    pub(crate) fn with_shared_plans(sys: &'a System, plans: Arc<PlanCache>) -> Self {
        Session::build(sys, Some(plans))
    }

    fn build(sys: &'a System, shared: Option<Arc<PlanCache>>) -> Self {
        Session {
            sys,
            hmc: sys.fresh_hmc(),
            plans: HashMap::new(),
            shared,
            written: Vec::new(),
        }
    }

    /// The system this session executes against.
    pub fn system(&self) -> &'a System {
        self.sys
    }

    /// The cube holding the warm image (read-only view).
    pub fn hmc(&self) -> &Hmc {
        &self.hmc
    }

    /// Mutable cube access for the executing backend.
    pub(crate) fn hmc_mut(&mut self) -> &mut Hmc {
        &mut self.hmc
    }

    /// Zeroes the whole mask and aggregate output area and rebuilds
    /// the cube's run-scoped timing/stat/energy state, leaving the
    /// table image untouched.
    ///
    /// [`run`](Self::run), [`run_plan`](Self::run_plan) and
    /// [`run_all`](Self::run_all) reset before every execution
    /// themselves, zeroing only the footprint of the plan they ran
    /// last.
    pub fn reset(&mut self) {
        let mask_base = self.sys.layout().mask_base();
        let len = self.hmc.image_len() - mask_base as usize;
        self.hmc.zero_bytes(mask_base, len);
        self.written.clear();
        self.hmc.reset_run_state();
    }

    /// Zeroes and forgets the recorded output footprint, zeroes the
    /// aggregate area, then rebuilds the cube's run-scoped state.
    fn clear_outputs(&mut self) {
        let layout = self.sys.layout();
        let mask_base = layout.mask_base();
        for run in self.written.drain(..) {
            // The logic machines' 256 B region masks...
            let masks = run.len() * REGION_BYTES as usize;
            self.hmc.zero_bytes(layout.mask_addr(run.start), masks);
            // ...and the host machines' packed 8 B words.
            let words = host::packed_words(&run);
            self.hmc
                .zero_bytes(mask_base + words.start as u64 * 8, words.len() * 8);
        }
        self.hmc
            .zero_bytes(layout.agg_base(), layout.agg_area_bytes() as usize);
        self.hmc.reset_run_state();
    }

    /// Compiles and executes `query` on `arch` against the warm image.
    ///
    /// Plans are cached per `(arch, query)`: the first run of a query
    /// lowers it, every later run of the same query on the same arch
    /// reuses the compiled [`ExecutablePlan`] (compilation is
    /// deterministic, so the cached plan is the plan a fresh compile
    /// would produce; [`System::compilations`] observes the saving).
    ///
    /// A live [`System`] always has at least one row, so the only
    /// compile error that can occur here is a statically unsatisfiable
    /// predicate. Compiling with [`Backend::compile`](crate::Backend::compile)
    /// exposes it as a typed [`CompileError`](crate::CompileError).
    ///
    /// # Panics
    ///
    /// Panics with [`CompileError::PredicateUnsatisfiable`](crate::CompileError::PredicateUnsatisfiable)
    /// if `query` holds an inverted [`CmpOp::Range`](hipe_db::CmpOp::Range)
    /// (`lo > hi`).
    pub fn run(&mut self, arch: Arch, query: &Query) -> RunReport {
        let plan = self.plan(arch, query);
        self.run_plan(&plan)
    }

    /// Like [`run`](Self::run), emitting the run's phase spans into
    /// the trace context when one is given. `None` takes a single
    /// branch and is otherwise the exact [`run`](Self::run) path, and
    /// emission happens strictly after execution from the finished
    /// [`RunReport`] — so the report (cycles, masks, digests) is
    /// bit-identical whether or not the run is traced.
    pub fn run_traced(
        &mut self,
        arch: Arch,
        query: &Query,
        trace: Option<crate::TraceCtx<'_>>,
    ) -> RunReport {
        let report = self.run(arch, query);
        if let Some(ctx) = trace {
            report.trace_into(ctx.sink, ctx.track, ctx.at, "query");
        }
        report
    }

    /// The session's cached plan for `(arch, query)`, compiling it on
    /// first use.
    pub fn plan(&mut self, arch: Arch, query: &Query) -> Arc<ExecutablePlan> {
        if let Some(plan) = self.plans.get(&arch).and_then(|m| m.get(query)) {
            return Arc::clone(plan);
        }
        let plan = match &self.shared {
            Some(cache) => cache.get_or_compile(self.sys, arch, query),
            None => Arc::new(
                System::backend(arch)
                    .compile(self.sys, query)
                    .expect("only unsatisfiable predicates fail to compile over a live system"),
            ),
        };
        self.plans
            .entry(arch)
            .or_default()
            .insert(query.clone(), Arc::clone(&plan));
        plan
    }

    /// Rewrites the table image in place over the warm cube — the
    /// zero-copy rematerialization path. Every image byte (column
    /// arrays, alignment padding, mask and aggregate areas) is
    /// overwritten, so the next run is bit- and cycle-identical to a
    /// cold one even after arbitrary scribbling on the image. Counts
    /// one [`System::materializations`].
    pub fn rematerialize(&mut self) {
        self.sys.rematerialize_into(&mut self.hmc);
        self.written.clear();
    }

    /// Executes an already-compiled plan against the warm image: a
    /// micro-op plan (x86, HMC-ISA) on the host executor, a
    /// logic-layer plan (HIVE, HIPE) on the near-data one.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a differently-sized or
    /// differently-partitioned system (both change the address layout
    /// the plan's code is baked against), or if the plan prunes
    /// regions and was compiled for a table with a different seed,
    /// row offset or shape (its live regions hold only for that
    /// table's zone map).
    pub fn run_plan(&mut self, plan: &ExecutablePlan) -> RunReport {
        let cfg = self.sys.config();
        assert_eq!(
            plan.rows(),
            cfg.rows,
            "plan was compiled for a different system"
        );
        assert_eq!(
            plan.partitions(),
            cfg.partitions,
            "plan was compiled for a different system (partition count)"
        );
        if plan.prune_stats().pruned > 0 {
            assert_eq!(
                plan.table(),
                (cfg.seed, cfg.row_offset, cfg.shape),
                "pruned plan was compiled for a different table (seed, row offset, shape)"
            );
        }
        self.clear_outputs();
        self.written.extend_from_slice(plan.live_regions());
        match plan.code() {
            PlanCode::Micro { ops, live } => host::execute(self, plan, ops, live),
            PlanCode::Logic {
                program,
                predicated,
            } => neardata::execute(self, plan, program, *predicated),
        }
    }

    /// Runs a batch of queries on `arch`, reusing the single warm
    /// materialization for every one of them.
    ///
    /// The reset protocol makes batch results independent of execution
    /// order and identical to cold runs.
    pub fn run_all(&mut self, arch: Arch, queries: &[Query]) -> Vec<RunReport> {
        queries.iter().map(|q| self.run(arch, q)).collect()
    }
}
