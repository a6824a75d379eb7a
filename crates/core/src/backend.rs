//! The four machines as one closed enum: compile once, execute many
//! times.

use crate::report::Arch;
use crate::system::System;
use hipe_compiler::{CompileError, LogicScanProgram, REGION_ROWS};
use hipe_db::{PruneStats, Query, TableShape};
use hipe_isa::{MicroOp, OpSize};
use std::ops::Range;

/// One machine of the comparison, with the knob that machine has:
/// lowers a query against a [`System`]'s layout into an
/// [`ExecutablePlan`].
///
/// [`System::backend`] returns each [`Arch`]'s stock configuration;
/// build a variant directly to turn its knob (the HMC-ISA operand
/// size, or the logic machines' host-gather comparison path). A plan
/// is lowered once per query and reused across a whole batch through
/// [`Session::run_plan`](crate::Session::run_plan), which runs it on
/// the executor its payload names.
///
/// Invalid inputs (e.g. a zero-row layout handed to the lowering
/// functions directly) surface as a typed
/// [`CompileError`](hipe_compiler::CompileError) from `compile` rather
/// than a panic from inside the compiler.
///
/// # Example
///
/// ```
/// use hipe::{Arch, System};
/// use hipe_db::Query;
///
/// let sys = System::new(1024, 3);
/// let backend = System::backend(Arch::Hipe);
/// let plan = backend.compile(&sys, &Query::q6()).expect("a live system always compiles");
/// let mut session = sys.session();
/// let report = session.run_plan(&plan);
/// assert_eq!(report.arch, Arch::Hipe);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The x86/AVX baseline: vectorized column-at-a-time scan through
    /// the cache hierarchy.
    HostX86,
    /// The stock HMC atomic-ISA machine: per-vault read-operate
    /// dispatches with host-side mask combining.
    HmcIsa {
        /// Operand size of one vault operation. The stock machine
        /// uses [`STOCK_HMC_OP`](hipe_compiler::STOCK_HMC_OP) (16 B);
        /// larger sizes model the paper's operand-size extension
        /// sweep.
        op_size: OpSize,
    },
    /// HIVE: unpredicated logic-layer execution inside the cube.
    Hive {
        /// Run aggregates inside the logic layer (`true`, stock).
        /// `false` gathers matched tuples over the links instead: the
        /// paper's comparison point, and the path the x86/HMC-ISA
        /// machines always use.
        fused_aggregate: bool,
    },
    /// HIPE: HIVE plus the predication match logic (which also
    /// squashes the whole fused-aggregate tail of matchless regions).
    Hipe {
        /// As for [`Backend::Hive`].
        fused_aggregate: bool,
    },
}

impl Backend {
    /// The architecture label of this machine.
    pub fn arch(&self) -> Arch {
        match self {
            Backend::HostX86 => Arch::HostX86,
            Backend::HmcIsa { .. } => Arch::HmcIsa,
            Backend::Hive { .. } => Arch::Hive,
            Backend::Hipe { .. } => Arch::Hipe,
        }
    }

    /// Lowers `query` into this machine's executable form.
    ///
    /// # Errors
    ///
    /// Returns the compiler's typed [`CompileError`] when the query
    /// cannot be lowered (never for queries over a live [`System`],
    /// whose layouts are non-empty by construction).
    pub fn compile(&self, sys: &System, query: &Query) -> Result<ExecutablePlan, CompileError> {
        sys.note_compilation();
        let (layout, prune) = (sys.layout(), sys.prune());
        let code = match *self {
            Backend::HostX86 => {
                let (ops, live) = hipe_compiler::lower_host_scan(query, layout, prune)?;
                PlanCode::Micro { ops, live }
            }
            Backend::HmcIsa { op_size } => {
                let (ops, live) = hipe_compiler::lower_hmc_scan(query, layout, op_size, prune)?;
                PlanCode::Micro { ops, live }
            }
            Backend::Hive { fused_aggregate } | Backend::Hipe { fused_aggregate } => {
                let predicated = matches!(self, Backend::Hipe { .. });
                let program = if query.aggregates() && fused_aggregate {
                    hipe_compiler::lower_logic_aggregate(query, layout, predicated, prune)?
                } else {
                    hipe_compiler::lower_logic_scan(query, layout, predicated, prune)?
                };
                PlanCode::Logic {
                    program,
                    predicated,
                }
            }
        };
        Ok(ExecutablePlan::new(sys, self.arch(), query, code))
    }
}

/// The architecture-specific payload of a plan.
#[derive(Debug, Clone)]
pub(crate) enum PlanCode {
    /// A micro-op stream executed by the out-of-order core (x86
    /// baseline and HMC-ISA machines), with the runs of regions it
    /// scans.
    Micro {
        ops: Vec<MicroOp>,
        live: Vec<Range<usize>>,
    },
    /// Per-partition logic-layer programs posted to the in-cube
    /// engine cluster (HIVE/HIPE) — one program per vault group.
    /// Aggregate queries carry the fused aggregate tail unless the
    /// backend was configured for the host-gather comparison path.
    Logic {
        program: LogicScanProgram,
        predicated: bool,
    },
}

/// A query lowered for one architecture, ready to execute.
///
/// Produced by [`Backend::compile`]; executed — any number of times —
/// via [`Session::run_plan`](crate::Session::run_plan). The plan
/// captures everything derived from the query and the system's address
/// layout, so executing it does not re-lower anything.
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    arch: Arch,
    query: Query,
    rows: usize,
    partitions: usize,
    /// `(seed, row_offset, shape)` of the table the plan was lowered
    /// against: a pruned plan's live regions hold only for that table.
    table: (u64, usize, TableShape),
    code: PlanCode,
}

impl ExecutablePlan {
    fn new(sys: &System, arch: Arch, query: &Query, code: PlanCode) -> Self {
        let cfg = sys.config();
        ExecutablePlan {
            arch,
            query: query.clone(),
            rows: cfg.rows,
            partitions: cfg.partitions,
            table: (cfg.seed, cfg.row_offset, cfg.shape),
            code,
        }
    }

    /// The architecture the plan was compiled for.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// The query the plan computes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Table rows the plan was compiled against (plans are layout
    /// specific; [`Session::run_plan`](crate::Session::run_plan)
    /// checks this).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Vault-group partitions the plan was compiled for (also checked
    /// by [`Session::run_plan`](crate::Session::run_plan) — partition
    /// counts change the layout).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// `(seed, row_offset, shape)` of the table the plan was compiled
    /// against ([`Session::run_plan`](crate::Session::run_plan) checks
    /// it for pruned plans).
    pub(crate) fn table(&self) -> (u64, usize, TableShape) {
        self.table
    }

    /// Number of lowered instructions in the plan (micro-ops or
    /// logic-layer instructions).
    pub fn instructions(&self) -> usize {
        match &self.code {
            PlanCode::Micro { ops, .. } => ops.len(),
            PlanCode::Logic { program, .. } => program.total_instrs(),
        }
    }

    /// The sorted, coalesced runs of 32-row regions the plan scans:
    /// `0..regions` without [`SystemConfig::pruning`](crate::SystemConfig),
    /// otherwise the zone map's
    /// [`live_regions`](hipe_db::ZoneMap::live_regions). Executing the
    /// plan evaluates, reads back and writes only these regions.
    pub fn live_regions(&self) -> &[Range<usize>] {
        match &self.code {
            PlanCode::Micro { live, .. } => live,
            PlanCode::Logic { program, .. } => program.live_regions(),
        }
    }

    /// How many 32-row regions the plan scans versus how many the
    /// zone map pruned at compile time, derived from
    /// [`live_regions`](Self::live_regions). Without
    /// [`SystemConfig::pruning`](crate::SystemConfig) every region is
    /// scanned and `pruned` is zero.
    pub fn prune_stats(&self) -> PruneStats {
        PruneStats::from_runs(self.live_regions(), self.rows.div_ceil(REGION_ROWS))
    }

    /// Returns `true` when the plan runs its aggregate fused inside
    /// the logic layer (per-region partials read back over the links)
    /// rather than as a host-side gather of matched tuples.
    pub fn fused_aggregate(&self) -> bool {
        match &self.code {
            PlanCode::Micro { .. } => false,
            PlanCode::Logic { program, .. } => program.aggregate_base().is_some(),
        }
    }

    pub(crate) fn code(&self) -> &PlanCode {
        &self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_captures_query_rows_and_code() {
        let sys = System::new(128, 1);
        let q = Query::q6();
        for arch in Arch::ALL {
            let plan = System::backend(arch)
                .compile(&sys, &q)
                .expect("live systems always compile");
            assert_eq!(plan.arch(), arch);
            assert_eq!(plan.query(), &q);
            assert_eq!(plan.rows(), 128);
            assert!(plan.instructions() > 0);
        }
    }

    #[test]
    fn stock_hmc_backend_uses_16_byte_ops() {
        assert_eq!(
            System::backend(Arch::HmcIsa),
            Backend::HmcIsa {
                op_size: hipe_compiler::STOCK_HMC_OP
            }
        );
    }

    #[test]
    fn aggregates_fuse_on_the_logic_machines_only() {
        let sys = System::new(256, 2);
        let q6 = Query::q6();
        for arch in Arch::ALL {
            let plan = System::backend(arch)
                .compile(&sys, &q6)
                .expect("Q6 compiles");
            let fused = matches!(arch, Arch::Hive | Arch::Hipe);
            assert_eq!(plan.fused_aggregate(), fused, "{arch}");
        }
        // Non-aggregating queries never fuse.
        let scan = Query::quantity_below_permille(100);
        let plan = System::backend(Arch::Hipe)
            .compile(&sys, &scan)
            .expect("scan compiles");
        assert!(!plan.fused_aggregate());
        // The explicit host-gather configuration is preserved for the
        // fused-vs-gather comparison experiments.
        let host_gather = Backend::Hipe {
            fused_aggregate: false,
        };
        let plan = host_gather.compile(&sys, &q6).expect("Q6 compiles");
        assert!(!plan.fused_aggregate());
    }

    #[test]
    fn fused_plans_carry_the_aggregate_tail() {
        let sys = System::new(256, 2);
        let fused = System::backend(Arch::Hive)
            .compile(&sys, &Query::q6())
            .expect("Q6 compiles");
        let gather = Backend::Hive {
            fused_aggregate: false,
        }
        .compile(&sys, &Query::q6())
        .expect("Q6 compiles");
        // Five tail instructions per 32-row region, plus the zero and
        // flush of the single 32-region partial group.
        assert_eq!(
            fused.instructions(),
            gather.instructions() + 5 * 256usize.div_ceil(hipe_compiler::REGION_ROWS) + 2
        );
    }

    #[test]
    fn pruning_config_threads_into_every_backend() {
        use crate::system::SystemConfig;
        use hipe_db::TableShape;
        let rows = 2048;
        let mut cfg = SystemConfig::paper(rows, 5);
        cfg.shape = TableShape::ClusteredShipdate { total_rows: rows };
        cfg.pruning = true;
        let sys = System::with_config(cfg);
        let q = Query::shipdate_window_permille(100);
        for arch in Arch::ALL {
            let plan = System::backend(arch)
                .compile(&sys, &q)
                .expect("live systems always compile");
            let s = plan.prune_stats();
            assert_eq!(s.total(), rows / 32, "{arch}");
            assert!(s.pruned > 0, "{arch} pruned nothing on a clustered table");
        }
        // Without the flag the same system scans everything.
        let mut unpruned_cfg = sys.config().clone();
        unpruned_cfg.pruning = false;
        let unpruned = System::with_config(unpruned_cfg);
        for arch in Arch::ALL {
            let plan = System::backend(arch)
                .compile(&unpruned, &q)
                .expect("live systems always compile");
            assert_eq!(plan.prune_stats().pruned, 0, "{arch}");
        }
    }
}
