//! Run reports: what one end-to-end query execution produced.

use hipe_cache::CacheStats;
use hipe_cpu::CoreStats;
use hipe_db::scan::ScanResult;
use hipe_db::Bitmask;
use hipe_hmc::{EnergyBreakdown, HmcStats};
use hipe_logic::EngineStats;
use hipe_sim::Cycle;
use hipe_trace::json::Value;
use hipe_trace::{TraceSink, TrackId};

/// The simulated architectures.
///
/// `Arch` is a thin label: [`System::backend`](crate::System::backend)
/// resolves each variant to its stock [`Backend`](crate::Backend),
/// the machine with its knob set, which compiles plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// x86/AVX baseline: everything in the core, data through the
    /// caches and serial links.
    HostX86,
    /// Stock HMC atomic ISA: the core dispatches 16 B read-operate
    /// instructions executed by the vault functional units; mask
    /// combining stays on the host.
    HmcIsa,
    /// HIVE: unpredicated logic-layer execution inside the cube.
    Hive,
    /// HIPE: HIVE plus the predication match logic.
    Hipe,
}

impl Arch {
    /// All four machines in the paper's comparison order.
    pub const ALL: [Arch; 4] = [Arch::HostX86, Arch::HmcIsa, Arch::Hive, Arch::Hipe];
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Arch::HostX86 => "x86",
            Arch::HmcIsa => "HMC-ISA",
            Arch::Hive => "HIVE",
            Arch::Hipe => "HIPE",
        })
    }
}

/// Cycle-level breakdown of one run into its pipeline phases.
///
/// The phases partition the run's timeline:
///
/// * `dispatch` — cycle at which the host finished handing the lowered
///   scan program to its execution engine (completion of the last
///   posted logic-layer instruction packet for HIVE/HIPE, of the last
///   vault dispatch for the HMC ISA; equal to `scan` on the x86
///   baseline, which executes the scan in place);
/// * `scan` — cycle at which the match mask was complete in cube
///   memory;
/// * `gather_aggregate` — additional cycles spent on the host-side
///   gather of matched values for the query's aggregate (zero for
///   non-aggregating queries).
///
/// `scan + gather_aggregate` equals [`RunReport::cycles`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Completion cycle of command dispatch.
    pub dispatch: Cycle,
    /// Completion cycle of the scan itself.
    pub scan: Cycle,
    /// Extra cycles of the host-side aggregate gather.
    pub gather_aggregate: Cycle,
}

/// One execution partition's share of a run.
///
/// On HIVE/HIPE each partition is one vault group's logic-layer
/// engine; the host-driven machines report a single partition covering
/// the whole cube. An idle partition (its vault group holds no region
/// of the table) reports zero instructions and zero-cycle phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionPhase {
    /// Partition index.
    pub partition: usize,
    /// First vault of the partition's vault group.
    pub first_vault: usize,
    /// Vaults in the group.
    pub vaults: usize,
    /// Lowered instructions this partition executed.
    pub instructions: u64,
    /// Completion cycle of this partition's command dispatch.
    pub dispatch: Cycle,
    /// Completion cycle of this partition's scan (its engine's unlock
    /// acknowledgement arriving at the host; [`PhaseBreakdown::scan`]
    /// is the maximum over partitions).
    pub scan: Cycle,
    /// DRAM bytes moved in this partition's vault group during the
    /// scan phase (reads + writes).
    pub dram_bytes: u64,
}

/// Outcome of one query execution on one architecture.
///
/// `result` is the functional answer (identical across architectures
/// by construction — the integration tests enforce it); the remaining
/// fields are the measurements the paper's figures are built from.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Architecture that produced this report.
    pub arch: Arch,
    /// Functional scan result (bitmask, match count, aggregate).
    pub result: ScanResult,
    /// End-to-end cycle count (scan plus aggregate gather).
    pub cycles: Cycle,
    /// Per-phase cycle breakdown (dispatch / scan / gather-aggregate).
    pub phases: PhaseBreakdown,
    /// Per-partition breakdown: one entry per vault-group engine on
    /// HIVE/HIPE, a single whole-cube entry on the host machines.
    pub partitions: Vec<PartitionPhase>,
    /// 32-row regions the compiled plan actually scanned.
    pub regions_scanned: usize,
    /// 32-row regions the zone map pruned at compile time (zero unless
    /// the system was configured with
    /// [`pruning`](crate::SystemConfig::pruning)). Pruned regions
    /// contribute exact-zero mask words and aggregate lanes, so
    /// `result` is bit-identical to the unpruned run's.
    pub regions_pruned: usize,
    /// Energy accumulated across cube, links, logic and caches.
    pub energy: EnergyBreakdown,
    /// Out-of-order core activity.
    pub core: CoreStats,
    /// Cache hierarchy activity (host-path architectures only).
    pub cache: Option<CacheStats>,
    /// Logic-layer engine activity (HIVE/HIPE only).
    pub engine: Option<EngineStats>,
    /// Cube activity.
    pub hmc: HmcStats,
}

impl RunReport {
    /// The report of a sub-query that was never dispatched because a
    /// zone-map rollup proved no region of the `rows`-tuple table
    /// could match: an all-zero mask (the exact answer), zero cycles
    /// and energy, and every one of the table's `regions` counted as
    /// pruned. `hipe-serve` synthesizes these for shards its scatter
    /// path skips; an aggregating query gets the exact `Some(0)` sum.
    pub fn skipped(arch: Arch, rows: usize, regions: usize, aggregating: bool) -> RunReport {
        RunReport {
            arch,
            result: ScanResult {
                bitmask: Bitmask::zeros(rows),
                matches: 0,
                aggregate: aggregating.then_some(0),
            },
            cycles: 0,
            phases: PhaseBreakdown::default(),
            partitions: Vec::new(),
            regions_scanned: 0,
            regions_pruned: regions,
            energy: EnergyBreakdown::new(),
            core: CoreStats::default(),
            cache: None,
            engine: None,
            hmc: HmcStats::default(),
        }
    }

    /// Speedup of this run relative to `other` (>1 means faster).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        other.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Fraction of tuples selected by the scan.
    ///
    /// Defined as 0.0 over an empty table (no division by the zero
    /// row count), so [`Display`](std::fmt::Display)'s percentage is
    /// never NaN.
    pub fn selectivity(&self) -> f64 {
        if self.result.bitmask.is_empty() {
            0.0
        } else {
            self.result.matches as f64 / self.result.bitmask.len() as f64
        }
    }

    /// Emits this run onto `track` of `sink` as a `name`d span at
    /// absolute cycle `at`, with the phase breakdown nested inside it:
    /// `dispatch` (omitted on the x86 baseline, whose in-place scan
    /// has no separate dispatch phase), `scan`, and `gather` when the
    /// query aggregates. A zone-map pruning decision becomes a
    /// `zonemap` instant, and each partition contributes a
    /// `dram_bytes` counter sample at its scan-completion cycle.
    ///
    /// Emission only *reads* the report — tracing can never perturb
    /// the cycle accounting it describes.
    pub fn trace_into(&self, sink: &mut dyn TraceSink, track: TrackId, at: Cycle, name: &str) {
        sink.span_on(
            track,
            name,
            at,
            at + self.cycles,
            vec![
                ("arch", self.arch.to_string().into()),
                ("matches", self.result.matches.into()),
                ("regions_scanned", self.regions_scanned.into()),
                ("regions_pruned", self.regions_pruned.into()),
            ],
        );
        if self.regions_pruned > 0 {
            sink.instant(
                track,
                "zonemap",
                at,
                vec![
                    ("scanned", self.regions_scanned.into()),
                    ("pruned", self.regions_pruned.into()),
                ],
            );
        }
        if self.cycles == 0 {
            // A zone-map-skipped sub-query: no phases to show.
            return;
        }
        let p = self.phases;
        let dispatch_end = if p.dispatch < p.scan { p.dispatch } else { 0 };
        if dispatch_end > 0 {
            sink.span_on(track, "dispatch", at, at + dispatch_end, Vec::new());
        }
        sink.span_on(
            track,
            "scan",
            at + dispatch_end,
            at + p.scan,
            vec![("partitions", self.partitions.len().into())],
        );
        if p.gather_aggregate > 0 {
            sink.span_on(
                track,
                "gather",
                at + p.scan,
                at + p.scan + p.gather_aggregate,
                Vec::new(),
            );
        }
        for part in &self.partitions {
            sink.counter(track, "dram_bytes", at + part.scan, part.dram_bytes);
        }
    }

    /// Emits each partition's scan as a span on its own track (one
    /// viewer row per vault-group engine), placed at absolute cycle
    /// `at` — partitions run concurrently, so they cannot share a
    /// sync track.
    ///
    /// # Panics
    ///
    /// Panics unless `tracks` holds exactly one track per partition.
    pub fn trace_partitions_into(&self, sink: &mut dyn TraceSink, tracks: &[TrackId], at: Cycle) {
        assert_eq!(
            tracks.len(),
            self.partitions.len(),
            "one track per partition"
        );
        for (part, &track) in self.partitions.iter().zip(tracks) {
            sink.span_on(
                track,
                &format!("p{} scan", part.partition),
                at + part.dispatch,
                at + part.scan,
                vec![
                    ("first_vault", part.first_vault.into()),
                    ("vaults", part.vaults.into()),
                    ("instructions", part.instructions.into()),
                    ("dram_bytes", part.dram_bytes.into()),
                ],
            );
        }
    }

    /// Every counter of this run as one JSON object, members in name
    /// order: `cycles`, `matches`, the zone-map decisions, the core
    /// and cube counters, the cache counters (host-path machines
    /// only), the engine counters (HIVE/HIPE only) and, when the run
    /// has partitions, their summed `dram_bytes` plus a
    /// `{count, sum, min, max}` summary of their scan-completion
    /// cycles. This is the one place the counter names are spelled.
    pub fn metrics(&self) -> Value {
        let mut members: Vec<(&str, Value)> = vec![
            ("cycles", self.cycles.into()),
            ("matches", self.result.matches.into()),
            ("zonemap.regions_scanned", self.regions_scanned.into()),
            ("zonemap.regions_pruned", self.regions_pruned.into()),
            ("core.ops", self.core.ops.into()),
            ("core.loads", self.core.loads.into()),
            ("core.stores", self.core.stores.into()),
            ("core.branches", self.core.branches.into()),
            ("core.mispredicts", self.core.mispredicts.into()),
            ("hmc.activations", self.hmc.activations.into()),
            ("hmc.bytes_read", self.hmc.bytes_read.into()),
            ("hmc.bytes_written", self.hmc.bytes_written.into()),
            ("hmc.link_bytes", self.hmc.link_bytes.into()),
            ("hmc.fu_ops", self.hmc.fu_ops.into()),
        ];
        if let Some(c) = &self.cache {
            members.extend([
                ("cache.l1_hits", c.l1_hits.into()),
                ("cache.l1_misses", c.l1_misses.into()),
                ("cache.l2_hits", c.l2_hits.into()),
                ("cache.l2_misses", c.l2_misses.into()),
                ("cache.l3_hits", c.l3_hits.into()),
                ("cache.l3_misses", c.l3_misses.into()),
                ("cache.prefetches", c.prefetches.into()),
                ("cache.prefetch_hits", c.prefetch_hits.into()),
                ("cache.writebacks", c.writebacks.into()),
                ("cache.accesses", c.accesses.into()),
            ]);
        }
        if let Some(e) = &self.engine {
            members.extend([
                ("engine.instructions", e.instructions.into()),
                ("engine.dram_loads", e.dram_loads.into()),
                ("engine.dram_stores", e.dram_stores.into()),
                ("engine.alu_ops", e.alu_ops.into()),
                ("engine.squashed", e.squashed.into()),
                ("engine.blocks", e.blocks.into()),
            ]);
        }
        let scans = || self.partitions.iter().map(|p| p.scan);
        if let (Some(min), Some(max)) = (scans().min(), scans().max()) {
            let dram_bytes: u64 = self.partitions.iter().map(|p| p.dram_bytes).sum();
            let scan_cyc = Value::object()
                .with("count", self.partitions.len())
                .with("sum", scans().sum::<Cycle>())
                .with("min", min)
                .with("max", max);
            members.push(("partition.dram_bytes", dram_bytes.into()));
            members.push(("partition.scan_cyc", scan_cyc));
        }
        members.sort_by_key(|&(name, _)| name);
        Value::Object(
            members
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        )
    }
}

/// Where and when a traced execution should emit: the sink, the track
/// to emit onto, and the absolute cycle the run is placed at. Bundled
/// so the seam through the stack stays a single
/// `Option<TraceCtx<'_>>` argument.
pub struct TraceCtx<'a> {
    /// Recorder to emit into.
    pub sink: &'a mut dyn TraceSink,
    /// Track the run's spans land on.
    pub track: TrackId,
    /// Absolute cycle of the run's start.
    pub at: Cycle,
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} cyc, {} / {} tuples ({:.2} %), energy {}",
            self.arch,
            self.cycles,
            self.result.matches,
            self.result.bitmask.len(),
            100.0 * self.selectivity(),
            self.energy,
        )?;
        if self.regions_pruned > 0 {
            write!(
                f,
                " [zonemap: {} regions scanned, {} pruned]",
                self.regions_scanned, self.regions_pruned
            )?;
        }
        if self.partitions.len() > 1 {
            write!(f, " [{} engines: scan", self.partitions.len())?;
            for (i, p) in self.partitions.iter().enumerate() {
                let sep = if i == 0 { ' ' } else { '/' };
                write!(f, "{sep}{}", p.scan)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipe_db::Bitmask;

    fn dummy(arch: Arch, cycles: Cycle, matches: usize) -> RunReport {
        let mut bitmask = Bitmask::zeros(100);
        for i in 0..matches {
            bitmask.set(i);
        }
        RunReport {
            arch,
            result: ScanResult {
                bitmask,
                matches,
                aggregate: None,
            },
            cycles,
            phases: PhaseBreakdown {
                dispatch: cycles,
                scan: cycles,
                gather_aggregate: 0,
            },
            partitions: vec![PartitionPhase {
                partition: 0,
                first_vault: 0,
                vaults: 32,
                instructions: 1,
                dispatch: cycles,
                scan: cycles,
                dram_bytes: 0,
            }],
            regions_scanned: 4,
            regions_pruned: 0,
            energy: EnergyBreakdown::new(),
            core: CoreStats::default(),
            cache: None,
            engine: None,
            hmc: HmcStats::default(),
        }
    }

    #[test]
    fn speedup_and_selectivity() {
        let a = dummy(Arch::HostX86, 1000, 2);
        let b = dummy(Arch::Hipe, 250, 2);
        assert_eq!(b.speedup_over(&a), 4.0);
        assert_eq!(a.selectivity(), 0.02);
    }

    #[test]
    fn empty_table_selectivity_is_zero_not_nan() {
        // Regression: an all-empty bitmask (zero rows) must not divide
        // by zero — selectivity is defined as 0.0 and the Display
        // percentage stays finite.
        let mut r = dummy(Arch::Hipe, 10, 0);
        r.result.bitmask = Bitmask::zeros(0);
        assert_eq!(r.selectivity(), 0.0);
        assert!(!r.selectivity().is_nan());
        assert!(r.to_string().contains("(0.00 %)"), "display: {r}");
    }

    #[test]
    fn fully_pruned_run_has_finite_selectivity_and_shows_prune_counts() {
        // Regression: a run whose every region was pruned still has a
        // row-sized (all-zero) bitmask, so selectivity is an ordinary
        // 0/len division — finite, no NaN — and Display reports the
        // zone-map counters.
        let mut r = dummy(Arch::Hipe, 10, 0);
        r.regions_scanned = 0;
        r.regions_pruned = 4;
        assert_eq!(r.selectivity(), 0.0);
        assert!(!r.selectivity().is_nan());
        let s = r.to_string();
        assert!(s.contains("(0.00 %)"), "display: {s}");
        assert!(
            s.contains("[zonemap: 0 regions scanned, 4 pruned]"),
            "display: {s}"
        );
    }

    #[test]
    fn unpruned_runs_keep_the_historical_display_form() {
        let r = dummy(Arch::Hipe, 10, 2);
        assert!(!r.to_string().contains("zonemap"), "display: {r}");
    }

    #[test]
    fn display_mentions_arch() {
        let r = dummy(Arch::Hive, 10, 0);
        assert!(r.to_string().starts_with("HIVE:"));
        assert_eq!(Arch::HmcIsa.to_string(), "HMC-ISA");
    }

    #[test]
    fn display_appends_per_partition_scan_ends() {
        let mut r = dummy(Arch::Hipe, 100, 0);
        // A single partition keeps the historical one-line form.
        assert!(!r.to_string().contains("engines"));
        r.partitions = (0..4)
            .map(|p| PartitionPhase {
                partition: p,
                first_vault: p * 8,
                vaults: 8,
                instructions: 10,
                dispatch: 5,
                scan: 20 + p as u64,
                dram_bytes: 0,
            })
            .collect();
        let s = r.to_string();
        assert!(s.contains("[4 engines: scan 20/21/22/23]"), "display: {s}");
    }

    /// The members of [`RunReport::metrics`], checked to be in strict
    /// name order (so each name appears once).
    fn metric_members(r: &RunReport) -> Vec<(String, Value)> {
        let Value::Object(members) = r.metrics() else {
            panic!("metrics is not an object");
        };
        for pair in members.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} !< {}", pair[0].0, pair[1].0);
        }
        members
    }

    /// Asserts that `members` holds exactly `expected`, each once.
    fn assert_counters(members: &[(String, Value)], expected: &[(&str, u64)]) {
        for &(name, value) in expected {
            let hits: Vec<&Value> = members
                .iter()
                .filter(|(k, _)| k == name)
                .map(|(_, v)| v)
                .collect();
            assert_eq!(hits, [&Value::from(value)], "{name}");
        }
    }

    /// Every field of the report's component stats, by metric name.
    /// The destructuring lists every field, so a new field fails to
    /// compile here until it is given a metric.
    fn expected_counters(r: &RunReport) -> Vec<(&'static str, u64)> {
        let CoreStats {
            ops,
            loads,
            stores,
            branches,
            mispredicts,
        } = r.core;
        let HmcStats {
            activations,
            bytes_read,
            bytes_written,
            link_bytes,
            fu_ops,
        } = r.hmc;
        let mut out = vec![
            ("core.ops", ops),
            ("core.loads", loads),
            ("core.stores", stores),
            ("core.branches", branches),
            ("core.mispredicts", mispredicts),
            ("hmc.activations", activations),
            ("hmc.bytes_read", bytes_read),
            ("hmc.bytes_written", bytes_written),
            ("hmc.link_bytes", link_bytes),
            ("hmc.fu_ops", fu_ops),
        ];
        if let Some(CacheStats {
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            l3_hits,
            l3_misses,
            prefetches,
            prefetch_hits,
            writebacks,
            accesses,
        }) = r.cache
        {
            out.extend([
                ("cache.l1_hits", l1_hits),
                ("cache.l1_misses", l1_misses),
                ("cache.l2_hits", l2_hits),
                ("cache.l2_misses", l2_misses),
                ("cache.l3_hits", l3_hits),
                ("cache.l3_misses", l3_misses),
                ("cache.prefetches", prefetches),
                ("cache.prefetch_hits", prefetch_hits),
                ("cache.writebacks", writebacks),
                ("cache.accesses", accesses),
            ]);
        }
        if let Some(EngineStats {
            instructions,
            dram_loads,
            dram_stores,
            alu_ops,
            squashed,
            blocks,
        }) = r.engine
        {
            out.extend([
                ("engine.instructions", instructions),
                ("engine.dram_loads", dram_loads),
                ("engine.dram_stores", dram_stores),
                ("engine.alu_ops", alu_ops),
                ("engine.squashed", squashed),
                ("engine.blocks", blocks),
            ]);
        }
        out
    }

    #[test]
    fn metrics_spell_every_stats_field_once_with_its_value() {
        let sys = crate::System::new(1024, 7);
        let q6 = hipe_db::Query::q6();
        let x86 = sys.run(Arch::HostX86, &q6);
        let hipe = sys.run(Arch::Hipe, &q6);
        assert!(x86.cache.is_some() && x86.engine.is_none());
        assert!(hipe.cache.is_none() && hipe.engine.is_some());
        for r in [&x86, &hipe] {
            let members = metric_members(r);
            let mut expected = expected_counters(r);
            let scans = r.partitions.iter().map(|p| p.scan);
            expected.extend([
                ("cycles", r.cycles),
                ("matches", r.result.matches as u64),
                ("zonemap.regions_scanned", r.regions_scanned as u64),
                ("zonemap.regions_pruned", r.regions_pruned as u64),
                (
                    "partition.dram_bytes",
                    r.partitions.iter().map(|p| p.dram_bytes).sum(),
                ),
            ]);
            assert_counters(&members, &expected);
            let scan_cyc = Value::object()
                .with("count", r.partitions.len())
                .with("sum", scans.clone().sum::<Cycle>())
                .with("min", scans.clone().min().unwrap())
                .with("max", scans.max().unwrap());
            assert_eq!(r.metrics().get("partition.scan_cyc"), Some(&scan_cyc));
            // Nothing beyond the expected counters and the summary.
            assert_eq!(members.len(), expected.len() + 1, "{}", r.arch);
        }
    }

    #[test]
    fn skipped_report_metrics_have_no_partition_cache_or_engine_keys() {
        let r = RunReport::skipped(Arch::Hipe, 100, 4, true);
        let members = metric_members(&r);
        for (name, _) in &members {
            assert!(
                !["partition.", "cache.", "engine."]
                    .iter()
                    .any(|prefix| name.starts_with(prefix)),
                "{name}"
            );
        }
        let mut expected = expected_counters(&r);
        expected.extend([
            ("cycles", 0),
            ("matches", 0),
            ("zonemap.regions_scanned", 0),
            ("zonemap.regions_pruned", 4),
        ]);
        assert_counters(&members, &expected);
        assert_eq!(members.len(), expected.len());
    }

    #[test]
    fn all_archs_are_distinct_labels() {
        let labels: Vec<String> = Arch::ALL.iter().map(Arch::to_string).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), 4);
        assert_eq!(labels, dedup);
    }
}
