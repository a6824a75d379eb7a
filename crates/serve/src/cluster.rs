//! The sharding layer: one query, N cube shards, combined answers.

use hipe::{Arch, PlanCache, RunReport, Session, System, SystemConfig, TableShape};
use hipe_db::scan::ScanResult;
use hipe_db::{Bitmask, Query};
use hipe_sim::{Cycle, WorkerPool};
use std::ops::Range;
use std::sync::Arc;

// Compile-time guard for host-parallel co-simulation: shard cubes and
// their warm sessions cross worker-thread boundaries in the scatter
// phase, so the whole cluster stack must stay `Send`.
const _: () = {
    fn _assert_send<T: Send>() {}
    fn _guards() {
        _assert_send::<Cluster>();
        _assert_send::<ClusterSession<'_>>();
        _assert_send::<ReplicaSet>();
    }
};

/// Host-side cycles to merge one extra shard's answer into the
/// gathered result (mask stitch + partial-sum add, already resident in
/// the host's cache after the per-shard runs). A single-shard cluster
/// merges nothing, so its cycle count equals the plain [`System`]'s.
pub const MERGE_CYCLES_PER_SHARD: Cycle = 64;

/// Configuration of a sharded cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total tuples across all shards.
    pub rows: usize,
    /// Generation seed of the (logical) monolithic table.
    pub seed: u64,
    /// Number of cube shards the row space is split over.
    pub shards: usize,
    /// Vault-group engines inside each shard's cube (the PR 4 knob,
    /// applied per shard).
    pub partitions: usize,
    /// Cubes backing each shard's row range. Every replica of a shard
    /// is built from the same rows and the same seed (via
    /// `LineitemTable::generate_range`), so replicas are bit-identical
    /// *by construction* — any replica can answer for its shard.
    pub replicas: usize,
    /// Generate the logical table with shipdate clustered by row
    /// ([`TableShape::ClusteredShipdate`] over the *cluster's* total
    /// rows, so shard tables stay exact slices of the monolithic
    /// clustered table). This is the shape under which shard zone-map
    /// rollups become disjoint and data skipping has teeth.
    pub clustered: bool,
    /// Compile every shard's scans against its zone map and let the
    /// scatter path skip shards whose table-level rollup proves no
    /// region can match ([`ClusterSession::run`] synthesizes the exact
    /// all-zero answer for them). Off by default — the historical
    /// figures measure full scatter.
    pub pruning: bool,
    /// Host worker threads driving the scatter phase (and cluster
    /// construction). Shard runs are independent between scatter and
    /// gather, and the gather merges in shard order, so every width
    /// produces bit-identical results and cycle counts; only host
    /// wall-clock changes. Defaults to the `HIPE_WORKERS` environment
    /// variable (1, i.e. fully serial, when unset) — and `workers: 1`
    /// runs exactly the historical single-threaded code path.
    pub workers: usize,
}

impl ClusterConfig {
    /// A paper-configured cluster: `shards` single-engine cubes, one
    /// replica each.
    pub fn new(rows: usize, seed: u64, shards: usize) -> Self {
        ClusterConfig {
            rows,
            seed,
            shards,
            partitions: 1,
            replicas: 1,
            clustered: false,
            pruning: false,
            workers: hipe_sim::env_workers(),
        }
    }

    /// A replicated cluster: `shards` row ranges, each backed by
    /// `replicas` bit-identical cubes.
    pub fn replicated(rows: usize, seed: u64, shards: usize, replicas: usize) -> Self {
        ClusterConfig {
            replicas,
            ..ClusterConfig::new(rows, seed, shards)
        }
    }

    /// A shipdate-clustered cluster with zone-map pruning and shard
    /// skipping enabled — the data-skipping experiment configuration.
    pub fn skipping(rows: usize, seed: u64, shards: usize) -> Self {
        ClusterConfig {
            clustered: true,
            pruning: true,
            ..ClusterConfig::new(rows, seed, shards)
        }
    }
}

/// The `R` bit-identical cubes backing one shard's row range.
///
/// Replicas share the range's rows and generation seed, so every
/// replica holds byte-identical column data and answers any query over
/// the range identically — which is what makes replica routing and
/// fail-stop failover answer-preserving (the service's profile pass
/// asserts it on every run).
#[derive(Debug)]
pub struct ReplicaSet {
    rows: Range<usize>,
    replicas: Vec<System>,
    /// One compiled-plan cache for the whole set: replicas are
    /// bit-identical, so their compiled plans are too, and every
    /// replica session opened over this set shares it
    /// ([`System::session_with_plans`]) — each `(arch, query)` pair is
    /// lowered once per shard, not once per replica.
    plans: Arc<PlanCache>,
}

impl ReplicaSet {
    /// Global row range this set serves.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// The compiled-plan cache shared by this set's replica sessions.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// Number of replicas backing the range.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always `false`: a set holds at least one replica by
    /// construction.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Replica `r`'s [`System`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn replica(&self, r: usize) -> &System {
        assert!(
            r < self.replicas.len(),
            "replica {r} out of range ({} replicas)",
            self.replicas.len()
        );
        &self.replicas[r]
    }

    /// The primary (replica 0) — the cube the unrouted scatter-gather
    /// path reads.
    pub fn primary(&self) -> &System {
        &self.replicas[0]
    }
}

/// N [`System`] shards over one logical lineitem table.
///
/// The table's row space `0..rows` is split into `shards` contiguous,
/// near-equal ranges; shard `s` owns its range as a fully independent
/// [`System`] — its own generated sub-table (bit-identical to the
/// monolithic table's rows for that range, via
/// `LineitemTable::generate_range`), its own `DsmLayout`, its own cube
/// image, optionally partitioned internally across vault-group
/// engines.
///
/// Queries *scatter-gather*: every shard runs the same compiled query
/// over its rows, and the cluster combines the answers — mask
/// concatenation for selects, partial-sum addition for aggregates —
/// so a cluster result is bit-identical to running the query on one
/// monolithic [`System`] of the same `rows` and `seed` (the
/// integration tests assert it on all four architectures).
///
/// # Example
///
/// ```
/// use hipe::{Arch, System};
/// use hipe_db::Query;
/// use hipe_serve::Cluster;
///
/// let cluster = Cluster::new(4096, 7, 4);
/// let report = cluster.run(Arch::Hipe, &Query::q6());
/// let mono = System::new(4096, 7).run(Arch::Hipe, &Query::q6());
/// assert_eq!(report.result, mono.result);
/// ```
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    sets: Vec<ReplicaSet>,
    bounds: Vec<Range<usize>>,
    pool: WorkerPool,
}

impl Cluster {
    /// Creates a paper-configured cluster of `shards` single-engine
    /// cubes over `rows` total tuples.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `rows` (every shard needs
    /// at least one tuple).
    pub fn new(rows: usize, seed: u64, shards: usize) -> Self {
        Cluster::with_config(ClusterConfig::new(rows, seed, shards))
    }

    /// Creates a replicated cluster of `shards` row ranges, each
    /// backed by `replicas` bit-identical single-engine cubes.
    ///
    /// # Panics
    ///
    /// As [`with_config`](Self::with_config).
    pub fn replicated(rows: usize, seed: u64, shards: usize, replicas: usize) -> Self {
        Cluster::with_config(ClusterConfig::replicated(rows, seed, shards, replicas))
    }

    /// Creates a cluster with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is zero or exceeds `cfg.rows`, if
    /// `cfg.replicas` or `cfg.workers` is zero, or if `cfg.partitions`
    /// does not divide the vault sweep.
    pub fn with_config(cfg: ClusterConfig) -> Self {
        assert!(cfg.shards > 0, "a cluster needs at least one shard");
        assert!(
            cfg.shards <= cfg.rows,
            "{} shards over {} rows leaves empty shards",
            cfg.shards,
            cfg.rows
        );
        assert!(cfg.replicas > 0, "a shard needs at least one replica");
        // Balanced contiguous split: the first `rows % shards` shards
        // take one extra tuple, so ranges differ in size by at most 1.
        let base = cfg.rows / cfg.shards;
        let extra = cfg.rows % cfg.shards;
        let mut bounds = Vec::with_capacity(cfg.shards);
        let mut start = 0;
        for s in 0..cfg.shards {
            let len = base + usize::from(s < extra);
            bounds.push(start..start + len);
            start += len;
        }
        debug_assert_eq!(start, cfg.rows);
        // Shard shapes reference the *cluster's* row count, so every
        // shard table is an exact slice of the monolithic table of the
        // same shape (the db crate's slicing tests pin this).
        let shape = if cfg.clustered {
            TableShape::ClusteredShipdate {
                total_rows: cfg.rows,
            }
        } else {
            TableShape::Uniform
        };
        // Shard cubes (and their replicas) are independent, so
        // construction fans out over the pool; the gather is in shard
        // order, so the cluster is identical at every worker count.
        let pool = WorkerPool::new(cfg.workers);
        let sets = pool.run(bounds.clone(), |_, range| ReplicaSet {
            rows: range.clone(),
            replicas: (0..cfg.replicas)
                .map(|_| {
                    System::with_config(SystemConfig {
                        rows: range.len(),
                        row_offset: range.start,
                        partitions: cfg.partitions,
                        shape,
                        pruning: cfg.pruning,
                        ..SystemConfig::paper(range.len(), cfg.seed)
                    })
                })
                .collect(),
            plans: Arc::new(PlanCache::new()),
        });
        Cluster {
            cfg,
            sets,
            bounds,
            pool,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Total tuples across all shards.
    pub fn rows(&self) -> usize {
        self.cfg.rows
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sets.len()
    }

    /// Replicas backing each shard.
    pub fn replicas(&self) -> usize {
        self.cfg.replicas
    }

    /// Shard `s`'s primary [`System`] (replica 0).
    pub fn shard(&self, s: usize) -> &System {
        self.sets[s].primary()
    }

    /// Shard `s`'s [`ReplicaSet`].
    pub fn replica_set(&self, s: usize) -> &ReplicaSet {
        &self.sets[s]
    }

    /// Replica `r` of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn replica(&self, s: usize, r: usize) -> &System {
        assert!(
            s < self.sets.len(),
            "shard {s} out of range ({} shards)",
            self.sets.len()
        );
        self.sets[s].replica(r)
    }

    /// Global row range owned by shard `s`.
    pub fn shard_rows(&self, s: usize) -> Range<usize> {
        self.bounds[s].clone()
    }

    /// Host cycles the gather step spends merging shard answers
    /// (zero for a single shard). Replication does not change the
    /// merge: however many replicas back a shard, exactly one answers
    /// per query.
    pub fn merge_cycles(&self) -> Cycle {
        (self.sets.len() as Cycle - 1) * MERGE_CYCLES_PER_SHARD
    }

    /// Total table materializations across all shards and replicas.
    pub fn materializations(&self) -> u64 {
        self.systems().map(System::materializations).sum()
    }

    /// Total query compilations across all shards and replicas.
    pub fn compilations(&self) -> u64 {
        self.systems().map(System::compilations).sum()
    }

    /// Every cube in the cluster, shard-major.
    fn systems(&self) -> impl Iterator<Item = &System> {
        self.sets.iter().flat_map(|set| set.replicas.iter())
    }

    /// The host worker pool driving this cluster's fan-out phases.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Opens a warm cluster session: one materialized cube image per
    /// replica of every shard, plan caches warm across the whole
    /// batch. Replica sessions of a shard share the shard's
    /// [`PlanCache`], so each `(arch, query)` pair is lowered once per
    /// shard no matter how many replicas serve it. Image
    /// materialization fans out over the worker pool — each replica's
    /// image is built independently, so the warm state is identical at
    /// every worker count.
    pub fn session(&self) -> ClusterSession<'_> {
        ClusterSession {
            cluster: self,
            sessions: self.pool.run(self.sets.iter().collect(), |_, set| {
                set.replicas
                    .iter()
                    .map(|sys| sys.session_with_plans(Arc::clone(&set.plans)))
                    .collect()
            }),
        }
    }

    /// One-shot scatter-gather run (cold: materializes every shard).
    pub fn run(&self, arch: Arch, query: &Query) -> ClusterReport {
        self.session().run(arch, query)
    }
}

/// A warm execution context over every shard of a [`Cluster`].
///
/// Like [`Session`] but N-way: creating it materializes each shard's
/// cube image once; every run scatter-gathers through the warm images,
/// and each shard session's plan cache compiles a given `(arch,
/// query)` exactly once for the whole batch.
#[derive(Debug)]
pub struct ClusterSession<'a> {
    cluster: &'a Cluster,
    /// Warm sessions, `sessions[shard][replica]`.
    sessions: Vec<Vec<Session<'a>>>,
}

impl<'a> ClusterSession<'a> {
    /// The cluster this session executes against.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Scatters `query` to every shard's primary replica and gathers
    /// the combined [`ClusterReport`] — the unrouted scatter-gather
    /// path, unchanged by replication.
    ///
    /// With [`ClusterConfig::pruning`] set, a shard whose zone-map
    /// table rollup proves no region can match is never dispatched at
    /// all: its slot in the gather is the synthesized exact all-zero
    /// answer ([`RunReport::skipped`]), it costs zero cycles, and the
    /// host merge only pays for shards that actually answered. The
    /// combined result is bit-identical either way — skipping is
    /// sound because the rollup covers every row of the shard.
    pub fn run(&mut self, arch: Arch, query: &Query) -> ClusterReport {
        let primaries = vec![0; self.sessions.len()];
        self.run_routed(arch, query, &primaries)
    }

    /// Scatters `query` to exactly **one** replica of each shard —
    /// `replica_of_shard[s]` names the replica answering for shard `s`
    /// — and gathers the combined [`ClusterReport`]. Because replicas
    /// are bit-identical by construction, the result equals
    /// [`run`](Self::run) for every choice vector (the routing
    /// equivalence tests assert it across architectures). Zone-map
    /// shard skipping applies exactly as in [`run`](Self::run) —
    /// replicas share their shard's rollup, so the skip decision is
    /// routing-independent.
    ///
    /// # Panics
    ///
    /// Panics if `replica_of_shard` is not one entry per shard or
    /// names a replica out of range.
    pub fn run_routed(
        &mut self,
        arch: Arch,
        query: &Query,
        replica_of_shard: &[usize],
    ) -> ClusterReport {
        assert_eq!(
            replica_of_shard.len(),
            self.sessions.len(),
            "routing vector must name one replica per shard"
        );
        // Scatter: the chosen replica sessions are disjoint `&mut`s, so
        // the shard runs fan out over the cluster's worker pool. Each
        // shard's simulated clock is its own — parallelism moves host
        // wall-clock only — and the pool gathers results in shard
        // order (never arrival order), so the merge below sees exactly
        // the serial sequence and the combined report is bit-identical
        // at every worker count.
        let chosen: Vec<&mut Session<'_>> = self
            .sessions
            .iter_mut()
            .zip(replica_of_shard)
            .enumerate()
            .map(|(s, (replicas, &r))| {
                assert!(
                    r < replicas.len(),
                    "replica {r} out of range (shard {s} has {} replicas)",
                    replicas.len()
                );
                &mut replicas[r]
            })
            .collect();
        let outcomes: Vec<(RunReport, bool)> = self.cluster.pool.run(chosen, |_, session| {
            let sys = session.system();
            let skip = sys.prune().is_some_and(|zm| !zm.table_may_match(query));
            let report = if skip {
                RunReport::skipped(
                    arch,
                    sys.config().rows,
                    sys.layout().regions(),
                    query.aggregates(),
                )
            } else {
                session.run(arch, query)
            };
            (report, skip)
        });
        let (shard_reports, skipped) = outcomes.into_iter().unzip();
        combine(self.cluster, arch, query, shard_reports, skipped)
    }
}

/// Gathers shard answers into the cluster-level result. `skipped[s]`
/// marks shards the scatter path never dispatched (zone-map shard
/// skipping): their synthesized all-zero reports still concatenate
/// into the mask, but the host merge only pays for answering shards.
fn combine(
    cluster: &Cluster,
    arch: Arch,
    query: &Query,
    shard_reports: Vec<RunReport>,
    skipped: Vec<bool>,
) -> ClusterReport {
    let mut bitmask = Bitmask::zeros(cluster.rows());
    let mut matches = 0;
    let mut aggregate: i128 = 0;
    for (report, range) in shard_reports.iter().zip(&cluster.bounds) {
        debug_assert_eq!(report.result.bitmask.len(), range.len());
        for i in report.result.bitmask.iter_ones() {
            bitmask.set(range.start + i);
        }
        matches += report.result.matches;
        aggregate += report.result.aggregate.unwrap_or(0);
    }
    // The shards run concurrently (one host thread driving N cubes
    // over independent link sets), so the scan critical path is the
    // slowest shard; the host then merges the answering shards'
    // results serially (a skipped shard's answer is known to be zero
    // without a merge step — its mask range stays the reset zeros).
    let answering = skipped.iter().filter(|&&s| !s).count();
    let merge = (answering.max(1) as Cycle - 1) * MERGE_CYCLES_PER_SHARD;
    let cycles = shard_reports
        .iter()
        .map(|r| r.cycles)
        .max()
        .expect("clusters have at least one shard")
        + merge;
    ClusterReport {
        arch,
        result: ScanResult {
            bitmask,
            matches,
            aggregate: query.aggregates().then_some(aggregate),
        },
        cycles,
        skipped,
        shard_reports,
    }
}

/// Outcome of one scatter-gather query execution on a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Architecture every shard ran on.
    pub arch: Arch,
    /// Combined functional result over the whole logical table (mask
    /// concatenation, partial-sum addition).
    pub result: ScanResult,
    /// End-to-end cycles: the slowest shard plus the host-side merge
    /// of answering shards (zero merge for a single answering shard,
    /// so a one-shard cluster reports exactly the plain [`System`]
    /// cycles).
    pub cycles: Cycle,
    /// Per shard: `true` if the scatter path skipped it because its
    /// zone-map rollup proved no region could match (its entry in
    /// [`shard_reports`](Self::shard_reports) is the synthesized
    /// [`RunReport::skipped`] zero report). All `false` without
    /// [`ClusterConfig::pruning`].
    pub skipped: Vec<bool>,
    /// The per-shard reports, in shard order.
    pub shard_reports: Vec<RunReport>,
}

impl ClusterReport {
    /// How many shards the scatter path skipped outright.
    pub fn shards_skipped(&self) -> usize {
        self.skipped.iter().filter(|&&s| s).count()
    }

    /// Fraction of tuples selected across the whole cluster.
    pub fn selectivity(&self) -> f64 {
        if self.result.bitmask.is_empty() {
            0.0
        } else {
            self.result.matches as f64 / self.result.bitmask.len() as f64
        }
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} x{} shards: {} cyc, {} / {} tuples ({:.2} %) [shard cyc",
            self.arch,
            self.shard_reports.len(),
            self.cycles,
            self.result.matches,
            self.result.bitmask.len(),
            100.0 * self.selectivity(),
        )?;
        for (i, r) in self.shard_reports.iter().enumerate() {
            let sep = if i == 0 { ' ' } else { '/' };
            write!(f, "{sep}s{i}:{}", r.cycles)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_contiguous_split() {
        let c = Cluster::new(10, 1, 3);
        assert_eq!(c.shard_rows(0), 0..4);
        assert_eq!(c.shard_rows(1), 4..7);
        assert_eq!(c.shard_rows(2), 7..10);
        assert_eq!(c.rows(), 10);
        assert_eq!(c.shards(), 3);
    }

    #[test]
    fn shard_tables_match_the_monolithic_table() {
        use hipe_db::{Column, LineitemTable};
        let c = Cluster::new(200, 9, 3);
        let mono = LineitemTable::generate(200, 9);
        for s in 0..3 {
            let range = c.shard_rows(s);
            for col in Column::ALL {
                assert_eq!(
                    c.shard(s).table().column(col),
                    &mono.column(col)[range.clone()],
                    "shard {s} {col}"
                );
            }
        }
    }

    #[test]
    fn merge_cycles_zero_for_single_shard() {
        assert_eq!(Cluster::new(100, 1, 1).merge_cycles(), 0);
        assert_eq!(
            Cluster::new(100, 1, 4).merge_cycles(),
            3 * MERGE_CYCLES_PER_SHARD
        );
    }

    #[test]
    fn warm_session_materializes_each_shard_once() {
        let c = Cluster::new(256, 3, 2);
        let mut session = c.session();
        let q = Query::q6();
        let a = session.run(Arch::Hipe, &q);
        let b = session.run(Arch::Hipe, &q);
        assert_eq!(a.result, b.result);
        assert_eq!(c.materializations(), 2); // one per shard
        assert_eq!(c.compilations(), 2); // one per shard, cached on rerun
    }

    #[test]
    fn internally_partitioned_shards() {
        let cfg = ClusterConfig {
            partitions: 4,
            ..ClusterConfig::new(2048, 5, 2)
        };
        let c = Cluster::with_config(cfg);
        let report = c.run(Arch::Hipe, &Query::q6());
        let mono = System::new(2048, 5).run(Arch::Hipe, &Query::q6());
        assert_eq!(report.result, mono.result);
        assert_eq!(report.shard_reports[0].partitions.len(), 4);
    }

    #[test]
    fn replicas_are_bit_identical_by_construction() {
        use hipe_db::Column;
        let c = Cluster::replicated(300, 11, 2, 3);
        assert_eq!(c.replicas(), 3);
        for s in 0..2 {
            let set = c.replica_set(s);
            assert_eq!(set.rows(), c.shard_rows(s));
            assert_eq!(set.len(), 3);
            assert!(!set.is_empty());
            for r in 1..3 {
                for col in Column::ALL {
                    assert_eq!(
                        set.replica(r).table().column(col),
                        set.primary().table().column(col),
                        "shard {s} replica {r} {col}"
                    );
                }
            }
        }
    }

    #[test]
    fn replicated_cluster_compiles_once_per_shard_and_query() {
        // 4 shards x 2 replicas: every (arch, query) pair must be
        // lowered exactly once per shard — the replicas of a shard
        // share one plan cache (replicas are bit-identical, so plans
        // are too). Before the shared cache this counted once per
        // *replica*, i.e. 2x.
        let c = Cluster::replicated(1024, 7, 4, 2);
        let mut session = c.session();
        let queries = [Query::q6(), Query::quantity_below_permille(200)];
        let archs = [Arch::Hipe, Arch::HostX86];
        for &arch in &archs {
            for q in &queries {
                for r in 0..c.replicas() {
                    let routed = session.run_routed(arch, q, &vec![r; c.shards()]);
                    assert_eq!(routed.result.bitmask.len(), 1024);
                }
            }
        }
        // 4 shards x 2 archs x 2 queries = 16 lowerings, replicas free.
        assert_eq!(c.compilations(), 16);
        for s in 0..c.shards() {
            assert_eq!(c.replica_set(s).plan_cache().len(), 4);
            assert!(!c.replica_set(s).plan_cache().is_empty());
        }
        // A rerun of the whole mix stays fully cached.
        for &arch in &archs {
            for q in &queries {
                let _ = session.run(arch, q);
            }
        }
        assert_eq!(c.compilations(), 16);
    }

    #[test]
    fn routed_single_replica_runs_equal_the_primary_path() {
        let c = Cluster::replicated(640, 13, 2, 2);
        let mut session = c.session();
        let q = Query::q6();
        let primary = session.run(Arch::Hipe, &q);
        for picks in [[0, 0], [1, 1], [0, 1], [1, 0]] {
            let routed = session.run_routed(Arch::Hipe, &q, &picks);
            assert_eq!(routed.result, primary.result, "picks {picks:?}");
            assert_eq!(routed.cycles, primary.cycles, "picks {picks:?}");
        }
        // Session opened every replica's image once; the sweep above
        // stayed warm.
        assert_eq!(c.materializations(), 4);
    }

    #[test]
    fn single_replica_config_is_the_old_cluster() {
        let a = Cluster::new(256, 3, 2);
        let b = Cluster::with_config(ClusterConfig::replicated(256, 3, 2, 1));
        assert_eq!(a.replicas(), 1);
        let ra = a.run(Arch::Hipe, &Query::q6());
        let rb = b.run(Arch::Hipe, &Query::q6());
        assert_eq!(ra.result, rb.result);
        assert_eq!(ra.cycles, rb.cycles);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let _ = Cluster::replicated(64, 0, 2, 0);
    }

    #[test]
    #[should_panic(expected = "replica 2 out of range")]
    fn replica_index_out_of_range_panics() {
        let c = Cluster::replicated(64, 0, 2, 2);
        let _ = c.replica(0, 2);
    }

    #[test]
    #[should_panic(expected = "one replica per shard")]
    fn routing_vector_length_is_checked() {
        let c = Cluster::replicated(64, 0, 2, 2);
        let _ = c.session().run_routed(Arch::Hipe, &Query::q6(), &[0]);
    }

    #[test]
    fn skipping_cluster_matches_full_scatter_and_skips_shards() {
        // A narrow shipdate window over a clustered 4-shard cluster
        // lands in one shard's day range; the rollups of the other
        // three prove emptiness and the scatter path skips them.
        let q = Query::shipdate_window_permille(100);
        let skip = Cluster::with_config(ClusterConfig::skipping(4096, 7, 4));
        let full = Cluster::with_config(ClusterConfig {
            clustered: true,
            ..ClusterConfig::new(4096, 7, 4)
        });
        let rs = skip.run(Arch::Hipe, &q);
        let rf = full.run(Arch::Hipe, &q);
        assert_eq!(rs.result, rf.result, "skipping changed the answer");
        assert!(rs.result.matches > 0, "window should select something");
        assert!(rs.shards_skipped() >= 2, "skipped only {:?}", rs.skipped);
        assert_eq!(rf.shards_skipped(), 0);
        // Skipped shards cost nothing and are excluded from the merge.
        assert!(rs.cycles < rf.cycles);
        for (s, skipped) in rs.skipped.iter().enumerate() {
            let report = &rs.shard_reports[s];
            if *skipped {
                assert_eq!(report.cycles, 0);
                assert_eq!(report.result.matches, 0);
                assert_eq!(report.regions_scanned, 0);
                assert!(report.regions_pruned > 0);
            } else {
                assert!(report.cycles > 0);
            }
        }
    }

    #[test]
    fn skipping_is_routing_independent() {
        let cfg = ClusterConfig {
            replicas: 2,
            ..ClusterConfig::skipping(2048, 11, 2)
        };
        let c = Cluster::with_config(cfg);
        let q = Query::shipdate_window_permille(100);
        let mut session = c.session();
        let primary = session.run(Arch::Hipe, &q);
        for picks in [[0, 0], [1, 1], [0, 1], [1, 0]] {
            let routed = session.run_routed(Arch::Hipe, &q, &picks);
            assert_eq!(routed.result, primary.result, "picks {picks:?}");
            assert_eq!(routed.cycles, primary.cycles, "picks {picks:?}");
            assert_eq!(routed.skipped, primary.skipped, "picks {picks:?}");
        }
    }

    #[test]
    fn unpruned_clusters_report_no_skips() {
        let c = Cluster::new(256, 3, 2);
        let r = c.run(Arch::Hipe, &Query::q6());
        assert_eq!(r.shards_skipped(), 0);
        assert_eq!(r.skipped, vec![false, false]);
    }

    #[test]
    fn display_names_shards() {
        let c = Cluster::new(128, 2, 2);
        let s = c.run(Arch::Hipe, &Query::q6()).to_string();
        assert!(s.contains("x2 shards"), "{s}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Cluster::new(10, 0, 0);
    }

    #[test]
    #[should_panic(expected = "empty shards")]
    fn more_shards_than_rows_panics() {
        let _ = Cluster::new(3, 0, 4);
    }
}
