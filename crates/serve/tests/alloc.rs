//! Allocation gate for the service replay: once a run's fixed set-up
//! (profile pass, scheduler buffers) is paid, serving one more query
//! allocates nothing.
//!
//! A counting global allocator tallies every heap allocation in the
//! process. That count is a deterministic work measure, unlike wall
//! time, so the gate is exact: a run of 4,000 queries must allocate
//! exactly as often as a run of 2,000. This binary holds a single test
//! so no other test thread allocates while it counts, and the cluster
//! runs on one host worker.

use hipe::Arch;
use hipe_db::Query;
use hipe_serve::{run_service, Cluster, ClusterConfig, FaultPlan, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations (`alloc`, `alloc_zeroed`
/// and `realloc` each count one).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so `Counting` upholds exactly the contract `System` does;
// the counter is a plain statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, which is all `System` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, which is all `System` requires.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, which is all `System` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, which is all `System` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn closed(queries: usize, faults: Vec<FaultPlan>) -> ServiceConfig {
    let mix = vec![
        (Query::q6(), 1),
        (Query::quantity_below_permille(100), 2),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ];
    ServiceConfig {
        faults,
        ..ServiceConfig::closed(Arch::Hipe, queries, mix, 8)
    }
}

/// Allocations one `run_service` call makes.
fn allocations(cluster: &Cluster, cfg: &ServiceConfig) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_service(cluster, cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(report.queries, cfg.queries as u64);
    drop(report);
    after - before
}

#[test]
fn service_replay_allocates_nothing_per_query() {
    let cluster = Cluster::with_config(ClusterConfig {
        workers: 1,
        ..ClusterConfig::replicated(4096, 2018, 4, 2)
    });
    // The first run lowers the mix into the shards' shared plan
    // caches; later runs find them warm.
    let clean = run_service(&cluster, &closed(2_000, Vec::new()));
    let fault = vec![FaultPlan::new(1, 0, clean.makespan / 4)];
    for faults in [Vec::new(), fault] {
        let short = allocations(&cluster, &closed(2_000, faults.clone()));
        let long = allocations(&cluster, &closed(4_000, faults.clone()));
        assert!(short > 0, "the fixed set-up allocates");
        assert_eq!(
            long, short,
            "4,000 queries allocated {long} times, 2,000 queries {short} times \
             (faults: {faults:?})"
        );
    }
}
