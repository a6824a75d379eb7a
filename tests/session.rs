//! Integration tests of the compile → session → execute API.
//!
//! The contract under test: a warm [`hipe::Session`] executes whole
//! batches against **one** table materialization, and its reset
//! protocol makes every warm run bit- and cycle-identical to a cold
//! [`hipe::System::run`] — so batches are deterministic and
//! independent of execution order.

use hipe::{Arch, RunReport, System, SystemConfig, TableShape};
use hipe_db::{CmpOp, Column, ColumnPredicate, Query};

const ROWS: usize = 8192;
const SEED: u64 = 2024;

/// Queries exercising aggregate + multi-predicate, single-predicate,
/// empty and full scans.
fn workload() -> Vec<Query> {
    vec![
        Query::q6(),
        Query::quantity_below_permille(30),
        Query::quantity_below_permille(500),
        Query::quantity_below_permille(0),
        Query::quantity_below_permille(1000),
    ]
}

/// Full-fidelity comparison of two reports (results, timing, phase
/// breakdown, stats and energy).
fn assert_same_report(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.arch, b.arch, "{what}: arch differs");
    assert_eq!(a.result, b.result, "{what}: scan result differs");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles differ");
    assert_eq!(a.phases, b.phases, "{what}: phase breakdown differs");
    assert_eq!(a.partitions, b.partitions, "{what}: partitions differ");
    assert_eq!(a.hmc, b.hmc, "{what}: cube stats differ");
    assert_eq!(a.core, b.core, "{what}: core stats differ");
    assert_eq!(a.cache, b.cache, "{what}: cache stats differ");
    assert_eq!(a.engine, b.engine, "{what}: engine stats differ");
    assert_eq!(
        a.energy.total_pj(),
        b.energy.total_pj(),
        "{what}: energy differs"
    );
}

#[test]
fn warm_batches_match_cold_runs_on_every_arch() {
    let sys = System::new(ROWS, SEED);
    let queries = workload();
    let mut session = sys.session();
    for arch in Arch::ALL {
        let warm = session.run_all(arch, &queries);
        for (q, w) in queries.iter().zip(&warm) {
            let cold = sys.run(arch, q);
            assert_same_report(w, &cold, &format!("{arch} on [{q}]"));
        }
    }
}

#[test]
fn a_batch_materializes_the_table_exactly_once() {
    let sys = System::new(ROWS, SEED);
    let mut session = sys.session();
    assert_eq!(sys.materializations(), 1);
    for arch in Arch::ALL {
        session.run_all(arch, &workload());
    }
    assert_eq!(
        sys.materializations(),
        1,
        "a warm batch re-materialized the table image"
    );
}

#[test]
fn compare_shares_one_materialization_with_unchanged_reports() {
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let (base, hipe) = sys.compare(&q);
    assert_eq!(sys.materializations(), 1, "compare re-materialized");
    // The shared-session reports equal dedicated cold runs.
    assert_same_report(&base, &sys.run(Arch::HostX86, &q), "compare/x86");
    assert_same_report(&hipe, &sys.run(Arch::Hipe, &q), "compare/HIPE");
}

#[test]
fn repeated_batches_are_deterministic() {
    // Property: running the same batch twice on the same session (and
    // on a fresh session) yields identical reports, measurement for
    // measurement.
    let sys = System::new(ROWS, SEED);
    let queries = workload();
    let mut session = sys.session();
    let first = session.run_all(Arch::Hipe, &queries);
    let second = session.run_all(Arch::Hipe, &queries);
    let fresh = sys.session().run_all(Arch::Hipe, &queries);
    for ((a, b), c) in first.iter().zip(&second).zip(&fresh) {
        assert_same_report(a, b, "same session, repeated batch");
        assert_same_report(a, c, "fresh session, same batch");
    }
}

#[test]
fn batch_reports_are_independent_of_execution_order() {
    // Property: the report of a query does not depend on what ran
    // before it in the batch (the reset protocol leaves no residue).
    let sys = System::new(ROWS, SEED);
    let mut forward: Vec<Query> = workload();
    let mut session = sys.session();
    let fwd_reports = session.run_all(Arch::Hipe, &forward);
    forward.reverse();
    let rev_reports = session.run_all(Arch::Hipe, &forward);
    for (f, r) in fwd_reports.iter().zip(rev_reports.iter().rev()) {
        assert_same_report(f, r, "forward vs reversed batch");
    }
    // Interleaving architectures leaves no residue either.
    let q = Query::q6();
    let alone = sys.session().run(Arch::Hive, &q);
    let mut mixed = sys.session();
    mixed.run(Arch::HostX86, &q);
    mixed.run(Arch::HmcIsa, &q);
    let after_others = mixed.run(Arch::Hive, &q);
    assert_same_report(&alone, &after_others, "HIVE after other archs");
}

#[test]
fn batch_loops_compile_once_per_distinct_query_per_arch() {
    // The session plan cache: repeated executions of the same query
    // on the same arch compile once, not per run.
    let sys = System::new(ROWS, SEED);
    let queries = workload();
    let mut session = sys.session();
    assert_eq!(sys.compilations(), 0);
    let first = session.run_all(Arch::Hipe, &queries);
    assert_eq!(sys.compilations(), queries.len() as u64);
    for _ in 0..3 {
        let again = session.run_all(Arch::Hipe, &queries);
        for (a, b) in first.iter().zip(&again) {
            assert_same_report(a, b, "cached-plan rerun");
        }
    }
    assert_eq!(
        sys.compilations(),
        queries.len() as u64,
        "a warm batch loop re-lowered a cached query"
    );
    // A different arch is a different plan: one more compile each.
    session.run_all(Arch::Hive, &queries);
    assert_eq!(sys.compilations(), 2 * queries.len() as u64);
    // A fresh session has a cold cache.
    sys.session().run(Arch::Hipe, &Query::q6());
    assert_eq!(sys.compilations(), 2 * queries.len() as u64 + 1);
}

#[test]
fn plans_compile_once_and_rerun() {
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let backend = System::backend(Arch::Hipe);
    let plan = backend.compile(&sys, &q).expect("Q6 compiles");
    assert_eq!(plan.arch(), Arch::Hipe);
    assert_eq!(plan.rows(), ROWS);
    let mut session = sys.session();
    let a = session.run_plan(&plan);
    let b = session.run_plan(&plan);
    assert_same_report(&a, &b, "re-executed plan");
    assert_same_report(&a, &sys.run(Arch::Hipe, &q), "plan vs one-shot run");
}

#[test]
#[should_panic(expected = "different system")]
fn foreign_plans_are_rejected() {
    let small = System::new(64, 1);
    let big = System::new(128, 1);
    let plan = System::backend(Arch::Hipe)
        .compile(&small, &Query::q6())
        .expect("Q6 compiles");
    let _ = big.session().run_plan(&plan);
}

/// A shipdate-clustered system of `rows` tuples over `partitions`
/// vault groups: the shape under which zone maps prune, with pruning
/// on or off.
fn clustered(rows: usize, seed: u64, partitions: usize, pruning: bool) -> System {
    let mut cfg = SystemConfig::paper(rows, seed);
    cfg.partitions = partitions;
    cfg.shape = TableShape::ClusteredShipdate { total_rows: rows };
    cfg.pruning = pruning;
    System::with_config(cfg)
}

#[test]
fn warm_pruned_runs_leave_no_residue_for_any_following_machine() {
    // A pruned run writes only its live regions' outputs and the reset
    // zeroes only the last plan's footprint. Nested (10 and 30
    // permille) and disjoint windows plus a Q6 plan compiled without
    // pruning (it scans, and HIPE reads back, every region) run on one
    // pruning session so that every (machine, query) point directly
    // follows every other; each warm report must equal a cold run.
    for partitions in [1, 4] {
        let sys = clustered(2048, SEED, partitions, true);
        let unpruned = clustered(2048, SEED, partitions, false);
        let disjoint = Query::new(
            vec![ColumnPredicate::new(
                Column::Shipdate,
                CmpOp::Range(2000, 2100),
            )],
            true,
        );
        let queries = [
            Query::shipdate_window_permille(10),
            Query::shipdate_window_permille(30).with_aggregate(),
            disjoint,
        ];
        let mut plans = Vec::new();
        for arch in Arch::ALL {
            let backend = System::backend(arch);
            for q in &queries {
                let plan = backend.compile(&sys, q).expect("windows compile");
                assert!(plan.prune_stats().pruned > 0, "{arch} [{q}] pruned nothing");
                plans.push(plan);
            }
            let q6 = backend
                .compile(&unpruned, &Query::q6())
                .expect("Q6 compiles");
            assert_eq!(q6.prune_stats().pruned, 0);
            plans.push(q6);
        }
        let cold: Vec<RunReport> = plans.iter().map(|p| sys.session().run_plan(p)).collect();
        let mut session = sys.session();
        for (i, first) in plans.iter().enumerate() {
            for (j, second) in plans.iter().enumerate() {
                if i == j {
                    continue;
                }
                let what = |p: &hipe::ExecutablePlan| format!("{} [{}]", p.arch(), p.query());
                let a = session.run_plan(first);
                let b = session.run_plan(second);
                assert_same_report(&a, &cold[i], &what(first));
                assert_same_report(
                    &b,
                    &cold[j],
                    &format!("{} after {}", what(second), what(first)),
                );
            }
        }
        // The public reset zeroes the whole mask and aggregate area.
        session.reset();
        let base = sys.mask_base();
        let area = session
            .hmc()
            .read_bytes(base, session.hmc().image_len() - base as usize);
        assert!(area.iter().all(|&b| b == 0), "output area not zeroed");
    }
}

#[test]
#[should_panic(expected = "different table (seed, row offset, shape)")]
fn pruned_plans_from_a_different_table_are_rejected() {
    let mine = clustered(2048, 1, 1, true);
    let other = clustered(2048, 2, 1, true);
    let plan = System::backend(Arch::Hipe)
        .compile(&mine, &Query::shipdate_window_permille(30))
        .expect("window compiles");
    assert!(plan.prune_stats().pruned > 0);
    let _ = other.session().run_plan(&plan);
}
