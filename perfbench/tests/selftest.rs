//! Self-tests of the benchmark: tiny runs of every workload.

use perfbench::{layer_metric_names, result_json, run, Config, Kind, Outcome, END_TO_END};
use std::time::Instant;

fn tiny(kind: Kind, seed: u64, trace: bool) -> Outcome {
    let cfg = Config {
        kind,
        seed,
        seconds: 0.0,
        trace,
        tiny: true,
    };
    run(&cfg, Instant::now())
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_clean(kind: Kind, o: &Outcome) {
    assert!(o.correct, "{kind:?}: a check failed");
    assert_eq!(o.failed, 0, "{kind:?}: failed ops");
    assert!(o.attempted >= 1);
    for m in o.metrics.iter().chain(&o.extra) {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    let line = result_json(o);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn every_workload_emits_every_end_to_end_metric_on_two_seeds() {
    for kind in Kind::ALL {
        for seed in [1, 7] {
            let o = tiny(kind, seed, false);
            assert_clean(kind, &o);
            let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{kind:?} seed {seed}");
            for (m, (_, unit)) in o.metrics.iter().zip(END_TO_END) {
                assert_eq!(m.unit, unit, "{}", m.name);
                assert!(m.value > 0.0, "{kind:?}: {} reads 0", m.name);
            }
            let p90 = &o.metrics[1];
            assert!(p90.samples.expect("p90 carries its sample count") >= 100);
            assert_eq!(o.extra[0].name, "op_ms_p10");
            assert_eq!(o.extra[1].name, "op_ms_p50");
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_counts_repeat() {
    let want = layer_metric_names();
    for kind in Kind::ALL {
        let a = tiny(kind, 3, true);
        let b = tiny(kind, 3, true);
        for o in [&a, &b] {
            assert_clean(kind, o);
            let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, want_names, "{kind:?}");
            let json = o
                .trace_json
                .as_ref()
                .expect("a traced run renders its spans");
            assert!(json.contains("\"traceEvents\""));
            if kind == Kind::Serve {
                for span in ["serve.run_service.clean", "serve.run_service.fault"] {
                    assert!(json.contains(span), "no {span} span in the trace");
                }
            }
        }
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if matches!(x.unit, "count" | "B") {
                assert_eq!(
                    x.value, y.value,
                    "{kind:?}: {} differs between runs",
                    x.name
                );
            }
        }
        assert_eq!(a.extra, b.extra, "{kind:?}: model outputs differ");
        assert_eq!(
            a.sim_digest, b.sim_digest,
            "{kind:?}: simulated statistics differ"
        );
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let a = tiny(Kind::Scan, 1, false);
    let b = tiny(Kind::Scan, 2, false);
    assert_ne!(a.sim_digest, b.sim_digest);
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let listed = |name: &str, unit: &str| {
        json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for (name, unit) in END_TO_END {
        assert!(
            listed(name, unit),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let layers = layer_metric_names();
    for (name, unit) in &layers {
        assert!(
            listed(name, unit),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let entries = json.matches("\"name\": ").count();
    assert_eq!(
        entries,
        Kind::ALL.len() + END_TO_END.len() + layers.len(),
        "BENCHMARK.json lists metrics or workloads the benchmark does not emit"
    );
}
