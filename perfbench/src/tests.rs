//! Self-tests of the benchmark at tiny scale: every workload completes end
//! to end, the judges flag configurations known to be wrong, and the
//! metric names agree with `BENCHMARK.json`.

use super::*;
use rum::TechniqueConfig;

/// The standard shapes shrunk to run in a second or two each.
fn tiny() -> Shapes {
    let mut s = Shapes::standard();
    s.blast.batches = 40;
    s.probe.rules_per_switch = 40;
    s.tenants.sessions = 24;
    s
}

fn names(out: &Outcome) -> Vec<&'static str> {
    out.metrics.iter().map(|(n, _, _)| *n).collect()
}

#[test]
fn every_workload_completes_end_to_end() {
    let shapes = tiny();
    for w in [Workload::Blast, Workload::Probe, Workload::Tenants] {
        let out = measure(&shapes, w, 7, Duration::ZERO);
        assert!(out.correct(), "{w:?}: {:?}", out.failures);
        assert!(out.attempted > 0, "{w:?}");
        assert_eq!(names(&out), END_TO_END, "{w:?}");
        assert!(
            out.metrics.iter().all(|(_, v, _)| *v > 0.0),
            "{w:?}: {:?}",
            out.metrics
        );
    }
}

#[test]
fn every_workload_produces_its_layer_metrics() {
    let shapes = tiny();
    for w in [Workload::Blast, Workload::Probe, Workload::Tenants] {
        let out = traced(&shapes, w, 7, Duration::ZERO, None);
        assert!(out.correct(), "{w:?}: {:?}", out.failures);
        assert_eq!(names(&out), PER_LAYER, "{w:?}");
    }
}

/// `BarrierBaseline` with fine-grained acks confirms a rule when the switch
/// answers its barrier — early on fast_buggy, before the data plane has the
/// rule.  The ground-truth join must call those acks false.
#[test]
fn false_ack_judge_flags_barrier_baseline_on_early_reply_switches() {
    let mut cfg = tiny().probe;
    cfg.technique = TechniqueConfig::BarrierBaseline;
    let it = probe::iteration(&cfg, 3, true, false, None);
    assert!(it.failures.false_acks > 0, "{:?}", it.failures);
    assert_eq!(it.attempted, 2 * cfg.rules_per_switch as u64);
}

/// A fake switch that swallows one barrier request leaves its batch
/// unacknowledged: the checker counts the batch failed and the deadline
/// ends the iteration instead of a hang.
#[test]
fn blast_checker_flags_a_dropped_reply() {
    let mut cfg = tiny().blast;
    cfg.drop_barrier = Some((1, 5));
    cfg.deadline = Duration::from_secs(2);
    let started = Instant::now();
    let it = blast::iteration(&cfg, 3, true, false, None);
    assert!(it.failures.unreplied > 0, "{:?}", it.failures);
    assert!(it.failures.failed() > 0);
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// The names listed under `key` in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let section = &json[start..start + json[start..].find(']').expect("array closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name value").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(listed(&json, "end_to_end"), END_TO_END);
    assert_eq!(listed(&json, "per_layer"), PER_LAYER);
    assert_eq!(listed(&json, "workloads"), ["blast", "probe", "tenants"]);
}

#[test]
fn result_line_has_the_four_keys() {
    let out = Outcome {
        attempted: 3,
        metrics: vec![("setup_s", 0.5, "s")],
        ..Outcome::default()
    };
    assert_eq!(
        out.json(),
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
    );
}
