//! End-to-end serving acceptance: the canonical scenarios on the real
//! (quick-scale) cost table must replay byte-identically and must show
//! the two amortization wins the layer exists to demonstrate.

use afsb_serve::scenario::{default_scenarios, render_summary, run_scenarios, ScenarioRun};
use std::sync::OnceLock;

fn run_default() -> Vec<ScenarioRun> {
    run_scenarios(default_scenarios(true), true)
}

fn runs() -> &'static Vec<ScenarioRun> {
    static RUNS: OnceLock<Vec<ScenarioRun>> = OnceLock::new();
    RUNS.get_or_init(run_default)
}

fn qph(name: &str) -> f64 {
    runs()
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("scenario {name} missing"))
        .report
        .base()
        .throughput_qph
}

#[test]
fn same_seed_replays_byte_identically() {
    let again = run_default();
    assert_eq!(render_summary(runs()), render_summary(&again));
    for (a, b) in runs().iter().zip(&again) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.report.base().outcomes, b.report.base().outcomes);
        assert_eq!(
            a.obs.metrics.render_text(),
            b.obs.metrics.render_text(),
            "{}: metrics must replay byte-identically",
            a.name
        );
    }
}

#[test]
fn feature_cache_strictly_raises_throughput() {
    assert!(
        qph("cold") > qph("nocache"),
        "cold {} vs nocache {}",
        qph("cold"),
        qph("nocache")
    );
}

#[test]
fn gpu_batching_strictly_raises_throughput() {
    assert!(
        qph("warm") > qph("warm_b1"),
        "warm {} vs warm_b1 {}",
        qph("warm"),
        qph("warm_b1")
    );
}

#[test]
fn every_scenario_serves_and_reports() {
    for run in runs() {
        let r = run.report.base();
        assert!(r.served > 0, "{}: nothing served", run.name);
        assert!(r.throughput_qph.is_finite() && r.throughput_qph > 0.0);
        assert!(r.gpu_occupancy > 0.0 && r.gpu_occupancy <= 1.0);
        assert!(r.latency.is_some());
        assert!(r.makespan_s > 0.0);
        // The trace closed cleanly: one root span named "serve".
        assert!(run.obs.tracer.span_names().contains(&"serve"));
    }
    let summary = render_summary(runs());
    assert!(summary.contains("cold") && summary.contains("warm_b1"));
}
