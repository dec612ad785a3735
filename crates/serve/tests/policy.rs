//! The scheduling-policy gates.
//!
//! Plain FIFO under an empty plan is pinned byte-identical to the
//! frozen seed scheduler by `tests/equivalence.rs`.
//!
//! 1. **Request conservation** — every policy in the matrix, fault-free
//!    and under the kitchen-sink fault campaign, leaves every admitted
//!    request with exactly one disposition
//!    (`ChaosReport::conserves_requests`).
//! 2. **Dominance** — at least one policy strictly beats FIFO on both
//!    queries/hour and exact p99 latency. CI runs this as a hard gate.
//! 3. **What-if validation** — the winning speculation policy's
//!    measured makespan delta sits within
//!    `POLICY_WHATIF_TOLERANCE_PP` of the causal profiler's
//!    virtual-MSA-speedup projection for the matching factor.

use afsb_serve::chaos::{chaos_scenarios, ChaosConfig};
use afsb_serve::policy::{
    policy_scenarios, run_policy_matrix, PolicyMatrixReport, POLICY_WHATIF_TOLERANCE_PP,
};
use afsb_serve::scenario::{run_scenarios, Scenario};
use std::sync::OnceLock;

fn matrix() -> &'static PolicyMatrixReport {
    static MATRIX: OnceLock<PolicyMatrixReport> = OnceLock::new();
    MATRIX.get_or_init(|| run_policy_matrix(true))
}

#[test]
fn every_policy_conserves_requests_fault_free_and_under_chaos() {
    let kitchen_sink = chaos_scenarios(true)
        .into_iter()
        .find(|s| s.name == "kitchen-sink")
        .expect("kitchen-sink campaign exists")
        .chaos;
    for (label, chaos) in [
        ("fault-free", ChaosConfig::none()),
        ("kitchen-sink", kitchen_sink),
    ] {
        let scenarios = policy_scenarios(true)
            .into_iter()
            .map(|s| Scenario {
                chaos: chaos.clone(),
                ..s
            })
            .collect();
        for run in run_scenarios(scenarios, true) {
            let report = &run.report;
            assert!(
                report.chaos.conserves_requests(),
                "{} under {label}: admitted {} != {} completed + {} degraded + {} shed + {} failed",
                run.name,
                report.chaos.admitted,
                report.chaos.completed,
                report.chaos.degraded,
                report.chaos.shed,
                report.chaos.failed,
            );
        }
    }
}

#[test]
fn at_least_one_policy_strictly_dominates_fifo() {
    let m = matrix();
    let fifo = m.fifo();
    let dominating = m.dominating();
    assert!(
        !dominating.is_empty(),
        "no policy beats fifo ({:.2} qph, p99 {:.0} s) on both axes:\n{}",
        fifo.report.chaos.base.throughput_qph,
        fifo.report.exact_percentile_s(0.99),
        afsb_serve::policy::render_policy_matrix(m)
    );
    for run in &dominating {
        assert!(run.report.chaos.base.throughput_qph > fifo.report.chaos.base.throughput_qph);
        assert!(run.report.exact_percentile_s(0.99) < fifo.report.exact_percentile_s(0.99));
    }
}

#[test]
fn winning_policy_matches_the_whatif_projection() {
    let m = matrix();
    let v = m
        .whatif
        .as_ref()
        .expect("a speculation policy dominates fifo, so the what-if check runs");
    assert!(
        v.error_pp <= POLICY_WHATIF_TOLERANCE_PP,
        "{}: predicted {:.1}% makespan reduction vs measured {:.1}% — {:.1} pp apart \
         (tolerance {:.0} pp)",
        v.winner,
        v.predicted_delta_pct,
        v.measured_delta_pct,
        v.error_pp,
        POLICY_WHATIF_TOLERANCE_PP
    );
    assert!(v.predicted_makespan_s > 0.0 && v.measured_makespan_s > 0.0);
    assert!(v.speedup > 1.0, "the degraded rung must be a speedup");
}

#[test]
fn matrix_report_renders_every_row_and_the_verdicts() {
    let text = afsb_serve::policy::render_policy_matrix(matrix());
    for scenario in policy_scenarios(true) {
        assert!(
            text.contains(&format!("[{}]", scenario.name)),
            "missing per-run block for {}:\n{text}",
            scenario.name
        );
    }
    assert!(text.contains("dominance:"), "missing dominance verdict");
    assert!(text.contains("whatif check:"), "missing what-if verdict");
}
