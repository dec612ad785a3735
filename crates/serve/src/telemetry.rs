//! The `afsysbench serve-telemetry` experiment: the canonical serving
//! scenarios re-run with the observation-only telemetry layer armed —
//! a [`TimelineSampler`](afsb_rt::TimelineSampler) on the serving
//! gauges, per-request latency attribution, and the SLO burn-rate
//! monitor — plus the `storage-brownout` chaos campaign, whose fault
//! window must drive the SLO alert through a full `burn → clear`
//! cycle.
//!
//! Telemetry never feeds back into scheduling: every number in a
//! [`ServeReport`](crate::ServeReport) other than the `timeline` and
//! `slo` fields is byte-identical to the same run without telemetry
//! (`tests/telemetry.rs` proves it). This module only *arranges* the
//! runs and renders one combined dashboard.

use crate::chaos::chaos_scenarios;
use crate::scenario::{default_scenarios, run_scenarios, ScenarioRun};

/// The chaos scenario the telemetry experiment exercises: the storage
/// brownout's stall window is long enough (relative to the SLO window)
/// that goodput burn must cross the fire threshold and later clear.
pub const TELEMETRY_CHAOS_SCENARIO: &str = "storage-brownout";

/// Everything `afsysbench serve-telemetry` runs.
pub struct TelemetryReport {
    /// The four canonical scenarios, observed.
    pub scenarios: Vec<ScenarioRun>,
    /// The storage-brownout chaos campaign, observed.
    pub brownout: ScenarioRun,
}

/// Run the canonical scenario set plus the brownout campaign, each
/// [`observed`](crate::scenario::Scenario::observed).
pub fn run_telemetry(quick: bool) -> TelemetryReport {
    let brownout = chaos_scenarios(quick)
        .into_iter()
        .find(|s| s.name == TELEMETRY_CHAOS_SCENARIO)
        .expect("storage-brownout scenario exists");
    let scenarios = default_scenarios(quick)
        .into_iter()
        .chain([brownout])
        .map(|s| s.observed(quick))
        .collect();
    let mut scenarios = run_scenarios(scenarios, quick);
    let brownout = scenarios.pop().expect("brownout ran last");
    TelemetryReport {
        scenarios,
        brownout,
    }
}

/// The combined dashboard: per scenario, the gauge timeline + sparkline
/// strip, the latency-attribution table, and the p99 waterfall; the
/// brownout block adds the SLO transition log.
pub fn render_telemetry(report: &TelemetryReport) -> String {
    let mut out = String::new();
    for run in &report.scenarios {
        out.push_str(&format!("[{}]\n", run.name));
        push_serve_block(&mut out, run.report.base());
        out.push('\n');
    }
    let run = &report.brownout;
    out.push_str(&format!("[chaos:{}]\n", run.name));
    push_serve_block(&mut out, run.report.base());
    if let Some(slo) = &run.report.base().slo {
        out.push_str(&slo.render());
    }
    out
}

/// The `--timeline` artifact block for one run: the gauge timeline,
/// the sparkline strip, and (when armed) the SLO transition log.
pub fn render_timeline_block(name: &str, report: &crate::server::ServeReport) -> String {
    let mut out = String::new();
    if let Some(tl) = &report.timeline {
        out.push_str(&format!("[{name}]\n"));
        out.push_str(&tl.render());
        out.push_str(&tl.render_sparklines());
        if let Some(slo) = &report.slo {
            out.push_str(&slo.render());
        }
        out.push('\n');
    }
    out
}

fn push_serve_block(out: &mut String, report: &crate::server::ServeReport) {
    if let Some(tl) = &report.timeline {
        out.push_str(&tl.render());
        out.push_str(&tl.render_sparklines());
    }
    out.push_str(&report.render_attribution());
    out.push_str(&report.render_p99_waterfall());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_runs_arm_the_sampler_and_monitor() {
        let report = run_telemetry(true);
        assert_eq!(report.scenarios.len(), 4);
        for run in &report.scenarios {
            let tl = run
                .report
                .base()
                .timeline
                .as_ref()
                .expect("timeline sampled");
            assert!(!tl.rows().is_empty(), "{}: timeline has rows", run.name);
            assert!(
                run.report.base().slo.is_some(),
                "{}: slo evaluated",
                run.name
            );
        }
        assert!(report.brownout.report.base().timeline.is_some());
    }

    #[test]
    fn dashboard_renders_every_section() {
        let report = run_telemetry(true);
        let text = render_telemetry(&report);
        for needle in [
            "[cold]",
            "[warm_b1]",
            "[chaos:storage-brownout]",
            "timeline (",
            "latency attribution over",
            "p99 waterfall",
            "slo:",
        ] {
            assert!(text.contains(needle), "dashboard contains {needle:?}");
        }
    }
}
