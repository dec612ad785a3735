//! Gates for the serving-telemetry layer (ISSUE 8):
//!
//! 1. **Observation-only** — arming the timeline sampler and SLO
//!    monitor changes nothing observable about the serving results:
//!    outcomes (including phase segments), rendered reports and
//!    latency floats are byte-identical to a telemetry-off run, on all
//!    four canonical scenarios, the kitchen-sink campaign, and every
//!    lazy-loop policy row (fault-free and under the kitchen sink).
//! 2. **Attribution closure** — per-request phase segments sum to
//!    `latency_s()` within 1e-9 on every finished request, across
//!    seeded workloads *and* chaos runs with requeues.
//! 3. **Byte-identity** — two runs of the sampler render identical
//!    bytes; the cold timeline shows the GPU-idle gap; the brownout
//!    campaign fires `slo:burn` then `slo:clear`.

use afsb_rt::check::{self, Config, Gen};
use afsb_rt::obs::ObsSession;
use afsb_serve::chaos::{chaos_scenarios, run_serve_chaos, ChaosConfig};
use afsb_serve::policy::policy_scenarios;
use afsb_serve::run_telemetry;
use afsb_serve::scenario::default_scenarios;
use afsb_serve::scenario::{run_scenarios, Scenario};
use afsb_serve::server::{run_serve, CostTable, TelemetryConfig, TIMELINE_COLUMNS};
use afsb_serve::workload::WorkloadConfig;

fn costs() -> &'static CostTable {
    CostTable::canonical(true)
}

/// Telemetry must not perturb the serving results: every field except
/// `timeline`/`slo` is byte-identical with and without it.
#[test]
fn telemetry_is_observation_only_on_canonical_scenarios() {
    let costs = costs();
    for scenario in default_scenarios(true) {
        let mut bare_obs = ObsSession::new();
        let bare = run_serve(&scenario.config, costs, &mut bare_obs);

        let mut config = scenario.config;
        config.telemetry = TelemetryConfig::standard(true);
        let mut tel_obs = ObsSession::new();
        let tel = run_serve(&config, costs, &mut tel_obs);

        assert_eq!(
            bare.outcomes, tel.outcomes,
            "{}: outcomes changed under telemetry",
            scenario.name
        );
        assert_eq!(
            bare.throughput_qph.to_bits(),
            tel.throughput_qph.to_bits(),
            "{}: throughput changed under telemetry",
            scenario.name
        );
        assert_eq!(
            bare.makespan_s.to_bits(),
            tel.makespan_s.to_bits(),
            "{}: makespan changed under telemetry",
            scenario.name
        );
        assert_eq!(bare.latency, tel.latency, "{}: latency", scenario.name);
        assert_eq!(
            bare.deadline_missed, tel.deadline_missed,
            "{}: deadline misses",
            scenario.name
        );
        // The rendered report ignores telemetry fields entirely.
        assert_eq!(bare.render(), tel.render(), "{}: render", scenario.name);
        assert!(bare.timeline.is_none() && bare.slo.is_none());
        assert!(tel.timeline.is_some() && tel.slo.is_some());
    }
}

/// Same gate for both fault-aware loops: the kitchen-sink campaign on
/// the eager loop, and every policy row on the lazy loop under the
/// empty and the kitchen-sink plan. With telemetry and provenance
/// armed ([`Scenario::observed`]), dispositions, floats, preemptions
/// and the render must not move.
#[test]
fn telemetry_is_observation_only_under_chaos() {
    let sink = chaos_scenarios(true)
        .into_iter()
        .find(|s| s.name == "kitchen-sink")
        .expect("kitchen-sink scenario exists");
    let mut scenarios = vec![sink.clone()];
    for chaos in [ChaosConfig::none(), sink.chaos] {
        scenarios.extend(policy_scenarios(true).into_iter().map(|s| Scenario {
            chaos: chaos.clone(),
            ..s
        }));
    }
    let armed = scenarios
        .iter()
        .cloned()
        .map(|s| s.observed(true))
        .collect();
    let armed = run_scenarios(armed, true);
    let bare = run_scenarios(scenarios.clone(), true);
    for ((s, bare), tel) in scenarios.iter().zip(&bare).zip(&armed) {
        let label = format!("{} under {} faults", s.name, s.chaos.plan.faults().len());
        let (bare, tel) = (&bare.report, &tel.report);
        assert_eq!(
            bare.base().outcomes,
            tel.base().outcomes,
            "{label}: outcomes"
        );
        assert_eq!(
            bare.chaos.dispositions, tel.chaos.dispositions,
            "{label}: dispositions"
        );
        assert_eq!(
            bare.chaos.availability.to_bits(),
            tel.chaos.availability.to_bits(),
            "{label}: availability"
        );
        assert_eq!(
            bare.chaos.goodput.to_bits(),
            tel.chaos.goodput.to_bits(),
            "{label}: goodput"
        );
        assert_eq!(
            bare.base().makespan_s.to_bits(),
            tel.base().makespan_s.to_bits(),
            "{label}: makespan"
        );
        assert_eq!(bare.chaos.requeues, tel.chaos.requeues, "{label}: requeues");
        assert_eq!(
            bare.chaos.degraded_attempts, tel.chaos.degraded_attempts,
            "{label}"
        );
        assert_eq!(bare.preemptions, tel.preemptions, "{label}: preemptions");
        assert_eq!(bare.render(), tel.render(), "{label}: render");
        assert!(tel.base().timeline.is_some(), "{label}: timeline sampled");
    }
}

fn assert_segments_close(report: &afsb_serve::ServeReport, label: &str) {
    let mut finished = 0;
    for o in &report.outcomes {
        if o.rejected || o.done_s <= 0.0 {
            continue;
        }
        finished += 1;
        let total = o.segments.total();
        let latency = o.latency_s();
        assert!(
            (total - latency).abs() <= 1e-9,
            "{label}: request {} segments sum {total} != latency {latency}",
            o.request.id
        );
        for (i, name) in afsb_serve::PhaseSegments::NAMES.iter().enumerate() {
            assert!(
                o.segments.get(i).is_finite(),
                "{label}: request {} phase {name} not finite",
                o.request.id
            );
        }
    }
    assert!(finished > 0, "{label}: no finished requests to check");
}

/// Property: phase segments sum to `latency_s()` within 1e-9 across
/// seeded workloads, canonical and randomized.
#[test]
fn segments_sum_to_latency_on_seeded_workloads() {
    let costs = costs();
    for scenario in default_scenarios(true) {
        let mut obs = ObsSession::new();
        let report = run_serve(&scenario.config, costs, &mut obs);
        assert_segments_close(&report, scenario.name);
    }

    // Randomized streams over the cold config: vary load, catalog and
    // batch to hit different queueing/batching interleavings.
    let base = default_scenarios(true)[0].config;
    check::run(
        "serve segments sum to latency",
        Config::cases(12),
        |g: &mut Gen| {
            let mut config = base;
            config.workload = WorkloadConfig {
                num_requests: g.range(40usize..160),
                catalog_size: g.range(3usize..24),
                arrival_rate_per_s: 0.02 + g.range(1u64..50) as f64 * 0.01,
                zipf_exponent: 0.8 + g.range(0u64..8) as f64 * 0.1,
                seed: g.range(1u64..(1 << 20)),
            };
            config.gpu_batch = g.range(1usize..8);
            config.prewarm_cache = g.bool();
            config.coalesce_misses = g.bool();
            let mut obs = ObsSession::new();
            let report = run_serve(&config, costs, &mut obs);
            assert_segments_close(&report, "randomized");
        },
    );
}

/// The same closure property must hold through the chaos scheduler —
/// including campaigns whose kills force requeues, so a request's
/// segments span multiple MSA attempts.
#[test]
fn segments_sum_to_latency_under_chaos_requeues() {
    let costs = costs();
    let mut saw_requeues = false;
    for scenario in chaos_scenarios(true) {
        let mut obs = ObsSession::new();
        let report = run_serve_chaos(&scenario.config, &scenario.chaos, costs, &mut obs);
        saw_requeues |= report.requeues > 0;
        assert_segments_close(&report.base, scenario.name);
    }
    assert!(
        saw_requeues,
        "chaos matrix must exercise the requeue attribution path"
    );
}

/// Two telemetry runs render byte-identical timelines and dashboards.
#[test]
fn timeline_output_is_byte_identical_across_runs() {
    let a = run_telemetry(true);
    let b = run_telemetry(true);
    for (ra, rb) in a.scenarios.iter().zip(&b.scenarios) {
        let ta = ra.report.base().timeline.as_ref().expect("timeline");
        let tb = rb.report.base().timeline.as_ref().expect("timeline");
        assert_eq!(ta.render(), tb.render(), "{}: timeline bytes", ra.name);
        assert_eq!(
            ta.render_sparklines(),
            tb.render_sparklines(),
            "{}: sparkline bytes",
            ra.name
        );
    }
    assert_eq!(
        afsb_serve::render_telemetry(&a),
        afsb_serve::render_telemetry(&b),
        "full dashboard bytes"
    );
}

/// The paper's headline serving pathology must be visible in the cold
/// timeline: early rows where the MSA queue is deep while the GPU sits
/// idle (the CPU phase starves the accelerator).
#[test]
fn cold_timeline_shows_the_gpu_idle_gap() {
    let report = run_telemetry(true);
    let cold = &report.scenarios[0];
    assert_eq!(cold.name, "cold");
    let tl = cold.report.base().timeline.as_ref().expect("timeline");
    assert_eq!(tl.columns(), TIMELINE_COLUMNS);
    let gap_rows = (0..tl.rows().len())
        .filter(|&i| tl.value(i, "gpu") == 0.0 && tl.value(i, "msa_q") > 0.0)
        .count();
    assert!(
        gap_rows > 0,
        "cold scenario must show GPU idle while the MSA queue is deep"
    );
}

/// The storage brownout must drive the SLO alert through a full
/// burn → clear cycle, visible both in the outcome transitions and as
/// trace instants in order.
#[test]
fn brownout_fires_and_clears_the_slo_alert() {
    let run = run_telemetry(true).brownout;
    let slo = run.report.base().slo.as_ref().expect("slo evaluated");
    assert!(
        slo.burn_events >= 1,
        "brownout must fire the SLO alert at least once"
    );
    assert_eq!(
        slo.burn_events, slo.clear_events,
        "every burn must clear by end of run"
    );
    let first = slo.transitions.first().expect("transitions recorded");
    let last = slo.transitions.last().expect("transitions recorded");
    assert!(
        first.firing && !last.firing,
        "burn precedes the final clear"
    );
    assert!(slo.alert_seconds > 0.0);

    let names = run.obs.tracer.instant_names();
    let instants: Vec<&str> = names
        .into_iter()
        .filter(|n| n.starts_with("slo:"))
        .collect();
    let first_burn = instants.iter().position(|n| *n == "slo:burn");
    let first_clear = instants.iter().position(|n| *n == "slo:clear");
    match (first_burn, first_clear) {
        (Some(b), Some(c)) => assert!(b < c, "slo:burn must precede slo:clear"),
        _ => panic!("missing slo:burn/slo:clear instants: {instants:?}"),
    }
}

/// The PR 7 caveat: the kitchen-sink campaign applies degradation rungs
/// whose requests are later shed, so the old `degr` disposition count
/// hid them. `degraded_attempts` must be nonzero there.
#[test]
fn kitchen_sink_counts_degraded_attempts() {
    let costs = costs();
    let scenario = chaos_scenarios(true)
        .into_iter()
        .find(|s| s.name == "kitchen-sink")
        .expect("kitchen-sink scenario exists");
    let mut obs = ObsSession::new();
    let report = run_serve_chaos(&scenario.config, &scenario.chaos, costs, &mut obs);
    let degrade_instants = obs
        .tracer
        .instant_names()
        .iter()
        .filter(|n| n.starts_with("degrade:"))
        .count() as u64;
    assert_eq!(
        report.degraded_attempts, degrade_instants,
        "degraded_attempts must count degrade: instants exactly"
    );
    assert!(
        report.degraded_attempts > 0,
        "kitchen-sink must apply at least one degradation rung"
    );
    assert!(
        report.degraded_attempts >= report.degraded as u64,
        "attempts include requests later shed or failed"
    );
}
