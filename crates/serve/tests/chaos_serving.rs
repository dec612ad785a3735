//! The chaos-serving gates.
//!
//! With an empty [`FaultPlan`] the chaos loop is pinned byte-identical
//! to the frozen seed scheduler by `tests/equivalence.rs`.
//!
//! 1. **Request conservation** under seeded fault sweeps: every
//!    admitted request ends in exactly one disposition
//!    (completed | degraded | shed | failed). `AFSB_CHAOS_SEED`
//!    overrides the sweep with a single externally-chosen seed so CI
//!    can fan out.
//! 2. **Timeline freshness**: every event is sampled, including a
//!    requeue that the open breaker parks.
//! 3. **Coalesced-miss × fault interaction**: killing or stalling a
//!    producer with piggybacked waiters wakes every waiter exactly
//!    once — no lost wakeups (every finished request was batched), no
//!    double wakeups (no request is batched twice), no double-charged
//!    fills (waiters never occupy a CPU worker).

use afsb_core::resilience::Deadline;
use afsb_rt::fault::{FaultKind, FaultPlan};
use afsb_rt::obs::ObsSession;
use afsb_seq::samples::SampleId;
use afsb_serve::chaos::{run_serve_chaos, ChaosConfig, ChaosReport, Disposition, RecoveryPolicy};
use afsb_serve::policy::{run_serve_policy, PolicyConfig};
use afsb_serve::server::{CostTable, ServeConfig, ShapeCost, TelemetryConfig};
use afsb_serve::workload::WorkloadConfig;
use afsb_simarch::Platform;
use std::collections::BTreeMap;

/// Hand-priced costs (MSA in minutes, GPU in seconds — the paper's
/// §III shape), mirroring the equivalence suite.
fn synthetic_costs() -> CostTable {
    let mut shapes = BTreeMap::new();
    for (k, &id) in SampleId::all().iter().enumerate() {
        shapes.insert(
            id,
            ShapeCost {
                msa_s: 120.0 + 30.0 * k as f64,
                feature_bytes: 10 << 20,
                feature_load_s: 0.1,
                peak_msa_bytes: 1 << 30,
                admitted: true,
                compile_s: 20.0,
                compute_s: 25.0 + k as f64,
            },
        );
    }
    CostTable {
        platform: Platform::Server,
        msa_threads: 4,
        init_s: 30.0,
        dispatch_s: 1.5,
        shapes,
    }
}

fn base_config() -> ServeConfig {
    ServeConfig {
        workload: WorkloadConfig {
            num_requests: 96,
            catalog_size: 8,
            arrival_rate_per_s: 0.2,
            zipf_exponent: 1.1,
            seed: 23,
        },
        ..ServeConfig::default()
    }
}

/// Count `gpu_compute` spans in the Chrome trace: one per batched
/// request, so a double wakeup (request batched twice) shows up as a
/// surplus and a lost wakeup as a deficit.
fn gpu_compute_spans(obs: &ObsSession) -> usize {
    obs.tracer
        .chrome_trace_events()
        .pretty()
        .matches("gpu_compute")
        .count()
}

/// Full structural audit of one chaos run.
fn assert_well_formed(name: &str, report: &ChaosReport, obs: &ObsSession, plan_len: usize) {
    assert!(
        report.conserves_requests(),
        "{name}: admitted {} != {} completed + {} degraded + {} shed + {} failed",
        report.admitted,
        report.completed,
        report.degraded,
        report.shed,
        report.failed
    );
    assert_eq!(
        report.fault_events.len(),
        plan_len,
        "{name}: every planned fault must be delivered exactly once"
    );
    // No lost or double wakeups: finished requests hit the GPU exactly
    // once each.
    assert_eq!(
        gpu_compute_spans(obs),
        report.completed + report.degraded,
        "{name}: finished requests and GPU computes disagree"
    );
    for (i, (d, o)) in report
        .dispositions
        .iter()
        .zip(&report.base.outcomes)
        .enumerate()
    {
        match d {
            None => assert!(o.rejected, "request {i}: no disposition but admitted"),
            Some(Disposition::Completed) | Some(Disposition::Degraded) => {
                assert!(
                    o.done_s > 0.0,
                    "{name}: request {i} finished without a completion time"
                );
                assert!(
                    o.ready_s <= o.done_s,
                    "{name}: request {i} ready after done"
                );
            }
            Some(Disposition::Shed) => {
                assert!(o.deadline_missed, "{name}: request {i} shed without expiry");
                assert_eq!(o.done_s, 0.0, "{name}: shed request {i} completed anyway");
            }
            Some(Disposition::Failed) => {
                assert_eq!(o.done_s, 0.0, "{name}: failed request {i} completed anyway");
            }
        }
    }
}

/// Sweep seeds, or a single seed from `AFSB_CHAOS_SEED` (CI fans out
/// over several).
fn sweep_seeds() -> Vec<u64> {
    match std::env::var("AFSB_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("AFSB_CHAOS_SEED must be a u64")],
        Err(_) => vec![11, 22, 33, 44, 55],
    }
}

#[test]
fn seeded_fault_sweeps_conserve_every_request() {
    let costs = synthetic_costs();
    for seed in sweep_seeds() {
        let chaos = ChaosConfig {
            plan: FaultPlan::seeded(seed),
            policy: RecoveryPolicy::standard(),
        };
        for (name, config) in [
            ("loose", base_config()),
            (
                "tight",
                ServeConfig {
                    deadline: Deadline::new(Some(600.0)),
                    ..base_config()
                },
            ),
            (
                "coalescing",
                ServeConfig {
                    coalesce_misses: true,
                    ..base_config()
                },
            ),
        ] {
            let mut obs = ObsSession::new();
            let report = run_serve_chaos(&config, &chaos, &costs, &mut obs);
            assert_well_formed(
                &format!("seed {seed}/{name}"),
                &report,
                &obs,
                chaos.plan.faults().len(),
            );
        }
    }
}

#[test]
fn one_chaos_config_drives_many_runs_without_double_firing() {
    // The serving-level face of `FaultInjector::sync_to`'s contract: a
    // long-lived plan must deliver the identical fault sequence to
    // every run, because each run builds a fresh injector.
    let costs = synthetic_costs();
    let chaos = ChaosConfig {
        plan: FaultPlan::none()
            .with_at(FaultKind::WorkerCrash { at_fraction: 0.4 }, 60.0)
            .with_at(
                FaultKind::StorageStall {
                    stall_seconds: 45.0,
                },
                120.0,
            )
            .with_at(FaultKind::GpuInitFailure, 200.0),
        policy: RecoveryPolicy::standard(),
    };
    let mut first_obs = ObsSession::new();
    let first = run_serve_chaos(&base_config(), &chaos, &costs, &mut first_obs);
    let mut second_obs = ObsSession::new();
    let second = run_serve_chaos(&base_config(), &chaos, &costs, &mut second_obs);
    assert_eq!(
        first.fault_events.len(),
        chaos.plan.faults().len(),
        "run 1 must fire each planned fault once"
    );
    assert_eq!(
        first.fault_events, second.fault_events,
        "run 2 must see the identical fault sequence, not a doubled or empty one"
    );
    assert_eq!(first.base.outcomes, second.base.outcomes);
    assert_eq!(first.render(), second.render());
    assert_eq!(
        first_obs.metrics.render_text(),
        second_obs.metrics.render_text()
    );
}

#[test]
fn breaker_parked_requeue_shows_in_the_next_timeline_row() {
    // Regression: the eager loop skipped the end-of-event gauge sample
    // when a requeue parked behind the open breaker, so `msa_q` read
    // the parked request as gone until the next event — here the
    // breaker close 900 s later.
    let config = ServeConfig {
        workload: WorkloadConfig {
            num_requests: 1,
            catalog_size: 1,
            arrival_rate_per_s: 1.0,
            zipf_exponent: 1.1,
            seed: 23,
        },
        telemetry: TelemetryConfig {
            timeline_interval_s: 1.0,
            slo: None,
        },
        ..ServeConfig::default()
    };
    // One crash mid-MSA opens a one-failure breaker; the requeue fires
    // after at most the 60 s backoff cap (+10% jitter) and parks until
    // the close at 30 + 900 s.
    let chaos = ChaosConfig {
        plan: FaultPlan::none().with_at(FaultKind::WorkerCrash { at_fraction: 0.0 }, 30.0),
        policy: RecoveryPolicy {
            breaker_threshold: 1,
            ..RecoveryPolicy::standard()
        },
    };
    let costs = synthetic_costs();
    let mut obs = ObsSession::new();
    let eager = run_serve_chaos(&config, &chaos, &costs, &mut obs);
    let mut obs = ObsSession::new();
    let lazy = run_serve_policy(&config, &PolicyConfig::fifo(), &chaos, &costs, &mut obs).chaos;
    for (name, report) in [("chaos", &eager), ("policy", &lazy)] {
        assert_eq!(
            report.breaker_opens, 1,
            "{name}: the crash opens the breaker"
        );
        assert_eq!(report.requeues, 2, "{name}: parked, then re-dispatched");
        let tl = report.base.timeline.as_ref().expect("timeline sampled");
        let row = tl
            .rows()
            .iter()
            .position(|(t, _)| *t == 100.0)
            .expect("the run outlasts 100 s");
        assert_eq!(tl.value(row, "brk"), 1.0, "{name}: breaker still open");
        assert_eq!(
            tl.value(row, "msa_q"),
            1.0,
            "{name}: the parked request is outstanding MSA work"
        );
    }
}

/// A stream shaped to keep coalesced fills in flight almost constantly:
/// fast arrivals over a tiny, highly skewed catalog.
fn coalescing_config() -> ServeConfig {
    ServeConfig {
        workload: WorkloadConfig {
            num_requests: 64,
            catalog_size: 4,
            arrival_rate_per_s: 0.5,
            zipf_exponent: 2.0,
            seed: 23,
        },
        coalesce_misses: true,
        ..ServeConfig::default()
    }
}

#[test]
fn killing_a_producer_wakes_coalesced_waiters_exactly_once() {
    let costs = synthetic_costs();
    // The crash lands mid-MSA while later arrivals for the same hot
    // entity are piggybacked on the in-flight fill.
    let chaos = ChaosConfig {
        plan: FaultPlan::none().with_at(FaultKind::WorkerCrash { at_fraction: 0.0 }, 30.0),
        policy: RecoveryPolicy::standard(),
    };
    let mut obs = ObsSession::new();
    let report = run_serve_chaos(&coalescing_config(), &chaos, &costs, &mut obs);
    assert!(
        report.base.cache_coalesced > 0,
        "scenario must actually coalesce misses"
    );
    assert!(report.requeues > 0, "the killed producer must requeue");
    assert_well_formed("producer-kill", &report, &obs, 1);
    // No double-charged fills: waiters stay cache hits (they never
    // occupy a CPU worker), so misses equal the fault-free run's.
    let mut baseline_obs = ObsSession::new();
    let baseline = run_serve_chaos(
        &coalescing_config(),
        &ChaosConfig::none(),
        &costs,
        &mut baseline_obs,
    );
    assert_eq!(
        report.base.cache_misses, baseline.base.cache_misses,
        "a kill must not convert waiters into duplicate MSA searches"
    );
}

#[test]
fn storage_faults_during_coalesced_fills_wake_waiters_exactly_once() {
    let costs = synthetic_costs();
    for (name, plan) in [
        (
            "stall",
            FaultPlan::none().with_at(
                FaultKind::StorageStall {
                    stall_seconds: 90.0,
                },
                150.0,
            ),
        ),
        (
            "read-error",
            FaultPlan::none().with_at(FaultKind::StorageReadError, 150.0),
        ),
        (
            "stall+crash",
            FaultPlan::none()
                .with_at(FaultKind::WorkerCrash { at_fraction: 0.0 }, 30.0)
                .with_at(
                    FaultKind::StorageStall {
                        stall_seconds: 60.0,
                    },
                    140.0,
                )
                .with_at(FaultKind::StorageReadError, 300.0),
        ),
    ] {
        let chaos = ChaosConfig {
            plan,
            policy: RecoveryPolicy::standard(),
        };
        let plan_len = chaos.plan.faults().len();
        let mut obs = ObsSession::new();
        let report = run_serve_chaos(&coalescing_config(), &chaos, &costs, &mut obs);
        assert!(report.base.cache_coalesced > 0, "{name}: nothing coalesced");
        assert_well_formed(name, &report, &obs, plan_len);
    }
}

#[test]
fn seeded_fault_schedules_over_coalescing_streams_conserve_wakeups() {
    // The satellite's property sweep: random fault schedules over a
    // coalescing-heavy stream, with both loose and tight deadlines.
    let costs = synthetic_costs();
    for seed in sweep_seeds() {
        let chaos = ChaosConfig {
            plan: FaultPlan::seeded(seed),
            policy: RecoveryPolicy::standard(),
        };
        for (name, config) in [
            ("loose", coalescing_config()),
            (
                "tight",
                ServeConfig {
                    deadline: Deadline::new(Some(400.0)),
                    ..coalescing_config()
                },
            ),
        ] {
            let mut obs = ObsSession::new();
            let report = run_serve_chaos(&config, &chaos, &costs, &mut obs);
            assert_well_formed(
                &format!("coalesce seed {seed}/{name}"),
                &report,
                &obs,
                chaos.plan.faults().len(),
            );
        }
    }
}

#[test]
fn canonical_chaos_matrix_holds_its_slo_orderings() {
    // The `serve-chaos` acceptance gate: on the canonical quick matrix
    // every scenario conserves its requests and keeps serving, each
    // planned fault is delivered exactly once, and the SLO metrics
    // order strictly — the fault-free baseline beats every chaos
    // scenario and every single-dimension scenario beats the
    // kitchen sink, on both availability and goodput.
    let scenarios = afsb_serve::chaos_scenarios(true);
    let runs = afsb_serve::run_scenarios(scenarios.clone(), true);
    assert_eq!(runs.len(), scenarios.len());
    let by = |name: &str| {
        runs.iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("scenario {name} ran"))
    };

    for s in &scenarios {
        let run = by(s.name);
        let r = &run.report.chaos;
        assert!(r.conserves_requests(), "{} conserves requests", s.name);
        assert!(r.completed > 0, "{} still completes work", s.name);
        assert_eq!(
            r.fault_events.len(),
            s.chaos.plan.faults().len(),
            "{} delivers every planned fault exactly once",
            s.name
        );
        // Every delivered fault leaves its instant in the trace.
        let trace = run.obs.tracer.chrome_trace_events().pretty();
        for f in s.chaos.plan.faults() {
            assert!(
                trace.contains(&format!("fault:{}", f.kind.label())),
                "{} trace records fault:{}",
                s.name,
                f.kind.label()
            );
        }
    }

    let baseline = &by("baseline").report.chaos;
    assert!(!baseline.chaos_active);
    assert!(baseline.fault_events.is_empty());
    let sink = &by("kitchen-sink").report.chaos;
    for name in ["worker-churn", "storage-brownout", "gpu-flap"] {
        let r = &by(name).report.chaos;
        assert!(
            r.availability < baseline.availability,
            "baseline availability beats {name}"
        );
        assert!(
            r.goodput < baseline.goodput,
            "baseline goodput beats {name}"
        );
        assert!(
            sink.availability < r.availability,
            "{name} availability beats the kitchen sink"
        );
        assert!(
            sink.goodput < r.goodput,
            "{name} goodput beats the kitchen sink"
        );
    }

    // The rendered summary names every scenario exactly once.
    let summary = afsb_serve::render_chaos_summary(&runs);
    for s in &scenarios {
        assert_eq!(summary.matches(s.name).count(), 2, "{} in summary", s.name);
    }
}
