//! The equivalence golden gate: every fault-free entry point into the
//! event-driven loops must match the frozen seed step-scan scheduler
//! (`serve::reference`) **byte for byte** — reports, per-request
//! outcomes, metrics text and Chrome traces — on the four canonical
//! scenarios and on a sweep of synthetic edge configurations:
//!
//! - `run_serve`, the fault-free entry point;
//! - `run_serve_chaos` under an empty plan (the eager loop);
//! - `run_serve_policy` under plain FIFO and an empty plan (the lazy
//!   loop).
//!
//! This is the proof required before the seed loop was deleted, kept
//! forever so engine changes cannot silently move the serving
//! baselines. The reference runs no miss coalescing; the coalescing
//! path is pinned by the `serve-xl` golden and the host-clock
//! benchmark's committed `serve-hot` digests.

use afsb_core::resilience::Deadline;
use afsb_rt::obs::ObsSession;
use afsb_seq::samples::SampleId;
use afsb_serve::chaos::{run_serve_chaos, ChaosConfig};
use afsb_serve::policy::{run_serve_policy, PolicyConfig};
use afsb_serve::reference::run_serve_reference;
use afsb_serve::scenario::default_scenarios;
use afsb_serve::server::{run_serve, CostTable, ServeConfig, ServeReport, ShapeCost};
use afsb_serve::workload::WorkloadConfig;
use afsb_simarch::Platform;
use std::collections::BTreeMap;

/// Assert all three entry points reproduce the frozen reference on one
/// (config, costs) pair, and that the two loops' passive runs assign
/// every admitted request a full-quality completion with no fault.
fn assert_equivalent(name: &str, config: &ServeConfig, costs: &CostTable) {
    let mut seed_obs = ObsSession::new();
    let seed = run_serve_reference(config, costs, &mut seed_obs);

    let mut obs = ObsSession::new();
    let report = run_serve(config, costs, &mut obs);
    assert_matches(
        &format!("{name}/run_serve"),
        &report,
        &obs,
        &seed,
        &seed_obs,
    );

    let mut obs = ObsSession::new();
    let chaos = run_serve_chaos(config, &ChaosConfig::none(), costs, &mut obs);
    assert_matches(
        &format!("{name}/chaos"),
        &chaos.base,
        &obs,
        &seed,
        &seed_obs,
    );
    assert_eq!(
        chaos.render(),
        seed.render(),
        "{name}/chaos: chaos block must be absent"
    );

    let mut obs = ObsSession::new();
    let policy = run_serve_policy(
        config,
        &PolicyConfig::fifo(),
        &ChaosConfig::none(),
        costs,
        &mut obs,
    );
    assert_matches(
        &format!("{name}/policy"),
        &policy.chaos.base,
        &obs,
        &seed,
        &seed_obs,
    );
    assert_eq!(
        policy.render(),
        seed.render(),
        "{name}/policy: the plain-FIFO render must not grow a policy line"
    );

    for (loop_name, c) in [("chaos", &chaos), ("policy", &policy.chaos)] {
        assert!(
            c.conserves_requests(),
            "{name}/{loop_name}: conservation broken"
        );
        assert!(!c.chaos_active);
        assert_eq!(
            c.completed, c.admitted,
            "{name}/{loop_name}: passive run degraded/shed/failed"
        );
        assert!(c.fault_events.is_empty());
    }
}

/// Assert one run's every observable equals the reference's.
fn assert_matches(
    name: &str,
    engine: &ServeReport,
    engine_obs: &ObsSession,
    seed: &ServeReport,
    seed_obs: &ObsSession,
) {
    assert_eq!(engine.outcomes, seed.outcomes, "{name}: outcomes diverged");
    assert_eq!(
        engine.makespan_s.to_bits(),
        seed.makespan_s.to_bits(),
        "{name}: makespan not bit-identical"
    );
    assert_eq!(
        engine.throughput_qph.to_bits(),
        seed.throughput_qph.to_bits(),
        "{name}: throughput not bit-identical"
    );
    assert_eq!(
        engine.gpu_busy_s.to_bits(),
        seed.gpu_busy_s.to_bits(),
        "{name}: gpu busy not bit-identical"
    );
    assert_eq!(
        (engine.served, engine.rejected, engine.deadline_missed),
        (seed.served, seed.rejected, seed.deadline_missed),
        "{name}: outcome counters diverged"
    );
    assert_eq!(
        (
            engine.batches,
            engine.compiled_shapes,
            engine.cache_hits,
            engine.cache_misses,
            engine.cache_evictions
        ),
        (
            seed.batches,
            seed.compiled_shapes,
            seed.cache_hits,
            seed.cache_misses,
            seed.cache_evictions
        ),
        "{name}: resource counters diverged"
    );
    assert_eq!(
        engine.render(),
        seed.render(),
        "{name}: report text diverged"
    );
    assert_eq!(
        engine_obs.metrics.render_text(),
        seed_obs.metrics.render_text(),
        "{name}: metrics text diverged"
    );
    assert_eq!(
        engine_obs.tracer.chrome_trace_events().pretty(),
        seed_obs.tracer.chrome_trace_events().pretty(),
        "{name}: Chrome trace diverged"
    );
}

#[test]
fn canonical_scenarios_match_the_seed_scheduler_byte_for_byte() {
    for scenario in default_scenarios(true) {
        assert_equivalent(scenario.name, &scenario.config, CostTable::canonical(true));
    }
}

/// Hand-priced costs (MSA in minutes, GPU in seconds — the paper's
/// §III shape) so the edge sweep below stays fast.
fn synthetic_costs(admit_all: bool) -> CostTable {
    let mut shapes = BTreeMap::new();
    for (k, &id) in SampleId::all().iter().enumerate() {
        shapes.insert(
            id,
            ShapeCost {
                msa_s: 120.0 + 30.0 * k as f64,
                feature_bytes: 10 << 20,
                feature_load_s: 0.1,
                peak_msa_bytes: 1 << 30,
                admitted: admit_all || k % 2 == 0,
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

#[test]
fn edge_configurations_match_the_seed_scheduler() {
    let base = ServeConfig {
        workload: WorkloadConfig {
            num_requests: 96,
            catalog_size: 8,
            arrival_rate_per_s: 0.2,
            zipf_exponent: 1.1,
            seed: 23,
        },
        ..ServeConfig::default()
    };
    let cases: Vec<(&str, ServeConfig)> = vec![
        ("base", base),
        (
            "nocache",
            ServeConfig {
                cache_capacity_bytes: 0,
                ..base
            },
        ),
        (
            "prewarmed_b1",
            ServeConfig {
                prewarm_cache: true,
                gpu_batch: 1,
                ..base
            },
        ),
        (
            "one_worker",
            ServeConfig {
                cpu_workers: 1,
                ..base
            },
        ),
        (
            "tight_deadline",
            ServeConfig {
                deadline: Deadline::new(Some(1.0)),
                ..base
            },
        ),
        (
            "no_deadline",
            ServeConfig {
                deadline: Deadline::new(None),
                ..base
            },
        ),
    ];
    for (name, config) in &cases {
        assert_equivalent(name, config, &synthetic_costs(true));
    }
    // Admission rejections interleaved with served requests.
    assert_equivalent("half_admitted", &base, &synthetic_costs(false));
}
