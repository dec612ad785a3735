//! The canonical serving scenarios and the one runner behind every
//! serving experiment.
//!
//! Four runs of the same seeded request stream isolate the two levers
//! the paper's amortization data points at:
//!
//! - `cold`      — empty cache, batch 4: the baseline server,
//! - `nocache`   — caching disabled: every request pays the CPU phase,
//! - `warm`      — prewarmed cache, batch 4: steady-state serving,
//! - `warm_b1`   — prewarmed cache, batch 1: no dispatch amortization.
//!
//! `cold` vs `nocache` prices the MSA feature cache; `warm` vs
//! `warm_b1` prices GPU batching with the CPU phase out of the way.
//!
//! Every canonical serving run — these four, the XL set, the
//! [`crate::chaos`] matrix and the [`crate::policy`] matrix — is one
//! [`Scenario`], and [`run_scenarios`] runs any set of them. The
//! scenario names its loop explicitly: `policy: None` runs the eager
//! [`crate::chaos`] loop (the only one that coalesces misses),
//! `Some(p)` runs the lazy [`crate::policy`] loop. Plain FIFO is not
//! quietly routed to the eager loop: the two loops diverge under
//! faults (a kill keeps the eager slot reserved but frees the lazy
//! worker), so the choice stays with the scenario.

use crate::chaos::{run_serve_chaos, ChaosConfig};
use crate::policy::{run_serve_policy, PolicyConfig, PolicyReport};
use crate::server::{CostTable, ServeConfig, TelemetryConfig};
use crate::workload::WorkloadConfig;
use afsb_core::report::ascii_table;
use afsb_core::resilience::Deadline;
use afsb_rt::obs::ObsSession;
use afsb_simarch::config::GIB;
use afsb_simarch::Platform;

/// The fixed seed every canonical serving scenario runs with.
pub const SERVE_SEED: u64 = 17;

/// A named serving run: configuration, fault plan, and which loop
/// serves it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short stable name (used in reports and metric prefixes).
    pub name: &'static str,
    /// The configuration to serve.
    pub config: ServeConfig,
    /// The fault plan + recovery policy (empty for fault-free runs).
    pub chaos: ChaosConfig,
    /// `None` runs the eager loop; `Some` runs the lazy loop under this
    /// scheduling policy.
    pub policy: Option<PolicyConfig>,
}

/// One executed scenario with its observability session.
pub struct ScenarioRun {
    /// The scenario name.
    pub name: &'static str,
    /// The serving report. An eager run carries `PolicyConfig::fifo()`
    /// and zero preemptions, so its render is the chaos render (and,
    /// fault-free, the plain [`crate::server::ServeReport`] render).
    pub report: PolicyReport,
    /// Trace + metrics captured during the run.
    pub obs: ObsSession,
}

impl Scenario {
    /// A fault-free scenario on the loop `policy` names (`None`:
    /// eager).
    pub fn new(name: &'static str, config: ServeConfig, policy: Option<PolicyConfig>) -> Scenario {
        Scenario {
            name,
            config,
            chaos: ChaosConfig::none(),
            policy,
        }
    }

    /// The same scenario with the standard telemetry and causal
    /// provenance armed. Both are observation-only: every outcome,
    /// disposition and render matches the unobserved run
    /// (`tests/telemetry.rs`, `tests/causal.rs`).
    pub fn observed(mut self, quick: bool) -> Scenario {
        self.config.telemetry = TelemetryConfig::standard(quick);
        self.config.provenance = true;
        self
    }
}

/// Price the canonical cost table once and run every scenario on it —
/// the one runner behind every canonical serving experiment.
pub fn run_scenarios(scenarios: Vec<Scenario>, quick: bool) -> Vec<ScenarioRun> {
    let costs = CostTable::canonical(quick);
    scenarios
        .into_iter()
        .map(|s| {
            let mut obs = ObsSession::new();
            let report = match &s.policy {
                None => PolicyReport::eager(run_serve_chaos(&s.config, &s.chaos, costs, &mut obs)),
                Some(policy) => run_serve_policy(&s.config, policy, &s.chaos, costs, &mut obs),
            };
            ScenarioRun {
                name: s.name,
                report,
                obs,
            }
        })
        .collect()
}

/// The canonical `cold` configuration: the base of the four canonical
/// scenarios, and the config the chaos, policy and what-if experiments
/// all serve. `quick` shrinks the stream for CI.
pub fn cold_config(quick: bool) -> ServeConfig {
    // The stream must outlast the popular entities' MSA times (so a
    // cold cache can start hitting mid-stream) while keeping arrival
    // gaps well under the GPU service time (so batching has a backlog
    // to amortize over) — hence many requests at a 10 s mean gap.
    ServeConfig {
        platform: Platform::Server,
        workload: WorkloadConfig {
            num_requests: if quick { 384 } else { 1024 },
            catalog_size: if quick { 12 } else { 40 },
            arrival_rate_per_s: 0.1,
            zipf_exponent: 1.1,
            seed: SERVE_SEED,
        },
        cpu_workers: 4,
        gpu_batch: 4,
        cache_capacity_bytes: 64 * GIB,
        prewarm_cache: false,
        deadline: Deadline::new(Some(24.0 * 3600.0)),
        coalesce_misses: false,
        telemetry: TelemetryConfig::default(),
        provenance: false,
    }
}

/// The cache and batching ablations over one base config, in report
/// order. `nocache` also turns coalescing off: the whole cache
/// subsystem is gone, so every request pays the CPU phase.
fn ablations(base: ServeConfig) -> Vec<Scenario> {
    let nocache = ServeConfig {
        cache_capacity_bytes: 0,
        coalesce_misses: false,
        ..base
    };
    let warm = ServeConfig {
        prewarm_cache: true,
        ..base
    };
    let warm_b1 = ServeConfig {
        gpu_batch: 1,
        ..warm
    };
    vec![
        Scenario::new("cold", base, None),
        Scenario::new("nocache", nocache, None),
        Scenario::new("warm", warm, None),
        Scenario::new("warm_b1", warm_b1, None),
    ]
}

/// The canonical scenario set. `quick` shrinks the stream for CI.
pub fn default_scenarios(quick: bool) -> Vec<Scenario> {
    ablations(cold_config(quick))
}

/// The XL scenario set behind `afsysbench serve-xl` — the same four
/// ablations at production scale: a catalog one to two orders of
/// magnitude larger, Poisson arrivals an order of magnitude denser, a
/// wider CPU pool, deeper GPU batches, a three-day deadline, and miss
/// coalescing on (concurrent misses on a hot entity collapse onto the
/// in-flight MSA fill instead of each paying the CPU phase). This is
/// the event engine's scale exercise: ~10× the canonical stream in
/// quick mode, ~100× in full mode, all through one event queue.
pub fn xl_scenarios(quick: bool) -> Vec<Scenario> {
    ablations(ServeConfig {
        workload: WorkloadConfig {
            num_requests: if quick { 10_000 } else { 100_000 },
            catalog_size: if quick { 500 } else { 2_000 },
            arrival_rate_per_s: 1.0,
            zipf_exponent: 1.1,
            seed: SERVE_SEED,
        },
        cpu_workers: 64,
        gpu_batch: 8,
        cache_capacity_bytes: 256 * GIB,
        deadline: Deadline::new(Some(72.0 * 3600.0)),
        coalesce_misses: true,
        ..cold_config(quick)
    })
}

/// Cross-scenario comparison table plus the per-scenario blocks.
pub fn render_summary(runs: &[ScenarioRun]) -> String {
    let headers = [
        "scenario",
        "queries/h",
        "hit rate",
        "gpu occ",
        "p50 s",
        "p99 s",
        "missed",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let r = run.report.base();
            let (p50, p99) = r
                .latency
                .as_ref()
                .map_or((f64::NAN, f64::NAN), |l| (l.p50, l.p99));
            vec![
                run.name.to_string(),
                format!("{:.2}", r.throughput_qph),
                format!("{:.1}%", r.cache_hit_rate * 100.0),
                format!("{:.1}%", r.gpu_occupancy * 100.0),
                format!("{p50:.0}"),
                format!("{p99:.0}"),
                format!("{}", r.deadline_missed),
            ]
        })
        .collect();
    let mut out = ascii_table(&headers, &rows);
    out.push('\n');
    for run in runs {
        out.push('\n');
        out.push_str(&format!("[{}]\n", run.name));
        out.push_str(&run.report.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_set_covers_both_ablations() {
        let scenarios = default_scenarios(true);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cold", "nocache", "warm", "warm_b1"]);
        let by_name = |n: &str| {
            scenarios
                .iter()
                .find(|s| s.name == n)
                .expect("scenario present")
                .config
        };
        assert_eq!(by_name("nocache").cache_capacity_bytes, 0);
        assert!(by_name("warm").prewarm_cache);
        assert_eq!(by_name("warm_b1").gpu_batch, 1);
        // All four serve the identical stream.
        for s in &scenarios {
            assert_eq!(s.config.workload, by_name("cold").workload);
        }
    }

    #[test]
    fn xl_set_mirrors_the_canonical_ablations_at_scale() {
        let xl = xl_scenarios(true);
        let names: Vec<&str> = xl.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cold", "nocache", "warm", "warm_b1"]);
        for s in &xl {
            assert!(s.config.workload.num_requests >= 10_000);
            assert_eq!(
                s.config.coalesce_misses,
                s.name != "nocache",
                "coalescing is part of the cache subsystem: on everywhere but nocache"
            );
            assert_eq!(s.config.workload, xl[0].config.workload);
        }
        assert!(xl_scenarios(false)[0].config.workload.num_requests >= 100_000);
    }
}
