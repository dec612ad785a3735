//! The two serve workloads. Both load the committed cost table instead
//! of pricing, and replay a simulated Poisson stream inside one call.
//!
//! - `serve-hot`: `run_serve` on the XL `cold` shape at 10^5 requests
//!   with provenance on, then the critical path and the Chrome-trace,
//!   collapsed-stack and metrics exports. GPU-bound: cache hits
//!   dominate and the ready pool grows.
//! - `serve-churn`: `run_serve_policy(sjf_preempt, kitchen-sink plan)`
//!   at 3·10^4 requests of uniform popularity over a catalog far larger
//!   than the cache. CPU-bound: cache writes and evictions dominate, and
//!   preemption, requeue and shed paths run.

use crate::fixture::Digest;
use afsb_core::resilience::Deadline;
use afsb_rt::obs::causal::{critical_path, CriticalPath};
use afsb_rt::obs::ObsSession;
use afsb_serve::chaos::{chaos_scenarios, ChaosConfig};
use afsb_serve::policy::{run_serve_policy, PolicyConfig, PolicyReport};
use afsb_serve::server::{run_serve, CostTable, ServeConfig, ServeReport, TelemetryConfig};
use afsb_serve::workload::{Request, WorkloadConfig};
use afsb_simarch::config::GIB;
use afsb_simarch::Platform;

pub const HOT_REQUESTS: usize = 100_000;
pub const CHURN_REQUESTS: usize = 30_000;

/// The XL `cold` scenario at full scale, provenance on.
pub fn hot_config(seed: u64, num_requests: usize) -> ServeConfig {
    ServeConfig {
        platform: Platform::Server,
        workload: WorkloadConfig {
            num_requests,
            catalog_size: 2_000,
            arrival_rate_per_s: 1.0,
            zipf_exponent: 1.1,
            seed,
        },
        cpu_workers: 64,
        gpu_batch: 8,
        cache_capacity_bytes: 256 * GIB,
        prewarm_cache: false,
        deadline: Deadline::new(Some(72.0 * 3600.0)),
        coalesce_misses: true,
        telemetry: TelemetryConfig::default(),
        provenance: true,
    }
}

/// Uniform popularity over 20,000 entities with a 2 GiB cache: most
/// requests miss, fill and evict.
pub fn churn_config(seed: u64, num_requests: usize) -> ServeConfig {
    ServeConfig {
        workload: WorkloadConfig {
            num_requests,
            catalog_size: 20_000,
            arrival_rate_per_s: 0.05,
            zipf_exponent: 0.0,
            seed,
        },
        cache_capacity_bytes: 2 * GIB,
        coalesce_misses: false,
        provenance: false,
        ..hot_config(seed, num_requests)
    }
}

/// The `serve-chaos` matrix's `kitchen-sink` fault plan and recovery
/// policy.
pub fn kitchen_sink() -> ChaosConfig {
    chaos_scenarios(true)
        .into_iter()
        .find(|s| s.name == "kitchen-sink")
        .expect("the serve-chaos matrix has a kitchen-sink scenario")
        .chaos
}

/// Everything a `serve-hot` unit produced.
pub struct HotOutput<'a> {
    pub report: &'a ServeReport,
    pub obs: &'a ObsSession,
    pub path: &'a CriticalPath,
    pub exports: &'a [String],
}

pub fn hot_loop(config: &ServeConfig, costs: &CostTable) -> (ServeReport, ObsSession) {
    let mut obs = ObsSession::new();
    let report = run_serve(config, costs, &mut obs);
    (report, obs)
}

pub fn hot_critpath(report: &ServeReport) -> Result<CriticalPath, String> {
    let log = report.causal.as_ref().ok_or("no causal log recorded")?;
    let target = log.makespan_event.ok_or("nothing was served")?;
    Ok(critical_path(&log.edges, target))
}

/// The Chrome trace, collapsed stacks (span flamegraph and critical
/// path) and metrics text of one run.
pub fn hot_export(obs: &ObsSession, path: &CriticalPath) -> Vec<String> {
    vec![
        obs.chrome_trace_text(),
        obs.tracer.flamegraph(),
        path.collapsed("critpath;serve-hot"),
        obs.metrics.render_text(),
    ]
}

pub fn churn_loop(config: &ServeConfig, costs: &CostTable, chaos: &ChaosConfig) -> PolicyReport {
    let mut obs = ObsSession::new();
    run_serve_policy(config, &PolicyConfig::sjf_preempt(), chaos, costs, &mut obs)
}

/// Invariants every serve report must satisfy, whatever the seed.
fn check_report(
    report: &ServeReport,
    requests: &[Request],
    extra_terminal: usize,
) -> Result<(), String> {
    let n = requests.len();
    if report.outcomes.len() != n {
        return Err(format!(
            "{} outcomes for {n} requests",
            report.outcomes.len()
        ));
    }
    if report.served + report.rejected + extra_terminal != n {
        return Err(format!(
            "served {} + rejected {} + shed/failed {extra_terminal} != {n} requests",
            report.served, report.rejected
        ));
    }
    for (o, r) in report.outcomes.iter().zip(requests) {
        if o.request != *r {
            return Err(format!("outcome {} is not the generated request", r.id));
        }
        if o.finished {
            let gap = (o.segments.total() - o.latency_s()).abs();
            if gap > 1e-9 {
                return Err(format!(
                    "request {}: latency attribution misses by {gap:e} s",
                    r.id
                ));
            }
        }
    }
    Ok(())
}

fn report_digest(d: &mut Digest, r: &ServeReport) {
    d.count("served", r.served as u64);
    d.count("rejected", r.rejected as u64);
    d.count("deadline_missed", r.deadline_missed as u64);
    d.count("batches", r.batches as u64);
    d.count("cache_hits", r.cache_hits);
    d.count("cache_misses", r.cache_misses);
    d.count("cache_evictions", r.cache_evictions);
    d.count("cache_coalesced", r.cache_coalesced);
    d.float("makespan_s", r.makespan_s);
    d.float("throughput_qph", r.throughput_qph);
    d.float("gpu_busy_s", r.gpu_busy_s);
    if let Some(l) = &r.latency {
        d.count("latency.count", l.count);
        d.float("latency.sum", l.sum);
        d.float("latency.mean", l.mean);
        d.float("latency.p50", l.p50);
        d.float("latency.p90", l.p90);
        d.float("latency.p99", l.p99);
    }
}

/// Check a `serve-hot` unit's invariants and return its digest.
pub fn hot_digest(out: &HotOutput<'_>, requests: &[Request]) -> Result<Digest, String> {
    check_report(out.report, requests, 0)?;
    let mut d = Digest::default();
    report_digest(&mut d, out.report);
    let edges = out.report.causal.as_ref().map_or(0, |c| c.edges.len());
    d.count("provenance_edges", edges as u64);
    d.count("obs_spans", out.obs.tracer.span_count() as u64);
    d.hash("critpath", &out.path.render("serve-hot"));
    for (name, text) in [
        "chrome_trace",
        "flamegraph",
        "critpath_collapsed",
        "metrics",
    ]
    .iter()
    .zip(out.exports)
    {
        d.hash(name, text);
    }
    Ok(d)
}

/// Check a `serve-churn` unit's invariants and return its digest.
pub fn churn_digest(r: &PolicyReport, requests: &[Request]) -> Result<Digest, String> {
    let c = &r.chaos;
    if !c.conserves_requests() {
        return Err("admitted requests do not conserve into dispositions".to_owned());
    }
    if c.admitted + c.base.rejected != requests.len() {
        return Err(format!(
            "admitted {} + rejected {} != {} requests",
            c.admitted,
            c.base.rejected,
            requests.len()
        ));
    }
    check_report(&c.base, requests, c.shed + c.failed)?;
    let mut d = Digest::default();
    report_digest(&mut d, &c.base);
    d.count("admitted", c.admitted as u64);
    d.count("completed", c.completed as u64);
    d.count("degraded", c.degraded as u64);
    d.count("shed", c.shed as u64);
    d.count("failed", c.failed as u64);
    d.count("requeues", c.requeues);
    d.count("fault_events", c.fault_events.len() as u64);
    d.float("lost_seconds", c.lost_seconds);
    d.count("preemptions", r.preemptions);
    d.float("preempt_lost_s", r.preempt_lost_s);
    Ok(d)
}
