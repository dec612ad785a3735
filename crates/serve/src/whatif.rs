//! `serve::whatif` — Coz-style what-if projection over the recorded
//! causal DAG, validated against ground-truth re-runs.
//!
//! The causal profiler's question is the paper's question: *what would
//! actually get faster if a resource did?* Additive attribution can't
//! answer it — a phase can carry hours of accrued time entirely off
//! the critical path. This module answers it twice and compares:
//!
//! 1. **Projection** — replay the provenance DAG recorded by
//!    [`crate::server::run_serve`] (see [`crate::server::CausalLog`])
//!    with one resource virtually scaled. Every event's new fire time
//!    is its parent's new fire time plus its (scaled) edge duration;
//!    the [`SegmentSplit`] annotations let queueing, service and
//!    one-time compile scale differently. The projected makespan is
//!    the latest projected completion, floored at the last arrival.
//! 2. **Validation** — re-run the simulator for real with the same
//!    scaling applied to the cost table (or worker pool / cache
//!    capacity), and report the projection error.
//!
//! Documented tolerances, gated by `tests/causal.rs` on the quick
//! `cold` scenario:
//!
//! - an **on-path** what-if (its target carries at least
//!   [`WHATIF_ON_PATH_SHARE`] of the critical path) must project the
//!   re-run makespan within [`WHATIF_ON_PATH_TOLERANCE_PP`] percentage
//!   points of the baseline makespan;
//! - an **off-path** what-if must project a makespan change below
//!   [`WHATIF_OFF_PATH_DELTA_PP`] percentage points — in particular,
//!   "GPU 2× faster" both projects and measures under 1% on `cold`,
//!   the causal form of the paper's GPU-starvation finding.
//!
//! The projection is exact at scale 1 (edge durations telescope back
//! to the recorded fire times), so all error comes from what the
//! single-parent DAG abstracts away: re-runs re-form batches and
//! re-order worker queues, the replay does not.

use crate::scenario::cold_config;
use crate::server::{run_serve, CausalLog, CostTable, RequestOutcome, SegmentSplit, ServeConfig};
use afsb_rt::obs::causal::{critical_path, CriticalPath};
use afsb_rt::obs::ObsSession;
use afsb_rt::sim::WaitEdge;
use std::fmt::Write as _;

/// A critical-path share at or above this marks a what-if's target
/// resource as *on-path* (its projection is held to the on-path
/// tolerance; below it the projection must be near-zero).
pub const WHATIF_ON_PATH_SHARE: f64 = 0.05;

/// On-path projections must land within this many percentage points of
/// the baseline makespan from the validated re-run. The gap is the
/// DAG's abstraction cost: a real re-run re-forms batches and worker
/// queues, the single-parent replay keeps the recorded shape.
pub const WHATIF_ON_PATH_TOLERANCE_PP: f64 = 10.0;

/// Off-path what-ifs must project a makespan change below this many
/// percentage points (Coz's null result: speeding up an off-path
/// resource buys nothing).
pub const WHATIF_OFF_PATH_DELTA_PP: f64 = 1.0;

/// A virtual speedup to project and validate. Scale factors are
/// speedups (`2.0` = the resource is twice as fast, durations halve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WhatIf {
    /// MSA service `k`× faster (pool workers and the queueing they
    /// cause — everyone's service shrinks, so queue waits shrink too).
    ScaleMsa(f64),
    /// GPU service `k`× faster (init, dispatch, kernel compute, and
    /// the gpu-busy queueing behind them; one-time XLA compile is
    /// explicitly *not* included).
    ScaleGpu(f64),
    /// One-time XLA compilation `k`× faster, everything else fixed.
    ScaleCompile(f64),
    /// `n` extra CPU pool workers: worker-queue waits shrink by
    /// `W/(W+n)`, service is untouched.
    AddWorkers(usize),
    /// Infinite feature cache. Structural — the recorded DAG already
    /// paid each miss, so the projection is a deliberate null (Δ 0);
    /// the re-run measures what capacity actually buys (also 0 when
    /// the run never evicted).
    InfiniteCache,
}

impl WhatIf {
    /// Stable metric/report label (`msa_2x`, `workers_plus4`, ...).
    pub fn label(&self) -> String {
        match self {
            WhatIf::ScaleMsa(k) => format!("msa_{k}x"),
            WhatIf::ScaleGpu(k) => format!("gpu_{k}x"),
            WhatIf::ScaleCompile(k) => format!("xla_{k}x"),
            WhatIf::AddWorkers(n) => format!("workers_plus{n}"),
            WhatIf::InfiniteCache => "cache_inf".to_owned(),
        }
    }

    /// The fraction of the whole-run critical path this what-if's
    /// target resource carries (compile and worker-wait targets use
    /// the recorded splits, not whole edges).
    pub fn target_share(&self, path: &CriticalPath, log: &CausalLog) -> f64 {
        let span: f64 = path.segments.iter().map(|s| s.duration_s()).sum();
        if span <= 0.0 {
            return 0.0;
        }
        let shares = path.blame(0.0);
        let split_sum = |edge: WaitEdge, pick: fn(&SegmentSplit) -> f64| -> f64 {
            path.segments
                .iter()
                .filter(|s| s.edge == edge)
                .filter_map(|s| log.splits.get(&s.seq).map(pick))
                .sum()
        };
        let target = match self {
            WhatIf::ScaleMsa(_) => shares[WaitEdge::WorkerBusy.index()],
            WhatIf::ScaleGpu(_) => shares[WaitEdge::GpuBusy.index()],
            WhatIf::ScaleCompile(_) => split_sum(WaitEdge::GpuBusy, |s| s.compile_s),
            WhatIf::AddWorkers(_) => split_sum(WaitEdge::WorkerBusy, |s| s.wait_s),
            WhatIf::InfiniteCache => shares[WaitEdge::CacheFill.index()],
        };
        target / span
    }
}

/// The canonical projection set behind `afsysbench serve-whatif`.
pub fn canonical_whatifs() -> [WhatIf; 5] {
    [
        WhatIf::ScaleMsa(2.0),
        WhatIf::ScaleGpu(2.0),
        WhatIf::ScaleCompile(2.0),
        WhatIf::AddWorkers(4),
        WhatIf::InfiniteCache,
    ]
}

/// One edge's duration under the virtual speedup. `dur` is the
/// recorded duration; missing splits treat the whole edge as service.
fn scaled_edge_s(
    edge: WaitEdge,
    dur: f64,
    split: Option<&SegmentSplit>,
    workers: usize,
    what: WhatIf,
) -> f64 {
    let sp = split.copied().unwrap_or(SegmentSplit {
        wait_s: 0.0,
        service_s: dur,
        compile_s: 0.0,
    });
    match (edge, what) {
        // A faster MSA shrinks both the service and the queue wait
        // (the wait is other requests' MSA service draining ahead).
        (WaitEdge::WorkerBusy, WhatIf::ScaleMsa(k)) => (sp.wait_s + sp.service_s) / k,
        (WaitEdge::WorkerBusy, WhatIf::AddWorkers(n)) => {
            sp.wait_s * workers as f64 / (workers + n) as f64 + sp.service_s
        }
        // A faster GPU shrinks its service and the drain wait behind
        // the previous batch, but not the one-time compile.
        (WaitEdge::GpuBusy, WhatIf::ScaleGpu(k)) => (sp.wait_s + sp.service_s) / k + sp.compile_s,
        (WaitEdge::GpuBusy, WhatIf::ScaleCompile(k)) => sp.wait_s + sp.service_s + sp.compile_s / k,
        _ => dur,
    }
}

/// Project the makespan under `what` by replaying the recorded DAG:
/// every event fires at its parent's projected time plus its scaled
/// edge duration, and the makespan is the latest projected completion
/// (floored at the last arrival, which never moves).
pub fn predict_makespan(log: &CausalLog, config: &ServeConfig, what: WhatIf) -> f64 {
    let edges = &log.edges;
    let mut t = vec![0.0f64; edges.len()];
    let mut last_arrival = 0.0f64;
    for e in edges {
        let (parent_at, parent_t) = match e.parent {
            Some(p) => (edges[p as usize].at_s, t[p as usize]),
            None => (0.0, 0.0),
        };
        let dur = (e.at_s - parent_at).max(0.0);
        t[e.seq as usize] = parent_t
            + scaled_edge_s(
                e.edge,
                dur,
                log.splits.get(&e.seq),
                config.cpu_workers,
                what,
            );
        if e.label == "arrival" && !e.cancelled {
            last_arrival = last_arrival.max(t[e.seq as usize]);
        }
    }
    log.completions
        .iter()
        .flatten()
        .map(|&seq| t[seq as usize])
        .fold(last_arrival, f64::max)
}

/// The cost table under `what` — the ground-truth twin of
/// [`predict_makespan`]'s virtual scaling.
pub fn scaled_costs(costs: &CostTable, what: WhatIf) -> CostTable {
    let mut out = costs.clone();
    match what {
        WhatIf::ScaleMsa(k) => {
            for shape in out.shapes.values_mut() {
                shape.msa_s /= k;
            }
        }
        WhatIf::ScaleGpu(k) => {
            out.init_s /= k;
            out.dispatch_s /= k;
            for shape in out.shapes.values_mut() {
                shape.compute_s /= k;
            }
        }
        WhatIf::ScaleCompile(k) => {
            for shape in out.shapes.values_mut() {
                shape.compile_s /= k;
            }
        }
        WhatIf::AddWorkers(_) | WhatIf::InfiniteCache => {}
    }
    out
}

/// The serving config under `what` (worker pool / cache capacity).
pub fn scaled_config(config: &ServeConfig, what: WhatIf) -> ServeConfig {
    let mut out = *config;
    match what {
        WhatIf::AddWorkers(n) => out.cpu_workers += n,
        WhatIf::InfiniteCache => out.cache_capacity_bytes = u64::MAX,
        _ => {}
    }
    out
}

/// One projected-and-validated what-if.
#[derive(Debug, Clone)]
pub struct WhatIfRow {
    /// The virtual speedup.
    pub what: WhatIf,
    /// [`WhatIf::label`], precomputed.
    pub label: String,
    /// Critical-path share of the target resource.
    pub target_share: f64,
    /// Whether the target is on the critical path
    /// ([`WHATIF_ON_PATH_SHARE`]).
    pub on_path: bool,
    /// Makespan projected from the recorded DAG.
    pub predicted_makespan_s: f64,
    /// Makespan measured by the validated re-run.
    pub actual_makespan_s: f64,
}

impl WhatIfRow {
    /// Projected makespan change, percent of `baseline` (negative =
    /// faster).
    pub fn predicted_delta_pct(&self, baseline: f64) -> f64 {
        (self.predicted_makespan_s - baseline) / baseline * 100.0
    }

    /// Measured makespan change, percent of `baseline`.
    pub fn actual_delta_pct(&self, baseline: f64) -> f64 {
        (self.actual_makespan_s - baseline) / baseline * 100.0
    }

    /// Projection error in percentage points of the baseline makespan.
    pub fn error_pp(&self, baseline: f64) -> f64 {
        (self.predicted_makespan_s - self.actual_makespan_s).abs() / baseline * 100.0
    }
}

/// Everything the `serve-whatif` experiment produced.
pub struct WhatIfReport {
    /// Quick mode flag (affects stream size only).
    pub quick: bool,
    /// Baseline makespan of the provenance-armed `cold` run.
    pub baseline_makespan_s: f64,
    /// Baseline throughput.
    pub baseline_qph: f64,
    /// The whole-run critical path (from the makespan-terminating
    /// completion).
    pub path: CriticalPath,
    /// The recorded causal log the projections replayed.
    pub log: CausalLog,
    /// Per-finished-request binding constraint counts, indexed per
    /// [`WaitEdge::index`].
    pub bindings: [usize; 7],
    /// Finished requests that accrued `batch_wait` yet are *not* bound
    /// by batch-close — additive attribution flags a phase their
    /// completion never causally waited on.
    pub off_path_batch_waiters: usize,
    /// The projected-and-validated what-if rows, canonical order.
    pub rows: Vec<WhatIfRow>,
    /// The baseline run's observability session (trace + metrics).
    pub obs: ObsSession,
}

/// Run the canonical what-if experiment: the quick/full `cold` serving
/// scenario with provenance armed, the whole-run critical path, the
/// per-request binding classification, and every
/// [`canonical_whatifs`] row projected then validated by a re-run.
pub fn run_whatif(quick: bool) -> WhatIfReport {
    let mut config = cold_config(quick);
    config.provenance = true;
    let costs = CostTable::canonical(quick);

    let mut obs = ObsSession::new();
    let report = run_serve(&config, costs, &mut obs);
    let log = report.causal.clone().expect("provenance was armed");
    let makespan_event = log.makespan_event.expect("cold serves requests");
    let path = critical_path(&log.edges, makespan_event);

    let mut bindings = [0usize; 7];
    let mut off_path_batch_waiters = 0usize;
    for (i, completion) in log.completions.iter().enumerate() {
        let Some(seq) = completion else { continue };
        let o: &RequestOutcome = &report.outcomes[i];
        let binding = critical_path(&log.edges, *seq).binding(o.request.arrival_s);
        bindings[binding.index()] += 1;
        if o.segments.batch_wait_s > 0.0 && binding != WaitEdge::BatchClose {
            off_path_batch_waiters += 1;
        }
    }

    let rows = canonical_whatifs()
        .iter()
        .map(|&what| {
            let target_share = what.target_share(&path, &log);
            let predicted_makespan_s = predict_makespan(&log, &config, what);
            let mut re_config = scaled_config(&config, what);
            re_config.provenance = false;
            let re_costs = scaled_costs(costs, what);
            let mut re_obs = ObsSession::new();
            let re_report = run_serve(&re_config, &re_costs, &mut re_obs);
            WhatIfRow {
                what,
                label: what.label(),
                target_share,
                on_path: target_share >= WHATIF_ON_PATH_SHARE,
                predicted_makespan_s,
                actual_makespan_s: re_report.makespan_s,
            }
        })
        .collect();

    WhatIfReport {
        quick,
        baseline_makespan_s: report.makespan_s,
        baseline_qph: report.throughput_qph,
        path,
        log,
        bindings,
        off_path_batch_waiters,
        rows,
        obs,
    }
}

/// Deterministic ASCII report: the whole-run critical path, the
/// binding-constraint census, and the projected-vs-validated table.
pub fn render_whatif(r: &WhatIfReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "what-if projection: cold scenario, baseline makespan {:.1} s ({:.2} queries/h)",
        r.baseline_makespan_s, r.baseline_qph
    );
    out.push('\n');
    out.push_str(&r.path.render("whole-run (makespan completion)"));
    out.push('\n');
    out.push_str("binding constraint per finished request (path clipped to its arrival):\n");
    for &edge in &WaitEdge::ALL {
        if r.bindings[edge.index()] > 0 {
            let _ = writeln!(
                out,
                "  {:<12} {:>6}",
                edge.label(),
                r.bindings[edge.index()]
            );
        }
    }
    let _ = writeln!(
        out,
        "  requests with batch_wait accrued off their critical path: {}",
        r.off_path_batch_waiters
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "  {:<14} {:>6} {:>8} {:>12} {:>12} {:>8} {:>8} {:>7}",
        "what-if", "share", "on-path", "predicted s", "actual s", "pred Δ%", "act Δ%", "err pp"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "  {:<14} {:>5.1}% {:>8} {:>12.1} {:>12.1} {:>8.2} {:>8.2} {:>7.2}",
            row.label,
            row.target_share * 100.0,
            if row.on_path { "yes" } else { "no" },
            row.predicted_makespan_s,
            row.actual_makespan_s,
            row.predicted_delta_pct(r.baseline_makespan_s),
            row.actual_delta_pct(r.baseline_makespan_s),
            row.error_pp(r.baseline_makespan_s)
        );
    }
    let _ = writeln!(
        out,
        "  tolerances: on-path share ≥ {:.0}%, on-path err ≤ {:.0} pp, off-path |pred Δ| < {:.0} pp",
        WHATIF_ON_PATH_SHARE * 100.0,
        WHATIF_ON_PATH_TOLERANCE_PP,
        WHATIF_OFF_PATH_DELTA_PP
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_is_exact_at_scale_one() {
        let r = run_whatif(true);
        // Replaying with a 1× "speedup" must telescope back to the
        // recorded makespan (float re-accumulation only).
        let config = cold_config(true);
        let identity = predict_makespan(&r.log, &config, WhatIf::ScaleMsa(1.0));
        let err = (identity - r.baseline_makespan_s).abs() / r.baseline_makespan_s;
        assert!(err < 1e-9, "identity replay drifted: {err}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(WhatIf::ScaleMsa(2.0).label(), "msa_2x");
        assert_eq!(WhatIf::ScaleGpu(2.0).label(), "gpu_2x");
        assert_eq!(WhatIf::ScaleCompile(2.0).label(), "xla_2x");
        assert_eq!(WhatIf::AddWorkers(4).label(), "workers_plus4");
        assert_eq!(WhatIf::InfiniteCache.label(), "cache_inf");
    }

    #[test]
    fn scaled_costs_touch_only_their_target() {
        let costs = CostTable::canonical(true);
        let msa = scaled_costs(costs, WhatIf::ScaleMsa(2.0));
        let gpu = scaled_costs(costs, WhatIf::ScaleGpu(2.0));
        let xla = scaled_costs(costs, WhatIf::ScaleCompile(2.0));
        for (id, base) in &costs.shapes {
            assert_eq!(msa.shapes[id].msa_s, base.msa_s / 2.0);
            assert_eq!(msa.shapes[id].compute_s, base.compute_s);
            assert_eq!(gpu.shapes[id].compute_s, base.compute_s / 2.0);
            assert_eq!(gpu.shapes[id].msa_s, base.msa_s);
            assert_eq!(xla.shapes[id].compile_s, base.compile_s / 2.0);
            assert_eq!(xla.shapes[id].compute_s, base.compute_s);
        }
        assert_eq!(gpu.init_s, costs.init_s / 2.0);
        assert_eq!(xla.init_s, costs.init_s);
        let cfg = cold_config(true);
        assert_eq!(
            scaled_config(&cfg, WhatIf::AddWorkers(4)).cpu_workers,
            cfg.cpu_workers + 4
        );
        assert_eq!(
            scaled_config(&cfg, WhatIf::InfiniteCache).cache_capacity_bytes,
            u64::MAX
        );
    }
}
