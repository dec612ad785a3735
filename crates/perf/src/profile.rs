//! Profiling experiment drivers: run a workload under the tracer, build
//! every report engine, and fold the result into a [`PerfBaseline`]
//! ready to serialize as `BENCH_<experiment>.json`.
//!
//! Three experiments are profiled:
//!
//! * `pipeline` — the end-to-end S2pv7 run on the Server (the paper's
//!   headline workload), yielding Tables III–V, the sampled profile,
//!   and the iostat timeline.
//! * `msa-sweep` — the S6qnr MSA thread sweep (Fig. 5), yielding per
//!   thread-count wall/CPU/I/O metrics plus the 4-thread symbol table.
//! * `serve` — the canonical multi-query serving scenarios (feature
//!   cache and GPU batching ablations), yielding per-scenario
//!   throughput, latency percentiles, hit rate and occupancy.
//! * `serve-xl` — the same ablations at production scale (10k requests
//!   quick, 100k full; 500–2000 entity catalog, 64 workers, batch 8,
//!   miss coalescing on) — the event engine's scale exercise.
//! * `serve-chaos` — the canonical fault-injection matrix (fault-free
//!   baseline, worker-churn, storage-brownout, gpu-flap, kitchen-sink)
//!   with the recovery policy on, yielding per-scenario availability,
//!   goodput, disposition counts and fault/lost-time accounting.
//! * `serve-whatif` — the causal profiler: critical-path blame shares
//!   over the provenance-armed `cold` scenario, per-request binding
//!   classification, and every canonical virtual speedup projected
//!   from the recorded DAG then validated by a ground-truth re-run.
//! * `serve-policy` — the scheduling-policy matrix over the `cold`
//!   scenario (FIFO baseline, SJF, EDF, shape-bucketed batching,
//!   checkpoint-yield preemption, speculative degradation), yielding
//!   per-policy throughput, exact p50/p99, occupancy and goodput, the
//!   FIFO-dominance count, and the winner's what-if validation error.
//!
//! All are fully deterministic: the same seed and mode produce a
//! byte-identical baseline file.

use crate::baseline::{PerfBaseline, SampledSummary, SymbolTable};
use crate::iostat::IostatTimeline;
use crate::record::{SampledProfile, DEFAULT_SAMPLES};
use crate::stat::{cpu_derived, symbol_rows, CpuDerived, PerfStatReport};
use afsb_core::context::{scale, BenchContext};
use afsb_core::msa_phase::MsaPhaseOptions;
use afsb_core::pipeline::PipelineOptions;
use afsb_core::runner::{msa_thread_sweep, MSA_THREAD_SWEEP};
use afsb_core::trace::{record_msa_phase, run_pipeline_traced};
use afsb_model::ModelConfig;
use afsb_rt::obs::ObsSession;
use afsb_seq::samples::SampleId;
use afsb_serve::{PolicyReport, ScenarioRun};
use afsb_simarch::Platform;
use std::fmt::Write as _;

/// One profiling experiment: its name and its driver (`quick` in).
pub type Profile = (&'static str, fn(bool) -> ProfileArtifacts);

/// Experiments `afsysbench profile` understands, in listing order,
/// with their drivers.
pub const PROFILES: [Profile; 7] = [
    ("pipeline", profile_pipeline),
    ("msa-sweep", profile_msa_sweep),
    ("serve", profile_serve),
    ("serve-xl", profile_serve_xl),
    ("serve-chaos", profile_serve_chaos),
    ("serve-whatif", profile_serve_whatif),
    ("serve-policy", profile_serve_policy),
];

/// The names of [`PROFILES`], comma-separated (usage and error text).
pub fn profile_names() -> String {
    PROFILES.map(|(name, _)| name).join(", ")
}

/// Seed shared by the profiled runs (matches the bench harness).
pub const PROFILE_SEED: u64 = 17;

/// How many leaf symbols the baseline's sampled top-N keeps.
pub const SAMPLED_TOP_N: usize = 10;

/// Everything one `profile` invocation produces.
#[derive(Debug, Clone)]
pub struct ProfileArtifacts {
    /// The diffable baseline (serialize with `to_json().pretty()`).
    pub baseline: PerfBaseline,
    /// Human-readable session report (stat + sampled + iostat).
    pub report_text: String,
    /// Collapsed stacks — flamegraph input.
    pub collapsed: String,
    /// Serving gauge timeline + SLO log (`--timeline` artifact);
    /// `Some` for the telemetry-armed serving experiments.
    pub timeline: Option<String>,
    /// Serving latency histogram bucket dump (CSV, `--timeline`
    /// artifact); `Some` whenever a serving run was profiled.
    pub latency_csv: Option<String>,
    /// Whole-run critical path per scenario (`--critical-path`
    /// artifact): ASCII blame report plus the collapsed-stack export;
    /// `Some` when the profiled run recorded provenance.
    pub critpath: Option<String>,
}

/// The canonical baseline file name for an experiment
/// (`BENCH_pipeline.json`, `BENCH_msa_sweep.json`).
pub fn baseline_file_name(experiment: &str) -> String {
    format!("BENCH_{}.json", experiment.replace('-', "_"))
}

/// Run the named profiling experiment. `Err` lists the known
/// experiments when the name is unknown.
pub fn run_profile(experiment: &str, quick: bool) -> Result<ProfileArtifacts, String> {
    let (_, profile) = PROFILES
        .iter()
        .find(|(name, _)| *name == experiment)
        .ok_or_else(|| {
            format!(
                "unknown profile experiment `{experiment}` (available: {})",
                profile_names()
            )
        })?;
    Ok(profile(quick))
}

fn push_derived(metrics: &mut Vec<(String, f64)>, prefix: &str, d: &CpuDerived) {
    metrics.push((format!("{prefix}.ipc"), d.ipc));
    metrics.push((
        format!("{prefix}.cache_miss_per_kinst"),
        d.cache_miss_per_kinst,
    ));
    metrics.push((format!("{prefix}.l1_miss_pct"), d.l1_miss_pct));
    metrics.push((format!("{prefix}.llc_miss_pct"), d.llc_miss_pct));
    metrics.push((format!("{prefix}.dtlb_miss_pct"), d.dtlb_miss_pct));
    metrics.push((format!("{prefix}.branch_miss_pct"), d.branch_miss_pct));
    metrics.push((format!("{prefix}.dram_bw_util_pct"), d.dram_bw_util_pct));
}

/// Profile the end-to-end pipeline (S2pv7, Server, 4 threads).
pub fn profile_pipeline(quick: bool) -> ProfileArtifacts {
    let (config, sample_cap) = scale(quick);
    let mut ctx = BenchContext::new(config);
    let data = ctx.sample_data(SampleId::S2pv7);
    let options = PipelineOptions {
        msa: MsaPhaseOptions {
            sample_cap,
            ..MsaPhaseOptions::default()
        },
        model: Some(ModelConfig::paper()),
        seed: PROFILE_SEED,
    };
    let mut obs = ObsSession::new();
    let result = run_pipeline_traced(&data, Platform::Server, 4, &options, &mut obs);

    let stat = PerfStatReport::from_pipeline(&data, &result);
    let sampled = SampledProfile::capture_n(&obs.tracer, DEFAULT_SAMPLES);
    let iostat = IostatTimeline::sample_msa(&result.msa, result.msa.wall_seconds().max(1.0) / 50.0);

    let mut metrics = Vec::new();
    metrics.push(("wall.msa_s".to_owned(), stat.msa_wall_s));
    metrics.push(("wall.inference_s".to_owned(), stat.inference_wall_s));
    metrics.push(("wall.total_s".to_owned(), stat.total_s));
    push_derived(&mut metrics, "derived", &stat.msa_derived);
    push_derived(&mut metrics, "host", &stat.host_derived);
    let g = &stat.gpu;
    metrics.push(("gpu.roofline_attainment".to_owned(), g.roofline.attainment));
    metrics.push(("gpu.sm_occupancy".to_owned(), g.roofline.sm_occupancy));
    metrics.push((
        "gpu.memory_bound_frac".to_owned(),
        g.roofline.memory_bound_fraction,
    ));
    metrics.push(("gpu.launch_share".to_owned(), g.roofline.launch_share));
    metrics.push(("gpu.overhead_share".to_owned(), g.overhead_share));
    metrics.push(("gpu.uvm_fraction".to_owned(), g.uvm_fraction));
    metrics.push(("iostat.mean_util_pct".to_owned(), iostat.mean_util_pct()));
    metrics.push(("iostat.stall_s".to_owned(), iostat.stall_seconds()));

    let baseline = PerfBaseline {
        experiment: "pipeline".to_owned(),
        seed: PROFILE_SEED,
        quick,
        metrics,
        symbol_tables: vec![
            SymbolTable {
                name: "msa".to_owned(),
                rows: stat.msa_symbols.clone(),
            },
            SymbolTable {
                name: "host".to_owned(),
                rows: stat.host_symbols.clone(),
            },
        ],
        sampled: SampledSummary::from_profile(&sampled, SAMPLED_TOP_N),
    };

    let mut report_text = stat.render();
    report_text.push('\n');
    report_text.push_str(&sampled.render_top(SAMPLED_TOP_N));
    report_text.push('\n');
    report_text.push_str(&iostat.render());

    ProfileArtifacts {
        baseline,
        report_text,
        collapsed: sampled.collapsed(),
        timeline: None,
        latency_csv: None,
        critpath: None,
    }
}

/// Profile the MSA thread sweep (S6qnr, Server, Fig. 5 thread counts).
pub fn profile_msa_sweep(quick: bool) -> ProfileArtifacts {
    let (config, sample_cap) = scale(quick);
    let mut ctx = BenchContext::new(config);
    let data = ctx.sample_data(SampleId::S6qnr);
    let options = MsaPhaseOptions {
        sample_cap,
        ..MsaPhaseOptions::default()
    };
    let sweep = msa_thread_sweep(&data, Platform::Server, &MSA_THREAD_SWEEP, &options);

    // Lay every sweep point into one trace so the sampled profile covers
    // the whole experiment.
    let mut obs = ObsSession::new();
    obs.tracer.begin("msa_sweep");
    for (_, r) in &sweep {
        record_msa_phase(&data, r, &mut obs);
    }
    obs.tracer.end();
    let sampled = SampledProfile::capture_n(&obs.tracer, DEFAULT_SAMPLES);

    let mut metrics = Vec::new();
    let mut report_text = String::new();
    let _ = writeln!(
        report_text,
        "msa thread sweep: {} on {} (sample_cap {})",
        data.sample.id.name(),
        Platform::Server,
        sample_cap
    );
    let _ = writeln!(
        report_text,
        "{:>8} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "threads", "wall_s", "cpu_s", "io_s", "ipc", "%util"
    );
    for (t, r) in &sweep {
        let d = cpu_derived(&r.sim, Platform::Server);
        metrics.push((format!("sweep.t{t}.wall_s"), r.wall_seconds()));
        metrics.push((format!("sweep.t{t}.cpu_s"), r.cpu_seconds));
        metrics.push((format!("sweep.t{t}.io_added_s"), r.io_added_seconds));
        metrics.push((format!("sweep.t{t}.ipc"), d.ipc));
        metrics.push((format!("sweep.t{t}.nvme_util_pct"), r.iostat.util_pct));
        let _ = writeln!(
            report_text,
            "{:>8} {:>10.2} {:>10.2} {:>10.2} {:>8.2} {:>8.1}",
            t,
            r.wall_seconds(),
            r.cpu_seconds,
            r.io_added_seconds,
            d.ipc,
            r.iostat.util_pct
        );
    }

    // Symbol attribution at the paper's default 4-thread point.
    let four = sweep
        .iter()
        .find(|(t, _)| *t == 4)
        .map(|(_, r)| r)
        .unwrap_or(&sweep[0].1);
    let symbol_tables = vec![SymbolTable {
        name: "msa".to_owned(),
        rows: symbol_rows(&four.sim.report),
    }];

    report_text.push('\n');
    report_text.push_str(&sampled.render_top(SAMPLED_TOP_N));

    ProfileArtifacts {
        baseline: PerfBaseline {
            experiment: "msa-sweep".to_owned(),
            seed: options.seed,
            quick,
            metrics,
            symbol_tables,
            sampled: SampledSummary::from_profile(&sampled, SAMPLED_TOP_N),
        },
        report_text,
        collapsed: sampled.collapsed(),
        timeline: None,
        latency_csv: None,
        critpath: None,
    }
}

/// Profile the canonical serving scenarios (Server, quick or full
/// stream), each [`observed`](afsb_serve::Scenario::observed) —
/// telemetry and provenance are observation-only, so every
/// pre-existing metric matches a bare run bit for bit, while
/// `attr.*`/`slo.*` metrics, the `--timeline` artifact and the
/// `--critical-path` artifact are added. Metrics are prefixed per
/// scenario (`cold.qph`, …); the sampled profile covers the cold
/// scenario's trace.
pub fn profile_serve(quick: bool) -> ProfileArtifacts {
    let scenarios = afsb_serve::default_scenarios(quick)
        .into_iter()
        .map(|s| s.observed(quick))
        .collect();
    let runs = afsb_serve::run_scenarios(scenarios, quick);
    let summary = afsb_serve::render_summary(&runs);
    SERVE.emit(&runs, summary, Vec::new(), quick)
}

/// Profile the XL serving scenarios — the same four ablations over a
/// 10k-request (quick) / 100k-request (full) Poisson/Zipf stream with
/// miss coalescing on. Adds the coalescing counter per scenario.
pub fn profile_serve_xl(quick: bool) -> ProfileArtifacts {
    let runs = afsb_serve::run_scenarios(afsb_serve::xl_scenarios(quick), quick);
    let summary = afsb_serve::render_summary(&runs);
    SERVE_XL.emit(&runs, summary, Vec::new(), quick)
}

/// Profile the serve-chaos matrix — the canonical fault-injection
/// scenarios with the recovery policy on, each observed. Metrics are
/// prefixed per scenario (`kitchen-sink.goodput`, …); the sampled
/// profile covers the kitchen-sink trace, the fault-richest scenario.
pub fn profile_serve_chaos(quick: bool) -> ProfileArtifacts {
    let scenarios = afsb_serve::chaos_scenarios(quick)
        .into_iter()
        .map(|s| s.observed(quick))
        .collect();
    let runs = afsb_serve::run_scenarios(scenarios, quick);
    let summary = afsb_serve::render_chaos_summary(&runs);
    SERVE_CHAOS.emit(&runs, summary, Vec::new(), quick)
}

/// Profile the causal what-if experiment: critical-path extraction
/// over the provenance-armed `cold` scenario plus every canonical
/// virtual speedup projected from the recorded DAG and validated by a
/// ground-truth re-run. The `whatif.*` metrics carry both sides of
/// each projection, so the committed baseline gates the projector's
/// accuracy itself.
pub fn profile_serve_whatif(quick: bool) -> ProfileArtifacts {
    let r = afsb_serve::run_whatif(quick);
    let mut metrics = Vec::new();
    metrics.push(("wall.cold_makespan_s".to_owned(), r.baseline_makespan_s));
    metrics.push(("cold.qph".to_owned(), r.baseline_qph));
    for (edge, _, share) in r.path.blame_shares(0.0) {
        metrics.push((format!("critpath.{}.share", edge.label()), share));
    }
    for &edge in &afsb_rt::sim::WaitEdge::ALL {
        metrics.push((
            format!("binding.{}", edge.label()),
            r.bindings[edge.index()] as f64,
        ));
    }
    metrics.push((
        "binding.off_path_batch_waiters".to_owned(),
        r.off_path_batch_waiters as f64,
    ));
    for row in &r.rows {
        let p = &row.label;
        metrics.push((format!("whatif.{p}.target_share"), row.target_share));
        metrics.push((
            format!("whatif.{p}.predicted_delta_pct"),
            row.predicted_delta_pct(r.baseline_makespan_s),
        ));
        metrics.push((
            format!("whatif.{p}.actual_delta_pct"),
            row.actual_delta_pct(r.baseline_makespan_s),
        ));
        metrics.push((
            format!("whatif.{p}.error_pp"),
            row.error_pp(r.baseline_makespan_s),
        ));
    }

    let sampled = SampledProfile::capture_n(&r.obs.tracer, DEFAULT_SAMPLES);
    let mut report_text = afsb_serve::render_whatif(&r);
    report_text.push('\n');
    report_text.push_str(&sampled.render_top(SAMPLED_TOP_N));

    let mut critpath = r.path.render("cold");
    critpath.push('\n');
    critpath.push_str(&r.path.collapsed("critpath;cold"));

    ProfileArtifacts {
        baseline: PerfBaseline {
            experiment: "serve-whatif".to_owned(),
            seed: afsb_serve::scenario::SERVE_SEED,
            quick,
            metrics,
            symbol_tables: Vec::new(),
            sampled: SampledSummary::from_profile(&sampled, SAMPLED_TOP_N),
        },
        report_text,
        collapsed: sampled.collapsed(),
        timeline: None,
        latency_csv: None,
        critpath: Some(critpath),
    }
}

/// Profile the scheduling-policy matrix: every policy's throughput,
/// exact rank-statistic p50/p99 (not the bucket-quantized histogram
/// estimates), GPU occupancy, goodput and disposition counts, plus the
/// two gated verdicts — how many policies strictly dominate FIFO on
/// both axes, and the winner's measured-vs-projected makespan delta
/// from the causal what-if replay. Committing the baseline makes both
/// verdicts diffable: `perf-diff` fails if a refactor costs the
/// dominance or drifts the projection.
pub fn profile_serve_policy(quick: bool) -> ProfileArtifacts {
    let matrix = afsb_serve::run_policy_matrix(quick);
    let mut verdicts = vec![(
        "dominance.policies_beating_fifo".to_owned(),
        matrix.dominating().len() as f64,
    )];
    if let Some(v) = &matrix.whatif {
        verdicts.extend([
            ("whatif.speedup".to_owned(), v.speedup),
            (
                "whatif.predicted_delta_pct".to_owned(),
                v.predicted_delta_pct,
            ),
            ("whatif.measured_delta_pct".to_owned(), v.measured_delta_pct),
            ("whatif.error_pp".to_owned(), v.error_pp),
        ]);
    }
    let summary = afsb_serve::render_policy_matrix(&matrix);
    SERVE_POLICY.emit(&matrix.runs, summary, verdicts, quick)
}

/// One serving metric: a key and its value for one run (`None` skips
/// the metric for that run). Key `k` emits `{scenario}.k`; key
/// `wall.k` emits `wall.{scenario}_k`.
type Column = (&'static str, fn(&PolicyReport) -> Option<f64>);

/// A serving experiment profiled from a run set: its per-run metric
/// columns and the run whose trace and latency histogram are captured.
struct ServingProfile {
    experiment: &'static str,
    columns: &'static [Column],
    sampled_run: &'static str,
}

/// The throughput, cache, batching and latency columns of the
/// canonical and XL scenario sets.
const SCENARIO_COLUMNS: &[Column] = &[
    ("qph", |r| Some(r.base().throughput_qph)),
    ("wall.makespan_s", |r| Some(r.base().makespan_s)),
    ("cache_hit_rate", |r| Some(r.base().cache_hit_rate)),
    ("gpu_occupancy", |r| Some(r.base().gpu_occupancy)),
    ("gpu_batches", |r| Some(r.base().batches as f64)),
    ("deadline_missed", |r| Some(r.base().deadline_missed as f64)),
    ("cache_coalesced", |r| {
        let n = r.base().cache_coalesced;
        (n > 0).then_some(n as f64)
    }),
    ("latency_p50_s", |r| {
        r.base().latency.as_ref().map(|l| l.p50)
    }),
    ("latency_p90_s", |r| {
        r.base().latency.as_ref().map(|l| l.p90)
    }),
    ("latency_p99_s", |r| {
        r.base().latency.as_ref().map(|l| l.p99)
    }),
];

const SERVE: ServingProfile = ServingProfile {
    experiment: "serve",
    columns: SCENARIO_COLUMNS,
    sampled_run: "cold",
};

const SERVE_XL: ServingProfile = ServingProfile {
    experiment: "serve-xl",
    columns: SCENARIO_COLUMNS,
    sampled_run: "cold",
};

const SERVE_CHAOS: ServingProfile = ServingProfile {
    experiment: "serve-chaos",
    columns: &[
        ("availability", |r| Some(r.chaos.availability)),
        ("goodput", |r| Some(r.chaos.goodput)),
        ("completed", |r| Some(r.chaos.completed as f64)),
        ("degraded", |r| Some(r.chaos.degraded as f64)),
        ("degraded_attempts", |r| {
            Some(r.chaos.degraded_attempts as f64)
        }),
        ("shed", |r| Some(r.chaos.shed as f64)),
        ("failed", |r| Some(r.chaos.failed as f64)),
        ("requeues", |r| Some(r.chaos.requeues as f64)),
        ("faults", |r| Some(r.chaos.fault_events.len() as f64)),
        ("lost_s", |r| Some(r.chaos.lost_seconds)),
        ("qph", |r| Some(r.base().throughput_qph)),
        ("wall.makespan_s", |r| Some(r.base().makespan_s)),
    ],
    sampled_run: "kitchen-sink",
};

const SERVE_POLICY: ServingProfile = ServingProfile {
    experiment: "serve-policy",
    columns: &[
        ("qph", |r| Some(r.base().throughput_qph)),
        ("wall.makespan_s", |r| Some(r.base().makespan_s)),
        ("latency_p50_s", |r| Some(r.exact_percentile_s(0.50))),
        ("latency_p99_s", |r| Some(r.exact_percentile_s(0.99))),
        ("gpu_occupancy", |r| Some(r.base().gpu_occupancy)),
        ("goodput", |r| Some(r.chaos.goodput)),
        ("completed", |r| Some(r.chaos.completed as f64)),
        ("degraded", |r| Some(r.chaos.degraded as f64)),
        ("deadline_missed", |r| Some(r.base().deadline_missed as f64)),
        ("preemptions", |r| {
            (r.preemptions > 0).then_some(r.preemptions as f64)
        }),
        ("preempt_lost_s", |r| {
            (r.preemptions > 0).then_some(r.preempt_lost_s)
        }),
    ],
    sampled_run: "fifo",
};

impl ServingProfile {
    /// Fold `runs` into the baseline — per run, the columns then the
    /// `attr.*`/`slo.*` telemetry metrics; then the experiment-level
    /// `trailing` metrics — and build every artifact: the sampled
    /// profile and latency CSV from the sampled run, the timeline and
    /// critical-path blocks from all runs.
    fn emit(
        &self,
        runs: &[ScenarioRun],
        summary: String,
        trailing: Vec<(String, f64)>,
        quick: bool,
    ) -> ProfileArtifacts {
        let mut metrics = Vec::new();
        for run in runs {
            let p = run.name;
            metrics.extend(self.columns.iter().filter_map(|(key, value)| {
                let name = match key.strip_prefix("wall.") {
                    Some(k) => format!("wall.{p}_{k}"),
                    None => format!("{p}.{key}"),
                };
                value(&run.report).map(|v| (name, v))
            }));
            let r = run.report.base();
            if let Some(shares) = r.attribution_shares() {
                metrics.extend(
                    shares
                        .into_iter()
                        .map(|(phase, share)| (format!("{p}.attr.{phase}"), share)),
                );
            }
            if let Some(slo) = &r.slo {
                metrics.extend([
                    (format!("{p}.slo.burn_events"), slo.burn_events as f64),
                    (format!("{p}.slo.clear_events"), slo.clear_events as f64),
                    (format!("{p}.slo.max_burn"), slo.max_burn),
                    (format!("{p}.slo.alert_s"), slo.alert_seconds),
                ]);
            }
        }
        metrics.extend(trailing);

        let sampled_run = runs
            .iter()
            .find(|run| run.name == self.sampled_run)
            .expect("the sampled run is in the set");
        let sampled = SampledProfile::capture_n(&sampled_run.obs.tracer, DEFAULT_SAMPLES);
        let mut report_text = summary;
        report_text.push('\n');
        report_text.push_str(&sampled.render_top(SAMPLED_TOP_N));

        let timeline: String = runs
            .iter()
            .map(|run| afsb_serve::render_timeline_block(run.name, run.report.base()))
            .collect();
        let critpath: String = runs
            .iter()
            .filter_map(|run| critpath_block(run.name, run.report.base()))
            .collect();
        ProfileArtifacts {
            baseline: PerfBaseline {
                experiment: self.experiment.to_owned(),
                seed: afsb_serve::scenario::SERVE_SEED,
                quick,
                metrics,
                symbol_tables: Vec::new(),
                sampled: SampledSummary::from_profile(&sampled, SAMPLED_TOP_N),
            },
            report_text,
            collapsed: sampled.collapsed(),
            timeline: (!timeline.is_empty()).then_some(timeline),
            latency_csv: sampled_run
                .obs
                .metrics
                .histogram("serve.latency_s")
                .map(|h| h.to_csv()),
            critpath: (!critpath.is_empty()).then_some(critpath),
        }
    }
}

/// One scenario's whole-run critical path as a `--critical-path`
/// artifact block: the ASCII blame report plus the collapsed-stack
/// export (same format as the flamegraph inputs). `None` when the run
/// recorded no provenance or served nothing.
fn critpath_block(name: &str, report: &afsb_serve::ServeReport) -> Option<String> {
    let log = report.causal.as_ref()?;
    let path = afsb_rt::obs::causal::critical_path(&log.edges, log.makespan_event?);
    let mut out = path.render(name);
    out.push('\n');
    out.push_str(&path.collapsed(&format!("critpath;{name}")));
    out.push('\n');
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_rt::ToJson;

    #[test]
    fn unknown_experiment_lists_available() {
        let err = run_profile("nope", true).unwrap_err();
        assert!(
            err.contains("pipeline") && err.contains("msa-sweep"),
            "{err}"
        );
    }

    #[test]
    fn baseline_file_names_are_underscored() {
        assert_eq!(baseline_file_name("pipeline"), "BENCH_pipeline.json");
        assert_eq!(baseline_file_name("msa-sweep"), "BENCH_msa_sweep.json");
        assert_eq!(baseline_file_name("serve"), "BENCH_serve.json");
        assert_eq!(baseline_file_name("serve-xl"), "BENCH_serve_xl.json");
        assert_eq!(baseline_file_name("serve-chaos"), "BENCH_serve_chaos.json");
        assert_eq!(
            baseline_file_name("serve-whatif"),
            "BENCH_serve_whatif.json"
        );
        assert_eq!(
            baseline_file_name("serve-policy"),
            "BENCH_serve_policy.json"
        );
    }

    #[test]
    fn quick_serve_policy_profile_carries_dominance_and_whatif_gates() {
        let a = profile_serve_policy(true);
        assert_eq!(a.baseline.experiment, "serve-policy");
        for p in [
            "fifo",
            "sjf",
            "edf",
            "shape-batch",
            "sjf-preempt",
            "speculate",
            "adaptive",
        ] {
            for m in ["qph", "latency_p99_s", "gpu_occupancy", "goodput"] {
                assert!(
                    a.baseline.metric(&format!("{p}.{m}")).is_some(),
                    "{p}.{m} missing"
                );
            }
        }
        // The two CI-gated verdicts travel in the committed baseline.
        assert!(
            a.baseline
                .metric("dominance.policies_beating_fifo")
                .unwrap()
                >= 1.0
        );
        let err = a.baseline.metric("whatif.error_pp").expect("whatif ran");
        assert!(err <= 10.0, "whatif error {err} pp");
        assert!(a.report_text.contains("dominance:"));
        let critpath = a.critpath.as_deref().expect("fifo row records provenance");
        assert!(critpath.contains("critical path: fifo"));
    }

    #[test]
    fn quick_serve_whatif_profile_carries_projection_and_critpath() {
        let a = profile_serve_whatif(true);
        assert_eq!(a.baseline.experiment, "serve-whatif");
        assert!(a.baseline.metric("wall.cold_makespan_s").unwrap() > 0.0);
        // The paper's starvation finding, causally: on cold the MSA
        // pool carries the dominant critical-path share.
        let msa_share = a.baseline.metric("critpath.worker-busy.share").unwrap();
        assert!(msa_share > 0.5, "msa share {msa_share}");
        for what in ["msa_2x", "gpu_2x", "xla_2x", "workers_plus4", "cache_inf"] {
            for m in ["predicted_delta_pct", "actual_delta_pct", "error_pp"] {
                assert!(
                    a.baseline.metric(&format!("whatif.{what}.{m}")).is_some(),
                    "whatif.{what}.{m} missing"
                );
            }
        }
        let critpath = a.critpath.as_deref().expect("critpath artifact present");
        assert!(critpath.contains("critical path: cold"));
        assert!(critpath.contains("critpath;cold;worker-busy;msa-done"));
        assert!(a.report_text.contains("what-if projection"));
        assert!(a.baseline.sampled.total_samples > 0);
    }

    #[test]
    fn serve_profiles_carry_per_scenario_critpath_blocks() {
        let a = profile_serve(true);
        let critpath = a.critpath.as_deref().expect("serve critpath present");
        for scenario in ["cold", "nocache", "warm", "warm_b1"] {
            assert!(
                critpath.contains(&format!("critical path: {scenario}")),
                "{scenario} block missing"
            );
        }
        let c = profile_serve_chaos(true);
        let chaos_critpath = c.critpath.as_deref().expect("chaos critpath present");
        for scenario in ["baseline", "kitchen-sink"] {
            assert!(
                chaos_critpath.contains(&format!("critical path: {scenario}")),
                "{scenario} block missing"
            );
        }
    }

    #[test]
    fn quick_serve_chaos_profile_covers_every_scenario() {
        let a = profile_serve_chaos(true);
        for scenario in [
            "baseline",
            "worker-churn",
            "storage-brownout",
            "gpu-flap",
            "kitchen-sink",
        ] {
            for metric in ["availability", "goodput", "completed"] {
                assert!(
                    a.baseline.metric(&format!("{scenario}.{metric}")).is_some(),
                    "{scenario}.{metric} missing"
                );
            }
            assert!(a
                .baseline
                .metric(&format!("wall.{scenario}_makespan_s"))
                .is_some());
        }
        assert_eq!(a.baseline.metric("baseline.faults"), Some(0.0));
        assert!(a.baseline.metric("kitchen-sink.faults").unwrap() > 0.0);
        assert!(a.baseline.sampled.total_samples > 0);
        assert!(a.report_text.contains("kitchen-sink"));
        assert!(a.collapsed.contains("gpu_batch"));
        assert_eq!(a.baseline.experiment, "serve-chaos");
    }

    #[test]
    fn quick_serve_profile_covers_every_scenario() {
        let a = profile_serve(true);
        for scenario in ["cold", "nocache", "warm", "warm_b1"] {
            let qph = a
                .baseline
                .metric(&format!("{scenario}.qph"))
                .unwrap_or_else(|| panic!("{scenario}.qph missing"));
            assert!(qph > 0.0, "{scenario}.qph = {qph}");
            assert!(a
                .baseline
                .metric(&format!("wall.{scenario}_makespan_s"))
                .is_some());
            assert!(a
                .baseline
                .metric(&format!("{scenario}.latency_p99_s"))
                .is_some());
        }
        assert!(a.baseline.sampled.total_samples > 0);
        assert!(a.report_text.contains("queries/h"));
        assert!(a.collapsed.contains("gpu_batch"));
    }

    #[test]
    fn quick_serve_xl_profile_holds_the_ablation_orderings() {
        let a = profile_serve_xl(true);
        let qph = |s: &str| {
            a.baseline
                .metric(&format!("{s}.qph"))
                .unwrap_or_else(|| panic!("{s}.qph missing"))
        };
        assert!(
            qph("cold") > qph("nocache"),
            "feature cache must pay for itself at XL scale: cold {} vs nocache {}",
            qph("cold"),
            qph("nocache")
        );
        assert!(
            qph("warm") > qph("warm_b1"),
            "batching must amortize dispatch at XL scale: warm {} vs warm_b1 {}",
            qph("warm"),
            qph("warm_b1")
        );
        // Coalescing is on and the Zipf head is hot enough to collapse
        // concurrent misses in the cold scenario.
        assert!(a.baseline.metric("cold.cache_coalesced").unwrap_or(0.0) > 0.0);
        assert_eq!(a.baseline.experiment, "serve-xl");
    }

    #[test]
    fn quick_msa_sweep_profile_is_deterministic_and_complete() {
        let a = profile_msa_sweep(true);
        let b = profile_msa_sweep(true);
        assert_eq!(
            a.baseline.to_json().pretty(),
            b.baseline.to_json().pretty(),
            "same seed must give a byte-identical baseline"
        );
        assert_eq!(a.collapsed, b.collapsed);
        for t in MSA_THREAD_SWEEP {
            assert!(a.baseline.metric(&format!("sweep.t{t}.wall_s")).unwrap() > 0.0);
        }
        assert!(!a.baseline.symbol_tables[0].rows.is_empty());
        assert!(a.baseline.sampled.total_samples > 0);
        assert!(a.report_text.contains("threads"));
    }
}
