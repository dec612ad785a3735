//! `perf stat`-style typed sessions.
//!
//! One [`PerfStatReport`] aggregates every counter source of a pipeline
//! run — `simarch::perf::SymbolStats` (CPU), `hmmer::WorkCounters` (DP
//! cells), and the GPU cost log — into the row schema of the paper's
//! Tables III–V, plus the derived metrics a `perf stat` or Nsight session
//! would print: IPC, LLC/dTLB miss ratios, DRAM-bandwidth utilization,
//! and GPU roofline attainment.

use afsb_core::context::SampleSearchData;
use afsb_core::inference_phase::{gpu_for, InferencePhaseResult};
use afsb_core::pipeline::PipelineResult;
use afsb_core::report::{ascii_table, cpu_metrics};
use afsb_gpu::kernel::{roofline_stats, RooflineStats};
use afsb_hmmer::counters::WorkCounters;
use afsb_simarch::perf::PerfReport;
use afsb_simarch::{Platform, SimResult};
use std::fmt::Write as _;

/// One per-symbol row in a Table IV/V-style block, in
/// [`PerfReport::top_by_cycles`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolRow {
    /// Symbol name (the paper's profiled function names).
    pub symbol: String,
    /// Total cycles attributed to the symbol.
    pub cycles: u64,
    /// Share of total cycles, `[0, 1]` (perf's "CPU Cycles %").
    pub cycle_share: f64,
    /// Share of total LLC misses (perf's "Cache Misses %").
    pub cache_miss_share: f64,
    /// Share of total dTLB misses (Table V).
    pub tlb_miss_share: f64,
    /// Share of total page faults (Table V).
    pub page_fault_share: f64,
    /// IPC of the symbol in isolation.
    pub ipc: f64,
}

/// The per-symbol rows of a [`PerfReport`], in exactly the order
/// [`PerfReport::top_by_cycles`] yields — the acceptance contract of the
/// profiler is that its Table III/IV-style blocks never reorder perf's
/// attribution.
pub fn symbol_rows(report: &PerfReport) -> Vec<SymbolRow> {
    report
        .top_by_cycles()
        .into_iter()
        .map(|(name, stats)| SymbolRow {
            symbol: name.to_owned(),
            cycles: stats.cycles(),
            cycle_share: report.cycles_share(name),
            cache_miss_share: report.cache_miss_share(name),
            tlb_miss_share: report.tlb_miss_share(name),
            page_fault_share: report.page_fault_share(name),
            ipc: stats.ipc(),
        })
        .collect()
}

/// Table III-style derived metrics for one simulated CPU phase, extended
/// with the DRAM-bandwidth utilization a `perf stat` memory-bandwidth
/// group would report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuDerived {
    /// Aggregate instructions per cycle.
    pub ipc: f64,
    /// LLC misses per 1000 instructions.
    pub cache_miss_per_kinst: f64,
    /// L1D miss ratio (percent).
    pub l1_miss_pct: f64,
    /// LLC miss ratio (percent).
    pub llc_miss_pct: f64,
    /// dTLB load-miss ratio (percent).
    pub dtlb_miss_pct: f64,
    /// Branch misprediction ratio (percent).
    pub branch_miss_pct: f64,
    /// DRAM bandwidth demand over the platform's peak (percent, capped
    /// at 100 — demand beyond peak shows up as stall cycles, not more
    /// bandwidth).
    pub dram_bw_util_pct: f64,
}

/// Derive the Table III metric block from one simulation result.
pub fn cpu_derived(sim: &SimResult, platform: Platform) -> CpuDerived {
    let m = cpu_metrics(sim);
    let peak = platform.spec().memory.bandwidth_gibs;
    CpuDerived {
        ipc: m.ipc,
        cache_miss_per_kinst: m.cache_miss_per_kinst,
        l1_miss_pct: m.l1_miss_pct,
        llc_miss_pct: m.llc_miss_pct,
        dtlb_miss_pct: m.dtlb_miss_pct,
        branch_miss_pct: m.branch_miss_pct,
        dram_bw_util_pct: (sim.bandwidth_demand_gibs / peak * 100.0).min(100.0),
    }
}

impl CpuDerived {
    /// The metric block as named rows, in Table III order.
    pub fn rows(&self) -> [(&'static str, f64); 7] {
        [
            ("IPC", self.ipc),
            ("Cache Miss (/1k inst)", self.cache_miss_per_kinst),
            ("L1 Miss (%)", self.l1_miss_pct),
            ("LLC Miss (%)", self.llc_miss_pct),
            ("dTLB Miss (%)", self.dtlb_miss_pct),
            ("Branch Miss (%)", self.branch_miss_pct),
            ("DRAM BW Util (%)", self.dram_bw_util_pct),
        ]
    }
}

/// One DP-stage row: exact cell counts from `hmmer::WorkCounters`,
/// named by the paper's Table IV symbols.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage symbol (`calc_band_9`, `calc_band_10`, …).
    pub symbol: String,
    /// DP cells executed.
    pub cells: u64,
    /// Share of all DP cells, `[0, 1]`.
    pub share: f64,
}

/// Per-stage cell attribution rows (stages with zero cells are kept —
/// a vanished stage is a signal, not noise).
pub fn stage_rows(counters: &WorkCounters) -> Vec<StageRow> {
    let total = counters.total_dp_cells().max(1) as f64;
    counters
        .stage_cells()
        .into_iter()
        .map(|(symbol, cells)| StageRow {
            symbol: symbol.to_owned(),
            cells,
            share: cells as f64 / total,
        })
        .collect()
}

/// Nsight-style GPU block: the Fig. 8 lifecycle breakdown plus roofline
/// attainment of the priced kernel log.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuStat {
    /// Device name.
    pub device: String,
    /// Initialization seconds.
    pub init_s: f64,
    /// XLA compile seconds.
    pub xla_compile_s: f64,
    /// GPU compute seconds.
    pub gpu_compute_s: f64,
    /// Finalize seconds.
    pub finalize_s: f64,
    /// Overhead share of the phase, `[0, 1]`.
    pub overhead_share: f64,
    /// Fraction of the working set served through unified memory.
    pub uvm_fraction: f64,
    /// Roofline attainment / SM occupancy summary.
    pub roofline: RooflineStats,
    /// Per-kernel-label seconds, descending (label tiebreak).
    pub per_label_s: Vec<(String, f64)>,
}

/// Build the GPU block from an inference-phase result.
pub fn gpu_stat(inference: &InferencePhaseResult) -> GpuStat {
    let device = gpu_for(inference.platform);
    let b = &inference.breakdown;
    let roofline = roofline_stats(&inference.model.cost_log, &device, b.uvm_fraction);
    let mut per_label_s: Vec<(String, f64)> =
        b.per_label_s.iter().map(|(k, &v)| (k.clone(), v)).collect();
    per_label_s.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    GpuStat {
        device: device.name.to_owned(),
        init_s: b.init_s,
        xla_compile_s: b.xla_compile_s,
        gpu_compute_s: b.gpu_compute_s,
        finalize_s: b.finalize_s,
        overhead_share: b.overhead_share(),
        uvm_fraction: b.uvm_fraction,
        roofline,
        per_label_s,
    }
}

/// The full `perf stat`-style session report for one pipeline run.
#[derive(Debug, Clone)]
pub struct PerfStatReport {
    /// Sample name.
    pub sample: String,
    /// Platform.
    pub platform: Platform,
    /// Worker threads.
    pub threads: usize,
    /// MSA wall seconds.
    pub msa_wall_s: f64,
    /// Inference wall seconds.
    pub inference_wall_s: f64,
    /// End-to-end wall seconds.
    pub total_s: f64,
    /// Table III block for the MSA phase.
    pub msa_derived: CpuDerived,
    /// Table IV-style block: MSA per-symbol attribution.
    pub msa_symbols: Vec<SymbolRow>,
    /// Exact DP-cell attribution per stage (hmmer counters).
    pub stages: Vec<StageRow>,
    /// Table III block for the inference host phase.
    pub host_derived: CpuDerived,
    /// Table V-style block: host-phase per-symbol attribution.
    pub host_symbols: Vec<SymbolRow>,
    /// Nsight-style GPU block.
    pub gpu: GpuStat,
}

impl PerfStatReport {
    /// Build the session report from a pipeline result and its sample's
    /// executed search data.
    pub fn from_pipeline(data: &SampleSearchData, result: &PipelineResult) -> PerfStatReport {
        PerfStatReport {
            sample: result.sample.clone(),
            platform: result.platform,
            threads: result.threads,
            msa_wall_s: result.msa_seconds(),
            inference_wall_s: result.inference_seconds(),
            total_s: result.total_seconds(),
            msa_derived: cpu_derived(&result.msa.sim, result.platform),
            msa_symbols: symbol_rows(&result.msa.sim.report),
            stages: stage_rows(&data.total_counters()),
            host_derived: cpu_derived(&result.inference.host_sim, result.platform),
            host_symbols: symbol_rows(&result.inference.host_sim.report),
            gpu: gpu_stat(&result.inference),
        }
    }

    /// Render the session as the paper's table sequence.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf stat session: {} on {} @ {}T  (msa {:.1}s + inference {:.1}s = {:.1}s)",
            self.sample,
            self.platform,
            self.threads,
            self.msa_wall_s,
            self.inference_wall_s,
            self.total_s
        );

        let derived_rows = |d: &CpuDerived| -> Vec<Vec<String>> {
            d.rows()
                .iter()
                .map(|(name, v)| vec![(*name).to_owned(), format!("{v:.2}")])
                .collect()
        };
        let _ = writeln!(out, "\n== Table III — MSA-phase CPU metrics ==");
        out.push_str(&ascii_table(
            &["Metric", "Value"],
            &derived_rows(&self.msa_derived),
        ));

        let _ = writeln!(out, "\n== Table IV — MSA per-symbol attribution ==");
        out.push_str(&render_symbol_block(&self.msa_symbols));

        let _ = writeln!(out, "\n== DP-stage cells (exact hmmer counters) ==");
        let stage_cells: Vec<Vec<String>> = self
            .stages
            .iter()
            .map(|s| {
                vec![
                    s.symbol.clone(),
                    s.cells.to_string(),
                    format!("{:.2}%", s.share * 100.0),
                ]
            })
            .collect();
        out.push_str(&ascii_table(&["Stage", "Cells", "Share"], &stage_cells));

        let _ = writeln!(out, "\n== Table V — inference host-phase attribution ==");
        out.push_str(&render_symbol_block(&self.host_symbols));
        let _ = writeln!(out, "\nhost CPU metrics:");
        out.push_str(&ascii_table(
            &["Metric", "Value"],
            &derived_rows(&self.host_derived),
        ));

        let _ = writeln!(
            out,
            "\n== GPU ({}) — lifecycle + roofline ==",
            self.gpu.device
        );
        let g = &self.gpu;
        let gpu_rows = vec![
            vec!["init_s".to_owned(), format!("{:.2}", g.init_s)],
            vec![
                "xla_compile_s".to_owned(),
                format!("{:.2}", g.xla_compile_s),
            ],
            vec![
                "gpu_compute_s".to_owned(),
                format!("{:.2}", g.gpu_compute_s),
            ],
            vec!["finalize_s".to_owned(), format!("{:.2}", g.finalize_s)],
            vec![
                "overhead_share".to_owned(),
                format!("{:.1}%", g.overhead_share * 100.0),
            ],
            vec![
                "uvm_fraction".to_owned(),
                format!("{:.1}%", g.uvm_fraction * 100.0),
            ],
            vec![
                "roofline_attainment".to_owned(),
                format!("{:.1}%", g.roofline.attainment * 100.0),
            ],
            vec![
                "sm_occupancy".to_owned(),
                format!("{:.1}%", g.roofline.sm_occupancy * 100.0),
            ],
            vec![
                "memory_bound_frac".to_owned(),
                format!("{:.1}%", g.roofline.memory_bound_fraction * 100.0),
            ],
            vec![
                "launch_share".to_owned(),
                format!("{:.2}%", g.roofline.launch_share * 100.0),
            ],
        ];
        out.push_str(&ascii_table(&["Counter", "Value"], &gpu_rows));

        let _ = writeln!(out, "\ntop kernels:");
        let kernel_rows: Vec<Vec<String>> = g
            .per_label_s
            .iter()
            .take(8)
            .map(|(label, s)| vec![label.clone(), format!("{s:.3}s")])
            .collect();
        out.push_str(&ascii_table(&["Kernel", "Time"], &kernel_rows));
        out
    }
}

fn render_symbol_block(rows: &[SymbolRow]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.symbol.clone(),
                format!("{:.2}%", r.cycle_share * 100.0),
                format!("{:.2}%", r.cache_miss_share * 100.0),
                format!("{:.2}%", r.tlb_miss_share * 100.0),
                format!("{:.2}%", r.page_fault_share * 100.0),
                format!("{:.2}", r.ipc),
            ]
        })
        .collect();
    ascii_table(
        &["Symbol", "Cycles", "CacheMiss", "dTLBMiss", "Faults", "IPC"],
        &cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use afsb_simarch::perf::SymbolStats;
    use std::collections::HashMap;

    fn report() -> PerfReport {
        let mut m = HashMap::new();
        m.insert(
            "calc_band_9",
            SymbolStats {
                base_cycles: 900,
                instructions: 1800,
                llc_misses: 30,
                llc_accesses: 60,
                ..SymbolStats::default()
            },
        );
        m.insert(
            "addbuf",
            SymbolStats {
                base_cycles: 100,
                instructions: 150,
                llc_misses: 70,
                llc_accesses: 140,
                ..SymbolStats::default()
            },
        );
        PerfReport::new(m)
    }

    #[test]
    fn symbol_rows_preserve_perf_order_and_shares() {
        let r = report();
        let rows = symbol_rows(&r);
        let expected: Vec<&str> = r.top_by_cycles().into_iter().map(|(n, _)| n).collect();
        let got: Vec<&str> = rows.iter().map(|x| x.symbol.as_str()).collect();
        assert_eq!(got, expected);
        assert!((rows.iter().map(|r| r.cycle_share).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].symbol, "calc_band_9");
        assert!((rows[0].cycle_share - 0.9).abs() < 1e-12);
    }

    #[test]
    fn stage_rows_share_sums_to_one() {
        let c = WorkCounters {
            band_cells_mi: 600,
            band_cells_ds: 300,
            forward_cells: 100,
            ..WorkCounters::default()
        };
        let rows = stage_rows(&c);
        assert_eq!(rows.len(), 6);
        assert!((rows.iter().map(|r| r.share).sum::<f64>() - 1.0).abs() < 1e-12);
        let band = rows.iter().find(|r| r.symbol == "calc_band_9").unwrap();
        assert_eq!(band.cells, 600);
        assert!((band.share - 0.6).abs() < 1e-12);
    }
}
