//! The AFSysBench CLI: regenerate any paper table or figure, profile a
//! run, or gate a profile against a committed baseline.
//!
//! ```text
//! afsysbench <experiment...|all> [--quick] [--out DIR]
//! afsysbench profile <pipeline|msa-sweep|serve|serve-xl|serve-chaos|serve-whatif|serve-policy>... [--quick] [--timeline] [--critical-path] [--out DIR]
//! afsysbench perf-diff <baseline.json> <current.json>
//! ```
//!
//! The `trace` experiment runs one resilient pipeline with the
//! `rt::obs` tracer attached and writes `trace.json` (Chrome
//! trace-event JSON for Perfetto / `chrome://tracing`) plus a
//! `.flame.txt` collapsed-stack sibling; `AFSB_TRACE=<path>` overrides
//! the trace path. Fixed seed, byte-identical artifacts on every run.
//!
//! The `serve` experiment runs the canonical multi-query serving
//! scenarios (MSA feature cache and GPU batching ablations) and prints
//! the cross-scenario throughput/latency summary. `serve-xl` runs the
//! same ablations at production scale — a 10k-request (quick) /
//! 100k-request (full) Poisson/Zipf stream with miss coalescing on —
//! through the event-driven scheduler. `serve-chaos` runs the canonical
//! fault-injection matrix (baseline, worker-churn, storage-brownout,
//! gpu-flap, kitchen-sink) with the recovery policy on and prints
//! availability, goodput and per-disposition counts per scenario.
//! `serve-telemetry` re-runs the canonical scenarios plus the
//! storage-brownout campaign with the observation-only telemetry layer
//! armed and prints the gauge-timeline dashboard, per-request latency
//! attribution, p99 waterfall, and SLO burn-rate log.
//!
//! `serve-whatif` runs the causal profiler: critical-path extraction
//! over the provenance-armed `cold` scenario, per-request binding
//! classification, and the canonical virtual speedups (MSA 2×, GPU 2×,
//! XLA 2×, +4 workers, infinite cache) projected from the recorded
//! event DAG and validated against ground-truth re-runs.
//!
//! `serve-policy` runs the scheduling-policy matrix over the `cold`
//! scenario — FIFO (byte-identical baseline), predicted-cost SJF, EDF,
//! shape-bucketed GPU batching, checkpoint-yield preemption and
//! speculative MSA-depth degradation — prints per-policy throughput,
//! exact p50/p99, GPU occupancy and goodput, the FIFO-dominance
//! verdict, and validates the winner against the what-if projection.
//!
//! `profile` writes `BENCH_<experiment>.json` (the diffable baseline),
//! `<experiment>.profile.txt` (the perf-stat/sampled/iostat session
//! report) and `<experiment>.collapsed.txt` (flamegraph input) to the
//! `--out` directory (default `.`); with `--timeline`, serving
//! experiments also write `<experiment>.timeline.txt` (gauge timeline +
//! SLO log) and `<experiment>.latency.csv` (latency histogram bucket
//! dump); with `--critical-path`, provenance-armed experiments also
//! write `<experiment>.critpath.txt` (whole-run critical path per
//! scenario: blame shares + collapsed stacks) — the flag adds an
//! artifact and never changes the BENCH bytes. `perf-diff` exits 0 when the
//! current profile is within tolerance of the baseline, 1 on
//! regression (offending symbols named), 2 on usage or I/O errors.

use afsb_bench::Harness;
use afsb_perf::baseline::{diff, DiffTolerances, PerfBaseline};
use afsb_perf::profile::{baseline_file_name, profile_names, run_profile};
use afsb_rt::{FromJson, Json, ToJson};
use std::fs;
use std::path::{Path, PathBuf};

/// One `afsysbench` experiment: its name and the driver that renders
/// its output.
type Experiment = (&'static str, fn(&mut Harness) -> String);

/// Every experiment, in `all` order. `table6` and `fig9` name the same
/// combined run.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", Harness::table1),
    ("table2", Harness::table2),
    ("table3", Harness::table3),
    ("table4", Harness::table4),
    ("table5", Harness::table5),
    ("table6", Harness::fig9_table6),
    ("fig2", Harness::fig2),
    ("fig3", |h| {
        let (table, csv) = h.fig3();
        format!("{table}\nCSV:\n{csv}")
    }),
    ("fig4", Harness::fig4),
    ("fig5", Harness::fig5),
    ("fig6", Harness::fig6),
    ("fig7", Harness::fig7),
    ("fig8", Harness::fig8),
    ("fig9", Harness::fig9_table6),
    ("ablation-persistent", Harness::ablation_persistent),
    ("ablation-storage", Harness::ablation_storage),
    ("estimator", Harness::estimator),
    ("recommend", Harness::recommend),
    ("trace", trace),
    ("serve", |h| h.serve()),
    ("serve-xl", |h| h.serve_xl()),
    ("serve-chaos", |h| h.serve_chaos()),
    ("serve-telemetry", |h| h.serve_telemetry()),
    ("serve-whatif", |h| h.serve_whatif()),
    ("serve-policy", |h| h.serve_policy()),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: afsysbench <experiment...|all> [--quick] [--out DIR]\n\
         \x20      afsysbench profile <experiment>... [--quick] [--timeline] [--critical-path] [--out DIR]\n\
         \x20      afsysbench perf-diff <baseline.json> <current.json>\n\n\
         experiments: {}\nprofile experiments: {}",
        names.join(", "),
        profile_names()
    );
    std::process::exit(2);
}

/// The `trace` experiment: one traced resilient pipeline, with the
/// Chrome trace and its flamegraph sibling written next to the output.
fn trace(harness: &mut Harness) -> String {
    let (mut text, trace, flame) = harness.trace(17);
    let trace_path =
        PathBuf::from(std::env::var("AFSB_TRACE").unwrap_or_else(|_| "trace.json".to_owned()));
    let flame_path = trace_path.with_extension("flame.txt");
    for (path, content) in [(&trace_path, &trace), (&flame_path, &flame)] {
        match fs::write(path, content) {
            Ok(()) => text.push_str(&format!("\nwrote {}", path.display())),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    text
}

/// Write one output file under `dir`, creating the directory if needed.
fn write_out(dir: &Path, name: &str, content: &str) {
    if let Err(e) = fs::create_dir_all(dir).and_then(|_| fs::write(dir.join(name), content)) {
        eprintln!("failed to write {}: {e}", dir.join(name).display());
        std::process::exit(2);
    }
    println!("wrote {}", dir.join(name).display());
}

fn cmd_profile(
    experiments: &[String],
    quick: bool,
    timeline: bool,
    critical_path: bool,
    out_dir: &Path,
) -> ! {
    if experiments.is_empty() {
        eprintln!(
            "profile needs at least one experiment (available: {})",
            profile_names()
        );
        std::process::exit(2);
    }
    for exp in experiments {
        let artifacts = match run_profile(exp, quick) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        println!(
            "\n########## profile {exp} ##########\n{}",
            artifacts.report_text
        );
        let mut json = artifacts.baseline.to_json().pretty();
        json.push('\n');
        write_out(out_dir, &baseline_file_name(exp), &json);
        write_out(
            out_dir,
            &format!("{exp}.profile.txt"),
            &artifacts.report_text,
        );
        write_out(
            out_dir,
            &format!("{exp}.collapsed.txt"),
            &artifacts.collapsed,
        );
        if timeline {
            match &artifacts.timeline {
                Some(text) => write_out(out_dir, &format!("{exp}.timeline.txt"), text),
                None => eprintln!("profile {exp} has no timeline artifact (--timeline ignored)"),
            }
            if let Some(csv) = &artifacts.latency_csv {
                write_out(out_dir, &format!("{exp}.latency.csv"), csv);
            }
        }
        if critical_path {
            match &artifacts.critpath {
                Some(text) => write_out(out_dir, &format!("{exp}.critpath.txt"), text),
                None => {
                    eprintln!(
                        "profile {exp} has no critical-path artifact (--critical-path ignored)"
                    )
                }
            }
        }
    }
    std::process::exit(0);
}

fn load_baseline(path: &str) -> PerfBaseline {
    let fail = |msg: String| -> ! {
        eprintln!("perf-diff: {msg}");
        std::process::exit(2);
    };
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(format!("cannot read {path}: {e}")),
    };
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => fail(format!("{path} is not valid JSON: {e}")),
    };
    match PerfBaseline::from_json(&json) {
        Ok(b) => b,
        Err(e) => fail(format!("{path} is not a perf baseline: {e}")),
    }
}

fn cmd_perf_diff(args: &[String]) -> ! {
    let [base_path, cur_path] = args else { usage() };
    let base = load_baseline(base_path);
    let cur = load_baseline(cur_path);
    let report = diff(&base, &cur, &DiffTolerances::default());
    print!("{}", report.render());
    std::process::exit(if report.passed() { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("perf-diff") {
        cmd_perf_diff(&args[1..]);
    }

    let mut targets: Vec<String> = Vec::new();
    let mut quick = false;
    let mut timeline = false;
    let mut critical_path = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--timeline" => timeline = true,
            "--critical-path" => critical_path = true,
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out needs a directory argument");
                    usage();
                }
            },
            "-h" | "--help" => usage(),
            flag if flag.starts_with('-') => usage(),
            name => targets.push(name.to_owned()),
        }
    }
    if targets.is_empty() {
        usage();
    }

    if targets[0] == "profile" {
        cmd_profile(
            &targets[1..],
            quick,
            timeline,
            critical_path,
            out_dir.as_deref().unwrap_or(Path::new(".")),
        );
    }

    let mut harness = Harness::new(quick);
    let names: Vec<String> = if targets.iter().any(|t| t == "all") {
        EXPERIMENTS
            .iter()
            .map(|(name, _)| (*name).to_owned())
            .collect()
    } else {
        targets
    };

    for name in &names {
        let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| n == name) else {
            eprintln!("unknown experiment: {name}");
            usage();
        };
        let output = run(&mut harness);
        println!("\n########## {name} ##########\n{output}");
        if let Some(dir) = &out_dir {
            if let Err(e) = fs::create_dir_all(dir)
                .and_then(|_| fs::write(dir.join(format!("{name}.txt")), &output))
            {
                eprintln!("failed to write {name}: {e}");
            }
        }
    }
}
