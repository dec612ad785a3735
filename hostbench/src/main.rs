//! Host-clock benchmark of the AFSysBench-RS simulator: how fast the
//! simulator itself runs, per workload and per layer, with every
//! simulated output checked bit for bit.
//!
//! ```text
//! hostbench --workload <price|serve-hot|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! hostbench record-fixtures <first-seed> <last-seed>
//! ```
//!
//! A run repeats the workload's unit of work until `--seconds` have
//! passed, timing the set-up before each unit and checking each unit's
//! outputs. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced units and reports
//! the per-layer metrics, writing the host-clock trace as a Chrome trace
//! and collapsed stacks under `hostbench/out/`. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod fixture;
mod host;
mod price;
mod serve;

use fixture::Digest;
use host::{median, tail_percentile, HostTrace, Span};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed before every unit; `setup_s` is the median of all of
/// them. Spread over the run like the units, they are not all caught by
/// one slow moment of a shared host, which would set the figure.
const SETUPS_PER_UNIT: usize = 8;

const WORKLOADS: [&str; 3] = ["price", "serve-hot", "serve-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operations attempted and failed. An operation fails when its output
/// check fails or it panics; every unit's digest must also equal the
/// run's first and, where committed, the expected one.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    expected: Option<Digest>,
    first: Option<Digest>,
}

impl Tally {
    fn record(&mut self, verdict: Result<Digest, String>) {
        self.attempted += 1;
        let verdict = verdict.and_then(|d| {
            if let Some(want) = &self.expected {
                d.check(want, "committed digest")?;
            }
            match &self.first {
                Some(first) => d.check(first, "repeat of this run"),
                None => {
                    self.first = Some(d);
                    Ok(())
                }
            }
        });
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("hostbench: operation {} failed: {e}", self.attempted);
        }
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "non-string panic".to_owned());
    format!("panicked: {msg}")
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Spans every traced unit records: the set-up, run and scaling roots,
/// and the layer calls a workload makes.
const SETUP_ROOT: &str = "setup";
const SCALING_ROOT: &str = "scaling";
const RUN_LAYERS: [&str; 9] = [
    "seq.build",
    "hmmer.search",
    "simarch.msa_phase",
    "model.infer",
    "gpu.price",
    "serve.loop",
    "obs.critpath",
    "obs.export",
    "policy.loop",
];

/// Record an empty span for each layer a workload does not call, so that
/// every traced run reports every layer: a bypassed layer's time reads
/// as the cost of two clock reads and its counters as zero.
fn bypass(trace: &mut HostTrace, parent: Span, layers: &[&str]) {
    for &name in layers {
        trace.time(parent, name, || ());
    }
}

/// Every per-layer metric, computed from one traced unit's spans.
fn layer_metrics(t: &HostTrace, run_root: Span) -> Vec<Metric> {
    let own = t.self_seconds();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = |name: &str, key: &str| t.counter(name, key);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // log10 of loop time at n over loop time at n/10, same config.
    let scaling = |full: &str, tenth: &str| {
        if c(tenth, "requests") > 0.0 {
            (s(full) / s(tenth)).log10()
        } else {
            0.0
        }
    };
    let mut m = vec![
        metric("seq.build_s", s("seq.build"), "s"),
        metric("seq.residues", c("seq.build", "residues"), "count"),
        metric("hmmer.search_s", s("hmmer.search"), "s"),
        metric("hmmer.dp_cells", c("hmmer.search", "dp_cells"), "count"),
        metric(
            "hmmer.cells_per_s",
            ratio(c("hmmer.search", "dp_cells"), s("hmmer.search")),
            "cells/s",
        ),
        metric(
            "hmmer.filter_pass",
            ratio(
                c("hmmer.search", "viterbi_survivors"),
                c("hmmer.search", "db_sequences"),
            ),
            "ratio",
        ),
        metric("simarch.msa_phase_s", s("simarch.msa_phase"), "s"),
        metric(
            "simarch.stepped_accesses",
            c("simarch.msa_phase", "stepped_accesses"),
            "count",
        ),
        metric(
            "simarch.accesses_per_s",
            ratio(
                c("simarch.msa_phase", "stepped_accesses"),
                s("simarch.msa_phase"),
            ),
            "accesses/s",
        ),
        metric("model.infer_s", s("model.infer"), "s"),
        metric("model.flops", c("model.infer", "flops"), "count"),
        metric("model.launches", c("model.infer", "launches"), "count"),
        metric("gpu.price_s", s("gpu.price"), "s"),
        metric("gpu.kernels", c("gpu.price", "kernels"), "count"),
    ];
    for id in afsb_seq::samples::SampleId::all() {
        let span = format!("price.shape.{}", id.name());
        let secs = t.durations(&span).iter().fold(0.0, |acc, d| acc + d);
        m.push(metric(format!("price.shape_s.{}", id.name()), secs, "s"));
    }
    m.extend([
        metric("serve.gen_s", s("serve.gen"), "s"),
        metric("serve.loop_s", s("serve.loop"), "s"),
        metric(
            "serve.req_per_s",
            ratio(c("serve.loop", "requests"), s("serve.loop")),
            "req/s",
        ),
        metric(
            "serve.scaling_exp",
            scaling("serve.loop", "serve.loop.tenth"),
            "log10",
        ),
        metric("serve.events", c("serve.loop", "events"), "count"),
        metric("serve.batches", c("serve.loop", "batches"), "count"),
        metric("serve.cache.hits", c("serve.loop", "cache_hits"), "count"),
        metric(
            "serve.cache.misses",
            c("serve.loop", "cache_misses"),
            "count",
        ),
        metric(
            "serve.cache.evictions",
            c("serve.loop", "cache_evictions"),
            "count",
        ),
        metric(
            "serve.cache.coalesced",
            c("serve.loop", "cache_coalesced"),
            "count",
        ),
        metric("obs.critpath_s", s("obs.critpath"), "s"),
        metric("obs.export_s", s("obs.export"), "s"),
        metric("obs.spans", c("obs.export", "spans"), "count"),
        metric("obs.export_bytes", c("obs.export", "bytes"), "count"),
        metric("policy.loop_s", s("policy.loop"), "s"),
        metric(
            "policy.req_per_s",
            ratio(c("policy.loop", "requests"), s("policy.loop")),
            "req/s",
        ),
        metric(
            "policy.scaling_exp",
            scaling("policy.loop", "policy.loop.tenth"),
            "log10",
        ),
        metric(
            "policy.preemptions",
            c("policy.loop", "preemptions"),
            "count",
        ),
        metric("policy.requeues", c("policy.loop", "requeues"), "count"),
        metric(
            "policy.cache.misses",
            c("policy.loop", "cache_misses"),
            "count",
        ),
        metric(
            "policy.cache.evictions",
            c("policy.loop", "cache_evictions"),
            "count",
        ),
    ]);
    let traced = t.seconds(run_root);
    let in_layers: f64 = RUN_LAYERS.iter().map(|n| s(n)).sum();
    m.push(metric("bench.traced_run_s", traced, "s"));
    m.push(metric("bench.residual_s", traced - in_layers, "s"));
    m
}

/// What one workload run measured.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    layers: Vec<Vec<Metric>>,
    last_trace: Option<HostTrace>,
}

/// Repeat the unit until `args.seconds` have passed (at least once).
/// Before each unit, `setup` (the set-up that produced the unit's
/// inputs) is timed `SETUPS_PER_UNIT` times and its results dropped.
/// `work(None)` is the untraced unit, timed from outside; in trace mode
/// each untraced unit is followed by `work(Some(trace))`, whose spans
/// give the per-layer metrics. `check` verifies each unit's outputs.
fn measure<I, O>(
    args: &Args,
    tally: &mut Tally,
    setup: impl Fn() -> Result<I, String>,
    mut work: impl FnMut(Option<&mut HostTrace>) -> O,
    check: impl Fn(&O) -> Result<Digest, String>,
) -> Result<Measured, String> {
    let start = Instant::now();
    let mut m = Measured::default();
    loop {
        for _ in 0..SETUPS_PER_UNIT {
            let t = Instant::now();
            let inputs = setup()?;
            m.setup_s.push(t.elapsed().as_secs_f64());
            drop(inputs);
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            let t = Instant::now();
            let out = work(None);
            let secs = t.elapsed().as_secs_f64();
            (secs, check(&out))
        }));
        match run {
            Ok((secs, verdict)) => {
                m.run_s.push(secs);
                tally.record(verdict);
            }
            Err(p) => tally.record(Err(panic_text(p))),
        }
        if args.trace {
            let mut trace = HostTrace::new();
            let run = catch_unwind(AssertUnwindSafe(|| check(&work(Some(&mut trace)))));
            match run {
                Ok(verdict) => {
                    tally.record(verdict);
                    let root = trace.root(&args.workload).expect("the run root span");
                    m.layers.push(layer_metrics(&trace, root));
                    m.last_trace = Some(trace);
                }
                Err(p) => tally.record(Err(panic_text(p))),
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            return Ok(m);
        }
    }
}

/// The committed expected outputs every run loads during set-up: the
/// priced cost table, and this workload and seed's digest if recorded.
struct Expected {
    table: afsb_serve::CostTable,
    digest: Option<Digest>,
}

fn load_expected(args: &Args) -> Result<Expected, String> {
    let digest = fixture::load_digests()?
        .get(&args.workload)
        .and_then(|per_seed| per_seed.get(&args.seed))
        .cloned();
    Ok(Expected {
        table: fixture::load_cost_table()?,
        digest,
    })
}

fn run_price(args: &Args, tally: &mut Tally) -> Result<Measured, String> {
    let setup = || load_expected(args);
    let expected = setup()?;
    tally.expected = expected.digest;
    let seed = args.seed;
    let check = |table: &afsb_serve::CostTable| {
        fixture::compare_tables(table, &expected.table)?;
        let mut d = Digest::default();
        d.hash("cost_table", &fixture::cost_table_to_json(table).to_text());
        Ok(d)
    };
    measure(
        args,
        tally,
        setup,
        |trace| match trace {
            None => price::build(seed),
            Some(t) => {
                let setup = t.open(None, SETUP_ROOT);
                bypass(t, setup, &["serve.gen"]);
                t.close(setup);
                let root = t.open(None, "price");
                bypass(
                    t,
                    root,
                    &["serve.loop", "obs.critpath", "obs.export", "policy.loop"],
                );
                let table = price::build_traced(t, root, seed);
                t.close(root);
                let scaling = t.open(None, SCALING_ROOT);
                bypass(t, scaling, &["serve.loop.tenth", "policy.loop.tenth"]);
                t.close(scaling);
                table
            }
        },
        check,
    )
}

/// The pricing layers' spans, which the serve workloads bypass.
fn bypass_pricing(trace: &mut HostTrace, parent: Span) {
    bypass(
        trace,
        parent,
        &[
            "seq.build",
            "hmmer.search",
            "simarch.msa_phase",
            "model.infer",
            "gpu.price",
        ],
    );
    for id in afsb_seq::samples::SampleId::all() {
        bypass(trace, parent, &[&format!("price.shape.{}", id.name())]);
    }
}

fn run_serve_hot(args: &Args, tally: &mut Tally) -> Result<Measured, String> {
    let config = serve::hot_config(args.seed, serve::HOT_REQUESTS);
    let tenth = serve::hot_config(args.seed, serve::HOT_REQUESTS / 10);
    let setup = || {
        let expected = load_expected(args)?;
        Ok((expected, afsb_serve::workload::generate(&config.workload)))
    };
    let (expected, requests) = setup()?;
    tally.expected = expected.digest;
    let costs = &expected.table;
    measure(
        args,
        tally,
        setup,
        |trace| match trace {
            None => {
                let (report, obs) = serve::hot_loop(&config, costs);
                let path = serve::hot_critpath(&report);
                let exports = path.as_ref().ok().map(|p| serve::hot_export(&obs, p));
                (report, obs, path, exports.unwrap_or_default())
            }
            Some(t) => {
                let setup = t.open(None, SETUP_ROOT);
                t.time(setup, "serve.gen", || workload_len(&config));
                t.close(setup);
                let root = t.open(None, "serve-hot");
                bypass_pricing(t, root);
                bypass(t, root, &["policy.loop"]);
                let (report, obs) = t.time(root, "serve.loop", || serve::hot_loop(&config, costs));
                let span = t.last();
                count_report(t, span, &report);
                let edges = report.causal.as_ref().map_or(0, |c| c.edges.len());
                t.count(span, "events", edges as f64);
                let path = t.time(root, "obs.critpath", || serve::hot_critpath(&report));
                let exports = path.as_ref().ok().map(|p| {
                    let out = t.time(root, "obs.export", || serve::hot_export(&obs, p));
                    let span = t.last();
                    let bytes: usize = out.iter().map(String::len).sum();
                    t.count(span, "bytes", bytes as f64);
                    t.count(span, "spans", obs.tracer.span_count() as f64);
                    out
                });
                t.close(root);
                let scaling = t.open(None, SCALING_ROOT);
                t.time(scaling, "serve.loop.tenth", || {
                    serve::hot_loop(&tenth, costs)
                });
                let span = t.last();
                t.count(span, "requests", tenth.workload.num_requests as f64);
                bypass(t, scaling, &["policy.loop.tenth"]);
                t.close(scaling);
                (report, obs, path, exports.unwrap_or_default())
            }
        },
        |(report, obs, path, exports)| {
            let path = path.as_ref().map_err(Clone::clone)?;
            let out = serve::HotOutput {
                report,
                obs,
                path,
                exports,
            };
            serve::hot_digest(&out, &requests)
        },
    )
}

fn run_serve_churn(args: &Args, tally: &mut Tally) -> Result<Measured, String> {
    let config = serve::churn_config(args.seed, serve::CHURN_REQUESTS);
    let tenth = serve::churn_config(args.seed, serve::CHURN_REQUESTS / 10);
    let chaos = serve::kitchen_sink();
    let setup = || {
        let expected = load_expected(args)?;
        Ok((expected, afsb_serve::workload::generate(&config.workload)))
    };
    let (expected, requests) = setup()?;
    tally.expected = expected.digest;
    let costs = &expected.table;
    measure(
        args,
        tally,
        setup,
        |trace| match trace {
            None => serve::churn_loop(&config, costs, &chaos),
            Some(t) => {
                let setup = t.open(None, SETUP_ROOT);
                t.time(setup, "serve.gen", || workload_len(&config));
                t.close(setup);
                let root = t.open(None, "serve-churn");
                bypass_pricing(t, root);
                bypass(t, root, &["serve.loop", "obs.critpath", "obs.export"]);
                let r = t.time(root, "policy.loop", || {
                    serve::churn_loop(&config, costs, &chaos)
                });
                let span = t.last();
                count_report(t, span, &r.chaos.base);
                t.count(span, "preemptions", r.preemptions as f64);
                t.count(span, "requeues", r.chaos.requeues as f64);
                t.close(root);
                let scaling = t.open(None, SCALING_ROOT);
                bypass(t, scaling, &["serve.loop.tenth"]);
                t.time(scaling, "policy.loop.tenth", || {
                    serve::churn_loop(&tenth, costs, &chaos)
                });
                let span = t.last();
                t.count(span, "requests", tenth.workload.num_requests as f64);
                t.close(scaling);
                r
            }
        },
        |r| serve::churn_digest(r, &requests),
    )
}

/// Generate the stream (as set-up does) and return its length.
fn workload_len(config: &afsb_serve::ServeConfig) -> usize {
    afsb_serve::workload::generate(&config.workload).len()
}

fn count_report(t: &mut HostTrace, span: Span, r: &afsb_serve::ServeReport) {
    t.count(span, "requests", r.outcomes.len() as f64);
    t.count(span, "batches", r.batches as f64);
    t.count(span, "cache_hits", r.cache_hits as f64);
    t.count(span, "cache_misses", r.cache_misses as f64);
    t.count(span, "cache_evictions", r.cache_evictions as f64);
    t.count(span, "cache_coalesced", r.cache_coalesced as f64);
}

/// Median per metric across traced units; a work counter that differs
/// between units is a failed operation.
fn aggregate_layers(runs: &[Vec<Metric>], tally: &mut Tally) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            if m.unit == "count" && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                tally.attempted += 1;
                tally.failed += 1;
                eprintln!(
                    "hostbench: work counter {} differs between units: {values:?}",
                    m.name
                );
            }
            metric(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

fn write_trace(args: &Args, trace: &HostTrace) -> Result<String, String> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}.seed{}", args.workload, args.seed);
    let obs = trace.to_obs();
    let chrome = dir.join(format!("{stem}.trace.json"));
    let collapsed = dir.join(format!("{stem}.collapsed.txt"));
    std::fs::write(&chrome, obs.chrome_trace_text())
        .and_then(|()| std::fs::write(&collapsed, obs.tracer.flamegraph()))
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(format!("{} and {}", chrome.display(), collapsed.display()))
}

fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    let mut tally = Tally::default();
    let measured = match args.workload.as_str() {
        "price" => run_price(args, &mut tally)?,
        "serve-hot" => run_serve_hot(args, &mut tally)?,
        _ => run_serve_churn(args, &mut tally)?,
    };
    if measured.run_s.is_empty() {
        return Err("every unit panicked; nothing was timed".to_owned());
    }
    let run_s = median(&measured.run_s);
    let peak_rss_mb = host::peak_rss_mb()?;
    let n = measured.run_s.len();
    println!(
        "hostbench {} seed {} ({} s budget, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  setup_s      {:.6} s  (median of {} set-ups, {SETUPS_PER_UNIT} before each unit)",
        median(&measured.setup_s),
        measured.setup_s.len()
    );
    let tail = match tail_percentile(&measured.run_s) {
        Some((p, v)) => format!("p{p} {v:.6} s"),
        None => "no percentile has ten samples beyond it".to_owned(),
    };
    let (lo, hi) = measured
        .run_s
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    println!(
        "  run_s        {run_s:.6} s  (median of {n} units, min {lo:.6}, max {hi:.6}; {tail})"
    );
    println!("  peak_rss_mb  {peak_rss_mb:.1} MiB  (VmHWM)");
    println!(
        "  error_rate   {} / {} = {}  (failed / attempted operations)",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );

    let metrics = if args.trace {
        let mut layers = aggregate_layers(&measured.layers, &mut tally);
        // Traced minus untraced time of the same work: the run root
        // excludes the traced unit's set-up and n/10 scaling spans.
        if let Some(traced) = layers.iter().find(|m| m.name == "bench.traced_run_s") {
            let overhead = traced.value - run_s;
            layers.push(metric("bench.trace_overhead_s", overhead, "s"));
        }
        for m in &layers {
            println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        if let Some(trace) = &measured.last_trace {
            println!("  trace written to {}", write_trace(args, trace)?);
        }
        layers
    } else {
        vec![
            metric("setup_s", median(&measured.setup_s), "s"),
            metric("run_s", run_s, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    Ok(json_line(&tally, &metrics))
}

/// Re-price the cost-table fixture and record the serve digests for
/// `first..=last`. Run it only after a deliberate change to simulated
/// outputs; the `price` workload then proves the new fixture current.
fn record_fixtures(first: u64, last: u64) -> Result<(), String> {
    let table = price::build(fixture::FIXTURE_SEED);
    let mut text = fixture::cost_table_to_json(&table).pretty();
    text.push('\n');
    let path = fixture::cost_table_path();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    let chaos = serve::kitchen_sink();
    let mut digests = fixture::Digests::new();
    for seed in first..=last {
        let config = serve::hot_config(seed, serve::HOT_REQUESTS);
        let requests = afsb_serve::workload::generate(&config.workload);
        let (report, obs) = serve::hot_loop(&config, &table);
        let path = serve::hot_critpath(&report)?;
        let exports = serve::hot_export(&obs, &path);
        let out = serve::HotOutput {
            report: &report,
            obs: &obs,
            path: &path,
            exports: &exports,
        };
        let d = serve::hot_digest(&out, &requests)?;
        digests
            .entry("serve-hot".into())
            .or_default()
            .insert(seed, d);

        let config = serve::churn_config(seed, serve::CHURN_REQUESTS);
        let requests = afsb_serve::workload::generate(&config.workload);
        let r = serve::churn_loop(&config, &table, &chaos);
        let d = serve::churn_digest(&r, &requests)?;
        digests
            .entry("serve-churn".into())
            .or_default()
            .insert(seed, d);
        eprintln!("recorded seed {seed}");
    }
    let path = fixture::digests_path();
    std::fs::write(&path, fixture::digests_to_text(&digests))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("record-fixtures") {
        let range: Result<Vec<u64>, _> = argv[1..].iter().map(|s| s.parse()).collect();
        return match range.as_deref() {
            Ok([first, last]) => match record_fixtures(*first, *last) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("hostbench: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: hostbench record-fixtures <first-seed> <last-seed>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
