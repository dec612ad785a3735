//! The `price` workload: `CostTable::build(Server, quick, 4 threads,
//! seed)` over all five samples. The traced variant drives the same
//! layers in `CostTable::build`'s order from here — `seq` database
//! generation, `hmmer` search, `simarch` replay, `model` inference and
//! `gpu` pricing — with a host span around every call, and its table
//! must equal the fixture just like the untraced one.

use crate::host::{HostTrace, Span};
use afsb_core::calib;
use afsb_core::context::{ChainSearch, DbSearch, SampleSearchData};
use afsb_core::inference_phase::gpu_for;
use afsb_core::msa_phase::{run_msa_phase, MsaPhaseOptions};
use afsb_gpu::runtime::{GpuRuntime, HostCpuModel};
use afsb_hmmer::counters::WorkCounters;
use afsb_hmmer::jackhmmer::{self, JackhmmerConfig};
use afsb_hmmer::nhmmer::{self, NhmmerConfig};
use afsb_hmmer::pipeline::PipelineConfig;
use afsb_model::{run_inference, ModelConfig};
use afsb_seq::alphabet::MoleculeKind;
use afsb_seq::complexity;
use afsb_seq::database::{DatabaseSpec, SequenceDatabase, StandardDb};
use afsb_seq::samples::{self, SampleId};
use afsb_serve::server::{CostTable, ShapeCost};
use afsb_simarch::config::GIB;
use afsb_simarch::memory::CapacityModel;
use afsb_simarch::Platform;
use std::collections::BTreeMap;

const PLATFORM: Platform = Platform::Server;
const MSA_THREADS: usize = 4;

// `CostTable::build(quick = true)` settings, restated because the
// traced path re-drives the layers itself. A drift here shows as a
// traced table that no longer matches the fixture.
const SAMPLE_CAP: u64 = 400_000;
const MAX_ITERATIONS: usize = 1;
const FEATURE_CELL_BYTES: u64 = 16;
const FEATURE_LOAD_BASE_S: f64 = 0.05;

/// One untraced unit: the real `CostTable::build`.
pub fn build(seed: u64) -> CostTable {
    CostTable::build(PLATFORM, true, MSA_THREADS, seed)
}

/// `ContextConfig::test()`'s database shrink.
fn shrink(spec: DatabaseSpec) -> DatabaseSpec {
    DatabaseSpec {
        num_decoys: (spec.num_decoys / 25).max(30),
        family_size: (spec.family_size / 2).max(3),
        ..spec
    }
}

/// `ContextConfig::test()`'s search pipeline.
fn pipeline() -> PipelineConfig {
    PipelineConfig {
        calibration_samples: 48,
        calibration_target_len: 96,
        ..PipelineConfig::default()
    }
}

fn dp_cells(c: &WorkCounters) -> u64 {
    c.ssv_cells
        + c.msv_cells
        + c.band_cells_mi
        + c.band_cells_ds
        + c.forward_cells
        + c.traceback_cells
}

/// `BenchContext::sample_data` for one sample, with a `seq.build` span
/// around each database generation and an `hmmer.search` span around
/// each search.
fn search_sample(trace: &mut HostTrace, parent: Span, id: SampleId) -> SampleSearchData {
    let sample = samples::sample(id);
    let mut chains = Vec::new();
    let mut msa_depth = 0usize;
    for chain in sample.assembly.chains() {
        if !chain.kind().msa_searched() {
            continue;
        }
        let query = chain.sequence();
        let profile = complexity::profile(query);
        let db_set = match chain.kind() {
            MoleculeKind::Protein => StandardDb::protein_set(),
            _ => StandardDb::rna_set(),
        };
        let mut per_db = Vec::new();
        for &std_db in db_set {
            let spec = shrink(std_db.spec());
            let db = trace.time(parent, "seq.build", || {
                SequenceDatabase::build_with_queries(spec, std::slice::from_ref(query))
            });
            let span = trace.last();
            trace.count(span, "residues", db.total_residues() as f64);
            let (counters, hits, msa_rows) = trace.time(parent, "hmmer.search", || {
                if chain.kind() == MoleculeKind::Protein {
                    let cfg = JackhmmerConfig {
                        max_iterations: MAX_ITERATIONS,
                        threads: 1,
                        pipeline: pipeline(),
                        ..JackhmmerConfig::default()
                    };
                    let r = jackhmmer::run(query, &db, &cfg);
                    (r.counters, r.hits.len(), r.msa.depth())
                } else {
                    let cfg = NhmmerConfig {
                        threads: 1,
                        pipeline: pipeline(),
                        ..NhmmerConfig::default()
                    };
                    let r = nhmmer::run(query, &db, &cfg);
                    let n = r.hits.len();
                    (r.counters, n, n + 1)
                }
            });
            let span = trace.last();
            trace.count(span, "dp_cells", dp_cells(&counters) as f64);
            trace.count(span, "db_sequences", counters.db_sequences as f64);
            trace.count(span, "viterbi_survivors", counters.viterbi_survivors as f64);
            msa_depth += msa_rows;
            per_db.push(DbSearch {
                db_name: db.spec().name.clone(),
                paper_bytes: db.paper_bytes(),
                scale_factor: db.scale_factor(),
                counters,
                hits,
                msa_rows,
            });
        }
        chains.push(ChainSearch {
            chain_id: chain.ids()[0].clone(),
            kind: chain.kind(),
            query_len: query.len(),
            low_complexity_fraction: profile.low_complexity_fraction,
            per_db,
        });
    }
    SampleSearchData {
        sample,
        chains,
        msa_depth: msa_depth.max(1),
    }
}

/// One traced unit: `CostTable::build`'s body, one span per layer call,
/// under one `price.shape.<sample>` span per sample, all under `root`.
pub fn build_traced(trace: &mut HostTrace, root: Span, seed: u64) -> CostTable {
    let runtime = GpuRuntime::new(
        gpu_for(PLATFORM),
        HostCpuModel {
            single_core_score: calib::host_cpu_score(PLATFORM),
        },
    );
    let capacity = CapacityModel::new(&PLATFORM.spec());
    let storage_bps = PLATFORM.spec().storage.seq_read_gibs * GIB as f64;
    let options = MsaPhaseOptions {
        sample_cap: SAMPLE_CAP,
        ..MsaPhaseOptions::default()
    };

    let mut shapes = BTreeMap::new();
    let mut init_s = 0.0f64;
    let mut dispatch_s = 0.0f64;
    for &id in &SampleId::all() {
        let shape = trace.open(Some(root), format!("price.shape.{}", id.name()));
        let data = search_sample(trace, shape, id);
        let msa = trace.time(shape, "simarch.msa_phase", || {
            run_msa_phase(&data, PLATFORM, MSA_THREADS, &options)
        });
        let span = trace.last();
        let stepped = msa.sim.totals.accesses as f64 * msa.sim.sample_rate;
        trace.count(span, "stepped_accesses", stepped.round());
        let peak = data.paper_peak_msa_bytes(MSA_THREADS);
        let admitted = capacity.admit(peak).completes() && msa.completed();
        let model = trace.time(shape, "model.infer", || {
            run_inference(
                &data.sample.assembly,
                data.msa_depth,
                &ModelConfig::paper(),
                seed,
            )
        });
        let span = trace.last();
        trace.count(span, "flops", model.cost_log.total_flops());
        trace.count(span, "launches", model.cost_log.total_launches() as f64);
        let (cold, warm) = trace.time(shape, "gpu.price", || {
            (
                runtime.run_cold(&model.cost_log, model.working_set_bytes),
                runtime.run_warm(&model.cost_log, model.working_set_bytes),
            )
        });
        let span = trace.last();
        let kernels = cold.timeline.spans().len() + warm.timeline.spans().len();
        trace.count(span, "kernels", kernels as f64);
        init_s = cold.init_s;
        dispatch_s = warm.init_s + warm.finalize_s;
        let feature_bytes = data.msa_depth as u64
            * data.sample.assembly.total_residues() as u64
            * FEATURE_CELL_BYTES;
        shapes.insert(
            id,
            ShapeCost {
                msa_s: msa.wall_seconds(),
                feature_bytes,
                feature_load_s: FEATURE_LOAD_BASE_S + feature_bytes as f64 / storage_bps,
                peak_msa_bytes: peak,
                admitted,
                compile_s: cold.xla_compile_s,
                compute_s: warm.gpu_compute_s,
            },
        );
        trace.close(shape);
    }
    CostTable {
        platform: PLATFORM,
        msa_threads: MSA_THREADS,
        init_s,
        dispatch_s,
        shapes,
    }
}
