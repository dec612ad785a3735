//! Per-sample search data: executed once, reused across every platform,
//! thread count, table and figure.
//!
//! The expensive part of the characterization is running the real search
//! engine (jackhmmer per protein entity × protein database, nhmmer per
//! RNA entity × RNA database). The resulting [`WorkCounters`] are
//! platform- and thread-independent — the simulator replays them under
//! different hardware models — so they are computed once per sample and
//! cached.

use crate::calib;
use afsb_hmmer::counters::WorkCounters;
use afsb_hmmer::jackhmmer::{self, JackhmmerConfig};
use afsb_hmmer::nhmmer::{self, NhmmerConfig};
use afsb_hmmer::pipeline::PipelineConfig;
use afsb_seq::alphabet::MoleculeKind;
use afsb_seq::complexity;
use afsb_seq::database::{DatabaseSpec, SequenceDatabase, StandardDb};
use afsb_seq::samples::{self, Sample, SampleId};
use std::collections::HashMap;
use std::sync::Arc;

/// How big the synthetic databases are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbScale {
    /// Benchmark scale (seconds per search; used by the figure harness).
    Bench,
    /// Test scale (milliseconds per search; used by unit/integration
    /// tests).
    Test,
}

impl DbScale {
    fn shrink(self, spec: DatabaseSpec) -> DatabaseSpec {
        match self {
            DbScale::Bench => spec,
            DbScale::Test => DatabaseSpec {
                num_decoys: (spec.num_decoys / 25).max(30),
                family_size: (spec.family_size / 2).max(3),
                ..spec
            },
        }
    }
}

/// Context configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextConfig {
    /// Database scale.
    pub scale: DbScale,
    /// Maximum jackhmmer iterations.
    pub max_iterations: usize,
    /// RNG seed namespace.
    pub seed: u64,
}

impl ContextConfig {
    /// Benchmark-scale context.
    pub fn bench() -> ContextConfig {
        ContextConfig {
            scale: DbScale::Bench,
            max_iterations: 2,
            seed: 11,
        }
    }

    /// Fast test-scale context.
    pub fn test() -> ContextConfig {
        ContextConfig {
            scale: DbScale::Test,
            max_iterations: 1,
            seed: 11,
        }
    }

    fn pipeline(&self) -> PipelineConfig {
        match self.scale {
            DbScale::Bench => PipelineConfig::default(),
            DbScale::Test => PipelineConfig {
                calibration_samples: 48,
                calibration_target_len: 96,
                ..PipelineConfig::default()
            },
        }
    }
}

/// One (chain entity × database) executed search.
#[derive(Debug, Clone)]
pub struct DbSearch {
    /// Database display name.
    pub db_name: String,
    /// On-disk bytes of the modelled real database.
    pub paper_bytes: u64,
    /// Synthetic→paper work scale factor.
    pub scale_factor: f64,
    /// Raw (synthetic-scale) executed work counters.
    pub counters: WorkCounters,
    /// Hits reported.
    pub hits: usize,
    /// MSA rows contributed.
    pub msa_rows: usize,
}

impl DbSearch {
    /// Counters extrapolated to the modelled real database size: every
    /// scan-proportional count is multiplied by the scale factor (peak
    /// state is per-candidate and does not scale with database size).
    pub fn paper_counters(&self) -> WorkCounters {
        let s = |v: u64| (v as f64 * self.scale_factor).round() as u64;
        WorkCounters {
            db_sequences: s(self.counters.db_sequences),
            db_residues: s(self.counters.db_residues),
            ssv_cells: s(self.counters.ssv_cells),
            msv_cells: s(self.counters.msv_cells),
            band_cells_mi: s(self.counters.band_cells_mi),
            band_cells_ds: s(self.counters.band_cells_ds),
            forward_cells: s(self.counters.forward_cells),
            traceback_cells: s(self.counters.traceback_cells),
            ssv_survivors: s(self.counters.ssv_survivors),
            msv_survivors: s(self.counters.msv_survivors),
            viterbi_survivors: s(self.counters.viterbi_survivors),
            hits: s(self.counters.hits),
            rescans: s(self.counters.rescans),
            rescan_bytes: s(self.counters.rescan_bytes),
            buffer_fills: s(self.counters.buffer_fills),
            buffer_peeks: s(self.counters.buffer_peeks),
            copied_bytes: s(self.counters.copied_bytes),
            peak_state_bytes: self.counters.peak_state_bytes,
        }
    }
}

/// All searches of one chain entity.
#[derive(Debug, Clone)]
pub struct ChainSearch {
    /// Chain entity id.
    pub chain_id: String,
    /// Molecule kind.
    pub kind: MoleculeKind,
    /// Query length.
    pub query_len: usize,
    /// SEG-like low-complexity fraction of the query (drives the trace
    /// locality — the `promo` mechanism).
    pub low_complexity_fraction: f64,
    /// Per-database searches.
    pub per_db: Vec<DbSearch>,
}

/// Everything executed for one sample.
#[derive(Debug, Clone)]
pub struct SampleSearchData {
    /// The benchmark sample.
    pub sample: Sample,
    /// Per-chain-entity searches (MSA-searched kinds only).
    pub chains: Vec<ChainSearch>,
    /// Total MSA depth fed to inference.
    pub msa_depth: usize,
}

impl SampleSearchData {
    /// Sum of raw counters over every search.
    pub fn total_counters(&self) -> WorkCounters {
        let mut total = WorkCounters::default();
        for chain in &self.chains {
            for db in &chain.per_db {
                total.merge(&db.counters);
            }
        }
        total
    }

    /// Sum of paper-scale counters over every search.
    pub fn total_paper_counters(&self) -> WorkCounters {
        let mut total = WorkCounters::default();
        for chain in &self.chains {
            for db in &chain.per_db {
                total.merge(&db.paper_counters());
            }
        }
        total
    }

    /// Total paper-scale bytes scanned from databases.
    pub fn paper_scan_bytes(&self) -> u64 {
        self.chains
            .iter()
            .flat_map(|c| c.per_db.iter())
            .map(|d| d.paper_bytes)
            .sum()
    }

    /// Paper-scale peak MSA memory (protein model at the given thread
    /// count plus the nhmmer curve for the longest RNA chain).
    pub fn paper_peak_msa_bytes(&self, threads: usize) -> u64 {
        self.paper_peak_msa_bytes_capped(threads, None)
    }

    /// Paper-scale MSA peak under an optional nhmmer window cap (the
    /// degradation ladder's second rung): RNA chains are charged at the
    /// capped length, protein chains are unaffected.
    pub fn paper_peak_msa_bytes_capped(
        &self,
        threads: usize,
        rna_window_cap: Option<usize>,
    ) -> u64 {
        let mut peak = 0u64;
        for chain in &self.chains {
            let b = match chain.kind {
                MoleculeKind::Protein => jackhmmer::paper_peak_bytes(chain.query_len, threads),
                MoleculeKind::Rna => match rna_window_cap {
                    Some(cap) => nhmmer::paper_peak_bytes_capped(chain.query_len, cap),
                    None => nhmmer::paper_peak_bytes(chain.query_len),
                },
                _ => 0,
            };
            peak = peak.max(b);
        }
        peak
    }
}

/// The cache of executed sample search data.
#[derive(Debug)]
pub struct BenchContext {
    config: ContextConfig,
    cache: HashMap<SampleId, Arc<SampleSearchData>>,
}

impl BenchContext {
    /// Create an empty context.
    pub fn new(config: ContextConfig) -> BenchContext {
        BenchContext {
            config,
            cache: HashMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ContextConfig {
        &self.config
    }

    /// Executed search data for a sample (computed on first use).
    pub fn sample_data(&mut self, id: SampleId) -> Arc<SampleSearchData> {
        if let Some(data) = self.cache.get(&id) {
            return Arc::clone(data);
        }
        let data = Arc::new(self.execute(id));
        self.cache.insert(id, Arc::clone(&data));
        data
    }

    fn execute(&self, id: SampleId) -> SampleSearchData {
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
                MoleculeKind::Rna => StandardDb::rna_set(),
                _ => unreachable!("filtered above"),
            };
            let mut per_db = Vec::new();
            for &std_db in db_set {
                let spec = self.config.scale.shrink(std_db.spec());
                let db = SequenceDatabase::build_with_queries(spec, std::slice::from_ref(query));
                let (counters, hits, msa_rows) = match chain.kind() {
                    MoleculeKind::Protein => {
                        let cfg = JackhmmerConfig {
                            max_iterations: self.config.max_iterations,
                            threads: 1,
                            pipeline: self.config.pipeline(),
                            ..JackhmmerConfig::default()
                        };
                        let r = jackhmmer::run(query, &db, &cfg);
                        (r.counters, r.hits.len(), r.msa.depth())
                    }
                    MoleculeKind::Rna => {
                        let cfg = NhmmerConfig {
                            threads: 1,
                            pipeline: self.config.pipeline(),
                            ..NhmmerConfig::default()
                        };
                        let r = nhmmer::run(query, &db, &cfg);
                        let n = r.hits.len();
                        (r.counters, n, n + 1)
                    }
                    _ => unreachable!("filtered above"),
                };
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
}

/// Default engine sample cap re-export (keeps bench call sites tidy).
pub const SAMPLE_CAP: u64 = calib::DEFAULT_SAMPLE_CAP;

/// The quick/full experiment scale: the context and engine sample cap
/// every harness runs with. `quick` selects the test-scale databases
/// and a 400k sampling budget; full mode the bench-scale databases and
/// [`calib::DEFAULT_SAMPLE_CAP`].
pub fn scale(quick: bool) -> (ContextConfig, u64) {
    if quick {
        (ContextConfig::test(), 400_000)
    } else {
        (ContextConfig::bench(), calib::DEFAULT_SAMPLE_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_caches_sample_data() {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let a = ctx.sample_data(SampleId::S7rce);
        let b = ctx.sample_data(SampleId::S7rce);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn protein_only_sample_has_protein_searches() {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let data = ctx.sample_data(SampleId::S2pv7);
        // One entity (homodimer), three protein databases.
        assert_eq!(data.chains.len(), 1);
        assert_eq!(data.chains[0].per_db.len(), 3);
        assert!(data.msa_depth >= 1);
        assert!(data.total_counters().db_residues > 0);
    }

    #[test]
    fn dna_chains_excluded_from_msa() {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let data = ctx.sample_data(SampleId::S7rce);
        // Protein(1) searched; the two DNA chains are not (paper §IV-B).
        assert_eq!(data.chains.len(), 1);
        assert_eq!(data.chains[0].kind, MoleculeKind::Protein);
    }

    #[test]
    fn rna_sample_searches_rna_databases() {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let data = ctx.sample_data(SampleId::S6qnr);
        let rna: Vec<_> = data
            .chains
            .iter()
            .filter(|c| c.kind == MoleculeKind::Rna)
            .collect();
        assert_eq!(rna.len(), 1);
        assert_eq!(rna[0].per_db.len(), 3);
        assert!(rna[0].per_db.iter().any(|d| d.db_name.contains("nt_rna")));
        // 9 protein entities + 1 RNA.
        assert_eq!(data.chains.len(), 10);
    }

    #[test]
    fn promo_flags_low_complexity() {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let promo = ctx.sample_data(SampleId::Promo);
        let chain_a = &promo.chains[0];
        assert!(
            chain_a.low_complexity_fraction > 0.05,
            "poly-Q chain must be flagged, got {}",
            chain_a.low_complexity_fraction
        );
        // The other protein chains are clean.
        assert!(promo.chains[1].low_complexity_fraction < 0.05);
    }

    #[test]
    fn paper_counters_scale_up() {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let data = ctx.sample_data(SampleId::S2pv7);
        let raw = data.total_counters();
        let paper = data.total_paper_counters();
        assert!(paper.ssv_cells > raw.ssv_cells * 100);
        assert_eq!(paper.peak_state_bytes, raw.peak_state_bytes);
    }

    #[test]
    fn peak_memory_uses_rna_curve_for_6qnr() {
        let mut ctx = BenchContext::new(ContextConfig::test());
        let qnr = ctx.sample_data(SampleId::S6qnr);
        let pv7 = ctx.sample_data(SampleId::S2pv7);
        // 6QNR's RNA (120 nt) peak still exceeds 2PV7's protein-model
        // peak because the nhmmer curve grows fast.
        assert!(qnr.paper_peak_msa_bytes(8) > pv7.paper_peak_msa_bytes(8));
    }
}
