//! `afsb-perf`: deterministic perf-stat/Nsight-style profiler over the
//! simulated pipeline, with baseline diffing for a CI regression gate.
//!
//! Where the PR-3 tracer (`rt::obs` + `core::trace`) answers *what
//! happened when* — a span tree on the simulated clock — this crate
//! answers *where the cycles went and did that change*:
//!
//! * [`stat`] — `perf stat`-style typed session: every counter source
//!   (CPU [`afsb_simarch::perf::SymbolStats`], hmmer DP cells, the GPU
//!   cost log) folded into the paper's Table III–V row schema with
//!   derived metrics (IPC, LLC/dTLB miss ratios, DRAM-BW utilization,
//!   roofline attainment).
//! * [`record`] — `perf record`-style sampled profile: probe the span
//!   stack at a fixed simulated-time interval, emit top-N tables and
//!   collapsed stacks. Deterministic — no wall clock anywhere.
//! * [`iostat`] — `iostat -x`-style per-interval device timeline over
//!   the simulated storage model.
//! * [`profile`] — experiment drivers (`pipeline`, `msa-sweep`) that
//!   run a workload under the tracer and fold everything above into a
//!   single diffable baseline.
//! * [`baseline`] — `BENCH_<experiment>.json` serialization and the
//!   tolerance-based diff engine behind `afsysbench perf-diff`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod iostat;
pub mod profile;
pub mod record;
pub mod stat;

pub use baseline::{diff, DiffReport, DiffTolerances, PerfBaseline};
pub use profile::{baseline_file_name, profile_names, run_profile, ProfileArtifacts, PROFILES};
pub use record::SampledProfile;
pub use stat::PerfStatReport;
