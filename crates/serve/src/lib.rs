//! `afsb-serve`: a deterministic multi-query serving simulator.
//!
//! The paper characterizes one query at a time; this crate turns that
//! single-run model into the serving system its own data points at.
//! MSA dominates end-to-end latency (§III), while `xla_compile` and
//! runtime init amortize across runs (Fig. 8 / Table V) — so a server
//! that (a) caches MSA features for repeated entities and (b) keeps a
//! warm GPU session forming batches pays the dominant costs once
//! instead of per request:
//!
//! - [`workload`]: a seeded request-arrival generator over the
//!   benchmark samples — Poisson arrivals, Zipf-like entity repetition
//!   (popular complexes recur, as in PPI screening),
//! - [`cache`]: a content-addressed, capacity-bounded LRU cache of MSA
//!   feature files — a hit skips the entire CPU phase and charges only
//!   a storage-priced feature load,
//! - [`server`]: the phase-decoupled scheduler's types and its
//!   fault-free entry point — a CPU worker pool drains MSA jobs while
//!   the GPU queue forms inference batches of size B, paying
//!   `xla_compile` once per shape and runtime init once per process
//!   (reusing `gpu::runtime`'s cold/warm split), with per-request
//!   [`afsb_core::resilience::Deadline`]s and the §VI admission check;
//!   [`run_serve`] is the [`chaos`] loop under an empty fault plan,
//! - [`queue`]: the ordered backlogs the loops share — the GPU's
//!   [`ReadyPool`] (earliest-ready first) and the policy loop's keyed
//!   MSA queue — so picking the next request is O(log n), not a sort,
//! - [`scenario`]: the one [`Scenario`] type (config, fault plan, and
//!   the loop that serves it) and the one [`run_scenarios`] runner
//!   behind every canonical serving experiment, plus the canonical and
//!   XL scenario sets,
//! - [`reference`](mod@reference): the frozen seed step-scan
//!   scheduler, kept verbatim as the byte-equivalence oracle for both
//!   event loops,
//! - [`chaos`]: the eager loop — each miss is assigned to a worker at
//!   arrival, so concurrent misses can coalesce — with `rt::fault`
//!   plans delivered into it and answered by a recovery policy
//!   (requeue with backoff, circuit breaker, deadline shedding,
//!   overload degradation), every admitted request ending in exactly
//!   one disposition,
//! - [`whatif`]: the causal profiler's projection engine — virtual
//!   speedups (MSA ×k, GPU ×k, XLA ×k, +N workers, infinite cache)
//!   replayed Coz-style over the provenance DAG the engine recorded,
//!   each prediction validated against a ground-truth re-run with
//!   scaled cost tables (`rt::obs::causal` extracts the critical path
//!   and blame shares the projections are built on),
//! - [`policy`]: the lazy loop — misses wait in a keyed queue until a
//!   worker frees — carrying pluggable scheduling policies: FIFO
//!   (byte-identical baseline), predicted-cost SJF, EDF, shape-bucketed
//!   GPU batching, checkpoint-yield preemption and speculative
//!   MSA-depth degradation, run as a matrix and validated against the
//!   [`whatif`] projections.
//!
//! The two loops share one core (the private `core` module): set-up,
//! feature fills, the GPU batch close, fault recovery, the timeline
//! sample and the report fold. They differ only in their MSA side.
//! Every canonical experiment — the canonical and XL ablations, the
//! chaos matrix, the telemetry dashboard, the policy matrix — is a set
//! of [`Scenario`]s run by [`run_scenarios`], and every run reports a
//! [`PolicyReport`] (an eager run carries plain FIFO and zero
//! preemptions, so its render is the chaos render). A scenario names
//! its loop explicitly (`policy: None` is eager), because eager and
//! lazy FIFO diverge under faults.
//!
//! Everything runs on the simulated clock: the same seed yields
//! byte-identical reports, metrics and traces.

pub mod cache;
pub mod chaos;
mod core;
pub mod policy;
pub mod queue;
pub mod reference;
pub mod scenario;
pub mod server;
pub mod telemetry;
pub mod whatif;
pub mod workload;

pub use cache::FeatureCache;
pub use chaos::{
    chaos_scenarios, render_chaos_summary, run_serve_chaos, ChaosConfig, ChaosReport, Disposition,
    RecoveryPolicy,
};
pub use policy::{
    policy_scenarios, render_policy_matrix, run_policy_matrix, run_serve_policy, PolicyConfig,
    PolicyMatrixReport, PolicyReport, PolicyWhatIf, QueueDiscipline, POLICY_WHATIF_TOLERANCE_PP,
    SPECULATE_DEPTH,
};
pub use queue::{KeyedQueue, ReadyEntry, ReadyPool};
pub use reference::run_serve_reference;
pub use scenario::{
    cold_config, default_scenarios, render_summary, run_scenarios, xl_scenarios, Scenario,
    ScenarioRun,
};
pub use server::{
    run_serve, CausalLog, CostTable, PhaseSegments, RequestOutcome, SegmentSplit, ServeConfig,
    ServeReport, TelemetryConfig, TIMELINE_COLUMNS,
};
pub use telemetry::{
    render_telemetry, render_timeline_block, run_telemetry, TelemetryReport,
    TELEMETRY_CHAOS_SCENARIO,
};
pub use whatif::{
    canonical_whatifs, predict_makespan, render_whatif, run_whatif, WhatIf, WhatIfReport,
    WhatIfRow, WHATIF_OFF_PATH_DELTA_PP, WHATIF_ON_PATH_SHARE, WHATIF_ON_PATH_TOLERANCE_PP,
};
pub use workload::{generate, Request, WorkloadConfig};
