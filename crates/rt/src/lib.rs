//! Hermetic runtime foundation for AFSysBench-RS.
//!
//! Every crate in the workspace builds fully offline: this crate replaces
//! the external dependencies the suite once pulled from crates.io with
//! small, purpose-built, owned implementations:
//!
//! - [`rng`] — a seedable SplitMix64/xoshiro256** PRNG. Unlike `StdRng`
//!   (whose algorithm is explicitly *not* stable across `rand` versions),
//!   the output stream here is frozen forever, which makes every simulated
//!   counter in the suite bit-reproducible across platforms and releases.
//! - [`json`] — a minimal JSON value type, parser and emitter covering the
//!   record shapes the suite serializes (results export, AF3 job inputs).
//!   Object key order is preserved, so same-seed runs emit byte-identical
//!   reports.
//! - [`check`] — a tiny seeded property-testing harness (shrink-free,
//!   failure-seed reporting) replacing `proptest`.
//! - [`bench`](mod@bench) — a wall-clock micro-benchmark harness with warmup and
//!   median reporting replacing `criterion`.
//! - [`fault`] — a seeded, simulated-time fault-injection layer
//!   ([`fault::FaultPlan`]/[`fault::FaultInjector`]) the pipeline's
//!   resilience machinery is tested against.
//! - [`obs`] — a deterministic tracing + metrics layer
//!   ([`obs::Tracer`]/[`obs::MetricsRegistry`]) driven by the simulated
//!   clock, with Chrome-trace (Perfetto), flamegraph and ASCII exporters.
//! - [`sim`] — the discrete-event simulation engine
//!   ([`sim::SimEngine`]): one monotone clock, one `(time, seq)`-ordered
//!   binary-heap event queue with cancellable timers, shared by the
//!   serving scheduler, the fault injector and the resilient executor.
//!
//! The suite-wide policy is **zero external registry dependencies**: if a
//! capability is needed, it is implemented here or in the crate that needs
//! it. See `DESIGN.md` ("Hermetic build & determinism").

pub mod bench;
pub mod check;
pub mod fault;
pub mod json;
pub mod obs;
pub mod rng;
pub mod sim;

pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSite};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use obs::timeline::{SloConfig, SloMonitor, SloOutcome, SloTransition, TimelineSampler};
pub use obs::{MetricsRegistry, ObsSession, SpanId, Tracer};
pub use rng::{Rng, WeightedIndex};
pub use sim::{Event, SimEngine, TimerId};
