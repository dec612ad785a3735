//! Pluggable scheduling policies over the event-driven serving engine.
//!
//! `BENCH_serve.json` shows the paper's phase imbalance live in the
//! simulator: ~3% GPU occupancy with p50 latency pinned at the deadline
//! cap, because the CPU MSA phase starves the GPU. The causal profiler
//! (PR 9) measured the levers; this module pulls them. It reruns the
//! same deterministic event loop as [`crate::server`] /
//! [`crate::chaos`] with the scheduling decisions factored into a
//! [`PolicyConfig`]:
//!
//! - **queue discipline** — which queued MSA request a freed pool
//!   worker takes next: [`QueueDiscipline::Fifo`] (arrival order, the
//!   reference-equivalent baseline), [`QueueDiscipline::Sjf`]
//!   (estimator-predicted cost: shortest remaining priced MSA first),
//!   or [`QueueDiscipline::Edf`] (earliest absolute deadline first),
//! - **shape-bucketed GPU batching** — when the GPU frees, batch the
//!   dominant [`SampleId`] bucket of the ready set instead of the
//!   arrival-order prefix, so a batch's `xla_compile`/compute stream
//!   stays shape-uniform,
//! - **checkpoint-yield preemption** — when a predicted-short request
//!   arrives and every worker is busy, the job with the most remaining
//!   work parks at its last durable jackhmmer checkpoint (the same
//!   `1/checkpoint_units` salvage grid chaos recovery uses) and
//!   re-queues; only the non-durable tail is ever redone,
//! - **speculative admission** — when queue depth crosses a threshold,
//!   new dispatches step down the `core::resilience`
//!   [`DegradeStep::MsaDepthCap`] rung (shallower, faster searches at
//!   lower quality), trading goodput for latency under overload.
//!
//! **FIFO stays reference-equivalent.** The policy loop dispatches
//! lazily — a request waits in a central queue until a worker actually
//! frees — while [`crate::server`] assigns arrivals eagerly to the
//! least-loaded worker. For FIFO the two are the same schedule: the
//! worker that frees first *is* the least-loaded worker, and at
//! dispatch time `start = max(worker_free, enqueue_time)` reproduces
//! the eager `max(workers[w], arrival)` bit for bit (when the job
//! waited, the dispatch fires exactly at `worker_free`; when a worker
//! was idle, dispatch happens at arrival). `tests/policy.rs` pins the
//! plain-FIFO report, outcomes, render and metrics byte-identical to
//! [`crate::server::run_serve`] on the four canonical scenarios — and
//! therefore, transitively through `tests/equivalence.rs`, to the
//! frozen seed scheduler in [`crate::reference`].
//!
//! The loop also accepts a [`ChaosConfig`]: the full fault vocabulary
//! (kills, stragglers, storage faults, GPU flaps) and the recovery
//! machinery (retry budget + backoff, circuit breaker, deadline
//! shedding) apply under every policy, so the request-conservation
//! invariant ([`ChaosReport::conserves_requests`]) is testable across
//! the whole matrix. One deliberate divergence from [`crate::chaos`]:
//! a kill immediately frees the worker for the next queued request
//! (the policy layer is work-conserving), where the chaos twin keeps
//! the killed slot reserved to preserve later start times.

use crate::cache::FeatureCache;
use crate::chaos::{drain_pending_storage, ChaosConfig, ChaosReport, Disposition};
use crate::queue::{KeyedQueue, ReadyEntry, ReadyPool};
use crate::scenario::SERVE_SEED;
use crate::server::{
    CausalLog, CostTable, PhaseSegments, RequestOutcome, SegmentSplit, ServeConfig, ServeReport,
    LATENCY_BOUNDS, TIMELINE_COLUMNS,
};
use crate::whatif::{predict_makespan, WhatIf};
use crate::workload::{self, Request};
use afsb_core::report::ascii_table;
use afsb_core::resilience::{CircuitBreaker, DegradeStep};
use afsb_rt::fault::{FaultInjector, FaultKind};
use afsb_rt::obs::timeline::{SloMonitor, TimelineSampler};
use afsb_rt::obs::{Histogram, ObsSession};
use afsb_rt::rng::mix;
use afsb_rt::sim::{Event, SimEngine, TimerId, WaitEdge};
use afsb_seq::samples::SampleId;
use afsb_simarch::Platform;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Salt for the per-request retry-backoff jitter stream (same stream as
/// the chaos twin, so recovery timing is comparable across loops).
const BACKOFF_SALT: u64 = 0xC4A05;

/// Which queued MSA request a freed pool worker takes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Arrival order — the reference-equivalent baseline.
    Fifo,
    /// Shortest predicted job first: the estimator's priced remaining
    /// MSA seconds (`(1 - durable) · msa_s`), so a preempted job's
    /// salvaged checkpoints shorten its key.
    Sjf,
    /// Earliest deadline first: absolute deadline `arrival + limit`
    /// (requests without a deadline sort last).
    Edf,
}

impl QueueDiscipline {
    /// Stable report label.
    pub fn as_str(self) -> &'static str {
        match self {
            QueueDiscipline::Fifo => "fifo",
            QueueDiscipline::Sjf => "sjf",
            QueueDiscipline::Edf => "edf",
        }
    }
}

/// One scheduling policy: a queue discipline plus the optional
/// load-adaptive mechanisms layered on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// MSA queue discipline.
    pub queue: QueueDiscipline,
    /// Shape-bucketed GPU batching: each batch takes the dominant
    /// [`SampleId`] bucket of the ready set instead of the
    /// arrival-order prefix.
    pub shape_batching: bool,
    /// Checkpoint-yield preemption: an arriving short job may park the
    /// longest-remaining running MSA job at its last durable
    /// checkpoint.
    pub preempt: bool,
    /// Preempt only when the victim's remaining seconds exceed the
    /// arriving job's full MSA seconds by this factor (hysteresis so
    /// near-peers never thrash).
    pub preempt_min_ratio: f64,
    /// Per-request preemption budget (a job yields at most this many
    /// times, then runs to completion).
    pub max_preemptions: u32,
    /// Jackhmmer checkpoint granularity: durable progress floors to
    /// `1/checkpoint_units` steps, the tail past the last checkpoint is
    /// redone.
    pub checkpoint_units: usize,
    /// Speculative admission: queue depth (queued + parked) at which
    /// new dispatches step down the MSA-depth degradation rung.
    /// `0` disables speculation.
    pub speculate_queue_depth: usize,
    /// MSA duration multiplier under the degraded rung (< 1).
    pub degrade_msa_factor: f64,
    /// MSA depth cap reported for the rung's
    /// [`DegradeStep::MsaDepthCap`].
    pub degraded_msa_depth: usize,
}

impl PolicyConfig {
    /// The baseline: plain FIFO, byte-identical to
    /// [`crate::server::run_serve`].
    pub fn fifo() -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Fifo,
            shape_batching: false,
            preempt: false,
            preempt_min_ratio: 2.0,
            max_preemptions: 2,
            checkpoint_units: 8,
            speculate_queue_depth: 0,
            degrade_msa_factor: 0.6,
            degraded_msa_depth: 128,
        }
    }

    /// Estimator-predicted-cost SJF on the MSA queue.
    pub fn sjf() -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Sjf,
            ..PolicyConfig::fifo()
        }
    }

    /// Deadline-driven EDF on the MSA queue.
    pub fn edf() -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Edf,
            ..PolicyConfig::fifo()
        }
    }

    /// FIFO with shape-bucketed continuous GPU batching.
    pub fn shape_batched() -> PolicyConfig {
        PolicyConfig {
            shape_batching: true,
            ..PolicyConfig::fifo()
        }
    }

    /// SJF plus checkpoint-yield preemption.
    pub fn sjf_preempt() -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Sjf,
            preempt: true,
            ..PolicyConfig::fifo()
        }
    }

    /// FIFO plus speculative admission at the given queue depth.
    pub fn speculative(depth: usize) -> PolicyConfig {
        PolicyConfig {
            speculate_queue_depth: depth,
            ..PolicyConfig::fifo()
        }
    }

    /// Everything on: SJF, preemption and speculation — the
    /// load-adaptive kitchen sink.
    pub fn adaptive(depth: usize) -> PolicyConfig {
        PolicyConfig {
            queue: QueueDiscipline::Sjf,
            preempt: true,
            speculate_queue_depth: depth,
            ..PolicyConfig::fifo()
        }
    }

    /// Whether this policy is the byte-identical baseline (no
    /// reordering, no bucketing, no preemption, no speculation). Gates
    /// the extra `serve.policy.*` metrics and render line so the FIFO
    /// row's output never drifts from [`crate::server::run_serve`].
    pub fn is_plain_fifo(&self) -> bool {
        self.queue == QueueDiscipline::Fifo
            && !self.shape_batching
            && !self.preempt
            && self.speculate_queue_depth == 0
    }

    /// Short stable name for tables and metric keys.
    pub fn label(&self) -> String {
        let mut parts = vec![self.queue.as_str().to_owned()];
        if self.shape_batching {
            parts.push("shape".to_owned());
        }
        if self.preempt {
            parts.push("preempt".to_owned());
        }
        if self.speculate_queue_depth > 0 {
            parts.push(format!("spec{}", self.speculate_queue_depth));
        }
        parts.join("+")
    }
}

impl Default for PolicyConfig {
    fn default() -> PolicyConfig {
        PolicyConfig::fifo()
    }
}

/// Everything one policy run produced: the chaos-shaped report (which
/// wraps the base [`ServeReport`] and the disposition accounting) plus
/// the policy layer's own counters.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// The underlying report (base serve fold + dispositions).
    pub chaos: ChaosReport,
    /// The policy that produced it.
    pub policy: PolicyConfig,
    /// Checkpoint-yield preemptions performed.
    pub preemptions: u64,
    /// Simulated seconds of non-durable work redone because of
    /// preemption (spent minus checkpoint-salvaged).
    pub preempt_lost_s: f64,
}

impl PolicyReport {
    /// Exact latency of the request sitting at quantile `p` (the same
    /// rank statistic `percentile_outcome` uses — not the
    /// bucket-quantized histogram estimate, which pins cold p50 at the
    /// top bucket bound).
    pub fn exact_percentile_s(&self, p: f64) -> f64 {
        self.chaos
            .base
            .percentile_outcome(p)
            .map_or(f64::NAN, |o| o.latency_s())
    }

    /// Human-readable block: the chaos render plus a policy line when
    /// any non-baseline mechanism is armed (so the plain-FIFO render
    /// stays byte-identical to the fault-free server's).
    pub fn render(&self) -> String {
        let mut out = self.chaos.render();
        if !self.policy.is_plain_fifo() {
            let _ = writeln!(
                out,
                "  policy {}: {} preemptions ({:.0} s redone), {} degraded dispatches",
                self.policy.label(),
                self.preemptions,
                self.preempt_lost_s,
                self.chaos.degraded_attempts
            );
        }
        out
    }
}

/// One MSA job running on a pool worker (at most one per worker — the
/// rest of the backlog waits in the central policy queue).
#[derive(Debug, Clone, Copy)]
struct Running {
    request: usize,
    start_s: f64,
    done_s: f64,
    timer: TimerId,
}

/// One in-flight cache-hit feature load.
#[derive(Debug, Clone, Copy)]
struct Fill {
    timer: TimerId,
    entity: usize,
    load_s: f64,
}

/// All mutable state of one policy run, so event handlers and the
/// dispatch/preempt helpers can share it without 15-argument
/// signatures.
struct PolicyLoop<'a> {
    config: &'a ServeConfig,
    pol: &'a PolicyConfig,
    chaos: &'a ChaosConfig,
    costs: &'a CostTable,
    obs: &'a mut ObsSession,
    requests: Vec<Request>,
    engine: SimEngine,
    cache: FeatureCache,
    active: bool,
    injector: FaultInjector,

    // Degradation knobs resolved once: speculation's own threshold wins,
    // else the chaos recovery policy's (when a plan is armed), else off.
    deg_depth: usize,
    deg_factor: f64,
    deg_rung_depth: usize,

    // MSA side: the central queue plus one running job per worker.
    msa_queue: KeyedQueue,
    enqueued_at: Vec<f64>,
    running: Vec<Option<Running>>,
    workers: Vec<f64>,
    fills: BTreeMap<usize, Fill>,
    pending_storage: Vec<FaultKind>,

    // GPU side.
    pool: ReadyPool,
    gpu_free: f64,
    gpu_busy: f64,
    batches: usize,
    compiled: BTreeSet<SampleId>,
    inited: bool,
    gpu_penalty_s: f64,
    pending_compile_factor: Option<f64>,

    // Outcome + recovery state.
    outcomes: Vec<RequestOutcome>,
    disposition: Vec<Option<Disposition>>,
    degraded_req: Vec<bool>,
    attempts: Vec<u32>,
    durable: Vec<f64>,
    preempt_count: Vec<u32>,
    deadline_timers: Vec<Option<TimerId>>,
    requeue_timers: Vec<Option<TimerId>>,
    wait_since: Vec<f64>,
    parked: Vec<usize>,
    breaker: CircuitBreaker,
    breaker_open: bool,
    requeues: u64,
    breaker_opens: u64,
    degraded_attempts: u64,
    preemptions: u64,
    preempt_lost_s: f64,

    // Observation-only.
    timeline: Option<TimelineSampler>,
    slo_obs: Vec<(f64, bool)>,
    splits: BTreeMap<u64, SegmentSplit>,
    completions: Vec<Option<u64>>,
    best_done: Option<(f64, u64)>,
}

impl PolicyLoop<'_> {
    /// The overload signal speculation triggers on: queued-not-running
    /// MSA requests plus breaker-parked ones.
    fn queue_pressure(&self) -> usize {
        self.msa_queue.len() + self.parked.len()
    }

    /// The discipline's priority key for a queued request (lower is
    /// better; the request id breaks every tie deterministically). It
    /// reads `enqueued_at` and `durable`, which only change before a
    /// (re-)push, so the key is fixed while the request is queued.
    fn queue_key(&self, r: usize) -> f64 {
        match self.pol.queue {
            QueueDiscipline::Fifo => self.enqueued_at[r],
            QueueDiscipline::Sjf => {
                (1.0 - self.durable[r]).max(0.0) * self.costs.shape(self.requests[r].sample).msa_s
            }
            QueueDiscipline::Edf => self
                .config
                .deadline
                .limit_seconds()
                .map_or(f64::INFINITY, |l| self.requests[r].arrival_s + l),
        }
    }

    /// Dispatch queued MSA requests onto free workers until one side
    /// runs out. For FIFO this reproduces the eager engine's schedule
    /// exactly (see the module docs).
    fn dispatch_ready(&mut self, now: f64) {
        loop {
            if self.msa_queue.is_empty() {
                break;
            }
            let Some(w) = (0..self.workers.len())
                .filter(|&w| self.running[w].is_none())
                .min_by(|&a, &b| self.workers[a].total_cmp(&self.workers[b]).then(a.cmp(&b)))
            else {
                break;
            };
            let r = self.msa_queue.pop().expect("queue is non-empty");
            self.dispatch(w, r, now);
        }
    }

    /// Start request `r`'s MSA attempt on worker `w`.
    fn dispatch(&mut self, w: usize, r: usize, now: f64) {
        let req = &self.requests[r];
        let shape = self.costs.shape(req.sample);
        if self.deg_depth > 0 && !self.degraded_req[r] && self.queue_pressure() >= self.deg_depth {
            self.degraded_req[r] = true;
            self.degraded_attempts += 1;
            self.obs.tracer.instant_at(
                now,
                format!(
                    "degrade:{}",
                    DegradeStep::MsaDepthCap {
                        depth: self.deg_rung_depth
                    }
                ),
            );
        }
        let mut msa_s = (1.0 - self.durable[r]).max(0.0) * shape.msa_s;
        if self.degraded_req[r] {
            msa_s *= self.deg_factor;
        }
        let start = self.workers[w].max(self.enqueued_at[r]);
        let done = start + msa_s;
        self.workers[w] = done;
        let timer = self.engine.schedule_tagged(
            done,
            Event::MsaDone {
                request: r,
                worker: w,
            },
            WaitEdge::WorkerBusy,
        );
        if self.config.provenance {
            // Lazy dispatch means this edge's parent is the event that
            // freed the worker (or the arrival itself), so the queue
            // wait is already embodied in the parent chain — the edge
            // carries service only. `wait_s + service_s` must equal the
            // recorded edge duration (`done - now`) for the what-if
            // replay to telescope exactly at scale 1.
            self.splits.insert(
                timer.seq(),
                SegmentSplit {
                    wait_s: start - now,
                    service_s: done - start,
                    compile_s: 0.0,
                },
            );
        }
        self.running[w] = Some(Running {
            request: r,
            start_s: start,
            done_s: done,
            timer,
        });
        let seg = &mut self.outcomes[r].segments;
        seg.msa_queue_wait_s += start - self.enqueued_at[r];
        seg.msa_service_s += done - start;
        self.outcomes[r].ready_s = done;
    }

    /// Checkpoint-yield: park the running job with the most remaining
    /// work if an arriving job of `incoming_msa_s` full seconds is
    /// enough shorter. Returns whether a worker was freed.
    fn maybe_preempt(&mut self, incoming_msa_s: f64, now: f64) -> bool {
        if (0..self.workers.len()).any(|w| self.running[w].is_none()) {
            return false;
        }
        let mut victim: Option<(f64, usize)> = None;
        for w in 0..self.workers.len() {
            if let Some(j) = &self.running[w] {
                let rem = j.done_s - now;
                if victim.is_none_or(|(best, _)| rem > best) {
                    victim = Some((rem, w));
                }
            }
        }
        let Some((rem, w)) = victim else {
            return false;
        };
        let j = self.running[w].expect("victim worker is running");
        if rem <= incoming_msa_s * self.pol.preempt_min_ratio
            || self.preempt_count[j.request] >= self.pol.max_preemptions
        {
            return false;
        }
        self.engine.cancel(j.timer);
        let r = j.request;
        // Drop the un-run tail from the attribution; the redispatch adds
        // its own queue-wait and service segments.
        self.outcomes[r].segments.msa_service_s -= j.done_s - now;
        // Durable progress floors to the jackhmmer checkpoint grid —
        // identical salvage math to a chaos kill, but voluntary.
        let span = j.done_s - j.start_s;
        let progress = if span <= 0.0 {
            0.0
        } else {
            ((now - j.start_s) / span).clamp(0.0, 1.0)
        };
        let before = self.durable[r];
        let overall = before + progress * (1.0 - before);
        let units = self.pol.checkpoint_units.max(1) as f64;
        self.durable[r] = (overall * units).floor() / units;
        let spent = (now - j.start_s).max(0.0);
        let salvaged = (self.durable[r] - before) * self.costs.shape(self.requests[r].sample).msa_s;
        self.preempt_lost_s += (spent - salvaged).max(0.0);
        self.preemptions += 1;
        self.preempt_count[r] += 1;
        self.workers[w] = now;
        self.running[w] = None;
        self.enqueued_at[r] = now;
        self.enqueue(r);
        self.obs.tracer.instant_at(now, "preempt:checkpoint-yield");
        true
    }

    /// Queue request `r` for a worker under the discipline's key.
    fn enqueue(&mut self, r: usize) {
        let key = self.queue_key(r);
        self.msa_queue.push(key, r);
    }

    /// Pick the GPU batch once the batch start time is fixed: either
    /// the arrival-order eligible prefix (the reference rule) or the
    /// dominant shape bucket of the eligible window.
    fn pick_batch(&mut self, start: f64) -> Vec<usize> {
        if !self.pol.shape_batching {
            return self.pool.take_batch(start, self.config.gpu_batch);
        }
        let window: Vec<ReadyEntry> = self.pool.window(start).collect();
        // Dominant shape of the whole eligible window (not just the
        // first B): max count, earliest first appearance breaking ties.
        let mut counts: Vec<(SampleId, usize)> = Vec::new();
        for e in &window {
            let s = self.outcomes[e.request].request.sample;
            match counts.iter_mut().find(|(cs, _)| *cs == s) {
                Some((_, c)) => *c += 1,
                None => counts.push((s, 1)),
            }
        }
        let mut dom = counts[0].0;
        let mut dom_count = counts[0].1;
        for &(s, c) in &counts[1..] {
            if c > dom_count {
                dom = s;
                dom_count = c;
            }
        }
        let mut taken = Vec::new();
        for e in window {
            if taken.len() == self.config.gpu_batch {
                break;
            }
            if self.outcomes[e.request].request.sample == dom {
                self.pool.remove(e);
                taken.push(e.request);
            }
        }
        taken
    }
}

/// Run the serving simulation under a scheduling policy, optionally
/// with a fault plan. Identical contract to
/// [`crate::chaos::run_serve_chaos`] plus the [`PolicyConfig`]; with
/// `PolicyConfig::fifo()` and an empty plan the output is
/// byte-identical to [`crate::server::run_serve`] (pinned by
/// `tests/policy.rs`).
///
/// # Panics
///
/// Panics when `config.coalesce_misses` is set — the policy loop keeps
/// one running job per worker and no coalesced-waiter bookkeeping; the
/// canonical scenarios it serves all have coalescing off.
pub fn run_serve_policy(
    config: &ServeConfig,
    pol: &PolicyConfig,
    chaos: &ChaosConfig,
    costs: &CostTable,
    obs: &mut ObsSession,
) -> PolicyReport {
    assert!(config.cpu_workers > 0, "need at least one CPU worker");
    assert!(config.gpu_batch > 0, "need a GPU batch size of at least 1");
    assert!(
        !config.coalesce_misses,
        "the policy loop does not implement miss coalescing"
    );

    let active = chaos.is_active();
    let requests = workload::generate(&config.workload);
    let n = requests.len();
    let mut cache = FeatureCache::new(config.cache_capacity_bytes);
    if config.prewarm_cache {
        for entity in 0..config.workload.catalog_size {
            let shape = costs.shape(workload::sample_for_entity(entity));
            cache.insert(entity, shape.feature_bytes);
        }
    }

    obs.tracer.begin("serve");

    let mut engine = SimEngine::new();
    if config.provenance {
        engine.record_provenance();
    }
    let timeline = if config.telemetry.timeline_interval_s > 0.0 {
        let mut tl = TimelineSampler::new(config.telemetry.timeline_interval_s, &TIMELINE_COLUMNS);
        tl.set_many(&[0.0, 0.0, 0.0, cache.len() as f64, 0.0, 0.0, 0.0]);
        Some(tl)
    } else {
        None
    };

    let (deg_depth, deg_factor, deg_rung_depth) = if pol.speculate_queue_depth > 0 {
        (
            pol.speculate_queue_depth,
            pol.degrade_msa_factor,
            pol.degraded_msa_depth,
        )
    } else if active {
        (
            chaos.policy.degrade_queue_depth,
            chaos.policy.degrade_msa_factor,
            chaos.policy.degraded_msa_depth,
        )
    } else {
        (0, 1.0, 0)
    };

    let mut lp = PolicyLoop {
        config,
        pol,
        chaos,
        costs,
        obs,
        engine,
        cache,
        active,
        injector: chaos.plan.injector(),
        deg_depth,
        deg_factor,
        deg_rung_depth,
        msa_queue: KeyedQueue::new(n),
        enqueued_at: vec![0.0; n],
        running: vec![None; config.cpu_workers],
        workers: vec![0.0; config.cpu_workers],
        fills: BTreeMap::new(),
        pending_storage: Vec::new(),
        pool: ReadyPool::new(),
        gpu_free: 0.0,
        gpu_busy: 0.0,
        batches: 0,
        compiled: BTreeSet::new(),
        inited: false,
        gpu_penalty_s: 0.0,
        pending_compile_factor: None,
        outcomes: Vec::with_capacity(n),
        disposition: vec![None; n],
        degraded_req: vec![false; n],
        attempts: vec![0; n],
        durable: vec![0.0; n],
        preempt_count: vec![0; n],
        deadline_timers: vec![None; n],
        requeue_timers: vec![None; n],
        wait_since: vec![0.0; n],
        parked: Vec::new(),
        breaker: CircuitBreaker::new(chaos.policy.breaker_threshold),
        breaker_open: false,
        requeues: 0,
        breaker_opens: 0,
        degraded_attempts: 0,
        preemptions: 0,
        preempt_lost_s: 0.0,
        timeline,
        slo_obs: Vec::new(),
        splits: BTreeMap::new(),
        completions: vec![None; n],
        best_done: None,
        requests,
    };

    if lp.active {
        for f in lp.chaos.plan.faults() {
            lp.engine.schedule(f.not_before_s, Event::Fault(f.kind));
        }
    }
    if let Some(first) = lp.requests.first() {
        let at = first.arrival_s;
        lp.engine.schedule(at, Event::Arrival { request: 0 });
    }

    while let Some((now, event)) = lp.engine.pop() {
        if let Some(tl) = lp.timeline.as_mut() {
            tl.advance_to(now);
        }
        match event {
            Event::Arrival { request } => lp.on_arrival(request, now),
            Event::MsaDone { request, worker } => lp.on_msa_done(request, worker, now),
            Event::CacheFill { request, .. } => lp.on_cache_fill(request, now),
            Event::BatchClose => lp.on_batch_close(now),
            Event::GpuDone { .. } => {
                if !lp.pool.is_empty() {
                    lp.engine
                        .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
                }
            }
            Event::DeadlineExpired { request } => lp.on_deadline(request, now),
            Event::Fault(kind) => lp.on_fault(kind, now),
            Event::Requeue { request } => lp.on_requeue(request, now),
            Event::BreakerClose => lp.on_breaker_close(now),
        }
        if let Some(tl) = lp.timeline.as_mut() {
            tl.set_many(&[
                (lp.msa_queue.len() + lp.running.iter().flatten().count() + lp.parked.len()) as f64,
                lp.workers.iter().filter(|&&t| t > now).count() as f64,
                if lp.gpu_free > now { 1.0 } else { 0.0 },
                lp.cache.len() as f64,
                lp.cache.hit_rate(),
                lp.fills.len() as f64,
                if lp.breaker_open { 1.0 } else { 0.0 },
            ]);
        }
    }

    lp.fold()
}

impl PolicyLoop<'_> {
    fn on_arrival(&mut self, request: usize, now: f64) {
        let req = self.requests[request];
        let shape = *self.costs.shape(req.sample);
        if !shape.admitted {
            self.outcomes.push(RequestOutcome {
                request: req,
                cache_hit: false,
                rejected: true,
                ready_s: req.arrival_s,
                done_s: 0.0,
                deadline_missed: false,
                finished: false,
                segments: PhaseSegments::default(),
            });
        } else {
            let mut segments = PhaseSegments::default();
            let cache_hit = self.cache.lookup(req.entity);
            if cache_hit {
                let mut ready = req.arrival_s + shape.feature_load_s;
                if self.active && !self.pending_storage.is_empty() {
                    let delay =
                        drain_pending_storage(&mut self.pending_storage, shape.feature_load_s);
                    ready += delay;
                    self.injector.charge(delay);
                }
                let timer = self.engine.schedule_tagged(
                    ready,
                    Event::CacheFill {
                        request,
                        entity: req.entity,
                    },
                    WaitEdge::CacheFill,
                );
                self.fills.insert(
                    request,
                    Fill {
                        timer,
                        entity: req.entity,
                        load_s: shape.feature_load_s,
                    },
                );
                segments.cache_wait_s = ready - req.arrival_s;
                self.outcomes.push(RequestOutcome {
                    request: req,
                    cache_hit: true,
                    rejected: false,
                    ready_s: ready,
                    done_s: 0.0,
                    deadline_missed: false,
                    finished: false,
                    segments,
                });
            } else {
                // Miss: enqueue, optionally yield a long-running job,
                // then let the dispatcher fill free workers. For plain
                // FIFO with a free worker this schedules the MsaDone
                // timer at exactly the point the eager loop would, so
                // event seq numbers (and thus same-timestamp ordering)
                // are preserved.
                self.outcomes.push(RequestOutcome {
                    request: req,
                    cache_hit: false,
                    rejected: false,
                    ready_s: req.arrival_s,
                    done_s: 0.0,
                    deadline_missed: false,
                    finished: false,
                    segments,
                });
                self.enqueued_at[request] = req.arrival_s;
                self.enqueue(request);
                if self.pol.preempt {
                    self.maybe_preempt(shape.msa_s, now);
                }
                self.dispatch_ready(now);
            }
            if let Some(limit) = self.config.deadline.limit_seconds() {
                self.deadline_timers[request] = Some(self.engine.schedule_tagged(
                    req.arrival_s + limit,
                    Event::DeadlineExpired { request },
                    WaitEdge::Deadline,
                ));
            }
        }
        if request + 1 < self.requests.len() {
            let at = self.requests[request + 1].arrival_s;
            self.engine.schedule(
                at,
                Event::Arrival {
                    request: request + 1,
                },
            );
        }
    }

    fn on_msa_done(&mut self, request: usize, worker: usize, now: f64) {
        let req = self.requests[request];
        if self.running[worker]
            .as_ref()
            .is_some_and(|j| j.request == request)
        {
            self.running[worker] = None;
        }
        // Inserts stop once every arrival has landed (same guard as the
        // eager loops: late completions don't shuffle the LRU order the
        // canonical runs pinned).
        if self.outcomes.len() < self.requests.len() {
            self.cache
                .insert(req.entity, self.costs.shape(req.sample).feature_bytes);
        }
        self.pool.push(self.outcomes[request].ready_s, request);
        if now >= self.gpu_free {
            self.engine
                .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
        }
        self.dispatch_ready(now);
    }

    fn on_cache_fill(&mut self, request: usize, now: f64) {
        self.fills.remove(&request);
        self.pool.push(self.outcomes[request].ready_s, request);
        if now >= self.gpu_free {
            self.engine
                .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
        }
    }

    fn on_batch_close(&mut self, now: f64) {
        if self.pool.is_empty() || now < self.gpu_free {
            return;
        }
        let start = self
            .gpu_free
            .max(self.pool.earliest_ready().expect("pool is non-empty"));
        let batch = self.pick_batch(start);

        let pay_init = !self.inited;
        let new_shapes: Vec<SampleId> = batch
            .iter()
            .map(|&idx| self.outcomes[idx].request.sample)
            .filter(|&s| self.compiled.insert(s))
            .collect();
        let compile_factor = if self.active && !new_shapes.is_empty() {
            self.pending_compile_factor.take().unwrap_or(1.0)
        } else {
            1.0
        };
        let reinit_s = if self.active {
            std::mem::take(&mut self.gpu_penalty_s)
        } else {
            0.0
        };
        let mut service = if pay_init { self.costs.init_s } else { 0.0 }
            + self.costs.dispatch_s
            + new_shapes
                .iter()
                .map(|&s| self.costs.shape(s).compile_s * compile_factor)
                .sum::<f64>()
            + batch
                .iter()
                .map(|&idx| {
                    self.costs
                        .shape(self.outcomes[idx].request.sample)
                        .compute_s
                })
                .sum::<f64>();
        if reinit_s > 0.0 {
            service += reinit_s;
            self.injector.charge(reinit_s);
        }
        if compile_factor > 1.0 {
            let base_compile: f64 = new_shapes
                .iter()
                .map(|&s| self.costs.shape(s).compile_s)
                .sum();
            self.injector
                .charge(base_compile * compile_factor - base_compile);
        }
        let done = start + service;

        let batch_span = self.obs.tracer.closed_span("gpu_batch", start, service);
        let mut at = start;
        if reinit_s > 0.0 {
            self.obs
                .tracer
                .child_span(batch_span, "gpu_reinit", at, reinit_s);
            at += reinit_s;
        }
        if pay_init {
            self.inited = true;
            self.obs
                .tracer
                .child_span(batch_span, "init", at, self.costs.init_s);
            at += self.costs.init_s;
        }
        self.obs
            .tracer
            .child_span(batch_span, "dispatch", at, self.costs.dispatch_s);
        at += self.costs.dispatch_s;
        let compile_begin = at;
        for &s in &new_shapes {
            let compile_s = self.costs.shape(s).compile_s * compile_factor;
            self.obs
                .tracer
                .child_span(batch_span, "xla_compile", at, compile_s);
            at += compile_s;
        }
        let compile_end = at;
        for &idx in &batch {
            let shape = self.costs.shape(self.outcomes[idx].request.sample);
            self.obs
                .tracer
                .child_span(batch_span, "gpu_compute", at, shape.compute_s);
            at += shape.compute_s;
        }
        debug_assert!((at - done).abs() < 1e-9);
        for &idx in &batch {
            self.outcomes[idx].done_s = done;
            self.outcomes[idx].finished = true;
            let o = &mut self.outcomes[idx];
            o.segments.batch_wait_s += start - o.ready_s;
            o.segments.xla_compile_s += compile_end - compile_begin;
            o.segments.close(o.done_s - o.request.arrival_s);
            self.outcomes[idx].deadline_missed = self
                .config
                .deadline
                .exceeded(self.outcomes[idx].latency_s());
            if !self.outcomes[idx].deadline_missed {
                if let Some(timer) = self.deadline_timers[idx].take() {
                    self.engine.cancel(timer);
                }
            }
            self.disposition[idx] = Some(if self.degraded_req[idx] {
                Disposition::Degraded
            } else {
                Disposition::Completed
            });
            if self.config.telemetry.slo.is_some() {
                self.slo_obs.push((
                    done,
                    !self.outcomes[idx].deadline_missed && !self.degraded_req[idx],
                ));
            }
        }
        self.gpu_busy += done - start;
        self.gpu_free = done;
        self.batches += 1;
        let timer = self.engine.schedule_tagged(
            done,
            Event::GpuDone {
                batch: self.batches,
            },
            WaitEdge::GpuBusy,
        );
        if self.config.provenance {
            let compile_total = compile_end - compile_begin;
            self.splits.insert(
                timer.seq(),
                SegmentSplit {
                    wait_s: start - now,
                    service_s: (done - start) - compile_total,
                    compile_s: compile_total,
                },
            );
            for &idx in &batch {
                self.completions[idx] = Some(timer.seq());
            }
            if self.best_done.is_none_or(|(t, _)| done >= t) {
                self.best_done = Some((done, timer.seq()));
            }
        }
    }

    fn on_deadline(&mut self, request: usize, now: f64) {
        if self.active
            && self.chaos.policy.shed_expired
            && !self.outcomes[request].rejected
            && self.disposition[request].is_none()
        {
            let mut shed = self.msa_queue.remove(request);
            if !shed {
                if let Some(pos) = self.parked.iter().position(|&r| r == request) {
                    self.parked.remove(pos);
                    shed = true;
                }
            }
            if !shed {
                if let Some(timer) = self.requeue_timers[request].take() {
                    self.engine.cancel(timer);
                    shed = true;
                }
            }
            if shed {
                self.disposition[request] = Some(Disposition::Shed);
                self.obs.tracer.instant_at(now, "shed");
                if self.config.telemetry.slo.is_some() {
                    self.slo_obs.push((now, false));
                }
            }
        }
        self.outcomes[request].deadline_missed = true;
    }

    fn on_fault(&mut self, kind: FaultKind, now: f64) {
        self.injector.sync_to(now);
        let Some(fired) = self.injector.poll(kind.site()) else {
            return;
        };
        self.obs
            .tracer
            .instant_at(now, format!("fault:{}", fired.label()));
        match fired {
            FaultKind::OomKill { at_fraction } | FaultKind::WorkerCrash { at_fraction } => {
                let busy: Vec<usize> = (0..self.workers.len())
                    .filter(|&w| self.running[w].is_some())
                    .collect();
                if busy.is_empty() {
                    return;
                }
                let frac = at_fraction.clamp(0.0, 1.0);
                let w = busy[((frac * busy.len() as f64) as usize).min(busy.len() - 1)];
                let j = self.running[w].take().expect("busy worker is running");
                self.engine.cancel(j.timer);
                let r = j.request;
                self.outcomes[r].segments.msa_service_s -= j.done_s - now;
                self.wait_since[r] = now;
                // Work-conserving divergence from the chaos twin: the
                // slot frees immediately, the next queued request takes
                // it (see the module docs).
                self.workers[w] = now;
                let span = j.done_s - j.start_s;
                let progress = if span <= 0.0 {
                    0.0
                } else {
                    ((now - j.start_s) / span).clamp(0.0, 1.0)
                };
                let before = self.durable[r];
                let overall = before + progress * (1.0 - before);
                let units = self.chaos.policy.checkpoint_units.max(1) as f64;
                self.durable[r] = (overall * units).floor() / units;
                let spent = (now - j.start_s).max(0.0);
                let salvaged =
                    (self.durable[r] - before) * self.costs.shape(self.requests[r].sample).msa_s;
                self.injector.charge((spent - salvaged).max(0.0));
                self.attempts[r] += 1;
                if self.attempts[r] >= self.chaos.policy.max_attempts.max(1) {
                    self.disposition[r] = Some(Disposition::Failed);
                    self.obs.tracer.instant_at(now, "failed");
                    if self.config.telemetry.slo.is_some() {
                        self.slo_obs.push((now, false));
                    }
                    if let Some(timer) = self.deadline_timers[r].take() {
                        self.engine.cancel(timer);
                    }
                } else {
                    let backoff = self.chaos.policy.retry.backoff_seconds(
                        self.attempts[r],
                        mix(self.config.workload.seed, BACKOFF_SALT ^ r as u64),
                    );
                    self.requeue_timers[r] = Some(self.engine.schedule_tagged(
                        now + backoff,
                        Event::Requeue { request: r },
                        WaitEdge::Admission,
                    ));
                    if self.breaker.record_failure() && !self.breaker_open {
                        self.breaker_open = true;
                        self.breaker_opens += 1;
                        self.obs.tracer.instant_at(now, "circuit-open");
                        self.engine.schedule_tagged(
                            now + self.chaos.policy.breaker_cooldown_s,
                            Event::BreakerClose,
                            WaitEdge::Admission,
                        );
                    }
                }
                self.dispatch_ready(now);
            }
            FaultKind::Straggler { factor } => {
                for w in 0..self.workers.len() {
                    if let Some(j) = self.running[w] {
                        let new_done = now + (j.done_s - now) * factor.max(1.0);
                        self.retime_running(w, new_done);
                        self.injector.charge(new_done - j.done_s);
                        break;
                    }
                }
            }
            FaultKind::StorageReadError => {
                if self.fills.is_empty() {
                    self.pending_storage.push(fired);
                } else {
                    let mut lost = 0.0;
                    let waiters: Vec<usize> = self.fills.keys().copied().collect();
                    for waiter in waiters {
                        let fill = self.fills[&waiter];
                        self.redo_fill(waiter, fill, fill.load_s);
                        lost += fill.load_s;
                    }
                    self.injector.charge(lost);
                }
            }
            FaultKind::StorageStall { stall_seconds } => {
                let mut lost = 0.0;
                let waiters: Vec<usize> = self.fills.keys().copied().collect();
                for waiter in waiters {
                    let fill = self.fills[&waiter];
                    self.redo_fill(waiter, fill, stall_seconds);
                    lost += stall_seconds;
                }
                // The device stall also reaches the database scans of
                // every running MSA job.
                for w in 0..self.workers.len() {
                    if let Some(j) = self.running[w] {
                        self.retime_running(w, j.done_s + stall_seconds);
                        lost += stall_seconds;
                    }
                }
                if lost > 0.0 {
                    self.injector.charge(lost);
                } else {
                    self.pending_storage.push(fired);
                }
            }
            FaultKind::GpuInitFailure => {
                self.gpu_penalty_s += self.costs.init_s;
                self.inited = false;
                self.compiled.clear();
            }
            FaultKind::XlaCompileStall { factor } => {
                let f = self.pending_compile_factor.unwrap_or(1.0) * factor.max(1.0);
                self.pending_compile_factor = Some(f);
            }
        }
    }

    /// Extend worker `w`'s running job to `new_done` (straggler or
    /// storage-stall inflation), preserving its start.
    fn retime_running(&mut self, w: usize, new_done: f64) {
        let j = self.running[w].expect("worker is running");
        self.engine.cancel(j.timer);
        let r = j.request;
        self.outcomes[r].segments.msa_service_s += new_done - j.done_s;
        let timer = self.engine.schedule_tagged(
            new_done,
            Event::MsaDone {
                request: r,
                worker: w,
            },
            WaitEdge::WorkerBusy,
        );
        self.running[w] = Some(Running {
            done_s: new_done,
            timer,
            ..j
        });
        self.workers[w] = new_done;
        self.outcomes[r].ready_s = new_done;
    }

    /// Push a cache fill's landing time out by `delay` seconds.
    fn redo_fill(&mut self, waiter: usize, fill: Fill, delay: f64) {
        self.engine.cancel(fill.timer);
        let ready = self.outcomes[waiter].ready_s + delay;
        self.outcomes[waiter].segments.cache_wait_s += delay;
        self.outcomes[waiter].ready_s = ready;
        let timer = self.engine.schedule_tagged(
            ready,
            Event::CacheFill {
                request: waiter,
                entity: fill.entity,
            },
            WaitEdge::CacheFill,
        );
        self.fills.get_mut(&waiter).expect("fill present").timer = timer;
    }

    fn on_requeue(&mut self, request: usize, now: f64) {
        self.requeue_timers[request] = None;
        if self.disposition[request].is_some() {
            return;
        }
        self.requeues += 1;
        self.obs.tracer.instant_at(now, "requeue");
        self.outcomes[request].segments.admission_wait_s += now - self.wait_since[request];
        if self.breaker_open {
            self.wait_since[request] = now;
            self.parked.push(request);
            return;
        }
        self.enqueued_at[request] = now;
        self.enqueue(request);
        self.dispatch_ready(now);
    }

    fn on_breaker_close(&mut self, now: f64) {
        self.breaker.record_success();
        self.breaker_open = false;
        self.obs.tracer.instant_at(now, "circuit-closed");
        for r in self.parked.drain(..) {
            self.requeue_timers[r] = Some(self.engine.schedule_tagged(
                now,
                Event::Requeue { request: r },
                WaitEdge::Admission,
            ));
        }
    }

    /// Fold the run into the report + metrics — the same fold as the
    /// chaos twin, plus `serve.policy.*` metrics when a non-baseline
    /// mechanism is armed.
    fn fold(mut self) -> PolicyReport {
        for (i, o) in self.outcomes.iter().enumerate() {
            if !o.rejected && self.disposition[i].is_none() {
                debug_assert!(false, "request {i} escaped without a disposition");
                self.disposition[i] = Some(Disposition::Failed);
            }
        }
        let finished = |i: usize| {
            matches!(
                self.disposition[i],
                Some(Disposition::Completed) | Some(Disposition::Degraded)
            )
        };
        let last_arrival = self.requests.last().map_or(0.0, |r| r.arrival_s);
        let makespan_s = self
            .outcomes
            .iter()
            .enumerate()
            .filter(|&(i, _)| finished(i))
            .map(|(_, o)| o.done_s)
            .fold(last_arrival, f64::max);
        let served = (0..self.outcomes.len()).filter(|&i| finished(i)).count();
        let rejected = self.outcomes.iter().filter(|o| o.rejected).count();
        let deadline_missed = self.outcomes.iter().filter(|o| o.deadline_missed).count();
        let throughput_qph = if makespan_s > 0.0 {
            served as f64 / makespan_s * 3600.0
        } else {
            0.0
        };
        let gpu_occupancy = if makespan_s > 0.0 {
            self.gpu_busy / makespan_s
        } else {
            0.0
        };

        let mut latency_hist = Histogram::new(&LATENCY_BOUNDS);
        for (i, o) in self.outcomes.iter().enumerate() {
            if finished(i) {
                latency_hist.observe(o.latency_s());
                self.obs
                    .metrics
                    .observe("serve.latency_s", o.latency_s(), &LATENCY_BOUNDS);
            }
        }

        self.obs.tracer.advance(makespan_s);
        self.obs.tracer.end();

        if let Some(tl) = self.timeline.as_mut() {
            tl.finish(makespan_s);
        }
        let slo = self.config.telemetry.slo.map(|slo_config| {
            let mut monitor = SloMonitor::new(slo_config);
            for &(t, good) in &self.slo_obs {
                monitor.observe(t, good);
            }
            let outcome = monitor.evaluate();
            for tr in &outcome.transitions {
                self.obs
                    .tracer
                    .instant_at(tr.at_s, if tr.firing { "slo:burn" } else { "slo:clear" });
                self.obs.tracer.instant_attr("burn", tr.burn);
            }
            let m = &mut self.obs.metrics;
            m.inc("slo.burn_events", outcome.burn_events);
            m.inc("slo.clear_events", outcome.clear_events);
            m.set_gauge("slo.max_burn", outcome.max_burn);
            m.set_gauge("slo.alert_seconds", outcome.alert_seconds);
            outcome
        });

        let completed = self
            .disposition
            .iter()
            .filter(|d| **d == Some(Disposition::Completed))
            .count();
        let degraded = self
            .disposition
            .iter()
            .filter(|d| **d == Some(Disposition::Degraded))
            .count();
        let shed = self
            .disposition
            .iter()
            .filter(|d| **d == Some(Disposition::Shed))
            .count();
        let failed = self
            .disposition
            .iter()
            .filter(|d| **d == Some(Disposition::Failed))
            .count();
        let admitted = self.outcomes.len() - rejected;
        let availability = if admitted > 0 {
            (completed + degraded) as f64 / admitted as f64
        } else {
            1.0
        };
        let on_time = (0..self.outcomes.len())
            .filter(|&i| {
                self.disposition[i] == Some(Disposition::Completed)
                    && !self.outcomes[i].deadline_missed
            })
            .count();
        let goodput = if admitted > 0 {
            on_time as f64 / admitted as f64
        } else {
            1.0
        };
        let lost_seconds = self.injector.total_lost_seconds();
        let lost_seconds = if lost_seconds == 0.0 {
            0.0
        } else {
            lost_seconds
        };

        let m = &mut self.obs.metrics;
        m.inc("serve.requests", self.requests.len() as u64);
        m.inc("serve.served", served as u64);
        m.inc("serve.rejected", rejected as u64);
        m.inc("serve.deadline_missed", deadline_missed as u64);
        m.inc("serve.cache.hits", self.cache.hits());
        m.inc("serve.cache.misses", self.cache.misses());
        m.inc("serve.cache.evictions", self.cache.evictions());
        m.inc("serve.gpu.batches", self.batches as u64);
        m.inc("serve.gpu.compiled_shapes", self.compiled.len() as u64);
        m.set_gauge("serve.throughput_qph", throughput_qph);
        m.set_gauge("serve.makespan_s", makespan_s);
        m.set_gauge("serve.gpu.occupancy", gpu_occupancy);
        m.set_gauge("serve.cache.hit_rate", self.cache.hit_rate());
        if self.active {
            m.inc("serve.chaos.completed", completed as u64);
            m.inc("serve.chaos.degraded", degraded as u64);
            m.inc("serve.chaos.shed", shed as u64);
            m.inc("serve.chaos.failed", failed as u64);
            m.inc("serve.chaos.degraded_attempts", self.degraded_attempts);
            m.inc("serve.chaos.requeues", self.requeues);
            m.inc("serve.chaos.breaker_opens", self.breaker_opens);
            m.inc("serve.chaos.faults", self.injector.events().len() as u64);
            m.set_gauge("serve.chaos.availability", availability);
            m.set_gauge("serve.chaos.goodput", goodput);
            m.set_gauge("serve.chaos.lost_s", lost_seconds);
        }
        if !self.pol.is_plain_fifo() {
            m.inc("serve.policy.preemptions", self.preemptions);
            m.inc("serve.policy.degraded_attempts", self.degraded_attempts);
            m.set_gauge("serve.policy.preempt_lost_s", self.preempt_lost_s);
        }

        let causal = if self.config.provenance {
            Some(CausalLog {
                edges: self.engine.provenance().to_vec(),
                makespan_event: self.best_done.map(|(_, seq)| seq),
                completions: self.completions,
                splits: self.splits,
            })
        } else {
            None
        };
        let base = ServeReport {
            config: *self.config,
            served,
            rejected,
            deadline_missed,
            makespan_s,
            throughput_qph,
            gpu_busy_s: self.gpu_busy,
            gpu_occupancy,
            batches: self.batches,
            compiled_shapes: self.compiled.len(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            cache_hit_rate: self.cache.hit_rate(),
            cache_coalesced: self.cache.coalesced(),
            latency: latency_hist.summary(),
            timeline: self.timeline,
            slo,
            causal,
            outcomes: self.outcomes,
        };
        PolicyReport {
            chaos: ChaosReport {
                base,
                chaos_active: self.active,
                dispositions: self.disposition,
                admitted,
                completed,
                degraded,
                shed,
                failed,
                degraded_attempts: self.degraded_attempts,
                requeues: self.requeues,
                breaker_opens: self.breaker_opens,
                fault_events: self.injector.events().to_vec(),
                lost_seconds,
                availability,
                goodput,
            },
            policy: *self.pol,
            preemptions: self.preemptions,
            preempt_lost_s: self.preempt_lost_s,
        }
    }
}

/// Queue depth at which the canonical speculation rows degrade new
/// dispatches. The cold scenario's MSA backlog crosses this within the
/// first hour, so nearly every dispatch runs depth-capped — which is
/// what makes the measured makespan comparable to the `whatif`
/// full-fleet MSA-speedup projection.
pub const SPECULATE_DEPTH: usize = 16;

/// A named policy-matrix row.
#[derive(Debug, Clone, Copy)]
pub struct PolicyScenario {
    /// Short stable name.
    pub name: &'static str,
    /// The serving configuration (the canonical `cold` scenario).
    pub config: ServeConfig,
    /// The scheduling policy.
    pub policy: PolicyConfig,
}

/// One executed policy run with its observability session.
pub struct PolicyRun {
    /// The row name.
    pub name: &'static str,
    /// The policy report.
    pub report: PolicyReport,
    /// Trace + metrics captured during the run.
    pub obs: ObsSession,
}

/// Validation of the winning policy against the causal profiler's
/// virtual-speedup projection.
#[derive(Debug, Clone)]
pub struct PolicyWhatIf {
    /// The winning (dominating, speculation-armed) row.
    pub winner: &'static str,
    /// The matching virtual MSA speedup (`1 / degrade_msa_factor`).
    pub speedup: f64,
    /// Makespan [`predict_makespan`] projects for that speedup from the
    /// FIFO run's causal log.
    pub predicted_makespan_s: f64,
    /// Projected makespan reduction vs FIFO, percent.
    pub predicted_delta_pct: f64,
    /// The winner's measured makespan.
    pub measured_makespan_s: f64,
    /// Measured makespan reduction vs FIFO, percent.
    pub measured_delta_pct: f64,
    /// |predicted − measured| in percentage points — the CI gate allows
    /// at most [`POLICY_WHATIF_TOLERANCE_PP`].
    pub error_pp: f64,
}

/// Maximum percentage-point gap between the winner's measured makespan
/// delta and the matching what-if projection.
pub const POLICY_WHATIF_TOLERANCE_PP: f64 = 10.0;

/// The whole `serve-policy` result: every row plus the what-if
/// validation of the winner.
pub struct PolicyMatrixReport {
    /// One run per policy, FIFO first.
    pub runs: Vec<PolicyRun>,
    /// What-if validation (`None` only if no speculation row dominates
    /// FIFO — the CI gate fails in that case).
    pub whatif: Option<PolicyWhatIf>,
}

impl PolicyMatrixReport {
    /// The FIFO baseline row.
    pub fn fifo(&self) -> &PolicyRun {
        self.runs
            .iter()
            .find(|r| r.report.policy.is_plain_fifo())
            .expect("the matrix always includes the fifo baseline")
    }

    /// Rows that strictly dominate FIFO on *both* queries/hour and
    /// exact p99 latency — the CI gate requires at least one.
    pub fn dominating(&self) -> Vec<&PolicyRun> {
        let fifo = self.fifo();
        let fifo_qph = fifo.report.chaos.base.throughput_qph;
        let fifo_p99 = fifo.report.exact_percentile_s(0.99);
        self.runs
            .iter()
            .filter(|r| {
                !r.report.policy.is_plain_fifo()
                    && r.report.chaos.base.throughput_qph > fifo_qph
                    && r.report.exact_percentile_s(0.99) < fifo_p99
            })
            .collect()
    }
}

/// The canonical policy matrix over the `cold` scenario: the baseline
/// plus each mechanism in isolation, then the combinations.
pub fn policy_scenarios(quick: bool) -> Vec<PolicyScenario> {
    let config = crate::scenario::default_scenarios(quick)
        .into_iter()
        .find(|s| s.name == "cold")
        .expect("cold scenario exists")
        .config;
    vec![
        PolicyScenario {
            name: "fifo",
            config,
            policy: PolicyConfig::fifo(),
        },
        PolicyScenario {
            name: "sjf",
            config,
            policy: PolicyConfig::sjf(),
        },
        PolicyScenario {
            name: "edf",
            config,
            policy: PolicyConfig::edf(),
        },
        PolicyScenario {
            name: "shape-batch",
            config,
            policy: PolicyConfig::shape_batched(),
        },
        PolicyScenario {
            name: "sjf-preempt",
            config,
            policy: PolicyConfig::sjf_preempt(),
        },
        PolicyScenario {
            name: "speculate",
            config,
            policy: PolicyConfig::speculative(SPECULATE_DEPTH),
        },
        PolicyScenario {
            name: "adaptive",
            config,
            policy: PolicyConfig::adaptive(SPECULATE_DEPTH),
        },
    ]
}

/// Price the cost table once, run the whole matrix fault-free, and
/// validate the winner against the causal profiler's projection. The
/// FIFO row runs with provenance on (observation-only) so its causal
/// log can drive [`predict_makespan`].
pub fn run_policy_matrix(quick: bool) -> PolicyMatrixReport {
    let costs = CostTable::build(Platform::Server, quick, 4, SERVE_SEED);
    let chaos = ChaosConfig::none();
    let runs: Vec<PolicyRun> = policy_scenarios(quick)
        .into_iter()
        .map(|s| {
            let mut config = s.config;
            config.provenance = s.policy.is_plain_fifo();
            let mut obs = ObsSession::new();
            let report = run_serve_policy(&config, &s.policy, &chaos, &costs, &mut obs);
            PolicyRun {
                name: s.name,
                report,
                obs,
            }
        })
        .collect();

    let mut matrix = PolicyMatrixReport { runs, whatif: None };
    let fifo_makespan = matrix.fifo().report.chaos.base.makespan_s;
    let causal = matrix
        .fifo()
        .report
        .chaos
        .base
        .causal
        .clone()
        .expect("fifo row runs with provenance");
    let fifo_config = matrix.fifo().report.chaos.base.config;
    // The winner is the best dominating speculation row: speculation is
    // the one mechanism with a matching virtual speedup (depth-capped
    // MSA ⇒ every search `1/factor`× faster), so its measured delta is
    // directly comparable to the what-if projection.
    let winner = matrix
        .dominating()
        .into_iter()
        .filter(|r| r.report.policy.speculate_queue_depth > 0)
        .max_by(|a, b| {
            a.report
                .chaos
                .base
                .throughput_qph
                .total_cmp(&b.report.chaos.base.throughput_qph)
        })
        .map(|r| {
            (
                r.name,
                r.report.policy.degrade_msa_factor,
                r.report.chaos.base.makespan_s,
            )
        });
    if let Some((name, factor, measured_makespan_s)) = winner {
        let speedup = 1.0 / factor;
        let predicted_makespan_s =
            predict_makespan(&causal, &fifo_config, WhatIf::ScaleMsa(speedup));
        let predicted_delta_pct = (fifo_makespan - predicted_makespan_s) / fifo_makespan * 100.0;
        let measured_delta_pct = (fifo_makespan - measured_makespan_s) / fifo_makespan * 100.0;
        matrix.whatif = Some(PolicyWhatIf {
            winner: name,
            speedup,
            predicted_makespan_s,
            predicted_delta_pct,
            measured_makespan_s,
            measured_delta_pct,
            error_pp: (predicted_delta_pct - measured_delta_pct).abs(),
        });
    }
    matrix
}

/// Cross-policy comparison table, the dominance verdict, the what-if
/// validation and the per-run blocks.
pub fn render_policy_matrix(matrix: &PolicyMatrixReport) -> String {
    let headers = [
        "policy",
        "queries/h",
        "p50 s",
        "p99 s",
        "gpu occ",
        "goodput",
        "compl",
        "degr",
        "preempt",
    ];
    let rows: Vec<Vec<String>> = matrix
        .runs
        .iter()
        .map(|run| {
            let r = &run.report;
            vec![
                run.name.to_string(),
                format!("{:.2}", r.chaos.base.throughput_qph),
                format!("{:.0}", r.exact_percentile_s(0.50)),
                format!("{:.0}", r.exact_percentile_s(0.99)),
                format!("{:.1}%", r.chaos.base.gpu_occupancy * 100.0),
                format!("{:.1}%", r.chaos.goodput * 100.0),
                format!("{}", r.chaos.completed),
                format!("{}", r.chaos.degraded),
                format!("{}", r.preemptions),
            ]
        })
        .collect();
    let mut out = String::new();
    let w = &matrix.fifo().report.chaos.base.config;
    let _ = writeln!(
        out,
        "policy matrix over the cold scenario ({} requests, {} workers, batch {}); p50/p99 are exact rank statistics:",
        w.workload.num_requests, w.cpu_workers, w.gpu_batch
    );
    out.push_str(&ascii_table(&headers, &rows));
    out.push('\n');
    let dominating = matrix.dominating();
    if dominating.is_empty() {
        let _ = writeln!(
            out,
            "dominance: no policy strictly beats fifo on both queries/hour and p99"
        );
    } else {
        let names: Vec<&str> = dominating.iter().map(|r| r.name).collect();
        let fifo = matrix.fifo();
        let fifo_qph = fifo.report.chaos.base.throughput_qph;
        let fifo_p99 = fifo.report.exact_percentile_s(0.99);
        let best = dominating
            .iter()
            .max_by(|a, b| {
                a.report
                    .chaos
                    .base
                    .throughput_qph
                    .total_cmp(&b.report.chaos.base.throughput_qph)
            })
            .expect("dominating set is non-empty");
        let _ = writeln!(
            out,
            "dominance: {} beat fifo on both axes; best is {} ({:+.1}% qph, {:+.1}% p99)",
            names.join(", "),
            best.name,
            (best.report.chaos.base.throughput_qph / fifo_qph - 1.0) * 100.0,
            (best.report.exact_percentile_s(0.99) / fifo_p99 - 1.0) * 100.0
        );
    }
    match &matrix.whatif {
        Some(v) => {
            let _ = writeln!(
                out,
                "whatif check: msa {:.2}x (the degraded rung's speedup) predicts {:.1}% makespan reduction; {} measured {:.1}% (error {:.1} pp, tolerance {:.0} pp)",
                v.speedup,
                v.predicted_delta_pct,
                v.winner,
                v.measured_delta_pct,
                v.error_pp,
                POLICY_WHATIF_TOLERANCE_PP
            );
        }
        None => {
            let _ = writeln!(out, "whatif check: n/a (no speculation row dominates fifo)");
        }
    }
    for run in &matrix.runs {
        out.push('\n');
        let _ = writeln!(out, "[{}]", run.name);
        out.push_str(&run.report.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_scenarios;

    fn cold_config(quick: bool) -> ServeConfig {
        default_scenarios(quick)
            .into_iter()
            .find(|s| s.name == "cold")
            .expect("cold scenario exists")
            .config
    }

    fn costs() -> &'static CostTable {
        static COSTS: std::sync::OnceLock<CostTable> = std::sync::OnceLock::new();
        COSTS.get_or_init(|| CostTable::build(Platform::Server, true, 4, SERVE_SEED))
    }

    fn run(pol: &PolicyConfig) -> PolicyReport {
        let config = cold_config(true);
        let mut obs = ObsSession::new();
        run_serve_policy(&config, pol, &ChaosConfig::none(), costs(), &mut obs)
    }

    #[test]
    fn preemption_fires_and_is_bounded() {
        let r = run(&PolicyConfig::sjf_preempt());
        assert!(r.preemptions > 0, "the cold backlog must trigger yields");
        assert!(
            r.preemptions <= r.chaos.admitted as u64 * 2,
            "per-request preemption budget holds"
        );
        assert!(r.preempt_lost_s >= 0.0);
        assert!(r.chaos.conserves_requests());
    }

    #[test]
    fn speculation_degrades_under_backlog() {
        let r = run(&PolicyConfig::speculative(SPECULATE_DEPTH));
        assert!(
            r.chaos.degraded > 0,
            "the cold queue crosses depth {SPECULATE_DEPTH} almost immediately"
        );
        assert!(r.chaos.degraded_attempts >= r.chaos.degraded as u64);
        assert!(r.chaos.conserves_requests());
        let fifo = run(&PolicyConfig::fifo());
        assert!(
            r.chaos.base.makespan_s < fifo.chaos.base.makespan_s,
            "depth-capped searches must shorten the makespan"
        );
    }

    #[test]
    fn sjf_reorders_but_conserves_work() {
        let sjf = run(&PolicyConfig::sjf());
        let fifo = run(&PolicyConfig::fifo());
        assert!(sjf.chaos.conserves_requests());
        assert_eq!(sjf.chaos.admitted, fifo.chaos.admitted);
        assert_eq!(
            sjf.chaos.completed + sjf.chaos.degraded,
            fifo.chaos.completed + fifo.chaos.degraded,
            "reordering must not lose or invent completions"
        );
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(PolicyConfig::fifo().label(), "fifo");
        assert_eq!(PolicyConfig::sjf_preempt().label(), "sjf+preempt");
        assert_eq!(PolicyConfig::speculative(16).label(), "fifo+spec16");
        assert_eq!(PolicyConfig::adaptive(16).label(), "sjf+preempt+spec16");
        assert!(PolicyConfig::fifo().is_plain_fifo());
        assert!(!PolicyConfig::shape_batched().is_plain_fifo());
    }
}
