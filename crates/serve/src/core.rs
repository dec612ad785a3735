//! The serving core both event loops share.
//!
//! ParaFold's decoupling runs the CPU MSA phase and the GPU inference
//! phase as separate queues. Everything on the GPU side of that split,
//! plus the outcome and recovery bookkeeping, is identical whichever
//! way the MSA side dispatches, so it lives here once:
//!
//! - set-up: request stream, feature cache, engine, telemetry;
//! - feature loads: cache-hit fills, their landing, and the storage
//!   fault redo of every fill in flight;
//! - the GPU: batch close (pricing, the `gpu_batch` span tree,
//!   dispositions, provenance splits), GPU re-init and compile stalls;
//! - recovery: checkpoint salvage, the attempt budget, requeue backoff,
//!   the circuit breaker, shedding from the parked set;
//! - observation: the per-event timeline sample and the report fold.
//!
//! The MSA side is the one thing the two loops do differently, so it is
//! the [`MsaSide`] trait: [`crate::chaos`] assigns each miss eagerly to
//! the least-loaded worker's FIFO queue at arrival, [`crate::policy`]
//! holds misses in a keyed queue and dispatches lazily when a worker
//! frees. [`drive`] runs either over the one event queue and samples
//! the timeline after every event.

use crate::cache::FeatureCache;
use crate::chaos::{ChaosConfig, ChaosReport, Disposition};
use crate::queue::ReadyPool;
use crate::server::{
    CausalLog, CostTable, PhaseSegments, RequestOutcome, SegmentSplit, ServeConfig, ServeReport,
    LATENCY_BOUNDS, TIMELINE_COLUMNS,
};
use crate::workload::{self, Request};
use afsb_core::resilience::{CircuitBreaker, DegradeStep};
use afsb_rt::fault::{FaultInjector, FaultKind};
use afsb_rt::obs::timeline::{SloMonitor, TimelineSampler};
use afsb_rt::obs::{Histogram, ObsSession};
use afsb_rt::rng::mix;
use afsb_rt::sim::{Event, SimEngine, TimerId, WaitEdge};
use afsb_seq::samples::SampleId;
use std::collections::{BTreeMap, BTreeSet};

/// Salt for the per-request retry-backoff jitter stream.
const BACKOFF_SALT: u64 = 0xC4A05;

/// One in-flight feature load (a scheduled `CacheFill`).
#[derive(Debug, Clone, Copy)]
struct Fill {
    timer: TimerId,
    /// Piggybacked on an in-flight MSA fill (its landing time tracks
    /// the producer) rather than a plain cache-hit load.
    coalesced: bool,
}

/// All state the two loops share. The MSA side reads and writes the
/// `pub(crate)` fields; the rest changes only through methods.
pub(crate) struct ServeCore<'a> {
    pub(crate) config: &'a ServeConfig,
    chaos: &'a ChaosConfig,
    pub(crate) costs: &'a CostTable,
    pub(crate) obs: &'a mut ObsSession,
    pub(crate) requests: Vec<Request>,
    pub(crate) engine: SimEngine,
    pub(crate) cache: FeatureCache,
    active: bool,
    pub(crate) injector: FaultInjector,

    // The MSA-depth degradation rung: the queue depth that arms it
    // (`0` = off), the MSA duration factor, and the reported depth cap.
    deg_depth: usize,
    deg_factor: f64,
    deg_rung_depth: usize,

    /// When each pool worker is next free.
    pub(crate) workers: Vec<f64>,
    /// In-flight feature loads, indexed by request.
    fills: Vec<Option<Fill>>,
    live_fills: usize,
    coalesced_fills: usize,
    pending_storage: Vec<FaultKind>,

    // GPU side.
    pub(crate) pool: ReadyPool,
    gpu_free: f64,
    gpu_busy: f64,
    batches: usize,
    compiled: BTreeSet<SampleId>,
    inited: bool,
    gpu_penalty_s: f64,
    pending_compile_factor: Option<f64>,

    // Outcome and recovery state, indexed by request.
    pub(crate) outcomes: Vec<RequestOutcome>,
    disposition: Vec<Option<Disposition>>,
    degraded_req: Vec<bool>,
    attempts: Vec<u32>,
    pub(crate) durable: Vec<f64>,
    deadline_timers: Vec<Option<TimerId>>,
    requeue_timers: Vec<Option<TimerId>>,
    /// Start of the current admission wait (set at a kill or breaker
    /// park, consumed by the next requeue).
    wait_since: Vec<f64>,
    pub(crate) parked: Vec<usize>,
    breaker: CircuitBreaker,
    breaker_open: bool,
    requeues: u64,
    breaker_opens: u64,
    degraded_attempts: u64,

    // Observation-only: never feeds back into scheduling or floats.
    timeline: Option<TimelineSampler>,
    slo_obs: Vec<(f64, bool)>,
    splits: BTreeMap<u64, SegmentSplit>,
    completions: Vec<Option<u64>>,
    best_done: Option<(f64, u64)>,
}

/// The MSA side of a serving loop: how misses reach the CPU pool and
/// what the pool does under faults. Everything else is [`ServeCore`].
pub(crate) trait MsaSide<'a> {
    fn core(&mut self) -> &mut ServeCore<'a>;

    /// An admitted request arrived. Must push its outcome: a cache-hit
    /// fill ([`ServeCore::push_fill`]) or a miss
    /// ([`ServeCore::push_miss`]) headed for the pool.
    fn on_admitted(&mut self, request: usize, now: f64);

    /// Request `request`'s MSA attempt on `worker` finished.
    fn on_msa_done(&mut self, request: usize, worker: usize, now: f64);

    /// The GPU batch once its start time is fixed.
    fn pick_batch(&mut self, start: f64) -> Vec<usize> {
        let core = self.core();
        core.pool.take_batch(start, core.config.gpu_batch)
    }

    /// Drop an expired request from wherever it still waits for the
    /// pool; returns whether it was shed.
    fn shed(&mut self, request: usize, now: f64) -> bool;

    /// An OOM kill or worker crash at `at_fraction` of the busy workers.
    fn on_kill(&mut self, at_fraction: f64, now: f64);

    /// A straggler slows one running MSA job by `factor`.
    fn on_straggler(&mut self, factor: f64, now: f64);

    /// A storage stall reaches every running MSA job; adds the stalled
    /// seconds to `lost` and returns it.
    fn stall_running(&mut self, stall_s: f64, now: f64, lost: f64) -> f64;

    /// Put a requeued request back on the pool's path (the breaker is
    /// closed and the request still has no disposition).
    fn requeue(&mut self, request: usize, now: f64);

    /// MSA jobs queued or running (the `msa_q` gauge, minus parked).
    fn msa_jobs(&self) -> usize;
}

/// Run one serving loop to completion over the shared event queue.
pub(crate) fn drive<'a, L: MsaSide<'a>>(lp: &mut L) {
    let core = lp.core();
    // Faults enter the queue before the first arrival so a fault
    // scheduled exactly at an arrival's timestamp is delivered first.
    if core.active {
        for f in core.chaos.plan.faults() {
            core.engine.schedule(f.not_before_s, Event::Fault(f.kind));
        }
    }
    if let Some(first) = core.requests.first() {
        let at = first.arrival_s;
        core.engine.schedule(at, Event::Arrival { request: 0 });
    }

    while let Some((now, event)) = lp.core().engine.pop() {
        if let Some(tl) = lp.core().timeline.as_mut() {
            tl.advance_to(now);
        }
        match event {
            Event::Arrival { request } => {
                if lp.core().admit(request) {
                    lp.on_admitted(request, now);
                    lp.core().arm_deadline(request);
                }
                lp.core().chain_arrival(request);
            }
            Event::MsaDone { request, worker } => lp.on_msa_done(request, worker, now),
            Event::CacheFill { request, .. } => lp.core().on_cache_fill(request, now),
            Event::BatchClose => {
                if let Some(start) = lp.core().batch_start(now) {
                    let batch = lp.pick_batch(start);
                    lp.core().close_batch(now, start, &batch);
                }
            }
            Event::GpuDone { .. } => lp.core().on_gpu_done(now),
            Event::DeadlineExpired { request } => {
                if lp.core().sheddable(request) && lp.shed(request, now) {
                    lp.core().mark_shed(request, now);
                }
                lp.core().outcomes[request].deadline_missed = true;
            }
            Event::Fault(kind) => deliver_fault(lp, kind, now),
            Event::Requeue { request } => {
                if lp.core().begin_requeue(request, now) {
                    lp.requeue(request, now);
                }
            }
            Event::BreakerClose => lp.core().on_breaker_close(now),
        }
        if lp.core().timeline.is_some() {
            let jobs = lp.msa_jobs();
            lp.core().sample(now, jobs);
        }
    }
}

/// Deliver one scheduled fault: the MSA side answers kills, stragglers
/// and the running-job half of a storage stall; the core the rest.
fn deliver_fault<'a, L: MsaSide<'a>>(lp: &mut L, kind: FaultKind, now: f64) {
    let core = lp.core();
    core.injector.sync_to(now);
    let Some(fired) = core.injector.poll(kind.site()) else {
        return;
    };
    core.obs
        .tracer
        .instant_at(now, format!("fault:{}", fired.label()));
    match fired {
        FaultKind::OomKill { at_fraction } | FaultKind::WorkerCrash { at_fraction } => {
            lp.on_kill(at_fraction, now)
        }
        FaultKind::Straggler { factor } => lp.on_straggler(factor, now),
        FaultKind::StorageReadError => {
            if core.live_fills == 0 {
                core.pending_storage.push(fired);
            } else {
                let mut lost = 0.0;
                for waiter in 0..core.fills.len() {
                    if core.fills[waiter].is_some() {
                        let load_s = core.load_s(waiter);
                        core.redo_fill(waiter, load_s);
                        lost += load_s;
                    }
                }
                core.injector.charge(lost);
            }
        }
        FaultKind::StorageStall { stall_seconds } => {
            let mut lost = 0.0;
            for waiter in 0..core.fills.len() {
                if core.fills[waiter].is_some() {
                    core.redo_fill(waiter, stall_seconds);
                    lost += stall_seconds;
                }
            }
            // A device stall also reaches the database scans of every
            // running MSA job.
            let lost = lp.stall_running(stall_seconds, now, lost);
            let core = lp.core();
            if lost > 0.0 {
                core.injector.charge(lost);
            } else {
                core.pending_storage.push(fired);
            }
        }
        FaultKind::GpuInitFailure => {
            // The process-level re-init drops the in-process XLA cache:
            // shapes recompile, and the next batch waits out a priced
            // re-init on top of the cold init it now pays again.
            core.gpu_penalty_s += core.costs.init_s;
            core.inited = false;
            core.compiled.clear();
        }
        FaultKind::XlaCompileStall { factor } => {
            let f = core.pending_compile_factor.unwrap_or(1.0) * factor.max(1.0);
            core.pending_compile_factor = Some(f);
        }
    }
}

impl<'a> ServeCore<'a> {
    /// Validate the config, generate the stream and set everything up
    /// for one run. The tracer in `obs` must be fresh.
    ///
    /// # Panics
    ///
    /// Panics with the [`ServeConfig::validate`] error.
    pub(crate) fn new(
        config: &'a ServeConfig,
        chaos: &'a ChaosConfig,
        costs: &'a CostTable,
        obs: &'a mut ObsSession,
    ) -> ServeCore<'a> {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
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
        let timeline = (config.telemetry.timeline_interval_s > 0.0).then(|| {
            let mut tl =
                TimelineSampler::new(config.telemetry.timeline_interval_s, &TIMELINE_COLUMNS);
            tl.set_many(&[0.0, 0.0, 0.0, cache.len() as f64, 0.0, 0.0, 0.0]);
            tl
        });
        let recovery = &chaos.policy;
        let (deg_depth, deg_factor, deg_rung_depth) = if active {
            (
                recovery.degrade_queue_depth,
                recovery.degrade_msa_factor,
                recovery.degraded_msa_depth,
            )
        } else {
            (0, 1.0, 0)
        };

        ServeCore {
            config,
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
            workers: vec![0.0; config.cpu_workers],
            fills: vec![None; n],
            live_fills: 0,
            coalesced_fills: 0,
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
            deadline_timers: vec![None; n],
            requeue_timers: vec![None; n],
            wait_since: vec![0.0; n],
            parked: Vec::new(),
            breaker: CircuitBreaker::new(recovery.breaker_threshold),
            breaker_open: false,
            requeues: 0,
            breaker_opens: 0,
            degraded_attempts: 0,
            timeline,
            slo_obs: Vec::new(),
            splits: BTreeMap::new(),
            completions: vec![None; n],
            best_done: None,
            requests,
        }
    }

    /// Replace the degradation rung (the policy loop's speculative
    /// admission overrides the recovery policy's).
    pub(crate) fn set_degrade(&mut self, depth: usize, factor: f64, rung_depth: usize) {
        self.deg_depth = depth;
        self.deg_factor = factor;
        self.deg_rung_depth = rung_depth;
    }

    /// Whether the degradation rung is armed at all.
    pub(crate) fn degrade_armed(&self) -> bool {
        self.deg_depth > 0
    }

    /// The §VI admission check. A rejected request gets its outcome
    /// here; an admitted one is the MSA side's to record.
    fn admit(&mut self, request: usize) -> bool {
        let req = self.requests[request];
        if self.costs.shape(req.sample).admitted {
            return true;
        }
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
        false
    }

    fn arm_deadline(&mut self, request: usize) {
        if let Some(limit) = self.config.deadline.limit_seconds() {
            self.deadline_timers[request] = Some(self.engine.schedule_tagged(
                self.requests[request].arrival_s + limit,
                Event::DeadlineExpired { request },
                WaitEdge::Deadline,
            ));
        }
    }

    /// Arrivals are chained lazily (each handler schedules the next) so
    /// every readiness event carries a lower sequence number than any
    /// later arrival: an MSA job finishing exactly at a future arrival's
    /// timestamp pops first, reproducing the seed sweep's inclusive
    /// `done <= arrival` fill-commit rule.
    fn chain_arrival(&mut self, request: usize) {
        if let Some(next) = self.requests.get(request + 1) {
            let at = next.arrival_s;
            self.engine.schedule(
                at,
                Event::Arrival {
                    request: request + 1,
                },
            );
        }
    }

    /// Record an admitted cache hit whose features load from `from_s`
    /// (the arrival, or a coalesced producer's landing) and schedule
    /// its `CacheFill`.
    pub(crate) fn push_fill(&mut self, request: usize, from_s: f64, coalesced: bool) {
        let req = self.requests[request];
        let load_s = self.load_s(request);
        let mut ready = from_s + load_s;
        if self.active && !self.pending_storage.is_empty() {
            let delay = drain_pending_storage(&mut self.pending_storage, load_s);
            ready += delay;
            self.injector.charge(delay);
        }
        self.schedule_fill(request, ready, coalesced);
        self.outcomes.push(RequestOutcome {
            request: req,
            cache_hit: true,
            rejected: false,
            ready_s: ready,
            done_s: 0.0,
            deadline_missed: false,
            finished: false,
            segments: PhaseSegments {
                cache_wait_s: ready - req.arrival_s,
                ..PhaseSegments::default()
            },
        });
    }

    /// Record an admitted miss; [`ServeCore::start_msa`] fills in its
    /// MSA segments and readiness once a worker takes it.
    pub(crate) fn push_miss(&mut self, request: usize) {
        let req = self.requests[request];
        self.outcomes.push(RequestOutcome {
            request: req,
            cache_hit: false,
            rejected: false,
            ready_s: req.arrival_s,
            done_s: 0.0,
            deadline_missed: false,
            finished: false,
            segments: PhaseSegments::default(),
        });
    }

    /// Schedule request `request`'s feature load to land at `ready`.
    pub(crate) fn schedule_fill(&mut self, request: usize, ready: f64, coalesced: bool) {
        let timer = self.engine.schedule_tagged(
            ready,
            Event::CacheFill {
                request,
                entity: self.requests[request].entity,
            },
            WaitEdge::CacheFill,
        );
        let slot = &mut self.fills[request];
        debug_assert!(slot.is_none(), "request {request} already has a fill");
        *slot = Some(Fill { timer, coalesced });
        self.live_fills += 1;
        if coalesced {
            self.coalesced_fills += 1;
        }
    }

    /// Seconds to load request `r`'s feature file from storage.
    pub(crate) fn load_s(&self, r: usize) -> f64 {
        self.costs.shape(self.requests[r].sample).feature_load_s
    }

    /// Cancel and forget request `request`'s in-flight fill.
    pub(crate) fn cancel_fill(&mut self, request: usize) {
        if let Some(fill) = self.take_fill(request) {
            self.engine.cancel(fill.timer);
        }
    }

    fn take_fill(&mut self, request: usize) -> Option<Fill> {
        let fill = self.fills[request].take()?;
        self.live_fills -= 1;
        if fill.coalesced {
            self.coalesced_fills -= 1;
        }
        Some(fill)
    }

    /// Requests whose coalesced fill waits on `entity`'s producer, in
    /// request order.
    pub(crate) fn coalesced_waiters(&self, entity: usize) -> Vec<usize> {
        if self.coalesced_fills == 0 {
            return Vec::new();
        }
        (0..self.fills.len())
            .filter(|&r| {
                self.fills[r].is_some_and(|f| f.coalesced) && self.requests[r].entity == entity
            })
            .collect()
    }

    /// Move a coalesced waiter's landing to its producer's new
    /// completion time.
    pub(crate) fn track_producer(&mut self, waiter: usize, producer_done: f64) {
        let fill = self.fills[waiter].expect("waiter has a fill");
        self.engine.cancel(fill.timer);
        let ready = producer_done + self.load_s(waiter);
        self.reschedule_fill(waiter, ready);
        let o = &mut self.outcomes[waiter];
        o.segments.cache_wait_s += ready - o.ready_s;
        o.ready_s = ready;
    }

    /// Push a fill's landing out by `delay` seconds (a storage fault).
    fn redo_fill(&mut self, waiter: usize, delay: f64) {
        let fill = self.fills[waiter].expect("waiter has a fill");
        self.engine.cancel(fill.timer);
        let ready = self.outcomes[waiter].ready_s + delay;
        self.outcomes[waiter].segments.cache_wait_s += delay;
        self.outcomes[waiter].ready_s = ready;
        self.reschedule_fill(waiter, ready);
    }

    fn reschedule_fill(&mut self, waiter: usize, ready: f64) {
        let timer = self.engine.schedule_tagged(
            ready,
            Event::CacheFill {
                request: waiter,
                entity: self.requests[waiter].entity,
            },
            WaitEdge::CacheFill,
        );
        self.fills[waiter]
            .as_mut()
            .expect("waiter has a fill")
            .timer = timer;
    }

    /// A feature load landed: the request becomes GPU-ready.
    fn on_cache_fill(&mut self, request: usize, now: f64) {
        self.take_fill(request);
        self.make_ready(request, now);
    }

    /// The MSA seconds of request `r`'s next attempt: its non-durable
    /// remainder, cut by the degradation rung when `pressure` (queued
    /// plus parked requests) reaches the armed depth.
    pub(crate) fn attempt_msa_s(&mut self, r: usize, pressure: usize, now: f64) -> f64 {
        if self.deg_depth > 0 && !self.degraded_req[r] && pressure >= self.deg_depth {
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
        let mut msa_s =
            (1.0 - self.durable[r]).max(0.0) * self.costs.shape(self.requests[r].sample).msa_s;
        if self.degraded_req[r] {
            msa_s *= self.deg_factor;
        }
        msa_s
    }

    /// Start request `r`'s MSA attempt of `msa_s` seconds on worker `w`
    /// for a request queued since `queued_s`; returns the completion
    /// timer, start and done times.
    pub(crate) fn start_msa(
        &mut self,
        r: usize,
        w: usize,
        queued_s: f64,
        msa_s: f64,
        now: f64,
    ) -> (TimerId, f64, f64) {
        let start = self.workers[w].max(queued_s);
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
            // `wait_s + service_s` equals the recorded edge duration
            // (`done - now`), so the what-if replay telescopes exactly
            // at scale 1.
            self.splits.insert(
                timer.seq(),
                SegmentSplit {
                    wait_s: start - now,
                    service_s: done - start,
                    compile_s: 0.0,
                },
            );
        }
        let o = &mut self.outcomes[r];
        o.segments.msa_queue_wait_s += start - queued_s;
        o.segments.msa_service_s += done - start;
        o.ready_s = done;
        (timer, start, done)
    }

    /// A finished MSA job's features enter the cache. The seed sweep
    /// only ever committed fills that a later arrival passed, so once
    /// the stream has drained the insert is skipped — keeping the
    /// eviction counters bit-identical to it.
    pub(crate) fn insert_features(&mut self, r: usize) {
        if self.outcomes.len() < self.requests.len() {
            let req = self.requests[r];
            self.cache
                .insert(req.entity, self.costs.shape(req.sample).feature_bytes);
        }
    }

    /// Request `r` is GPU-ready: pool it and close a batch if the GPU
    /// is free.
    pub(crate) fn make_ready(&mut self, r: usize, now: f64) {
        self.pool.push(self.outcomes[r].ready_s, r);
        if now >= self.gpu_free {
            self.engine
                .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
        }
    }

    /// The batch start time, or `None` when a close has nothing to do.
    /// A close always pops after every same-timestamp readiness event
    /// (higher sequence number), so the pool is complete; duplicate
    /// closes fall through here.
    fn batch_start(&self, now: f64) -> Option<f64> {
        if self.pool.is_empty() || now < self.gpu_free {
            return None;
        }
        Some(
            self.gpu_free
                .max(self.pool.earliest_ready().expect("pool is non-empty")),
        )
    }

    /// Price and trace one GPU batch, complete its members and schedule
    /// the `GpuDone`. The batch is priced first so the enclosing span
    /// carries its full duration when created; the child spans are then
    /// laid end to end.
    fn close_batch(&mut self, now: f64, start: f64, batch: &[usize]) {
        let costs = self.costs;
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
        let mut service = if pay_init { costs.init_s } else { 0.0 }
            + costs.dispatch_s
            + new_shapes
                .iter()
                .map(|&s| costs.shape(s).compile_s * compile_factor)
                .sum::<f64>()
            + batch
                .iter()
                .map(|&idx| costs.shape(self.outcomes[idx].request.sample).compute_s)
                .sum::<f64>();
        if reinit_s > 0.0 {
            service += reinit_s;
            self.injector.charge(reinit_s);
        }
        if compile_factor > 1.0 {
            let base_compile: f64 = new_shapes.iter().map(|&s| costs.shape(s).compile_s).sum();
            self.injector
                .charge(base_compile * compile_factor - base_compile);
        }
        let done = start + service;

        let tracer = &mut self.obs.tracer;
        let batch_span = tracer.closed_span("gpu_batch", start, service);
        let mut at = start;
        if reinit_s > 0.0 {
            tracer.child_span(batch_span, "gpu_reinit", at, reinit_s);
            at += reinit_s;
        }
        if pay_init {
            self.inited = true;
            tracer.child_span(batch_span, "init", at, costs.init_s);
            at += costs.init_s;
        }
        tracer.child_span(batch_span, "dispatch", at, costs.dispatch_s);
        at += costs.dispatch_s;
        let compile_begin = at;
        for &s in &new_shapes {
            let compile_s = costs.shape(s).compile_s * compile_factor;
            tracer.child_span(batch_span, "xla_compile", at, compile_s);
            at += compile_s;
        }
        let compile_end = at;
        for &idx in batch {
            let compute_s = costs.shape(self.outcomes[idx].request.sample).compute_s;
            tracer.child_span(batch_span, "gpu_compute", at, compute_s);
            at += compute_s;
        }
        debug_assert!((at - done).abs() < 1e-9);
        for &idx in batch {
            let o = &mut self.outcomes[idx];
            o.done_s = done;
            o.finished = true;
            o.segments.batch_wait_s += start - o.ready_s;
            o.segments.xla_compile_s += compile_end - compile_begin;
            o.segments.close(o.done_s - o.request.arrival_s);
            o.deadline_missed = self.config.deadline.exceeded(o.latency_s());
            let on_time = !o.deadline_missed;
            // A met deadline disarms its timer; a missed one is left to
            // fire (the completion already derived the flag, so the
            // timer is redundant but harmless).
            if on_time {
                if let Some(timer) = self.deadline_timers[idx].take() {
                    self.engine.cancel(timer);
                }
            }
            let degraded = self.degraded_req[idx];
            self.disposition[idx] = Some(if degraded {
                Disposition::Degraded
            } else {
                Disposition::Completed
            });
            if self.config.telemetry.slo.is_some() {
                self.slo_obs.push((done, on_time && !degraded));
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
            // The gpu-busy edge spans from this batch close to the
            // dispatch completing: queueing behind the previous batch,
            // then service, of which the one-time compiles are
            // separable.
            let compile_total = compile_end - compile_begin;
            self.splits.insert(
                timer.seq(),
                SegmentSplit {
                    wait_s: start - now,
                    service_s: (done - start) - compile_total,
                    compile_s: compile_total,
                },
            );
            for &idx in batch {
                self.completions[idx] = Some(timer.seq());
            }
            if self.best_done.is_none_or(|(t, _)| done >= t) {
                self.best_done = Some((done, timer.seq()));
            }
        }
    }

    /// The GPU freed up: if anything queued meanwhile, close the next
    /// batch immediately.
    fn on_gpu_done(&mut self, now: f64) {
        if !self.pool.is_empty() {
            self.engine
                .schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
        }
    }

    /// Whether an expiring deadline may shed its request: shedding is
    /// armed and the request is admitted and not yet disposed of.
    fn sheddable(&self, request: usize) -> bool {
        self.active
            && self.chaos.policy.shed_expired
            && !self.outcomes[request].rejected
            && self.disposition[request].is_none()
    }

    /// Shed a request waiting out the open breaker or its requeue
    /// backoff; returns whether it was waiting there.
    pub(crate) fn unpark(&mut self, request: usize) -> bool {
        if let Some(pos) = self.parked.iter().position(|&r| r == request) {
            self.parked.remove(pos);
            return true;
        }
        if let Some(timer) = self.requeue_timers[request].take() {
            self.engine.cancel(timer);
            return true;
        }
        false
    }

    fn mark_shed(&mut self, request: usize, now: f64) {
        self.disposition[request] = Some(Disposition::Shed);
        self.obs.tracer.instant_at(now, "shed");
        if self.config.telemetry.slo.is_some() {
            self.slo_obs.push((now, false));
        }
    }

    /// Terminally fail request `r`.
    pub(crate) fn fail(&mut self, r: usize, now: f64) {
        self.disposition[r] = Some(Disposition::Failed);
        self.obs.tracer.instant_at(now, "failed");
        if self.config.telemetry.slo.is_some() {
            self.slo_obs.push((now, false));
        }
        if let Some(timer) = self.deadline_timers[r].take() {
            self.engine.cancel(timer);
        }
    }

    /// Checkpoint salvage for request `r`'s attempt that ran from
    /// `start_s` towards `done_s` and stopped at `now`: durable progress
    /// floors to the `1/units` jackhmmer checkpoint grid, the rest is
    /// redone. Returns the lost (spent minus salvaged) seconds.
    pub(crate) fn salvage(
        &mut self,
        r: usize,
        start_s: f64,
        done_s: f64,
        now: f64,
        units: usize,
    ) -> f64 {
        let span = done_s - start_s;
        let progress = if start_s >= now || span <= 0.0 {
            0.0
        } else {
            ((now - start_s) / span).clamp(0.0, 1.0)
        };
        let before = self.durable[r];
        let overall = before + progress * (1.0 - before);
        let units = units.max(1) as f64;
        self.durable[r] = (overall * units).floor() / units;
        let spent = (now - start_s).max(0.0);
        let salvaged = (self.durable[r] - before) * self.costs.shape(self.requests[r].sample).msa_s;
        (spent - salvaged).max(0.0)
    }

    /// Recover from a kill of request `r`'s attempt (the MSA side has
    /// already freed or kept its slot): salvage checkpoints, then fail
    /// the request once its attempt budget is spent, or schedule a
    /// backed-off requeue and feed the breaker. Returns whether `r`
    /// failed terminally.
    pub(crate) fn recover_kill(&mut self, r: usize, start_s: f64, done_s: f64, now: f64) -> bool {
        let policy = &self.chaos.policy;
        self.wait_since[r] = now;
        let lost = self.salvage(r, start_s, done_s, now, policy.checkpoint_units);
        self.injector.charge(lost);
        self.attempts[r] += 1;
        if self.attempts[r] >= policy.max_attempts.max(1) {
            self.fail(r, now);
            return true;
        }
        let backoff = policy.retry.backoff_seconds(
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
                now + policy.breaker_cooldown_s,
                Event::BreakerClose,
                WaitEdge::Admission,
            );
        }
        false
    }

    /// A requeue timer fired: account the admission wait, and park the
    /// request while the breaker is open. Returns whether the request
    /// goes back to the MSA side now.
    fn begin_requeue(&mut self, request: usize, now: f64) -> bool {
        self.requeue_timers[request] = None;
        if self.disposition[request].is_some() {
            return false;
        }
        self.requeues += 1;
        self.obs.tracer.instant_at(now, "requeue");
        self.outcomes[request].segments.admission_wait_s += now - self.wait_since[request];
        if self.breaker_open {
            self.wait_since[request] = now;
            self.parked.push(request);
            return false;
        }
        true
    }

    /// The breaker half-closes: every parked request requeues now.
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

    /// The end-of-event gauge sample; `msa_jobs` counts the MSA side's
    /// queued and running jobs.
    fn sample(&mut self, now: f64, msa_jobs: usize) {
        let Some(tl) = self.timeline.as_mut() else {
            return;
        };
        tl.set_many(&[
            (msa_jobs + self.parked.len()) as f64,
            self.workers.iter().filter(|&&t| t > now).count() as f64,
            if self.gpu_free > now { 1.0 } else { 0.0 },
            self.cache.len() as f64,
            self.cache.hit_rate(),
            self.live_fills as f64,
            if self.breaker_open { 1.0 } else { 0.0 },
        ]);
    }

    /// Fold the run into the report and metrics. The base report covers
    /// *finished* requests — under an empty plan that is every admitted
    /// request.
    pub(crate) fn fold(mut self) -> ChaosReport {
        for (i, o) in self.outcomes.iter().enumerate() {
            if !o.rejected && self.disposition[i].is_none() {
                debug_assert!(false, "request {i} escaped without a disposition");
                self.disposition[i] = Some(Disposition::Failed);
            }
        }
        let disposition = &self.disposition;
        let finished = |i: usize| {
            matches!(
                disposition[i],
                Some(Disposition::Completed) | Some(Disposition::Degraded)
            )
        };
        let outcomes = &self.outcomes;
        let last_arrival = self.requests.last().map_or(0.0, |r| r.arrival_s);
        let makespan_s = outcomes
            .iter()
            .enumerate()
            .filter(|&(i, _)| finished(i))
            .map(|(_, o)| o.done_s)
            .fold(last_arrival, f64::max);
        let served = (0..outcomes.len()).filter(|&i| finished(i)).count();
        let rejected = outcomes.iter().filter(|o| o.rejected).count();
        let deadline_missed = outcomes.iter().filter(|o| o.deadline_missed).count();
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
        for (i, o) in outcomes.iter().enumerate() {
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
        let obs = &mut *self.obs;
        let slo = self.config.telemetry.slo.map(|slo_config| {
            let mut monitor = SloMonitor::new(slo_config);
            for &(t, good) in &self.slo_obs {
                monitor.observe(t, good);
            }
            let outcome = monitor.evaluate();
            for tr in &outcome.transitions {
                obs.tracer
                    .instant_at(tr.at_s, if tr.firing { "slo:burn" } else { "slo:clear" });
                obs.tracer.instant_attr("burn", tr.burn);
            }
            let m = &mut obs.metrics;
            m.inc("slo.burn_events", outcome.burn_events);
            m.inc("slo.clear_events", outcome.clear_events);
            m.set_gauge("slo.max_burn", outcome.max_burn);
            m.set_gauge("slo.alert_seconds", outcome.alert_seconds);
            outcome
        });

        let count = |d: Disposition| disposition.iter().filter(|x| **x == Some(d)).count();
        let completed = count(Disposition::Completed);
        let degraded = count(Disposition::Degraded);
        let shed = count(Disposition::Shed);
        let failed = count(Disposition::Failed);
        let admitted = outcomes.len() - rejected;
        let availability = if admitted > 0 {
            (completed + degraded) as f64 / admitted as f64
        } else {
            1.0
        };
        let on_time = (0..outcomes.len())
            .filter(|&i| {
                disposition[i] == Some(Disposition::Completed) && !outcomes[i].deadline_missed
            })
            .count();
        let goodput = if admitted > 0 {
            on_time as f64 / admitted as f64
        } else {
            1.0
        };
        // An empty-iterator f64 sum is -0.0 on current rustc; pin the
        // zero's sign so the fault-free row renders `0`, not `-0`.
        let lost_seconds = self.injector.total_lost_seconds();
        let lost_seconds = if lost_seconds == 0.0 {
            0.0
        } else {
            lost_seconds
        };

        let m = &mut obs.metrics;
        m.inc("serve.requests", self.requests.len() as u64);
        m.inc("serve.served", served as u64);
        m.inc("serve.rejected", rejected as u64);
        m.inc("serve.deadline_missed", deadline_missed as u64);
        m.inc("serve.cache.hits", self.cache.hits());
        m.inc("serve.cache.misses", self.cache.misses());
        m.inc("serve.cache.evictions", self.cache.evictions());
        if self.config.coalesce_misses {
            m.inc("serve.cache.coalesced", self.cache.coalesced());
        }
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

        let causal = self.config.provenance.then(|| CausalLog {
            edges: self.engine.provenance().to_vec(),
            makespan_event: self.best_done.map(|(_, seq)| seq),
            completions: self.completions,
            splits: self.splits,
        });
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
        ChaosReport {
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
        }
    }
}

/// Apply (and clear) storage faults that fired with nothing in flight
/// to the fill being scheduled now; returns the added delay.
fn drain_pending_storage(pending: &mut Vec<FaultKind>, load_s: f64) -> f64 {
    let mut delay = 0.0;
    for kind in pending.drain(..) {
        delay += match kind {
            FaultKind::StorageStall { stall_seconds } => stall_seconds,
            FaultKind::StorageReadError => load_s,
            _ => 0.0,
        };
    }
    delay
}
