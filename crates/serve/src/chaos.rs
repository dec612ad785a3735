//! Fault-tolerant serving: the chaos-enabled twin of
//! [`crate::server::run_serve`].
//!
//! The fault-free scheduler answers "how fast is serving when nothing
//! breaks"; this module answers "how does it degrade when everything
//! does". It runs the same event loop on the same [`SimEngine`], plus:
//!
//! - **Fault wiring** — every fault of a [`FaultPlan`] is scheduled as
//!   an [`Event::Fault`] on the serving engine and delivered through a
//!   per-run [`FaultInjector`]: kills abort the in-flight MSA job on a
//!   CPU worker (redone from the last jackhmmer checkpoint, not from
//!   zero), stragglers slow one worker's queue, storage faults stall or
//!   re-read in-flight feature loads (a device stall also reaches the
//!   database scans of running MSA jobs), GPU init failures force a
//!   priced re-init that drops the in-process XLA cache, and compile
//!   stalls inflate the next batch's `xla_compile` spans.
//! - **Recovery policy** — a per-request attempt budget with capped
//!   exponential backoff ([`RetryPolicy`]) requeues killed MSA jobs, a
//!   worker-pool [`CircuitBreaker`] parks requeues while open,
//!   deadline-aware load shedding drops still-queued requests whose
//!   deadline expired, and sustained queue growth triggers the
//!   [`DegradeStep::MsaDepthCap`] rung of the `core::resilience` ladder
//!   (reduced MSA depth ⇒ cheaper searches at lower quality).
//! - **Dispositions** — every admitted request terminates in exactly
//!   one [`Disposition`] (completed | degraded | shed | failed), the
//!   request-conservation invariant checked by
//!   [`ChaosReport::conserves_requests`].
//!
//! With an *empty* plan the chaos loop takes no extra branches, makes
//! no extra engine or tracer calls and reduces bit-for-bit to
//! [`crate::server::run_serve`] — `tests/chaos_serving.rs` pins the
//! report, metrics text and Chrome trace byte-identically to the
//! fault-free engine (and therefore, transitively, to the frozen seed
//! scheduler in [`crate::reference`]).
//!
//! Two modelling choices keep recovery deterministic and conservative:
//! a killed or shed job's **slot stays reserved** (later jobs on that
//! worker keep their start times — freed capacity is not compacted
//! away), and pended side effects (a storage fault with nothing in
//! flight, a compile stall awaiting the next new shape) are charged to
//! the most recently fired fault when they finally apply.

use crate::cache::FeatureCache;
use crate::queue::ReadyPool;
use crate::scenario::SERVE_SEED;
use crate::server::{
    CausalLog, CostTable, PhaseSegments, RequestOutcome, SegmentSplit, ServeConfig, ServeReport,
    LATENCY_BOUNDS, TIMELINE_COLUMNS,
};
use crate::workload;
use afsb_core::report::ascii_table;
use afsb_core::resilience::{CircuitBreaker, DegradeStep, RetryPolicy};
use afsb_rt::fault::{FaultEvent, FaultKind, FaultPlan};
use afsb_rt::obs::timeline::{SloMonitor, TimelineSampler};
use afsb_rt::obs::{Histogram, ObsSession};
use afsb_rt::rng::mix;
use afsb_rt::sim::{Event, SimEngine, TimerId, WaitEdge};
use afsb_seq::samples::SampleId;
use afsb_simarch::Platform;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// Salt for the per-request retry-backoff jitter stream.
const BACKOFF_SALT: u64 = 0xC4A05;

/// Terminal state of one admitted request under chaos serving.
///
/// The serving-level analogue of `RunOutcome`: ordered by severity so
/// the worst disposition of a set is its `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Disposition {
    /// Finished at full quality.
    Completed,
    /// Finished after the MSA-depth degradation rung was applied.
    Degraded,
    /// Dropped by deadline-aware load shedding while still queued.
    Shed,
    /// Terminally failed: the per-request attempt budget ran out (or
    /// the request waited on a producer that did).
    Failed,
}

impl Disposition {
    /// Stable serialization label.
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::Degraded => "degraded",
            Disposition::Shed => "shed",
            Disposition::Failed => "failed",
        }
    }
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The serving-level recovery policy: what happens after a fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Backoff schedule between MSA attempts of one request.
    pub retry: RetryPolicy,
    /// Total MSA attempts a request may consume before it is
    /// [`Disposition::Failed`] (its *attempt budget*).
    pub max_attempts: u32,
    /// Consecutive kill-failures across the pool before the circuit
    /// opens and requeues park until the cooldown elapses.
    pub breaker_threshold: u32,
    /// Seconds the open circuit waits before half-closing and
    /// re-dispatching parked requests.
    pub breaker_cooldown_s: f64,
    /// Shed still-queued requests when their deadline expires instead
    /// of letting them finish arbitrarily late.
    pub shed_expired: bool,
    /// Queue depth (queued-not-started MSA jobs + parked requests) at
    /// which new dispatches degrade to the reduced-depth MSA rung.
    /// `0` disables degradation.
    pub degrade_queue_depth: usize,
    /// MSA duration multiplier under degradation (< 1: shallower
    /// search finishes faster).
    pub degrade_msa_factor: f64,
    /// MSA depth cap reported for the degradation rung (the ladder's
    /// [`DegradeStep::MsaDepthCap`] parameter).
    pub degraded_msa_depth: usize,
    /// Checkpoint granularity of the jackhmmer driver: durable progress
    /// is the killed attempt's progress floored to `1/checkpoint_units`
    /// steps, so a retry redoes only the non-durable tail.
    pub checkpoint_units: usize,
}

impl RecoveryPolicy {
    /// The canonical policy the `serve-chaos` matrix runs with.
    pub fn standard() -> RecoveryPolicy {
        RecoveryPolicy {
            retry: RetryPolicy::default(),
            max_attempts: 4,
            breaker_threshold: 3,
            breaker_cooldown_s: 900.0,
            shed_expired: true,
            degrade_queue_depth: 0,
            degrade_msa_factor: 0.6,
            degraded_msa_depth: 128,
            checkpoint_units: 8,
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::standard()
    }
}

/// A fault plan plus the recovery policy that answers it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosConfig {
    /// The faults to inject (empty = the fault-free baseline).
    pub plan: FaultPlan,
    /// How the serving layer recovers. Inert while the plan is empty.
    pub policy: RecoveryPolicy,
}

impl ChaosConfig {
    /// No faults, default policy: the byte-identical baseline.
    pub fn none() -> ChaosConfig {
        ChaosConfig::default()
    }

    /// Whether any chaos machinery is armed. Every extra branch of the
    /// chaos loop is gated on this, which is what makes the empty-plan
    /// run bit-identical to [`crate::server::run_serve`].
    pub fn is_active(&self) -> bool {
        !self.plan.is_empty()
    }
}

/// Everything one chaos serving run produced: the fault-free report
/// shape plus the disposition and recovery accounting.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The base serving report (folded over *finished* requests, which
    /// under an empty plan is every admitted request — byte-identical
    /// to the fault-free engine's report).
    pub base: ServeReport,
    /// Whether a fault plan was armed (gates the chaos render block).
    pub chaos_active: bool,
    /// Per-request disposition, indexed by request id (`None` for
    /// admission-rejected requests).
    pub dispositions: Vec<Option<Disposition>>,
    /// Requests admitted (not rejected) — the conservation total.
    pub admitted: usize,
    /// Requests that finished at full quality.
    pub completed: usize,
    /// Requests that finished degraded.
    pub degraded: usize,
    /// Requests shed at their deadline.
    pub shed: usize,
    /// Requests that terminally failed.
    pub failed: usize,
    /// Degradation rung applications (MSA-depth cap decisions), counted
    /// per dispatch attempt — a later shed or failure does not erase the
    /// attempt, so this is nonzero whenever `degrade:` instants fired
    /// even if no *finished* request kept the degraded flag.
    pub degraded_attempts: u64,
    /// MSA attempts re-dispatched after a kill.
    pub requeues: u64,
    /// Times the worker-pool circuit opened.
    pub breaker_opens: u64,
    /// Every fault that fired, with its charged cost.
    pub fault_events: Vec<FaultEvent>,
    /// Simulated seconds charged to faults (redone work, stalls,
    /// re-inits, inflated compiles).
    pub lost_seconds: f64,
    /// Finished (completed + degraded) fraction of admitted requests.
    pub availability: f64,
    /// On-time full-quality fraction of admitted requests: completed
    /// within deadline, no degradation. A *fraction*, not a rate —
    /// shedding shortens the makespan, so a rate would reward dropping
    /// work.
    pub goodput: f64,
}

impl ChaosReport {
    /// The no-lost-requests invariant: every admitted request ended in
    /// exactly one disposition.
    pub fn conserves_requests(&self) -> bool {
        self.admitted == self.completed + self.degraded + self.shed + self.failed
            && self
                .dispositions
                .iter()
                .zip(&self.base.outcomes)
                .all(|(d, o)| d.is_some() != o.rejected)
    }

    /// Human-readable report: the base block, plus the chaos block when
    /// a plan was armed (so the passive render stays byte-identical to
    /// the fault-free report).
    pub fn render(&self) -> String {
        let mut out = self.base.render();
        if self.chaos_active {
            let _ = writeln!(
                out,
                "  chaos: {} completed, {} degraded, {} shed, {} failed of {} admitted (availability {:.1}%)",
                self.completed,
                self.degraded,
                self.shed,
                self.failed,
                self.admitted,
                self.availability * 100.0
            );
            let _ = writeln!(
                out,
                "  recovery: {} requeues, {} breaker opens, {} faults, {:.0} s lost; goodput {:.1}% on-time full-quality",
                self.requeues,
                self.breaker_opens,
                self.fault_events.len(),
                self.lost_seconds,
                self.goodput * 100.0
            );
            for e in &self.fault_events {
                let _ = writeln!(out, "    {e}");
            }
        }
        out
    }
}

/// One MSA job occupying a slot on a CPU worker's FIFO queue. Start
/// times are non-decreasing within one worker.
#[derive(Debug, Clone, Copy)]
struct MsaJob {
    request: usize,
    entity: usize,
    start_s: f64,
    done_s: f64,
    timer: TimerId,
}

/// One in-flight feature load (a scheduled `CacheFill`).
#[derive(Debug, Clone, Copy)]
struct Fill {
    timer: TimerId,
    entity: usize,
    /// Piggybacked on an in-flight MSA fill (its landing time tracks
    /// the producer) rather than a plain cache-hit load.
    coalesced: bool,
    load_s: f64,
}

/// Queued-not-started MSA jobs across the pool (the overload signal
/// the degradation rung triggers on).
fn queued_depth(worker_jobs: &[Vec<MsaJob>], now: f64) -> usize {
    worker_jobs
        .iter()
        .flat_map(|jobs| jobs.iter())
        .filter(|j| j.start_s > now)
        .count()
}

/// Re-time one job in place: cancel and reschedule its completion,
/// refresh the request's readiness, and retarget the in-flight map plus
/// any coalesced waiter fills that track this producer's landing time.
#[allow(clippy::too_many_arguments)]
fn retime_job(
    jobs: &mut [MsaJob],
    i: usize,
    w: usize,
    new_start: f64,
    new_done: f64,
    engine: &mut SimEngine,
    outcomes: &mut [RequestOutcome],
    in_flight: &mut BTreeMap<usize, f64>,
    fills: &mut BTreeMap<usize, Fill>,
) {
    let (request, entity) = (jobs[i].request, jobs[i].entity);
    engine.cancel(jobs[i].timer);
    {
        // Attribution: a retime moves queue wait by the start shift and
        // MSA service by the duration change (straggler/stall inflation).
        let seg = &mut outcomes[request].segments;
        seg.msa_queue_wait_s += new_start - jobs[i].start_s;
        seg.msa_service_s += (new_done - new_start) - (jobs[i].done_s - jobs[i].start_s);
    }
    jobs[i].start_s = new_start;
    jobs[i].done_s = new_done;
    jobs[i].timer = engine.schedule_tagged(
        new_done,
        Event::MsaDone { request, worker: w },
        WaitEdge::WorkerBusy,
    );
    outcomes[request].ready_s = new_done;
    if in_flight.contains_key(&entity) {
        in_flight.insert(entity, new_done);
    }
    for (&waiter, fill) in fills.iter_mut() {
        if fill.coalesced && fill.entity == entity {
            engine.cancel(fill.timer);
            let ready = new_done + fill.load_s;
            fill.timer = engine.schedule_tagged(
                ready,
                Event::CacheFill {
                    request: waiter,
                    entity,
                },
                WaitEdge::CacheFill,
            );
            outcomes[waiter].segments.cache_wait_s += ready - outcomes[waiter].ready_s;
            outcomes[waiter].ready_s = ready;
        }
    }
}

/// Push a worker's queued jobs back behind a predecessor that just grew
/// (straggler inflation or a storage stall). Durations are preserved;
/// the cascade stops at the first job the shift no longer reaches.
#[allow(clippy::too_many_arguments)]
fn reflow_tail(
    jobs: &mut [MsaJob],
    from: usize,
    w: usize,
    engine: &mut SimEngine,
    outcomes: &mut [RequestOutcome],
    in_flight: &mut BTreeMap<usize, f64>,
    fills: &mut BTreeMap<usize, Fill>,
) {
    for i in from.max(1)..jobs.len() {
        let prev_done = jobs[i - 1].done_s;
        if prev_done <= jobs[i].start_s {
            break;
        }
        let duration = jobs[i].done_s - jobs[i].start_s;
        retime_job(
            jobs,
            i,
            w,
            prev_done,
            prev_done + duration,
            engine,
            outcomes,
            in_flight,
            fills,
        );
    }
}

/// Run the chaos-enabled serving simulation.
///
/// Identical contract to [`crate::server::run_serve`], plus a
/// [`ChaosConfig`]. A fresh [`FaultInjector`] is built from the plan
/// *inside this call* (one injector per run — see
/// [`FaultPlan::injector`]), so a long-lived `ChaosConfig` can drive
/// any number of runs without double-firing.
///
/// [`FaultInjector`]: afsb_rt::fault::FaultInjector
pub fn run_serve_chaos(
    config: &ServeConfig,
    chaos: &ChaosConfig,
    costs: &CostTable,
    obs: &mut ObsSession,
) -> ChaosReport {
    assert!(config.cpu_workers > 0, "need at least one CPU worker");
    assert!(config.gpu_batch > 0, "need a GPU batch size of at least 1");

    let active = chaos.is_active();
    let policy = &chaos.policy;
    let mut injector = chaos.plan.injector();

    let requests = workload::generate(&config.workload);
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
    // Causal bookkeeping (observation-only, see `crate::server`):
    // wait/service splits per provenance edge, each request's completing
    // GpuDone, and the completion that terminates the makespan.
    let mut splits: BTreeMap<u64, SegmentSplit> = BTreeMap::new();
    let mut completions: Vec<Option<u64>> = vec![None; requests.len()];
    let mut best_done: Option<(f64, u64)> = None;
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(requests.len());
    let mut workers = vec![0.0f64; config.cpu_workers];
    let mut worker_jobs: Vec<Vec<MsaJob>> = vec![Vec::new(); config.cpu_workers];
    let mut in_flight: BTreeMap<usize, f64> = BTreeMap::new();
    let mut fills: BTreeMap<usize, Fill> = BTreeMap::new();
    let mut pool = ReadyPool::new();
    let mut deadline_timers: Vec<Option<TimerId>> = vec![None; requests.len()];
    let mut gpu_free = 0.0f64;
    let mut gpu_busy = 0.0f64;
    let mut batches = 0usize;
    let mut compiled: BTreeSet<SampleId> = BTreeSet::new();
    let mut inited = false;

    // Recovery-layer state (inert while the plan is empty).
    let mut disposition: Vec<Option<Disposition>> = vec![None; requests.len()];
    let mut degraded_req: Vec<bool> = vec![false; requests.len()];
    let mut attempts: Vec<u32> = vec![0; requests.len()];
    let mut durable: Vec<f64> = vec![0.0; requests.len()];
    let mut requeue_timers: Vec<Option<TimerId>> = vec![None; requests.len()];
    let mut orphans: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut parked: Vec<usize> = Vec::new();
    let mut pending_storage: Vec<FaultKind> = Vec::new();
    let mut pending_compile_factor: Option<f64> = None;
    let mut gpu_penalty_s = 0.0f64;
    let mut breaker = CircuitBreaker::new(policy.breaker_threshold);
    let mut breaker_open = false;
    let mut requeues = 0u64;
    let mut breaker_opens = 0u64;
    let mut degraded_attempts = 0u64;

    // Observation-only telemetry (see `crate::server`): gauge counters
    // and SLO observations never feed back into scheduling or floats.
    let mut timeline = if config.telemetry.timeline_interval_s > 0.0 {
        Some(TimelineSampler::new(
            config.telemetry.timeline_interval_s,
            &TIMELINE_COLUMNS,
        ))
    } else {
        None
    };
    let mut slo_obs: Vec<(f64, bool)> = Vec::new();
    // Per-request start of the current admission wait (set at a kill or
    // breaker park, consumed by the next requeue dispatch).
    let mut wait_since: Vec<f64> = vec![0.0; requests.len()];
    if let Some(tl) = timeline.as_mut() {
        tl.set_many(&[0.0, 0.0, 0.0, cache.len() as f64, 0.0, 0.0, 0.0]);
    }

    // Faults enter the shared queue before the first arrival so a fault
    // scheduled exactly at an arrival's timestamp is delivered first.
    if active {
        for f in chaos.plan.faults() {
            engine.schedule(f.not_before_s, Event::Fault(f.kind));
        }
    }
    if let Some(first) = requests.first() {
        engine.schedule(first.arrival_s, Event::Arrival { request: 0 });
    }

    while let Some((now, event)) = engine.pop() {
        if let Some(tl) = timeline.as_mut() {
            tl.advance_to(now);
        }
        match event {
            Event::Arrival { request } => {
                let req = &requests[request];
                let shape = costs.shape(req.sample);
                if !shape.admitted {
                    outcomes.push(RequestOutcome {
                        request: *req,
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
                    let coalesce = config.coalesce_misses
                        && !cache.contains(req.entity)
                        && in_flight.contains_key(&req.entity);
                    let (cache_hit, ready_s) = if coalesce {
                        cache.coalesced_hit();
                        let mut ready = in_flight[&req.entity] + shape.feature_load_s;
                        if active && !pending_storage.is_empty() {
                            let delay =
                                drain_pending_storage(&mut pending_storage, shape.feature_load_s);
                            ready += delay;
                            injector.charge(delay);
                        }
                        let timer = engine.schedule_tagged(
                            ready,
                            Event::CacheFill {
                                request,
                                entity: req.entity,
                            },
                            WaitEdge::CacheFill,
                        );
                        fills.insert(
                            request,
                            Fill {
                                timer,
                                entity: req.entity,
                                coalesced: true,
                                load_s: shape.feature_load_s,
                            },
                        );
                        segments.cache_wait_s = ready - req.arrival_s;
                        (true, ready)
                    } else if cache.lookup(req.entity) {
                        let mut ready = req.arrival_s + shape.feature_load_s;
                        if active && !pending_storage.is_empty() {
                            let delay =
                                drain_pending_storage(&mut pending_storage, shape.feature_load_s);
                            ready += delay;
                            injector.charge(delay);
                        }
                        let timer = engine.schedule_tagged(
                            ready,
                            Event::CacheFill {
                                request,
                                entity: req.entity,
                            },
                            WaitEdge::CacheFill,
                        );
                        fills.insert(
                            request,
                            Fill {
                                timer,
                                entity: req.entity,
                                coalesced: false,
                                load_s: shape.feature_load_s,
                            },
                        );
                        segments.cache_wait_s = ready - req.arrival_s;
                        (true, ready)
                    } else {
                        let mut msa_s = shape.msa_s;
                        if active
                            && policy.degrade_queue_depth > 0
                            && queued_depth(&worker_jobs, now) + parked.len()
                                >= policy.degrade_queue_depth
                        {
                            degraded_req[request] = true;
                            msa_s *= policy.degrade_msa_factor;
                            degraded_attempts += 1;
                            obs.tracer.instant_at(
                                now,
                                format!(
                                    "degrade:{}",
                                    DegradeStep::MsaDepthCap {
                                        depth: policy.degraded_msa_depth
                                    }
                                ),
                            );
                        }
                        let w = workers
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                            .map(|(i, _)| i)
                            .expect("worker pool is non-empty");
                        let start = workers[w].max(req.arrival_s);
                        let done = start + msa_s;
                        workers[w] = done;
                        in_flight.insert(req.entity, done);
                        let timer = engine.schedule_tagged(
                            done,
                            Event::MsaDone { request, worker: w },
                            WaitEdge::WorkerBusy,
                        );
                        if config.provenance {
                            splits.insert(
                                timer.seq(),
                                SegmentSplit {
                                    wait_s: start - req.arrival_s,
                                    service_s: done - start,
                                    compile_s: 0.0,
                                },
                            );
                        }
                        worker_jobs[w].push(MsaJob {
                            request,
                            entity: req.entity,
                            start_s: start,
                            done_s: done,
                            timer,
                        });
                        segments.msa_queue_wait_s = start - req.arrival_s;
                        segments.msa_service_s = done - start;
                        (false, done)
                    };
                    outcomes.push(RequestOutcome {
                        request: *req,
                        cache_hit,
                        rejected: false,
                        ready_s,
                        done_s: 0.0,
                        deadline_missed: false,
                        finished: false,
                        segments,
                    });
                    if let Some(limit) = config.deadline.limit_seconds() {
                        deadline_timers[request] = Some(engine.schedule_tagged(
                            req.arrival_s + limit,
                            Event::DeadlineExpired { request },
                            WaitEdge::Deadline,
                        ));
                    }
                }
                if request + 1 < requests.len() {
                    engine.schedule(
                        requests[request + 1].arrival_s,
                        Event::Arrival {
                            request: request + 1,
                        },
                    );
                }
            }

            Event::MsaDone { request, worker } => {
                let req = &requests[request];
                if let Some(i) = worker_jobs[worker]
                    .iter()
                    .position(|j| j.request == request)
                {
                    worker_jobs[worker].remove(i);
                }
                if outcomes.len() < requests.len() {
                    cache.insert(req.entity, costs.shape(req.sample).feature_bytes);
                }
                in_flight.remove(&req.entity);
                if active {
                    // Wake every waiter orphaned by an earlier kill of
                    // this entity's producer — exactly once.
                    if let Some(waiters) = orphans.remove(&req.entity) {
                        for waiter in waiters {
                            let load_s = costs.shape(requests[waiter].sample).feature_load_s;
                            let ready = now + load_s;
                            outcomes[waiter].segments.cache_wait_s +=
                                ready - outcomes[waiter].ready_s;
                            outcomes[waiter].ready_s = ready;
                            let timer = engine.schedule_tagged(
                                ready,
                                Event::CacheFill {
                                    request: waiter,
                                    entity: req.entity,
                                },
                                WaitEdge::CacheFill,
                            );
                            fills.insert(
                                waiter,
                                Fill {
                                    timer,
                                    entity: req.entity,
                                    coalesced: true,
                                    load_s,
                                },
                            );
                        }
                    }
                }
                pool.push(outcomes[request].ready_s, request);
                if now >= gpu_free {
                    engine.schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
                }
            }

            Event::CacheFill { request, .. } => {
                fills.remove(&request);
                pool.push(outcomes[request].ready_s, request);
                if now >= gpu_free {
                    engine.schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
                }
            }

            Event::BatchClose => {
                if pool.is_empty() || now < gpu_free {
                    continue;
                }
                let start = gpu_free.max(pool.earliest_ready().expect("pool is non-empty"));
                let batch = pool.take_batch(start, config.gpu_batch);

                let pay_init = !inited;
                let new_shapes: Vec<SampleId> = batch
                    .iter()
                    .map(|&idx| outcomes[idx].request.sample)
                    .filter(|&s| compiled.insert(s))
                    .collect();
                let compile_factor = if active && !new_shapes.is_empty() {
                    pending_compile_factor.take().unwrap_or(1.0)
                } else {
                    1.0
                };
                let reinit_s = if active {
                    std::mem::take(&mut gpu_penalty_s)
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
                        .map(|&idx| costs.shape(outcomes[idx].request.sample).compute_s)
                        .sum::<f64>();
                if reinit_s > 0.0 {
                    service += reinit_s;
                    injector.charge(reinit_s);
                }
                if compile_factor > 1.0 {
                    let base_compile: f64 =
                        new_shapes.iter().map(|&s| costs.shape(s).compile_s).sum();
                    injector.charge(base_compile * compile_factor - base_compile);
                }
                let done = start + service;

                let batch_span = obs.tracer.closed_span("gpu_batch", start, service);
                let mut at = start;
                if reinit_s > 0.0 {
                    obs.tracer
                        .child_span(batch_span, "gpu_reinit", at, reinit_s);
                    at += reinit_s;
                }
                if pay_init {
                    inited = true;
                    obs.tracer.child_span(batch_span, "init", at, costs.init_s);
                    at += costs.init_s;
                }
                obs.tracer
                    .child_span(batch_span, "dispatch", at, costs.dispatch_s);
                at += costs.dispatch_s;
                let compile_begin = at;
                for &s in &new_shapes {
                    let compile_s = costs.shape(s).compile_s * compile_factor;
                    obs.tracer
                        .child_span(batch_span, "xla_compile", at, compile_s);
                    at += compile_s;
                }
                let compile_end = at;
                for &idx in &batch {
                    let shape = costs.shape(outcomes[idx].request.sample);
                    obs.tracer
                        .child_span(batch_span, "gpu_compute", at, shape.compute_s);
                    at += shape.compute_s;
                }
                debug_assert!((at - done).abs() < 1e-9);
                for &idx in &batch {
                    outcomes[idx].done_s = done;
                    outcomes[idx].finished = true;
                    let o = &mut outcomes[idx];
                    o.segments.batch_wait_s += start - o.ready_s;
                    o.segments.xla_compile_s += compile_end - compile_begin;
                    o.segments.close(o.done_s - o.request.arrival_s);
                    outcomes[idx].deadline_missed =
                        config.deadline.exceeded(outcomes[idx].latency_s());
                    if !outcomes[idx].deadline_missed {
                        if let Some(timer) = deadline_timers[idx].take() {
                            engine.cancel(timer);
                        }
                    }
                    disposition[idx] = Some(if degraded_req[idx] {
                        Disposition::Degraded
                    } else {
                        Disposition::Completed
                    });
                    if config.telemetry.slo.is_some() {
                        slo_obs.push((done, !outcomes[idx].deadline_missed && !degraded_req[idx]));
                    }
                }
                gpu_busy += done - start;
                gpu_free = done;
                batches += 1;
                let timer = engine.schedule_tagged(
                    done,
                    Event::GpuDone { batch: batches },
                    WaitEdge::GpuBusy,
                );
                if config.provenance {
                    let compile_total = compile_end - compile_begin;
                    splits.insert(
                        timer.seq(),
                        SegmentSplit {
                            wait_s: start - now,
                            service_s: (done - start) - compile_total,
                            compile_s: compile_total,
                        },
                    );
                    for &idx in &batch {
                        completions[idx] = Some(timer.seq());
                    }
                    if best_done.is_none_or(|(t, _)| done >= t) {
                        best_done = Some((done, timer.seq()));
                    }
                }
            }

            Event::GpuDone { .. } => {
                if !pool.is_empty() {
                    engine.schedule_tagged(now, Event::BatchClose, WaitEdge::BatchClose);
                }
            }

            Event::DeadlineExpired { request } => {
                if active
                    && policy.shed_expired
                    && !outcomes[request].rejected
                    && disposition[request].is_none()
                {
                    let entity = requests[request].entity;
                    let depended = orphans.get(&entity).is_some_and(|v| !v.is_empty())
                        || fills.values().any(|f| f.coalesced && f.entity == entity);
                    let mut shed = false;
                    // Queued-not-started MSA job: drop it (the slot
                    // stays reserved — capacity is not compacted).
                    for w in 0..worker_jobs.len() {
                        if let Some(i) = worker_jobs[w].iter().position(|j| j.request == request) {
                            if worker_jobs[w][i].start_s > now && !depended {
                                let job = worker_jobs[w].remove(i);
                                engine.cancel(job.timer);
                                workers[w] = worker_jobs[w].last().map_or(now, |j| j.done_s);
                                in_flight.remove(&entity);
                                shed = true;
                            }
                            break;
                        }
                    }
                    if !shed && !depended {
                        if let Some(pos) = parked.iter().position(|&r| r == request) {
                            parked.remove(pos);
                            shed = true;
                        }
                    }
                    if !shed && !depended {
                        if let Some(timer) = requeue_timers[request].take() {
                            engine.cancel(timer);
                            shed = true;
                        }
                    }
                    if !shed {
                        if let Some(waiters) = orphans.get_mut(&entity) {
                            if let Some(pos) = waiters.iter().position(|&r| r == request) {
                                waiters.remove(pos);
                                if waiters.is_empty() {
                                    orphans.remove(&entity);
                                }
                                shed = true;
                            }
                        }
                    }
                    if shed {
                        disposition[request] = Some(Disposition::Shed);
                        obs.tracer.instant_at(now, "shed");
                        if config.telemetry.slo.is_some() {
                            slo_obs.push((now, false));
                        }
                    }
                }
                outcomes[request].deadline_missed = true;
            }

            Event::Fault(kind) => {
                injector.sync_to(now);
                let Some(fired) = injector.poll(kind.site()) else {
                    continue;
                };
                obs.tracer
                    .instant_at(now, format!("fault:{}", fired.label()));
                match fired {
                    FaultKind::OomKill { at_fraction } | FaultKind::WorkerCrash { at_fraction } => {
                        let busy: Vec<usize> = (0..worker_jobs.len())
                            .filter(|&w| worker_jobs[w].iter().any(|j| j.done_s > now))
                            .collect();
                        if busy.is_empty() {
                            continue;
                        }
                        let frac = at_fraction.clamp(0.0, 1.0);
                        let w = busy[((frac * busy.len() as f64) as usize).min(busy.len() - 1)];
                        let i = worker_jobs[w]
                            .iter()
                            .position(|j| j.done_s > now)
                            .expect("busy worker has an unfinished job");
                        let job = worker_jobs[w].remove(i);
                        engine.cancel(job.timer);
                        let r = job.request;
                        let entity = job.entity;
                        {
                            // Attribution: drop the killed attempt's
                            // un-run tail; a never-started job instead
                            // converts its queue wait to the actual wait
                            // accrued up to the kill.
                            let seg = &mut outcomes[r].segments;
                            if job.start_s > now {
                                seg.msa_queue_wait_s += now - job.start_s;
                                seg.msa_service_s -= job.done_s - job.start_s;
                            } else {
                                seg.msa_service_s -= job.done_s - now;
                            }
                        }
                        wait_since[r] = now;
                        // Waiters piggybacked on this producer become
                        // orphans, woken exactly once by the entity's
                        // next MSA completion.
                        let mut moved = Vec::new();
                        fills.retain(|&waiter, f| {
                            if f.coalesced && f.entity == entity {
                                engine.cancel(f.timer);
                                moved.push(waiter);
                                false
                            } else {
                                true
                            }
                        });
                        if !moved.is_empty() {
                            orphans.entry(entity).or_default().extend(moved);
                        }
                        in_flight.remove(&entity);
                        workers[w] = worker_jobs[w].last().map_or(now, |j| j.done_s);
                        // Checkpoint salvage: durable progress floors to
                        // the checkpoint grid, the rest is redone.
                        let span = job.done_s - job.start_s;
                        let progress = if job.start_s >= now || span <= 0.0 {
                            0.0
                        } else {
                            ((now - job.start_s) / span).clamp(0.0, 1.0)
                        };
                        let before = durable[r];
                        let overall = before + progress * (1.0 - before);
                        let units = policy.checkpoint_units.max(1) as f64;
                        durable[r] = (overall * units).floor() / units;
                        let spent = (now - job.start_s).max(0.0);
                        let salvaged =
                            (durable[r] - before) * costs.shape(requests[r].sample).msa_s;
                        injector.charge((spent - salvaged).max(0.0));
                        attempts[r] += 1;
                        if attempts[r] >= policy.max_attempts.max(1) {
                            disposition[r] = Some(Disposition::Failed);
                            obs.tracer.instant_at(now, "failed");
                            if config.telemetry.slo.is_some() {
                                slo_obs.push((now, false));
                            }
                            if let Some(timer) = deadline_timers[r].take() {
                                engine.cancel(timer);
                            }
                            // Shared fate: waiters on a terminally
                            // failed producer fail with it.
                            if let Some(waiters) = orphans.remove(&entity) {
                                for waiter in waiters {
                                    disposition[waiter] = Some(Disposition::Failed);
                                    obs.tracer.instant_at(now, "failed");
                                    if config.telemetry.slo.is_some() {
                                        slo_obs.push((now, false));
                                    }
                                    if let Some(timer) = deadline_timers[waiter].take() {
                                        engine.cancel(timer);
                                    }
                                }
                            }
                        } else {
                            let backoff = policy.retry.backoff_seconds(
                                attempts[r],
                                mix(config.workload.seed, BACKOFF_SALT ^ r as u64),
                            );
                            requeue_timers[r] = Some(engine.schedule_tagged(
                                now + backoff,
                                Event::Requeue { request: r },
                                WaitEdge::Admission,
                            ));
                            if breaker.record_failure() && !breaker_open {
                                breaker_open = true;
                                breaker_opens += 1;
                                obs.tracer.instant_at(now, "circuit-open");
                                engine.schedule_tagged(
                                    now + policy.breaker_cooldown_s,
                                    Event::BreakerClose,
                                    WaitEdge::Admission,
                                );
                            }
                        }
                    }
                    FaultKind::Straggler { factor } => {
                        for w in 0..worker_jobs.len() {
                            if let Some(i) = worker_jobs[w]
                                .iter()
                                .position(|j| j.start_s <= now && j.done_s > now)
                            {
                                let old_done = worker_jobs[w][i].done_s;
                                let new_done = now + (old_done - now) * factor.max(1.0);
                                let start = worker_jobs[w][i].start_s;
                                retime_job(
                                    &mut worker_jobs[w],
                                    i,
                                    w,
                                    start,
                                    new_done,
                                    &mut engine,
                                    &mut outcomes,
                                    &mut in_flight,
                                    &mut fills,
                                );
                                reflow_tail(
                                    &mut worker_jobs[w],
                                    i + 1,
                                    w,
                                    &mut engine,
                                    &mut outcomes,
                                    &mut in_flight,
                                    &mut fills,
                                );
                                workers[w] = worker_jobs[w].last().map_or(now, |j| j.done_s);
                                injector.charge(new_done - old_done);
                                break;
                            }
                        }
                    }
                    FaultKind::StorageReadError => {
                        if fills.is_empty() {
                            pending_storage.push(fired);
                        } else {
                            let mut lost = 0.0;
                            let waiters: Vec<usize> = fills.keys().copied().collect();
                            for waiter in waiters {
                                let fill = fills[&waiter];
                                engine.cancel(fill.timer);
                                let ready = outcomes[waiter].ready_s + fill.load_s;
                                outcomes[waiter].segments.cache_wait_s += fill.load_s;
                                outcomes[waiter].ready_s = ready;
                                let timer = engine.schedule_tagged(
                                    ready,
                                    Event::CacheFill {
                                        request: waiter,
                                        entity: fill.entity,
                                    },
                                    WaitEdge::CacheFill,
                                );
                                fills.get_mut(&waiter).expect("fill present").timer = timer;
                                lost += fill.load_s;
                            }
                            injector.charge(lost);
                        }
                    }
                    FaultKind::StorageStall { stall_seconds } => {
                        let mut lost = 0.0;
                        let waiters: Vec<usize> = fills.keys().copied().collect();
                        for waiter in &waiters {
                            let fill = fills[waiter];
                            engine.cancel(fill.timer);
                            let ready = outcomes[*waiter].ready_s + stall_seconds;
                            outcomes[*waiter].segments.cache_wait_s += stall_seconds;
                            outcomes[*waiter].ready_s = ready;
                            let timer = engine.schedule_tagged(
                                ready,
                                Event::CacheFill {
                                    request: *waiter,
                                    entity: fill.entity,
                                },
                                WaitEdge::CacheFill,
                            );
                            fills.get_mut(waiter).expect("fill present").timer = timer;
                            lost += stall_seconds;
                        }
                        // A device stall also reaches the database scans
                        // of every running MSA job.
                        for w in 0..worker_jobs.len() {
                            if let Some(i) = worker_jobs[w]
                                .iter()
                                .position(|j| j.start_s <= now && j.done_s > now)
                            {
                                let start = worker_jobs[w][i].start_s;
                                let done = worker_jobs[w][i].done_s;
                                retime_job(
                                    &mut worker_jobs[w],
                                    i,
                                    w,
                                    start,
                                    done + stall_seconds,
                                    &mut engine,
                                    &mut outcomes,
                                    &mut in_flight,
                                    &mut fills,
                                );
                                reflow_tail(
                                    &mut worker_jobs[w],
                                    i + 1,
                                    w,
                                    &mut engine,
                                    &mut outcomes,
                                    &mut in_flight,
                                    &mut fills,
                                );
                                workers[w] = worker_jobs[w].last().map_or(now, |j| j.done_s);
                                lost += stall_seconds;
                            }
                        }
                        if lost > 0.0 {
                            injector.charge(lost);
                        } else {
                            pending_storage.push(fired);
                        }
                    }
                    FaultKind::GpuInitFailure => {
                        // The process-level re-init drops the in-process
                        // XLA cache: shapes recompile, and the next batch
                        // waits out a priced re-init on top of the cold
                        // init it now pays again.
                        gpu_penalty_s += costs.init_s;
                        inited = false;
                        compiled.clear();
                    }
                    FaultKind::XlaCompileStall { factor } => {
                        let f = pending_compile_factor.unwrap_or(1.0) * factor.max(1.0);
                        pending_compile_factor = Some(f);
                    }
                }
            }

            Event::Requeue { request } => {
                requeue_timers[request] = None;
                if disposition[request].is_some() {
                    continue;
                }
                requeues += 1;
                obs.tracer.instant_at(now, "requeue");
                outcomes[request].segments.admission_wait_s += now - wait_since[request];
                if breaker_open {
                    wait_since[request] = now;
                    parked.push(request);
                    continue;
                }
                let req = &requests[request];
                let shape = costs.shape(req.sample);
                let mut msa_s = (1.0 - durable[request]).max(0.0) * shape.msa_s;
                if policy.degrade_queue_depth > 0
                    && !degraded_req[request]
                    && queued_depth(&worker_jobs, now) + parked.len() >= policy.degrade_queue_depth
                {
                    degraded_req[request] = true;
                    degraded_attempts += 1;
                    obs.tracer.instant_at(
                        now,
                        format!(
                            "degrade:{}",
                            DegradeStep::MsaDepthCap {
                                depth: policy.degraded_msa_depth
                            }
                        ),
                    );
                }
                if degraded_req[request] {
                    msa_s *= policy.degrade_msa_factor;
                }
                let w = workers
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
                    .map(|(i, _)| i)
                    .expect("worker pool is non-empty");
                let start = workers[w].max(now);
                let done = start + msa_s;
                workers[w] = done;
                in_flight.insert(req.entity, done);
                let timer = engine.schedule_tagged(
                    done,
                    Event::MsaDone { request, worker: w },
                    WaitEdge::WorkerBusy,
                );
                if config.provenance {
                    splits.insert(
                        timer.seq(),
                        SegmentSplit {
                            wait_s: start - now,
                            service_s: done - start,
                            compile_s: 0.0,
                        },
                    );
                }
                worker_jobs[w].push(MsaJob {
                    request,
                    entity: req.entity,
                    start_s: start,
                    done_s: done,
                    timer,
                });
                outcomes[request].segments.msa_queue_wait_s += start - now;
                outcomes[request].segments.msa_service_s += done - start;
                outcomes[request].ready_s = done;
            }

            Event::BreakerClose => {
                breaker.record_success();
                breaker_open = false;
                obs.tracer.instant_at(now, "circuit-closed");
                for r in parked.drain(..) {
                    requeue_timers[r] = Some(engine.schedule_tagged(
                        now,
                        Event::Requeue { request: r },
                        WaitEdge::Admission,
                    ));
                }
            }
        }
        if let Some(tl) = timeline.as_mut() {
            tl.set_many(&[
                (worker_jobs.iter().map(|jobs| jobs.len()).sum::<usize>() + parked.len()) as f64,
                workers.iter().filter(|&&t| t > now).count() as f64,
                if gpu_free > now { 1.0 } else { 0.0 },
                cache.len() as f64,
                cache.hit_rate(),
                fills.len() as f64,
                if breaker_open { 1.0 } else { 0.0 },
            ]);
        }
    }

    // Every admitted request must have terminated in a disposition.
    for (i, o) in outcomes.iter().enumerate() {
        if !o.rejected && disposition[i].is_none() {
            debug_assert!(false, "request {i} escaped without a disposition");
            disposition[i] = Some(Disposition::Failed);
        }
    }

    // Fold into the report + metrics. The base report covers *finished*
    // requests — under an empty plan that is every admitted request, so
    // the fold (and its bits) coincide with the fault-free engine's.
    let finished = |i: usize| {
        matches!(
            disposition[i],
            Some(Disposition::Completed) | Some(Disposition::Degraded)
        )
    };
    let last_arrival = requests.last().map_or(0.0, |r| r.arrival_s);
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
        gpu_busy / makespan_s
    } else {
        0.0
    };

    let mut latency_hist = Histogram::new(&LATENCY_BOUNDS);
    for (i, o) in outcomes.iter().enumerate() {
        if finished(i) {
            latency_hist.observe(o.latency_s());
            obs.metrics
                .observe("serve.latency_s", o.latency_s(), &LATENCY_BOUNDS);
        }
    }

    obs.tracer.advance(makespan_s);
    obs.tracer.end();

    if let Some(tl) = timeline.as_mut() {
        tl.finish(makespan_s);
    }
    let slo = config.telemetry.slo.map(|slo_config| {
        let mut monitor = SloMonitor::new(slo_config);
        for &(t, good) in &slo_obs {
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

    let completed = disposition
        .iter()
        .filter(|d| **d == Some(Disposition::Completed))
        .count();
    let degraded = disposition
        .iter()
        .filter(|d| **d == Some(Disposition::Degraded))
        .count();
    let shed = disposition
        .iter()
        .filter(|d| **d == Some(Disposition::Shed))
        .count();
    let failed = disposition
        .iter()
        .filter(|d| **d == Some(Disposition::Failed))
        .count();
    let admitted = outcomes.len() - rejected;
    let availability = if admitted > 0 {
        (completed + degraded) as f64 / admitted as f64
    } else {
        1.0
    };
    let on_time = (0..outcomes.len())
        .filter(|&i| disposition[i] == Some(Disposition::Completed) && !outcomes[i].deadline_missed)
        .count();
    let goodput = if admitted > 0 {
        on_time as f64 / admitted as f64
    } else {
        1.0
    };
    // An empty-iterator f64 sum is -0.0 on current rustc; pin the
    // zero's sign so the fault-free row renders `0`, not `-0`.
    let lost_seconds = injector.total_lost_seconds();
    let lost_seconds = if lost_seconds == 0.0 {
        0.0
    } else {
        lost_seconds
    };

    let m = &mut obs.metrics;
    m.inc("serve.requests", requests.len() as u64);
    m.inc("serve.served", served as u64);
    m.inc("serve.rejected", rejected as u64);
    m.inc("serve.deadline_missed", deadline_missed as u64);
    m.inc("serve.cache.hits", cache.hits());
    m.inc("serve.cache.misses", cache.misses());
    m.inc("serve.cache.evictions", cache.evictions());
    if config.coalesce_misses {
        m.inc("serve.cache.coalesced", cache.coalesced());
    }
    m.inc("serve.gpu.batches", batches as u64);
    m.inc("serve.gpu.compiled_shapes", compiled.len() as u64);
    m.set_gauge("serve.throughput_qph", throughput_qph);
    m.set_gauge("serve.makespan_s", makespan_s);
    m.set_gauge("serve.gpu.occupancy", gpu_occupancy);
    m.set_gauge("serve.cache.hit_rate", cache.hit_rate());
    if active {
        m.inc("serve.chaos.completed", completed as u64);
        m.inc("serve.chaos.degraded", degraded as u64);
        m.inc("serve.chaos.shed", shed as u64);
        m.inc("serve.chaos.failed", failed as u64);
        m.inc("serve.chaos.degraded_attempts", degraded_attempts);
        m.inc("serve.chaos.requeues", requeues);
        m.inc("serve.chaos.breaker_opens", breaker_opens);
        m.inc("serve.chaos.faults", injector.events().len() as u64);
        m.set_gauge("serve.chaos.availability", availability);
        m.set_gauge("serve.chaos.goodput", goodput);
        m.set_gauge("serve.chaos.lost_s", lost_seconds);
    }

    let causal = if config.provenance {
        Some(CausalLog {
            edges: engine.provenance().to_vec(),
            makespan_event: best_done.map(|(_, seq)| seq),
            completions,
            splits,
        })
    } else {
        None
    };
    let base = ServeReport {
        config: *config,
        served,
        rejected,
        deadline_missed,
        makespan_s,
        throughput_qph,
        gpu_busy_s: gpu_busy,
        gpu_occupancy,
        batches,
        compiled_shapes: compiled.len(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_evictions: cache.evictions(),
        cache_hit_rate: cache.hit_rate(),
        cache_coalesced: cache.coalesced(),
        latency: latency_hist.summary(),
        timeline,
        slo,
        causal,
        outcomes,
    };
    ChaosReport {
        base,
        chaos_active: active,
        dispositions: disposition,
        admitted,
        completed,
        degraded,
        shed,
        failed,
        degraded_attempts,
        requeues,
        breaker_opens,
        fault_events: injector.events().to_vec(),
        lost_seconds,
        availability,
        goodput,
    }
}

/// Apply (and clear) storage faults that fired with nothing in flight
/// to the fill being scheduled now; returns the added delay. Shared
/// with the policy loop in [`crate::policy`].
pub(crate) fn drain_pending_storage(pending: &mut Vec<FaultKind>, load_s: f64) -> f64 {
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

/// A named chaos serving scenario.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Short stable name (used in reports and summaries).
    pub name: &'static str,
    /// The serving configuration (shared across the matrix — the
    /// canonical `cold` config, so `baseline` is byte-identical to it).
    pub config: ServeConfig,
    /// The fault plan + recovery policy.
    pub chaos: ChaosConfig,
}

/// One executed chaos scenario with its observability session.
pub struct ChaosScenarioRun {
    /// The scenario name.
    pub name: &'static str,
    /// The chaos serving report.
    pub report: ChaosReport,
    /// Trace + metrics captured during the run.
    pub obs: ObsSession,
}

/// The canonical `serve-chaos` matrix: the `cold` serving config under
/// an empty plan (`baseline`), three single-dimension fault campaigns,
/// and their union (`kitchen-sink`, which also arms the overload
/// degradation rung). Fault times sit inside the arrival window so
/// every campaign hits live work.
pub fn chaos_scenarios(quick: bool) -> Vec<ChaosScenario> {
    let config = crate::scenario::default_scenarios(quick)
        .into_iter()
        .find(|s| s.name == "cold")
        .expect("cold scenario exists")
        .config;
    let policy = RecoveryPolicy::standard();

    let worker_churn = FaultPlan::none()
        .with_at(FaultKind::WorkerCrash { at_fraction: 0.3 }, 600.0)
        .with_at(FaultKind::Straggler { factor: 2.5 }, 1800.0)
        .with_at(FaultKind::OomKill { at_fraction: 0.6 }, 3600.0)
        .with_at(FaultKind::WorkerCrash { at_fraction: 0.8 }, 7200.0)
        .with_at(FaultKind::Straggler { factor: 1.8 }, 12000.0);
    let storage_brownout = FaultPlan::none()
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 1800.0,
            },
            900.0,
        )
        .with_at(FaultKind::StorageReadError, 2400.0)
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 3600.0,
            },
            4800.0,
        )
        .with_at(FaultKind::StorageReadError, 8000.0)
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 2400.0,
            },
            12000.0,
        );
    // GPU faults only matter near the deadline boundary: arrivals stop
    // by ~1.1 h, so an early flap adds minutes of latency against a
    // 24 h deadline and flips nothing. Pairing an init failure (drops
    // the in-process XLA cache) with a large compile stall right where
    // the MSA queue crosses the deadline turns each recompile into
    // hours of GPU backlog, pushing near-boundary completions late.
    let gpu_flap = FaultPlan::none()
        .with_at(FaultKind::GpuInitFailure, 60_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 60_060.0)
        .with_at(FaultKind::GpuInitFailure, 68_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 68_060.0)
        .with_at(FaultKind::GpuInitFailure, 76_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 76_060.0)
        .with_at(FaultKind::GpuInitFailure, 84_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 84_060.0)
        .with_at(FaultKind::GpuInitFailure, 92_000.0)
        .with_at(FaultKind::XlaCompileStall { factor: 60.0 }, 92_060.0);
    // Everything at once, plus two late brownout pulses of its own:
    // the union alone ties storage-brownout (the early stalls dominate
    // and the GPU flap lands where its completions are already late),
    // so the compound scenario keeps degrading storage right where the
    // survivors' MSA jobs cross the deadline boundary.
    let mut kitchen_sink = FaultPlan::none();
    for plan in [&worker_churn, &storage_brownout, &gpu_flap] {
        for f in plan.faults() {
            kitchen_sink = kitchen_sink.with_at(f.kind, f.not_before_s);
        }
    }
    kitchen_sink = kitchen_sink
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 5400.0,
            },
            45_000.0,
        )
        .with_at(
            FaultKind::StorageStall {
                stall_seconds: 5400.0,
            },
            70_000.0,
        );

    vec![
        ChaosScenario {
            name: "baseline",
            config,
            chaos: ChaosConfig::none(),
        },
        ChaosScenario {
            name: "worker-churn",
            config,
            chaos: ChaosConfig {
                plan: worker_churn,
                policy,
            },
        },
        ChaosScenario {
            name: "storage-brownout",
            config,
            chaos: ChaosConfig {
                plan: storage_brownout,
                policy,
            },
        },
        ChaosScenario {
            name: "gpu-flap",
            config,
            chaos: ChaosConfig {
                plan: gpu_flap,
                policy,
            },
        },
        ChaosScenario {
            name: "kitchen-sink",
            config,
            chaos: ChaosConfig {
                plan: kitchen_sink,
                policy: RecoveryPolicy {
                    degrade_queue_depth: 64,
                    ..policy
                },
            },
        },
    ]
}

/// Price the cost table once and run the whole `serve-chaos` matrix.
/// Each run builds its own injector, so the shared plans never
/// double-fire across scenarios.
pub fn run_chaos(quick: bool) -> Vec<ChaosScenarioRun> {
    run_chaos_set(chaos_scenarios(quick), quick)
}

/// [`run_chaos`] with serving telemetry (timeline sampler + SLO
/// monitor) and causal provenance armed on every scenario — the
/// `profile serve-chaos` entry point. Both are observation-only, so
/// every disposition and float matches [`run_chaos`] bit for bit.
pub fn run_chaos_telemetry(quick: bool) -> Vec<ChaosScenarioRun> {
    let telemetry = crate::server::TelemetryConfig::standard(quick);
    let scenarios = chaos_scenarios(quick)
        .into_iter()
        .map(|mut s| {
            s.config.telemetry = telemetry;
            s.config.provenance = true;
            s
        })
        .collect();
    run_chaos_set(scenarios, quick)
}

fn run_chaos_set(scenarios: Vec<ChaosScenario>, quick: bool) -> Vec<ChaosScenarioRun> {
    let costs = CostTable::build(Platform::Server, quick, 4, SERVE_SEED);
    scenarios
        .into_iter()
        .map(|scenario| {
            let mut obs = ObsSession::new();
            let report = run_serve_chaos(&scenario.config, &scenario.chaos, &costs, &mut obs);
            ChaosScenarioRun {
                name: scenario.name,
                report,
                obs,
            }
        })
        .collect()
}

/// Cross-scenario comparison table plus the per-scenario blocks.
pub fn render_chaos_summary(runs: &[ChaosScenarioRun]) -> String {
    let headers = [
        "scenario", "avail", "goodput", "compl", "degr", "degr att", "shed", "failed", "requeue",
        "faults", "lost s",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let r = &run.report;
            vec![
                run.name.to_string(),
                format!("{:.1}%", r.availability * 100.0),
                format!("{:.1}%", r.goodput * 100.0),
                format!("{}", r.completed),
                format!("{}", r.degraded),
                format!("{}", r.degraded_attempts),
                format!("{}", r.shed),
                format!("{}", r.failed),
                format!("{}", r.requeues),
                format!("{}", r.fault_events.len()),
                format!("{:.0}", r.lost_seconds),
            ]
        })
        .collect();
    let mut out = ascii_table(&headers, &rows);
    out.push('\n');
    for run in runs {
        out.push('\n');
        out.push_str(&format!("[{}]\n", run.name));
        out.push_str(&run.report.render());
    }
    out
}
