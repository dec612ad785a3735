//! Fault-tolerant serving on the eager loop.
//!
//! This is one of the crate's two event loops, both over the shared
//! serving core. Its MSA side is *eager*: every miss is assigned at
//! arrival to the least-loaded worker's FIFO queue, so each queued job
//! already has its start and completion times — which is what lets a
//! concurrent miss coalesce onto an in-flight fill.
//! [`crate::server::run_serve`] is this loop under an empty plan; this
//! module answers "how does serving degrade when everything breaks"
//! with:
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
//! With an *empty* plan the loop takes no recovery branch and makes no
//! extra engine or tracer calls; `tests/equivalence.rs` pins that run
//! byte-identical to the frozen seed scheduler in [`crate::reference`].
//!
//! A killed or shed job's **slot stays reserved**: later jobs on that
//! worker keep their start times, because eager dispatch already priced
//! them onto it (the lazy [`crate::policy`] loop has no such queue, so
//! there a kill frees the worker). Pended side effects (a storage fault
//! with nothing in flight, a compile stall awaiting the next new shape)
//! are charged to the most recently fired fault when they finally
//! apply.
//!
//! [`CircuitBreaker`]: afsb_core::resilience::CircuitBreaker
//! [`FaultInjector`]: afsb_rt::fault::FaultInjector
//! [`DegradeStep::MsaDepthCap`]: afsb_core::resilience::DegradeStep::MsaDepthCap

use crate::core::{drive, MsaSide, ServeCore};
use crate::scenario::{cold_config, Scenario, ScenarioRun};
use crate::server::{CostTable, ServeConfig, ServeReport};
use afsb_core::report::ascii_table;
use afsb_core::resilience::RetryPolicy;
use afsb_rt::fault::{FaultEvent, FaultKind, FaultPlan};
use afsb_rt::obs::ObsSession;
use afsb_rt::sim::{Event, TimerId, WaitEdge};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;

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
    /// [`afsb_core::resilience::DegradeStep::MsaDepthCap`] parameter).
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

    /// Whether any chaos machinery is armed. Every recovery branch is
    /// gated on this, which is what makes the empty-plan run the
    /// fault-free [`crate::server::run_serve`].
    pub fn is_active(&self) -> bool {
        !self.plan.is_empty()
    }
}

/// Everything one chaos serving run produced: the fault-free report
/// shape plus the disposition and recovery accounting.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The base serving report (folded over *finished* requests, which
    /// under an empty plan is every admitted request — the report
    /// [`crate::server::run_serve`] returns).
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

/// The eager MSA side: every miss is assigned at arrival to the
/// least-loaded worker's FIFO queue, so a coalescing miss knows when
/// its producer lands.
struct ChaosLoop<'a> {
    core: ServeCore<'a>,
    worker_jobs: Vec<VecDeque<MsaJob>>,
    /// Entity → completion time of its in-flight MSA fill.
    in_flight: Vec<Option<f64>>,
    /// Coalesced waiters whose producer was killed, by entity; woken
    /// exactly once by the entity's next MSA completion.
    orphans: BTreeMap<usize, Vec<usize>>,
}

/// Run the chaos-enabled serving simulation.
///
/// Identical contract to [`crate::server::run_serve`], plus a
/// [`ChaosConfig`]. A fresh [`FaultInjector`] is built from the plan
/// *inside this call* (one injector per run — see
/// [`FaultPlan::injector`]), so a long-lived `ChaosConfig` can drive
/// any number of runs without double-firing.
///
/// # Panics
///
/// Panics with the [`ServeConfig::validate`] error.
///
/// [`FaultInjector`]: afsb_rt::fault::FaultInjector
pub fn run_serve_chaos(
    config: &ServeConfig,
    chaos: &ChaosConfig,
    costs: &CostTable,
    obs: &mut ObsSession,
) -> ChaosReport {
    let core = ServeCore::new(config, chaos, costs, obs);
    let mut lp = ChaosLoop {
        worker_jobs: vec![VecDeque::new(); config.cpu_workers],
        in_flight: vec![None; config.workload.catalog_size],
        orphans: BTreeMap::new(),
        core,
    };
    drive(&mut lp);
    lp.core.fold()
}

impl ChaosLoop<'_> {
    /// The least-loaded worker (earliest free, lowest index on ties).
    fn least_loaded(&self) -> usize {
        let workers = &self.core.workers;
        (0..workers.len())
            .min_by(|&a, &b| workers[a].total_cmp(&workers[b]).then(a.cmp(&b)))
            .expect("worker pool is non-empty")
    }

    /// The overload signal the degradation rung triggers on:
    /// queued-not-started MSA jobs across the pool plus parked requests.
    fn pressure(&self, now: f64) -> usize {
        if !self.core.degrade_armed() {
            return 0;
        }
        let queued = self
            .worker_jobs
            .iter()
            .flatten()
            .filter(|j| j.start_s > now)
            .count();
        queued + self.core.parked.len()
    }

    /// Start request `r`'s MSA attempt on the least-loaded worker.
    fn assign(&mut self, r: usize, queued_s: f64, now: f64) {
        let msa_s = self.core.attempt_msa_s(r, self.pressure(now), now);
        let w = self.least_loaded();
        let (timer, start_s, done_s) = self.core.start_msa(r, w, queued_s, msa_s, now);
        let entity = self.core.requests[r].entity;
        self.in_flight[entity] = Some(done_s);
        self.worker_jobs[w].push_back(MsaJob {
            request: r,
            entity,
            start_s,
            done_s,
            timer,
        });
    }

    /// Worker `w`'s queue end after its jobs changed: the reserved slot
    /// of a removed job stays until the queue drains.
    fn refresh_worker(&mut self, w: usize, now: f64) {
        self.core.workers[w] = self.worker_jobs[w].back().map_or(now, |j| j.done_s);
    }

    /// Re-time job `i` of worker `w` in place: cancel and reschedule its
    /// completion, refresh the request's readiness, and retarget the
    /// in-flight map plus any coalesced waiter fills that track this
    /// producer's landing time.
    fn retime_job(&mut self, w: usize, i: usize, new_start: f64, new_done: f64) {
        let core = &mut self.core;
        let job = &mut self.worker_jobs[w][i];
        core.engine.cancel(job.timer);
        // Attribution: a retime moves queue wait by the start shift and
        // MSA service by the duration change (straggler/stall inflation).
        let seg = &mut core.outcomes[job.request].segments;
        seg.msa_queue_wait_s += new_start - job.start_s;
        seg.msa_service_s += (new_done - new_start) - (job.done_s - job.start_s);
        job.start_s = new_start;
        job.done_s = new_done;
        job.timer = core.engine.schedule_tagged(
            new_done,
            Event::MsaDone {
                request: job.request,
                worker: w,
            },
            WaitEdge::WorkerBusy,
        );
        core.outcomes[job.request].ready_s = new_done;
        if let Some(t) = self.in_flight[job.entity].as_mut() {
            *t = new_done;
        }
        for waiter in core.coalesced_waiters(job.entity) {
            core.track_producer(waiter, new_done);
        }
    }

    /// Stretch worker `w`'s job `i` to end at `new_done`, push the jobs
    /// queued behind it back (durations preserved; the cascade stops at
    /// the first job the shift no longer reaches), and return the added
    /// seconds.
    fn stretch(&mut self, w: usize, i: usize, new_done: f64, now: f64) -> f64 {
        let job = self.worker_jobs[w][i];
        self.retime_job(w, i, job.start_s, new_done);
        for k in i + 1..self.worker_jobs[w].len() {
            let prev_done = self.worker_jobs[w][k - 1].done_s;
            let next = self.worker_jobs[w][k];
            if prev_done <= next.start_s {
                break;
            }
            self.retime_job(w, k, prev_done, prev_done + (next.done_s - next.start_s));
        }
        self.refresh_worker(w, now);
        new_done - job.done_s
    }

    /// The job running on worker `w` at `now`, if any.
    fn running_job(&self, w: usize, now: f64) -> Option<usize> {
        self.worker_jobs[w]
            .iter()
            .position(|j| j.start_s <= now && j.done_s > now)
    }
}

impl<'a> MsaSide<'a> for ChaosLoop<'a> {
    fn core(&mut self) -> &mut ServeCore<'a> {
        &mut self.core
    }

    fn on_admitted(&mut self, request: usize, now: f64) {
        let req = self.core.requests[request];
        if self.core.config.coalesce_misses && !self.core.cache.contains(req.entity) {
            if let Some(producer_done) = self.in_flight[req.entity] {
                // Piggyback on the in-flight fill instead of duplicating
                // the MSA search: ready when the fill lands plus one
                // storage-priced load.
                self.core.cache.coalesced_hit();
                self.core.push_fill(request, producer_done, true);
                return;
            }
        }
        if self.core.cache.lookup(req.entity) {
            self.core.push_fill(request, req.arrival_s, false);
            return;
        }
        self.core.push_miss(request);
        self.assign(request, req.arrival_s, now);
    }

    fn on_msa_done(&mut self, request: usize, worker: usize, now: f64) {
        let jobs = &mut self.worker_jobs[worker];
        if let Some(i) = jobs.iter().position(|j| j.request == request) {
            jobs.remove(i);
        }
        let entity = self.core.requests[request].entity;
        self.core.insert_features(request);
        self.in_flight[entity] = None;
        // Wake every waiter orphaned by an earlier kill of this entity's
        // producer — exactly once.
        for waiter in self.orphans.remove(&entity).unwrap_or_default() {
            let core = &mut self.core;
            let ready = now + core.load_s(waiter);
            let o = &mut core.outcomes[waiter];
            o.segments.cache_wait_s += ready - o.ready_s;
            o.ready_s = ready;
            core.schedule_fill(waiter, ready, true);
        }
        self.core.make_ready(request, now);
    }

    fn shed(&mut self, request: usize, now: f64) -> bool {
        let entity = self.core.requests[request].entity;
        let depended = self.orphans.get(&entity).is_some_and(|v| !v.is_empty())
            || !self.core.coalesced_waiters(entity).is_empty();
        let mut shed = false;
        // Queued-not-started MSA job: drop it (the slot stays reserved —
        // capacity is not compacted).
        for w in 0..self.worker_jobs.len() {
            if let Some(i) = self.worker_jobs[w]
                .iter()
                .position(|j| j.request == request)
            {
                if self.worker_jobs[w][i].start_s > now && !depended {
                    let job = self.worker_jobs[w].remove(i).expect("job is queued");
                    self.core.engine.cancel(job.timer);
                    self.refresh_worker(w, now);
                    self.in_flight[entity] = None;
                    shed = true;
                }
                break;
            }
        }
        if !shed && !depended {
            shed = self.core.unpark(request);
        }
        if !shed {
            if let Some(waiters) = self.orphans.get_mut(&entity) {
                if let Some(pos) = waiters.iter().position(|&r| r == request) {
                    waiters.remove(pos);
                    if waiters.is_empty() {
                        self.orphans.remove(&entity);
                    }
                    shed = true;
                }
            }
        }
        shed
    }

    fn on_kill(&mut self, at_fraction: f64, now: f64) {
        let busy: Vec<usize> = (0..self.worker_jobs.len())
            .filter(|&w| self.worker_jobs[w].iter().any(|j| j.done_s > now))
            .collect();
        if busy.is_empty() {
            return;
        }
        let frac = at_fraction.clamp(0.0, 1.0);
        let w = busy[((frac * busy.len() as f64) as usize).min(busy.len() - 1)];
        let i = self.worker_jobs[w]
            .iter()
            .position(|j| j.done_s > now)
            .expect("busy worker has an unfinished job");
        let job = self.worker_jobs[w].remove(i).expect("job is queued");
        let core = &mut self.core;
        core.engine.cancel(job.timer);
        // Attribution: drop the killed attempt's un-run tail; a
        // never-started job instead converts its queue wait to the
        // actual wait accrued up to the kill.
        let seg = &mut core.outcomes[job.request].segments;
        if job.start_s > now {
            seg.msa_queue_wait_s += now - job.start_s;
            seg.msa_service_s -= job.done_s - job.start_s;
        } else {
            seg.msa_service_s -= job.done_s - now;
        }
        // Waiters piggybacked on this producer become orphans, woken
        // exactly once by the entity's next MSA completion.
        let moved = core.coalesced_waiters(job.entity);
        for &waiter in &moved {
            core.cancel_fill(waiter);
        }
        if !moved.is_empty() {
            self.orphans.entry(job.entity).or_default().extend(moved);
        }
        self.in_flight[job.entity] = None;
        // The killed job's slot stays reserved: only the queue end moves.
        self.refresh_worker(w, now);
        if self
            .core
            .recover_kill(job.request, job.start_s, job.done_s, now)
        {
            // Shared fate: waiters on a terminally failed producer fail
            // with it.
            for waiter in self.orphans.remove(&job.entity).unwrap_or_default() {
                self.core.fail(waiter, now);
            }
        }
    }

    fn on_straggler(&mut self, factor: f64, now: f64) {
        for w in 0..self.worker_jobs.len() {
            if let Some(i) = self.running_job(w, now) {
                let old_done = self.worker_jobs[w][i].done_s;
                let new_done = now + (old_done - now) * factor.max(1.0);
                let added = self.stretch(w, i, new_done, now);
                self.core.injector.charge(added);
                break;
            }
        }
    }

    fn stall_running(&mut self, stall_s: f64, now: f64, mut lost: f64) -> f64 {
        for w in 0..self.worker_jobs.len() {
            if let Some(i) = self.running_job(w, now) {
                let done = self.worker_jobs[w][i].done_s;
                self.stretch(w, i, done + stall_s, now);
                lost += stall_s;
            }
        }
        lost
    }

    fn requeue(&mut self, request: usize, now: f64) {
        self.assign(request, now, now);
    }

    fn msa_jobs(&self) -> usize {
        self.worker_jobs.iter().map(VecDeque::len).sum()
    }
}

/// The canonical `serve-chaos` matrix: the `cold` serving config under
/// an empty plan (`baseline`), three single-dimension fault campaigns,
/// and their union (`kitchen-sink`, which also arms the overload
/// degradation rung). Fault times sit inside the arrival window so
/// every campaign hits live work.
pub fn chaos_scenarios(quick: bool) -> Vec<Scenario> {
    let config = cold_config(quick);
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

    let campaign = |name, plan, policy| Scenario {
        chaos: ChaosConfig { plan, policy },
        ..Scenario::new(name, config, None)
    };
    vec![
        Scenario::new("baseline", config, None),
        campaign("worker-churn", worker_churn, policy),
        campaign("storage-brownout", storage_brownout, policy),
        campaign("gpu-flap", gpu_flap, policy),
        campaign(
            "kitchen-sink",
            kitchen_sink,
            RecoveryPolicy {
                degrade_queue_depth: 64,
                ..policy
            },
        ),
    ]
}

/// Cross-scenario comparison table plus the per-scenario blocks.
pub fn render_chaos_summary(runs: &[ScenarioRun]) -> String {
    let headers = [
        "scenario", "avail", "goodput", "compl", "degr", "degr att", "shed", "failed", "requeue",
        "faults", "lost s",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let r = &run.report.chaos;
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
