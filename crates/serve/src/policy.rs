//! Pluggable scheduling policies over the event-driven serving engine.
//!
//! `BENCH_serve.json` shows the paper's phase imbalance live in the
//! simulator: ~3% GPU occupancy with p50 latency pinned at the deadline
//! cap, because the CPU MSA phase starves the GPU. The causal profiler
//! measured the levers; this module pulls them. It is the crate's
//! second event loop, over the same serving core as [`crate::chaos`],
//! with the scheduling decisions factored into a [`PolicyConfig`]:
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
//! frees — while the [`crate::chaos`] loop assigns arrivals eagerly to
//! the least-loaded worker. For FIFO the two are the same schedule: the
//! worker that frees first *is* the least-loaded worker, and at
//! dispatch time `start = max(worker_free, enqueue_time)` reproduces
//! the eager `max(workers[w], arrival)` bit for bit (when the job
//! waited, the dispatch fires exactly at `worker_free`; when a worker
//! was idle, dispatch happens at arrival). `tests/equivalence.rs` pins
//! the plain-FIFO report, outcomes, render, metrics and trace
//! byte-identical to the frozen seed scheduler in [`crate::reference`]
//! on the four canonical scenarios and an edge sweep.
//!
//! The loop also accepts a [`ChaosConfig`]: the full fault vocabulary
//! (kills, stragglers, storage faults, GPU flaps) and the recovery
//! machinery (retry budget + backoff, circuit breaker, deadline
//! shedding) apply under every policy, so the request-conservation
//! invariant ([`ChaosReport::conserves_requests`]) is testable across
//! the whole matrix. One divergence from [`crate::chaos`] follows from
//! the dispatch mode: a kill immediately frees the worker for the next
//! queued request (no committed queue stands behind it), where the
//! eager loop keeps the killed slot reserved because its later jobs
//! were already priced onto that worker. Miss coalescing is eager-only
//! for the same reason: a lazy loop cannot know when a still-queued
//! producer will finish.
//!
//! [`DegradeStep::MsaDepthCap`]: afsb_core::resilience::DegradeStep::MsaDepthCap

use crate::chaos::{ChaosConfig, ChaosReport};
use crate::core::{drive, MsaSide, ServeCore};
use crate::queue::{KeyedQueue, ReadyEntry};
use crate::scenario::{cold_config, run_scenarios, Scenario, ScenarioRun};
use crate::server::{CostTable, ServeConfig, ServeReport};
use crate::whatif::{predict_makespan, WhatIf};
use afsb_core::report::ascii_table;
use afsb_rt::obs::ObsSession;
use afsb_rt::sim::{Event, TimerId, WaitEdge};
use afsb_seq::samples::SampleId;
use std::fmt::Write as _;

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
    /// [`afsb_core::resilience::DegradeStep::MsaDepthCap`].
    pub degraded_msa_depth: usize,
}

impl PolicyConfig {
    /// The baseline: plain FIFO, byte-identical to
    /// [`crate::server::run_serve`] on configs without coalescing.
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
/// wraps the base [`crate::server::ServeReport`] and the disposition accounting) plus
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
    /// An eager-loop run as a policy report: plain FIFO, no
    /// preemptions, so [`PolicyReport::render`] is the chaos render.
    pub fn eager(chaos: ChaosReport) -> PolicyReport {
        PolicyReport {
            chaos,
            policy: PolicyConfig::fifo(),
            preemptions: 0,
            preempt_lost_s: 0.0,
        }
    }

    /// The base serving report.
    pub fn base(&self) -> &ServeReport {
        &self.chaos.base
    }

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

/// The lazy MSA side: misses wait in a keyed queue until a worker
/// frees, which is what lets a discipline reorder them and a short
/// arrival preempt a long job.
struct PolicyLoop<'a> {
    core: ServeCore<'a>,
    pol: &'a PolicyConfig,
    msa_queue: KeyedQueue,
    enqueued_at: Vec<f64>,
    running: Vec<Option<Running>>,
    preempt_count: Vec<u32>,
    preemptions: u64,
    preempt_lost_s: f64,
}

impl PolicyLoop<'_> {
    /// The overload signal speculation triggers on: queued-not-running
    /// MSA requests plus breaker-parked ones.
    fn queue_pressure(&self) -> usize {
        self.msa_queue.len() + self.core.parked.len()
    }

    /// The discipline's priority key for a queued request (lower is
    /// better; the request id breaks every tie deterministically). It
    /// reads `enqueued_at` and `durable`, which only change before a
    /// (re-)push, so the key is fixed while the request is queued.
    fn queue_key(&self, r: usize) -> f64 {
        let core = &self.core;
        match self.pol.queue {
            QueueDiscipline::Fifo => self.enqueued_at[r],
            QueueDiscipline::Sjf => {
                (1.0 - core.durable[r]).max(0.0) * core.costs.shape(core.requests[r].sample).msa_s
            }
            QueueDiscipline::Edf => core
                .config
                .deadline
                .limit_seconds()
                .map_or(f64::INFINITY, |l| core.requests[r].arrival_s + l),
        }
    }

    /// Queue request `r`, waiting since `now`, under the discipline's
    /// key.
    fn enqueue(&mut self, r: usize, now: f64) {
        self.enqueued_at[r] = now;
        let key = self.queue_key(r);
        self.msa_queue.push(key, r);
    }

    /// Dispatch queued MSA requests onto free workers until one side
    /// runs out. For FIFO this reproduces the eager loop's schedule
    /// exactly (see the module docs).
    fn dispatch_ready(&mut self, now: f64) {
        while !self.msa_queue.is_empty() {
            let workers = &self.core.workers;
            let Some(w) = (0..workers.len())
                .filter(|&w| self.running[w].is_none())
                .min_by(|&a, &b| workers[a].total_cmp(&workers[b]).then(a.cmp(&b)))
            else {
                break;
            };
            let r = self.msa_queue.pop().expect("queue is non-empty");
            let msa_s = self.core.attempt_msa_s(r, self.queue_pressure(), now);
            // Lazy dispatch means the MsaDone edge's parent is the event
            // that freed the worker (or the arrival itself), so the
            // queue wait is already embodied in the parent chain.
            let (timer, start_s, done_s) =
                self.core.start_msa(r, w, self.enqueued_at[r], msa_s, now);
            self.running[w] = Some(Running {
                request: r,
                start_s,
                done_s,
                timer,
            });
        }
    }

    /// Checkpoint-yield: park the running job with the most remaining
    /// work if an arriving job of `incoming_msa_s` full seconds is
    /// enough shorter.
    fn maybe_preempt(&mut self, incoming_msa_s: f64, now: f64) {
        if self.running.iter().any(Option::is_none) {
            return;
        }
        let mut victim: Option<(f64, usize)> = None;
        for (w, j) in self.running.iter().enumerate() {
            if let Some(j) = j {
                let rem = j.done_s - now;
                if victim.is_none_or(|(best, _)| rem > best) {
                    victim = Some((rem, w));
                }
            }
        }
        let Some((rem, w)) = victim else {
            return;
        };
        let j = self.running[w].expect("victim worker is running");
        if rem <= incoming_msa_s * self.pol.preempt_min_ratio
            || self.preempt_count[j.request] >= self.pol.max_preemptions
        {
            return;
        }
        self.core.engine.cancel(j.timer);
        let r = j.request;
        // Drop the un-run tail from the attribution; the redispatch adds
        // its own queue-wait and service segments.
        self.core.outcomes[r].segments.msa_service_s -= j.done_s - now;
        // Durable progress floors to the jackhmmer checkpoint grid —
        // identical salvage to a chaos kill, but voluntary.
        self.preempt_lost_s +=
            self.core
                .salvage(r, j.start_s, j.done_s, now, self.pol.checkpoint_units);
        self.preemptions += 1;
        self.preempt_count[r] += 1;
        self.core.workers[w] = now;
        self.running[w] = None;
        self.enqueue(r, now);
        self.core
            .obs
            .tracer
            .instant_at(now, "preempt:checkpoint-yield");
    }

    /// Extend worker `w`'s running job to `new_done` (straggler or
    /// storage-stall inflation), preserving its start.
    fn retime_running(&mut self, w: usize, new_done: f64) {
        let j = self.running[w].expect("worker is running");
        let core = &mut self.core;
        core.engine.cancel(j.timer);
        let r = j.request;
        core.outcomes[r].segments.msa_service_s += new_done - j.done_s;
        let timer = core.engine.schedule_tagged(
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
        core.workers[w] = new_done;
        core.outcomes[r].ready_s = new_done;
    }
}

impl<'a> MsaSide<'a> for PolicyLoop<'a> {
    fn core(&mut self) -> &mut ServeCore<'a> {
        &mut self.core
    }

    fn on_admitted(&mut self, request: usize, now: f64) {
        let req = self.core.requests[request];
        if self.core.cache.lookup(req.entity) {
            self.core.push_fill(request, req.arrival_s, false);
            return;
        }
        // Miss: enqueue, optionally yield a long-running job, then let
        // the dispatcher fill free workers. For plain FIFO with a free
        // worker this schedules the MsaDone timer at exactly the point
        // the eager loop would, so event seq numbers (and thus
        // same-timestamp ordering) are preserved.
        self.core.push_miss(request);
        self.enqueue(request, req.arrival_s);
        if self.pol.preempt {
            let msa_s = self.core.costs.shape(req.sample).msa_s;
            self.maybe_preempt(msa_s, now);
        }
        self.dispatch_ready(now);
    }

    fn on_msa_done(&mut self, request: usize, worker: usize, now: f64) {
        if self.running[worker].is_some_and(|j| j.request == request) {
            self.running[worker] = None;
        }
        self.core.insert_features(request);
        self.core.make_ready(request, now);
        self.dispatch_ready(now);
    }

    /// Shape-bucketed batching takes the dominant shape bucket of the
    /// eligible window; otherwise the arrival-order prefix (the
    /// reference rule).
    fn pick_batch(&mut self, start: f64) -> Vec<usize> {
        let core = &mut self.core;
        let max = core.config.gpu_batch;
        if !self.pol.shape_batching {
            return core.pool.take_batch(start, max);
        }
        let window: Vec<ReadyEntry> = core.pool.window(start).collect();
        // Dominant shape of the whole eligible window (not just the
        // first B): max count, earliest first appearance breaking ties.
        let sample = |e: &ReadyEntry| core.requests[e.request].sample;
        let mut counts: Vec<(SampleId, usize)> = Vec::new();
        for e in &window {
            let s = sample(e);
            match counts.iter_mut().find(|(cs, _)| *cs == s) {
                Some((_, c)) => *c += 1,
                None => counts.push((s, 1)),
            }
        }
        let (mut dom, mut dom_count) = counts[0];
        for &(s, c) in &counts[1..] {
            if c > dom_count {
                dom = s;
                dom_count = c;
            }
        }
        let taken: Vec<ReadyEntry> = window
            .into_iter()
            .filter(|e| sample(e) == dom)
            .take(max)
            .collect();
        for &e in &taken {
            core.pool.remove(e);
        }
        taken.into_iter().map(|e| e.request).collect()
    }

    fn shed(&mut self, request: usize, _now: f64) -> bool {
        self.msa_queue.remove(request) || self.core.unpark(request)
    }

    fn on_kill(&mut self, at_fraction: f64, now: f64) {
        let busy: Vec<usize> = (0..self.running.len())
            .filter(|&w| self.running[w].is_some())
            .collect();
        if busy.is_empty() {
            return;
        }
        let frac = at_fraction.clamp(0.0, 1.0);
        let w = busy[((frac * busy.len() as f64) as usize).min(busy.len() - 1)];
        let j = self.running[w].take().expect("busy worker is running");
        self.core.engine.cancel(j.timer);
        self.core.outcomes[j.request].segments.msa_service_s -= j.done_s - now;
        // Lazy dispatch has no queue behind the worker to keep in place,
        // so the slot frees and the next queued request takes it (see
        // the module docs).
        self.core.workers[w] = now;
        self.core.recover_kill(j.request, j.start_s, j.done_s, now);
        self.dispatch_ready(now);
    }

    fn on_straggler(&mut self, factor: f64, now: f64) {
        if let Some(w) = self.running.iter().position(Option::is_some) {
            let old_done = self.running[w].expect("worker is running").done_s;
            let new_done = now + (old_done - now) * factor.max(1.0);
            self.retime_running(w, new_done);
            self.core.injector.charge(new_done - old_done);
        }
    }

    fn stall_running(&mut self, stall_s: f64, _now: f64, mut lost: f64) -> f64 {
        for w in 0..self.running.len() {
            if let Some(j) = self.running[w] {
                self.retime_running(w, j.done_s + stall_s);
                lost += stall_s;
            }
        }
        lost
    }

    fn requeue(&mut self, request: usize, now: f64) {
        self.enqueue(request, now);
        self.dispatch_ready(now);
    }

    fn msa_jobs(&self) -> usize {
        self.msa_queue.len() + self.running.iter().flatten().count()
    }
}

/// Run the serving simulation under a scheduling policy, optionally
/// with a fault plan. Identical contract to
/// [`crate::chaos::run_serve_chaos`] plus the [`PolicyConfig`]; with
/// `PolicyConfig::fifo()` and an empty plan the output is
/// byte-identical to [`crate::server::run_serve`] (pinned against the
/// frozen reference by `tests/equivalence.rs`).
///
/// # Panics
///
/// Panics with the [`ServeConfig::validate`] error, and when
/// `config.coalesce_misses` is set — the policy loop keeps one running
/// job per worker and no coalesced-waiter bookkeeping; the canonical
/// scenarios it serves all have coalescing off.
pub fn run_serve_policy(
    config: &ServeConfig,
    pol: &PolicyConfig,
    chaos: &ChaosConfig,
    costs: &CostTable,
    obs: &mut ObsSession,
) -> PolicyReport {
    assert!(
        !config.coalesce_misses,
        "the policy loop does not implement miss coalescing"
    );
    let mut core = ServeCore::new(config, chaos, costs, obs);
    // Speculation's own threshold wins over the recovery policy's.
    if pol.speculate_queue_depth > 0 {
        core.set_degrade(
            pol.speculate_queue_depth,
            pol.degrade_msa_factor,
            pol.degraded_msa_depth,
        );
    }
    let n = core.requests.len();
    let mut lp = PolicyLoop {
        core,
        pol,
        msa_queue: KeyedQueue::new(n),
        enqueued_at: vec![0.0; n],
        running: vec![None; config.cpu_workers],
        preempt_count: vec![0; n],
        preemptions: 0,
        preempt_lost_s: 0.0,
    };
    drive(&mut lp);
    let PolicyLoop {
        core,
        preemptions,
        preempt_lost_s,
        ..
    } = lp;
    let chaos = core.fold();
    if !pol.is_plain_fifo() {
        let m = &mut obs.metrics;
        m.inc("serve.policy.preemptions", preemptions);
        m.inc("serve.policy.degraded_attempts", chaos.degraded_attempts);
        m.set_gauge("serve.policy.preempt_lost_s", preempt_lost_s);
    }
    PolicyReport {
        chaos,
        policy: *pol,
        preemptions,
        preempt_lost_s,
    }
}

/// Queue depth at which the canonical speculation rows degrade new
/// dispatches. The cold scenario's MSA backlog crosses this within the
/// first hour, so nearly every dispatch runs depth-capped — which is
/// what makes the measured makespan comparable to the `whatif`
/// full-fleet MSA-speedup projection.
pub const SPECULATE_DEPTH: usize = 16;

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
    pub runs: Vec<ScenarioRun>,
    /// What-if validation (`None` only if no speculation row dominates
    /// FIFO — the CI gate fails in that case).
    pub whatif: Option<PolicyWhatIf>,
}

impl PolicyMatrixReport {
    /// The FIFO baseline row.
    pub fn fifo(&self) -> &ScenarioRun {
        self.runs
            .iter()
            .find(|r| r.report.policy.is_plain_fifo())
            .expect("the matrix always includes the fifo baseline")
    }

    /// Rows that strictly dominate FIFO on *both* queries/hour and
    /// exact p99 latency — the CI gate requires at least one.
    pub fn dominating(&self) -> Vec<&ScenarioRun> {
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
pub fn policy_scenarios(quick: bool) -> Vec<Scenario> {
    let row = |name, policy| Scenario::new(name, cold_config(quick), Some(policy));
    vec![
        row("fifo", PolicyConfig::fifo()),
        row("sjf", PolicyConfig::sjf()),
        row("edf", PolicyConfig::edf()),
        row("shape-batch", PolicyConfig::shape_batched()),
        row("sjf-preempt", PolicyConfig::sjf_preempt()),
        row("speculate", PolicyConfig::speculative(SPECULATE_DEPTH)),
        row("adaptive", PolicyConfig::adaptive(SPECULATE_DEPTH)),
    ]
}

/// Price the cost table once, run the whole matrix fault-free, and
/// validate the winner against the causal profiler's projection. The
/// FIFO row runs with provenance on (observation-only) so its causal
/// log can drive [`predict_makespan`].
pub fn run_policy_matrix(quick: bool) -> PolicyMatrixReport {
    let scenarios = policy_scenarios(quick)
        .into_iter()
        .map(|mut s| {
            s.config.provenance = s.policy.is_some_and(|p| p.is_plain_fifo());
            s
        })
        .collect();
    let runs = run_scenarios(scenarios, quick);

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

    fn run(pol: &PolicyConfig) -> PolicyReport {
        let config = cold_config(true);
        let mut obs = ObsSession::new();
        run_serve_policy(
            &config,
            pol,
            &ChaosConfig::none(),
            CostTable::canonical(true),
            &mut obs,
        )
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
