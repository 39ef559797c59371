//! Shared worker pool behind every serving transport.
//!
//! The JSONL daemon (`llmulator serve`) and its TCP transport both funnel
//! requests into one [`ServePool`]: a fixed set of worker threads sharing a
//! single [`Engine`] through per-worker [`crate::Session`]s, fed by a
//! central bounded queue. Workers drain the queue in micro-batches, so
//! requests from *different* connections that arrive together are packed
//! into one fused [`crate::Session::predict_micro_batch`] call — the
//! cross-connection generalization of the stdin daemon's per-turn batching,
//! with answers bit-identical to serving each request alone.
//!
//! The queue is bounded twice over:
//!
//! * **Backpressure** — workers pop at most
//!   [`PoolConfig::max_batch`] jobs per turn, so one giant burst cannot
//!   monopolize a fused batch;
//! * **Load-shedding** — a submission that would push the queue past
//!   [`PoolConfig::max_queue`] is answered *immediately* with
//!   [`Error::Overloaded`] instead of waiting. Clients see a structured
//!   `overloaded` error object, never an unbounded hang, and the shed is
//!   counted as [`Counter::Shed`]. A local pipe, where pausing the reader
//!   loses nothing, submits through [`ServePool::submit_wait`] instead and
//!   blocks until a worker frees space.
//!
//! The pool keeps only its queue. Every count it makes (served, errors,
//! sheds, contained panics, respawns) and every completed request's latency
//! (enqueue → response ready, monotonic [`Instant`] clock) go to the
//! engine's one registry, [`Engine::counters`] (a [`LatencyHistogram`],
//! defined here), which the `stats` wire request and the shutdown summary
//! both read; [`ServePool::depth`] is the one live figure the pool itself
//! reports. [`ServePool::drain`] implements
//! graceful shutdown: the queue closes (further submissions are shed) and
//! workers finish everything already accepted.
//!
//! # Fault isolation
//!
//! The pool degrades per-request, never per-process:
//!
//! * **Panic containment** — each micro-batch executes under
//!   [`catch_unwind`]. When a batch panics, the worker rebuilds its session
//!   and retries the batch items *singly*; the item that panics again is
//!   answered with [`Error::Internal`] (kind `internal`) while its
//!   batchmates still get their real answers. Contained panics are counted
//!   as [`Counter::PanicsContained`].
//! * **Poison-proof queue** — no lock is ever held across model code, and
//!   every `Mutex`/`Condvar` access recovers from poisoning (through the
//!   crate's one `sync::unpoisoned` helper), so even an unexpected panic in a
//!   completion callback cannot wedge `submit`/`drain`. A worker whose
//!   serving loop dies is respawned with a fresh session and counted as
//!   [`Counter::WorkersRespawned`].
//! * **Deadlines** — a job may carry a per-request timeout
//!   ([`ServeJob::timeout`], the `timeout_ms` wire field) or inherit
//!   [`PoolConfig::default_timeout`]. Deadlines are enforced at dequeue:
//!   a job that expired while queued is answered
//!   [`Error::DeadlineExceeded`] (kind `deadline_exceeded`) and **never
//!   executed** — which also makes drain complete promptly under an
//!   expired backlog. Deadline sheds land in the latency histogram and in
//!   [`Counter::DeadlineShed`].
//!
//! All of it is testable deterministically: `start_with_faults` threads a
//! [`FaultPlan`] into the pool, injecting panics, delays and forced errors
//! at chosen *arrival indices* (assigned under the queue lock at accept
//! time, so a single pipelined connection sees arrival index == request
//! index).

use crate::counters::Counter;
use crate::engine::{Engine, PredictRequest, PredictResponse, Session};
use crate::error::Error;
use crate::fault::{injected_error_message, injected_panic_message, FaultAction, FaultPlan};
use crate::sync::unpoisoned;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Number of log₂-spaced latency buckets. Bucket `i` covers
/// `[2^i - 1, 2^(i+1) - 2]` microseconds, so 48 buckets span from sub-µs to
/// roughly nine years — any conceivable request latency.
const NUM_BUCKETS: usize = 48;

/// A mergeable latency histogram over log₂-spaced microsecond buckets.
///
/// Percentile estimates are *bucket upper bounds capped at the exact
/// observed maximum*: for a true percentile `t` the estimate `e` satisfies
/// `t <= e <= min(2t + 2, max)`. Merging is exact (bucket counts add), so
/// per-worker histograms combine associatively into one summary — the
/// property that makes the aggregated `stats` percentiles trustworthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; NUM_BUCKETS],
    total: u64,
    max_micros: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; NUM_BUCKETS],
            total: 0,
            max_micros: 0,
        }
    }

    /// Bucket index for a microsecond value: `floor(log2(v + 1))`, clamped
    /// to the last bucket.
    fn bucket(micros: u64) -> usize {
        let i = (u64::BITS - (micros.saturating_add(1)).leading_zeros()) as usize - 1;
        i.min(NUM_BUCKETS - 1)
    }

    /// Upper bound (inclusive, in µs) of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i >= NUM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 2
        }
    }

    /// Records one latency measured with the monotonic clock.
    pub fn record(&mut self, latency: Duration) {
        self.record_micros(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one latency in microseconds.
    pub fn record_micros(&mut self, micros: u64) {
        self.counts[Self::bucket(micros)] += 1;
        self.total += 1;
        self.max_micros = self.max_micros.max(micros);
    }

    /// Adds every observation of `other` into `self`. Exact: merging is
    /// associative and commutative, so per-worker histograms can be
    /// combined in any order with identical results.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The exact maximum observed latency, or `None` when empty.
    pub fn max_micros(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max_micros)
    }

    /// Upper-bound estimate of the `p`-th percentile (0–100) in µs, or
    /// `None` when the histogram is empty. Monotone in `p`; `p = 100`
    /// returns the exact maximum.
    pub fn percentile_micros(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the percentile observation, 1-based, nearest-rank method.
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(i).min(self.max_micros));
            }
        }
        Some(self.max_micros)
    }

    /// The `{count, p50, p90, p99, max}` summary, or `None` when empty.
    pub fn summary(&self) -> Option<LatencySummary> {
        Some(LatencySummary {
            count: self.total,
            p50_micros: self.percentile_micros(50.0)?,
            p90_micros: self.percentile_micros(90.0)?,
            p99_micros: self.percentile_micros(99.0)?,
            max_micros: self.max_micros()?,
        })
    }
}

/// Percentile summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of observations behind the percentiles.
    pub count: u64,
    /// Median upper bound, µs.
    pub p50_micros: u64,
    /// 90th-percentile upper bound, µs.
    pub p90_micros: u64,
    /// 99th-percentile upper bound, µs.
    pub p99_micros: u64,
    /// Exact maximum, µs.
    pub max_micros: u64,
}

/// Sizing knobs for a [`ServePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads (each owns a [`crate::Session`]); clamped ≥ 1.
    pub workers: usize,
    /// Maximum jobs fused into one micro-batch; clamped ≥ 1.
    pub max_batch: usize,
    /// Queue depth beyond which submissions are shed; clamped ≥ 1.
    pub max_queue: usize,
    /// Deadline applied to jobs that carry none of their own
    /// (`--default-timeout-ms`); `None` means jobs without an explicit
    /// `timeout_ms` never expire.
    pub default_timeout: Option<Duration>,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 1,
            max_batch: 64,
            max_queue: 256,
            default_timeout: None,
        }
    }
}

/// The boxed completion callback a [`ServeJob`] carries.
type CompleteFn = Box<dyn FnOnce(Result<PredictResponse, Error>, Duration) + Send>;

/// One queued unit of work: a typed request plus the completion callback
/// that routes the answer back to whichever transport submitted it. The
/// callback receives the result and the request's total service latency
/// (queue wait + prediction, monotonic clock).
pub struct ServeJob {
    request: PredictRequest,
    complete: CompleteFn,
    enqueued: Instant,
    /// Per-request deadline; `None` falls back to
    /// [`PoolConfig::default_timeout`].
    timeout: Option<Duration>,
    /// Arrival index, assigned under the queue lock when the pool accepts
    /// the job (0 until then). [`FaultPlan`]s key on this.
    arrival: u64,
}

impl ServeJob {
    /// Packages a request with its completion callback.
    pub fn new(
        request: PredictRequest,
        complete: impl FnOnce(Result<PredictResponse, Error>, Duration) + Send + 'static,
    ) -> ServeJob {
        ServeJob {
            request,
            complete: Box::new(complete),
            enqueued: Instant::now(),
            timeout: None,
            arrival: 0,
        }
    }

    /// Sets the per-request deadline (the wire `timeout_ms` field). A zero
    /// timeout always expires: the job is shed `deadline_exceeded` at
    /// dequeue without executing — handy for deterministic tests.
    #[must_use]
    pub fn timeout(mut self, timeout: Option<Duration>) -> ServeJob {
        self.timeout = timeout;
        self
    }
}

impl std::fmt::Debug for ServeJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeJob")
            .field("request", &self.request)
            .finish_non_exhaustive()
    }
}

struct QueueState {
    jobs: VecDeque<ServeJob>,
    closed: bool,
    /// Next arrival index to hand out; increments once per accepted job.
    next_arrival: u64,
}

struct PoolShared {
    queue: Mutex<QueueState>,
    /// Signalled when a job is queued (or the queue closes): wakes workers.
    available: Condvar,
    /// Signalled when a worker frees queue space (or the queue closes):
    /// wakes [`ServePool::submit_wait`] callers.
    space: Condvar,
    config: PoolConfig,
    faults: FaultPlan,
}

/// A fixed-size worker pool serving one [`Engine`] from a central bounded
/// queue. See the module docs for the batching/shedding/drain contract.
pub struct ServePool {
    shared: Arc<PoolShared>,
    engine: Arc<Engine>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServePool")
            .field("config", &self.shared.config)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ServePool {
    /// Starts `config.workers` worker threads serving `engine`.
    pub fn start(engine: Arc<Engine>, config: PoolConfig) -> ServePool {
        ServePool::start_with_faults(engine, config, FaultPlan::default())
    }

    /// Starts a pool with a deterministic [`FaultPlan`] — the chaos-testing
    /// constructor. Production paths use [`ServePool::start`] (an empty
    /// plan); with faults, requests at the plan's arrival indices are
    /// panicked/delayed/failed as specified, exercising the containment
    /// paths without any real bug.
    pub fn start_with_faults(
        engine: Arc<Engine>,
        config: PoolConfig,
        faults: FaultPlan,
    ) -> ServePool {
        let config = PoolConfig {
            workers: config.workers.max(1),
            max_batch: config.max_batch.max(1),
            max_queue: config.max_queue.max(1),
            default_timeout: config.default_timeout,
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                next_arrival: 0,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            config,
            faults,
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || worker_loop(&engine, &shared))
            })
            .collect();
        ServePool {
            shared,
            engine,
            workers,
        }
    }

    /// The engine this pool serves — transports reach its counter registry
    /// and calibration surface (scoreboards, feedback queue) through here.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Submits one job. The job's completion callback always runs exactly
    /// once: with the prediction result once a worker batches it, or
    /// immediately with [`Error::Overloaded`] when the queue is at
    /// [`PoolConfig::max_queue`] (load-shedding) or the pool is draining.
    pub fn submit(&self, job: ServeJob) {
        self.enqueue(job, false);
    }

    /// Submits one job like [`ServePool::submit`], but a full queue blocks
    /// the caller until a worker frees space instead of shedding the job —
    /// backpressure for a local pipe, where pausing the reader loses
    /// nothing. A draining pool still answers [`Error::Overloaded`].
    pub fn submit_wait(&self, job: ServeJob) {
        self.enqueue(job, true);
    }

    fn enqueue(&self, mut job: ServeJob, wait: bool) {
        let error = {
            let mut queue = unpoisoned(self.shared.queue.lock());
            while wait && !queue.closed && queue.jobs.len() >= self.shared.config.max_queue {
                queue = unpoisoned(self.shared.space.wait(queue));
            }
            if queue.closed {
                Error::Overloaded {
                    depth: queue.jobs.len(),
                    limit: self.shared.config.max_queue,
                }
                .context("server is draining and accepts no new requests")
            } else if queue.jobs.len() >= self.shared.config.max_queue {
                Error::Overloaded {
                    depth: queue.jobs.len(),
                    limit: self.shared.config.max_queue,
                }
            } else {
                job.arrival = queue.next_arrival;
                queue.next_arrival += 1;
                queue.jobs.push_back(job);
                self.shared.available.notify_one();
                return;
            }
        };
        // Shed outside the lock: the callback may serialize/send.
        self.engine.counters().add(Counter::Shed, 1);
        let latency = job_latency(&job);
        (job.complete)(Err(error), latency);
    }

    /// Jobs currently waiting in the queue.
    pub fn depth(&self) -> usize {
        unpoisoned(self.shared.queue.lock()).jobs.len()
    }

    /// Graceful drain: closes the queue (later submissions are shed with a
    /// draining [`Error::Overloaded`]), lets the workers finish every job
    /// already accepted — jobs that expired while queued are answered
    /// `deadline_exceeded` instead of executed, so a drain under backlog
    /// completes promptly — and joins them. Afterwards the pool only sheds.
    pub fn drain(&mut self) {
        {
            let mut queue = unpoisoned(self.shared.queue.lock());
            queue.closed = true;
            self.shared.available.notify_all();
            self.shared.space.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Service latency of one job (enqueue → now, saturating, monotonic).
fn job_latency(job: &ServeJob) -> Duration {
    job.enqueued.elapsed()
}

/// Worker respawn guard: runs [`worker_serve`] until it exits cleanly
/// (queue closed and drained). A panic escaping the serving loop — e.g. a
/// completion callback panicking, which runs outside the batch unwind
/// guard — is caught here; the worker is counted respawned and re-enters
/// with a fresh session. Progress is guaranteed: every pop consumes at
/// least one job, so a poisoned job cannot respawn a worker forever.
fn worker_loop(engine: &Engine, shared: &PoolShared) {
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| worker_serve(engine, shared)));
        match outcome {
            Ok(()) => return, // clean exit: closed and fully drained
            Err(_) => engine.counters().add(Counter::WorkersRespawned, 1),
        }
    }
}

/// One worker's serving loop: pop a micro-batch (blocking while the queue
/// is empty and open), shed expired jobs, apply injected delays, answer
/// forced-error jobs, run the rest through a fused (unwind-protected)
/// [`crate::Session::predict_micro_batch`] call, record latencies, run the
/// completion callbacks, repeat. Exits when the queue is closed *and*
/// empty, so a drain completes all accepted work.
fn worker_serve(engine: &Engine, shared: &PoolShared) {
    let mut session = engine.session();
    loop {
        let Some(batch) = next_batch(shared) else {
            return; // closed and fully drained
        };
        let mut live = Vec::with_capacity(batch.len());
        for job in batch {
            // Deadlines are enforced at dequeue: expired jobs are answered
            // without ever touching the model.
            let timeout = job.timeout.or(shared.config.default_timeout);
            if let Some(timeout) = timeout {
                let waited = job.enqueued.elapsed();
                if waited >= timeout {
                    let error = Error::DeadlineExceeded {
                        waited_ms: waited.as_millis().min(u128::from(u64::MAX)) as u64,
                        timeout_ms: timeout.as_millis().min(u128::from(u64::MAX)) as u64,
                    };
                    finish_job(engine, job.complete, job.enqueued, Err(error));
                    continue;
                }
            }
            match shared.faults.action(job.arrival) {
                // Injected pre-execution delay: simulates a slow model call
                // (lets queued batchmates' deadlines expire) without
                // holding any lock.
                Some(FaultAction::Delay(delay)) => {
                    std::thread::sleep(delay);
                    live.push(job);
                }
                // Injected forced error: answered structurally, never
                // executed.
                Some(FaultAction::Error) => {
                    let error = Error::Internal(injected_error_message(job.arrival));
                    finish_job(engine, job.complete, job.enqueued, Err(error));
                }
                _ => live.push(job),
            }
        }
        if !live.is_empty() {
            execute_batch(engine, &mut session, shared, live);
        }
    }
}

/// Pops up to `max_batch` jobs, blocking while the queue is empty and
/// open. Returns `None` once the queue is closed and drained. The lock is
/// released before any job is touched.
fn next_batch(shared: &PoolShared) -> Option<Vec<ServeJob>> {
    let mut queue = unpoisoned(shared.queue.lock());
    while queue.jobs.is_empty() && !queue.closed {
        queue = unpoisoned(shared.available.wait(queue));
    }
    if queue.jobs.is_empty() {
        return None;
    }
    // Only a pop that takes a full queue below its limit can unblock a
    // `submit_wait`, so the common pop skips the wake-up.
    if queue.jobs.len() >= shared.config.max_queue {
        shared.space.notify_all();
    }
    let take = queue.jobs.len().min(shared.config.max_batch);
    Some(queue.jobs.drain(..take).collect())
}

/// Executes one micro-batch under an unwind guard. On a batch panic the
/// worker's session is rebuilt and the items are retried singly, each
/// under its own guard, so exactly the offending request is answered
/// [`Error::Internal`] while its batchmates still get real answers.
fn execute_batch<'e>(
    engine: &'e Engine,
    session: &mut Session<'e>,
    shared: &PoolShared,
    jobs: Vec<ServeJob>,
) {
    let mut requests = Vec::with_capacity(jobs.len());
    let mut metas = Vec::with_capacity(jobs.len());
    for job in jobs {
        requests.push(job.request);
        metas.push((job.complete, job.enqueued, job.arrival));
    }
    let arrivals: Vec<u64> = metas.iter().map(|(_, _, at)| *at).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fire_injected_panics(&shared.faults, &arrivals);
        session.predict_micro_batch(&requests)
    }));
    match outcome {
        Ok(results) => {
            for (result, (complete, enqueued, _)) in results.into_iter().zip(metas) {
                finish_job(engine, complete, enqueued, result);
            }
        }
        Err(_) => {
            engine.counters().add(Counter::PanicsContained, 1);
            *session = engine.session();
            if requests.len() == 1 {
                // A lone request panicking needs no retry to be isolated.
                let Some((complete, enqueued, at)) = metas.into_iter().next() else {
                    return;
                };
                let error = Error::Internal(format!(
                    "request panicked during execution (arrival {at}); \
                     the panic was contained"
                ));
                finish_job(engine, complete, enqueued, Err(error));
                return;
            }
            for (request, (complete, enqueued, at)) in requests.into_iter().zip(metas) {
                // Feedback was already recorded during the failed batch's
                // planning pass; don't double-count it on the retry.
                let retry = request.without_feedback();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    fire_injected_panics(&shared.faults, &[at]);
                    session.predict(&retry)
                }));
                let result = match outcome {
                    Ok(result) => result,
                    Err(_) => {
                        engine.counters().add(Counter::PanicsContained, 1);
                        *session = engine.session();
                        Err(Error::Internal(format!(
                            "request panicked during execution (arrival {at}); \
                             the panic was contained and its batchmates were retried"
                        )))
                    }
                };
                finish_job(engine, complete, enqueued, result);
            }
        }
    }
}

/// Panics with the injected payload for the first arrival index the fault
/// plan marks [`FaultAction::Panic`]. Called *inside* the unwind guard so
/// chaos tests exercise the real containment path.
fn fire_injected_panics(faults: &FaultPlan, arrivals: &[u64]) {
    for &at in arrivals {
        if faults.action(at) == Some(FaultAction::Panic) {
            panic!("{}", injected_panic_message(at));
        }
    }
}

/// Completes one job: classify the result into the served / errors /
/// deadline-shed counters, record its latency (globally and, for
/// successes, on the answering model's scorecard — this is what makes
/// per-model `ok_requests` reconcile with the `served` counter), then run
/// the callback, so a reply is never visible before its count.
fn finish_job(
    engine: &Engine,
    complete: CompleteFn,
    enqueued: Instant,
    result: Result<PredictResponse, Error>,
) {
    let latency = enqueued.elapsed();
    let counter = match &result {
        Ok(resp) => {
            engine.scoreboard().record_ok(&resp.model, latency);
            Counter::Served
        }
        Err(e) if e.kind() == "deadline_exceeded" => Counter::DeadlineShed,
        Err(_) => Counter::Errors,
    };
    engine.counters().add(counter, 1);
    engine.counters().record_latency(latency);
    complete(result, latency);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::model::{ModelScale, NumericPredictor, PredictorConfig};
    use crate::numeric::DigitCodec;
    use llmulator_token::NumericMode;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;

    fn pool_engine() -> Arc<Engine> {
        let engine = EngineConfig::new().threads(1).build();
        engine.register_predictor(
            "default",
            NumericPredictor::new(PredictorConfig {
                scale: ModelScale::Small,
                codec: DigitCodec::decimal(4),
                numeric_mode: NumericMode::Digits,
                max_len: 48,
                seed: 11,
            }),
        );
        Arc::new(engine)
    }

    /// Reads one counter off the engine the pool serves.
    fn count(pool: &ServePool, counter: Counter) -> u64 {
        pool.engine().counters().get(counter)
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_micros(50.0), None);
        assert_eq!(h.max_micros(), None);
        assert_eq!(h.summary(), None);

        for v in [10u64, 20, 30, 40, 1000] {
            h.record_micros(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_micros(), Some(1000));
        let s = h.summary().expect("non-empty");
        assert_eq!(s.count, 5);
        assert_eq!(s.max_micros, 1000);
        // p100 is the exact max; every percentile is bounded by it and
        // monotone in p.
        assert_eq!(h.percentile_micros(100.0), Some(1000));
        let mut prev = 0;
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let e = h.percentile_micros(p).expect("non-empty");
            assert!(e >= prev, "monotone at p={p}");
            assert!(e <= 1000, "capped by max at p={p}");
            prev = e;
        }
        // The median observation is 30; the estimate is its bucket's upper
        // bound: 30 ∈ [31-1, 62-2] = bucket 4 ([15, 30]) — exactly 30.
        assert_eq!(h.percentile_micros(50.0), Some(30));
    }

    #[test]
    fn histogram_identical_values_report_exactly() {
        // All-equal observations: the max cap collapses every bucket upper
        // bound to the exact value.
        let mut h = LatencyHistogram::new();
        for _ in 0..17 {
            h.record_micros(777);
        }
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile_micros(p), Some(777), "p={p}");
        }
    }

    #[test]
    fn histogram_merge_is_exact_and_order_free() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for v in 0..50u64 {
            a.record_micros(v * 3);
            b.record_micros(v * 7 + 1);
            c.record_micros(v * 11 + 100);
        }
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associative");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "commutative");
        assert_eq!(ab_c.count(), 150);
    }

    #[test]
    fn histogram_extreme_values_clamp_to_the_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record_micros(u64::MAX);
        h.record_micros(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_micros(), Some(u64::MAX));
        assert_eq!(h.percentile_micros(0.0), Some(0), "bucket 0 is exact");
        assert_eq!(h.percentile_micros(100.0), Some(u64::MAX));
        h.record(Duration::from_secs(u64::MAX)); // as_micros overflows u64
        assert_eq!(h.max_micros(), Some(u64::MAX));
    }

    #[test]
    fn pool_serves_batches_and_drains_cleanly() {
        let engine = pool_engine();
        let mut pool = ServePool::start(
            engine,
            PoolConfig {
                workers: 2,
                max_batch: 8,
                max_queue: 64,
                ..PoolConfig::default()
            },
        );
        let (tx, rx) = mpsc::channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![i, i + 1, i + 2]),
                move |result, latency| {
                    tx.send((i, result.is_ok(), latency)).expect("send");
                },
            ));
        }
        drop(tx);
        let mut done: Vec<_> = rx.iter().collect();
        done.sort_by_key(|(i, _, _)| *i);
        assert_eq!(done.len(), 10, "every job completed exactly once");
        assert!(done.iter().all(|(_, ok, _)| *ok));
        pool.drain();
        assert_eq!(count(&pool, Counter::Served), 10);
        assert_eq!(count(&pool, Counter::Errors), 0);
        assert_eq!(count(&pool, Counter::Shed), 0);
        assert_eq!(pool.depth(), 0);
        let latency = pool
            .engine()
            .counters()
            .latency()
            .expect("latencies recorded");
        assert_eq!(latency.count, 10);
        assert!(latency.p50_micros <= latency.max_micros);
    }

    #[test]
    fn pool_answers_request_errors_without_poisoning_the_batch() {
        let engine = pool_engine();
        let mut pool = ServePool::start(engine, PoolConfig::default());
        let (tx, rx) = mpsc::channel();
        for (i, request) in [
            PredictRequest::tokens(vec![1, 2]),
            PredictRequest::tokens(vec![3]).for_model("nope"),
            PredictRequest::tokens(vec![4, 5, 6]),
        ]
        .into_iter()
        .enumerate()
        {
            let tx = tx.clone();
            pool.submit(ServeJob::new(request, move |result, _| {
                tx.send((i, result.map_err(|e| e.kind()))).expect("send");
            }));
        }
        drop(tx);
        let mut done: Vec<_> = rx.iter().collect();
        done.sort_by_key(|(i, _)| *i);
        assert!(done[0].1.is_ok());
        assert_eq!(done[1].1.as_ref().expect_err("unknown"), &"unknown_model");
        assert!(done[2].1.is_ok());
        pool.drain();
        assert_eq!(
            (
                count(&pool, Counter::Served),
                count(&pool, Counter::Errors),
                count(&pool, Counter::Shed)
            ),
            (2, 1, 0)
        );
    }

    #[test]
    fn full_queue_sheds_with_a_structured_overloaded_error() {
        let engine = pool_engine();
        let mut pool = ServePool::start(
            engine,
            PoolConfig {
                workers: 1,
                max_batch: 1,
                max_queue: 2,
                ..PoolConfig::default()
            },
        );
        // Deterministic saturation: the first job's completion callback
        // blocks the only worker until we release it, so later submissions
        // pile into the bounded queue.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        {
            let done = done_tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![1]),
                move |result, _| {
                    release_rx.recv().expect("released");
                    done.send(("gate", result.map_err(|e| e.kind())))
                        .expect("send");
                },
            ));
        }
        // Wait until the worker has picked up the gate job (queue empty).
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        // Two fit in the queue; the third and fourth are shed immediately.
        for tag in ["q1", "q2", "shed1", "shed2"] {
            let done = done_tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![2, 3]),
                move |result, _| {
                    done.send((tag, result.map_err(|e| e.kind())))
                        .expect("send");
                },
            ));
        }
        // The sheds completed synchronously, before the gate releases.
        let first = done_rx.recv().expect("shed done");
        let second = done_rx.recv().expect("shed done");
        for (tag, result) in [&first, &second] {
            assert!(tag.starts_with("shed"), "{tag} shed first");
            assert_eq!(result.as_ref().expect_err("shed"), &"overloaded");
        }
        assert_eq!(count(&pool, Counter::Shed), 2);
        release_tx.send(()).expect("release");
        drop(done_tx);
        let rest: Vec<_> = done_rx.iter().collect();
        assert_eq!(rest.len(), 3, "gate + both queued jobs complete");
        assert!(rest
            .iter()
            .all(|(_, r)| r.is_ok() || *r == Err("overloaded")));
        pool.drain();
        assert_eq!(count(&pool, Counter::Shed), 2);
        assert_eq!(
            count(&pool, Counter::Served) + count(&pool, Counter::Errors),
            3
        );
    }

    #[test]
    fn submit_wait_blocks_on_a_full_queue_instead_of_shedding() {
        let mut pool = ServePool::start(
            pool_engine(),
            PoolConfig {
                workers: 1,
                max_batch: 1,
                max_queue: 1,
                ..PoolConfig::default()
            },
        );
        // Same saturation as above: a gate job holds the only worker, and
        // one queued job fills the queue.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let job = |tag: &'static str| {
            let done = done_tx.clone();
            ServeJob::new(PredictRequest::tokens(vec![2, 3]), move |result, _| {
                done.send((tag, result.map_err(|e| e.kind())))
                    .expect("send");
            })
        };
        pool.submit(ServeJob::new(
            PredictRequest::tokens(vec![1]),
            move |_, _| {
                release_rx.recv().expect("released");
            },
        ));
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        pool.submit(job("queued"));
        let submitted = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.submit_wait(job("waited"));
                submitted.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !submitted.load(Ordering::SeqCst),
                "blocked on the full queue"
            );
            release_tx.send(()).expect("release");
        });
        assert!(submitted.load(Ordering::SeqCst));
        pool.drain();
        drop(done_tx);
        let done: Vec<_> = done_rx.iter().map(|(tag, r)| (tag, r.is_ok())).collect();
        assert_eq!(done, vec![("queued", true), ("waited", true)]);
        assert_eq!(count(&pool, Counter::Shed), 0);
    }

    #[test]
    fn draining_pool_sheds_new_submissions_but_finishes_accepted_ones() {
        let engine = pool_engine();
        let mut pool = ServePool::start(
            engine,
            PoolConfig {
                workers: 1,
                max_batch: 4,
                max_queue: 16,
                ..PoolConfig::default()
            },
        );
        let (tx, rx) = mpsc::channel();
        for i in 0..6u32 {
            let tx = tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![i]),
                move |result, _| {
                    tx.send(result.is_ok()).expect("send");
                },
            ));
        }
        pool.drain();
        assert_eq!(
            count(&pool, Counter::Served),
            6,
            "drain completes accepted in-flight work"
        );
        assert_eq!(pool.depth(), 0);
        drop(tx);
        assert_eq!(rx.iter().filter(|ok| *ok).count(), 6);
    }

    #[test]
    fn injected_batch_panic_is_contained_and_isolated_to_its_request() {
        crate::fault::silence_injected_panics();
        let engine = pool_engine();
        // Arrival index 1 panics; 0 and 2 must still get real answers.
        let mut pool = ServePool::start_with_faults(
            engine,
            PoolConfig {
                workers: 1,
                max_batch: 8,
                max_queue: 16,
                ..PoolConfig::default()
            },
            FaultPlan::new().panic_at(1),
        );
        let (tx, rx) = mpsc::channel();
        for i in 0..3u32 {
            let tx = tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![i, i + 1]),
                move |result, _| {
                    tx.send((i, result.map_err(|e| e.kind()))).expect("send");
                },
            ));
        }
        drop(tx);
        let mut done: Vec<_> = rx.iter().collect();
        done.sort_by_key(|(i, _)| *i);
        assert_eq!(done.len(), 3, "every request answered exactly once");
        assert!(done[0].1.is_ok(), "batchmate before the panic survives");
        assert_eq!(done[1].1.as_ref().expect_err("panicked"), &"internal");
        assert!(done[2].1.is_ok(), "batchmate after the panic survives");

        // Satellite regression: after the contained panic, a *new* request
        // on the same pool still succeeds (no poisoned lock wedges submit).
        let (tx, rx) = mpsc::channel();
        pool.submit(ServeJob::new(
            PredictRequest::tokens(vec![9, 9]),
            move |result, _| tx.send(result.is_ok()).expect("send"),
        ));
        assert!(rx.recv().expect("answered"), "pool serves after a panic");

        pool.drain();
        assert!(
            count(&pool, Counter::PanicsContained) >= 1,
            "{:?}",
            pool.engine().counters()
        );
        assert_eq!(count(&pool, Counter::Served), 3);
        assert_eq!(count(&pool, Counter::Errors), 1);
        assert_eq!(pool.depth(), 0);
    }

    #[test]
    fn batch_answers_match_serial_answers_around_a_contained_panic() {
        crate::fault::silence_injected_panics();
        let engine = pool_engine();
        let oracle: Vec<_> = (0..4u32)
            .map(|i| {
                let mut session = engine.session();
                session
                    .predict(&PredictRequest::tokens(vec![i, 7]))
                    .expect("oracle predicts")
            })
            .collect();
        let mut pool = ServePool::start_with_faults(
            engine,
            PoolConfig {
                workers: 1,
                max_batch: 8,
                max_queue: 16,
                ..PoolConfig::default()
            },
            FaultPlan::new().panic_at(2),
        );
        let (tx, rx) = mpsc::channel();
        for i in 0..4u32 {
            let tx = tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![i, 7]),
                move |result, _| tx.send((i, result)).expect("send"),
            ));
        }
        drop(tx);
        let mut done: Vec<_> = rx.iter().collect();
        done.sort_by_key(|(i, _)| *i);
        for (i, result) in done {
            if i == 2 {
                assert_eq!(result.expect_err("faulted").kind(), "internal");
            } else {
                let got = result.expect("non-faulted request succeeds");
                assert_eq!(got, oracle[i as usize], "bit-identical for i={i}");
            }
        }
        pool.drain();
    }

    /// Satellite regression: a batch panic forces single-request retries,
    /// and `predict_micro_batch` records calibration feedback during the
    /// *planning* pass of the failed batch — so the retry must strip
    /// feedback ([`PredictRequest::without_feedback`]) or every triple
    /// would be counted twice in the shared queue and the scoreboard.
    #[test]
    fn feedback_is_not_double_counted_across_a_panic_contained_retry() {
        use crate::dataset::{CostModel, Sample};
        use crate::engine::Feedback;
        use llmulator_sim::{CostVector, Metric};

        crate::fault::silence_injected_panics();

        /// A baseline that panics on execution — *after* the planning pass
        /// has recorded its batchmates' feedback, unlike an injected
        /// [`FaultAction::Panic`], which fires before planning.
        struct ExplodingBaseline;
        impl CostModel for ExplodingBaseline {
            fn name(&self) -> &str {
                "boom"
            }
            fn predict(&self, _sample: &Sample) -> CostVector {
                panic!("{} baseline exploded mid-batch", crate::fault::FAULT_MARKER);
            }
        }

        let engine = EngineConfig::new().threads(1).feedback_capacity(8).build();
        engine.register_predictor(
            "default",
            NumericPredictor::new(PredictorConfig {
                scale: ModelScale::Small,
                codec: DigitCodec::decimal(4),
                numeric_mode: NumericMode::Digits,
                max_len: 48,
                seed: 11,
            }),
        );
        engine.register_baseline("boom", ExplodingBaseline);
        let engine = Arc::new(engine);
        let op = llmulator_ir::builder::OperatorBuilder::new("inc")
            .array_param("a", [4])
            .loop_nest(&[("i", 4)], |idx| {
                vec![llmulator_ir::Stmt::assign(
                    llmulator_ir::LValue::store("a", vec![idx[0].clone()]),
                    llmulator_ir::Expr::load("a", vec![idx[0].clone()])
                        + llmulator_ir::Expr::int(1),
                )]
            })
            .build();
        let boom_sample =
            Sample::profile(&llmulator_ir::Program::single_op(op), None).expect("profiles");

        // The delayed plug keeps the single worker busy long enough for
        // the feedback request and the exploding baseline request to land
        // in one micro-batch (the assertions hold in any interleaving).
        let mut pool = ServePool::start_with_faults(
            Arc::clone(&engine),
            PoolConfig {
                workers: 1,
                max_batch: 8,
                max_queue: 16,
                ..PoolConfig::default()
            },
            FaultPlan::new().delay_at(0, Duration::from_millis(200)),
        );
        let (tx, rx) = mpsc::channel();
        let requests = [
            PredictRequest::tokens(vec![1, 2]),
            PredictRequest::tokens(vec![3, 4]).feedback(Feedback {
                item: 0,
                metric: Metric::Cycles,
                actual: 100.0,
                predicted: 50.0,
            }),
            PredictRequest::sample(boom_sample).for_model("boom"),
        ];
        for (i, request) in requests.into_iter().enumerate() {
            let tx = tx.clone();
            pool.submit(ServeJob::new(request, move |result, _| {
                tx.send((i, result.map_err(|e| e.kind()))).expect("send");
            }));
        }
        drop(tx);
        let mut done: Vec<_> = rx.iter().collect();
        done.sort_by_key(|(i, _)| *i);
        assert_eq!(done.len(), 3, "every request answered exactly once");
        assert!(done[0].1.is_ok(), "the plug is served");
        assert!(done[1].1.is_ok(), "the feedback request is served");
        assert_eq!(done[2].1.as_ref().expect_err("panicked"), &"internal");

        pool.drain();
        assert!(
            count(&pool, Counter::PanicsContained) >= 1,
            "{:?}",
            pool.engine().counters()
        );
        assert_eq!(
            engine.feedback().accepted(),
            1,
            "the feedback triple enters the shared queue exactly once"
        );
        assert_eq!(engine.feedback().len(), 1);
        let card = engine
            .scoreboard()
            .snapshot()
            .into_iter()
            .find(|c| c.model == "default")
            .expect("default has a scorecard");
        assert_eq!(
            card.feedback_count, 1,
            "the scoreboard counts the triple exactly once too"
        );
    }

    #[test]
    fn forced_error_faults_answer_internal_without_executing() {
        let engine = pool_engine();
        let mut pool = ServePool::start_with_faults(
            engine,
            PoolConfig::default(),
            FaultPlan::new().error_at(0),
        );
        let (tx, rx) = mpsc::channel();
        pool.submit(ServeJob::new(
            PredictRequest::tokens(vec![1, 2]),
            move |result, _| tx.send(result.map_err(|e| e.chain())).expect("send"),
        ));
        let err = rx.recv().expect("answered").expect_err("forced error");
        assert!(err.contains("fault injection"), "{err}");
        pool.drain();
        assert_eq!(
            (count(&pool, Counter::Served), count(&pool, Counter::Errors)),
            (0, 1)
        );
        assert_eq!(
            count(&pool, Counter::PanicsContained),
            0,
            "no panic involved"
        );
    }

    #[test]
    fn expired_jobs_are_shed_at_dequeue_with_deadline_exceeded() {
        let engine = pool_engine();
        let mut pool = ServePool::start(
            engine,
            PoolConfig {
                workers: 1,
                max_batch: 1,
                max_queue: 16,
                ..PoolConfig::default()
            },
        );
        // Gate the only worker so later jobs sit in the queue.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        {
            let done = done_tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![1]),
                move |result, _| {
                    release_rx.recv().expect("released");
                    done.send(("gate", result.map_err(|e| e.kind())))
                        .expect("send");
                },
            ));
        }
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        // timeout 0 always counts as expired at dequeue; None never does.
        for (tag, timeout) in [
            ("expired", Some(Duration::ZERO)),
            ("fresh", None),
            ("expired2", Some(Duration::ZERO)),
        ] {
            let done = done_tx.clone();
            pool.submit(
                ServeJob::new(PredictRequest::tokens(vec![2, 3]), move |result, _| {
                    done.send((tag, result.map_err(|e| e.kind())))
                        .expect("send");
                })
                .timeout(timeout),
            );
        }
        release_tx.send(()).expect("release");
        drop(done_tx);
        let done: Vec<_> = done_rx.iter().collect();
        assert_eq!(done.len(), 4, "all answered exactly once");
        for (tag, result) in &done {
            match *tag {
                "gate" | "fresh" => assert!(result.is_ok(), "{tag}: {result:?}"),
                _ => assert_eq!(
                    result.as_ref().expect_err("expired"),
                    &"deadline_exceeded",
                    "{tag}"
                ),
            }
        }
        pool.drain();
        assert_eq!(count(&pool, Counter::DeadlineShed), 2);
        assert_eq!(count(&pool, Counter::Served), 2);
        assert_eq!(
            count(&pool, Counter::Errors),
            0,
            "deadline sheds are not errors"
        );
        let latency = pool.engine().counters().latency().expect("recorded");
        assert_eq!(latency.count, 4, "deadline sheds land in the histogram");
    }

    #[test]
    fn default_timeout_applies_to_jobs_without_their_own() {
        let engine = pool_engine();
        let mut pool = ServePool::start(
            engine,
            PoolConfig {
                workers: 1,
                max_batch: 1,
                max_queue: 16,
                default_timeout: Some(Duration::ZERO),
            },
        );
        let (tx, rx) = mpsc::channel();
        {
            let tx = tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![1]),
                move |result, _| tx.send(result.map_err(|e| e.kind())).expect("send"),
            ));
        }
        // An explicit generous timeout overrides the zero default.
        pool.submit(
            ServeJob::new(PredictRequest::tokens(vec![2]), move |result, _| {
                tx.send(result.map_err(|e| e.kind())).expect("send")
            })
            .timeout(Some(Duration::from_secs(3600))),
        );
        let first = rx.recv().expect("answered");
        let second = rx.recv().expect("answered");
        assert_eq!(first.expect_err("default timeout 0"), "deadline_exceeded");
        assert!(second.is_ok(), "explicit timeout overrides the default");
        pool.drain();
    }

    #[test]
    fn drain_sheds_expired_backlog_instead_of_executing_it() {
        let engine = pool_engine();
        let mut pool = ServePool::start(
            engine,
            PoolConfig {
                workers: 1,
                max_batch: 1,
                max_queue: 64,
                ..PoolConfig::default()
            },
        );
        // Gate the worker, pile up an expired backlog, then drain: the
        // backlog must be answered deadline_exceeded, not executed.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        {
            let done = done_tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![1]),
                move |result, _| {
                    release_rx.recv().expect("released");
                    done.send(result.map_err(|e| e.kind())).expect("send");
                },
            ));
        }
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        for i in 0..8u32 {
            let done = done_tx.clone();
            pool.submit(
                ServeJob::new(PredictRequest::tokens(vec![i]), move |result, _| {
                    done.send(result.map_err(|e| e.kind())).expect("send");
                })
                .timeout(Some(Duration::ZERO)),
            );
        }
        release_tx.send(()).expect("release");
        drop(done_tx);
        pool.drain();
        assert_eq!(
            count(&pool, Counter::DeadlineShed),
            8,
            "backlog shed, not executed"
        );
        assert_eq!(count(&pool, Counter::Served), 1, "only the gate job ran");
        assert_eq!(pool.depth(), 0);
        assert_eq!(done_rx.iter().count(), 9, "all answered exactly once");
    }

    #[test]
    fn panicking_completion_callback_respawns_the_worker() {
        crate::fault::silence_injected_panics();
        let engine = pool_engine();
        let mut pool = ServePool::start(
            engine,
            PoolConfig {
                workers: 1,
                max_batch: 1,
                max_queue: 16,
                ..PoolConfig::default()
            },
        );
        // The callback itself panics — outside the batch unwind guard, so
        // the worker's serving loop dies and the respawn guard restarts it.
        pool.submit(ServeJob::new(PredictRequest::tokens(vec![1]), |_, _| {
            panic!("fault injection: callback panic");
        }));
        let (tx, rx) = mpsc::channel();
        pool.submit(ServeJob::new(
            PredictRequest::tokens(vec![2]),
            move |result, _| tx.send(result.is_ok()).expect("send"),
        ));
        assert!(rx.recv().expect("served"), "respawned worker serves");
        pool.drain();
        assert_eq!(
            count(&pool, Counter::WorkersRespawned),
            1,
            "{:?}",
            pool.engine().counters()
        );
    }

    #[test]
    fn overloaded_error_is_typed_and_structured() {
        let e = Error::Overloaded { depth: 9, limit: 8 };
        assert_eq!(e.kind(), "overloaded");
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('8'), "{msg}");
        let wrapped = e.context("server is draining");
        assert_eq!(wrapped.kind(), "overloaded", "kind sees through context");
    }
}
