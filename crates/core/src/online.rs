//! Online calibration: background DPO updates, hot model swap and A/B
//! routing for the serving engine.
//!
//! The paper's dynamic-calibration experiment (Sec. 5.1) runs offline:
//! [`crate::calibrate::DpoCalibrator`] consumes profiler feedback in a
//! synchronous loop. This module turns it into a *serving* capability:
//!
//! * every [`crate::Session`] forwards its feedback triples into a shared,
//!   bounded [`FeedbackQueue`] owned by the [`Engine`] (lossy beyond
//!   capacity — feedback is advisory, serving never blocks on training);
//! * a [`Calibrator`] background worker drains the queue, runs DPO
//!   minibatch updates on a **clone** of the live model, and publishes the
//!   result into the engine registry via the existing latest-wins hot swap
//!   — the swap epoch in every [`crate::PredictResponse`] attributes each
//!   answer to the exact model version that produced it;
//! * an [`AbRouter`] deterministically splits requests that name no model
//!   across registered variants (hash of the request id, configurable
//!   weights), and a [`Scoreboard`] keeps per-model rolling accuracy and
//!   latency ([`ModelScorecard`], surfaced through `{"stats": true}`);
//! * a guardrail demotes a calibrated variant whose rolling error exceeds
//!   the incumbent's by a configured margin (swap back to the frozen
//!   reference, counted in `calibrations_rolled_back`);
//! * calibrated weights persist through the versioned model envelope
//!   ([`CalibrationMeta`] plus atomic checkpoints), so a restarted daemon
//!   resumes its learned corrections.
//!
//! Determinism contract: the gradient step is single-threaded and
//! [`CalibratorCore::ingest`] sorts each drained batch canonically before
//! updating, so any collection schedule producing the same *multiset* of
//! triples (e.g. the serve pool at 1, 2 or 4 workers) yields bit-identical
//! model deltas under a fixed seed.

use crate::calibrate::{DpoCalibrator, DpoConfig, PreferenceTriple};
use crate::counters::Counter;
use crate::engine::Engine;
use crate::error::Error;
use crate::model::NumericPredictor;
use crate::sync::unpoisoned;
use llmulator_sim::Metric;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering as CmpOrdering;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Feedback queue
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FeedbackState {
    items: VecDeque<PreferenceTriple>,
    closed: bool,
}

/// The shared, bounded cross-session feedback queue.
///
/// Sessions push preference triples as requests carry feedback; the
/// calibrator drains them in batches. Pushing never blocks: beyond
/// `capacity` the *newest* triple is dropped and counted — losing advisory
/// training signal is always preferable to stalling a serving thread. A
/// capacity of 0 disables the queue entirely (every push is a cheap no-op),
/// which is the default for engines that run no calibrator.
#[derive(Debug)]
pub struct FeedbackQueue {
    state: Mutex<FeedbackState>,
    available: Condvar,
    capacity: usize,
    accepted: AtomicU64,
    dropped: AtomicU64,
}

impl FeedbackQueue {
    /// A queue holding at most `capacity` triples (0 = disabled).
    pub fn new(capacity: usize) -> FeedbackQueue {
        FeedbackQueue {
            state: Mutex::new(FeedbackState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// True when the queue accepts triples at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers one triple. Returns `true` when it was enqueued; `false` when
    /// the queue is disabled, closed or full (full offers count as dropped).
    pub fn push(&self, triple: PreferenceTriple) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut state = unpoisoned(self.state.lock());
        if state.closed {
            return false;
        }
        if state.items.len() >= self.capacity {
            drop(state);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        state.items.push_back(triple);
        drop(state);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.available.notify_one();
        true
    }

    /// Takes everything currently queued without blocking.
    pub fn drain_now(&self) -> Vec<PreferenceTriple> {
        unpoisoned(self.state.lock()).items.drain(..).collect()
    }

    /// Takes everything queued, blocking up to `timeout` for the first
    /// triple. Returns an empty batch on timeout or when the queue closed
    /// while empty (check [`FeedbackQueue::is_closed`] to distinguish).
    pub fn drain_wait(&self, timeout: Duration) -> Vec<PreferenceTriple> {
        let mut state = unpoisoned(self.state.lock());
        if state.items.is_empty() && !state.closed {
            let (guard, _) = unpoisoned(self.available.wait_timeout(state, timeout));
            state = guard;
        }
        state.items.drain(..).collect()
    }

    /// Closes the queue: later pushes are refused and blocked drains wake.
    pub fn close(&self) {
        unpoisoned(self.state.lock()).closed = true;
        self.available.notify_all();
    }

    /// True once [`FeedbackQueue::close`] ran.
    pub fn is_closed(&self) -> bool {
        unpoisoned(self.state.lock()).closed
    }

    /// Triples currently queued.
    pub fn len(&self) -> usize {
        unpoisoned(self.state.lock()).items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Triples accepted over the queue's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Triples dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// A/B router
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the canonical route key for a wire request id.
pub fn route_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: decorrelates structured keys (sequential ids,
/// FNV of short strings) before the modulo split.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic weighted A/B split over registered model variants.
///
/// Routing is a pure function of the route key: the mixed key modulo the
/// total weight selects a variant by cumulative weight, so the same request
/// id always lands on the same variant (sticky assignment across retries
/// and restarts) and long-run traffic shares converge to the weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbRouter {
    variants: Vec<(String, u32)>,
    total: u64,
}

impl AbRouter {
    /// A router over `(model name, weight)` variants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when no variant has positive
    /// weight.
    pub fn new(variants: Vec<(String, u32)>) -> Result<AbRouter, Error> {
        let total: u64 = variants.iter().map(|(_, w)| u64::from(*w)).sum();
        if total == 0 {
            return Err(Error::InvalidArgument(
                "A/B router needs at least one variant with positive weight".into(),
            ));
        }
        Ok(AbRouter { variants, total })
    }

    /// The configured `(name, weight)` variants.
    pub fn variants(&self) -> &[(String, u32)] {
        &self.variants
    }

    /// Picks the variant for a route key (pure and total).
    pub fn pick(&self, key: u64) -> &str {
        let mut slot = mix64(key) % self.total;
        for (name, weight) in &self.variants {
            let weight = u64::from(*weight);
            if slot < weight {
                return name;
            }
            slot -= weight;
        }
        // Unreachable: the slot is < total and the weights sum to total.
        &self.variants[self.variants.len() - 1].0
    }
}

// ---------------------------------------------------------------------------
// Scoreboard
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ScoreEntry {
    model: String,
    ok_requests: u64,
    feedback_count: u64,
    errors: VecDeque<f64>,
    latency_us_sum: u64,
    latency_count: u64,
}

/// A point-in-time per-model accounting snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelScorecard {
    /// Registered model name.
    pub model: String,
    /// Requests this model answered successfully (via the serve pool).
    pub ok_requests: u64,
    /// Feedback observations recorded against this model (lifetime).
    pub feedback_count: u64,
    /// Feedback observations inside the current rolling window.
    pub window_len: usize,
    /// Mean absolute-relative-error over the rolling window, once any
    /// feedback arrived.
    pub rolling_error: Option<f64>,
    /// Mean serve latency in microseconds, once any request completed.
    pub mean_latency_us: Option<f64>,
}

/// Per-model rolling accuracy and latency accounting.
///
/// Accuracy is the mean absolute-relative-error of client-reported feedback
/// (`|actual - predicted| / |actual|`) over a sliding window, the signal
/// the rollback guardrail compares variants on. Latency is recorded by the
/// serve pool per completed ok response.
#[derive(Debug)]
pub struct Scoreboard {
    entries: Mutex<Vec<ScoreEntry>>,
    window: usize,
}

impl Scoreboard {
    /// A scoreboard with the given rolling-error window (clamped ≥ 1).
    pub fn new(window: usize) -> Scoreboard {
        Scoreboard {
            entries: Mutex::new(Vec::new()),
            window: window.max(1),
        }
    }

    /// The rolling-error window length.
    pub fn window(&self) -> usize {
        self.window
    }

    fn with_entry<R>(&self, model: &str, f: impl FnOnce(&mut ScoreEntry) -> R) -> R {
        let mut entries = unpoisoned(self.entries.lock());
        if let Some(entry) = entries.iter_mut().find(|e| e.model == model) {
            return f(entry);
        }
        entries.push(ScoreEntry {
            model: model.to_string(),
            ok_requests: 0,
            feedback_count: 0,
            errors: VecDeque::new(),
            latency_us_sum: 0,
            latency_count: 0,
        });
        let last = entries.len() - 1;
        f(&mut entries[last])
    }

    /// Counts one ok response and its serve latency against `model`.
    pub fn record_ok(&self, model: &str, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.with_entry(model, |e| {
            e.ok_requests += 1;
            e.latency_us_sum = e.latency_us_sum.saturating_add(us);
            e.latency_count += 1;
        });
    }

    /// Records one feedback observation's absolute-relative-error.
    pub fn record_feedback_error(&self, model: &str, abs_rel_error: f64) {
        let window = self.window;
        self.with_entry(model, |e| {
            e.feedback_count += 1;
            if e.errors.len() == window {
                e.errors.pop_front();
            }
            e.errors.push_back(abs_rel_error);
        });
    }

    /// The rolling error and window occupancy for one model.
    pub fn rolling_error(&self, model: &str) -> Option<(f64, usize)> {
        let entries = unpoisoned(self.entries.lock());
        let entry = entries.iter().find(|e| e.model == model)?;
        if entry.errors.is_empty() {
            return None;
        }
        let mean = entry.errors.iter().sum::<f64>() / entry.errors.len() as f64;
        Some((mean, entry.errors.len()))
    }

    /// Clears one model's rolling-error window (a demoted variant re-earns
    /// trust from scratch; lifetime counters are kept).
    pub fn reset_window(&self, model: &str) {
        self.with_entry(model, |e| e.errors.clear());
    }

    /// Scorecards for every model touched so far, in first-touch order.
    pub fn snapshot(&self) -> Vec<ModelScorecard> {
        let entries = unpoisoned(self.entries.lock());
        entries
            .iter()
            .map(|e| ModelScorecard {
                model: e.model.clone(),
                ok_requests: e.ok_requests,
                feedback_count: e.feedback_count,
                window_len: e.errors.len(),
                rolling_error: if e.errors.is_empty() {
                    None
                } else {
                    Some(e.errors.iter().sum::<f64>() / e.errors.len() as f64)
                },
                mean_latency_us: if e.latency_count == 0 {
                    None
                } else {
                    Some(e.latency_us_sum as f64 / e.latency_count as f64)
                },
            })
            .collect()
    }
}

/// The absolute-relative-error of one feedback observation, the unit the
/// scoreboard accumulates. `actual == 0` degenerates to 0/1 (right/wrong).
pub fn abs_rel_error(actual: f64, predicted: f64) -> f64 {
    if actual == 0.0 {
        return if predicted == 0.0 { 0.0 } else { 1.0 };
    }
    ((actual - predicted) / actual).abs()
}

// ---------------------------------------------------------------------------
// Persistence metadata
// ---------------------------------------------------------------------------

/// Provenance of a calibrated checkpoint, stored next to the model payload
/// in the versioned envelope (format version ≥ 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CalibrationMeta {
    /// DPO gradient steps folded into these weights.
    pub updates: u64,
    /// Hot swaps published before this checkpoint.
    pub hot_swaps: u64,
    /// Name of the incumbent model calibration started from.
    pub source: String,
}

// ---------------------------------------------------------------------------
// Calibrator core (synchronous, testable) + background worker
// ---------------------------------------------------------------------------

/// Configuration of the online calibration loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationConfig {
    /// Registry name the calibrated variant publishes under.
    pub variant: String,
    /// Registry name of the frozen incumbent the guardrail compares to.
    pub incumbent: String,
    /// DPO hyper-parameters (fixed seed ⇒ deterministic updates).
    pub dpo: DpoConfig,
    /// Publish a hot swap after this many gradient steps (clamped ≥ 1).
    pub swap_every: u64,
    /// Demote when the variant's rolling error exceeds the incumbent's by
    /// more than this margin.
    pub rollback_margin: f64,
    /// Minimum rolling-window occupancy (both models) before the guardrail
    /// compares.
    pub min_window: usize,
    /// Write a checkpoint after this many gradient steps (0 = only the
    /// final checkpoint on shutdown).
    pub checkpoint_every: u64,
    /// Checkpoint destination; `None` disables persistence.
    pub checkpoint_path: Option<PathBuf>,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            variant: "calibrated".to_string(),
            incumbent: "default".to_string(),
            dpo: DpoConfig::default(),
            swap_every: 1,
            rollback_margin: 0.25,
            min_window: 8,
            checkpoint_every: 0,
            checkpoint_path: None,
        }
    }
}

/// Canonical order for a drained feedback batch: (metric, tokens, y_w,
/// y_l). Collection order depends on worker scheduling; sorting restores a
/// schedule-independent update sequence (same multiset ⇒ same updates).
fn sort_triples(triples: &mut [PreferenceTriple]) {
    let metric_index =
        |m: Metric| -> usize { Metric::all().iter().position(|&x| x == m).unwrap_or(0) };
    triples.sort_by(|a, b| {
        metric_index(a.metric)
            .cmp(&metric_index(b.metric))
            .then_with(|| a.tokens.cmp(&b.tokens))
            .then_with(|| a.y_w.cmp(&b.y_w))
            .then_with(|| a.y_l.cmp(&b.y_l))
    });
}

/// The synchronous calibration state machine: ingest sorted feedback
/// batches, publish hot swaps, enforce the rollback guardrail, write
/// checkpoints. [`Calibrator::spawn`] drives it from a background thread;
/// tests drive it directly for deterministic, single-threaded updates.
#[derive(Debug)]
pub struct CalibratorCore {
    engine: Arc<Engine>,
    config: CalibrationConfig,
    model: NumericPredictor,
    dpo: DpoCalibrator,
    steps_since_swap: u64,
    steps_since_checkpoint: u64,
}

impl CalibratorCore {
    /// Starts calibration from `start` (the incumbent's clone, or a resumed
    /// checkpoint) and registers it in the engine under the variant name,
    /// so the A/B router can target it immediately.
    pub fn new(engine: Arc<Engine>, start: NumericPredictor, config: CalibrationConfig) -> Self {
        let dpo = DpoCalibrator::new(&start, config.dpo);
        engine.register_predictor(config.variant.clone(), start.clone());
        CalibratorCore {
            engine,
            config,
            model: start,
            dpo,
            steps_since_swap: 0,
            steps_since_checkpoint: 0,
        }
    }

    /// The engine this calibrator publishes into.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The working model (the next model to be published).
    pub fn model(&self) -> &NumericPredictor {
        &self.model
    }

    /// The loop configuration.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// Folds one drained batch into the working model; returns the number
    /// of gradient steps applied. The batch is sorted canonically first
    /// (see [`sort_triples`]), making the update sequence independent of
    /// the collection schedule.
    pub fn ingest(&mut self, mut triples: Vec<PreferenceTriple>) -> u64 {
        sort_triples(&mut triples);
        let mut steps = 0u64;
        for triple in triples {
            steps += self.dpo.observe_triple(&mut self.model, triple) as u64;
        }
        if steps > 0 {
            self.steps_since_swap += steps;
            self.steps_since_checkpoint += steps;
            self.engine.counters().add(Counter::Updates, steps);
        }
        steps
    }

    /// Publishes the working model when enough steps accumulated since the
    /// last swap; returns whether a swap happened.
    pub fn maybe_swap(&mut self) -> bool {
        if self.steps_since_swap == 0 || self.steps_since_swap < self.config.swap_every.max(1) {
            return false;
        }
        self.publish();
        true
    }

    /// Unconditionally hot-swaps the working model into the registry.
    pub fn publish(&mut self) {
        self.engine
            .register_predictor(self.config.variant.clone(), self.model.clone());
        self.engine.counters().add(Counter::HotSwaps, 1);
        self.steps_since_swap = 0;
    }

    /// The guardrail: when both rolling windows are warm and the variant's
    /// error exceeds the incumbent's by more than the margin, the frozen
    /// reference is republished under the variant name, the variant's
    /// window is reset and calibration restarts from the reference.
    pub fn maybe_rollback(&mut self) -> bool {
        let scores = self.engine.scoreboard();
        let Some((variant_err, variant_n)) = scores.rolling_error(&self.config.variant) else {
            return false;
        };
        let Some((incumbent_err, incumbent_n)) = scores.rolling_error(&self.config.incumbent)
        else {
            return false;
        };
        if variant_n < self.config.min_window || incumbent_n < self.config.min_window {
            return false;
        }
        match variant_err.partial_cmp(&(incumbent_err + self.config.rollback_margin)) {
            Some(CmpOrdering::Greater) => {}
            _ => return false,
        }
        self.model = self.dpo.reference().clone();
        self.dpo = DpoCalibrator::new(&self.model, self.config.dpo);
        self.engine
            .register_predictor(self.config.variant.clone(), self.model.clone());
        self.engine.scoreboard().reset_window(&self.config.variant);
        self.engine
            .counters()
            .add(Counter::CalibrationsRolledBack, 1);
        self.steps_since_swap = 0;
        true
    }

    /// Writes an atomic checkpoint of the working model (with
    /// [`CalibrationMeta`] provenance) when a path is configured; returns
    /// whether one was written.
    ///
    /// # Errors
    ///
    /// Propagates the persistence failure (the caller decides whether to
    /// keep calibrating).
    pub fn checkpoint(&mut self) -> Result<bool, Error> {
        let Some(path) = self.config.checkpoint_path.clone() else {
            return Ok(false);
        };
        let counters = self.engine.counters();
        let meta = CalibrationMeta {
            updates: counters.get(Counter::Updates),
            hot_swaps: counters.get(Counter::HotSwaps),
            source: self.config.incumbent.clone(),
        };
        self.model.save_calibrated(&path, &meta).map_err(|e| {
            Error::from(e).context(format!("cannot write checkpoint `{}`", path.display()))
        })?;
        self.steps_since_checkpoint = 0;
        counters.add(Counter::Checkpoints, 1);
        Ok(true)
    }

    fn maybe_checkpoint(&mut self) -> Result<bool, Error> {
        if self.config.checkpoint_every == 0
            || self.steps_since_checkpoint < self.config.checkpoint_every
        {
            return Ok(false);
        }
        self.checkpoint()
    }

    /// One full background cycle: ingest, maybe swap, guardrail, maybe
    /// checkpoint (checkpoint failures are counted, never fatal). Returns
    /// the gradient steps applied.
    pub fn run_cycle(&mut self, triples: Vec<PreferenceTriple>) -> u64 {
        let steps = self.ingest(triples);
        self.maybe_swap();
        self.maybe_rollback();
        if self.maybe_checkpoint().is_err() {
            self.engine.counters().add(Counter::CheckpointErrors, 1);
        }
        steps
    }
}

/// How long the background worker blocks waiting for feedback before
/// re-checking the guardrail and the shutdown flag.
const DRAIN_WAIT: Duration = Duration::from_millis(50);

/// Handle to the background calibration worker. Dropping (or
/// [`Calibrator::stop`]) closes the feedback queue, joins the thread and —
/// when a checkpoint path is configured — leaves a final checkpoint on
/// disk.
#[derive(Debug)]
pub struct Calibrator {
    engine: Arc<Engine>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Calibrator {
    /// Spawns the worker thread around a prepared [`CalibratorCore`].
    pub fn spawn(core: CalibratorCore) -> Calibrator {
        let engine = Arc::clone(core.engine());
        let handle = std::thread::Builder::new()
            .name("llmulator-calibrator".to_string())
            .spawn(move || calibrator_loop(core))
            .ok();
        Calibrator { engine, handle }
    }

    /// The engine the worker publishes into.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Graceful shutdown: close the queue, join the worker (it drains the
    /// remaining feedback and writes the final checkpoint first).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.engine.feedback().close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn calibrator_loop(mut core: CalibratorCore) {
    let engine = Arc::clone(core.engine());
    loop {
        let batch = engine.feedback().drain_wait(DRAIN_WAIT);
        if !batch.is_empty() {
            core.run_cycle(batch);
        } else if engine.feedback().is_closed() {
            break;
        } else {
            // Idle tick: feedback against the incumbent may have arrived
            // without new training signal — still enforce the guardrail.
            core.maybe_rollback();
        }
    }
    // Final state: publish what was learned, then checkpoint it.
    if core.steps_since_swap > 0 {
        core.publish();
    }
    if core.checkpoint().is_err() {
        engine.counters().add(Counter::CheckpointErrors, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple(i: u64) -> PreferenceTriple {
        PreferenceTriple {
            tokens: vec![i as u32, (i * 7) as u32],
            metric: Metric::Cycles,
            y_w: i + 100,
            y_l: i,
        }
    }

    #[test]
    fn queue_is_bounded_and_counts_accept_and_drop() {
        let queue = FeedbackQueue::new(2);
        assert!(queue.is_enabled());
        assert!(queue.push(triple(0)));
        assert!(queue.push(triple(1)));
        assert!(!queue.push(triple(2)), "full queue drops the newest");
        assert_eq!((queue.accepted(), queue.dropped(), queue.len()), (2, 1, 2));
        let drained = queue.drain_now();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].y_w, 100, "FIFO order");
        assert!(queue.is_empty());
        assert!(queue.push(triple(3)), "drained queue accepts again");
    }

    #[test]
    fn disabled_queue_refuses_without_counting() {
        let queue = FeedbackQueue::new(0);
        assert!(!queue.is_enabled());
        assert!(!queue.push(triple(0)));
        assert_eq!((queue.accepted(), queue.dropped()), (0, 0));
    }

    #[test]
    fn closed_queue_wakes_drainers_and_refuses_pushes() {
        let queue = Arc::new(FeedbackQueue::new(8));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.drain_wait(Duration::from_secs(30)))
        };
        queue.close();
        let drained = waiter.join().expect("joins");
        assert!(drained.is_empty());
        assert!(queue.is_closed());
        assert!(!queue.push(triple(0)));
    }

    #[test]
    fn drain_wait_returns_pushed_triples() {
        let queue = Arc::new(FeedbackQueue::new(8));
        let pusher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                queue.push(triple(5));
            })
        };
        // Either the push lands before the drain (immediate) or the condvar
        // wakes the drain; both return the triple within the long timeout.
        let mut got = Vec::new();
        for _ in 0..200 {
            got = queue.drain_wait(Duration::from_millis(100));
            if !got.is_empty() {
                break;
            }
        }
        pusher.join().expect("joins");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].y_w, 105);
    }

    #[test]
    fn router_is_a_deterministic_partition() {
        let router = AbRouter::new(vec![("a".into(), 3), ("b".into(), 1)]).expect("valid");
        for key in 0..256u64 {
            assert_eq!(router.pick(key), router.pick(key), "sticky per key");
        }
        let to_a = (0..4096u64).filter(|&k| router.pick(k) == "a").count();
        // 3:1 split over mixed sequential keys: expect ~3072, allow slack.
        assert!(
            (2800..3350).contains(&to_a),
            "weights roughly respected: {to_a}/4096"
        );
    }

    #[test]
    fn router_rejects_zero_total_weight_and_honors_zero_weight_variants() {
        assert!(AbRouter::new(vec![]).is_err());
        assert!(AbRouter::new(vec![("a".into(), 0)]).is_err());
        let router = AbRouter::new(vec![("a".into(), 0), ("b".into(), 5)]).expect("valid");
        assert!((0..512u64).all(|k| router.pick(k) == "b"));
    }

    #[test]
    fn route_key_is_stable_fnv() {
        // FNV-1a test vector: the empty input hashes to the offset basis.
        assert_eq!(route_key(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(route_key(b"\"c0-r0\""), route_key(b"\"c0-r0\""));
        assert_ne!(route_key(b"\"c0-r0\""), route_key(b"\"c0-r1\""));
    }

    #[test]
    fn scoreboard_windows_roll_and_reset() {
        let scores = Scoreboard::new(2);
        scores.record_feedback_error("m", 1.0);
        scores.record_feedback_error("m", 0.5);
        scores.record_feedback_error("m", 0.1);
        let (err, n) = scores.rolling_error("m").expect("warm");
        assert_eq!(n, 2, "window slides");
        assert!((err - 0.3).abs() < 1e-12, "mean of the last two: {err}");
        scores.record_ok("m", Duration::from_micros(500));
        scores.record_ok("m", Duration::from_micros(1500));
        let snap = scores.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].ok_requests, 2);
        assert_eq!(snap[0].feedback_count, 3);
        assert_eq!(snap[0].mean_latency_us, Some(1000.0));
        scores.reset_window("m");
        assert!(scores.rolling_error("m").is_none());
        let snap = scores.snapshot();
        assert_eq!(snap[0].feedback_count, 3, "lifetime counter survives");
    }

    #[test]
    fn abs_rel_error_handles_zero_actual() {
        assert_eq!(abs_rel_error(0.0, 0.0), 0.0);
        assert_eq!(abs_rel_error(0.0, 5.0), 1.0);
        assert!((abs_rel_error(100.0, 150.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn triples_sort_canonically() {
        let mut batch = vec![triple(3), triple(1), triple(2)];
        sort_triples(&mut batch);
        let order: Vec<u64> = batch.iter().map(|t| t.y_l).collect();
        assert_eq!(order, vec![1, 2, 3]);
        // Metric dominates the token order.
        let mut batch = vec![
            PreferenceTriple {
                tokens: vec![1],
                metric: Metric::Cycles,
                y_w: 1,
                y_l: 0,
            },
            PreferenceTriple {
                tokens: vec![9],
                metric: Metric::all()[0],
                y_w: 1,
                y_l: 0,
            },
        ];
        sort_triples(&mut batch);
        assert_eq!(batch[0].metric, Metric::all()[0]);
    }
}
