//! The long-lived prediction engine behind every serving surface.
//!
//! The paper's deployment story is a cost model queried repeatedly —
//! design-space sweeps, online calibration against profiler feedback
//! (Sec. 5.1) — which needs a persistent query engine, not one-shot entry
//! points. This module is that engine:
//!
//! * an [`Engine`] owns a registry of named loaded models (the
//!   [`NumericPredictor`] and any [`CostModel`] baseline, behind the
//!   object-safe [`ServableModel`] trait) plus serving defaults
//!   ([`EngineConfig`], builder-style);
//! * its one counter registry ([`Engine::counters`]) holds every lifetime
//!   count the serving layers make (pool, transports, session memos, the
//!   online calibrator) and the latency histogram of completed requests,
//!   so every stats surface reads the same numbers;
//! * a [`Session`] holds the per-client mutable state — a [`Scratch`]
//!   arena reused across requests so a steady-state encoder pass allocates
//!   nothing per call, and a small prediction memo keyed on
//!   `(swap epoch, token sequence)` so a repeated request skips the
//!   encoder forward and decode;
//! * typed [`PredictRequest`] / [`PredictResponse`] messages carry program
//!   source or pre-tokenized input, a metric subset, a thread-count
//!   override, and optional profiler feedback. Digits decode greedily
//!   ([`crate::numeric::DigitDistribution::greedy`]), so no request picks
//!   a decode width.
//!
//! Every request takes one path: [`Session::predict_micro_batch`] resolves,
//! validates and records feedback for each request, answers the sequences
//! the session's memo holds, then runs one forward pass per remaining
//! sequence ([`NumericPredictor::predict_tokens_with`]): on the session's
//! scratch arena when there is one miss or one thread, otherwise as one
//! parallel map over the misses of all requests sharing a predictor
//! version ([`NumericPredictor::predict_tokens_batch_threads`]).
//! [`Session::predict`] is that path with a batch of one, so an engine
//! answer is exactly equal to calling the predictor directly, alone or
//! micro-batched, memoized or not.

use crate::calibrate::PreferenceTriple;
use crate::counters::{Counter, Counters};
use crate::dataset::{CostModel, Sample};
use crate::encode::SegmentedText;
use crate::error::Error;
use crate::model::{NumericPredictor, Prediction};
use crate::numeric::metric_to_int;
use crate::online::{abs_rel_error, AbRouter, FeedbackQueue, Scoreboard};
use crate::sync::unpoisoned;
use llmulator_ir::{parse, InputData, Program};
use llmulator_nn::Scratch;
use llmulator_sim::{CostVector, Metric};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The unified object-safe interface every servable model implements.
///
/// Baselines come in through the blanket [`CostModel`] supertrait; the
/// [`NumericPredictor`] additionally exposes itself via
/// [`ServableModel::as_predictor`], which unlocks the token path,
/// pre-tokenized inputs, digit confidences and calibration feedback.
pub trait ServableModel: CostModel + Send + Sync {
    /// The numeric predictor behind this model, when it is one.
    fn as_predictor(&self) -> Option<&NumericPredictor> {
        None
    }
}

impl ServableModel for NumericPredictor {
    fn as_predictor(&self) -> Option<&NumericPredictor> {
        Some(self)
    }
}

/// Adapter giving any [`CostModel`] a [`ServableModel`] face (used by
/// [`Engine::register_baseline`]; a blanket impl would conflict with the
/// predictor's specialized one).
struct BaselineModel<M>(M);

impl<M: CostModel> CostModel for BaselineModel<M> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn predict(&self, sample: &Sample) -> CostVector {
        self.0.predict(sample)
    }

    fn predict_batch(&self, samples: &[Sample]) -> Vec<CostVector> {
        self.0.predict_batch(samples)
    }

    fn try_predict_batch(&self, samples: &[Sample]) -> Result<Vec<CostVector>, Error> {
        self.0.try_predict_batch(samples)
    }
}

impl<M: CostModel + Send + Sync> ServableModel for BaselineModel<M> {}

/// Serving defaults, built builder-style:
///
/// ```
/// use llmulator::{Engine, EngineConfig};
/// let engine: Engine = EngineConfig::new()
///     .default_model("prod")
///     .threads(2)
///     .build();
/// assert!(engine.model_names().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    default_model: String,
    threads: usize,
    feedback_capacity: usize,
    score_window: usize,
}

impl EngineConfig {
    /// Defaults: model name `"default"`, one prediction worker per
    /// available core, shared feedback queue disabled, rolling-accuracy
    /// window of 64.
    pub fn new() -> EngineConfig {
        EngineConfig {
            default_model: "default".to_string(),
            threads: llmulator_nn::available_threads(),
            feedback_capacity: 0,
            score_window: 64,
        }
    }

    /// Name resolved when a request does not pick a model.
    #[must_use]
    pub fn default_model(mut self, name: impl Into<String>) -> EngineConfig {
        self.default_model = name.into();
        self
    }

    /// Worker threads for batch prediction (clamped to at least 1). Also
    /// the ceiling on a request's own `threads` override.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads.max(1);
        self
    }

    /// Capacity of the engine's shared cross-session [`FeedbackQueue`]
    /// (0 = disabled, the default — enable it when a
    /// [`crate::online::Calibrator`] consumes the queue).
    #[must_use]
    pub fn feedback_capacity(mut self, capacity: usize) -> EngineConfig {
        self.feedback_capacity = capacity;
        self
    }

    /// Rolling window of the per-model accuracy [`Scoreboard`].
    #[must_use]
    pub fn score_window(mut self, window: usize) -> EngineConfig {
        self.score_window = window;
        self
    }

    /// Finishes the builder into an empty engine.
    #[must_use]
    pub fn build(self) -> Engine {
        Engine::new(self)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new()
    }
}

/// One registry entry: the model, behind an [`Arc`] so in-flight requests
/// finish on the version they resolved even while a hot swap replaces it.
struct Registered {
    name: String,
    epoch: u64,
    model: Arc<dyn ServableModel>,
}

/// A resolved model: owned name + swap epoch + a strong reference to the
/// exact version the request will be served by. Holding the [`Arc`] (not a
/// registry borrow) is what makes hot swaps non-blocking: a swap only
/// retires the old version once its last in-flight request drops it.
#[derive(Clone)]
pub struct Resolved {
    /// The registered model name the request resolved to.
    pub name: String,
    /// The swap epoch of this registration (monotonic across the engine;
    /// echoed in [`PredictResponse::epoch`]).
    pub epoch: u64,
    /// The model version itself.
    pub model: Arc<dyn ServableModel>,
}

impl std::fmt::Debug for Resolved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resolved")
            .field("name", &self.name)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// A long-lived prediction engine: named model registry, serving defaults,
/// the counter registry and the online-calibration surfaces (feedback
/// queue, A/B router, per-model scoreboard).
///
/// The engine is `Sync` and every mutating surface takes `&self` behind
/// interior locks, so one engine can back many concurrent [`Session`]s
/// while a background [`crate::online::Calibrator`] hot-swaps models into
/// the registry (latest wins; see [`Resolved`] for why serving threads
/// never block on a swap).
pub struct Engine {
    config: EngineConfig,
    models: RwLock<Vec<Registered>>,
    swap_epoch: AtomicU64,
    router: RwLock<Option<AbRouter>>,
    feedback: FeedbackQueue,
    scores: Scoreboard,
    counters: Counters,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("models", &self.model_names())
            .field("swap_epoch", &self.swap_epoch())
            .finish()
    }
}

impl Engine {
    /// Empty engine with the given serving defaults.
    pub fn new(config: EngineConfig) -> Engine {
        let feedback = FeedbackQueue::new(config.feedback_capacity);
        let scores = Scoreboard::new(config.score_window);
        Engine {
            config,
            models: RwLock::new(Vec::new()),
            swap_epoch: AtomicU64::new(0),
            router: RwLock::new(None),
            feedback,
            scores,
            counters: Counters::default(),
        }
    }

    /// The serving defaults.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registers any servable model under `name`. Re-registering a name
    /// replaces the previous model (latest wins) — this is the hot-swap
    /// primitive: in-flight requests keep the version they resolved, new
    /// requests see the replacement and a fresh swap epoch.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        model: Box<dyn ServableModel>,
    ) -> &Engine {
        let name = name.into();
        let model: Arc<dyn ServableModel> = Arc::from(model);
        let mut models = unpoisoned(self.models.write());
        let epoch = self.swap_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        match models.iter_mut().find(|r| r.name == name) {
            Some(slot) => {
                slot.model = model;
                slot.epoch = epoch;
            }
            None => models.push(Registered { name, epoch, model }),
        }
        self
    }

    /// Registers a trained numeric predictor under `name`.
    pub fn register_predictor(&self, name: impl Into<String>, model: NumericPredictor) -> &Engine {
        self.register_model(name, Box::new(model))
    }

    /// Registers a baseline cost model under `name`.
    pub fn register_baseline<M: CostModel + Send + Sync + 'static>(
        &self,
        name: impl Into<String>,
        model: M,
    ) -> &Engine {
        self.register_model(name, Box::new(BaselineModel(model)))
    }

    /// Loads a predictor from a model file (see [`NumericPredictor::save`])
    /// and registers it under `name`.
    ///
    /// # Errors
    ///
    /// Returns a [`Error::Persist`]-rooted chain naming the file on
    /// filesystem, decode or format-version failure.
    pub fn load_predictor(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<&Engine, Error> {
        let path = path.as_ref();
        let model = NumericPredictor::load(path).map_err(|e| {
            Error::from(e).context(format!("cannot load model `{}`", path.display()))
        })?;
        Ok(self.register_predictor(name, model))
    }

    /// Registered model names, in registration order.
    pub fn model_names(&self) -> Vec<String> {
        unpoisoned(self.models.read())
            .iter()
            .map(|r| r.name.clone())
            .collect()
    }

    /// True when `name` is registered.
    pub fn has_model(&self, name: &str) -> bool {
        unpoisoned(self.models.read())
            .iter()
            .any(|r| r.name == name)
    }

    /// The current swap epoch: increments on every (re)registration, so
    /// comparing two responses' [`PredictResponse::epoch`] says whether a
    /// hot swap happened between them.
    pub fn swap_epoch(&self) -> u64 {
        self.swap_epoch.load(Ordering::Relaxed)
    }

    /// Resolves a request's model choice (`None` means the configured
    /// default) against the registry. The returned [`Resolved`] owns a
    /// strong reference to the version it picked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownModel`] listing the loaded names.
    pub fn resolve(&self, name: Option<&str>) -> Result<Resolved, Error> {
        let wanted = name.unwrap_or(&self.config.default_model);
        let models = unpoisoned(self.models.read());
        models
            .iter()
            .find(|r| r.name == wanted)
            .map(|r| Resolved {
                name: r.name.clone(),
                epoch: r.epoch,
                model: Arc::clone(&r.model),
            })
            .ok_or_else(|| Error::UnknownModel {
                name: wanted.to_string(),
                available: models.iter().map(|r| r.name.clone()).collect(),
            })
    }

    /// Resolves like [`Engine::resolve`], but requests that name no model
    /// are split across variants by the configured [`AbRouter`] (when one
    /// is set) using `route_key` — the serving path's entry point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownModel`] listing the loaded names.
    pub fn resolve_routed(&self, name: Option<&str>, route_key: u64) -> Result<Resolved, Error> {
        if name.is_none() {
            let picked = unpoisoned(self.router.read())
                .as_ref()
                .map(|router| router.pick(route_key).to_string());
            if let Some(variant) = picked {
                return self.resolve(Some(&variant));
            }
        }
        self.resolve(name)
    }

    /// Installs (or clears) the A/B router splitting default-model traffic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownModel`] when a routed variant is not
    /// registered — a router must never send traffic into a resolution
    /// error.
    pub fn set_router(&self, router: Option<AbRouter>) -> Result<(), Error> {
        if let Some(router) = &router {
            for (name, weight) in router.variants() {
                if *weight > 0 && !self.has_model(name) {
                    return Err(Error::UnknownModel {
                        name: name.clone(),
                        available: self.model_names(),
                    });
                }
            }
        }
        *unpoisoned(self.router.write()) = router;
        Ok(())
    }

    /// The installed A/B router, when one is set.
    pub fn router(&self) -> Option<AbRouter> {
        unpoisoned(self.router.read()).clone()
    }

    /// The shared cross-session feedback queue (disabled unless
    /// [`EngineConfig::feedback_capacity`] is positive).
    pub fn feedback(&self) -> &FeedbackQueue {
        &self.feedback
    }

    /// The per-model rolling accuracy/latency scoreboard.
    pub fn scoreboard(&self) -> &Scoreboard {
        &self.scores
    }

    /// The lifetime counters and request latencies of every layer serving
    /// this engine (see [`Counter`]).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Opens a serving session against this engine.
    pub fn session(&self) -> Session<'_> {
        Session {
            engine: self,
            scratch: Scratch::new(),
            memo: HashMap::new(),
            served: 0,
        }
    }
}

/// One prediction input.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictInput {
    /// Program source in the CLI's C-like surface syntax plus scalar input
    /// bindings; parsed, validated and encoded exactly like the direct data
    /// format (no profiling — this is a prediction, not ground truth).
    Source {
        /// The program text.
        program: String,
        /// `name = value` runtime bindings.
        inputs: Vec<(String, i64)>,
    },
    /// Pre-tokenized model input (predictor models only — baselines
    /// featurize the IR and cannot consume raw tokens).
    Tokens(Vec<u32>),
    /// An already-built sample (e.g. from a dataset or cache).
    Sample(Box<Sample>),
}

/// Calibration feedback for one request item: the profiler's ground truth
/// against the model's earlier prediction, in the metric's natural unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feedback {
    /// Index of the request input the feedback belongs to.
    pub item: usize,
    /// The profiled metric.
    pub metric: Metric,
    /// Ground-truth ("winning") value.
    pub actual: f64,
    /// Model-predicted ("losing") value.
    pub predicted: f64,
}

/// A typed prediction request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictRequest {
    /// Model name; `None` resolves the engine's configured default.
    pub model: Option<String>,
    /// One or more inputs, predicted as a batch.
    pub inputs: Vec<PredictInput>,
    /// Metric subset (response order follows this); `None` means all four.
    pub metrics: Option<Vec<Metric>>,
    /// Worker-thread override for this request, capped at
    /// [`EngineConfig::threads`].
    pub threads: Option<usize>,
    /// Optional profiler feedback routed into the engine's shared feedback
    /// queue and per-model scoreboard.
    pub feedback: Option<Feedback>,
    /// A/B routing key (e.g. a hash of the wire request id). Only consulted
    /// when `model` is `None` and the engine has a router; absent keys
    /// route as key 0.
    pub route_key: Option<u64>,
}

impl PredictRequest {
    /// Empty request (add inputs with the builder methods).
    pub fn new() -> PredictRequest {
        PredictRequest::default()
    }

    /// Request for one pre-tokenized input.
    pub fn tokens(tokens: Vec<u32>) -> PredictRequest {
        PredictRequest::new().input(PredictInput::Tokens(tokens))
    }

    /// Request for one program source with bindings.
    pub fn source(program: impl Into<String>, inputs: Vec<(String, i64)>) -> PredictRequest {
        PredictRequest::new().input(PredictInput::Source {
            program: program.into(),
            inputs,
        })
    }

    /// Request for one existing sample.
    pub fn sample(sample: Sample) -> PredictRequest {
        PredictRequest::new().input(PredictInput::Sample(Box::new(sample)))
    }

    /// Appends an input.
    #[must_use]
    pub fn input(mut self, input: PredictInput) -> PredictRequest {
        self.inputs.push(input);
        self
    }

    /// Targets a specific registered model.
    #[must_use]
    pub fn for_model(mut self, name: impl Into<String>) -> PredictRequest {
        self.model = Some(name.into());
        self
    }

    /// Restricts the response to a metric subset.
    #[must_use]
    pub fn metrics(mut self, metrics: Vec<Metric>) -> PredictRequest {
        self.metrics = Some(metrics);
        self
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> PredictRequest {
        self.threads = Some(threads);
        self
    }

    /// Attaches calibration feedback.
    #[must_use]
    pub fn feedback(mut self, feedback: Feedback) -> PredictRequest {
        self.feedback = Some(feedback);
        self
    }

    /// Sets the A/B routing key (see [`PredictRequest::route_key`]).
    #[must_use]
    pub fn route_key(mut self, key: u64) -> PredictRequest {
        self.route_key = Some(key);
        self
    }

    /// A copy of the request with any calibration feedback stripped. The
    /// serve pool uses this when retrying a request singly after a
    /// contained batch panic: `predict_micro_batch` records feedback during
    /// planning (before the forward passes run), so replaying the original
    /// request would count the triple twice.
    #[must_use]
    pub fn without_feedback(&self) -> PredictRequest {
        PredictRequest {
            feedback: None,
            ..self.clone()
        }
    }
}

/// One metric of one predicted item. Predictor models fill the digit-level
/// fields; baselines report the value alone.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Which metric.
    pub metric: Metric,
    /// Predicted value in the metric's natural unit.
    pub value: f64,
    /// Chosen digits, MSB first (predictor models).
    pub digits: Option<Vec<u8>>,
    /// Final-position confidence (predictor models).
    pub confidence: Option<f32>,
    /// Geometric-mean confidence (predictor models).
    pub mean_confidence: Option<f32>,
}

/// All requested metrics for one input.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemPrediction {
    /// One entry per requested metric, in request order.
    pub metrics: Vec<MetricValue>,
}

impl ItemPrediction {
    /// The value for one metric, when it was requested.
    pub fn value(&self, metric: Metric) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.metric == metric)
            .map(|m| m.value)
    }
}

/// A typed prediction response.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// The resolved model name that served the request.
    pub model: String,
    /// The swap epoch of the model version that served the request —
    /// attributes every answer to an exact registry generation across hot
    /// swaps.
    pub epoch: u64,
    /// One entry per request input, in input order.
    pub items: Vec<ItemPrediction>,
}

/// Entries a session's prediction memo holds. A full memo first drops the
/// entries of epochs no longer registered (a swapped-out version can never
/// hit again), and is cleared only if the live entries alone still fill it,
/// so a hot swap of one variant keeps every other variant's entries.
const MEMO_CAPACITY: usize = 64;

/// Per-client serving state: a reusable scratch arena and a prediction
/// memo. Sessions are cheap; open one per connection/worker.
///
/// The memo maps `(epoch, tokens)` to that sequence's prediction for all
/// four metrics, where `epoch` is the swap epoch of the model version the
/// request resolved to ([`Resolved::epoch`]). Forward plus decode is a
/// pure function of the weights and the tokens, a registered version never
/// changes in place, and every (re)registration takes a fresh epoch, so a
/// hit is bit-identical to recomputing and can never serve a swapped-out
/// model. It holds at most 64 entries (`MEMO_CAPACITY`) and stores the
/// per-metric value, digits and confidences, not the digit distributions.
/// Being per session, it needs no lock.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    scratch: Scratch,
    memo: HashMap<(u64, Vec<u32>), ItemPrediction>,
    served: usize,
}

impl<'e> Session<'e> {
    /// The engine this session serves from.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Requests served so far (successful predictions only).
    pub fn served(&self) -> usize {
        self.served
    }

    /// Answers one request: [`Session::predict_micro_batch`] with a batch
    /// of one.
    ///
    /// Predictor-backed answers are bit-identical to calling
    /// [`NumericPredictor::predict_sample`] /
    /// [`NumericPredictor::predict_tokens`] directly on each input.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownModel`] for an unregistered model,
    /// [`Error::InvalidRequest`] for structural problems (no inputs, empty
    /// metric list, token input to a baseline, feedback out of range) and
    /// [`Error::Ir`] chains for unparseable program source.
    pub fn predict(&mut self, request: &PredictRequest) -> Result<PredictResponse, Error> {
        let mut results = self.predict_micro_batch(std::slice::from_ref(request));
        results
            .pop()
            .unwrap_or_else(|| Err(Error::Internal("a batch of one got no answer".into())))
    }

    /// Answers a queue of requests, micro-batching across them — the one
    /// request path behind every serving surface.
    ///
    /// Each request is resolved and validated on its own, so one that
    /// fails gets its own `Err` slot without poisoning the batch, and its
    /// feedback is recorded only once it validates (memo hits included).
    /// Baseline requests are answered directly. Each token sequence of the
    /// remaining requests is then looked up in the session's memo under
    /// the epoch its request resolved to (see [`Session`]); a request whose
    /// sequences all hit runs no forward. The misses of all requests that
    /// share a predictor version run one forward pass each: as one
    /// [`NumericPredictor::predict_tokens_batch_threads`] parallel map, or
    /// on the session's scratch arena (allocation-free in steady state)
    /// when there is one miss or the group asks for one thread. They are
    /// memoized and split back per request. Responses keep request order,
    /// and each equals the response the request would get in a batch of
    /// its own on a fresh session.
    pub fn predict_micro_batch(
        &mut self,
        requests: &[PredictRequest],
    ) -> Vec<Result<PredictResponse, Error>> {
        // Resolve first: every answer starts as its model's name and epoch,
        // and `models` keeps each resolved version alive while the plans
        // borrow its predictor — a hot swap mid-batch cannot reach them.
        let (mut out, models): (Vec<Result<PredictResponse, Error>>, Vec<_>) = requests
            .iter()
            .map(|request| {
                let resolved = self.engine.resolve_routed(
                    request.model.as_deref(),
                    request.route_key.unwrap_or_default(),
                );
                match resolved {
                    Ok(r) => {
                        let response = PredictResponse {
                            model: r.name,
                            epoch: r.epoch,
                            items: Vec::new(),
                        };
                        (Ok(response), Some(r.model))
                    }
                    Err(e) => (Err(e), None),
                }
            })
            .unzip();
        let mut plans = Vec::new();
        for (i, (request, model)) in requests.iter().zip(&models).enumerate() {
            let (Some(model), Ok(response)) = (model, &mut out[i]) else {
                continue;
            };
            match self.plan(i, request, model.as_ref(), response) {
                Ok(Some(plan)) => plans.push(plan),
                Ok(None) => {}
                Err(e) => out[i] = Err(e),
            }
        }

        // Group plans sharing a predictor version (and so an epoch): look
        // every sequence up in the memo, predict the misses, memoize them,
        // then split the items back in request order.
        let (mut hits, mut misses) = (0, 0);
        let mut remaining = plans;
        while let Some(first) = remaining.first() {
            let (predictor, epoch) = (first.predictor, first.epoch);
            let (mut group, rest): (Vec<Plan>, Vec<Plan>) = remaining
                .into_iter()
                .partition(|p| std::ptr::eq(p.predictor, predictor));
            remaining = rest;
            let threads = group.iter().map(|p| p.threads).max().unwrap_or(1);
            // One slot per sequence: its memoized item, or `None` for a
            // miss, whose tokens join `todo` in the same order.
            let mut items: Vec<Option<ItemPrediction>> = Vec::new();
            let mut todo: Vec<Vec<u32>> = Vec::new();
            for seq in group.iter_mut().flat_map(|p| std::mem::take(&mut p.seqs)) {
                let key = (epoch, seq);
                let item = self.memo.get(&key).cloned();
                if item.is_none() {
                    todo.push(key.1);
                }
                items.push(item);
            }
            hits += items.len() - todo.len();
            misses += todo.len();
            let preds = if threads == 1 || todo.len() == 1 {
                todo.iter()
                    .map(|tokens| predictor.predict_tokens_with(tokens, None, &mut self.scratch))
                    .collect()
            } else {
                predictor.predict_tokens_batch_threads(&todo, threads)
            };
            let mut fresh = Vec::with_capacity(todo.len());
            for (tokens, pred) in todo.into_iter().zip(&preds) {
                let item = item_from_prediction(pred);
                if self.memo.len() >= MEMO_CAPACITY {
                    self.make_memo_room();
                }
                self.memo.insert((epoch, tokens), item.clone());
                fresh.push(item);
            }
            let mut fresh = fresh.into_iter();
            let mut items = items
                .into_iter()
                .flat_map(|item| item.or_else(|| fresh.next()));
            for plan in &group {
                if let Ok(response) = &mut out[plan.request] {
                    response.items = items
                        .by_ref()
                        .take(requests[plan.request].inputs.len())
                        .map(|item| project(&item, &plan.metrics))
                        .collect();
                }
            }
        }
        if hits + misses > 0 {
            let counters = self.engine.counters();
            counters.add(Counter::MemoHits, hits as u64);
            counters.add(Counter::MemoMisses, misses as u64);
        }
        self.served += out.iter().filter(|r| r.is_ok()).count();
        out
    }

    /// Frees room in a full memo (see [`MEMO_CAPACITY`]): drops the entries
    /// of unregistered epochs, then everything if it is still full.
    fn make_memo_room(&mut self) {
        let live: Vec<u64> = unpoisoned(self.engine.models.read())
            .iter()
            .map(|r| r.epoch)
            .collect();
        self.memo.retain(|(epoch, _), _| live.contains(epoch));
        if self.memo.len() >= MEMO_CAPACITY {
            self.memo.clear();
        }
    }

    /// Validates request `index` against the model it resolved to. A
    /// baseline request is answered into `response` on the spot; a
    /// predictor request has its feedback recorded and comes back as a
    /// [`Plan`] for the batch executor.
    fn plan<'m>(
        &self,
        index: usize,
        request: &PredictRequest,
        model: &'m dyn ServableModel,
        response: &mut PredictResponse,
    ) -> Result<Option<Plan<'m>>, Error> {
        let metrics = resolve_metrics(request.metrics.as_deref())?;
        if request.inputs.is_empty() {
            return Err(Error::InvalidRequest("request has no inputs".into()));
        }
        let Some(predictor) = model.as_predictor() else {
            if request.feedback.is_some() {
                return Err(Error::InvalidRequest(format!(
                    "calibration feedback requires a predictor model, `{}` is a baseline",
                    response.model
                )));
            }
            let costs = model.try_predict_batch(&baseline_samples(&request.inputs)?)?;
            response.items = costs.iter().map(|c| item_from_cost(c, &metrics)).collect();
            return Ok(None);
        };
        let seqs = tokenize_inputs(predictor, &request.inputs)?;
        // Record feedback last: a request rejected above must not leave its
        // triple in the calibration queue.
        if let Some(fb) = request.feedback {
            self.record_feedback(&response.model, &seqs, fb)?;
        }
        let ceiling = self.engine.config.threads;
        Ok(Some(Plan {
            request: index,
            predictor,
            epoch: response.epoch,
            seqs,
            metrics,
            threads: request.threads.unwrap_or(ceiling).clamp(1, ceiling),
        }))
    }

    /// Routes a feedback triple into the engine's shared feedback queue
    /// (when enabled) and the per-model scoreboard. Exact predictions carry
    /// no preference signal and are skipped as training data (mirroring
    /// [`crate::calibrate::DpoCalibrator::observe`]) but still count as
    /// accuracy signal on the scoreboard.
    fn record_feedback(&self, model: &str, seqs: &[Vec<u32>], fb: Feedback) -> Result<(), Error> {
        let tokens = seqs.get(fb.item).ok_or_else(|| {
            Error::InvalidRequest(format!(
                "feedback.item {} out of range ({} inputs)",
                fb.item,
                seqs.len()
            ))
        })?;
        let engine = self.engine;
        engine
            .scoreboard()
            .record_feedback_error(model, abs_rel_error(fb.actual, fb.predicted));
        let y_w = metric_to_int(fb.metric, fb.actual);
        let y_l = metric_to_int(fb.metric, fb.predicted);
        if y_w != y_l && engine.feedback().is_enabled() {
            engine.feedback().push(PreferenceTriple {
                tokens: tokens.clone(),
                metric: fb.metric,
                y_w,
                y_l,
            });
        }
        Ok(())
    }
}

/// A validated predictor request waiting for its version's group.
struct Plan<'m> {
    /// Index of the request, and of its answer slot.
    request: usize,
    /// The exact model version the request resolved to.
    predictor: &'m NumericPredictor,
    /// That version's swap epoch: the memo key's scope.
    epoch: u64,
    /// One token sequence per request input.
    seqs: Vec<Vec<u32>>,
    metrics: Vec<Metric>,
    /// Worker threads, already clamped to [`EngineConfig::threads`].
    threads: usize,
}

/// Validates and resolves a metric subset (`None` = all four).
fn resolve_metrics(metrics: Option<&[Metric]>) -> Result<Vec<Metric>, Error> {
    match metrics {
        None => Ok(Metric::all().to_vec()),
        Some([]) => Err(Error::InvalidRequest(
            "metric subset is empty (omit `metrics` for all four)".into(),
        )),
        Some(subset) => Ok(subset.to_vec()),
    }
}

/// Parses and encodes a source input into the same segmented text the
/// direct data format uses (no `<think>` segment, no profiling).
fn source_to_tokens(
    predictor: &NumericPredictor,
    program: &str,
    inputs: &[(String, i64)],
) -> Result<Vec<u32>, Error> {
    let (parsed, data) = parse_source(program, inputs)?;
    let text = SegmentedText::from_program(&parsed, Some(&data), None);
    Ok(text
        .tokenize(predictor.tokenizer(), predictor.config().max_len)
        .tokens)
}

/// Parses + validates program source and builds its input bindings.
fn parse_source(program: &str, inputs: &[(String, i64)]) -> Result<(Program, InputData), Error> {
    let parsed = parse::parse_program(program)
        .map_err(|e| Error::from(e).context("cannot parse program source"))?;
    parsed
        .validate()
        .map_err(|e| Error::from(e).context("program failed validation"))?;
    let mut data = InputData::new();
    for (name, value) in inputs {
        data.bind(name.as_str(), *value);
    }
    Ok((parsed, data))
}

/// Tokenizes every input of a predictor-bound request.
fn tokenize_inputs(
    predictor: &NumericPredictor,
    inputs: &[PredictInput],
) -> Result<Vec<Vec<u32>>, Error> {
    inputs
        .iter()
        .map(|input| match input {
            PredictInput::Tokens(tokens) => Ok(tokens.clone()),
            PredictInput::Source { program, inputs } => {
                source_to_tokens(predictor, program, inputs)
            }
            PredictInput::Sample(sample) => Ok(predictor.tokenize_sample(sample).tokens),
        })
        .collect()
}

/// Builds the samples a baseline model featurizes. Token inputs carry no IR
/// and are rejected; source inputs get a zeroed cost vector (prediction
/// inputs have no ground truth by definition — no baseline reads it).
fn baseline_samples(inputs: &[PredictInput]) -> Result<Vec<Sample>, Error> {
    inputs
        .iter()
        .map(|input| match input {
            PredictInput::Sample(sample) => Ok((**sample).clone()),
            PredictInput::Source { program, inputs } => {
                let (parsed, data) = parse_source(program, inputs)?;
                let text = SegmentedText::from_program(&parsed, Some(&data), None);
                Ok(Sample {
                    text,
                    program: parsed,
                    data,
                    cost: CostVector {
                        power_mw: 0.0,
                        area_um2: 0.0,
                        ff: 0,
                        cycles: 0,
                    },
                })
            }
            PredictInput::Tokens(_) => Err(Error::InvalidRequest(
                "baseline models featurize the IR and cannot consume pre-tokenized input".into(),
            )),
        })
        .collect()
}

/// A digit-level [`Prediction`] without its digit distributions: all four
/// metrics, the form the memo keeps.
fn item_from_prediction(pred: &Prediction) -> ItemPrediction {
    ItemPrediction {
        metrics: pred
            .per_metric
            .iter()
            .map(|mp| MetricValue {
                metric: mp.metric,
                value: mp.value,
                digits: Some(mp.digits.clone()),
                confidence: Some(mp.confidence),
                mean_confidence: Some(mp.mean_confidence),
            })
            .collect(),
    }
}

/// Picks the requested metrics, in request order, out of an item holding
/// all four.
fn project(item: &ItemPrediction, metrics: &[Metric]) -> ItemPrediction {
    ItemPrediction {
        metrics: metrics
            .iter()
            .filter_map(|&m| item.metrics.iter().find(|mv| mv.metric == m).cloned())
            .collect(),
    }
}

/// Projects a baseline cost vector onto the requested metrics.
fn item_from_cost(cost: &CostVector, metrics: &[Metric]) -> ItemPrediction {
    ItemPrediction {
        metrics: metrics
            .iter()
            .map(|&m| MetricValue {
                metric: m,
                value: cost.metric(m),
                digits: None,
                confidence: None,
                mean_confidence: None,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelScale, PredictorConfig};
    use crate::numeric::DigitCodec;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{Expr, LValue, Stmt};
    use llmulator_token::NumericMode;

    fn tiny_predictor(seed: u64) -> NumericPredictor {
        NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 48,
            seed,
        })
    }

    fn program(n: usize) -> Program {
        let op = OperatorBuilder::new("inc")
            .array_param("a", [n])
            .loop_nest(&[("i", n)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
                )]
            })
            .build();
        Program::single_op(op)
    }

    fn sample(n: usize) -> Sample {
        Sample::profile(&program(n), None).expect("profiles")
    }

    fn engine_with_default() -> Engine {
        let engine = EngineConfig::new().threads(2).build();
        engine.register_predictor("default", tiny_predictor(3));
        engine
    }

    /// The engine's memo `(hits, misses)`.
    fn memo(engine: &Engine) -> (u64, u64) {
        let counters = engine.counters();
        (
            counters.get(Counter::MemoHits),
            counters.get(Counter::MemoMisses),
        )
    }

    /// A baseline that predicts constants (enough to exercise the adapter).
    struct Fixed(f64);

    impl CostModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn predict(&self, _sample: &Sample) -> CostVector {
            CostVector {
                power_mw: self.0,
                area_um2: self.0,
                ff: self.0 as u64,
                cycles: self.0 as u64,
            }
        }
    }

    #[test]
    fn session_predictions_match_the_direct_batch_path_exactly() {
        let engine = engine_with_default();
        let resolved = engine.resolve(None).expect("default registered");
        let predictor = resolved.model.as_predictor().expect("is a predictor");
        let samples: Vec<Sample> = [4usize, 8, 4, 12].iter().map(|&n| sample(n)).collect();
        let oracle: Vec<Prediction> = samples
            .iter()
            .map(|s| predictor.predict_sample(s))
            .collect();

        let mut session = engine.session();
        let mut request = PredictRequest::new();
        for s in &samples {
            request = request.input(PredictInput::Sample(Box::new(s.clone())));
        }
        let response = session.predict(&request).expect("serves");
        assert_eq!(response.model, "default");
        assert_eq!(response.items.len(), samples.len());
        for (item, pred) in response.items.iter().zip(&oracle) {
            for mv in &item.metrics {
                let mp = pred.metric(mv.metric);
                assert!(mv.value.to_bits() == mp.value.to_bits(), "bit-identical");
                assert_eq!(mv.digits.as_deref(), Some(mp.digits.as_slice()));
                assert_eq!(mv.confidence, Some(mp.confidence));
            }
        }
    }

    #[test]
    fn single_input_scratch_path_is_bit_identical_too() {
        let engine = engine_with_default();
        let resolved = engine.resolve(None).expect("default");
        let predictor = resolved.model.as_predictor().expect("predictor");
        let tokens: Vec<u32> = vec![3, 5, 7, 9, 11];
        let oracle = predictor.predict_tokens(&tokens, None);
        let mut session = engine.session();
        // Serve the same request repeatedly: the session scratch path must
        // stay exact in steady state, not just on first use.
        for round in 0..3 {
            let response = session
                .predict(&PredictRequest::tokens(tokens.clone()).threads(1))
                .expect("serves");
            let item = &response.items[0];
            for (mv, mp) in item.metrics.iter().zip(&oracle.per_metric) {
                assert_eq!(mv.value.to_bits(), mp.value.to_bits(), "round {round}");
                assert_eq!(mv.digits.as_deref(), Some(mp.digits.as_slice()));
            }
        }
        assert_eq!(session.served(), 3);
    }

    #[test]
    fn single_thread_misses_reuse_the_session_scratch() {
        let engine = EngineConfig::new().threads(1).build();
        engine.register_predictor("default", tiny_predictor(3));
        let mut session = engine.session();
        session
            .predict(&PredictRequest::tokens(vec![3, 5, 7, 9]))
            .expect("serves");
        let pooled = session.scratch.pooled();
        assert!(pooled > 0, "the miss ran on the session's scratch");
        // A different sequence of the same length is a second miss: its
        // forward reuses the buffers the first one pooled and adds none.
        session
            .predict(&PredictRequest::tokens(vec![2, 4, 6, 8]))
            .expect("serves");
        assert_eq!(memo(&engine), (0, 2));
        assert_eq!(session.scratch.pooled(), pooled);
    }

    #[test]
    fn metric_subset_filters_and_orders_the_response() {
        let engine = engine_with_default();
        let mut session = engine.session();
        let response = session
            .predict(
                &PredictRequest::tokens(vec![1, 2, 3]).metrics(vec![Metric::Cycles, Metric::Power]),
            )
            .expect("serves");
        let got: Vec<Metric> = response.items[0].metrics.iter().map(|m| m.metric).collect();
        assert_eq!(got, vec![Metric::Cycles, Metric::Power]);
        let err = session
            .predict(&PredictRequest::tokens(vec![1]).metrics(vec![]))
            .expect_err("empty subset");
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn unknown_model_and_empty_requests_are_typed_errors() {
        let engine = engine_with_default();
        let mut session = engine.session();
        let err = session
            .predict(&PredictRequest::tokens(vec![1]).for_model("nope"))
            .expect_err("unknown model");
        assert!(matches!(err, Error::UnknownModel { .. }), "{err:?}");
        assert!(err.to_string().contains("default"), "lists roster: {err}");
        let err = session
            .predict(&PredictRequest::new())
            .expect_err("no inputs");
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn source_inputs_parse_and_predict_like_the_equivalent_sample() {
        let engine = engine_with_default();
        let resolved = engine.resolve(None).expect("default");
        let predictor = resolved.model.as_predictor().expect("predictor");
        let text = program(8).render();
        // The direct-format sample for the same program/input pair.
        let s = sample(8);
        let oracle = predictor.predict_batch_threads(std::slice::from_ref(&s), 1);
        let mut session = engine.session();
        let response = session
            .predict(&PredictRequest::source(text, vec![]))
            .expect("parses and serves");
        assert_eq!(
            response.items[0].value(Metric::Cycles),
            Some(oracle[0].metric(Metric::Cycles).value)
        );

        let err = session
            .predict(&PredictRequest::source("void oops(", vec![]))
            .expect_err("syntax error");
        assert!(err.chain().contains("parse"), "{}", err.chain());
    }

    #[test]
    fn baselines_serve_values_without_digit_fields() {
        let engine = EngineConfig::new().default_model("fixed").build();
        engine.register_baseline("fixed", Fixed(7.0));
        let mut session = engine.session();
        let response = session
            .predict(&PredictRequest::sample(sample(4)))
            .expect("serves");
        let mv = &response.items[0].metrics[0];
        assert_eq!(mv.value, 7.0);
        assert!(mv.digits.is_none() && mv.confidence.is_none());
        // Token input to a baseline is a typed error, not a panic.
        let err = session
            .predict(&PredictRequest::tokens(vec![1, 2]))
            .expect_err("tokens need a predictor");
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn micro_batch_fuses_across_requests_and_isolates_errors() {
        let engine = EngineConfig::new().threads(2).build();
        engine.register_predictor("default", tiny_predictor(3));
        engine.register_baseline("fixed", Fixed(3.0));
        let resolved = engine.resolve(None).expect("default");
        let predictor = resolved.model.as_predictor().expect("predictor");

        let requests = vec![
            PredictRequest::tokens(vec![1, 2, 3]),
            PredictRequest::tokens(vec![9]).for_model("nope"),
            PredictRequest::sample(sample(4)).for_model("fixed"),
            PredictRequest::new()
                .input(PredictInput::Tokens(vec![4, 5]))
                .input(PredictInput::Tokens(vec![6, 7, 8, 9])),
            PredictRequest::tokens(vec![1, 2]).for_model("fixed"),
        ];
        let mut session = engine.session();
        let results = session.predict_micro_batch(&requests);
        assert_eq!(results.len(), 5);
        // Request 0 and 3 ran in one batch; answers must equal serial
        // per-sequence predictions exactly.
        let oracle: Vec<Prediction> = [vec![1, 2, 3], vec![4, 5], vec![6, 7, 8, 9]]
            .iter()
            .map(|tokens| predictor.predict_tokens(tokens, None))
            .collect();
        let r0 = results[0].as_ref().expect("served");
        assert_eq!(
            r0.items[0].value(Metric::Cycles),
            Some(oracle[0].metric(Metric::Cycles).value)
        );
        let r3 = results[3].as_ref().expect("served");
        assert_eq!(r3.items.len(), 2);
        assert_eq!(
            r3.items[1].value(Metric::Power),
            Some(oracle[2].metric(Metric::Power).value)
        );
        assert!(matches!(results[1], Err(Error::UnknownModel { .. })));
        let r2 = results[2].as_ref().expect("baseline served");
        assert_eq!(r2.model, "fixed");
        assert_eq!(r2.items[0].value(Metric::Power), Some(3.0));
        assert!(matches!(results[4], Err(Error::InvalidRequest(_))));
        assert_eq!(session.served(), 3);
        // `predict` is the same path with a batch of one: every slot —
        // predictor, unknown model, baseline, invalid — matches it exactly.
        for (request, batched) in requests.iter().zip(&results) {
            match (session.predict(request), batched) {
                (Ok(alone), Ok(batched)) => assert_eq!(&alone, batched),
                (Err(alone), Err(batched)) => assert_eq!(alone.kind(), batched.kind()),
                (alone, batched) => panic!("{alone:?} vs {batched:?}"),
            }
        }
    }

    #[test]
    fn thread_overrides_are_capped_at_the_engine_ceiling() {
        let engine = engine_with_default();
        let mut session = engine.session();
        let requests: Vec<PredictRequest> = (0..4u32)
            .map(|i| {
                PredictRequest::new()
                    .input(PredictInput::Tokens(vec![i, 5, 6]))
                    .input(PredictInput::Tokens(vec![7, i]))
            })
            .collect();
        let plain = session.predict_micro_batch(&requests);
        // A wire-scale override serves bit-identically to the default
        // instead of fanning out one thread per sequence.
        let huge: Vec<PredictRequest> = requests
            .iter()
            .map(|r| r.clone().threads(usize::MAX))
            .collect();
        let capped = session.predict_micro_batch(&huge);
        for (plain, capped) in plain.iter().zip(&capped) {
            assert_eq!(
                plain.as_ref().expect("serves"),
                capped.as_ref().expect("serves")
            );
        }
        assert_eq!(
            session.predict(&requests[0]).expect("serves"),
            session.predict(&huge[0]).expect("serves")
        );
    }

    #[test]
    fn registry_replaces_on_reregistration_and_loads_from_disk() {
        let engine = EngineConfig::new().build();
        engine.register_predictor("m", tiny_predictor(1));
        engine.register_predictor("m", tiny_predictor(2));
        assert_eq!(engine.model_names(), vec!["m"]);

        let dir = std::env::temp_dir().join(format!(
            "llmulator_engine_test_{}_{}",
            std::process::id(),
            line!()
        ));
        let path = dir.join("model.json");
        tiny_predictor(9).save(&path).expect("saves");
        engine.load_predictor("disk", &path).expect("loads");
        assert!(engine.has_model("disk"));
        let err = engine
            .load_predictor("gone", dir.join("missing.json"))
            .expect_err("missing file");
        assert!(err.chain().contains("cannot load model"), "{}", err.chain());
        assert!(err.chain().contains("caused by"), "{}", err.chain());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn hot_swap_bumps_the_epoch_and_in_flight_resolutions_keep_their_version() {
        let engine = engine_with_default();
        let first = engine.resolve(None).expect("resolves");
        assert_eq!(first.epoch, 1, "first registration is epoch 1");
        // Hot-swap a different model under the same name.
        engine.register_predictor("default", tiny_predictor(99));
        let second = engine.resolve(None).expect("resolves");
        assert_eq!(second.epoch, 2, "swap bumped the epoch");
        assert_eq!(engine.swap_epoch(), 2);
        // The pre-swap resolution still serves the old version.
        let tokens: Vec<u32> = vec![4, 5, 6];
        let old = first
            .model
            .as_predictor()
            .expect("predictor")
            .predict_tokens(&tokens, None);
        let oracle = tiny_predictor(3).predict_tokens(&tokens, None);
        assert_eq!(
            old.metric(Metric::Cycles).value.to_bits(),
            oracle.metric(Metric::Cycles).value.to_bits(),
            "in-flight Arc pins the pre-swap weights"
        );
        // Responses carry the epoch of the version that served them.
        let mut session = engine.session();
        let response = session
            .predict(&PredictRequest::tokens(tokens))
            .expect("serves");
        assert_eq!(response.epoch, 2);
    }

    #[test]
    fn router_splits_unnamed_requests_and_explicit_model_bypasses_it() {
        use crate::online::AbRouter;
        let engine = engine_with_default();
        engine.register_predictor("calibrated", tiny_predictor(7));
        engine
            .set_router(Some(
                AbRouter::new(vec![("default".into(), 1), ("calibrated".into(), 1)])
                    .expect("valid"),
            ))
            .expect("variants registered");
        let mut session = engine.session();
        let mut seen = std::collections::BTreeSet::new();
        for key in 0..32u64 {
            let r = session
                .predict(&PredictRequest::tokens(vec![1, 2, 3]).route_key(key))
                .expect("serves");
            seen.insert(r.model.clone());
            // Same key re-routes identically.
            let again = session
                .predict(&PredictRequest::tokens(vec![1, 2, 3]).route_key(key))
                .expect("serves");
            assert_eq!(again.model, r.model, "sticky routing for key {key}");
        }
        assert_eq!(seen.len(), 2, "both variants get traffic: {seen:?}");
        // Naming a model bypasses the router entirely.
        let r = session
            .predict(
                &PredictRequest::tokens(vec![1, 2, 3])
                    .for_model("default")
                    .route_key(5),
            )
            .expect("serves");
        assert_eq!(r.model, "default");
        // A router over an unregistered variant is rejected up front.
        let err = engine
            .set_router(Some(
                AbRouter::new(vec![("ghost".into(), 1)]).expect("structurally valid"),
            ))
            .expect_err("unknown variant");
        assert!(matches!(err, Error::UnknownModel { .. }));
    }

    #[test]
    fn feedback_lands_in_the_replay_buffer() {
        // The engine's feedback queue is the replay buffer the calibrator
        // drains; sessions push their triples straight into it.
        let engine = EngineConfig::new().threads(2).feedback_capacity(4).build();
        engine.register_predictor("default", tiny_predictor(3));
        let mut session = engine.session();
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 90.0,
        });
        session.predict(&request).expect("serves");
        assert_eq!(engine.feedback().len(), 1);
        // An exact prediction carries no signal.
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 120.0,
        });
        session.predict(&request).expect("serves");
        assert_eq!(engine.feedback().len(), 1, "exact match skipped");
        // Out-of-range item is a typed error.
        let request = PredictRequest::tokens(vec![2]).feedback(Feedback {
            item: 5,
            metric: Metric::Cycles,
            actual: 1.0,
            predicted: 2.0,
        });
        assert!(matches!(
            session.predict(&request),
            Err(Error::InvalidRequest(_))
        ));
        assert_eq!(engine.feedback().len(), 1);
        assert_eq!(engine.feedback().drain_now().len(), 1, "drainable");
    }

    #[test]
    fn feedback_fans_out_to_the_shared_queue_and_scoreboard() {
        let engine = EngineConfig::new().threads(1).feedback_capacity(4).build();
        engine.register_predictor("default", tiny_predictor(3));
        let mut session = engine.session();
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 90.0,
        });
        session.predict(&request).expect("serves");
        assert_eq!(engine.feedback().accepted(), 1, "queue got the triple");
        let (err, n) = engine
            .scoreboard()
            .rolling_error("default")
            .expect("scored");
        assert_eq!(n, 1);
        assert!((err - 0.25).abs() < 1e-12, "|120-90|/120: {err}");
        // Exact predictions feed the scoreboard but not the queue.
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 120.0,
        });
        session.predict(&request).expect("serves");
        assert_eq!(engine.feedback().accepted(), 1, "no training signal");
        let (_, n) = engine
            .scoreboard()
            .rolling_error("default")
            .expect("scored");
        assert_eq!(n, 2, "accuracy signal recorded");
        // Rejected requests record nothing: an out-of-range item is a typed
        // error, and a request failing validation keeps its triple out of
        // the queue and the scoreboard.
        let off_by_one = Feedback {
            item: 5,
            metric: Metric::Cycles,
            actual: 1.0,
            predicted: 2.0,
        };
        let request = PredictRequest::tokens(vec![2]).feedback(off_by_one);
        assert!(matches!(
            session.predict(&request),
            Err(Error::InvalidRequest(_))
        ));
        let request = PredictRequest::tokens(vec![2])
            .metrics(vec![])
            .feedback(Feedback {
                item: 0,
                ..off_by_one
            });
        assert!(matches!(
            session.predict(&request),
            Err(Error::InvalidRequest(_))
        ));
        assert_eq!(engine.feedback().accepted(), 1);
        let (_, n) = engine
            .scoreboard()
            .rolling_error("default")
            .expect("scored");
        assert_eq!(n, 2);
    }

    #[test]
    fn engine_is_sync_and_supports_concurrent_sessions() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Engine>();
        let engine = engine_with_default();
        let results: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let engine = &engine;
                    scope.spawn(move || {
                        let mut session = engine.session();
                        let r = session
                            .predict(&PredictRequest::tokens(vec![i, i + 1]))
                            .expect("serves");
                        r.items[0].value(Metric::Cycles).expect("cycles")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn invalid_requests_and_parse_errors_are_never_memoized() {
        let engine = engine_with_default();
        let mut session = engine.session();
        let bad = [
            PredictRequest::tokens(vec![1, 2]).metrics(vec![]),
            PredictRequest::new(),
            PredictRequest::source("void main( {", Vec::new()),
            PredictRequest::tokens(vec![1, 2]).for_model("ghost"),
            PredictRequest::tokens(vec![1, 2]).feedback(Feedback {
                item: 3,
                metric: Metric::Cycles,
                actual: 1.0,
                predicted: 2.0,
            }),
        ];
        for request in &bad {
            assert!(session.predict(request).is_err(), "{request:?}");
        }
        let results = session.predict_micro_batch(&bad);
        assert!(results.iter().all(Result::is_err));
        assert!(session.memo.is_empty(), "nothing memoized");
        assert_eq!(memo(&engine), (0, 0), "no lookups");
        // A valid request beside them is the only entry.
        let mut mixed = bad.to_vec();
        mixed.push(PredictRequest::tokens(vec![1, 2]));
        let results = session.predict_micro_batch(&mixed);
        assert!(results.last().is_some_and(Result::is_ok));
        assert_eq!(session.memo.len(), 1);
        assert_eq!(memo(&engine), (0, 1));
    }

    #[test]
    fn feedback_on_a_memo_hit_still_reaches_the_scoreboard_and_queue() {
        let engine = EngineConfig::new().threads(1).feedback_capacity(8).build();
        engine.register_predictor("default", tiny_predictor(3));
        let mut session = engine.session();
        let plain = session
            .predict(&PredictRequest::tokens(vec![2, 4, 6]))
            .expect("serves");
        let request = PredictRequest::tokens(vec![2, 4, 6]).feedback(Feedback {
            item: 0,
            metric: Metric::Cycles,
            actual: 120.0,
            predicted: 90.0,
        });
        let hit = session.predict(&request).expect("serves");
        assert_eq!(hit, plain, "a hit answers the same bits");
        assert_eq!(memo(&engine), (1, 1));
        assert_eq!(engine.feedback().accepted(), 1, "queue got the triple");
        let triples = engine.feedback().drain_now();
        assert_eq!(triples[0].tokens, vec![2, 4, 6]);
        let (_, n) = engine
            .scoreboard()
            .rolling_error("default")
            .expect("scored");
        assert_eq!(n, 1);
    }

    #[test]
    fn a_hot_swap_turns_the_next_identical_request_into_a_miss() {
        let engine = engine_with_default();
        let mut session = engine.session();
        let request = PredictRequest::tokens(vec![5, 6, 7]);
        let first = session.predict(&request).expect("serves");
        let again = session.predict(&request).expect("serves");
        assert_eq!(again, first);
        assert_eq!(memo(&engine), (1, 1));

        engine.register_predictor("default", tiny_predictor(11));
        let swapped = session.predict(&request).expect("serves");
        assert_eq!(memo(&engine), (1, 2));
        assert_eq!(swapped.epoch, engine.swap_epoch());
        assert_ne!(swapped.epoch, first.epoch);
        let fresh = engine.session().predict(&request).expect("serves");
        assert_eq!(swapped, fresh, "the new version's answer, not the memo's");
        assert_ne!(swapped.items, first.items, "the versions disagree");
    }

    #[test]
    fn the_memo_never_exceeds_its_bound() {
        let engine = engine_with_default();
        let mut session = engine.session();
        for i in 0..(3 * MEMO_CAPACITY as u32) {
            // Single requests and multi-input micro-batches, some repeated.
            let requests: Vec<PredictRequest> = (0..i % 5)
                .map(|k| PredictRequest::tokens(vec![i, k, i % 7]))
                .collect();
            session.predict_micro_batch(&requests);
            session
                .predict(&PredictRequest::tokens(vec![i % 9, 1]))
                .expect("serves");
            assert!(
                session.memo.len() <= MEMO_CAPACITY,
                "{}",
                session.memo.len()
            );
        }
        let (hits, misses) = memo(&engine);
        assert!(hits > 0 && misses > MEMO_CAPACITY as u64, "{hits} {misses}");
    }

    /// Online calibration re-registers its variant on every hot swap; the
    /// stale epochs it leaves behind make room in a full memo, so the
    /// incumbent's entries survive the churn. Each swap serves more than
    /// half a memo of new sequences, so every second one overflows it.
    #[test]
    fn incumbent_entries_survive_calibrated_variant_swaps() {
        let engine = engine_with_default();
        engine.register_predictor("calibrated", tiny_predictor(11));
        let mut session = engine.session();
        let incumbent: Vec<PredictRequest> = (0..4u32)
            .map(|i| PredictRequest::tokens(vec![i, 2, 3]))
            .collect();
        let first = session.predict_micro_batch(&incumbent);
        for swap in 0..6u32 {
            engine.register_predictor("calibrated", tiny_predictor(11 + u64::from(swap)));
            for i in 0..(MEMO_CAPACITY / 2 + 8) as u32 {
                session
                    .predict(&PredictRequest::tokens(vec![i, swap]).for_model("calibrated"))
                    .expect("serves");
                assert!(
                    session.memo.len() <= MEMO_CAPACITY,
                    "{}",
                    session.memo.len()
                );
            }
        }
        let before = memo(&engine);
        let again = session.predict_micro_batch(&incumbent);
        let after = memo(&engine);
        assert_eq!(after.0 - before.0, 4, "every incumbent entry hit");
        assert_eq!(after.1, before.1);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.as_ref().ok(), b.as_ref().ok());
        }
    }
}
