//! Dynamic prediction-based calibration (paper Sec. 5.1).
//!
//! The statically-trained predictor interacts with the profiling
//! environment: it predicts `y_l`, the profiler returns the ground truth
//! `y_w`, and the preference triple `({x, data}, y_w, y_l)` drives a direct
//! preference optimization (DPO) update against a frozen reference policy
//! (paper Eq. 2), with a sliding-window replay buffer for minibatch reuse.

use crate::dataset::Sample;
use crate::model::NumericPredictor;
use crate::numeric::metric_to_int;
use llmulator_ir::{InputData, Program};
use llmulator_nn::{AdamConfig, AdamW, Graph, Matrix, NodeId, ParamStore};
use llmulator_sim::Metric;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One preference observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreferenceTriple {
    /// Tokenized model input (`{x, data}` state).
    pub tokens: Vec<u32>,
    /// Which metric was profiled.
    pub metric: Metric,
    /// Ground-truth ("winning") value in codec integer units.
    pub y_w: u64,
    /// Model-predicted ("losing") value in codec integer units.
    pub y_l: u64,
}

/// Sliding-window replay buffer (paper's replay-cost-buffer; size 1 gives
/// pure online updates). Generic over the entry so the DPO calibrator can
/// keep each triple's memoized reference margin beside it.
#[derive(Debug, Clone)]
pub struct ReplayBuffer<T = PreferenceTriple> {
    window: VecDeque<T>,
    capacity: usize,
}

impl ReplayBuffer {
    /// Buffer of plain triples with the given window size.
    pub fn new(capacity: usize) -> ReplayBuffer {
        ReplayBuffer::with_capacity(capacity)
    }
}

impl<T> ReplayBuffer<T> {
    /// Buffer with the given window size (clamped to at least 1).
    fn with_capacity(capacity: usize) -> ReplayBuffer<T> {
        ReplayBuffer {
            window: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Pushes an entry, evicting the oldest beyond capacity.
    pub fn push(&mut self, entry: T) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(entry);
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples a minibatch (without replacement) for replay.
    pub fn minibatch(&self, k: usize, rng: &mut StdRng) -> Vec<&T> {
        let mut all: Vec<&T> = self.window.iter().collect();
        all.shuffle(rng);
        all.truncate(k.max(1));
        all
    }
}

/// A triple in the calibrator's replay window with its frozen-reference
/// log-ratio `log π_ref(y_w) − log π_ref(y_l)`, computed once when the
/// triple entered the window (the reference never changes while it is
/// there).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayEntry {
    /// The preference observation.
    pub triple: PreferenceTriple,
    /// The memoized reference margin.
    pub ref_margin: f32,
}

/// DPO calibration hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpoConfig {
    /// Preference sharpness β in Eq. 2.
    pub beta: f32,
    /// Fine-tuning learning rate.
    pub lr: f32,
    /// Replay-buffer window size.
    pub buffer_size: usize,
    /// Minibatch size per update.
    pub minibatch: usize,
    /// Gradient steps per observed profile.
    pub steps_per_observation: usize,
    /// RNG seed for replay sampling.
    pub seed: u64,
}

impl Default for DpoConfig {
    fn default() -> Self {
        DpoConfig {
            beta: 0.5,
            lr: 1e-3,
            buffer_size: 16,
            minibatch: 4,
            steps_per_observation: 2,
            seed: 0,
        }
    }
}

/// The DPO calibrator: owns the frozen reference policy, the replay buffer
/// and the fine-tuning optimizer.
#[derive(Debug)]
pub struct DpoCalibrator {
    reference: NumericPredictor,
    buffer: ReplayBuffer<ReplayEntry>,
    opt: AdamW,
    config: DpoConfig,
    rng: StdRng,
    losses: Vec<f32>,
}

impl DpoCalibrator {
    /// Snapshots `model` as the reference policy π_ref.
    pub fn new(model: &NumericPredictor, config: DpoConfig) -> DpoCalibrator {
        let mut opt = AdamW::new(
            model.store(),
            AdamConfig {
                lr: config.lr,
                weight_decay: 0.0,
                ..AdamConfig::default()
            },
        );
        opt.set_lr(config.lr);
        DpoCalibrator {
            reference: model.clone(),
            buffer: ReplayBuffer::with_capacity(config.buffer_size),
            opt,
            config,
            rng: StdRng::seed_from_u64(config.seed),
            losses: Vec::new(),
        }
    }

    /// The replay buffer (for inspection).
    pub fn buffer(&self) -> &ReplayBuffer<ReplayEntry> {
        &self.buffer
    }

    /// The frozen reference policy π_ref calibration started from (what the
    /// online guardrail swaps back to on a demotion).
    pub fn reference(&self) -> &NumericPredictor {
        &self.reference
    }

    /// DPO losses recorded per gradient step.
    pub fn losses(&self) -> &[f32] {
        &self.losses
    }

    /// Records one profiler interaction and performs the configured number
    /// of DPO updates from the replay buffer.
    ///
    /// `y_w`/`y_l` are in the metric's natural unit; they are converted to
    /// codec integers internally.
    pub fn observe(
        &mut self,
        model: &mut NumericPredictor,
        tokens: Vec<u32>,
        metric: Metric,
        actual: f64,
        predicted: f64,
    ) {
        self.observe_triple(
            model,
            PreferenceTriple {
                tokens,
                metric,
                y_w: metric_to_int(metric, actual),
                y_l: metric_to_int(metric, predicted),
            },
        );
    }

    /// Records one already-quantized preference triple (the unit the online
    /// [`crate::online::FeedbackQueue`] carries) and performs the
    /// configured number of DPO updates; returns the gradient steps taken
    /// (0 for a degenerate triple, which carries no preference signal).
    pub fn observe_triple(
        &mut self,
        model: &mut NumericPredictor,
        triple: PreferenceTriple,
    ) -> usize {
        if triple.y_w == triple.y_l {
            // No preference signal when the prediction is exactly right.
            return 0;
        }
        let codec = self.reference.config().codec;
        let (ref_w, ref_l) = self.reference.log_prob_pair_value(
            &triple.tokens,
            triple.metric,
            &codec.encode(triple.y_w),
            &codec.encode(triple.y_l),
        );
        self.buffer.push(ReplayEntry {
            triple,
            ref_margin: ref_w - ref_l,
        });
        for _ in 0..self.config.steps_per_observation {
            let loss = self.dpo_step(model);
            self.losses.push(loss);
        }
        self.config.steps_per_observation
    }

    /// One DPO gradient step over a replay minibatch; returns the loss.
    pub fn dpo_step(&mut self, model: &mut NumericPredictor) -> f32 {
        if self.buffer.is_empty() {
            return 0.0;
        }
        let batch = self.buffer.minibatch(self.config.minibatch, &mut self.rng);
        let policy = &*model;
        let (loss, grads) =
            llmulator_nn::train::batch_grads(policy.store(), &batch, 1, |g, store, entry| {
                dpo_loss(g, store, policy, entry, self.config.beta)
            });
        self.opt.apply(model.store_mut(), &grads);
        loss
    }
}

/// The per-triple DPO loss of paper Eq. 2 as a `1×1` tape node:
/// `−log σ(β·((log π(y_w) − log π(y_l)) − ref_margin))`, with both policy
/// log-probabilities read off one encoder pass over `store` (the policy's
/// parameters).
fn dpo_loss<'s>(
    g: &mut Graph<'s>,
    store: &'s ParamStore,
    policy: &NumericPredictor,
    entry: &ReplayEntry,
    beta: f32,
) -> NodeId {
    let t = &entry.triple;
    let codec = policy.config().codec;
    let (lp_w, lp_l) = policy.log_prob_pair_node(
        g,
        store,
        &t.tokens,
        t.metric,
        &codec.encode(t.y_w),
        &codec.encode(t.y_l),
    );
    let margin = g.sub(lp_w, lp_l);
    let shift = g.input(Matrix::from_vec(1, 1, vec![-entry.ref_margin]));
    let centered = g.add(margin, shift);
    let scaled = g.scale(centered, beta);
    let logsig = g.log_sigmoid(scaled);
    g.scale(logsig, -1.0)
}

/// Per-iteration record of a calibration run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationStep {
    /// Iteration index.
    pub iteration: usize,
    /// Ground-truth cycles for this input.
    pub actual: f64,
    /// Model prediction before the update.
    pub predicted: f64,
    /// Absolute percentage error of the prediction.
    pub ape: f64,
}

/// Result of an input-sweep calibration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationTrace {
    /// One step per profiled input.
    pub steps: Vec<CalibrationStep>,
}

impl CalibrationTrace {
    /// Mean APE over the first `k` steps.
    pub fn mape_first(&self, k: usize) -> f64 {
        mean_ape(&self.steps[..k.min(self.steps.len())])
    }

    /// Mean APE over the last `k` steps (post-calibration quality).
    pub fn mape_last(&self, k: usize) -> f64 {
        let n = self.steps.len();
        mean_ape(&self.steps[n.saturating_sub(k)..])
    }
}

fn mean_ape(steps: &[CalibrationStep]) -> f64 {
    if steps.is_empty() {
        return 0.0;
    }
    steps.iter().map(|s| s.ape).sum::<f64>() / steps.len() as f64
}

/// Runs the full calibration loop of Fig. 4 for dynamic cycle prediction:
/// for each input, predict, profile (Verilator-substitute simulation),
/// build the preference pair and update via DPO.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn calibrate_cycles(
    model: &mut NumericPredictor,
    calibrator: &mut DpoCalibrator,
    program: &Program,
    inputs: &[InputData],
) -> Result<CalibrationTrace, llmulator_sim::SimError> {
    let mut steps = Vec::with_capacity(inputs.len());
    for (iteration, data) in inputs.iter().enumerate() {
        let sample = Sample::profile(program, Some(data))?;
        let tp = model.tokenize_sample(&sample);
        let pred = model.predict_tokens(&tp.tokens, None);
        let predicted = pred.metric(Metric::Cycles).value;
        let actual = sample.cost.cycles as f64;
        let ape = if actual > 0.0 {
            (predicted - actual).abs() / actual
        } else {
            0.0
        };
        steps.push(CalibrationStep {
            iteration,
            actual,
            predicted,
            ape,
        });
        calibrator.observe(model, tp.tokens, Metric::Cycles, actual, predicted);
    }
    Ok(CalibrationTrace { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelScale, PredictorConfig, TrainOptions};
    use crate::numeric::DigitCodec;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{Expr, LValue, Stmt};
    use llmulator_token::NumericMode;

    fn tiny_model() -> NumericPredictor {
        NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 48,
            seed: 5,
        })
    }

    fn dyn_program() -> Program {
        let op = OperatorBuilder::new("dyn")
            .array_param("a", [512])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::int(1),
                )]
            })
            .build();
        Program::single_op(op)
    }

    #[test]
    fn replay_buffer_slides() {
        let mut buf = ReplayBuffer::new(2);
        for i in 0..4u64 {
            buf.push(PreferenceTriple {
                tokens: vec![i as u32],
                metric: Metric::Cycles,
                y_w: i,
                y_l: i + 1,
            });
        }
        assert_eq!(buf.len(), 2);
        let mut rng = StdRng::seed_from_u64(0);
        let batch = buf.minibatch(5, &mut rng);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|t| t.y_w >= 2), "oldest evicted");
    }

    #[test]
    fn dpo_raises_preferred_logprob() {
        let mut model = tiny_model();
        let tokens: Vec<u32> = vec![5, 6, 7, 8, 9];
        let codec = model.config().codec;
        let y_w = 1234u64;
        let y_l = 7777u64;
        let dw = codec.encode(y_w);
        let before = model.log_prob_value(&tokens, Metric::Cycles, &dw);
        let mut cal = DpoCalibrator::new(
            &model,
            DpoConfig {
                lr: 5e-3,
                steps_per_observation: 6,
                ..DpoConfig::default()
            },
        );
        cal.observe(
            &mut model,
            tokens.clone(),
            Metric::Cycles,
            y_w as f64,
            y_l as f64,
        );
        let after = model.log_prob_value(&tokens, Metric::Cycles, &dw);
        assert!(
            after > before,
            "preferred log-prob should rise: {before} -> {after}"
        );
        assert!(!cal.losses().is_empty());
    }

    #[test]
    fn observe_skips_exact_predictions() {
        let mut model = tiny_model();
        let mut cal = DpoCalibrator::new(&model, DpoConfig::default());
        cal.observe(&mut model, vec![1, 2, 3], Metric::Cycles, 100.0, 100.0);
        assert!(cal.buffer().is_empty());
    }

    #[test]
    fn calibration_improves_dynamic_cycle_error() {
        let mut model = tiny_model();
        let program = dyn_program();
        // Light static pre-training on two input scales.
        let ds: crate::dataset::Dataset = [32i64, 64]
            .iter()
            .map(|&n| {
                Sample::profile(&program, Some(&InputData::new().with("n", n))).expect("profiles")
            })
            .collect();
        model.fit(
            &ds,
            TrainOptions {
                epochs: 10,
                batch_size: 2,
                lr: 5e-3,
                threads: 2,
            },
        );
        let mut cal = DpoCalibrator::new(
            &model,
            DpoConfig {
                lr: 2e-3,
                steps_per_observation: 3,
                ..DpoConfig::default()
            },
        );
        // Calibrate on a shifted input distribution (n = 100), repeated.
        let inputs: Vec<InputData> = (0..8).map(|_| InputData::new().with("n", 100i64)).collect();
        let trace = calibrate_cycles(&mut model, &mut cal, &program, &inputs).expect("calibrates");
        let early = trace.mape_first(2);
        let late = trace.mape_last(2);
        assert!(
            late <= early + 1e-9,
            "calibration should not worsen error: early {early:.3}, late {late:.3}"
        );
    }

    #[test]
    fn pair_log_probs_match_two_single_passes_bit_for_bit() {
        let model = tiny_model();
        let codec = model.config().codec;
        let tokens: Vec<u32> = vec![5, 6, 7, 8, 9];
        for (y_w, y_l) in [(1234u64, 7777u64), (0, 9999), (42, 41)] {
            let (dw, dl) = (codec.encode(y_w), codec.encode(y_l));
            let (pw, pl) = model.log_prob_pair_value(&tokens, Metric::Cycles, &dw, &dl);
            let sw = model.log_prob_value(&tokens, Metric::Cycles, &dw);
            let sl = model.log_prob_value(&tokens, Metric::Cycles, &dl);
            assert_eq!((pw.to_bits(), pl.to_bits()), (sw.to_bits(), sl.to_bits()));
            // The same holds against two full encodes on one tape.
            let mut g = Graph::new();
            let store = model.store();
            let (nw, nl) =
                model.log_prob_pair_node(&mut g, store, &tokens, Metric::Power, &dw, &dl);
            let tw = model.log_prob_node(&mut g, store, &tokens, Metric::Power, &dw);
            let tl = model.log_prob_node(&mut g, store, &tokens, Metric::Power, &dl);
            assert_eq!(g.value(nw).data(), g.value(tw).data());
            assert_eq!(g.value(nl).data(), g.value(tl).data());
        }
    }

    #[test]
    fn stored_margins_match_a_fresh_reference_pass_after_eviction() {
        let mut model = tiny_model();
        let reference = model.clone();
        let capacity = 4;
        let mut cal = DpoCalibrator::new(
            &model,
            DpoConfig {
                buffer_size: capacity,
                minibatch: 2,
                steps_per_observation: 1,
                ..DpoConfig::default()
            },
        );
        for i in 0..(capacity + 3) as u64 {
            let triple = PreferenceTriple {
                tokens: vec![3 + i as u32, 7, 11],
                metric: Metric::Cycles,
                y_w: 100 * i + 7,
                y_l: 50 * i + 900,
            };
            assert_eq!(cal.observe_triple(&mut model, triple), 1);
        }
        assert_ne!(
            model.log_prob_value(&[3, 7, 11], Metric::Cycles, &[0, 0, 0, 7]),
            reference.log_prob_value(&[3, 7, 11], Metric::Cycles, &[0, 0, 0, 7]),
            "the policy moved while the reference stayed frozen"
        );
        let codec = reference.config().codec;
        let mut rng = StdRng::seed_from_u64(0);
        let entries = cal.buffer().minibatch(usize::MAX, &mut rng);
        let mut survivors: Vec<u64> = entries.iter().map(|e| e.triple.y_w).collect();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![307, 407, 507, 607], "oldest evicted first");
        for e in entries {
            let t = &e.triple;
            let fresh = reference.log_prob_value(&t.tokens, t.metric, &codec.encode(t.y_w))
                - reference.log_prob_value(&t.tokens, t.metric, &codec.encode(t.y_l));
            assert_eq!(e.ref_margin.to_bits(), fresh.to_bits(), "y_w {}", t.y_w);
        }
    }

    /// Central finite differences of one DPO loss agree with the
    /// shared-encoder tape's gradient, at each parameter's largest entry.
    #[test]
    fn dpo_loss_gradient_matches_central_differences() {
        let mut model = tiny_model();
        let entry = ReplayEntry {
            triple: PreferenceTriple {
                tokens: vec![5, 6, 7, 8, 9, 10],
                metric: Metric::Cycles,
                y_w: 1234,
                y_l: 7777,
            },
            ref_margin: 0.3,
        };
        let beta = 0.5;
        let loss_at = |m: &NumericPredictor| {
            let mut g = Graph::new();
            let l = dpo_loss(&mut g, m.store(), m, &entry, beta);
            g.value(l).get(0, 0)
        };
        let mut g = Graph::new();
        let loss = dpo_loss(&mut g, model.store(), &model, &entry, beta);
        g.backward(loss);
        let grads = g.param_grads();
        let ids: std::collections::HashSet<_> = grads.iter().map(|(pid, _)| *pid).collect();
        assert_eq!(ids.len(), grads.len(), "each parameter listed once");
        let eps = 1e-3f32;
        let mut checked = 0;
        for (pid, grad) in &grads {
            let (at, &analytic) = grad
                .data()
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                .expect("non-empty parameter");
            if analytic == 0.0 {
                continue;
            }
            let orig = model.store().get(*pid).data()[at];
            model.store_mut().get_mut(*pid).data_mut()[at] = orig + eps;
            let plus = loss_at(&model);
            model.store_mut().get_mut(*pid).data_mut()[at] = orig - eps;
            let minus = loss_at(&model);
            model.store_mut().get_mut(*pid).data_mut()[at] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() <= 2e-2 * analytic.abs().max(numeric.abs()) + 1e-3,
                "{}[{at}]: analytic {analytic}, numeric {numeric}",
                model.store().name(*pid)
            );
            checked += 1;
        }
        assert!(
            checked >= grads.len() / 2,
            "checked {checked} of {}",
            grads.len()
        );
    }

    #[test]
    fn buffer_size_one_is_online() {
        let buf = ReplayBuffer::new(0);
        assert_eq!(buf.capacity(), 1);
    }

    fn triple(i: u64) -> PreferenceTriple {
        PreferenceTriple {
            tokens: vec![i as u32],
            metric: Metric::Cycles,
            y_w: i,
            y_l: i + 1,
        }
    }

    /// Capacity 0 clamps to 1 and then behaves exactly like capacity 1:
    /// pure online replay where only the newest triple survives.
    #[test]
    fn capacity_zero_and_one_keep_only_the_newest_triple() {
        for requested in [0usize, 1] {
            let mut buf = ReplayBuffer::new(requested);
            assert_eq!(buf.capacity(), 1, "requested {requested}");
            assert!(buf.is_empty());
            for i in 0..5u64 {
                buf.push(triple(i));
                assert_eq!(buf.len(), 1, "never grows past 1");
            }
            let mut rng = StdRng::seed_from_u64(7);
            let batch = buf.minibatch(3, &mut rng);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].y_w, 4, "only the newest triple survives");
        }
    }

    /// The window is FIFO: pushing past capacity evicts strictly oldest
    /// first, and survivors keep their insertion order.
    #[test]
    fn window_evicts_oldest_first_in_insertion_order() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..7u64 {
            buf.push(triple(i));
        }
        assert_eq!(buf.len(), 3);
        // Deterministic full drain via an oversized minibatch after a
        // shuffle would lose order, so inspect via repeated sampling: every
        // sampled triple must come from the surviving window {4, 5, 6}.
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen: Vec<u64> = buf.minibatch(3, &mut rng).iter().map(|t| t.y_w).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![4, 5, 6], "exactly the three newest survive");
        // One more push evicts 4, the oldest survivor.
        buf.push(triple(7));
        let mut seen: Vec<u64> = buf.minibatch(3, &mut rng).iter().map(|t| t.y_w).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![5, 6, 7]);
    }

    /// Minibatch sampling is a pure function of the RNG state: the same
    /// seed draws the same triples in the same order, and `k` clamps to
    /// at least 1 and at most the occupancy.
    #[test]
    fn minibatch_sampling_is_deterministic_under_a_fixed_seed() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8u64 {
            buf.push(triple(i));
        }
        let draw = |seed: u64, k: usize| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            buf.minibatch(k, &mut rng).iter().map(|t| t.y_w).collect()
        };
        assert_eq!(draw(42, 4), draw(42, 4), "same seed, same sample");
        assert_eq!(draw(42, 4).len(), 4);
        // Sampling is without replacement.
        let mut once = draw(42, 8);
        once.sort_unstable();
        once.dedup();
        assert_eq!(once.len(), 8, "no triple drawn twice");
        // k = 0 clamps to 1; k beyond occupancy returns everything.
        assert_eq!(draw(3, 0).len(), 1);
        assert_eq!(draw(3, 100).len(), 8);
        // Different seeds are allowed to differ (and these do, pinning that
        // the rng actually drives the shuffle).
        assert_ne!(draw(0, 8), draw(1, 8), "shuffle depends on the seed");
    }
}
