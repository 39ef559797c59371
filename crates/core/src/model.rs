//! The numeric prediction model (paper Sec. 4): a transformer encoder over
//! progressively tokenized program text with digit-wise categorical heads for
//! each of the four metrics, trained with categorical cross-entropy (Eq. 1).

use crate::dataset::{CostModel, Dataset, Sample};
use crate::numeric::{int_to_metric, metric_to_int, DigitCodec, DigitDistribution};
use llmulator_nn::{
    softmax_slice, AdamConfig, AdamW, Graph, Matrix, NodeId, ParamId, ParamStore, Scratch,
    Transformer, TransformerConfig,
};
use llmulator_sim::{CostVector, Metric};
use llmulator_token::{NumericMode, TokenizedProgram, Tokenizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Model capacity tiers standing in for the paper's 0.5B / 1B / 8B base
/// models (Table 10); scaling is by width/depth rather than parameter count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelScale {
    /// Stand-in for Qwen2.5-0.5B.
    Small,
    /// Stand-in for LLaMA-3.2-1B (the paper's default).
    Medium,
    /// Stand-in for LLaMA-3.1-8B.
    Large,
}

impl ModelScale {
    /// Transformer geometry for this tier.
    pub fn transformer_config(self, vocab_size: usize, max_len: usize) -> TransformerConfig {
        match self {
            ModelScale::Small => TransformerConfig {
                vocab_size,
                d_model: 24,
                n_heads: 2,
                n_layers: 1,
                d_ff: 48,
                max_len,
            },
            ModelScale::Medium => TransformerConfig {
                vocab_size,
                d_model: 32,
                n_heads: 4,
                n_layers: 2,
                d_ff: 64,
                max_len,
            },
            ModelScale::Large => TransformerConfig {
                vocab_size,
                d_model: 48,
                n_heads: 4,
                n_layers: 3,
                d_ff: 96,
                max_len,
            },
        }
    }

    /// Table 10 row label.
    pub fn label(self) -> &'static str {
        match self {
            ModelScale::Small => "0.5B",
            ModelScale::Medium => "1B",
            ModelScale::Large => "8B",
        }
    }
}

/// Predictor hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Capacity tier.
    pub scale: ModelScale,
    /// Output digit codec.
    pub codec: DigitCodec,
    /// Numeric tokenization mode (`Digits` = ours, `Whole` = NoEnc ablation).
    pub numeric_mode: NumericMode,
    /// Context length in tokens.
    pub max_len: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            scale: ModelScale::Medium,
            codec: DigitCodec::standard(),
            numeric_mode: NumericMode::Digits,
            max_len: 256,
            seed: 0,
        }
    }
}

/// Training options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Worker threads for gradient accumulation.
    pub threads: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 4,
            batch_size: 8,
            lr: 2e-3,
            threads: 2,
        }
    }
}

/// Prediction for a single metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricPrediction {
    /// Which metric.
    pub metric: Metric,
    /// Decoded value in the metric's natural unit.
    pub value: f64,
    /// Chosen digits, MSB first.
    pub digits: Vec<u8>,
    /// Final-position (LSB) confidence — the paper's Table 6 quantity.
    pub confidence: f32,
    /// Geometric-mean confidence across positions.
    pub mean_confidence: f32,
    /// Full per-position distributions (rank runner-up digit strings on
    /// demand with [`crate::numeric::beam_search`]).
    pub distribution: DigitDistribution,
}

/// Prediction across all four metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// One entry per [`Metric::all`] in order.
    pub per_metric: Vec<MetricPrediction>,
}

impl Prediction {
    /// The prediction for one metric.
    pub fn metric(&self, m: Metric) -> &MetricPrediction {
        self.per_metric
            .iter()
            .find(|p| p.metric == m)
            .expect("all metrics present")
    }

    /// Collapses to a cost vector.
    pub fn cost_vector(&self) -> CostVector {
        CostVector {
            power_mw: self.metric(Metric::Power).value,
            area_um2: self.metric(Metric::Area).value,
            ff: self.metric(Metric::FlipFlops).value as u64,
            cycles: self.metric(Metric::Cycles).value as u64,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct MetricHead {
    /// `d_model × (width·base)` projection.
    w: ParamId,
    /// `1 × (width·base)` bias.
    b: ParamId,
}

/// The LLMulator numeric predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NumericPredictor {
    config: PredictorConfig,
    tokenizer: Tokenizer,
    store: ParamStore,
    encoder: Transformer,
    heads: Vec<MetricHead>,
}

impl NumericPredictor {
    /// Builds a fresh (untrained) predictor.
    pub fn new(config: PredictorConfig) -> NumericPredictor {
        let tokenizer = Tokenizer::with_mode(config.numeric_mode);
        let mut store = ParamStore::new();
        let tcfg = config
            .scale
            .transformer_config(tokenizer.vocab_size(), config.max_len);
        let encoder = Transformer::new(tcfg, &mut store, config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x9e3779b9));
        let d = tcfg.d_model;
        let out = config.codec.width * config.codec.base as usize;
        let heads = Metric::all()
            .iter()
            .map(|m| MetricHead {
                w: store.add(
                    format!("head.{}.w", m.label()),
                    Matrix::randn(d, out, 0.05, &mut rng),
                ),
                b: store.add(format!("head.{}.b", m.label()), Matrix::zeros(1, out)),
            })
            .collect();
        NumericPredictor {
            config,
            tokenizer,
            store,
            encoder,
            heads,
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// The tokenizer (shared with callers that pre-tokenize).
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The underlying encoder (used by the cached inference path).
    pub fn encoder(&self) -> &Transformer {
        &self.encoder
    }

    /// The parameter store (used by the cached inference path).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.store.scalar_count()
    }

    /// Always 1: decoding is greedy ([`DigitDistribution::greedy`]). Kept
    /// for callers written against the beam-decoding API.
    pub fn beam_width(&self) -> usize {
        1
    }

    /// Tokenizes a sample's text under this predictor's context limit.
    pub fn tokenize_sample(&self, sample: &Sample) -> TokenizedProgram {
        sample.text.tokenize(&self.tokenizer, self.config.max_len)
    }

    /// Digit targets for a cost vector, per metric.
    pub fn targets_of(&self, cost: &CostVector) -> Vec<Vec<u8>> {
        Metric::all()
            .iter()
            .map(|&m| self.config.codec.encode(metric_to_int(m, cost.metric(m))))
            .collect()
    }

    /// Per-sample training loss node: mean digit cross-entropy over all
    /// metrics and positions (paper Eq. 1).
    fn sample_loss<'s>(
        &self,
        g: &mut Graph<'s>,
        store: &'s ParamStore,
        tokens: &[u32],
        targets: &[Vec<u8>],
    ) -> NodeId {
        let out = self.encoder.encode(g, store, tokens, None);
        let base = self.config.codec.base as usize;
        let width = self.config.codec.width;
        let mut total: Option<NodeId> = None;
        for (h, target) in self.heads.iter().zip(targets) {
            let w = g.param(store, h.w);
            let b = g.param(store, h.b);
            let l = g.matmul(out.pooled, w);
            let logits = g.add_row(l, b);
            for (j, &digit) in target.iter().enumerate().take(width) {
                let slice = g.slice_cols(logits, j * base, base);
                let ce = g.cross_entropy(slice, &[digit as usize]);
                total = Some(match total {
                    None => ce,
                    Some(t) => g.add(t, ce),
                });
            }
        }
        let t = total.expect("at least one metric");
        g.scale(t, 1.0 / (self.heads.len() * width) as f32)
    }

    /// Trains on a dataset; returns the per-epoch mean loss curve.
    pub fn fit(&mut self, dataset: &Dataset, options: TrainOptions) -> Vec<f32> {
        let items: Vec<(Vec<u32>, Vec<Vec<u8>>)> = dataset
            .samples
            .iter()
            .map(|s| (self.tokenize_sample(s).tokens, self.targets_of(&s.cost)))
            .collect();
        self.fit_tokenized(&items, options)
    }

    /// Trains on pre-tokenized items.
    pub fn fit_tokenized(
        &mut self,
        items: &[(Vec<u32>, Vec<Vec<u8>>)],
        options: TrainOptions,
    ) -> Vec<f32> {
        if items.is_empty() {
            return Vec::new();
        }
        let mut opt = AdamW::new(
            &self.store,
            AdamConfig {
                lr: options.lr,
                ..AdamConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..items.len()).collect();
        let mut curve = Vec::with_capacity(options.epochs);
        for _ in 0..options.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(options.batch_size.max(1)) {
                let batch: Vec<&(Vec<u32>, Vec<Vec<u8>>)> =
                    chunk.iter().map(|&i| &items[i]).collect();
                let (loss, grads) = llmulator_nn::train::batch_grads(
                    &self.store,
                    &batch,
                    options.threads,
                    |g, store, item| self.sample_loss(g, store, &item.0, &item.1),
                );
                opt.apply(&mut self.store, &grads);
                epoch_loss += loss;
                batches += 1;
            }
            curve.push(epoch_loss / batches.max(1) as f32);
        }
        curve
    }

    /// Decodes metric predictions from a pooled representation (pure matrix
    /// math — shared by the tape and cached inference paths).
    ///
    /// This is the per-sample decode the pre-fusion batch path runs; it is
    /// kept as the oracle for the batched
    /// [`NumericPredictor::decode_pooled_rows`].
    pub fn decode_pooled(&self, pooled: &Matrix) -> Prediction {
        let per_metric = Metric::all()
            .iter()
            .zip(&self.heads)
            .map(|(&metric, h)| {
                let mut logits = pooled.matmul(self.store.get(h.w));
                self.decode_metric(metric, logits.row_mut(0), self.store.get(h.b).row(0))
            })
            .collect();
        Prediction { per_metric }
    }

    /// Decodes one [`Prediction`] per row of a packed pooled matrix
    /// (`B × d_model`, as produced by [`llmulator_nn::forward_packed`]) —
    /// the batched decode behind [`NumericPredictor::predict_batch_threads`].
    ///
    /// Each metric head runs as a single `B × d_model × (width·base)` GEMM
    /// for the whole pack (the blocked kernel is bit-identical per row), so
    /// every row decodes exactly as `decode_pooled` would on that row alone.
    pub fn decode_pooled_rows(&self, pooled: &Matrix) -> Vec<Prediction> {
        let mut per_row: Vec<Vec<MetricPrediction>> = (0..pooled.rows())
            .map(|_| Vec::with_capacity(self.heads.len()))
            .collect();
        for (&metric, h) in Metric::all().iter().zip(&self.heads) {
            // One fused head GEMM for all rows.
            let mut logits = pooled.matmul(self.store.get(h.w));
            let bias = self.store.get(h.b).row(0);
            for (r, metrics) in per_row.iter_mut().enumerate() {
                metrics.push(self.decode_metric(metric, logits.row_mut(r), bias));
            }
        }
        per_row
            .into_iter()
            .map(|per_metric| Prediction { per_metric })
            .collect()
    }

    /// [`NumericPredictor::decode_pooled_rows`]; the width is ignored
    /// because decoding is greedy. Kept for callers written against the
    /// beam-decoding API.
    pub fn decode_pooled_rows_width(&self, pooled: &Matrix, _width: usize) -> Vec<Prediction> {
        self.decode_pooled_rows(pooled)
    }

    /// Decodes one metric from its head's logits row: adds the bias,
    /// softmaxes each digit slice in place (no per-position `1×base`
    /// matrices) and takes the greedy digits.
    fn decode_metric(&self, metric: Metric, logits: &mut [f32], bias: &[f32]) -> MetricPrediction {
        for (v, &bv) in logits.iter_mut().zip(bias) {
            *v += bv;
        }
        let rows = logits
            .chunks_exact_mut(self.config.codec.base as usize)
            .take(self.config.codec.width)
            .map(|slice| {
                softmax_slice(slice);
                slice.to_vec()
            })
            .collect();
        let dist = DigitDistribution::new(self.config.codec.base, rows);
        let digits = dist.greedy();
        MetricPrediction {
            metric,
            value: int_to_metric(metric, self.config.codec.decode(&digits)),
            confidence: dist.final_confidence(&digits),
            mean_confidence: dist.mean_confidence(&digits),
            digits,
            distribution: dist,
        }
    }

    /// Predicts from raw tokens (full forward pass, optional mask).
    ///
    /// Runs the tape-free scratch-backed forward pass ([`llmulator_nn::forward`]),
    /// which is bit-identical to the autodiff tape while several times faster.
    pub fn predict_tokens(&self, tokens: &[u32], mask: Option<&Matrix>) -> Prediction {
        let mut scratch = Scratch::new();
        self.predict_tokens_with(tokens, mask, &mut scratch)
    }

    /// [`NumericPredictor::predict_tokens`] with a caller-owned scratch arena
    /// so prediction loops allocate nothing in steady state.
    pub fn predict_tokens_with(
        &self,
        tokens: &[u32],
        mask: Option<&Matrix>,
        scratch: &mut Scratch,
    ) -> Prediction {
        let (seq, pooled) =
            llmulator_nn::forward(&self.encoder, &self.store, tokens, mask, scratch);
        let prediction = self.decode_pooled(&pooled);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        prediction
    }

    /// Predicts for a sample.
    pub fn predict_sample(&self, sample: &Sample) -> Prediction {
        let tp = self.tokenize_sample(sample);
        self.predict_tokens(&tp.tokens, None)
    }

    /// Predicts a batch of samples in parallel across the machine's
    /// available cores (see [`NumericPredictor::predict_batch_threads`]).
    pub fn predict_batch(&self, samples: &[Sample]) -> Vec<Prediction> {
        self.predict_batch_threads(samples, llmulator_nn::available_threads())
    }

    /// Predicts a batch of samples with batch-level kernel fusion: samples
    /// are tokenized in parallel, grouped by effective sequence length
    /// ([`crate::encode::fusion_group_key`]), and each group runs through
    /// one packed GEMM per transformer layer
    /// ([`llmulator_nn::forward_packed`]) instead of one forward pass per
    /// sample. Groups fan out across up to `threads` scoped worker threads
    /// (each with its own scratch arena).
    ///
    /// Results keep input order and are bit-identical to serial
    /// [`NumericPredictor::predict_sample`] calls regardless of thread
    /// count or group composition.
    pub fn predict_batch_threads(&self, samples: &[Sample], threads: usize) -> Vec<Prediction> {
        let seqs: Vec<Vec<u32>> =
            llmulator_nn::par_map(samples, threads, |s| self.tokenize_sample(s).tokens);
        self.predict_tokens_batch_threads(&seqs, threads)
    }

    /// The pre-fusion batch path — one forward pass per sample, fanned out
    /// at sample granularity — kept as the test oracle and perf baseline
    /// for the fused [`NumericPredictor::predict_batch_threads`] (the role
    /// the `*_naive` kernels play in `llmulator-nn`).
    pub fn predict_batch_unfused_threads(
        &self,
        samples: &[Sample],
        threads: usize,
    ) -> Vec<Prediction> {
        llmulator_nn::train::par_map_init(samples, threads, Scratch::new, |scratch, s| {
            let tp = self.tokenize_sample(s);
            self.predict_tokens_with(&tp.tokens, None, scratch)
        })
    }

    /// Fused batched prediction from raw token sequences (the core of
    /// [`NumericPredictor::predict_batch_threads`], exposed for callers
    /// that pre-tokenize).
    pub fn predict_tokens_batch_threads(
        &self,
        seqs: &[Vec<u32>],
        threads: usize,
    ) -> Vec<Prediction> {
        if seqs.is_empty() {
            return Vec::new();
        }
        // Group by the encoder's own effective-length rule — the same
        // `TransformerConfig` that `forward_packed` asserts pack
        // compatibility against, so grouping and packing can never drift.
        let encoder_cfg = *self.encoder.config();
        let keys: Vec<usize> = seqs
            .iter()
            .map(|s| encoder_cfg.effective_len(s.len()))
            .collect();
        // Split each same-length group into balanced chunks so (a) thread
        // fan-out survives one dominant group and (b) a pack's per-stage
        // activation working set stays L2-resident — beyond ~512 packed
        // rows the layer stages stream from outer cache levels and the
        // fusion gain inverts (measured on the 1-vCPU build container).
        // Packing is bit-identical at any group size, so the split never
        // changes results.
        const PACK_ROWS: usize = 512;
        let chunk_cap = seqs.len().div_ceil(threads.max(1)).max(1);
        let units: Vec<Vec<usize>> = crate::encode::group_by_key(&keys)
            .into_iter()
            .flat_map(|(len, idxs)| {
                let cap = chunk_cap.min((PACK_ROWS / len.max(1)).max(1));
                idxs.chunks(cap).map(<[usize]>::to_vec).collect::<Vec<_>>()
            })
            .collect();
        let unit_preds =
            llmulator_nn::train::par_map_init(&units, threads, Scratch::new, |scratch, unit| {
                let group: Vec<&[u32]> = unit.iter().map(|&i| seqs[i].as_slice()).collect();
                let (seq, pooled) =
                    llmulator_nn::forward_packed(&self.encoder, &self.store, &group, scratch);
                let preds = self.decode_pooled_rows(&pooled);
                scratch.recycle(seq);
                scratch.recycle(pooled);
                preds
            });
        // Unpack back to input order.
        let mut out: Vec<Option<Prediction>> = vec![None; seqs.len()];
        for (unit, preds) in units.iter().zip(unit_preds) {
            for (&i, p) in unit.iter().zip(preds) {
                out[i] = Some(p);
            }
        }
        out.into_iter()
            .map(|p| p.expect("every sample predicted exactly once"))
            .collect()
    }

    /// Builds the tape node for `log π(digits | tokens)` of one metric
    /// (summed per-position log-probabilities) — the DPO building block.
    pub fn log_prob_node<'s>(
        &self,
        g: &mut Graph<'s>,
        store: &'s ParamStore,
        tokens: &[u32],
        metric: Metric,
        digits: &[u8],
    ) -> NodeId {
        let logits = self.head_logits(g, store, tokens, metric);
        self.digits_log_prob(g, logits, digits)
    }

    /// `(log π(a | tokens), log π(b | tokens))` for one metric from a single
    /// encoder pass and metric-head registration — the DPO preference pair.
    /// Forward values are bit-identical to two [`Self::log_prob_node`]
    /// calls; the backward sweep runs through the encoder once.
    pub fn log_prob_pair_node<'s>(
        &self,
        g: &mut Graph<'s>,
        store: &'s ParamStore,
        tokens: &[u32],
        metric: Metric,
        a: &[u8],
        b: &[u8],
    ) -> (NodeId, NodeId) {
        let logits = self.head_logits(g, store, tokens, metric);
        let lp_a = self.digits_log_prob(g, logits, a);
        let lp_b = self.digits_log_prob(g, logits, b);
        (lp_a, lp_b)
    }

    /// Encodes `tokens` and applies `metric`'s digit head: a `1×(width·base)`
    /// logits node.
    fn head_logits<'s>(
        &self,
        g: &mut Graph<'s>,
        store: &'s ParamStore,
        tokens: &[u32],
        metric: Metric,
    ) -> NodeId {
        let out = self.encoder.encode(g, store, tokens, None);
        let idx = Metric::all()
            .iter()
            .position(|&m| m == metric)
            .expect("known metric");
        let h = &self.heads[idx];
        let w = g.param(store, h.w);
        let b = g.param(store, h.b);
        let l = g.matmul(out.pooled, w);
        g.add_row(l, b)
    }

    /// Summed per-position digit log-probabilities read off `logits`.
    fn digits_log_prob(&self, g: &mut Graph, logits: NodeId, digits: &[u8]) -> NodeId {
        let base = self.config.codec.base as usize;
        let mut total: Option<NodeId> = None;
        for (j, &d) in digits.iter().enumerate().take(self.config.codec.width) {
            let slice = g.slice_cols(logits, j * base, base);
            let lp = g.log_prob(slice, &[d as usize]);
            total = Some(match total {
                None => lp,
                Some(t) => g.add(t, lp),
            });
        }
        total.expect("at least one digit")
    }

    /// Forward-only `log π(digits | tokens)` (for the frozen reference
    /// policy in DPO).
    pub fn log_prob_value(&self, tokens: &[u32], metric: Metric, digits: &[u8]) -> f32 {
        let mut g = Graph::new();
        let node = self.log_prob_node(&mut g, &self.store, tokens, metric, digits);
        g.value(node).get(0, 0)
    }

    /// Forward-only [`Self::log_prob_pair_node`]: both log-probabilities
    /// from one encoder pass.
    pub fn log_prob_pair_value(
        &self,
        tokens: &[u32],
        metric: Metric,
        a: &[u8],
        b: &[u8],
    ) -> (f32, f32) {
        let mut g = Graph::new();
        let (a, b) = self.log_prob_pair_node(&mut g, &self.store, tokens, metric, a, b);
        (g.value(a).get(0, 0), g.value(b).get(0, 0))
    }

    /// Mutable access for the optimizer (crate-internal).
    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl CostModel for NumericPredictor {
    fn name(&self) -> &str {
        match self.config.numeric_mode {
            NumericMode::Digits => "LLMulator",
            NumericMode::Whole => "LLMulator-NoEnc",
        }
    }

    fn predict(&self, sample: &Sample) -> CostVector {
        self.predict_sample(sample).cost_vector()
    }

    fn predict_batch(&self, samples: &[Sample]) -> Vec<CostVector> {
        NumericPredictor::predict_batch(self, samples)
            .iter()
            .map(Prediction::cost_vector)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::beam_search;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{Expr, LValue, Program, Stmt};

    fn tiny_config() -> PredictorConfig {
        PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 48,
            seed: 3,
        }
    }

    fn sample(n: usize) -> Sample {
        let op = OperatorBuilder::new("inc")
            .array_param("a", [n])
            .loop_nest(&[("i", n)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
                )]
            })
            .build();
        Sample::profile(&Program::single_op(op), None).expect("profiles")
    }

    #[test]
    fn prediction_has_all_metrics_and_confidences() {
        let model = NumericPredictor::new(tiny_config());
        let p = model.predict_sample(&sample(8));
        assert_eq!(p.per_metric.len(), 4);
        for mp in &p.per_metric {
            assert!(mp.value >= 0.0);
            assert!((0.0..=1.0).contains(&mp.confidence));
            assert_eq!(mp.digits.len(), 4);
            assert_eq!(beam_search(&mp.distribution, 4)[0].digits, mp.digits);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = NumericPredictor::new(tiny_config());
        let ds: Dataset = vec![sample(4), sample(8), sample(12), sample(16)]
            .into_iter()
            .collect();
        let curve = model.fit(
            &ds,
            TrainOptions {
                epochs: 8,
                batch_size: 2,
                lr: 5e-3,
                threads: 2,
            },
        );
        assert!(curve.len() == 8);
        assert!(
            curve.last().expect("non-empty") < curve.first().expect("non-empty"),
            "loss curve {curve:?}"
        );
    }

    #[test]
    fn overfits_single_sample_to_exact_digits() {
        let mut model = NumericPredictor::new(tiny_config());
        let s = sample(8);
        let ds: Dataset = vec![s.clone()].into_iter().collect();
        model.fit(
            &ds,
            TrainOptions {
                epochs: 60,
                batch_size: 1,
                lr: 1e-2,
                threads: 1,
            },
        );
        let pred = model.predict_sample(&s);
        let targets = model.targets_of(&s.cost);
        // At least cycles digits should be memorized.
        let cyc = pred.metric(Metric::Cycles);
        assert_eq!(
            cyc.digits, targets[3],
            "cycles digits memorized (got {:?}, want {:?})",
            cyc.digits, targets[3]
        );
    }

    #[test]
    fn log_prob_matches_distribution() {
        let model = NumericPredictor::new(tiny_config());
        let s = sample(4);
        let tp = model.tokenize_sample(&s);
        let pred = model.predict_tokens(&tp.tokens, None);
        let cyc = pred.metric(Metric::Cycles);
        let lp = model.log_prob_value(&tp.tokens, Metric::Cycles, &cyc.digits);
        let manual: f32 = cyc
            .distribution
            .confidences(&cyc.digits)
            .iter()
            .map(|p| p.max(1e-9).ln())
            .sum();
        assert!((lp - manual).abs() < 1e-3, "{lp} vs {manual}");
    }

    /// Encoding twice on one tape reuses each parameter's leaf, so the
    /// tape's gradient is the sum of the two single-pass gradients and
    /// every parameter is listed once.
    #[test]
    fn two_log_prob_nodes_on_one_tape_sum_their_gradients() {
        let model = NumericPredictor::new(tiny_config());
        let store = model.store();
        let tokens = [4u32, 9, 12, 3];
        let (a, b) = ([0u8, 1, 2, 3], [9u8, 8, 7, 6]);
        let single = |digits: &[u8]| {
            let mut g = Graph::new();
            let lp = model.log_prob_node(&mut g, store, &tokens, Metric::Cycles, digits);
            g.backward(lp);
            g.param_grads()
        };
        let (ga, gb) = (single(&a), single(&b));
        let mut g = Graph::new();
        let la = model.log_prob_node(&mut g, store, &tokens, Metric::Cycles, &a);
        let lb = model.log_prob_node(&mut g, store, &tokens, Metric::Cycles, &b);
        let sum = g.add(la, lb);
        g.backward(sum);
        let both = g.param_grads();
        let ids: std::collections::HashSet<_> = both.iter().map(|(pid, _)| *pid).collect();
        assert_eq!(ids.len(), both.len(), "distinct ids");
        assert_eq!(both.len(), ga.len());
        for (((pid, m), (pa, ma)), (pb, mb)) in both.iter().zip(&ga).zip(&gb) {
            assert_eq!((pid, pid), (pa, pb), "same registration order");
            for ((x, y), z) in m.data().iter().zip(ma.data()).zip(mb.data()) {
                assert!(
                    (x - (y + z)).abs() < 1e-6,
                    "{}: {x} vs {y} + {z}",
                    store.name(*pid)
                );
            }
        }
    }

    #[test]
    fn scales_order_by_capacity() {
        let v = 100;
        let s = ModelScale::Small.transformer_config(v, 64);
        let m = ModelScale::Medium.transformer_config(v, 64);
        let l = ModelScale::Large.transformer_config(v, 64);
        assert!(s.d_model < m.d_model && m.d_model < l.d_model);
        assert_eq!(ModelScale::Medium.label(), "1B");
    }

    #[test]
    fn fused_batch_is_bit_identical_to_per_sample_any_thread_count() {
        let model = NumericPredictor::new(tiny_config());
        // Mixed lengths: several samples share a group, some are singletons.
        let samples: Vec<Sample> = [4usize, 8, 4, 12, 8, 4, 16]
            .iter()
            .map(|&n| sample(n))
            .collect();
        let oracle: Vec<Prediction> = samples.iter().map(|s| model.predict_sample(s)).collect();
        for threads in [1usize, 2, 4] {
            let fused = model.predict_batch_threads(&samples, threads);
            assert_eq!(fused, oracle, "threads={threads}");
            let unfused = model.predict_batch_unfused_threads(&samples, threads);
            assert_eq!(unfused, oracle, "unfused threads={threads}");
        }
    }

    #[test]
    fn fused_token_batch_handles_empty_input_and_empty_sequences() {
        let model = NumericPredictor::new(tiny_config());
        assert!(model.predict_tokens_batch_threads(&[], 4).is_empty());
        let seqs = vec![Vec::new(), vec![3u32, 5, 7], Vec::new()];
        let fused = model.predict_tokens_batch_threads(&seqs, 2);
        let oracle: Vec<Prediction> = seqs.iter().map(|s| model.predict_tokens(s, None)).collect();
        assert_eq!(fused, oracle, "empty sequences group and decode");
    }

    #[test]
    fn decode_pooled_rows_matches_single_row_decode() {
        let model = NumericPredictor::new(tiny_config());
        let d = model.encoder().config().d_model;
        let pooled = Matrix::from_fn(3, d, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6);
        let batch = model.decode_pooled_rows(&pooled);
        assert_eq!(batch.len(), 3);
        for (r, got) in batch.iter().enumerate() {
            let row = Matrix::from_vec(1, d, pooled.row(r).to_vec());
            assert_eq!(got, &model.decode_pooled(&row), "row {r}");
        }
    }

    #[test]
    fn cost_model_trait_round_trip() {
        let model = NumericPredictor::new(tiny_config());
        let s = sample(4);
        let cv = model.predict(&s);
        assert_eq!(model.name(), "LLMulator");
        assert!(cv.power_mw >= 0.0);
    }
}
