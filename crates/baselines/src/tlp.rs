//! TLP baseline (Zhai et al., ASPLOS'23): a language-model cost predictor
//! that maps program text straight to *normalized regression outputs*.
//!
//! Differences from LLMulator, mirroring the paper's Table 1 comparison:
//! conventional whole-number tokenization (no digit decomposition), a
//! sigmoid-bounded regression head, MSE loss, and denormalization against the
//! training range — so predictions can never leave the range seen during
//! training, which is exactly the application-generalization failure the
//! paper measures.

use crate::regression::{decode_prediction, mse_loss, Normalizer};
use llmulator::{CostModel, Dataset, Sample, TrainOptions};
use llmulator_nn::{
    AdamConfig, AdamW, Graph, Matrix, NodeId, ParamId, ParamStore, Transformer, TransformerConfig,
};
use llmulator_sim::CostVector;
use llmulator_token::Tokenizer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The TLP regression model.
#[derive(Debug, Clone)]
pub struct Tlp {
    tokenizer: Tokenizer,
    store: ParamStore,
    encoder: Transformer,
    head_w: ParamId,
    head_b: ParamId,
    norm: Normalizer,
    max_len: usize,
}

impl Tlp {
    /// Builds an untrained TLP model (normalizer defaults to unit range).
    pub fn new(max_len: usize, seed: u64) -> Tlp {
        let tokenizer = Tokenizer::baseline();
        let mut store = ParamStore::new();
        let cfg = TransformerConfig {
            vocab_size: tokenizer.vocab_size(),
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 64,
            max_len,
        };
        let encoder = Transformer::new(cfg, &mut store, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let head_w = store.add("tlp.head_w", Matrix::randn(cfg.d_model, 4, 0.1, &mut rng));
        let head_b = store.add("tlp.head_b", Matrix::zeros(1, 4));
        Tlp {
            tokenizer,
            store,
            encoder,
            head_w,
            head_b,
            norm: Normalizer::fit(&[]),
            max_len,
        }
    }

    /// Builds and trains a TLP model with the evaluation protocol shared by
    /// the experiment harness and the CLI (context length 256, seed offset
    /// `+2` from the suite seed, the caller's train options as-is) — one
    /// source of truth for the paper's comparison columns.
    pub fn fit_paper(dataset: &Dataset, options: TrainOptions, suite_seed: u64) -> Tlp {
        let mut model = Tlp::new(256, suite_seed + 2);
        model.fit(dataset, options);
        model
    }

    fn tokens_of(&self, sample: &Sample) -> Vec<u32> {
        sample.text.tokenize(&self.tokenizer, self.max_len).tokens
    }

    fn forward<'s>(&self, g: &mut Graph<'s>, store: &'s ParamStore, tokens: &[u32]) -> NodeId {
        let out = self.encoder.encode(g, store, tokens, None);
        let w = g.param(store, self.head_w);
        let b = g.param(store, self.head_b);
        let l = g.matmul(out.pooled, w);
        let l = g.add_row(l, b);
        g.sigmoid(l)
    }

    /// Trains with MSE on normalized targets; returns the epoch loss curve.
    pub fn fit(&mut self, dataset: &Dataset, options: TrainOptions) -> Vec<f32> {
        self.norm = Normalizer::fit(&dataset.samples);
        let items: Vec<(Vec<u32>, Matrix)> = dataset
            .samples
            .iter()
            .map(|s| (self.tokens_of(s), self.norm.target_row(s)))
            .collect();
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
        let mut rng = StdRng::seed_from_u64(17);
        let mut order: Vec<usize> = (0..items.len()).collect();
        let mut curve = Vec::with_capacity(options.epochs);
        for _ in 0..options.epochs {
            order.shuffle(&mut rng);
            let mut epoch = 0.0f32;
            let mut batches = 0;
            for chunk in order.chunks(options.batch_size.max(1)) {
                let batch: Vec<&(Vec<u32>, Matrix)> = chunk.iter().map(|&i| &items[i]).collect();
                let (loss, grads) = llmulator_nn::train::batch_grads(
                    &self.store,
                    &batch,
                    options.threads,
                    |g, store, item| {
                        let pred = self.forward(g, store, &item.0);
                        mse_loss(g, pred, item.1.clone())
                    },
                );
                opt.apply(&mut self.store, &grads);
                epoch += loss;
                batches += 1;
            }
            curve.push(epoch / batches.max(1) as f32);
        }
        curve
    }
}

impl CostModel for Tlp {
    fn name(&self) -> &str {
        "TLP"
    }

    fn predict(&self, sample: &Sample) -> CostVector {
        let tokens = self.tokens_of(sample);
        let mut g = Graph::new();
        let pred = self.forward(&mut g, &self.store, &tokens);
        decode_prediction(&self.norm, g.value(pred))
    }

    fn predict_batch(&self, samples: &[Sample]) -> Vec<CostVector> {
        llmulator_nn::par_map(samples, llmulator_nn::available_threads(), |s| {
            self.predict(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{Expr, LValue, Program, Stmt};

    fn sample(n: usize) -> Sample {
        let op = OperatorBuilder::new("k")
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
    fn training_reduces_mse() {
        let mut tlp = Tlp::new(48, 1);
        let ds: Dataset = vec![sample(4), sample(8), sample(16), sample(24)]
            .into_iter()
            .collect();
        let curve = tlp.fit(
            &ds,
            TrainOptions {
                epochs: 10,
                batch_size: 2,
                lr: 5e-3,
                threads: 2,
            },
        );
        assert!(curve.last().expect("runs") < curve.first().expect("runs"));
    }

    #[test]
    fn predictions_saturate_at_training_range() {
        let mut tlp = Tlp::new(48, 2);
        let ds: Dataset = vec![sample(4), sample(8)].into_iter().collect();
        tlp.fit(
            &ds,
            TrainOptions {
                epochs: 3,
                batch_size: 2,
                lr: 3e-3,
                threads: 1,
            },
        );
        // A far larger kernel cannot be predicted above the training max —
        // the regression ceiling the paper's Challenge 1 describes.
        let big = sample(64);
        let pred = tlp.predict(&big);
        let max_train = ds.samples.iter().map(|s| s.cost.cycles).max().expect("ds");
        assert!(
            pred.cycles <= max_train,
            "sigmoid head cannot exceed training range: {} <= {max_train}",
            pred.cycles
        );
        assert!(big.cost.cycles > max_train, "test case is out of range");
    }

    #[test]
    fn name_is_tlp() {
        assert_eq!(Tlp::new(32, 0).name(), "TLP");
    }
}
