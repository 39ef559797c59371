//! A pre-norm transformer encoder with pluggable additive attention masks.
//!
//! This is the substitute for the paper's pre-trained LLaMA backbone: the
//! numeric-modeling interfaces under test (digit tokens in, digit-wise
//! categorical heads out, DPO on token log-likelihoods, masked/segmented
//! attention) are all architecture-independent, so a compact encoder trained
//! from scratch on the synthesized corpus exercises the identical code paths.

use crate::graph::{Graph, NodeId, ParamId, ParamStore};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Encoder hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub n_heads: usize,
    /// Encoder layers.
    pub n_layers: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
}

impl TransformerConfig {
    /// A small configuration suitable for unit tests.
    pub fn tiny(vocab_size: usize) -> TransformerConfig {
        TransformerConfig {
            vocab_size,
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 32,
        }
    }

    /// Effective sequence length for a raw token count: the number of rows
    /// every encoder path (tape, blocked, cached, packed) actually
    /// processes after truncation to `max_len`.
    ///
    /// This is the batch-fusion grouping key: two sequences can share a
    /// packed per-layer GEMM ([`crate::infer::forward_packed`]) iff their
    /// effective lengths match.
    pub fn effective_len(&self, token_count: usize) -> usize {
        token_count.min(self.max_len)
    }
}

/// Clamps a raw token id into the vocabulary: out-of-vocab ids map to the
/// last vocabulary slot (the tokenizer's ids are always in range; the clamp
/// guards externally supplied token streams).
///
/// # Panics
///
/// Panics if `vocab_size` is zero — there is no valid id to clamp to, and
/// the previous inline `(tok as usize).min(vocab_size - 1)` underflowed to
/// `usize::MAX` instead, deferring the failure to an opaque out-of-bounds
/// row index inside the embedding lookup.
pub(crate) fn clamp_token(tok: u32, vocab_size: usize) -> usize {
    assert!(vocab_size > 0, "clamp_token: empty vocabulary");
    (tok as usize).min(vocab_size - 1)
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LayerParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    ln1_gain: ParamId,
    ln1_bias: ParamId,
    ln2_gain: ParamId,
    ln2_bias: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
}

/// Parameter handles for a transformer encoder. Parameters themselves live in
/// the [`ParamStore`] passed at construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transformer {
    config: TransformerConfig,
    tok_embed: ParamId,
    pos_embed: ParamId,
    final_gain: ParamId,
    final_bias: ParamId,
    layers: Vec<LayerParams>,
}

/// Output of an encoder forward pass.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOut {
    /// Per-token representations (`n × d_model`).
    pub seq: NodeId,
    /// Mean-pooled representation (`1 × d_model`).
    pub pooled: NodeId,
}

impl Transformer {
    /// Allocates encoder parameters in `store` with seeded initialization.
    ///
    /// # Panics
    ///
    /// Panics unless `n_heads` divides `d_model`.
    pub fn new(config: TransformerConfig, store: &mut ParamStore, seed: u64) -> Transformer {
        assert_eq!(
            config.d_model % config.n_heads,
            0,
            "n_heads must divide d_model"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let d = config.d_model;
        let std = 0.02f32.max(1.0 / (d as f32).sqrt() * 0.5);
        let tok_embed = store.add(
            "tok_embed",
            Matrix::randn(config.vocab_size, d, std, &mut rng),
        );
        let pos_embed = store.add("pos_embed", Matrix::randn(config.max_len, d, std, &mut rng));
        let ones = Matrix::from_fn(1, d, |_, _| 1.0);
        let zeros = Matrix::zeros(1, d);
        let final_gain = store.add("final_gain", ones.clone());
        let final_bias = store.add("final_bias", zeros.clone());
        let mut layers = Vec::with_capacity(config.n_layers);
        for l in 0..config.n_layers {
            let p = |name: &str| format!("layer{l}.{name}");
            layers.push(LayerParams {
                wq: store.add(p("wq"), Matrix::randn(d, d, std, &mut rng)),
                wk: store.add(p("wk"), Matrix::randn(d, d, std, &mut rng)),
                wv: store.add(p("wv"), Matrix::randn(d, d, std, &mut rng)),
                wo: store.add(p("wo"), Matrix::randn(d, d, std, &mut rng)),
                ln1_gain: store.add(p("ln1_gain"), ones.clone()),
                ln1_bias: store.add(p("ln1_bias"), zeros.clone()),
                ln2_gain: store.add(p("ln2_gain"), ones.clone()),
                ln2_bias: store.add(p("ln2_bias"), zeros.clone()),
                w1: store.add(p("w1"), Matrix::randn(d, config.d_ff, std, &mut rng)),
                b1: store.add(p("b1"), Matrix::zeros(1, config.d_ff)),
                w2: store.add(p("w2"), Matrix::randn(config.d_ff, d, std, &mut rng)),
                b2: store.add(p("b2"), Matrix::zeros(1, d)),
            });
        }
        Transformer {
            config,
            tok_embed,
            pos_embed,
            final_gain,
            final_bias,
            layers,
        }
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Internal parameter handles exposed for the cached inference path.
    pub(crate) fn raw(&self) -> RawHandles<'_> {
        RawHandles {
            config: &self.config,
            tok_embed: self.tok_embed,
            pos_embed: self.pos_embed,
            final_gain: self.final_gain,
            final_bias: self.final_bias,
            layers: &self.layers,
        }
    }

    /// Forward pass on the autodiff tape.
    ///
    /// `tokens` longer than `max_len` are truncated. `mask`, when present,
    /// must be an `n × n` additive matrix (0 to attend, a large negative
    /// number to block) where `n` is the truncated token count.
    pub fn encode<'s>(
        &self,
        g: &mut Graph<'s>,
        store: &'s ParamStore,
        tokens: &[u32],
        mask: Option<&Matrix>,
    ) -> EncodeOut {
        let n = tokens.len().min(self.config.max_len).max(1);
        let ids: Vec<usize> = tokens
            .iter()
            .take(n)
            .map(|&t| clamp_token(t, self.config.vocab_size))
            .collect();
        let pos_ids: Vec<usize> = (0..ids.len()).collect();
        let tok_table = g.param(store, self.tok_embed);
        let pos_table = g.param(store, self.pos_embed);
        let te = g.gather(tok_table, &ids);
        let pe = g.gather(pos_table, &pos_ids);
        let mut x = g.add(te, pe);
        let mask_node = mask.map(|m| {
            assert_eq!(m.shape(), (ids.len(), ids.len()), "mask shape");
            g.input(m.clone())
        });
        for layer in &self.layers {
            x = self.encode_layer(g, store, layer, x, mask_node);
        }
        // Final layer norm with learned gain/bias.
        let ln = g.layer_norm_rows(x);
        let gain = g.param(store, self.final_gain);
        let bias = g.param(store, self.final_bias);
        let scaled = g.mul_row(ln, gain);
        let seq = g.add_row(scaled, bias);
        let pooled = g.mean_rows(seq);
        EncodeOut { seq, pooled }
    }

    fn encode_layer<'s>(
        &self,
        g: &mut Graph<'s>,
        store: &'s ParamStore,
        layer: &LayerParams,
        x: NodeId,
        mask: Option<NodeId>,
    ) -> NodeId {
        // ---- attention sub-block (pre-norm) ----
        let ln = g.layer_norm_rows(x);
        let g1 = g.param(store, layer.ln1_gain);
        let b1 = g.param(store, layer.ln1_bias);
        let ln = g.mul_row(ln, g1);
        let ln = g.add_row(ln, b1);
        let wq = g.param(store, layer.wq);
        let wk = g.param(store, layer.wk);
        let wv = g.param(store, layer.wv);
        let q = g.matmul(ln, wq);
        let k = g.matmul(ln, wk);
        let v = g.matmul(ln, wv);
        let cat = g.attention(q, k, v, mask, self.config.n_heads);
        let wo = g.param(store, layer.wo);
        let proj = g.matmul(cat, wo);
        let x = g.add(x, proj);
        // ---- feed-forward sub-block (pre-norm) ----
        let ln = g.layer_norm_rows(x);
        let g2 = g.param(store, layer.ln2_gain);
        let b2p = g.param(store, layer.ln2_bias);
        let ln = g.mul_row(ln, g2);
        let ln = g.add_row(ln, b2p);
        let w1 = g.param(store, layer.w1);
        let b1p = g.param(store, layer.b1);
        let h = g.matmul(ln, w1);
        let h = g.add_row(h, b1p);
        let h = g.relu(h);
        let w2 = g.param(store, layer.w2);
        let b2pp = g.param(store, layer.b2);
        let h = g.matmul(h, w2);
        let h = g.add_row(h, b2pp);
        g.add(x, h)
    }
}

/// Borrowed parameter handles for the inference path (crate-internal).
pub(crate) struct RawHandles<'a> {
    pub config: &'a TransformerConfig,
    pub tok_embed: ParamId,
    pub pos_embed: ParamId,
    pub final_gain: ParamId,
    pub final_bias: ParamId,
    pub layers: &'a [LayerParams],
}

impl LayerParams {
    pub(crate) fn ids(&self) -> LayerIds {
        LayerIds {
            wq: self.wq,
            wk: self.wk,
            wv: self.wv,
            wo: self.wo,
            ln1_gain: self.ln1_gain,
            ln1_bias: self.ln1_bias,
            ln2_gain: self.ln2_gain,
            ln2_bias: self.ln2_bias,
            w1: self.w1,
            b1: self.b1,
            w2: self.w2,
            b2: self.b2,
        }
    }
}

/// Flat copy of one layer's parameter ids (crate-internal).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerIds {
    pub wq: ParamId,
    pub wk: ParamId,
    pub wv: ParamId,
    pub wo: ParamId,
    pub ln1_gain: ParamId,
    pub ln1_bias: ParamId,
    pub ln2_gain: ParamId,
    pub ln2_bias: ParamId,
    pub w1: ParamId,
    pub b1: ParamId,
    pub w2: ParamId,
    pub b2: ParamId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::{AdamConfig, AdamW};

    fn setup() -> (Transformer, ParamStore) {
        let mut store = ParamStore::new();
        let t = Transformer::new(TransformerConfig::tiny(32), &mut store, 42);
        (t, store)
    }

    #[test]
    fn clamp_token_pins_out_of_vocab_to_last_slot() {
        assert_eq!(clamp_token(0, 32), 0);
        assert_eq!(clamp_token(31, 32), 31);
        assert_eq!(clamp_token(32, 32), 31, "first out-of-vocab id clamps");
        assert_eq!(clamp_token(u32::MAX, 32), 31, "any out-of-vocab id clamps");
        assert_eq!(
            clamp_token(7, 1),
            0,
            "single-token vocab maps everything to 0"
        );
    }

    #[test]
    #[should_panic(expected = "empty vocabulary")]
    fn clamp_token_rejects_empty_vocab() {
        let _ = clamp_token(0, 0);
    }

    #[test]
    fn effective_len_truncates_to_max_len() {
        let cfg = TransformerConfig::tiny(10);
        assert_eq!(cfg.effective_len(0), 0);
        assert_eq!(cfg.effective_len(5), 5);
        assert_eq!(cfg.effective_len(32), 32);
        assert_eq!(cfg.effective_len(1000), 32);
    }

    #[test]
    fn encode_shapes_are_consistent() {
        let (t, store) = setup();
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &[1, 2, 3, 4, 5], None);
        assert_eq!(g.value(out.seq).shape(), (5, 16));
        assert_eq!(g.value(out.pooled).shape(), (1, 16));
    }

    #[test]
    fn truncates_to_max_len() {
        let (t, store) = setup();
        let mut g = Graph::new();
        let tokens: Vec<u32> = (0..100).map(|i| i % 30).collect();
        let out = t.encode(&mut g, &store, &tokens, None);
        assert_eq!(g.value(out.seq).rows(), 32);
    }

    #[test]
    fn mask_changes_output() {
        let (t, store) = setup();
        let tokens = [1u32, 2, 3, 4];
        let mut g1 = Graph::new();
        let free = t.encode(&mut g1, &store, &tokens, None);
        // Block everything except self-attention.
        let mask = Matrix::from_fn(4, 4, |r, c| if r == c { 0.0 } else { -1e9 });
        let mut g2 = Graph::new();
        let blocked = t.encode(&mut g2, &store, &tokens, Some(&mask));
        let a = g1.value(free.pooled).clone();
        let b = g2.value(blocked.pooled).clone();
        let diff: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-4, "mask must alter the encoding (diff {diff})");
    }

    #[test]
    fn can_learn_token_classification() {
        // Distinguish sequences starting with token 1 vs token 2.
        let mut store = ParamStore::new();
        let t = Transformer::new(TransformerConfig::tiny(8), &mut store, 7);
        let head = store.add(
            "head",
            Matrix::randn(16, 2, 0.1, &mut StdRng::seed_from_u64(3)),
        );
        let mut opt = AdamW::new(&store, AdamConfig::default());
        let samples: Vec<(Vec<u32>, usize)> = vec![
            (vec![1, 3, 4], 0),
            (vec![2, 3, 4], 1),
            (vec![1, 5, 6], 0),
            (vec![2, 5, 6], 1),
        ];
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            let mut total = 0.0;
            let mut grads: Option<Vec<(ParamId, Matrix)>> = None;
            for (tokens, label) in &samples {
                let mut g = Graph::new();
                let out = t.encode(&mut g, &store, tokens, None);
                let h = g.param(&store, head);
                let logits = g.matmul(out.pooled, h);
                let loss = g.cross_entropy(logits, &[*label]);
                total += g.value(loss).get(0, 0);
                g.backward(loss);
                let batch = g.param_grads();
                match &mut grads {
                    None => grads = Some(batch),
                    Some(acc) => {
                        for ((_, a), (_, b)) in acc.iter_mut().zip(batch) {
                            a.add_assign(&b);
                        }
                    }
                }
            }
            opt.apply(&mut store, &grads.expect("non-empty batch"));
            last = total / samples.len() as f32;
        }
        assert!(last < 0.2, "classification loss converged to {last}");
    }

    #[test]
    #[should_panic(expected = "n_heads must divide")]
    fn rejects_bad_head_count() {
        let mut store = ParamStore::new();
        let cfg = TransformerConfig {
            vocab_size: 8,
            d_model: 10,
            n_heads: 3,
            n_layers: 1,
            d_ff: 8,
            max_len: 8,
        };
        let _ = Transformer::new(cfg, &mut store, 0);
    }
}
