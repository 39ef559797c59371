//! Dynamic prediction acceleration (paper Sec. 5.3).
//!
//! During iterative design exploration only one part of the input changes
//! between predictions (an operator body, or the runtime `data` scalars).
//! The cached predictor keeps the encoder state from the previous call and —
//! together with the separation mask, which zeroes attention between
//! unrelated segments — recomputes only the rows whose inputs (transitively)
//! changed. Unrelated operator × operator regions are masked to zero and the
//! four "corner" regions are served from cache, exactly the Fig. 6 pattern.
//! The encoder runs [`llmulator_nn::encode_cached_with`], the inference
//! kernel's layer body on the changed rows, so a cached prediction equals a
//! cold one under the same mask bit for bit.
//!
//! Limit: the model trains without the separation mask, while this
//! predictor (and so Tables 5 and 9) infers with it. The tables' latency
//! columns stand, but the masked predictions are not those of the trained
//! model and claim no accuracy.

use crate::masks::{separation_mask, MaskOptions};
use crate::model::{NumericPredictor, Prediction};
use llmulator_ir::AdaptivityClass;
use llmulator_nn::{encode_cached_with, EncoderCache, Matrix, Scratch};
use llmulator_token::TokenizedProgram;

pub use llmulator_nn::InferStats;

/// A predictor wrapper holding the attention cache between calls.
#[derive(Debug)]
pub struct CachedPredictor<'m> {
    model: &'m NumericPredictor,
    classes: Vec<AdaptivityClass>,
    options: MaskOptions,
    cache: Option<EncoderCache>,
    mask: Option<(usize, Matrix)>,
    enabled: bool,
    scratch: Scratch,
}

impl<'m> CachedPredictor<'m> {
    /// Wraps a trained model with operator classifications for masking.
    pub fn new(
        model: &'m NumericPredictor,
        classes: Vec<AdaptivityClass>,
        options: MaskOptions,
    ) -> CachedPredictor<'m> {
        CachedPredictor {
            model,
            classes,
            options,
            cache: None,
            mask: None,
            enabled: true,
            scratch: Scratch::new(),
        }
    }

    /// Disables caching (the `NoAccel` ablation: every call is a cold pass).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.cache = None;
        }
    }

    /// Predicts with block-cached attention, returning the encoder's work
    /// statistics. The tokenized program carries the segment map the mask
    /// is built from.
    pub fn predict(&mut self, tp: &TokenizedProgram) -> (Prediction, InferStats) {
        let n = tp.tokens.len();
        // (Re)build the mask when the token count changes.
        let rebuild = !matches!(&self.mask, Some((len, _)) if *len == n);
        if rebuild {
            let m = separation_mask(tp, &self.classes, self.options);
            self.mask = Some((n, m));
            self.cache = None;
        }
        let mask = self.mask.as_ref().map(|(_, m)| m);
        let prev = if self.enabled {
            self.cache.as_ref()
        } else {
            None
        };
        let (cache, stats) = encode_cached_with(
            self.model.encoder(),
            self.model.store(),
            &tp.tokens,
            mask,
            prev,
            &mut self.scratch,
        );
        let prediction = self.model.decode_pooled(&cache.pooled);
        if self.enabled {
            self.cache = Some(cache);
        }
        (prediction, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::model::{ModelScale, PredictorConfig};
    use crate::numeric::DigitCodec;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{operator_classes, Expr, InputData, LValue, Program, Stmt};
    use llmulator_token::NumericMode;

    fn model() -> NumericPredictor {
        NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 96,
            seed: 9,
        })
    }

    fn program() -> Program {
        // One Class I operator (fixed loop) + dynamic data.
        let op = OperatorBuilder::new("fixed")
            .array_param("a", [16])
            .loop_nest(&[("i", 16)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
                )]
            })
            .build();
        Program::single_op(op)
    }

    fn tokenized(model: &NumericPredictor, n: i64) -> TokenizedProgram {
        let p = program();
        let data = InputData::new().with("x", n);
        let sample = Sample::profile(&p, Some(&data)).expect("profiles");
        model.tokenize_sample(&sample)
    }

    #[test]
    fn first_call_is_cold_then_cache_kicks_in() {
        let m = model();
        let p = program();
        let mut cached = CachedPredictor::new(&m, operator_classes(&p), MaskOptions::default());
        let tp1 = tokenized(&m, 11);
        let (_, s1) = cached.predict(&tp1);
        assert_eq!(s1.rows_computed, s1.rows_total);
        // Same-length data change (same digit count).
        let tp2 = tokenized(&m, 22);
        if tp2.tokens.len() == tp1.tokens.len() {
            let (_, s2) = cached.predict(&tp2);
            assert!(s2.rows_computed < s2.rows_total, "cache saves rows");
        }
    }

    #[test]
    fn identical_input_computes_zero_rows() {
        let m = model();
        let p = program();
        let mut cached = CachedPredictor::new(&m, operator_classes(&p), MaskOptions::default());
        let tp = tokenized(&m, 7);
        let (pred1, _) = cached.predict(&tp);
        let (pred2, s2) = cached.predict(&tp);
        assert_eq!(s2.rows_computed, 0);
        assert_eq!(pred1.cost_vector(), pred2.cost_vector());
    }

    #[test]
    fn cached_prediction_matches_uncached() {
        let m = model();
        let p = program();
        let classes = operator_classes(&p);
        let tp1 = tokenized(&m, 11);
        let tp2 = tokenized(&m, 99);
        let mut warm = CachedPredictor::new(&m, classes.clone(), MaskOptions::default());
        warm.predict(&tp1);
        let (incremental, _) = warm.predict(&tp2);
        let mut cold = CachedPredictor::new(&m, classes, MaskOptions::default());
        let (fresh, _) = cold.predict(&tp2);
        for (a, b) in incremental.per_metric.iter().zip(&fresh.per_metric) {
            assert_eq!(a.digits, b.digits, "cached path must not change answers");
        }
    }

    #[test]
    fn disabling_accel_forces_cold_passes() {
        let m = model();
        let mut cached = CachedPredictor::new(&m, vec![], MaskOptions::default());
        cached.set_enabled(false);
        let tp = tokenized(&m, 3);
        cached.predict(&tp);
        let (_, s) = cached.predict(&tp);
        assert_eq!(s.rows_computed, s.rows_total, "NoAccel recomputes all rows");
    }
}
