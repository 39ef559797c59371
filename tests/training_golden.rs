//! Golden hashes of trained and DPO-calibrated weights.
//!
//! The other bit-identity oracles compare two paths inside one tree; these
//! pin the bits themselves, so a change to the tape, the gradient
//! bookkeeping or the optimizer that moves any weight by one ulp fails
//! here. Each test hashes every parameter's `f32` bits (FNV-1a, store
//! order) after a fixed run:
//!
//! - one epoch of `NumericPredictor::fit` on a small `paper_mix`, one
//!   gradient thread (the batch sum's order depends on the thread count);
//! - 40 `DpoCalibrator::observe_triple` calls from fixed triples.
//!
//! Run it optimized too (`cargo test --release --test training_golden`):
//! loops the compiler vectorizes only exist there, and they must produce
//! the same bits as the unoptimized build.

use llmulator::{
    DigitCodec, DpoCalibrator, DpoConfig, ModelScale, NumericPredictor, PredictorConfig,
    PreferenceTriple, TrainOptions,
};
use llmulator_sim::Metric;
use llmulator_synth::{synthesize, SynthesisConfig};
use llmulator_token::NumericMode;

fn tiny_model(seed: u64, max_len: usize) -> NumericPredictor {
    NumericPredictor::new(PredictorConfig {
        scale: ModelScale::Small,
        codec: DigitCodec::decimal(6),
        numeric_mode: NumericMode::Digits,
        max_len,
        seed,
    })
}

/// FNV-1a over the little-endian bytes of every parameter's `f32` bits.
fn weight_hash(model: &NumericPredictor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, m) in model.store().iter() {
        for &x in m.data() {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn one_training_epoch_reproduces_the_golden_weights() {
    let dataset = synthesize(&SynthesisConfig::paper_mix(12, 21));
    let mut model = tiny_model(21, 64);
    let curve = model.fit(
        &dataset,
        TrainOptions {
            epochs: 1,
            batch_size: 4,
            lr: 3e-3,
            threads: 1,
        },
    );
    assert_eq!(curve.len(), 1);
    assert_eq!(
        weight_hash(&model),
        GOLDEN_FIT,
        "trained weights moved (loss {curve:?})"
    );
}

/// The `i`-th fixed triple: 3–24 tokens, one metric per residue (so replay
/// minibatches mix metric heads), and a degenerate (`y_w == y_l`) triple
/// every tenth call, which takes no step.
fn triple(i: u64) -> PreferenceTriple {
    let len = 3 + (i * 7 % 22) as usize;
    let tokens = (0..len as u64)
        .map(|j| (5 + (i * 31 + j * 17) % 97) as u32)
        .collect();
    let metric = Metric::all()[(i % 4) as usize];
    let y_w = 100 + i * 997 % 9000;
    let y_l = if i % 10 == 9 {
        y_w
    } else {
        50 + i * 613 % 9500
    };
    PreferenceTriple {
        tokens,
        metric,
        y_w,
        y_l,
    }
}

#[test]
fn forty_dpo_observations_reproduce_the_golden_weights() {
    let mut model = tiny_model(23, 32);
    let mut calibrator = DpoCalibrator::new(&model, DpoConfig::default());
    let steps: usize = (0..40)
        .map(|i| calibrator.observe_triple(&mut model, triple(i)))
        .sum();
    assert_eq!(steps, 36 * DpoConfig::default().steps_per_observation);
    assert_eq!(
        weight_hash(&model),
        GOLDEN_DPO,
        "calibrated weights moved (last loss {:?})",
        calibrator.losses().last()
    );
}

const GOLDEN_FIT: u64 = 5_006_740_422_189_294_975;
const GOLDEN_DPO: u64 = 9_124_876_103_971_346_538;
