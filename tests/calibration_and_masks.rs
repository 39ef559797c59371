//! Integration tests for the dynamic half of the paper: DPO calibration
//! against the real profiler and control-flow-separation masking with cached
//! acceleration.

use llmulator::{
    calibrate_cycles, CachedPredictor, DigitCodec, DpoCalibrator, DpoConfig, MaskOptions,
    ModelScale, NumericPredictor, PredictorConfig, Sample, TrainOptions,
};
use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{operator_classes, AdaptivityClass, Expr, InputData, LValue, Program, Stmt};
use llmulator_token::NumericMode;

fn model(seed: u64) -> NumericPredictor {
    NumericPredictor::new(PredictorConfig {
        scale: ModelScale::Small,
        codec: DigitCodec::decimal(6),
        numeric_mode: NumericMode::Digits,
        max_len: 128,
        seed,
    })
}

fn dynamic_program() -> Program {
    let op = OperatorBuilder::new("window")
        .array_param("x", [2048])
        .array_param("y", [2048])
        .scalar_param("n")
        .dyn_loop_nest(&[("i", Expr::var("n"))], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                Expr::load("x", vec![idx[0].clone()]) * Expr::int(3),
            )]
        })
        .build();
    Program::single_op(op)
}

#[test]
fn dpo_calibration_tracks_profiler_feedback() {
    let program = dynamic_program();
    let mut m = model(1);
    // Pre-train on small windows.
    let train: llmulator::Dataset = [16i64, 32, 48]
        .iter()
        .map(|&n| {
            Sample::profile(&program, Some(&InputData::new().with("n", n))).expect("profiles")
        })
        .collect();
    m.fit(
        &train,
        TrainOptions {
            epochs: 12,
            batch_size: 3,
            lr: 4e-3,
            threads: 2,
        },
    );
    let mut cal = DpoCalibrator::new(
        &m,
        DpoConfig {
            lr: 2e-3,
            steps_per_observation: 3,
            ..DpoConfig::default()
        },
    );
    // Shifted deployment distribution.
    let inputs: Vec<InputData> = (0..6).map(|_| InputData::new().with("n", 160i64)).collect();
    let trace = calibrate_cycles(&mut m, &mut cal, &program, &inputs).expect("calibrates");
    assert_eq!(trace.steps.len(), 6);
    assert!(
        trace.mape_last(2) <= trace.mape_first(1) + 1e-9,
        "error must not grow under calibration: first {:.3}, last {:.3}",
        trace.mape_first(1),
        trace.mape_last(2)
    );
    assert!(!cal.losses().is_empty(), "DPO updates happened");
}

#[test]
fn class_i_data_masking_keeps_answers_but_saves_work() {
    // A Class I operator program: data changes must not require recomputing
    // the operator block when the separation mask is active.
    let op = OperatorBuilder::new("fixed")
        .array_param("a", [32])
        .loop_nest(&[("i", 32)], |idx| {
            vec![Stmt::assign(
                LValue::store("a", vec![idx[0].clone()]),
                Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
            )]
        })
        .build();
    let program = Program::single_op(op);
    let classes = operator_classes(&program);
    assert_eq!(classes, [AdaptivityClass::Static]);

    let m = model(2);
    let d1 = InputData::new().with("aux", 11i64);
    let d2 = InputData::new().with("aux", 77i64);
    let s1 = Sample::profile(&program, Some(&d1)).expect("p1");
    let s2 = Sample::profile(&program, Some(&d2)).expect("p2");
    let tp1 = m.tokenize_sample(&s1);
    let tp2 = m.tokenize_sample(&s2);
    assert_eq!(tp1.tokens.len(), tp2.tokens.len(), "same-length inputs");

    let mut cached = CachedPredictor::new(&m, classes.clone(), MaskOptions::default());
    cached.predict(&tp1);
    let (warm_pred, stats) = cached.predict(&tp2);
    assert!(
        stats.rows_computed < stats.rows_total,
        "masked cache saves rows: {}/{}",
        stats.rows_computed,
        stats.rows_total
    );
    // Answers must match a cold evaluation exactly.
    let mut cold = CachedPredictor::new(&m, classes, MaskOptions::default());
    let (cold_pred, _) = cold.predict(&tp2);
    for (a, b) in warm_pred.per_metric.iter().zip(&cold_pred.per_metric) {
        assert_eq!(a.digits, b.digits);
    }
}

#[test]
fn replay_buffer_window_is_respected_through_calibration() {
    let program = dynamic_program();
    let mut m = model(3);
    let mut cal = DpoCalibrator::new(
        &m,
        DpoConfig {
            buffer_size: 3,
            steps_per_observation: 1,
            ..DpoConfig::default()
        },
    );
    let inputs: Vec<InputData> = (1..=8)
        .map(|i| InputData::new().with("n", (i * 10) as i64))
        .collect();
    calibrate_cycles(&mut m, &mut cal, &program, &inputs).expect("calibrates");
    assert!(cal.buffer().len() <= 3, "sliding window bounded");
}
