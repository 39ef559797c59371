//! End-to-end acceptance tests for the online calibration subsystem:
//! a biased ground-truth feedback stream drives background DPO updates,
//! the calibrated variant is hot-swapped into the engine registry while
//! requests are in flight, and a daemon restarted from its checkpoint
//! resumes bit-identical predictions.
//!
//! These tests drive [`CalibratorCore`] synchronously where determinism
//! matters (the learning claim, the worker-count claim) and the
//! [`Calibrator`] background worker where concurrency matters (the
//! hot-swap and checkpoint-on-shutdown claims) — the same split the unit
//! tests in `crates/core/src/online.rs` use.

use llmulator::{
    CalibrationConfig, Calibrator, CalibratorCore, Counter, DigitCodec, DpoConfig, Engine,
    EngineConfig, Feedback, ModelScale, NumericPredictor, PoolConfig, PredictRequest,
    PredictorConfig, ServeJob, ServePool,
};
use llmulator_sim::Metric;
use llmulator_token::NumericMode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn tiny_predictor(seed: u64) -> NumericPredictor {
    NumericPredictor::new(PredictorConfig {
        scale: ModelScale::Small,
        codec: DigitCodec::decimal(4),
        numeric_mode: NumericMode::Digits,
        max_len: 32,
        seed,
    })
}

/// Per-process unique scratch directory (concurrent `cargo test` runs must
/// not race on a shared checkpoint file).
fn unique_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "llmulator_online_test_{}_{}_{n}",
        tag,
        std::process::id()
    ))
}

/// The token sequence every feedback observation in these tests targets;
/// fixed so repeated DPO updates compound on one input and predictions
/// stay comparable across hot swaps.
const TOKENS: [u32; 4] = [11, 7, 13, 29];

fn cycles_value(engine: &Engine, model: &str) -> (f64, u64) {
    let mut session = engine.session();
    let response = session
        .predict(&PredictRequest::tokens(TOKENS.to_vec()).for_model(model))
        .expect("serves");
    (
        response.items[0].value(Metric::Cycles).expect("cycles"),
        response.epoch,
    )
}

/// ISSUE acceptance: an in-process engine under a biased ground-truth
/// feedback stream ends with the calibrated variant's rolling error below
/// the frozen incumbent's.
#[test]
fn calibrated_variant_beats_the_frozen_incumbent_on_a_biased_stream() {
    let engine = Arc::new(
        EngineConfig::new()
            .feedback_capacity(256)
            .score_window(8)
            .build(),
    );
    let start = tiny_predictor(11);
    engine.register_predictor("default", start.clone());
    let mut core = CalibratorCore::new(
        Arc::clone(&engine),
        start,
        CalibrationConfig {
            dpo: DpoConfig {
                lr: 1e-2,
                steps_per_observation: 4,
                ..DpoConfig::default()
            },
            swap_every: 1,
            min_window: 4,
            // The guardrail is exercised by its own unit tests; here it
            // must not demote the variant mid-learning while its error
            // transiently wanders.
            rollback_margin: 1e9,
            ..CalibrationConfig::default()
        },
    );

    // A ground truth the seed model never saw: well away from its initial
    // answer, inside the 4-digit codec range.
    let (initial, first_epoch) = cycles_value(&engine, "calibrated");
    let truth = if initial < 3000.0 { 9000.0 } else { 300.0 };

    let mut beaten = false;
    let mut last_epoch = first_epoch;
    let mut prev_cal = initial;
    let mut prev_def = initial;
    for _round in 0..200 {
        let mut session = engine.session();
        // Calibrated stream: biased truth feedback on the previous answer.
        let response = session
            .predict(
                &PredictRequest::tokens(TOKENS.to_vec())
                    .for_model("calibrated")
                    .feedback(Feedback {
                        item: 0,
                        metric: Metric::Cycles,
                        actual: truth,
                        predicted: prev_cal,
                    }),
            )
            .expect("calibrated serves");
        last_epoch = last_epoch.max(response.epoch);
        prev_cal = response.items[0].value(Metric::Cycles).expect("cycles");
        // Incumbent probe stream: same truth, so its rolling error is
        // populated for the comparison (and the guardrail).
        let response = session
            .predict(
                &PredictRequest::tokens(TOKENS.to_vec())
                    .for_model("default")
                    .feedback(Feedback {
                        item: 0,
                        metric: Metric::Cycles,
                        actual: truth,
                        predicted: prev_def,
                    }),
            )
            .expect("incumbent serves");
        prev_def = response.items[0].value(Metric::Cycles).expect("cycles");
        drop(session);

        core.run_cycle(engine.feedback().drain_now());

        let scores = engine.scoreboard();
        if let (Some((cal, cal_n)), Some((inc, inc_n))) = (
            scores.rolling_error("calibrated"),
            scores.rolling_error("default"),
        ) {
            if cal_n >= 4 && inc_n >= 4 && cal < inc {
                beaten = true;
                break;
            }
        }
    }

    assert!(
        beaten,
        "calibrated rolling error never dropped below the incumbent's: {:?} vs {:?}",
        engine.scoreboard().rolling_error("calibrated"),
        engine.scoreboard().rolling_error("default"),
    );
    let count = |counter| engine.counters().get(counter);
    assert!(count(Counter::Updates) > 0, "gradient steps were applied");
    assert!(
        count(Counter::HotSwaps) > 0,
        "calibrated models were published"
    );
    assert!(
        last_epoch > first_epoch,
        "responses attribute answers to a newer swap epoch: {first_epoch} -> {last_epoch}"
    );
    assert_eq!(
        count(Counter::CalibrationsRolledBack),
        0,
        "guardrail stayed quiet"
    );
}

/// ISSUE acceptance: hot swaps land while a serve pool is answering — no
/// request errors and none blocks, and every response's epoch attribution
/// is consistent with the engine's swap counter.
#[test]
fn hot_swaps_never_fail_in_flight_requests() {
    let engine = Arc::new(EngineConfig::new().build());
    engine.register_predictor("default", tiny_predictor(3));
    let mut pool = ServePool::start(
        Arc::clone(&engine),
        PoolConfig {
            workers: 2,
            max_batch: 4,
            max_queue: 1024,
            default_timeout: None,
        },
    );

    let swapper = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            for i in 0..40u64 {
                engine.register_predictor("default", tiny_predictor(3 + (i % 3)));
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let (tx, rx) = mpsc::channel();
    let total = 120usize;
    for k in 0..total {
        let tx = tx.clone();
        pool.submit(ServeJob::new(
            PredictRequest::tokens(vec![k as u32 % 50, 7, 13]),
            move |result, _latency| {
                let _ = tx.send(result);
            },
        ));
    }
    drop(tx);
    let mut ok = 0usize;
    for result in rx.iter().take(total) {
        let response = result.expect("no request may error across a hot swap");
        assert!(
            response.epoch <= engine.swap_epoch(),
            "epoch attribution never runs ahead of the swap counter"
        );
        ok += 1;
    }
    swapper.join().expect("swapper joins");
    pool.drain();
    assert_eq!(ok, total, "every request answered");
    assert_eq!(engine.counters().get(Counter::Served), total as u64);
    assert_eq!(engine.counters().get(Counter::Errors), 0);
    assert!(
        engine.swap_epoch() >= 40,
        "the swaps actually happened: {}",
        engine.swap_epoch()
    );
}

/// Satellite (determinism): the same feedback *multiset*, collected
/// through serve pools at 1, 2 and 4 workers, yields bit-identical
/// calibrated weights under a fixed DPO seed — the canonical batch sort in
/// `CalibratorCore::ingest` erases the collection schedule.
#[test]
fn calibration_is_bit_identical_across_worker_counts() {
    let mut serialized: Vec<String> = Vec::new();
    for workers in [1usize, 2, 4] {
        let engine = Arc::new(EngineConfig::new().feedback_capacity(256).build());
        let start = tiny_predictor(7);
        engine.register_predictor("default", start.clone());
        let mut pool = ServePool::start(
            Arc::clone(&engine),
            PoolConfig {
                workers,
                max_batch: 4,
                max_queue: 256,
                default_timeout: None,
            },
        );
        // Twelve distinct feedback observations; worker scheduling decides
        // the queue order, the multiset is fixed.
        let (tx, rx) = mpsc::channel();
        for k in 0..12u32 {
            let tx = tx.clone();
            pool.submit(ServeJob::new(
                PredictRequest::tokens(vec![k, k + 1, 40 - k])
                    .for_model("default")
                    .feedback(Feedback {
                        item: 0,
                        metric: Metric::Cycles,
                        actual: 900.0 + f64::from(k),
                        predicted: 50.0,
                    }),
                move |result, _latency| {
                    let _ = tx.send(result.is_ok());
                },
            ));
        }
        drop(tx);
        assert_eq!(rx.iter().filter(|&ok| ok).count(), 12, "{workers} workers");
        pool.drain();

        let triples = engine.feedback().drain_now();
        assert_eq!(triples.len(), 12, "every observation reached the queue");
        let mut core =
            CalibratorCore::new(Arc::clone(&engine), start, CalibrationConfig::default());
        let steps = core.ingest(triples);
        assert!(steps > 0);
        serialized.push(core.model().to_json().expect("serializes"));
    }
    assert_eq!(
        serialized[0], serialized[1],
        "1 vs 2 workers: bit-identical weights"
    );
    assert_eq!(
        serialized[0], serialized[2],
        "1 vs 4 workers: bit-identical weights"
    );
}

/// ISSUE acceptance: stopping the background calibrator leaves a final
/// checkpoint, and an engine restarted from that checkpoint serves
/// bit-identical predictions to the pre-shutdown calibrated variant.
#[test]
fn restart_from_checkpoint_resumes_bit_identical_predictions() {
    let dir = unique_dir("checkpoint");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let checkpoint = dir.join("model.json.calibrated");

    // First life: background calibrator, feedback through sessions.
    let engine = Arc::new(
        EngineConfig::new()
            .feedback_capacity(256)
            .score_window(8)
            .build(),
    );
    let start = tiny_predictor(19);
    engine.register_predictor("default", start.clone());
    let calibrator = Calibrator::spawn(CalibratorCore::new(
        Arc::clone(&engine),
        start,
        CalibrationConfig {
            checkpoint_path: Some(checkpoint.clone()),
            ..CalibrationConfig::default()
        },
    ));
    let mut session = engine.session();
    for k in 0..6u32 {
        session
            .predict(
                &PredictRequest::tokens(TOKENS.to_vec())
                    .for_model("calibrated")
                    .feedback(Feedback {
                        item: 0,
                        metric: Metric::Cycles,
                        actual: 4000.0 + f64::from(k),
                        predicted: 100.0,
                    }),
            )
            .expect("serves");
    }
    drop(session);
    // Graceful shutdown: drains the queue, publishes, writes the final
    // checkpoint.
    calibrator.stop();
    let count = |counter| engine.counters().get(counter);
    assert!(count(Counter::Updates) > 0, "feedback was ingested");
    assert!(
        count(Counter::Checkpoints) > 0,
        "a final checkpoint was written"
    );
    assert_eq!(count(Counter::CheckpointErrors), 0);
    let (before, _) = cycles_value(&engine, "calibrated");

    // Second life: a fresh engine resumes from the checkpoint, exactly the
    // way `llmulator serve --calibrate` does on restart.
    let (resumed, meta) = NumericPredictor::load_calibrated(&checkpoint).expect("resumes");
    let meta = meta.expect("calibrated checkpoints carry provenance");
    assert_eq!(meta.updates, count(Counter::Updates));
    assert_eq!(meta.source, "default");
    let engine2 = Arc::new(EngineConfig::new().feedback_capacity(256).build());
    engine2.register_predictor("default", tiny_predictor(19));
    let _core = CalibratorCore::new(Arc::clone(&engine2), resumed, CalibrationConfig::default());
    let (after, _) = cycles_value(&engine2, "calibrated");
    assert_eq!(
        before.to_bits(),
        after.to_bits(),
        "restart serves bit-identical predictions: {before} vs {after}"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
