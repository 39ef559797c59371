//! The paper loop through the public library API, with no on-disk cache:
//! truth (synthesis + a `sim::profile` sweep) → train → calibrate → eval.

use crate::speed::Speed;
use crate::trace::{Span, Tracer};
use llmulator::{
    calibrate_cycles, DpoCalibrator, DpoConfig, NumericPredictor, PredictorConfig, Sample,
    TrainOptions,
};
use llmulator_ir::{AdaptivityClass, InputData, Program};
use llmulator_sim::Metric;
use llmulator_synth::{
    ast_gen, dataflow_gen, synthesize_with_stats, AstGenConfig, SynthesisConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Unseen evaluation input scales.
pub const EVAL_FACTORS: [f64; 3] = [0.9, 1.0, 1.1];
/// Shifted calibration input scales (the profiler feedback stream), each
/// jittered by the seed.
pub const CALIB_FACTORS: [f64; 3] = [0.7, 1.3, 0.85];

// How much work one loop does.
/// `paper_mix` synthesis size.
const SYNTH: usize = 144;
/// Seeded input scales per evaluation workload in the truth sweep.
const SCALES: usize = 48;
/// Generated programs added to the 27 workloads in the sweep.
const GENERATED: usize = 128;
/// Seeded input scales per generated program. Many programs at few scales
/// keep the sweep's cost mix from drifting with the seed.
const GENERATED_SCALES: usize = 6;
/// Training epochs over the synthesized set.
const EPOCHS: usize = 1;
/// Seeds the synthesized training set and the generated sweep programs.
/// Their sizes are heavy-tailed: drawn from the workload seed, they moved
/// the loop's peak memory between 51 and 60 MiB and its set-up time by
/// half from one seed to the next. The workload seed still draws every
/// input scale, the calibration stream and the model's initial weights.
const CORPUS_SEED: u64 = 0xc0_4b05;
/// Shape- or data-adaptive workloads calibrated, spread evenly over them.
/// The pick does not depend on the seed: calibration cost follows the
/// programs' token lengths, and a seeded pick made it vary by half.
const CALIBRATED: usize = 3;

/// Everything the loop consumes, built from the seed before timing.
pub struct Inputs {
    pub names: Vec<String>,
    /// The 27 evaluation workloads, then the generated programs.
    pub programs: Vec<Program>,
    pub synth: SynthesisConfig,
    /// `(program index, inputs)` ground-truth requests.
    pub sweep: Vec<(usize, InputData)>,
    /// `(workload index, inputs)` at the unseen scales.
    pub eval: Vec<(usize, InputData)>,
    /// Shape- or data-adaptive workloads with their shifted inputs.
    pub calib: Vec<(usize, Vec<InputData>)>,
    pub model: PredictorConfig,
    pub train: TrainOptions,
}

/// Builds the loop's inputs (the `paper-loop` set-up).
pub fn build_inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_100b);
    let mut corpus = StdRng::seed_from_u64(CORPUS_SEED);
    let mut workloads = llmulator_workloads::polybench::all();
    workloads.extend(llmulator_workloads::modern::all());
    workloads.extend(llmulator_workloads::accelerators::all());
    let n_eval = workloads.len();
    let mut names: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();
    let mut programs: Vec<Program> = workloads.iter().map(|w| w.program.clone()).collect();
    // Stratified scales over [0.5, 1.5]: one seeded draw per stratum keeps
    // the scale mix (and so the cost mix) the same for every seed.
    let strata = |rng: &mut StdRng, n: usize| -> Vec<f64> {
        (0..n)
            .map(|k| 0.5 + (k as f64 + rng.gen_range(0.0..1.0)) / n as f64)
            .collect()
    };
    let mut sweep = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        for f in strata(&mut rng, SCALES) {
            sweep.push((i, w.scaled_inputs(f)));
        }
    }
    let mut made = 0;
    while made < GENERATED {
        let index = programs.len();
        let program = match corpus.gen_range(0..3) {
            0 => ast_gen::gen_program(index, &AstGenConfig::default(), &mut corpus),
            1 => dataflow_gen::gen_single(index, &mut corpus),
            _ => dataflow_gen::gen_chain(index, corpus.gen_range(1..=3), &mut corpus),
        };
        if !llmulator_ir::lint_program(&program).is_valid() {
            continue;
        }
        let base = llmulator_synth::random_inputs(&program, &mut corpus);
        for f in strata(&mut rng, GENERATED_SCALES) {
            sweep.push((index, scale_ints(&base, f)));
        }
        names.push(format!("generated-{made}"));
        programs.push(program);
        made += 1;
    }
    let eval = (0..n_eval)
        .flat_map(|i| EVAL_FACTORS.iter().map(move |&f| (i, f)))
        .map(|(i, f)| (i, workloads[i].scaled_inputs(f)))
        .collect();
    let adaptive: Vec<usize> = (0..n_eval)
        .filter(|&i| {
            llmulator_ir::analyze_program_taint(&workloads[i].program).class
                != AdaptivityClass::Static
        })
        .collect();
    let stride = (adaptive.len() / CALIBRATED).max(1);
    let calib = adaptive
        .into_iter()
        .step_by(stride)
        .take(CALIBRATED)
        .map(|i| {
            let stream = CALIB_FACTORS
                .iter()
                .map(|&f| workloads[i].scaled_inputs(f * rng.gen_range(0.95..1.05)));
            (i, stream.collect())
        })
        .collect();
    Inputs {
        names,
        programs,
        synth: SynthesisConfig::paper_mix(SYNTH, CORPUS_SEED),
        sweep,
        eval,
        calib,
        model: PredictorConfig {
            seed,
            ..PredictorConfig::default()
        },
        // One training thread: with two, the loop's peak memory depended on
        // which examples' tapes the threads happened to hold at once.
        train: TrainOptions {
            epochs: EPOCHS,
            batch_size: 8,
            lr: 3e-3,
            threads: 1,
        },
    }
}

fn scale_ints(data: &InputData, factor: f64) -> InputData {
    data.iter()
        .map(|(k, v)| {
            let v = match v {
                llmulator_ir::Value::Int(i) => {
                    llmulator_ir::Value::Int(((*i as f64 * factor).round() as i64).max(1))
                }
                other => other.clone(),
            };
            (k.clone(), v)
        })
        .collect()
}

/// The compiled simulator must equal the interpreter on every ground-truth
/// request (report fields or error), checked before any timing.
pub fn gate_simulators(inputs: &Inputs) -> Result<usize, String> {
    let points = inputs
        .sweep
        .iter()
        .chain(&inputs.eval)
        .map(|(i, d)| (&inputs.programs[*i], d, &inputs.names[*i]));
    let mut n = 0;
    for (program, data, name) in points {
        if llmulator_sim::simulate_compiled(program, data) != llmulator_sim::simulate(program, data)
        {
            return Err(format!(
                "simulate_compiled differs from simulate on `{name}`"
            ));
        }
        n += 1;
    }
    Ok(n)
}

/// One loop's results.
pub struct Round {
    pub truth_s: f64,
    pub train_s: f64,
    pub calib_s: f64,
    pub eval_s: f64,
    pub loop_s: f64,
    /// CPU time of the whole loop, every thread, host-speed slices
    /// excluded, s.
    pub cpu_s: f64,
    /// Labelled samples the truth phase produced.
    pub truth_samples: usize,
    pub synth_samples: usize,
    pub synth_rejected: usize,
    pub synth_failed: usize,
    pub synth_s: f64,
    /// Per ground-truth request CPU time, ms (`INFINITY` for a failure).
    pub request_ms: Vec<f64>,
    /// Host-speed slices taken after every `SLICE_EVERY`-th request, ms.
    pub request_slices: Vec<f64>,
    pub failed: usize,
    pub calib_iters: usize,
    pub ape_first: f64,
    pub ape_last: f64,
    pub mape_cycles: f64,
    pub calib_mape_cycles: f64,
    pub eval_predictions: usize,
    pub model: NumericPredictor,
    pub eval_samples: Vec<Sample>,
    pub dataset: llmulator::Dataset,
}

/// One loop's headline figures, kept after its model and data are dropped.
pub struct Figures {
    /// Loop CPU time per labelled sample produced, ms.
    pub cpu_ms_per_sample: f64,
    /// Labelled samples produced per second of loop wall time.
    pub wall_per_s: f64,
    pub truth_per_s: f64,
    /// Sample-epochs per second of training.
    pub train_per_s: f64,
    pub loop_s: f64,
    pub truth_s: f64,
    pub train_s: f64,
    pub calib_s: f64,
    pub eval_s: f64,
    pub mape_cycles: f64,
    pub calib_mape_cycles: f64,
}

impl Figures {
    pub fn of(r: &Round) -> Figures {
        Figures {
            cpu_ms_per_sample: r.cpu_s * 1e3 / r.truth_samples.max(1) as f64,
            wall_per_s: r.truth_samples as f64 / r.loop_s,
            truth_per_s: r.truth_samples as f64 / r.truth_s,
            train_per_s: (r.synth_samples * EPOCHS) as f64 / r.train_s,
            loop_s: r.loop_s,
            truth_s: r.truth_s,
            train_s: r.train_s,
            calib_s: r.calib_s,
            eval_s: r.eval_s,
            mape_cycles: r.mape_cycles,
            calib_mape_cycles: r.calib_mape_cycles,
        }
    }
}

/// Ground-truth requests per host-speed slice.
pub const SLICE_EVERY: usize = 4;

/// Runs the loop once, taking a `speed` slice after every `SLICE_EVERY`-th
/// ground-truth request. With the tracer on, each phase and each
/// ground-truth request is a span.
pub fn run(inputs: &Inputs, tracer: &mut Tracer, speed: &mut Speed) -> Result<Round, String> {
    let t_loop = Instant::now();
    let cpu_loop = crate::cpu::own_process_ns();
    let mark = speed.mark();
    let mut slice = |request_ms: &[f64]| {
        if request_ms.len().is_multiple_of(SLICE_EVERY) {
            speed.slice();
        }
    };
    // --- truth ---
    let t = Instant::now();
    let (dataset, stats, synth_s) = tracer.span("loop.truth", 0, |tr| {
        tr.span("synth.gen", 0, |_| {
            let t = Instant::now();
            let (d, s) = synthesize_with_stats(&inputs.synth);
            (d, s, t.elapsed().as_secs_f64())
        })
    });
    let mut request_ms = Vec::with_capacity(inputs.sweep.len() + inputs.eval.len());
    let mut failed = 0usize;
    let mut swept = 0usize;
    let mut eval_samples = Vec::with_capacity(inputs.eval.len());
    tracer.span("loop.truth", 1, |tr| {
        for (k, (i, data)) in inputs.sweep.iter().enumerate() {
            let (r, ms) = crate::cpu::time_ms(|| {
                tr.span("sim.profile", k as u64, |_| {
                    llmulator_sim::profile(&inputs.programs[*i], data)
                })
            });
            match r {
                Ok(p) => {
                    std::hint::black_box(p);
                    swept += 1;
                    request_ms.push(ms);
                }
                Err(_) => {
                    failed += 1;
                    request_ms.push(f64::INFINITY);
                }
            }
            slice(&request_ms);
        }
        for (k, (i, data)) in inputs.eval.iter().enumerate() {
            let (r, ms) = crate::cpu::time_ms(|| {
                tr.span("sim.profile", (inputs.sweep.len() + k) as u64, |_| {
                    Sample::profile_reasoning(&inputs.programs[*i], Some(data))
                })
            });
            match r {
                Ok(s) => {
                    eval_samples.push(s);
                    request_ms.push(ms);
                }
                Err(_) => {
                    failed += 1;
                    request_ms.push(f64::INFINITY);
                }
            }
            slice(&request_ms);
        }
    });
    let request_slices = speed.slices[mark..].to_vec();
    let truth_s = t.elapsed().as_secs_f64();
    if eval_samples.len() != inputs.eval.len() {
        return Err("an evaluation workload failed to profile".into());
    }

    // --- train ---
    let t = Instant::now();
    let mut model = NumericPredictor::new(inputs.model);
    tracer.span("loop.train", 0, |_| model.fit(&dataset, inputs.train));
    let train_s = t.elapsed().as_secs_f64();

    // --- calibrate ---
    let t = Instant::now();
    let mut calibrated = BTreeMap::new();
    let (mut ape_first, mut ape_last, mut calib_iters) = (0.0, 0.0, 0usize);
    tracer.span("loop.calibrate", 0, |tr| -> Result<(), String> {
        for (w, stream) in &inputs.calib {
            let mut m = model.clone();
            let mut dpo = DpoCalibrator::new(
                &m,
                DpoConfig {
                    lr: 1e-3,
                    steps_per_observation: 2,
                    ..DpoConfig::default()
                },
            );
            let trace = tr
                .span("calibrate.workload", *w as u64, |_| {
                    calibrate_cycles(&mut m, &mut dpo, &inputs.programs[*w], stream)
                })
                .map_err(|e| format!("calibrate `{}`: {e}", inputs.names[*w]))?;
            ape_first += trace.mape_first(1);
            ape_last += trace.mape_last(1);
            calib_iters += trace.steps.len();
            calibrated.insert(*w, m);
        }
        Ok(())
    })?;
    let calib_s = t.elapsed().as_secs_f64();
    let n_cal = inputs.calib.len().max(1) as f64;

    // --- eval ---
    let t = Instant::now();
    let (preds, calib_preds) = tracer.span("loop.eval", 0, |_| {
        let preds = model.predict_batch_threads(&eval_samples, 2);
        let calib_preds: BTreeMap<usize, Vec<f64>> = calibrated
            .iter()
            .map(|(w, m)| {
                let mine: Vec<Sample> = inputs
                    .eval
                    .iter()
                    .zip(&eval_samples)
                    .filter(|((i, _), _)| i == w)
                    .map(|(_, s)| s.clone())
                    .collect();
                let cycles = m
                    .predict_batch_threads(&mine, 2)
                    .iter()
                    .map(|p| p.metric(Metric::Cycles).value)
                    .collect();
                (*w, cycles)
            })
            .collect();
        (preds, calib_preds)
    });
    let eval_s = t.elapsed().as_secs_f64();
    let actual: Vec<f64> = eval_samples.iter().map(|s| s.cost.cycles as f64).collect();
    let predicted: Vec<f64> = preds
        .iter()
        .map(|p| p.metric(Metric::Cycles).value)
        .collect();
    let mut after = predicted.clone();
    let mut cursor: BTreeMap<usize, usize> = BTreeMap::new();
    for (k, (w, _)) in inputs.eval.iter().enumerate() {
        if let Some(c) = calib_preds.get(w) {
            let j = cursor.entry(*w).or_default();
            after[k] = c[*j];
            *j += 1;
        }
    }
    let eval_predictions = preds.len() + calib_preds.values().map(Vec::len).sum::<usize>();
    Ok(Round {
        truth_s,
        train_s,
        calib_s,
        eval_s,
        loop_s: t_loop.elapsed().as_secs_f64(),
        cpu_s: (crate::cpu::own_process_ns() - cpu_loop) as f64 * 1e-9
            - request_slices.iter().sum::<f64>() * 1e-3,
        truth_samples: dataset.len() + swept + eval_samples.len(),
        synth_samples: dataset.len(),
        synth_rejected: stats.rejected_by_lint,
        synth_failed: stats.failed_to_profile,
        synth_s,
        request_ms,
        request_slices,
        failed,
        calib_iters,
        ape_first: ape_first / n_cal,
        ape_last: ape_last / n_cal,
        mape_cycles: llmulator_eval::mape(&predicted, &actual),
        calib_mape_cycles: llmulator_eval::mape(&after, &actual),
        eval_predictions,
        model,
        eval_samples,
        dataset,
    })
}

/// `predict_batch_threads` must equal per-sample `predict_sample` on the
/// eval set.
pub fn gate_batch_predict(round: &Round) -> Result<usize, String> {
    let batch = round.model.predict_batch_threads(&round.eval_samples, 2);
    for (s, b) in round.eval_samples.iter().zip(&batch) {
        if &round.model.predict_sample(s) != b {
            return Err("predict_batch_threads differs from per-sample predict_sample".into());
        }
    }
    Ok(batch.len())
}

/// Per-layer figures of the truth/train/calibrate/eval layers, from a
/// traced round plus direct calls into `sim::compile`, `Compiled::run`,
/// `analyze_program_taint` and one-step `fit_tokenized`.
pub fn layer_metrics(
    inputs: &Inputs,
    round: &Round,
    spans: &[Span],
    origin: Instant,
) -> (BTreeMap<&'static str, f64>, Vec<Span>) {
    let layers = crate::trace::summarize(spans);
    let mut tracer = Tracer::new(true, origin, 0);
    let mut coverage = Vec::new();
    for (i, program) in inputs.programs.iter().enumerate() {
        tracer.span("ir.taint", i as u64, |_| {
            std::hint::black_box(llmulator_ir::analyze_program_taint(program))
        });
        let compiled = tracer.span("sim.compile", i as u64, |_| llmulator_sim::compile(program));
        coverage.push(compiled.summary().coverage());
        for (k, (_, data)) in inputs
            .sweep
            .iter()
            .enumerate()
            .filter(|(_, (j, _))| *j == i)
        {
            tracer.span("sim.run", k as u64, |_| {
                std::hint::black_box(compiled.run(data).ok())
            });
        }
    }
    // One optimizer step = `fit_tokenized` over exactly one minibatch.
    let items: Vec<(Vec<u32>, Vec<Vec<u8>>)> = round
        .dataset
        .samples
        .iter()
        .take(inputs.train.batch_size)
        .map(|s| {
            (
                round.model.tokenize_sample(s).tokens,
                round.model.targets_of(&s.cost),
            )
        })
        .collect();
    let one_step = TrainOptions {
        epochs: 1,
        batch_size: items.len().max(1),
        ..inputs.train
    };
    let mut scratch_model = round.model.clone();
    for k in 0..5 {
        tracer.span("nn.train_step", k, |_| {
            scratch_model.fit_tokenized(&items, one_step)
        });
    }
    let mut extra = Vec::new();
    tracer.drain_into(&mut extra);
    let direct = crate::trace::summarize(&extra);
    let mean_us = |map: &BTreeMap<&'static str, crate::trace::LayerTime>, name: &str| {
        map.get(name).map_or(0.0, |l| l.mean_us())
    };
    let train_step_ms: Vec<f64> = extra
        .iter()
        .filter(|s| s.name == "nn.train_step")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
        .collect();
    let mut m = BTreeMap::new();
    let generated = round.synth_samples + round.synth_rejected + round.synth_failed;
    m.insert("synth.gen_s", round.synth_s);
    m.insert("synth.samples", round.synth_samples as f64);
    m.insert(
        "synth.reject_frac",
        round.synth_rejected as f64 / generated.max(1) as f64,
    );
    m.insert("sim.profile_us", mean_us(&layers, "sim.profile"));
    m.insert("sim.compile_us", mean_us(&direct, "sim.compile"));
    m.insert("sim.run_us", mean_us(&direct, "sim.run"));
    m.insert("sim.region_coverage", crate::stats::mean(&coverage));
    m.insert("ir.taint_us", mean_us(&direct, "ir.taint"));
    m.insert("nn.train_step_ms", crate::stats::median(&train_step_ms));
    m.insert(
        "calibrate.iter_ms",
        round.calib_s / round.calib_iters.max(1) as f64 * 1e3,
    );
    m.insert("calibrate.ape_first", round.ape_first);
    m.insert("calibrate.ape_last", round.ape_last);
    m.insert("calibrate.mape_cycles", round.calib_mape_cycles);
    m.insert(
        "eval.predict_ms_per_sample",
        round.eval_s / round.eval_predictions.max(1) as f64 * 1e3,
    );
    m.insert("eval.mape_cycles", round.mape_cycles);
    let figures = Figures::of(round);
    m.insert("loop.truth_per_s", figures.truth_per_s);
    m.insert("loop.train_per_s", figures.train_per_s);
    m.insert("loop.wall_s", figures.loop_s);
    (m, extra)
}
