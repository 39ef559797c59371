//! Machine-readable perf trajectory: times the nn kernel layer and the
//! prediction stack, writing `BENCH_nn_kernels.json` at the repo root.
//!
//! Four measurement groups:
//!
//! 1. **Kernels** — GFLOP/s of the naive triple-loop matmuls versus the
//!    blocked production kernels at the Medium-scale transformer shapes,
//!    and the softmax rows of one Medium 256-token forward under a scalar
//!    `f32::exp` loop versus the dispatched kernel (gated on equal bits);
//! 2. **Single-sample encode** — latency of one prediction through the old
//!    autodiff-tape forward pass versus the scratch-backed blocked forward
//!    (both produce bit-identical outputs);
//! 3. **Train step** — one autodiff-tape step on the same sample
//!    (forward, backward and the consuming `param_grads`), the unit of
//!    work of training, plus one online DPO observation
//!    (`DpoCalibrator::observe_triple` on 3–24-token sequences of in-vocab
//!    ids, `serve-short`'s lengths, default `DpoConfig`, replay buffer
//!    warm): the reference margin and two minibatch steps with their
//!    `AdamW` updates;
//! 4. **Batch prediction** — `predict_batch_threads` throughput over the
//!    Table 3 evaluation set at 1/2/4 worker threads, gated on an
//!    exact-equality check against serial `predict_sample` at each thread
//!    count.
//!
//! Usage: `cargo run --release -p llmulator-bench --bin bench-runner --
//! [--quick] [--sim] [--out PATH]`. `--quick` shrinks repetitions and the
//! eval set for CI smoke runs.
//!
//! `--sim` switches to the simulation-engine benchmark instead: per workload
//! suite (plus a generated Class-mix suite), interpreted vs compiled
//! ground-truth throughput in programs/sec, gated on a bit-identity sweep of
//! every `CycleReport`, written to `BENCH_sim.json`. Each repetition runs
//! the interpreter, the compiled engine and compile-once reuse back to back;
//! speedups are the medians of those per-round ratios, with their min/max.

use llmulator::{DpoCalibrator, DpoConfig, NumericPredictor, PreferenceTriple, Sample};
use llmulator_bench::context::{all_workloads, median_seconds, predictor_config, EVAL_FACTORS};
use llmulator_nn::{Graph, Matrix, Scratch};
use llmulator_sim::Metric;
use llmulator_synth::DataFormat;
use llmulator_token::NumericMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// Token lengths of the DPO observation row: `serve-short`'s request mix.
const DPO_TOKENS: std::ops::RangeInclusive<usize> = 3..=24;

/// Softmax rows and columns of one Medium 256-token forward: 2 layers ×
/// 4 heads × 256 query rows, each over 256 keys.
const SOFTMAX_SHAPE: (usize, usize) = (2048, 256);

struct KernelRow {
    name: String,
    flops_per_iter: f64,
    naive_secs: f64,
    blocked_secs: f64,
}

impl KernelRow {
    fn naive_gflops(&self) -> f64 {
        self.flops_per_iter / self.naive_secs / 1e9
    }

    fn blocked_gflops(&self) -> f64 {
        self.flops_per_iter / self.blocked_secs / 1e9
    }

    fn speedup(&self) -> f64 {
        self.naive_secs / self.blocked_secs
    }
}

fn bench_kernels(reps: usize, inner: usize) -> Vec<KernelRow> {
    let mut rng = StdRng::seed_from_u64(5);
    let mut rows = Vec::new();
    // Medium-scale transformer shapes: q/k/v/wo projections (256×32·32×32),
    // the FFN up/down projections, and per-head attention: scores as
    // Q × Kᵀ (256×8·8×256) and the weighted values (256×256·256×8).
    for &(m, k, n) in &[
        (256usize, 32usize, 32usize),
        (256, 32, 64),
        (256, 64, 32),
        (256, 8, 256),
        (256, 256, 8),
    ] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let naive_secs = median_seconds(reps, || {
            for _ in 0..inner {
                std::hint::black_box(a.matmul_naive(&b));
            }
        }) / inner as f64;
        let blocked_secs = median_seconds(reps, || {
            let mut out = Matrix::zeros(0, 0);
            for _ in 0..inner {
                a.matmul_into(&b, &mut out);
                std::hint::black_box(&out);
            }
        }) / inner as f64;
        rows.push(KernelRow {
            name: format!("matmul_{m}x{k}x{n}"),
            flops_per_iter: 2.0 * (m * k * n) as f64,
            naive_secs,
            blocked_secs,
        });
    }
    // Attention scores: (256×8) × (256×8)ᵀ per head.
    {
        let (m, k, n) = (256usize, 8usize, 256usize);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(n, k, 1.0, &mut rng);
        let naive_secs = median_seconds(reps, || {
            for _ in 0..inner {
                std::hint::black_box(a.matmul_nt_naive(&b));
            }
        }) / inner as f64;
        let blocked_secs = median_seconds(reps, || {
            let mut out = Matrix::zeros(0, 0);
            for _ in 0..inner {
                a.matmul_nt_into(&b, &mut out);
                std::hint::black_box(&out);
            }
        }) / inner as f64;
        rows.push(KernelRow {
            name: format!("matmul_nt_{m}x{k}x{n}"),
            flops_per_iter: 2.0 * (m * k * n) as f64,
            naive_secs,
            blocked_secs,
        });
    }
    // Backward-pass shape: (256×32)ᵀ × (256×64).
    {
        let (r, m, n) = (256usize, 32usize, 64usize);
        let a = Matrix::randn(r, m, 1.0, &mut rng);
        let b = Matrix::randn(r, n, 1.0, &mut rng);
        let naive_secs = median_seconds(reps, || {
            for _ in 0..inner {
                std::hint::black_box(a.matmul_tn_naive(&b));
            }
        }) / inner as f64;
        let blocked_secs = median_seconds(reps, || {
            let mut out = Matrix::zeros(0, 0);
            for _ in 0..inner {
                a.matmul_tn_into(&b, &mut out);
                std::hint::black_box(&out);
            }
        }) / inner as f64;
        rows.push(KernelRow {
            name: format!("matmul_tn_{r}x{m}x{n}"),
            flops_per_iter: 2.0 * (r * m * n) as f64,
            naive_secs,
            blocked_secs,
        });
    }
    rows
}

/// The scalar softmax the production kernel must match bit for bit:
/// `f32::exp` per entry, the sum in index order.
fn softmax_libm(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        row.fill(1.0 / row.len() as f32);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum.max(1e-12);
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Seconds per [`SOFTMAX_SHAPE`] pass of [`softmax_libm`] and of the
/// dispatched `softmax_rows_mut`, after checking that both give the same
/// bits. Each pass re-softmaxes the previous output in place, so no copy
/// is timed; `exp` costs the same on any finite input below 88 in size.
fn bench_softmax(reps: usize, inner: usize) -> (f64, f64) {
    let (rows, cols) = SOFTMAX_SHAPE;
    let mut rng = StdRng::seed_from_u64(23);
    let scores = Matrix::randn(rows, cols, 4.0, &mut rng);
    let (mut libm, mut dispatched) = (scores.clone(), scores);
    libm.data_mut().chunks_mut(cols).for_each(softmax_libm);
    dispatched.softmax_rows_mut();
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&libm),
        bits(&dispatched),
        "softmax kernel drifted from the scalar libm loop"
    );
    let libm_secs = median_seconds(reps, || {
        for _ in 0..inner {
            libm.data_mut().chunks_mut(cols).for_each(softmax_libm);
            std::hint::black_box(&mut libm);
        }
    }) / inner as f64;
    let dispatched_secs = median_seconds(reps, || {
        for _ in 0..inner {
            dispatched.softmax_rows_mut();
            std::hint::black_box(&mut dispatched);
        }
    }) / inner as f64;
    (libm_secs, dispatched_secs)
}

/// `--sim`: interpreted vs compiled simulation throughput, per suite, gated
/// on bit-identity of every report (and every error) across both engines.
fn run_sim_bench(quick: bool, out_path: &str) {
    use llmulator_ir::{AdaptivityClass, InputData, Program};
    use llmulator_synth::{ast_gen, dataflow_gen, random_inputs, AstGenConfig};

    let reps = if quick { 3 } else { 7 };
    let mut suites: Vec<(&str, Vec<(Program, InputData)>)> = Vec::new();
    for (name, ws) in [
        ("polybench", llmulator_workloads::polybench::all()),
        ("modern", llmulator_workloads::modern::all()),
        ("accelerators", llmulator_workloads::accelerators::all()),
    ] {
        suites.push((
            name,
            ws.into_iter().map(|w| (w.program, w.inputs)).collect(),
        ));
    }
    // A generated suite with the synthesis pipeline's adaptivity-class mix,
    // so the benchmark also covers programs the compiler must partially or
    // wholly fall back on.
    let mut rng = StdRng::seed_from_u64(9);
    let n_gen = if quick { 8 } else { 24 };
    let generated: Vec<(Program, InputData)> = (0..n_gen)
        .map(|i| {
            let program = if i % 2 == 0 {
                ast_gen::gen_program(i, &AstGenConfig::default(), &mut rng)
            } else {
                dataflow_gen::gen_single(i, &mut rng)
            };
            let data = random_inputs(&program, &mut rng);
            (program, data)
        })
        .collect();
    suites.push(("generated", generated));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"meta\": {{ \"quick\": {quick}, \"available_parallelism\": {}, \"reps\": {reps} }},",
        llmulator_nn::available_threads()
    );
    json.push_str("  \"suites\": [\n");
    for (si, (name, items)) in suites.iter().enumerate() {
        eprintln!(
            "bench-runner: sim suite `{name}` ({} programs)...",
            items.len()
        );
        // Correctness gate before timing anything: both engines must agree
        // on every program — same report fields or the same error.
        for (p, d) in items {
            assert_eq!(
                llmulator_sim::simulate_compiled(p, d),
                llmulator_sim::simulate(p, d),
                "compiled engine diverged from the interpreter in suite `{name}`"
            );
        }
        let mut mix = [0usize; 3];
        let mut coverage = 0.0f64;
        for (p, _) in items {
            coverage += llmulator_sim::compile(p).summary().coverage();
            mix[match llmulator_ir::analyze_program_taint(p).class {
                AdaptivityClass::Static => 0,
                AdaptivityClass::ShapeAdaptive => 1,
                AdaptivityClass::DataAdaptive => 2,
            }] += 1;
        }
        coverage /= items.len().max(1) as f64;
        // Throughput only counts programs both engines simulate successfully
        // (the gate above proves the engines agree on the failures too).
        let runnable: Vec<&(Program, InputData)> = items
            .iter()
            .filter(|(p, d)| llmulator_sim::simulate(p, d).is_ok())
            .collect();
        // Compile-once reuse: the steady-state cost when one program is
        // profiled on many inputs.
        let compiled: Vec<_> = runnable
            .iter()
            .map(|(p, _)| llmulator_sim::compile(p))
            .collect();
        // Each round times the interpreter, the compiled engine and reuse
        // back to back, so a slow stretch on a shared host slows all three
        // alike; speedups are medians of the per-round ratios, with their
        // range across rounds.
        let seconds = |run: &dyn Fn()| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64()
        };
        let rounds: Vec<[f64; 3]> = (0..reps)
            .map(|_| {
                [
                    seconds(&|| {
                        for (p, d) in &runnable {
                            std::hint::black_box(llmulator_sim::simulate(p, d).ok());
                        }
                    }),
                    seconds(&|| {
                        for (p, d) in &runnable {
                            std::hint::black_box(llmulator_sim::simulate_compiled(p, d).ok());
                        }
                    }),
                    seconds(&|| {
                        for (c, (_, d)) in compiled.iter().zip(&runnable) {
                            std::hint::black_box(c.run(d).ok());
                        }
                    }),
                ]
            })
            .collect();
        let median_of = |f: &dyn Fn(&[f64; 3]) -> f64| {
            let mut v: Vec<f64> = rounds.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            (v[v.len() / 2], v[0], v[v.len() - 1])
        };
        let (interp_secs, _, _) = median_of(&|r| r[0]);
        let (compiled_secs, _, _) = median_of(&|r| r[1]);
        let (reuse_secs, _, _) = median_of(&|r| r[2]);
        let (speedup, speedup_min, speedup_max) = median_of(&|r| r[0] / r[1]);
        let (reuse, reuse_min, reuse_max) = median_of(&|r| r[0] / r[2]);
        let n = runnable.len() as f64;
        let comma = if si + 1 < suites.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"suite\": \"{name}\", \"programs\": {}, \"bit_identical\": true, \
\"class_mix\": {{ \"static\": {}, \"shape_adaptive\": {}, \"data_adaptive\": {} }}, \
\"region_coverage\": {coverage:.3}, \
\"interpreted_programs_per_sec\": {:.3}, \"compiled_programs_per_sec\": {:.3}, \
\"speedup\": {speedup:.3}, \"speedup_min\": {speedup_min:.3}, \"speedup_max\": {speedup_max:.3}, \
\"compiled_reuse_programs_per_sec\": {:.3}, \"reuse_speedup\": {reuse:.3}, \
\"reuse_speedup_min\": {reuse_min:.3}, \"reuse_speedup_max\": {reuse_max:.3} }}{comma}",
            items.len(),
            mix[0],
            mix[1],
            mix[2],
            n / interp_secs,
            n / compiled_secs,
            n / reuse_secs,
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(out_path, &json).expect("write sim bench json");
    println!("{json}");
    eprintln!("bench-runner: wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sim_mode = args.iter().any(|a| a == "--sim");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            let file = if sim_mode {
                "BENCH_sim.json"
            } else {
                "BENCH_nn_kernels.json"
            };
            format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
        });
    if sim_mode {
        run_sim_bench(quick, &out_path);
        return;
    }
    let (reps, inner) = if quick { (3, 20) } else { (7, 200) };

    eprintln!("bench-runner: kernels ({} reps × {} iters)...", reps, inner);
    let kernels = bench_kernels(reps, inner);
    let softmax_inner = if quick { 2 } else { 20 };
    let (softmax_libm_secs, softmax_secs) = bench_softmax(reps, softmax_inner);

    // --- single-sample forward: naive-kernel baselines vs blocked forward ---
    // `encode_naive` is the pre-optimization per-row implementation (naive
    // axpy kernels, per-row allocation); the tape is the old `predict_tokens`
    // path. Both produce bit-identical outputs to the blocked forward.
    eprintln!("bench-runner: single-sample encode...");
    let model = NumericPredictor::new(predictor_config(NumericMode::Digits, 3));
    let workloads = all_workloads();
    let sample = workloads
        .iter()
        .find_map(|w| Sample::profile(&w.program, Some(&w.inputs)).ok())
        .expect("at least one workload profiles");
    let tokens = model.tokenize_sample(&sample).tokens;
    let encode_reps = if quick { 5 } else { 15 };
    let encode_inner = if quick { 3 } else { 10 };
    let naive_secs = median_seconds(encode_reps, || {
        for _ in 0..encode_inner {
            let (_, pooled) =
                llmulator_nn::encode_naive(model.encoder(), model.store(), &tokens, None);
            std::hint::black_box(model.decode_pooled(&pooled));
        }
    }) / encode_inner as f64;
    let tape_secs = median_seconds(encode_reps, || {
        for _ in 0..encode_inner {
            let mut g = Graph::new();
            let out = model.encoder().encode(&mut g, model.store(), &tokens, None);
            let pooled = g.value(out.pooled).clone();
            std::hint::black_box(model.decode_pooled(&pooled));
        }
    }) / encode_inner as f64;
    let mut scratch = Scratch::new();
    let fwd_secs = median_seconds(encode_reps, || {
        for _ in 0..encode_inner {
            std::hint::black_box(model.predict_tokens_with(&tokens, None, &mut scratch));
        }
    }) / encode_inner as f64;

    // --- one tape training step: forward + backward + param_grads ---
    // The loss is the cycles-metric log-likelihood of the sample's true
    // digits (DPO's building block); fine-tuning's loss differs only in
    // the digit heads, so the encoder work is the same.
    eprintln!("bench-runner: tape train step...");
    let cycles_digits = &model.targets_of(&sample.cost)[Metric::all()
        .iter()
        .position(|&m| m == Metric::Cycles)
        .expect("cycles is a metric")];
    let train_step_secs = median_seconds(encode_reps, || {
        for _ in 0..encode_inner {
            let mut g = Graph::new();
            let lp = model.log_prob_node(
                &mut g,
                model.store(),
                &tokens,
                Metric::Cycles,
                cycles_digits,
            );
            let loss = g.scale(lp, -1.0);
            g.backward(loss);
            std::hint::black_box(g.param_grads());
        }
    }) / encode_inner as f64;

    // --- one online DPO observation, replay buffer warm ---
    eprintln!("bench-runner: DPO observation...");
    let dpo = DpoConfig::default();
    let mut policy = model.clone();
    let mut calibrator = DpoCalibrator::new(&model, dpo);
    let mut rng = StdRng::seed_from_u64(19);
    let vocab = model.encoder().config().vocab_size as u32;
    let mut next_triple = || PreferenceTriple {
        tokens: (0..rng.gen_range(DPO_TOKENS))
            .map(|_| rng.gen_range(0..vocab))
            .collect(),
        metric: Metric::Cycles,
        y_w: rng.gen_range(1_000..500_000),
        y_l: rng.gen_range(500_000..1_000_000),
    };
    for _ in 0..dpo.buffer_size {
        calibrator.observe_triple(&mut policy, next_triple());
    }
    let dpo_observe_secs = median_seconds(encode_reps, || {
        for _ in 0..encode_inner {
            let triple = next_triple();
            std::hint::black_box(calibrator.observe_triple(&mut policy, triple));
        }
    }) / encode_inner as f64;

    // --- batch throughput over the Table 3 eval set ---
    eprintln!("bench-runner: batch prediction throughput...");
    let eval_workloads: &[_] = if quick { &workloads[..6] } else { &workloads };
    let factors: &[f64] = if quick {
        &EVAL_FACTORS[..1]
    } else {
        EVAL_FACTORS
    };
    let eval: Vec<Sample> = eval_workloads
        .iter()
        .flat_map(|w| llmulator_bench::context::workload_samples(w, factors, DataFormat::Direct))
        .collect();
    // Correctness gate before timing anything: the batch path must be
    // bit-identical to serial per-sample prediction at every thread count.
    let oracle: Vec<_> = eval.iter().map(|s| model.predict_sample(s)).collect();
    for threads in [1usize, 2, 4] {
        assert_eq!(
            model.predict_batch_threads(&eval, threads),
            oracle,
            "batch path drifted from the per-sample oracle (threads={threads})"
        );
    }
    let batch_reps = if quick { 3 } else { 5 };
    let mut throughput = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let secs = median_seconds(batch_reps, || {
            std::hint::black_box(model.predict_batch_threads(&eval, threads));
        });
        throughput.push((threads, eval.len() as f64 / secs));
    }
    let speedup_4_vs_1 = throughput[2].1 / throughput[0].1;

    // --- render JSON ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"meta\": {{ \"quick\": {quick}, \"available_parallelism\": {}, \"avx2\": {}, \"vector_exp\": {}, \"kernel_reps\": {reps}, \"kernel_inner_iters\": {inner} }},",
        llmulator_nn::available_threads(),
        llmulator_nn::matrix::gemm_uses_avx2(),
        llmulator_nn::matrix::softmax_uses_vector_exp()
    );
    json.push_str("  \"kernels\": [\n");
    for (i, row) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"speedup\": {:.3} }}{comma}",
            row.name,
            row.naive_gflops(),
            row.blocked_gflops(),
            row.speedup()
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"softmax\": {{ \"rows\": {}, \"cols\": {}, \"bit_identical\": true, \"libm_loop_ms\": {:.4}, \"dispatched_ms\": {:.4}, \"speedup\": {:.3} }},",
        SOFTMAX_SHAPE.0,
        SOFTMAX_SHAPE.1,
        softmax_libm_secs * 1e3,
        softmax_secs * 1e3,
        softmax_libm_secs / softmax_secs
    );
    let _ = writeln!(
        json,
        "  \"encode_single_sample\": {{ \"scale\": \"Medium\", \"tokens\": {}, \"naive_rowloop_ms\": {:.4}, \"tape_ms\": {:.4}, \"forward_blocked_ms\": {:.4}, \"speedup_vs_naive\": {:.3}, \"speedup_vs_tape\": {:.3} }},",
        tokens.len(),
        naive_secs * 1e3,
        tape_secs * 1e3,
        fwd_secs * 1e3,
        naive_secs / fwd_secs,
        tape_secs / fwd_secs
    );
    let _ = writeln!(
        json,
        "  \"train_step\": {{ \"scale\": \"Medium\", \"tokens\": {}, \"tape_fwd_bwd_grads_ms\": {:.4} }},",
        tokens.len(),
        train_step_secs * 1e3
    );
    let _ = writeln!(
        json,
        "  \"dpo_observe\": {{ \"scale\": \"Medium\", \"vocab\": {vocab}, \"min_tokens\": {}, \"max_tokens\": {}, \"minibatch\": {}, \"steps_per_observation\": {}, \"dpo_observe_ms\": {:.4} }},",
        DPO_TOKENS.start(),
        DPO_TOKENS.end(),
        dpo.minibatch,
        dpo.steps_per_observation,
        dpo_observe_secs * 1e3
    );
    json.push_str("  \"batch_predict\": {\n");
    json.push_str("    \"bit_identical_to_oracle\": true,\n");
    let _ = writeln!(json, "    \"samples\": {},", eval.len());
    json.push_str("    \"throughput\": [\n");
    for (i, (threads, sps)) in throughput.iter().enumerate() {
        let comma = if i + 1 < throughput.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{ \"threads\": {threads}, \"samples_per_sec\": {sps:.3} }}{comma}"
        );
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"speedup_4_vs_1\": {speedup_4_vs_1:.3}");
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("bench-runner: wrote {out_path}");
}
