//! Quickstart: build a dataflow program, profile its ground truth, train a
//! small LLMulator predictor on synthesized data, and predict with
//! per-digit confidence.
//!
//! Run with `cargo run --release --example quickstart`.

use llmulator::{beam_search, NumericPredictor, PredictorConfig, Sample, TrainOptions};
use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{Expr, InputData, Program, Stmt};
use llmulator_synth::{synthesize, SynthesisConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe a dataflow operator: an 8×8×8 GEMM.
    let gemm = OperatorBuilder::new("gemm")
        .array_param("a", [8, 8])
        .array_param("b", [8, 8])
        .array_param("c", [8, 8])
        .loop_nest(&[("i", 8), ("j", 8), ("k", 8)], |idx| {
            vec![Stmt::accumulate(
                "c",
                vec![idx[0].clone(), idx[1].clone()],
                Expr::load("a", vec![idx[0].clone(), idx[2].clone()])
                    * Expr::load("b", vec![idx[2].clone(), idx[1].clone()]),
            )]
        })
        .build();
    let program = Program::single_op(gemm);

    // 2. Profile the ground truth through the HLS + cycle-simulation
    //    substrate (the Bambu/OpenROAD/Verilator role).
    let sample = Sample::profile(&program, Some(&InputData::new()))?;
    println!("== ground truth ==");
    println!("  power : {:.2} mW", sample.cost.power_mw);
    println!("  area  : {:.0} um^2", sample.cost.area_um2);
    println!("  FF    : {}", sample.cost.ff);
    println!("  cycles: {}", sample.cost.cycles);

    // 3. Train a compact predictor on progressively synthesized data.
    println!("\nsynthesizing training data...");
    let mut dataset = synthesize(&SynthesisConfig::paper_mix(80, 42));
    dataset.push(sample.clone());
    println!("training on {} samples...", dataset.len());
    let mut model = NumericPredictor::new(PredictorConfig::default());
    let curve = model.fit(
        &dataset,
        TrainOptions {
            epochs: 4,
            ..TrainOptions::default()
        },
    );
    println!("loss curve: {curve:?}");

    // 4. Predict with confidence: each metric is decoded digit-by-digit.
    let prediction = model.predict_sample(&sample);
    println!("\n== prediction ==");
    for mp in &prediction.per_metric {
        println!(
            "  {:<6} -> {:>12.1}   digits {:?}   confidence {:.2} (LSB logit)",
            mp.metric.label(),
            mp.value,
            mp.digits,
            mp.confidence,
        );
    }
    // Beam search, run on demand over the digit distribution, exposes
    // runner-up hypotheses for uncertain digits (its best one is the
    // greedy answer above).
    let cycles = prediction.metric(llmulator_sim::Metric::Cycles);
    let beams = beam_search(&cycles.distribution, 4);
    println!("\ncycles beam (top {}):", beams.len());
    for beam in &beams {
        println!("  digits {:?}  log-prob {:.2}", beam.digits, beam.log_prob);
    }
    Ok(())
}
