//! Design-space exploration with cached predictions: sweep loop-mapping
//! pragmas and memory delays for a convolution, rank candidates with
//! LLMulator, and compare the ranking against ground truth. The cached
//! predictor accelerates the sweep because only the changed operator/params
//! tokens are re-encoded.
//!
//! Run with `cargo run --release --example design_space_exploration`.

use llmulator::{
    CachedPredictor, MaskOptions, NumericPredictor, PredictorConfig, Sample, TrainOptions,
};
use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{operator_classes, Expr, InputData, LoopPragma, Program, Stmt};
use llmulator_sim::Metric;

fn conv_candidate(pragma: LoopPragma, mem_delay: u32) -> Program {
    let op = OperatorBuilder::new("conv1d")
        .array_param("x", [96])
        .array_param("w", [5])
        .array_param("y", [96])
        .loop_nest_with_pragma(&[("i", 92), ("j", 5)], pragma, |idx| {
            vec![Stmt::accumulate(
                "y",
                vec![idx[0].clone()],
                Expr::load("x", vec![idx[0].clone() + idx[1].clone()])
                    * Expr::load("w", vec![idx[1].clone()]),
            )]
        })
        .build();
    let mut p = Program::single_op(op);
    p.hw = p.hw.with_mem_delay(mem_delay);
    p
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Candidate space: 4 pragmas × 3 memory delays.
    let pragmas = [
        LoopPragma::None,
        LoopPragma::Unroll(4),
        LoopPragma::UnrollFull,
        LoopPragma::ParallelFor,
    ];
    let delays = [2u32, 5, 10];
    let candidates: Vec<Program> = pragmas
        .iter()
        .flat_map(|&p| delays.iter().map(move |&d| conv_candidate(p, d)))
        .collect();

    // Train a model on the candidate neighbourhood (profiles of a subset).
    let train: llmulator::Dataset = candidates
        .iter()
        .step_by(2)
        .map(|p| Sample::profile(p, Some(&InputData::new())))
        .collect::<Result<_, _>>()?;
    let mut model = NumericPredictor::new(PredictorConfig::default());
    println!("training on {} design points...", train.len());
    model.fit(
        &train,
        TrainOptions {
            epochs: 16,
            batch_size: 4,
            lr: 3e-3,
            threads: 2,
        },
    );

    // Sweep all candidates with the cached predictor.
    let classes = operator_classes(&candidates[0]);
    let mut cached = CachedPredictor::new(&model, classes, MaskOptions::default());
    let mut predicted = Vec::new();
    let mut actual = Vec::new();
    let mut rows_saved = 0usize;
    let mut rows_total = 0usize;
    println!(
        "\n{:<12} {:>9} {:>12} {:>12}",
        "pragma", "delay", "pred cyc", "true cyc"
    );
    for p in &candidates {
        let sample = Sample::profile(p, Some(&InputData::new()))?;
        let tp = model.tokenize_sample(&sample);
        let (pred, stats) = cached.predict(&tp);
        rows_saved += stats.rows_total.saturating_sub(stats.rows_computed);
        rows_total += stats.rows_total;
        let cyc = pred.metric(Metric::Cycles).value;
        predicted.push(cyc);
        actual.push(sample.cost.cycles as f64);
        let pragma = match &p.operators[0].body[0] {
            Stmt::For(l) => format!("{:?}", l.pragma),
            _ => "?".into(),
        };
        println!(
            "{:<12} {:>9} {:>12.0} {:>12}",
            pragma, p.hw.mem_read_delay, cyc, sample.cost.cycles
        );
    }

    // Ranking quality: does the model order the design space correctly?
    let tau = llmulator_eval::kendall_tau(&predicted, &actual);
    println!("\nKendall tau between predicted and true cycle rankings: {tau:.2}");
    println!(
        "attention rows served from cache across the sweep: {rows_saved}/{rows_total} ({:.0}%)",
        100.0 * rows_saved as f64 / rows_total.max(1) as f64
    );
    let best_pred = predicted
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("candidates");
    let best_true = actual
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("candidates");
    println!("model-selected design {best_pred}, true best design {best_true}");
    Ok(())
}
