//! Table 5 — runtime latency for cycle predictions with and without dynamic
//! prediction acceleration (selective attention caching), on the Table 2
//! workloads.
//!
//! The protocol mirrors iterative design exploration: the same program is
//! re-predicted with only its `data` segment changed; with acceleration the
//! encoder serves unchanged blocks from cache.

use crate::context::{budget, median_seconds, predictor_config};
use llmulator::{CachedPredictor, MaskOptions, NumericPredictor, Sample, SegmentedText};
use llmulator_eval::Table;
use llmulator_token::NumericMode;
use llmulator_workloads::modern;

/// Latency pair for one workload.
#[derive(Debug, Clone, Copy)]
pub struct AccelRow {
    /// Cold-path latency (no caching).
    pub no_accel: f64,
    /// Warm-path latency (cached attention).
    pub has_accel: f64,
}

/// Measures the accel/no-accel latency pair for one workload program.
pub fn measure(
    model: &NumericPredictor,
    w: &llmulator_workloads::Workload,
    reps: usize,
) -> AccelRow {
    let classes = llmulator_ir::operator_classes(&w.program);
    // Two inputs differing only in the data segment (same token count: each
    // integer scalar changes within its digit width).
    let base = Sample::profile(&w.program, Some(&w.inputs)).expect("profiles");
    let text_a = base.text.clone();
    let alt_inputs: llmulator_ir::InputData = w
        .inputs
        .iter()
        .map(|(k, v)| {
            let bumped = match v {
                llmulator_ir::Value::Int(i) => {
                    llmulator_ir::Value::Int(if *i % 10 == 9 { *i - 1 } else { *i + 1 })
                }
                other => other.clone(),
            };
            (k.clone(), bumped)
        })
        .collect();
    let text_b = SegmentedText::from_program(&w.program, Some(&alt_inputs), None);
    let tp_a = text_a.tokenize(model.tokenizer(), model.config().max_len);
    let tp_b = text_b.tokenize(model.tokenizer(), model.config().max_len);

    let options = MaskOptions {
        separate_class_i_from_data: true,
        decouple_operators: true,
    };
    // No acceleration: cold pass every time.
    let mut cold = CachedPredictor::new(model, classes.clone(), options);
    cold.set_enabled(false);
    cold.predict(&tp_a);
    let no_accel = median_seconds(reps, || {
        std::hint::black_box(cold.predict(&tp_b));
    });
    // Acceleration: warm cache, alternate between the two inputs.
    let mut warm = CachedPredictor::new(model, classes, options);
    warm.predict(&tp_a);
    warm.predict(&tp_b);
    let mut flip = false;
    let has_accel = median_seconds(reps, || {
        let tp = if flip { &tp_a } else { &tp_b };
        flip = !flip;
        std::hint::black_box(warm.predict(tp));
    });
    AccelRow {
        no_accel,
        has_accel,
    }
}

/// Regenerates Table 5.
pub fn run() -> String {
    let b = budget();
    let model = NumericPredictor::new(predictor_config(NumericMode::Digits, 13));
    let workloads = modern::all();
    let mut no_accel = Vec::new();
    let mut has_accel = Vec::new();
    for w in &workloads {
        let row = measure(&model, w, b.latency_reps);
        no_accel.push(row.no_accel);
        has_accel.push(row.has_accel);
    }
    let mut table = Table::new(
        "Table 5: Latency (seconds) for cycle predictions, without vs with dynamic prediction acceleration",
    );
    let mut header = vec!["Tab. 2-Index".to_string()];
    header.extend((1..=workloads.len()).map(|i| i.to_string()));
    table.header(header);
    let mut row_a = vec!["NoAccel".to_string()];
    row_a.extend(no_accel.iter().map(|&t| format!("{t:.4}")));
    table.row(row_a);
    let mut row_b = vec!["HasAccel".to_string()];
    row_b.extend(has_accel.iter().map(|&t| format!("{t:.4}")));
    table.row(row_b);
    let avg_a: f64 = no_accel.iter().sum::<f64>() / no_accel.len().max(1) as f64;
    let avg_b: f64 = has_accel.iter().sum::<f64>() / has_accel.len().max(1) as f64;
    table.row([
        "average".to_string(),
        format!("{avg_a:.4}"),
        format!("{avg_b:.4}"),
    ]);
    let out = table.render();
    println!("{out}");
    out
}
