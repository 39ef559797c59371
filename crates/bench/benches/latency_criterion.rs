//! Criterion micro-benchmarks for single-prediction latency (statistical
//! companion to Tables 4/5): LLMulator cold pass, LLMulator cached pass and
//! the three learned baselines on one Polybench kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use llmulator::{CachedPredictor, CostModel, MaskOptions, NumericPredictor, Sample};
use llmulator_baselines::{Gnnhls, TensetMlp, Tlp};
use llmulator_bench::context::predictor_config;
use llmulator_token::NumericMode;
use llmulator_workloads::polybench;

fn bench_prediction_latency(c: &mut Criterion) {
    let kernel = &polybench::all()[1]; // atax
    let sample = Sample::profile(&kernel.program, Some(&kernel.inputs)).expect("profiles");
    let ours = NumericPredictor::new(predictor_config(NumericMode::Digits, 3));
    let tlp = Tlp::new(256, 3);
    let gnn = Gnnhls::new(3);
    let tenset = TensetMlp::new(3);

    let mut group = c.benchmark_group("prediction_latency");
    group.sample_size(10);
    group.bench_function("llmulator_cold", |b| {
        b.iter(|| std::hint::black_box(ours.predict(&sample)))
    });
    let classes = llmulator_ir::operator_classes(&kernel.program);
    let tp = ours.tokenize_sample(&sample);
    let mut cached = CachedPredictor::new(&ours, classes, MaskOptions::default());
    cached.predict(&tp);
    group.bench_function("llmulator_cached", |b| {
        b.iter(|| std::hint::black_box(cached.predict(&tp)))
    });
    group.bench_function("tlp", |b| {
        b.iter(|| std::hint::black_box(tlp.predict(&sample)))
    });
    group.bench_function("gnnhls", |b| {
        b.iter(|| std::hint::black_box(gnn.predict(&sample)))
    });
    group.bench_function("tenset_mlp", |b| {
        b.iter(|| std::hint::black_box(tenset.predict(&sample)))
    });
    group.finish();
}

criterion_group!(benches, bench_prediction_latency);
criterion_main!(benches);
