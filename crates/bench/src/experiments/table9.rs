//! Table 9 — impact of data-dependency length on latency with dynamic
//! prediction acceleration: a sweep over the size of the input-dependent
//! operator region, comparing unoptimized re-prediction against the cached
//! path.

use crate::context::{budget, median_seconds, predictor_config};
use llmulator::{CachedPredictor, MaskOptions, NumericPredictor, SegmentedText};
use llmulator_eval::Table;
use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{operator_classes, Expr, InputData, LValue, Program, Stmt};
use llmulator_token::NumericMode;

/// Builds a program whose input-dependent operator body has roughly
/// `dep_len` rendered characters (a dynamic-bound loop with padded
/// arithmetic).
fn program_with_dep_len(dep_len: usize) -> Program {
    // Each extra statement adds ~40 characters.
    let stmts = (dep_len / 40).max(1);
    let mut builder = OperatorBuilder::new("dyn_op")
        .array_param("x", [64])
        .array_param("y", [64])
        .scalar_param("n");
    let mut body = Vec::new();
    for s in 0..stmts {
        body.push(Stmt::assign(
            LValue::store("y", vec![Expr::var("i")]),
            Expr::load("x", vec![Expr::var("i")]) + Expr::int(s as i64),
        ));
    }
    builder = builder.dyn_loop_nest(&[("i", Expr::var("n"))], move |_| body);
    // A fixed Class I companion operator provides cacheable context.
    let fixed = OperatorBuilder::new("fixed_op")
        .array_param("a", [64])
        .array_param("b", [64])
        .loop_nest(&[("i", 64)], |idx| {
            vec![Stmt::assign(
                LValue::store("b", vec![idx[0].clone()]),
                Expr::load("a", vec![idx[0].clone()]) * Expr::int(3),
            )]
        })
        .build();
    let mut p = Program::single_op(builder.build());
    // splice the fixed operator in front
    let fixed_prog = Program::single_op(fixed);
    let mut graph = fixed_prog.graph.clone();
    graph.params.extend(p.graph.params.clone());
    graph.buffers.extend(p.graph.buffers.clone());
    graph.invocations.extend(p.graph.invocations.clone());
    p.operators.insert(0, fixed_prog.operators[0].clone());
    p.graph = graph;
    p
}

/// Regenerates Table 9.
pub fn run() -> String {
    let b = budget();
    let model = NumericPredictor::new(predictor_config(NumericMode::Digits, 17));
    let dep_lens: Vec<usize> = (0..10).map(|i| 80 + i * 120).collect();

    let mut table = Table::new(
        "Table 9: Impact of data-dependency length on latency (seconds) with dynamic prediction acceleration",
    );
    table.header(["DataDepLen", "DataLength", "NoOptTime", "OptTime"]);
    for &dep in &dep_lens {
        let program = program_with_dep_len(dep);
        let classes = operator_classes(&program);
        let data_a = InputData::new().with("n", 32i64);
        let data_b = InputData::new().with("n", 48i64);
        let text_a = SegmentedText::from_program(&program, Some(&data_a), None);
        let text_b = SegmentedText::from_program(&program, Some(&data_b), None);
        let tp_a = text_a.tokenize(model.tokenizer(), model.config().max_len);
        let tp_b = text_b.tokenize(model.tokenizer(), model.config().max_len);
        let total_len = text_a.char_len();
        let dep_actual = llmulator_ir::render::render_operator(&program.operators[1])
            .chars()
            .count();
        let options = MaskOptions {
            separate_class_i_from_data: true,
            decouple_operators: true,
        };
        let mut cold = CachedPredictor::new(&model, classes.clone(), options);
        cold.set_enabled(false);
        cold.predict(&tp_a);
        let no_opt = median_seconds(b.latency_reps, || {
            std::hint::black_box(cold.predict(&tp_b));
        });
        let mut warm = CachedPredictor::new(&model, classes, options);
        warm.predict(&tp_a);
        warm.predict(&tp_b);
        let mut flip = false;
        let opt = median_seconds(b.latency_reps, || {
            let tp = if flip { &tp_a } else { &tp_b };
            flip = !flip;
            std::hint::black_box(warm.predict(tp));
        });
        table.row([
            dep_actual.to_string(),
            total_len.to_string(),
            format!("{no_opt:.4}"),
            format!("{opt:.4}"),
        ]);
    }
    let out = table.render();
    println!("{out}");
    out
}
