//! Dataflow-specific generation (paper Sec. 6.1): loop-tree operator
//! templates targeting hardware-relevant dataflow patterns, plus a graph
//! generator that chains operators through buffers while mutating operator
//! order and loop parameters.

use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{
    Arg, BinOp, BufferDecl, DataflowGraph, Expr, Intrinsic, Invocation, LValue, LoopPragma,
    Operator, Program, Stmt,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Operator template families modeled as loop trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Dense matrix multiply (`m×k · k×m`).
    Gemm,
    /// 1-D convolution with mutable step (stride).
    Conv1d,
    /// 2-D stencil (jacobi-like neighbourhood average).
    Stencil2d,
    /// Reduction to a single cell.
    Reduction,
    /// Elementwise map with an intrinsic.
    Elementwise,
    /// Max-pooling over a 1-D window.
    MaxPool,
    /// Input-bounded sliding window (Class II: dynamic loop bound).
    DynWindow,
    /// Value-dependent thresholding (Class II: data-dependent branch).
    Threshold,
}

impl Template {
    /// All templates, in a stable order.
    pub fn all() -> &'static [Template] {
        &[
            Template::Gemm,
            Template::Conv1d,
            Template::Stencil2d,
            Template::Reduction,
            Template::Elementwise,
            Template::MaxPool,
            Template::DynWindow,
            Template::Threshold,
        ]
    }

    /// Templates usable in elementwise `[n] → [n]` chains.
    pub fn chainable() -> &'static [Template] {
        &[
            Template::Conv1d,
            Template::Elementwise,
            Template::MaxPool,
            Template::DynWindow,
            Template::Threshold,
        ]
    }
}

/// Parameters for one generated operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateParams {
    /// Primary extent (rows / length).
    pub n: usize,
    /// Secondary extent (cols / window).
    pub k: usize,
    /// Loop step (stride).
    pub step: usize,
    /// Pragma applied to the outer loop.
    pub pragma: LoopPragma,
}

impl TemplateParams {
    /// Samples parameters in hardware-plausible ranges; step/order mutation
    /// is the paper's loop-tree mutation.
    pub fn sample(rng: &mut StdRng) -> TemplateParams {
        let pragma = match rng.gen_range(0..4) {
            0 => LoopPragma::UnrollFull,
            1 => LoopPragma::Unroll(rng.gen_range(2..=8)),
            2 => LoopPragma::ParallelFor,
            _ => LoopPragma::None,
        };
        TemplateParams {
            n: rng.gen_range(8..=48),
            k: rng.gen_range(2..=6),
            step: if rng.gen_bool(0.3) { 2 } else { 1 },
            pragma,
        }
    }
}

/// Instantiates a template as an operator named `name`.
pub fn instantiate(template: Template, name: &str, p: TemplateParams) -> Operator {
    let n = p.n;
    let k = p.k.max(1).min(n);
    match template {
        Template::Gemm => OperatorBuilder::new(name)
            .array_param("a", [n, k])
            .array_param("b", [k, n])
            .array_param("c", [n, n])
            .loop_nest_with_pragma(&[("i", n), ("j", n), ("kk", k)], p.pragma, |idx| {
                vec![Stmt::accumulate(
                    "c",
                    vec![idx[0].clone(), idx[1].clone()],
                    Expr::load("a", vec![idx[0].clone(), idx[2].clone()])
                        * Expr::load("b", vec![idx[2].clone(), idx[1].clone()]),
                )]
            })
            .build(),
        Template::Conv1d => {
            let steps = (n.saturating_sub(k)) / p.step.max(1) + 1;
            OperatorBuilder::new(name)
                .array_param("x", [n])
                .array_param("w", [k])
                .array_param("y", [n])
                .stmt(Stmt::For(llmulator_ir::ForLoop {
                    var: "i".into(),
                    lo: Expr::int(0),
                    hi: Expr::int(steps as i64),
                    step: Expr::int(1),
                    pragma: p.pragma,
                    body: vec![Stmt::for_range(
                        "j",
                        Expr::int(k as i64),
                        vec![Stmt::accumulate(
                            "y",
                            vec![Expr::var("i")],
                            Expr::load(
                                "x",
                                vec![Expr::var("i") * Expr::int(p.step as i64) + Expr::var("j")],
                            ) * Expr::load("w", vec![Expr::var("j")]),
                        )],
                    )],
                }))
                .build()
        }
        Template::Stencil2d => {
            let m = n.clamp(3, 24);
            OperatorBuilder::new(name)
                .array_param("a", [m, m])
                .array_param("b", [m, m])
                .loop_nest_with_pragma(&[("i", m - 2), ("j", m - 2)], p.pragma, |idx| {
                    let i1 = idx[0].clone() + Expr::int(1);
                    let j1 = idx[1].clone() + Expr::int(1);
                    vec![Stmt::assign(
                        LValue::store("b", vec![i1.clone(), j1.clone()]),
                        (Expr::load("a", vec![i1.clone() - Expr::int(1), j1.clone()])
                            + Expr::load("a", vec![i1.clone() + Expr::int(1), j1.clone()])
                            + Expr::load("a", vec![i1.clone(), j1.clone() - Expr::int(1)])
                            + Expr::load("a", vec![i1, j1]))
                            / Expr::int(4),
                    )]
                })
                .build()
        }
        Template::Reduction => OperatorBuilder::new(name)
            .array_param("x", [n])
            .array_param("y", [1])
            .loop_nest_with_pragma(&[("i", n)], p.pragma, |idx| {
                vec![Stmt::accumulate(
                    "y",
                    vec![Expr::int(0)],
                    Expr::load("x", vec![idx[0].clone()]),
                )]
            })
            .build(),
        Template::Elementwise => OperatorBuilder::new(name)
            .array_param("x", [n])
            .array_param("y", [n])
            .loop_nest_with_pragma(&[("i", n)], p.pragma, |idx| {
                vec![Stmt::assign(
                    LValue::store("y", vec![idx[0].clone()]),
                    Expr::call(
                        Intrinsic::Relu,
                        vec![Expr::load("x", vec![idx[0].clone()]) * Expr::int(2)],
                    ),
                )]
            })
            .build(),
        Template::MaxPool => OperatorBuilder::new(name)
            .array_param("x", [n])
            .array_param("y", [n])
            .loop_nest_with_pragma(&[("i", n / k.max(1)), ("j", k)], p.pragma, |idx| {
                vec![Stmt::assign(
                    LValue::store("y", vec![idx[0].clone()]),
                    Expr::call(
                        Intrinsic::Max,
                        vec![
                            Expr::load("y", vec![idx[0].clone()]),
                            Expr::load(
                                "x",
                                vec![idx[0].clone() * Expr::int(k as i64) + idx[1].clone()],
                            ),
                        ],
                    ),
                )]
            })
            .build(),
        Template::DynWindow => OperatorBuilder::new(name)
            .array_param("x", [n])
            .array_param("y", [n])
            .scalar_param("len")
            .dyn_loop_nest(&[("i", Expr::var("len"))], |idx| {
                vec![Stmt::assign(
                    LValue::store("y", vec![idx[0].clone()]),
                    Expr::load("x", vec![idx[0].clone()]) + Expr::int(1),
                )]
            })
            .build(),
        Template::Threshold => OperatorBuilder::new(name)
            .array_param("x", [n])
            .array_param("y", [n])
            .loop_nest_with_pragma(&[("i", n)], p.pragma, |idx| {
                vec![Stmt::if_then(
                    Expr::binary(
                        BinOp::Gt,
                        Expr::load("x", vec![idx[0].clone()]),
                        Expr::int(0),
                    ),
                    vec![Stmt::assign(
                        LValue::store("y", vec![idx[0].clone()]),
                        Expr::call(
                            Intrinsic::Sigmoid,
                            vec![Expr::load("x", vec![idx[0].clone()])],
                        ),
                    )],
                )]
            })
            .build(),
    }
}

/// Generates a chained dataflow graph program: `depth` chainable operators
/// over a shared `[n]` bus, with randomly mutated order and parameters.
pub fn gen_chain(index: usize, depth: usize, rng: &mut StdRng) -> Program {
    let n = rng.gen_range(16..=48);
    let mut graph = DataflowGraph::new("graph");
    let mut operators = Vec::new();
    graph.buffers.push(BufferDecl::new("t0", [n]));
    let chainable = Template::chainable();
    for s in 0..depth.max(1) {
        let template = chainable[rng.gen_range(0..chainable.len())];
        let mut p = TemplateParams::sample(rng);
        p.n = n;
        let name = format!("df{index}_op{s}");
        let op = instantiate(template, &name, p);
        let out_buf = format!("t{}", s + 1);
        graph.buffers.push(BufferDecl::new(out_buf.as_str(), [n]));
        let mut args: Vec<Arg> = Vec::new();
        for param in &op.params {
            match &param.kind {
                llmulator_ir::ParamKind::Array { .. } => {
                    // first array arg reads the chain, others get fresh
                    // buffers; the last array is the output by convention.
                    if param.name.as_str() == "x" {
                        args.push(Arg::buffer(format!("t{s}")));
                    } else if param.name.as_str() == "y" {
                        args.push(Arg::buffer(out_buf.clone()));
                    } else {
                        let aux = format!("aux{index}_{s}_{}", param.name);
                        let dims = match &param.kind {
                            llmulator_ir::ParamKind::Array { dims } => dims.clone(),
                            llmulator_ir::ParamKind::Scalar => unreachable!("array arm"),
                        };
                        graph.buffers.push(BufferDecl {
                            name: aux.as_str().into(),
                            dims,
                        });
                        args.push(Arg::buffer(aux));
                    }
                }
                llmulator_ir::ParamKind::Scalar => {
                    let gp = format!("{}_{index}_{s}", param.name);
                    graph.params.push(gp.as_str().into());
                    args.push(Arg::var(gp));
                }
            }
        }
        graph
            .invocations
            .push(Invocation::new(op.name.clone(), args));
        operators.push(op);
    }
    Program::new(graph, operators, llmulator_ir::HardwareParams::default())
}

/// Generates a single-operator program from a random template.
pub fn gen_single(index: usize, rng: &mut StdRng) -> Program {
    let all = Template::all();
    let template = all[rng.gen_range(0..all.len())];
    let p = TemplateParams::sample(rng);
    Program::single_op(instantiate(template, &format!("df_single{index}"), p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn inputs_for(p: &Program, rng: &mut StdRng) -> llmulator_ir::InputData {
        let mut data = llmulator_ir::InputData::new();
        for gp in &p.graph.params {
            data.bind(gp.clone(), rng.gen_range(4..32) as i64);
        }
        data
    }

    #[test]
    fn every_template_simulates() {
        let mut rng = StdRng::seed_from_u64(1);
        for (i, &t) in Template::all().iter().enumerate() {
            let p = TemplateParams::sample(&mut rng);
            let program = Program::single_op(instantiate(t, &format!("t{i}"), p));
            program.validate().expect("valid");
            let data = inputs_for(&program, &mut rng);
            let r = llmulator_sim::simulate(&program, &data).expect("simulates");
            assert!(r.total_cycles > 0, "{t:?}");
        }
    }

    #[test]
    fn chains_validate_and_simulate() {
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..10 {
            let p = gen_chain(i, 1 + i % 4, &mut rng);
            p.validate().expect("valid chain");
            let data = inputs_for(&p, &mut rng);
            let r = llmulator_sim::simulate(&p, &data).expect("simulates");
            assert_eq!(r.invocations.len(), 1 + i % 4);
        }
    }

    #[test]
    fn dyn_window_is_class_ii() {
        let op = instantiate(
            Template::DynWindow,
            "w",
            TemplateParams {
                n: 16,
                k: 2,
                step: 1,
                pragma: LoopPragma::None,
            },
        );
        let report = llmulator_ir::analyze_operator_taint(&op);
        assert!(!report.class.is_static(), "Class II");
    }

    #[test]
    fn gemm_is_class_i() {
        let op = instantiate(
            Template::Gemm,
            "g",
            TemplateParams {
                n: 8,
                k: 4,
                step: 1,
                pragma: LoopPragma::None,
            },
        );
        let report = llmulator_ir::analyze_operator_taint(&op);
        assert!(report.class.is_static(), "Class I");
    }

    #[test]
    fn stride_changes_conv_cycles() {
        let mk = |step| {
            Program::single_op(instantiate(
                Template::Conv1d,
                "c",
                TemplateParams {
                    n: 32,
                    k: 4,
                    step,
                    pragma: LoopPragma::None,
                },
            ))
        };
        let d = llmulator_ir::InputData::new();
        let c1 = llmulator_sim::simulate(&mk(1), &d)
            .expect("s1")
            .total_cycles;
        let c2 = llmulator_sim::simulate(&mk(2), &d)
            .expect("s2")
            .total_cycles;
        assert!(
            c1 > c2,
            "stride 1 ({c1}) does more work than stride 2 ({c2})"
        );
    }
}
