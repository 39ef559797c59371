//! Reusable operator constructors for the evaluation workloads.
//!
//! Every constructor returns a self-contained [`Operator`] whose array
//! parameters follow the convention *inputs first, output last* (the graph
//! edge extraction relies on it).

use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{BinOp, Expr, Intrinsic, LValue, Operator, Stmt};

/// 2-D convolution: `y[i][j] = Σ x[i+a][j+b]·w[a][b]` over the valid region.
pub fn conv2d(name: &str, h: usize, w: usize, k: usize) -> Operator {
    let oh = h.saturating_sub(k) + 1;
    let ow = w.saturating_sub(k) + 1;
    OperatorBuilder::new(name)
        .array_param("x", [h, w])
        .array_param("wgt", [k, k])
        .array_param("y", [h, w])
        .loop_nest(&[("i", oh), ("j", ow), ("a", k), ("b", k)], |idx| {
            vec![Stmt::accumulate(
                "y",
                vec![idx[0].clone(), idx[1].clone()],
                Expr::load(
                    "x",
                    vec![
                        idx[0].clone() + idx[2].clone(),
                        idx[1].clone() + idx[3].clone(),
                    ],
                ) * Expr::load("wgt", vec![idx[2].clone(), idx[3].clone()]),
            )]
        })
        .build()
}

/// Depthwise 2-D convolution (single channel per filter — structurally a
/// `conv2d` with its own weights; kept separate for workload realism).
pub fn depthwise_conv(name: &str, h: usize, w: usize, k: usize) -> Operator {
    conv2d(name, h, w, k)
}

/// Pointwise (1×1) convolution over a flattened feature map.
pub fn pointwise(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [n])
        .array_param("wgt", [1])
        .array_param("y", [n])
        .loop_nest(&[("i", n)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                Expr::load("x", vec![idx[0].clone()]) * Expr::load("wgt", vec![Expr::int(0)]),
            )]
        })
        .build()
}

/// Batch normalization (affine form): `y = (x − μ)·γ + β` with scalar stats.
pub fn batch_norm(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [n])
        .array_param("stats", [4])
        .array_param("y", [n])
        .loop_nest(&[("i", n)], |idx| {
            let mu = Expr::load("stats", vec![Expr::int(0)]);
            let gamma = Expr::load("stats", vec![Expr::int(1)]);
            let beta = Expr::load("stats", vec![Expr::int(2)]);
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                (Expr::load("x", vec![idx[0].clone()]) - mu) * gamma + beta,
            )]
        })
        .build()
}

/// Elementwise ReLU.
pub fn relu_op(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [n])
        .array_param("y", [n])
        .loop_nest(&[("i", n)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                Expr::call(Intrinsic::Relu, vec![Expr::load("x", vec![idx[0].clone()])]),
            )]
        })
        .build()
}

/// Elementwise sigmoid (GAN discriminator heads, attention gates).
pub fn sigmoid_op(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [n])
        .array_param("y", [n])
        .loop_nest(&[("i", n)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                Expr::call(
                    Intrinsic::Sigmoid,
                    vec![Expr::load("x", vec![idx[0].clone()])],
                ),
            )]
        })
        .build()
}

/// 2-D max pooling with a `k × k` window and stride `k`.
pub fn maxpool2d(name: &str, h: usize, w: usize, k: usize) -> Operator {
    let oh = (h / k).max(1);
    let ow = (w / k).max(1);
    OperatorBuilder::new(name)
        .array_param("x", [h, w])
        .array_param("y", [oh, ow])
        .loop_nest(&[("i", oh), ("j", ow), ("a", k), ("b", k)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone(), idx[1].clone()]),
                Expr::call(
                    Intrinsic::Max,
                    vec![
                        Expr::load("y", vec![idx[0].clone(), idx[1].clone()]),
                        Expr::load(
                            "x",
                            vec![
                                idx[0].clone() * Expr::int(k as i64) + idx[2].clone(),
                                idx[1].clone() * Expr::int(k as i64) + idx[3].clone(),
                            ],
                        ),
                    ],
                ),
            )]
        })
        .build()
}

/// Dense matrix multiply `c[m][n] += a[m][k]·b[k][n]`.
pub fn gemm(name: &str, m: usize, n: usize, k: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("a", [m, k])
        .array_param("b", [k, n])
        .array_param("c", [m, n])
        .loop_nest(&[("i", m), ("j", n), ("kk", k)], |idx| {
            vec![Stmt::accumulate(
                "c",
                vec![idx[0].clone(), idx[1].clone()],
                Expr::load("a", vec![idx[0].clone(), idx[2].clone()])
                    * Expr::load("b", vec![idx[2].clone(), idx[1].clone()]),
            )]
        })
        .build()
}

/// Row softmax: exponentiate, accumulate, normalize (imperfect nest).
pub fn softmax(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [n])
        .array_param("tmp", [1])
        .array_param("y", [n])
        .loop_nest(&[("i", n)], |idx| {
            vec![
                Stmt::assign(
                    LValue::store("y", vec![idx[0].clone()]),
                    Expr::call(Intrinsic::Exp, vec![Expr::load("x", vec![idx[0].clone()])]),
                ),
                Stmt::accumulate(
                    "tmp",
                    vec![Expr::int(0)],
                    Expr::call(Intrinsic::Exp, vec![Expr::load("x", vec![idx[0].clone()])]),
                ),
            ]
        })
        .loop_nest(&[("j", n)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                Expr::load("y", vec![idx[0].clone()])
                    / Expr::call(
                        Intrinsic::Max,
                        vec![
                            Expr::load("tmp", vec![Expr::int(0)]),
                            Expr::FloatConst(1e-6),
                        ],
                    ),
            )]
        })
        .build()
}

/// Layer normalization over a vector (mean/variance passes + normalize).
pub fn layer_norm(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [n])
        .array_param("acc", [2])
        .array_param("y", [n])
        .loop_nest(&[("i", n)], |idx| {
            vec![
                Stmt::accumulate(
                    "acc",
                    vec![Expr::int(0)],
                    Expr::load("x", vec![idx[0].clone()]),
                ),
                Stmt::accumulate(
                    "acc",
                    vec![Expr::int(1)],
                    Expr::load("x", vec![idx[0].clone()]) * Expr::load("x", vec![idx[0].clone()]),
                ),
            ]
        })
        .loop_nest(&[("j", n)], |idx| {
            let n_f = Expr::FloatConst(n as f64);
            let mean = Expr::load("acc", vec![Expr::int(0)]) / n_f.clone();
            let ex2 = Expr::load("acc", vec![Expr::int(1)]) / n_f;
            let var = ex2 - mean.clone() * mean.clone();
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                (Expr::load("x", vec![idx[0].clone()]) - mean)
                    / Expr::call(Intrinsic::Sqrt, vec![var + Expr::FloatConst(1e-5)]),
            )]
        })
        .build()
}

/// 2× nearest-neighbour upsampling.
pub fn upsample2x(name: &str, h: usize, w: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [h, w])
        .array_param("y", [2 * h, 2 * w])
        .loop_nest(&[("i", 2 * h), ("j", 2 * w)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone(), idx[1].clone()]),
                Expr::load(
                    "x",
                    vec![idx[0].clone() / Expr::int(2), idx[1].clone() / Expr::int(2)],
                ),
            )]
        })
        .build()
}

/// Residual addition `y = a + b`.
pub fn residual_add(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("a", [n])
        .array_param("b", [n])
        .array_param("y", [n])
        .loop_nest(&[("i", n)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                Expr::load("a", vec![idx[0].clone()]) + Expr::load("b", vec![idx[0].clone()]),
            )]
        })
        .build()
}

/// Dilated 1-D convolution with dilation `d`.
pub fn dilated_conv(name: &str, n: usize, k: usize, d: usize) -> Operator {
    let span = (k - 1) * d + 1;
    let on = n.saturating_sub(span) + 1;
    OperatorBuilder::new(name)
        .array_param("x", [n])
        .array_param("wgt", [k])
        .array_param("y", [n])
        .loop_nest(&[("i", on), ("j", k)], |idx| {
            vec![Stmt::accumulate(
                "y",
                vec![idx[0].clone()],
                Expr::load(
                    "x",
                    vec![idx[0].clone() + idx[1].clone() * Expr::int(d as i64)],
                ) * Expr::load("wgt", vec![idx[1].clone()]),
            )]
        })
        .build()
}

/// Input-sized sliding window (Class II: the `h`/`w` bounds are runtime
/// scalars — the paper's canonical input-adaptive operator).
pub fn dyn_window2d(name: &str, cap: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [cap, cap])
        .array_param("y", [cap, cap])
        .scalar_param("h")
        .scalar_param("w")
        .dyn_loop_nest(&[("i", Expr::var("h")), ("j", Expr::var("w"))], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone(), idx[1].clone()]),
                Expr::load("x", vec![idx[0].clone(), idx[1].clone()]) * Expr::int(2),
            )]
        })
        .build()
}

/// Sequence-length-bounded token mixing (Class II — NLP analogue of the
/// sliding window: `len` is a runtime scalar).
pub fn dyn_seq_mix(name: &str, cap: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [cap])
        .array_param("y", [cap])
        .scalar_param("len")
        .dyn_loop_nest(&[("i", Expr::var("len"))], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                Expr::load("x", vec![idx[0].clone()]) + Expr::load("x", vec![Expr::int(0)]),
            )]
        })
        .build()
}

/// Gather / embedding lookup: `y[i] = table[idx[i]]` (data-dependent
/// addressing; Class II through value dependence).
pub fn gather(name: &str, n: usize, vocab: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("table", [vocab])
        .array_param("ids", [n])
        .array_param("y", [n])
        .loop_nest(&[("i", n)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[0].clone()]),
                Expr::load("table", vec![Expr::load("ids", vec![idx[0].clone()])]),
            )]
        })
        .build()
}

/// Value-dependent anchor filter (RoIAlign-style: heavy work only for
/// positive anchors — Class II through the branch).
pub fn anchor_filter(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("scores", [n])
        .array_param("rois", [n])
        .loop_nest(&[("i", n)], |idx| {
            vec![Stmt::if_then(
                Expr::binary(
                    BinOp::Gt,
                    Expr::load("scores", vec![idx[0].clone()]),
                    Expr::FloatConst(0.5),
                ),
                vec![Stmt::assign(
                    LValue::store("rois", vec![idx[0].clone()]),
                    Expr::call(
                        Intrinsic::Sigmoid,
                        vec![Expr::load("scores", vec![idx[0].clone()])],
                    ),
                )],
            )]
        })
        .build()
}

/// Matrix transpose (the paper's Class I exemplar).
pub fn transpose(name: &str, n: usize) -> Operator {
    OperatorBuilder::new(name)
        .array_param("x", [n, n])
        .array_param("y", [n, n])
        .loop_nest(&[("i", n), ("j", n)], |idx| {
            vec![Stmt::assign(
                LValue::store("y", vec![idx[1].clone(), idx[0].clone()]),
                Expr::load("x", vec![idx[0].clone(), idx[1].clone()]),
            )]
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmulator_ir::{analyze_operator_taint, AdaptivityClass, InputData, Program};

    fn runs(op: Operator, data: InputData) -> u64 {
        let p = Program::single_op(op);
        p.validate().expect("valid");
        llmulator_sim::simulate(&p, &data)
            .expect("simulates")
            .total_cycles
    }

    #[test]
    fn all_static_ops_simulate() {
        assert!(runs(conv2d("c", 8, 8, 3), InputData::new()) > 0);
        assert!(runs(gemm("g", 6, 6, 6), InputData::new()) > 0);
        assert!(runs(softmax("s", 8), InputData::new()) > 0);
        assert!(runs(layer_norm("l", 8), InputData::new()) > 0);
        assert!(runs(maxpool2d("m", 8, 8, 2), InputData::new()) > 0);
        assert!(runs(upsample2x("u", 4, 4), InputData::new()) > 0);
        assert!(runs(dilated_conv("d", 16, 3, 2), InputData::new()) > 0);
        assert!(runs(batch_norm("b", 8), InputData::new()) > 0);
        assert!(runs(residual_add("r", 8), InputData::new()) > 0);
        assert!(runs(pointwise("p", 8), InputData::new()) > 0);
        assert!(runs(gather("ga", 8, 32), InputData::new()) > 0);
        assert!(runs(transpose("t", 6), InputData::new()) > 0);
        assert!(runs(relu_op("re", 8), InputData::new()) > 0);
        assert!(runs(sigmoid_op("si", 8), InputData::new()) > 0);
        assert!(runs(anchor_filter("a", 8), InputData::new()) > 0);
    }

    #[test]
    fn dynamic_ops_respond_to_inputs() {
        let small = runs(
            dyn_window2d("w", 32),
            InputData::new().with("h", 4i64).with("w", 4i64),
        );
        let large = runs(
            dyn_window2d("w", 32),
            InputData::new().with("h", 24i64).with("w", 24i64),
        );
        assert!(large > small * 8, "{large} vs {small}");
        let s1 = runs(dyn_seq_mix("m", 64), InputData::new().with("len", 8i64));
        let s2 = runs(dyn_seq_mix("m", 64), InputData::new().with("len", 48i64));
        assert!(s2 > s1);
    }

    #[test]
    fn classification_matches_paper_examples() {
        assert_eq!(
            analyze_operator_taint(&transpose("t", 8)).class,
            AdaptivityClass::Static
        );
        assert_eq!(
            analyze_operator_taint(&dyn_window2d("w", 8)).class,
            AdaptivityClass::ShapeAdaptive
        );
        assert_eq!(
            analyze_operator_taint(&anchor_filter("a", 8)).class,
            AdaptivityClass::DataAdaptive
        );
        assert_eq!(
            analyze_operator_taint(&gemm("g", 4, 4, 4)).class,
            AdaptivityClass::Static
        );
    }

    #[test]
    fn gemm_computes_correct_product() {
        let p = Program::single_op(gemm("g", 2, 2, 2));
        let data = InputData::new()
            .with(
                "buf_a",
                llmulator_ir::Tensor::new(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]),
            )
            .with(
                "buf_b",
                llmulator_ir::Tensor::new(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]),
            );
        let r = llmulator_sim::simulate(&p, &data).expect("simulates");
        let c = r.buffer(&"buf_c".into()).expect("output");
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn softmax_normalizes() {
        let p = Program::single_op(softmax("s", 4));
        let data = InputData::new().with(
            "buf_x",
            llmulator_ir::Tensor::new(vec![4], vec![0.0, 1.0, 0.5, -0.5]),
        );
        let r = llmulator_sim::simulate(&p, &data).expect("simulates");
        let y = r.buffer(&"buf_y".into()).expect("output");
        let sum: f64 = y.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "softmax sums to 1, got {sum}");
    }
}
