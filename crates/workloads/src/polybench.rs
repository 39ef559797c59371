//! The ten Polybench kernels used throughout the paper's evaluation
//! (Tables 3, 4 and 11), rebuilt as dataflow IR.
//!
//! Stencil/time-iterated kernels take their time-step count as a *runtime
//! scalar* (`tsteps`), making them input-adaptive — the property Table 11
//! exercises with profiles. Sizes are scaled down from the Polybench
//! defaults so profiling stays interactive; structure (loop shapes,
//! dependences, division/sqrt usage) follows the reference kernels.

use crate::workload::Workload;
use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{Expr, InputData, Intrinsic, LValue, Program, Stmt};

const N: usize = 12;

fn time_loop_inputs() -> InputData {
    InputData::new().with("tsteps", 4i64)
}

/// `adi`: alternating-direction implicit solver — per time step a column
/// sweep then a row sweep, each with divisions (the kernel Timeloop cannot
/// express).
pub fn adi() -> Workload {
    let op = OperatorBuilder::new("adi_kernel")
        .array_param("u", [N, N])
        .array_param("v", [N, N])
        .scalar_param("tsteps")
        .dyn_loop_nest(&[("t", Expr::var("tsteps"))], |_| {
            vec![
                // column sweep
                Stmt::for_range(
                    "i",
                    Expr::int((N - 2) as i64),
                    vec![Stmt::for_range(
                        "j",
                        Expr::int((N - 2) as i64),
                        vec![Stmt::assign(
                            LValue::store(
                                "v",
                                vec![Expr::var("i") + Expr::int(1), Expr::var("j") + Expr::int(1)],
                            ),
                            (Expr::load("u", vec![Expr::var("i"), Expr::var("j") + Expr::int(1)])
                                + Expr::load(
                                    "u",
                                    vec![
                                        Expr::var("i") + Expr::int(2),
                                        Expr::var("j") + Expr::int(1),
                                    ],
                                ))
                                / Expr::FloatConst(2.0),
                        )],
                    )],
                ),
                // row sweep
                Stmt::for_range(
                    "i",
                    Expr::int((N - 2) as i64),
                    vec![Stmt::for_range(
                        "j",
                        Expr::int((N - 2) as i64),
                        vec![Stmt::assign(
                            LValue::store(
                                "u",
                                vec![Expr::var("i") + Expr::int(1), Expr::var("j") + Expr::int(1)],
                            ),
                            (Expr::load("v", vec![Expr::var("i") + Expr::int(1), Expr::var("j")])
                                + Expr::load(
                                    "v",
                                    vec![
                                        Expr::var("i") + Expr::int(1),
                                        Expr::var("j") + Expr::int(2),
                                    ],
                                ))
                                / Expr::FloatConst(2.0),
                        )],
                    )],
                ),
            ]
        })
        .build();
    Workload::new("adi", Program::single_op(op), time_loop_inputs())
}

/// `atax`: `y = Aᵀ(Ax)`.
pub fn atax() -> Workload {
    let op = OperatorBuilder::new("atax_kernel")
        .array_param("a", [N, N])
        .array_param("x", [N])
        .array_param("tmp", [N])
        .array_param("y", [N])
        .loop_nest(&[("i", N), ("j", N)], |idx| {
            vec![Stmt::accumulate(
                "tmp",
                vec![idx[0].clone()],
                Expr::load("a", vec![idx[0].clone(), idx[1].clone()])
                    * Expr::load("x", vec![idx[1].clone()]),
            )]
        })
        .loop_nest(&[("i2", N), ("j2", N)], |idx| {
            vec![Stmt::accumulate(
                "y",
                vec![idx[1].clone()],
                Expr::load("a", vec![idx[0].clone(), idx[1].clone()])
                    * Expr::load("tmp", vec![idx[0].clone()]),
            )]
        })
        .build();
    Workload::new("atax", Program::single_op(op), InputData::new())
}

/// `bicg`: simultaneous `s = Aᵀr` and `q = Ap`.
pub fn bicg() -> Workload {
    let op = OperatorBuilder::new("bicg_kernel")
        .array_param("a", [N, N])
        .array_param("r", [N])
        .array_param("p", [N])
        .array_param("s", [N])
        .array_param("q", [N])
        .loop_nest(&[("i", N), ("j", N)], |idx| {
            vec![
                Stmt::accumulate(
                    "s",
                    vec![idx[1].clone()],
                    Expr::load("r", vec![idx[0].clone()])
                        * Expr::load("a", vec![idx[0].clone(), idx[1].clone()]),
                ),
                Stmt::accumulate(
                    "q",
                    vec![idx[0].clone()],
                    Expr::load("a", vec![idx[0].clone(), idx[1].clone()])
                        * Expr::load("p", vec![idx[1].clone()]),
                ),
            ]
        })
        .build();
    Workload::new("bicg", Program::single_op(op), InputData::new())
}

/// `correlation`: mean/stddev passes then the correlation matrix.
pub fn correlation() -> Workload {
    let op = OperatorBuilder::new("correlation_kernel")
        .array_param("data", [N, N])
        .array_param("mean", [N])
        .array_param("stddev", [N])
        .array_param("corr", [N, N])
        .loop_nest(&[("j", N), ("i", N)], |idx| {
            vec![Stmt::accumulate(
                "mean",
                vec![idx[0].clone()],
                Expr::load("data", vec![idx[1].clone(), idx[0].clone()])
                    / Expr::FloatConst(N as f64),
            )]
        })
        .loop_nest(&[("j2", N), ("i2", N)], |idx| {
            let centered = Expr::load("data", vec![idx[1].clone(), idx[0].clone()])
                - Expr::load("mean", vec![idx[0].clone()]);
            vec![Stmt::accumulate(
                "stddev",
                vec![idx[0].clone()],
                centered.clone() * centered / Expr::FloatConst(N as f64),
            )]
        })
        .loop_nest(&[("j3", N)], |idx| {
            vec![Stmt::assign(
                LValue::store("stddev", vec![idx[0].clone()]),
                Expr::call(
                    Intrinsic::Sqrt,
                    vec![Expr::load("stddev", vec![idx[0].clone()])],
                ),
            )]
        })
        .loop_nest(&[("i4", N), ("j4", N), ("k4", N)], |idx| {
            vec![Stmt::accumulate(
                "corr",
                vec![idx[0].clone(), idx[1].clone()],
                (Expr::load("data", vec![idx[2].clone(), idx[0].clone()])
                    - Expr::load("mean", vec![idx[0].clone()]))
                    * (Expr::load("data", vec![idx[2].clone(), idx[1].clone()])
                        - Expr::load("mean", vec![idx[1].clone()])),
            )]
        })
        .build();
    Workload::new("correlation", Program::single_op(op), InputData::new())
}

/// `covariance`: mean pass then the covariance matrix.
pub fn covariance() -> Workload {
    let op = OperatorBuilder::new("covariance_kernel")
        .array_param("data", [N, N])
        .array_param("mean", [N])
        .array_param("cov", [N, N])
        .loop_nest(&[("j", N), ("i", N)], |idx| {
            vec![Stmt::accumulate(
                "mean",
                vec![idx[0].clone()],
                Expr::load("data", vec![idx[1].clone(), idx[0].clone()])
                    / Expr::FloatConst(N as f64),
            )]
        })
        .loop_nest(&[("i2", N), ("j2", N), ("k2", N)], |idx| {
            vec![Stmt::accumulate(
                "cov",
                vec![idx[0].clone(), idx[1].clone()],
                (Expr::load("data", vec![idx[2].clone(), idx[0].clone()])
                    - Expr::load("mean", vec![idx[0].clone()]))
                    * (Expr::load("data", vec![idx[2].clone(), idx[1].clone()])
                        - Expr::load("mean", vec![idx[1].clone()]))
                    / Expr::FloatConst((N - 1) as f64),
            )]
        })
        .build();
    Workload::new("covariance", Program::single_op(op), InputData::new())
}

/// `deriche`: recursive edge-detection filter (horizontal + vertical passes
/// with exponential coefficients).
pub fn deriche() -> Workload {
    let op = OperatorBuilder::new("deriche_kernel")
        .array_param("img", [N, N])
        .array_param("y1", [N, N])
        .array_param("out", [N, N])
        .loop_nest(&[("i", N), ("j", N)], |idx| {
            vec![Stmt::assign(
                LValue::store("y1", vec![idx[0].clone(), idx[1].clone()]),
                Expr::load("img", vec![idx[0].clone(), idx[1].clone()])
                    * Expr::call(Intrinsic::Exp, vec![Expr::FloatConst(-0.25)])
                    + Expr::load("y1", vec![idx[0].clone(), idx[1].clone()])
                        * Expr::FloatConst(0.5),
            )]
        })
        .loop_nest(&[("j2", N), ("i2", N)], |idx| {
            vec![Stmt::assign(
                LValue::store("out", vec![idx[1].clone(), idx[0].clone()]),
                Expr::load("y1", vec![idx[1].clone(), idx[0].clone()])
                    * Expr::call(Intrinsic::Exp, vec![Expr::FloatConst(-0.25)])
                    + Expr::load("out", vec![idx[1].clone(), idx[0].clone()])
                        * Expr::FloatConst(0.5),
            )]
        })
        .build();
    Workload::new("deriche", Program::single_op(op), InputData::new())
}

/// `fdtd-2d`: finite-difference time-domain over `tsteps` field updates.
pub fn fdtd_2d() -> Workload {
    let op = OperatorBuilder::new("fdtd2d_kernel")
        .array_param("ex", [N, N])
        .array_param("ey", [N, N])
        .array_param("hz", [N, N])
        .scalar_param("tsteps")
        .dyn_loop_nest(&[("t", Expr::var("tsteps"))], |_| {
            vec![
                Stmt::for_range(
                    "i",
                    Expr::int((N - 1) as i64),
                    vec![Stmt::for_range(
                        "j",
                        Expr::int(N as i64),
                        vec![Stmt::assign(
                            LValue::store(
                                "ey",
                                vec![Expr::var("i") + Expr::int(1), Expr::var("j")],
                            ),
                            Expr::load("ey", vec![Expr::var("i") + Expr::int(1), Expr::var("j")])
                                - (Expr::load(
                                    "hz",
                                    vec![Expr::var("i") + Expr::int(1), Expr::var("j")],
                                ) - Expr::load("hz", vec![Expr::var("i"), Expr::var("j")]))
                                    * Expr::FloatConst(0.5),
                        )],
                    )],
                ),
                Stmt::for_range(
                    "i2",
                    Expr::int(N as i64),
                    vec![Stmt::for_range(
                        "j2",
                        Expr::int((N - 1) as i64),
                        vec![Stmt::assign(
                            LValue::store(
                                "ex",
                                vec![Expr::var("i2"), Expr::var("j2") + Expr::int(1)],
                            ),
                            Expr::load("ex", vec![Expr::var("i2"), Expr::var("j2") + Expr::int(1)])
                                - (Expr::load(
                                    "hz",
                                    vec![Expr::var("i2"), Expr::var("j2") + Expr::int(1)],
                                ) - Expr::load("hz", vec![Expr::var("i2"), Expr::var("j2")]))
                                    * Expr::FloatConst(0.5),
                        )],
                    )],
                ),
                Stmt::for_range(
                    "i3",
                    Expr::int((N - 1) as i64),
                    vec![Stmt::for_range(
                        "j3",
                        Expr::int((N - 1) as i64),
                        vec![Stmt::assign(
                            LValue::store("hz", vec![Expr::var("i3"), Expr::var("j3")]),
                            Expr::load("hz", vec![Expr::var("i3"), Expr::var("j3")])
                                - (Expr::load(
                                    "ex",
                                    vec![Expr::var("i3"), Expr::var("j3") + Expr::int(1)],
                                ) - Expr::load("ex", vec![Expr::var("i3"), Expr::var("j3")])
                                    + Expr::load(
                                        "ey",
                                        vec![Expr::var("i3") + Expr::int(1), Expr::var("j3")],
                                    )
                                    - Expr::load("ey", vec![Expr::var("i3"), Expr::var("j3")]))
                                    * Expr::FloatConst(0.7),
                        )],
                    )],
                ),
            ]
        })
        .build();
    Workload::new("fdtd-2d", Program::single_op(op), time_loop_inputs())
}

/// `heat-3d`: 3-D heat-equation stencil over `tsteps`.
pub fn heat_3d() -> Workload {
    let m = 8usize;
    let stencil = |src: &str, dst: &str| {
        let load = |di: i64, dj: i64, dk: i64| {
            Expr::load(
                src,
                vec![
                    Expr::var("i") + Expr::int(1 + di),
                    Expr::var("j") + Expr::int(1 + dj),
                    Expr::var("k") + Expr::int(1 + dk),
                ],
            )
        };
        Stmt::for_range(
            "i",
            Expr::int((m - 2) as i64),
            vec![Stmt::for_range(
                "j",
                Expr::int((m - 2) as i64),
                vec![Stmt::for_range(
                    "k",
                    Expr::int((m - 2) as i64),
                    vec![Stmt::assign(
                        LValue::store(
                            dst,
                            vec![
                                Expr::var("i") + Expr::int(1),
                                Expr::var("j") + Expr::int(1),
                                Expr::var("k") + Expr::int(1),
                            ],
                        ),
                        (load(-1, 0, 0)
                            + load(1, 0, 0)
                            + load(0, -1, 0)
                            + load(0, 1, 0)
                            + load(0, 0, -1)
                            + load(0, 0, 1))
                            / Expr::FloatConst(6.0),
                    )],
                )],
            )],
        )
    };
    let op = OperatorBuilder::new("heat3d_kernel")
        .array_param("a", [m, m, m])
        .array_param("b", [m, m, m])
        .scalar_param("tsteps")
        .dyn_loop_nest(&[("t", Expr::var("tsteps"))], move |_| {
            vec![stencil("a", "b"), stencil("b", "a")]
        })
        .build();
    Workload::new("heat-3d", Program::single_op(op), time_loop_inputs())
}

/// `jacobi-2d`: 5-point stencil ping-pong over `tsteps`.
pub fn jacobi_2d() -> Workload {
    let stencil = |src: &str, dst: &str| {
        Stmt::for_range(
            "i",
            Expr::int((N - 2) as i64),
            vec![Stmt::for_range(
                "j",
                Expr::int((N - 2) as i64),
                vec![Stmt::assign(
                    LValue::store(
                        dst,
                        vec![Expr::var("i") + Expr::int(1), Expr::var("j") + Expr::int(1)],
                    ),
                    (Expr::load(
                        src,
                        vec![Expr::var("i") + Expr::int(1), Expr::var("j") + Expr::int(1)],
                    ) + Expr::load(src, vec![Expr::var("i"), Expr::var("j") + Expr::int(1)])
                        + Expr::load(
                            src,
                            vec![Expr::var("i") + Expr::int(2), Expr::var("j") + Expr::int(1)],
                        )
                        + Expr::load(src, vec![Expr::var("i") + Expr::int(1), Expr::var("j")])
                        + Expr::load(
                            src,
                            vec![Expr::var("i") + Expr::int(1), Expr::var("j") + Expr::int(2)],
                        ))
                        * Expr::FloatConst(0.2),
                )],
            )],
        )
    };
    let op = OperatorBuilder::new("jacobi2d_kernel")
        .array_param("a", [N, N])
        .array_param("b", [N, N])
        .scalar_param("tsteps")
        .dyn_loop_nest(&[("t", Expr::var("tsteps"))], move |_| {
            vec![stencil("a", "b"), stencil("b", "a")]
        })
        .build();
    Workload::new("jacobi-2d", Program::single_op(op), time_loop_inputs())
}

/// `seidel-2d`: in-place Gauss–Seidel sweep over `tsteps`.
pub fn seidel_2d() -> Workload {
    let op = OperatorBuilder::new("seidel2d_kernel")
        .array_param("a", [N, N])
        .scalar_param("tsteps")
        .dyn_loop_nest(&[("t", Expr::var("tsteps"))], |_| {
            vec![Stmt::for_range(
                "i",
                Expr::int((N - 2) as i64),
                vec![Stmt::for_range(
                    "j",
                    Expr::int((N - 2) as i64),
                    vec![Stmt::assign(
                        LValue::store(
                            "a",
                            vec![Expr::var("i") + Expr::int(1), Expr::var("j") + Expr::int(1)],
                        ),
                        (Expr::load("a", vec![Expr::var("i"), Expr::var("j") + Expr::int(1)])
                            + Expr::load("a", vec![Expr::var("i") + Expr::int(1), Expr::var("j")])
                            + Expr::load(
                                "a",
                                vec![Expr::var("i") + Expr::int(1), Expr::var("j") + Expr::int(1)],
                            )
                            + Expr::load(
                                "a",
                                vec![Expr::var("i") + Expr::int(1), Expr::var("j") + Expr::int(2)],
                            )
                            + Expr::load(
                                "a",
                                vec![Expr::var("i") + Expr::int(2), Expr::var("j") + Expr::int(1)],
                            ))
                            / Expr::FloatConst(5.0),
                    )],
                )],
            )]
        })
        .build();
    Workload::new("seidel-2d", Program::single_op(op), time_loop_inputs())
}

/// All ten kernels, in the paper's Table 3 row order.
pub fn all() -> Vec<Workload> {
    vec![
        adi(),
        atax(),
        bicg(),
        correlation(),
        covariance(),
        deriche(),
        fdtd_2d(),
        heat_3d(),
        jacobi_2d(),
        seidel_2d(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_kernels_simulate() {
        let kernels = all();
        assert_eq!(kernels.len(), 10);
        for w in &kernels {
            let r = llmulator_sim::simulate(&w.program, &w.inputs)
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert!(r.total_cycles > 0, "{}", w.name);
        }
    }

    #[test]
    fn names_match_paper_rows() {
        let names: Vec<String> = all().into_iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "adi",
                "atax",
                "bicg",
                "correlation",
                "covariance",
                "deriche",
                "fdtd-2d",
                "heat-3d",
                "jacobi-2d",
                "seidel-2d"
            ]
        );
    }

    #[test]
    fn time_loop_kernels_scale_with_tsteps() {
        for w in [adi(), fdtd_2d(), heat_3d(), jacobi_2d(), seidel_2d()] {
            let short = llmulator_sim::simulate(&w.program, &w.scaled_inputs(0.5))
                .expect("short")
                .total_cycles;
            let long = llmulator_sim::simulate(&w.program, &w.scaled_inputs(2.0))
                .expect("long")
                .total_cycles;
            assert!(long > short, "{}: {long} > {short}", w.name);
        }
    }

    #[test]
    fn adi_is_not_a_perfect_nest() {
        // The paper highlights that Timeloop cannot express adi.
        let w = adi();
        let op = &w.program.operators[0];
        // Top level is a dynamic time loop containing two sweeps.
        assert!(op.loop_depth() >= 3);
        let report = llmulator_ir::analyze_operator_taint(op);
        assert!(!report.class.is_static(), "Class II");
    }
}
