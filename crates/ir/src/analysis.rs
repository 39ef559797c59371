//! LLMulator's Class I/II operator split (paper Sec. 5.2), read off the
//! [`crate::taint`] analysis.
//!
//! Dynamic control-flow separation masks the attention between an
//! operator's tokens and the `data` segment when the operator's control
//! flow cannot depend on runtime input. An operator is **Class I** when
//! every loop bound and branch condition is input-independent
//! ([`AdaptivityClass::is_static`]) and **Class II** otherwise (shape- or
//! data-adaptive). The scalar inputs that make an operator Class II are its
//! [`crate::OperatorTaint::sink_params`].

use crate::program::Program;
use crate::taint::{analyze_operator_taint, AdaptivityClass};

/// The class of every operator *definition*, in definition order — the
/// index a tokenized program's `SegmentKind::Operator(i)` carries, so the
/// separation mask reads `classes[i]` for operator segment `i`. Each
/// operator is analyzed unseeded: every scalar parameter is a runtime input,
/// whatever constants individual invocations pass.
pub fn operator_classes(program: &Program) -> Vec<AdaptivityClass> {
    program
        .operators
        .iter()
        .map(|op| analyze_operator_taint(op).class)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OperatorBuilder;
    use crate::expr::{BinOp, Expr, Ident};
    use crate::stmt::{LValue, Stmt};
    use crate::taint::analyze_program_taint;
    use std::collections::BTreeSet;

    #[test]
    fn fixed_transpose_is_class_i() {
        let op = OperatorBuilder::new("transpose")
            .array_param("a", [8, 8])
            .array_param("b", [8, 8])
            .loop_nest(&[("i", 8), ("j", 8)], |idx| {
                vec![Stmt::assign(
                    LValue::store("b", vec![idx[1].clone(), idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone(), idx[1].clone()]),
                )]
            })
            .build();
        let t = analyze_operator_taint(&op);
        assert!(t.class.is_static());
        assert!(t.sink_params().is_empty());
    }

    #[test]
    fn dynamic_bound_is_class_ii_with_named_param() {
        let op = OperatorBuilder::new("window")
            .array_param("a", [256])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |_| vec![])
            .build();
        let t = analyze_operator_taint(&op);
        assert!(!t.class.is_static());
        assert!(t.sink_params().contains(&Ident::new("n")));
    }

    #[test]
    fn value_dependent_branch_is_class_ii() {
        let op = OperatorBuilder::new("threshold")
            .array_param("a", [16])
            .array_param("b", [16])
            .loop_nest(&[("i", 16)], |idx| {
                vec![Stmt::if_then(
                    Expr::binary(
                        BinOp::Gt,
                        Expr::load("a", vec![idx[0].clone()]),
                        Expr::int(0),
                    ),
                    vec![Stmt::assign(
                        LValue::store("b", vec![idx[0].clone()]),
                        Expr::int(1),
                    )],
                )]
            })
            .build();
        let t = analyze_operator_taint(&op);
        assert_eq!(t.class, AdaptivityClass::DataAdaptive);
    }

    #[test]
    fn taint_propagates_through_locals() {
        // m = n * 2; for (i in 0..m) — still Class II, attributed to `n`.
        let op = OperatorBuilder::new("indirect")
            .scalar_param("n")
            .stmt(Stmt::assign(
                LValue::var("m"),
                Expr::var("n") * Expr::int(2),
            ))
            .dyn_loop_nest(&[("i", Expr::var("m"))], |_| vec![])
            .build();
        let t = analyze_operator_taint(&op);
        assert_eq!(t.class, AdaptivityClass::ShapeAdaptive);
        assert_eq!(t.sink_params(), BTreeSet::from([Ident::new("n")]));
    }

    #[test]
    fn unused_scalar_param_keeps_class_i() {
        let op = OperatorBuilder::new("fixed")
            .array_param("a", [4])
            .scalar_param("unused")
            .loop_nest(&[("i", 4)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::int(0),
                )]
            })
            .build();
        let t = analyze_operator_taint(&op);
        assert!(t.class.is_static());
        assert!(t.sink_params().is_empty());
    }

    #[test]
    fn load_in_bound_marks_data_dependence() {
        // for (i = 0; i < a[0]; ...) — data-dependent bound without params.
        let op = OperatorBuilder::new("datadep")
            .array_param("a", [4])
            .dyn_loop_nest(&[("i", Expr::load("a", vec![Expr::int(0)]))], |_| vec![])
            .build();
        let t = analyze_operator_taint(&op);
        assert_eq!(t.class, AdaptivityClass::DataAdaptive);
        assert!(t.sink_params().is_empty());
    }

    #[test]
    fn program_report_counts_class_ii() {
        let fixed = OperatorBuilder::new("fixed")
            .array_param("a", [4])
            .loop_nest(&[("i", 4)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::int(0),
                )]
            })
            .build();
        let window = OperatorBuilder::new("window")
            .array_param("a", [4])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |_| vec![])
            .build();
        let mut program = Program::single_op(fixed);
        let class_ii = |p: &Program| {
            operator_classes(p)
                .iter()
                .filter(|c| !c.is_static())
                .count()
        };
        assert_eq!(class_ii(&program), 0);
        program.operators.push(window);
        assert_eq!(class_ii(&program), 1);
    }

    #[test]
    fn operator_classes_are_per_definition_and_unseeded() {
        // `win` reads graph scalar `n` directly; `dyn` is invoked with a
        // constant argument; `fill` is never invoked. Classes follow the
        // definition order and ignore the invocation constants.
        let program = crate::parse::parse_program(
            "void fill(float a[16]) {\n  for (int i = 0; i < 16; i += 1) {\n    a[i] = 0;\n  }\n}\n\
             void dyn(float a[16], int k) {\n  for (int i = 0; i < k; i += 1) {\n    a[i] = 1;\n  }\n}\n\
             void win(float a[16]) {\n  for (int i = 0; i < n; i += 1) {\n    a[i] = 1;\n  }\n}\n\
             void graph(int n) {\n  float buf[16];\n  dyn(buf, 4);\n  win(buf);\n}\n",
        )
        .expect("parses");
        assert_eq!(
            operator_classes(&program),
            [
                AdaptivityClass::Static,
                AdaptivityClass::ShapeAdaptive,
                AdaptivityClass::ShapeAdaptive,
            ]
        );
        let win = analyze_operator_taint(&program.operators[2]);
        assert_eq!(win.sink_params(), BTreeSet::from([Ident::new("n")]));
        assert_eq!(
            analyze_program_taint(&program).invocations[0].class,
            AdaptivityClass::Static
        );
    }
}
