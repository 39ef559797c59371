//! Static input-dependence analysis (the Frama-C role in the paper).
//!
//! LLMulator's dynamic control-flow separation (paper Sec. 5.2) requires
//! knowing, *statically*, whether each operator's control flow depends on
//! runtime input. This module implements a provenance-tracking taint
//! fixpoint:
//!
//! * **sources** — scalar parameters (bound to runtime `data` at the graph
//!   level) and array loads (values unknown at compile time);
//! * **propagation** — assignments taint their destination variable with the
//!   union of the right-hand side's taint; loop variables are tainted by
//!   their bounds;
//! * **sinks** — loop bounds and branch conditions. An operator whose sink
//!   touches taint is **Class II** (input-dependent control flow); otherwise
//!   it is **Class I**.

use crate::expr::{Expr, Ident};
use crate::op::Operator;
use crate::program::Program;
use crate::stmt::Stmt;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Operator classification used by dynamic control-flow separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatorClass {
    /// Control flow is fully determined at compile time (e.g. a fixed-shape
    /// matrix transposition). Attention between this operator's tokens and
    /// the `data` segment can be masked.
    ClassI,
    /// Control flow depends on runtime input (e.g. sorting, dynamic loop
    /// bounds). Must attend to the `data` segment.
    ClassII,
}

/// Taint attached to a value: which scalar parameters reach it, and whether
/// raw array data reaches it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Taint {
    params: BTreeSet<Ident>,
    data: bool,
}

impl Taint {
    fn is_tainted(&self) -> bool {
        self.data || !self.params.is_empty()
    }

    fn merge(&mut self, other: &Taint) -> bool {
        let before = (self.params.len(), self.data);
        self.params.extend(other.params.iter().cloned());
        self.data |= other.data;
        before != (self.params.len(), self.data)
    }
}

/// Per-operator analysis result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatorReport {
    /// Operator name.
    pub name: Ident,
    /// Class I / Class II.
    pub class: OperatorClass,
    /// Scalar parameters that reach a control-flow sink.
    pub dynamic_params: BTreeSet<Ident>,
    /// True when a control-flow sink reads array contents (value-dependent
    /// control flow, e.g. `if (a[i] > 0)`).
    pub data_dependent_branches: bool,
}

/// Whole-program analysis result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlFlowReport {
    /// One report per operator, in definition order.
    pub operators: Vec<OperatorReport>,
}

impl ControlFlowReport {
    /// Looks up the report for an operator.
    pub fn operator(&self, name: &Ident) -> Option<&OperatorReport> {
        self.operators.iter().find(|r| &r.name == name)
    }

    /// Classification for an operator (defaults to Class II when unknown —
    /// the conservative choice for masking).
    pub fn class_of(&self, name: &Ident) -> OperatorClass {
        self.operator(name)
            .map(|r| r.class)
            .unwrap_or(OperatorClass::ClassII)
    }

    /// The paper's Table 2 "Dyn. Num": the number of optional dynamic
    /// control-flow-related parameters in the program, counted as the total
    /// of dynamic scalar parameters over all graph invocations.
    pub fn dynamic_param_count(&self, program: &Program) -> usize {
        program
            .graph
            .invocations
            .iter()
            .map(|inv| {
                self.operator(&inv.op)
                    .map(|r| r.dynamic_params.len() + usize::from(r.data_dependent_branches))
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Number of Class II operators.
    pub fn class_ii_count(&self) -> usize {
        self.operators
            .iter()
            .filter(|r| r.class == OperatorClass::ClassII)
            .count()
    }
}

/// Analyzes one operator in isolation (all scalar parameters are treated as
/// runtime-bound sources).
pub fn analyze_operator(op: &Operator) -> OperatorReport {
    // Seed the environment with scalar parameters, each tainted by itself.
    let mut env: BTreeMap<Ident, Taint> = BTreeMap::new();
    for p in op.scalar_params() {
        env.insert(
            p.clone(),
            Taint {
                params: BTreeSet::from([p.clone()]),
                data: false,
            },
        );
    }

    // Fixpoint: propagate taint through scalar assignments and loop vars.
    loop {
        let mut changed = false;
        for stmt in &op.body {
            propagate(stmt, &mut env, &mut changed);
        }
        if !changed {
            break;
        }
    }

    // Collect sinks.
    let mut sink = Taint::default();
    let mut any_taint = false;
    for stmt in &op.body {
        check_sinks(stmt, &env, &mut sink, &mut any_taint);
    }

    OperatorReport {
        name: op.name.clone(),
        class: if any_taint {
            OperatorClass::ClassII
        } else {
            OperatorClass::ClassI
        },
        dynamic_params: sink.params,
        data_dependent_branches: sink.data,
    }
}

/// Analyzes every operator of a program.
pub fn analyze_program(program: &Program) -> ControlFlowReport {
    ControlFlowReport {
        operators: program.operators.iter().map(analyze_operator).collect(),
    }
}

fn expr_taint(expr: &Expr, env: &BTreeMap<Ident, Taint>) -> Taint {
    match expr {
        Expr::IntConst(_) | Expr::FloatConst(_) => Taint::default(),
        Expr::Var(name) => env.get(name).cloned().unwrap_or_default(),
        Expr::Load { indices, .. } => {
            // Array contents are runtime data; index taint also flows through
            // (the loaded value depends on which element is chosen).
            let mut t = Taint {
                params: BTreeSet::new(),
                data: true,
            };
            for idx in indices {
                t.merge(&expr_taint(idx, env));
            }
            t
        }
        Expr::Binary { lhs, rhs, .. } => {
            let mut t = expr_taint(lhs, env);
            t.merge(&expr_taint(rhs, env));
            t
        }
        Expr::Unary { operand, .. } => expr_taint(operand, env),
        Expr::Call { args, .. } => {
            let mut t = Taint::default();
            for a in args {
                t.merge(&expr_taint(a, env));
            }
            t
        }
    }
}

fn propagate(stmt: &Stmt, env: &mut BTreeMap<Ident, Taint>, changed: &mut bool) {
    match stmt {
        Stmt::Assign { dest, value } => {
            if let crate::stmt::LValue::Var(name) = dest {
                let t = expr_taint(value, env);
                if t.is_tainted() && env.entry(name.clone()).or_default().merge(&t) {
                    *changed = true;
                }
            }
        }
        Stmt::For(l) => {
            // A loop variable bounded by taint is itself tainted (its final
            // value depends on input).
            let mut t = expr_taint(&l.lo, env);
            t.merge(&expr_taint(&l.hi, env));
            t.merge(&expr_taint(&l.step, env));
            if t.is_tainted() && env.entry(l.var.clone()).or_default().merge(&t) {
                *changed = true;
            }
            for s in &l.body {
                propagate(s, env, changed);
            }
        }
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            for s in then_body.iter().chain(else_body) {
                propagate(s, env, changed);
            }
        }
    }
}

fn check_sinks(stmt: &Stmt, env: &BTreeMap<Ident, Taint>, sink: &mut Taint, any_taint: &mut bool) {
    match stmt {
        Stmt::Assign { .. } => {}
        Stmt::For(l) => {
            for bound in [&l.lo, &l.hi, &l.step] {
                let t = expr_taint(bound, env);
                if t.is_tainted() {
                    *any_taint = true;
                    sink.merge(&t);
                }
            }
            for s in &l.body {
                check_sinks(s, env, sink, any_taint);
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let t = expr_taint(cond, env);
            if t.is_tainted() {
                *any_taint = true;
                sink.merge(&t);
            }
            for s in then_body.iter().chain(else_body) {
                check_sinks(s, env, sink, any_taint);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OperatorBuilder;
    use crate::stmt::LValue;

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
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassI);
        assert!(report.dynamic_params.is_empty());
    }

    #[test]
    fn dynamic_bound_is_class_ii_with_named_param() {
        let op = OperatorBuilder::new("window")
            .array_param("a", [256])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |_| vec![])
            .build();
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassII);
        assert!(report.dynamic_params.contains(&"n".into()));
    }

    #[test]
    fn value_dependent_branch_is_class_ii() {
        let op = OperatorBuilder::new("threshold")
            .array_param("a", [16])
            .array_param("b", [16])
            .loop_nest(&[("i", 16)], |idx| {
                vec![Stmt::if_then(
                    Expr::binary(
                        crate::expr::BinOp::Gt,
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
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassII);
        assert!(report.data_dependent_branches);
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
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassII);
        assert!(report.dynamic_params.contains(&"n".into()));
        assert!(!report.data_dependent_branches);
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
        assert_eq!(analyze_operator(&op).class, OperatorClass::ClassI);
    }

    #[test]
    fn load_in_bound_marks_data_dependence() {
        // for (i = 0; i < a[0]; ...) — data-dependent bound without params.
        let op = OperatorBuilder::new("datadep")
            .array_param("a", [4])
            .dyn_loop_nest(&[("i", Expr::load("a", vec![Expr::int(0)]))], |_| vec![])
            .build();
        let report = analyze_operator(&op);
        assert_eq!(report.class, OperatorClass::ClassII);
        assert!(report.data_dependent_branches);
        assert!(report.dynamic_params.is_empty());
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
        let program = Program::single_op(fixed);
        let report = analyze_program(&program);
        assert_eq!(report.class_ii_count(), 0);
        assert_eq!(report.dynamic_param_count(&program), 0);
        assert_eq!(report.class_of(&"unknown".into()), OperatorClass::ClassII);
    }
}
