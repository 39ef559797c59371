//! Input-dependence taint analysis.
//!
//! Propagates *where values come from* through an operator body: a value is
//! [`Dependence::Const`] when it is fully determined by the program text
//! (plus any invocation-constant scalar arguments), [`Dependence::InputShape`]
//! when it depends on runtime scalar inputs (sizes, thresholds — the things
//! that change between problem instances but not between tensors of the same
//! shape), and [`Dependence::InputData`] when it depends on tensor *contents*
//! (every `Load` is a data source).
//!
//! Taint flows through def/use chains (`x = a[i]` taints `x`), loop
//! variables (tainted bounds taint the induction variable), and **implicit
//! control flow** (an assignment under a data-dependent branch is
//! data-tainted even when its right-hand side is constant — the assignment's
//! *occurrence* depends on data).
//!
//! The control-flow sinks — loop bounds and branch conditions — decide the
//! operator's [`AdaptivityClass`]. This is the crate's one source of the
//! paper's Class I/II split (Sec. 5.2): Class I operators (control flow
//! independent of the input) come out [`AdaptivityClass::Static`], Class II
//! operators come out shape- or data-adaptive. [`crate::analysis`] reads
//! the per-definition classes the separation mask needs off this analysis;
//! Table 2's "Dyn. Num" counts [`OperatorTaint::sink_params`].
//! `sim::compiled` consumes the
//! per-sink verdicts to decide which regions can be retired in bulk at
//! compile time; the lint pass uses them for fold-to-unconditional and
//! cost-only-input diagnostics.
//!
//! A free variable — one that is neither a parameter nor assigned in the
//! body — is an input: the interpreter resolves it to the graph scalar of
//! that name, so `for (i = 0; i < n; ...)` reading graph scalar `n` directly
//! is shape-adaptive, exactly like the same loop with `n` passed as an
//! argument.

use crate::bounds::graph_arg_const;
use crate::cfg::Cfg;
use crate::expr::{Expr, Ident};
use crate::graph::Arg;
use crate::op::{Operator, ParamKind};
use crate::program::Program;
use crate::stmt::{LValue, Stmt};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Where a value (or a statement's execution count) can come from. Ordered as
/// a lattice: `Const < InputShape < InputData`; joins take the maximum.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Hash,
)]
pub enum Dependence {
    /// Fully determined by the program text (and invocation constants).
    #[default]
    Const,
    /// Depends on runtime scalar inputs (graph parameters, scalar arguments).
    InputShape,
    /// Depends on tensor contents.
    InputData,
}

impl Dependence {
    /// Lattice join (least upper bound).
    pub fn join(self, other: Dependence) -> Dependence {
        self.max(other)
    }

    /// Stable kebab-case name (used in diagnostics and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Dependence::Const => "const",
            Dependence::InputShape => "input-shape",
            Dependence::InputData => "input-data",
        }
    }
}

/// A dependence verdict plus the scalar input names that induced it (empty
/// for `Const`; for loads the index inputs, not the array, are attributed).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaintInfo {
    /// Lattice verdict.
    pub dep: Dependence,
    /// Scalar inputs the value transitively depends on.
    pub params: BTreeSet<Ident>,
}

impl TaintInfo {
    /// The constant (bottom) taint.
    pub fn constant() -> TaintInfo {
        TaintInfo::default()
    }

    /// Joins `other` into `self`, returning whether anything grew.
    fn absorb(&mut self, other: &TaintInfo) -> bool {
        let mut grew = false;
        if other.dep > self.dep {
            self.dep = other.dep;
            grew = true;
        }
        for p in &other.params {
            grew |= self.params.insert(p.clone());
        }
        grew
    }

    /// Functional join.
    fn joined(&self, other: &TaintInfo) -> TaintInfo {
        let mut out = self.clone();
        out.absorb(other);
        out
    }
}

/// The whole-operator (or whole-program) control-flow classification — the
/// paper's Class-I/Class-II split, refined by *what kind* of input drives
/// the control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Hash)]
pub enum AdaptivityClass {
    /// Every loop bound and branch condition is input-independent
    /// (paper Class I).
    Static,
    /// Control flow depends on scalar inputs only: the cost varies with the
    /// problem instance but not with tensor contents.
    ShapeAdaptive,
    /// Control flow depends on tensor contents (paper Class II proper).
    DataAdaptive,
}

impl AdaptivityClass {
    /// Classification from the join over every control-flow sink.
    pub fn from_dependence(dep: Dependence) -> AdaptivityClass {
        match dep {
            Dependence::Const => AdaptivityClass::Static,
            Dependence::InputShape => AdaptivityClass::ShapeAdaptive,
            Dependence::InputData => AdaptivityClass::DataAdaptive,
        }
    }

    /// Stable kebab-case name (used in reports and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            AdaptivityClass::Static => "static",
            AdaptivityClass::ShapeAdaptive => "shape-adaptive",
            AdaptivityClass::DataAdaptive => "data-adaptive",
        }
    }

    /// True for operators whose control flow is input-independent.
    pub fn is_static(self) -> bool {
        self == AdaptivityClass::Static
    }

    /// All classes, in lattice order.
    pub fn all() -> &'static [AdaptivityClass] {
        &[
            AdaptivityClass::Static,
            AdaptivityClass::ShapeAdaptive,
            AdaptivityClass::DataAdaptive,
        ]
    }
}

/// Taint report for one operator (one invocation context).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatorTaint {
    /// Operator name.
    pub op: Ident,
    /// Join over every control-flow sink.
    pub class: AdaptivityClass,
    /// Statement count (pre-order ids run `0..stmt_count`).
    pub stmt_count: usize,
    /// Per-statement control dependence: what the statement's *execution
    /// count* depends on (join of every enclosing loop bound and branch
    /// condition), indexed by pre-order id.
    pub control: Vec<Dependence>,
    /// Per-`For` taint of the bound expressions (`lo`, `hi`, `step` joined),
    /// keyed by pre-order id. Control context is *not* included — pair with
    /// [`OperatorTaint::control`] for the absolute verdict.
    pub loop_bounds: BTreeMap<usize, TaintInfo>,
    /// Per-`If` taint of the condition, keyed by pre-order id.
    pub branch_conds: BTreeMap<usize, TaintInfo>,
}

impl OperatorTaint {
    /// Per-basic-block dependence: the join of the control dependence of
    /// every statement in the block (empty blocks are `Const`), indexed by
    /// [`crate::cfg::BlockId`].
    pub fn block_dependence(&self, cfg: &Cfg) -> Vec<Dependence> {
        (0..cfg.blocks.len())
            .map(|b| {
                cfg.block_stmts(b)
                    .iter()
                    .map(|&s| self.control[s])
                    .fold(Dependence::Const, Dependence::join)
            })
            .collect()
    }

    /// Number of statements whose execution count is input-independent.
    pub fn const_control_stmts(&self) -> usize {
        self.control
            .iter()
            .filter(|&&d| d == Dependence::Const)
            .count()
    }

    /// Scalar inputs that reach a control-flow sink: the union of the
    /// loop-bound and branch-condition params.
    pub fn sink_params(&self) -> BTreeSet<Ident> {
        self.loop_bounds
            .values()
            .chain(self.branch_conds.values())
            .flat_map(|t| t.params.iter().cloned())
            .collect()
    }
}

/// Whole-program taint: one [`OperatorTaint`] per graph invocation (scalar
/// arguments that fold to constants are seeded `Const`, mirroring
/// `analyze_program_bounds`), plus the joined program class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramTaint {
    /// Per-invocation reports, in graph order (unknown operators skipped).
    pub invocations: Vec<OperatorTaint>,
    /// Join over every invocation's class.
    pub class: AdaptivityClass,
}

/// Analyzes one operator with every scalar parameter treated as a runtime
/// (shape) input.
pub fn analyze_operator_taint(op: &Operator) -> OperatorTaint {
    analyze_operator_taint_seeded(op, &BTreeMap::new())
}

/// Analyzes one operator with some scalar parameters pinned: `seed[p]`
/// carries the taint of the invocation argument bound to `p` (constant
/// arguments seed `Const`). Unseeded scalar parameters and free variables
/// (graph scalars) are shape inputs attributed to their own name.
pub fn analyze_operator_taint_seeded(
    op: &Operator,
    seed: &BTreeMap<Ident, TaintInfo>,
) -> OperatorTaint {
    let mut env: Env = BTreeMap::new();
    for name in op.scalar_params() {
        let taint = seed.get(name).cloned().unwrap_or_else(|| TaintInfo {
            dep: Dependence::InputShape,
            params: BTreeSet::from([name.clone()]),
        });
        env.insert(name.clone(), taint);
    }
    // Fixpoint: loop-carried def/use chains (x = a[x]) and implicit flows
    // grow the environment monotonically until stable.
    loop {
        let mut grew = false;
        flow_block(&op.body, &mut env, &TaintInfo::constant(), &mut grew);
        if !grew {
            break;
        }
    }
    // Recording pass: assign pre-order ids and capture sinks + control.
    let mut rec = Recorder {
        control: Vec::with_capacity(op.stmt_count()),
        loop_bounds: BTreeMap::new(),
        branch_conds: BTreeMap::new(),
    };
    record_block(&op.body, &env, &TaintInfo::constant(), &mut rec);
    let sink_dep = rec
        .loop_bounds
        .values()
        .chain(rec.branch_conds.values())
        .map(|t| t.dep)
        .fold(Dependence::Const, Dependence::join);
    OperatorTaint {
        op: op.name.clone(),
        class: AdaptivityClass::from_dependence(sink_dep),
        stmt_count: rec.control.len(),
        control: rec.control,
        loop_bounds: rec.loop_bounds,
        branch_conds: rec.branch_conds,
    }
}

/// Analyzes every invocation of a program, seeding scalar parameters from
/// the invocation arguments: constant-folding arguments are `Const`, other
/// scalar arguments are shape inputs attributed to the graph scalars they
/// read. Joins the per-invocation classes into the program class.
pub fn analyze_program_taint(program: &Program) -> ProgramTaint {
    let mut invocations = Vec::new();
    let mut dep = Dependence::Const;
    for inv in &program.graph.invocations {
        let Some(op) = program.operator(&inv.op) else {
            continue;
        };
        let mut seed = BTreeMap::new();
        for (param, arg) in op.params.iter().zip(&inv.args) {
            if let (ParamKind::Scalar, Arg::Scalar(expr)) = (&param.kind, arg) {
                let taint = if graph_arg_const(expr).is_some() {
                    TaintInfo::constant()
                } else {
                    let mut vars = Vec::new();
                    expr.collect_vars(&mut vars);
                    TaintInfo {
                        dep: Dependence::InputShape,
                        params: vars.into_iter().collect(),
                    }
                };
                seed.insert(param.name.clone(), taint);
            }
        }
        let t = analyze_operator_taint_seeded(op, &seed);
        dep = dep.join(match t.class {
            AdaptivityClass::Static => Dependence::Const,
            AdaptivityClass::ShapeAdaptive => Dependence::InputShape,
            AdaptivityClass::DataAdaptive => Dependence::InputData,
        });
        invocations.push(t);
    }
    ProgramTaint {
        invocations,
        class: AdaptivityClass::from_dependence(dep),
    }
}

type Env = BTreeMap<Ident, TaintInfo>;

/// Taint of evaluating `expr`: joins every source the interpreter would
/// touch. Free variables are shape inputs (they resolve to graph scalars or
/// read 0.0; treating the undefined-read case as input keeps the analysis
/// conservative), loads are data sources joined with their index taints.
fn eval_taint(expr: &Expr, env: &Env) -> TaintInfo {
    match expr {
        Expr::IntConst(_) | Expr::FloatConst(_) => TaintInfo::constant(),
        Expr::Var(name) => env.get(name).cloned().unwrap_or_else(|| TaintInfo {
            dep: Dependence::InputShape,
            params: BTreeSet::from([name.clone()]),
        }),
        Expr::Load { indices, .. } => {
            let mut t = TaintInfo {
                dep: Dependence::InputData,
                params: BTreeSet::new(),
            };
            for idx in indices {
                t.absorb(&eval_taint(idx, env));
            }
            t
        }
        Expr::Binary { lhs, rhs, .. } => eval_taint(lhs, env).joined(&eval_taint(rhs, env)),
        Expr::Unary { operand, .. } => eval_taint(operand, env),
        Expr::Call { args, .. } => {
            let mut t = TaintInfo::constant();
            for a in args {
                t.absorb(&eval_taint(a, env));
            }
            t
        }
    }
}

/// One monotone pass: joins value taints (plus the control context `ctx`,
/// the implicit flow) into assignment destinations and loop variables.
fn flow_block(stmts: &[Stmt], env: &mut Env, ctx: &TaintInfo, grew: &mut bool) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { dest, value } => {
                if let LValue::Var(name) = dest {
                    let t = eval_taint(value, env).joined(ctx);
                    *grew |= env.entry(name.clone()).or_default().absorb(&t);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let inner = eval_taint(cond, env).joined(ctx);
                flow_block(then_body, env, &inner, grew);
                flow_block(else_body, env, &inner, grew);
            }
            Stmt::For(l) => {
                let mut bound = eval_taint(&l.lo, env);
                bound.absorb(&eval_taint(&l.hi, env));
                bound.absorb(&eval_taint(&l.step, env));
                let inner = bound.joined(ctx);
                *grew |= env.entry(l.var.clone()).or_default().absorb(&inner);
                flow_block(&l.body, env, &inner, grew);
            }
        }
    }
}

struct Recorder {
    control: Vec<Dependence>,
    loop_bounds: BTreeMap<usize, TaintInfo>,
    branch_conds: BTreeMap<usize, TaintInfo>,
}

/// Post-fixpoint pass assigning pre-order statement ids ([`Stmt::visit`]
/// order) and recording the control vector and the sink taints.
fn record_block(stmts: &[Stmt], env: &Env, ctx: &TaintInfo, rec: &mut Recorder) {
    for stmt in stmts {
        let id = rec.control.len();
        rec.control.push(ctx.dep);
        match stmt {
            Stmt::Assign { .. } => {}
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let sink = eval_taint(cond, env);
                let inner = sink.joined(ctx);
                rec.branch_conds.insert(id, sink);
                record_block(then_body, env, &inner, rec);
                record_block(else_body, env, &inner, rec);
            }
            Stmt::For(l) => {
                let mut sink = eval_taint(&l.lo, env);
                sink.absorb(&eval_taint(&l.hi, env));
                sink.absorb(&eval_taint(&l.step, env));
                let inner = sink.joined(ctx);
                rec.loop_bounds.insert(id, sink);
                record_block(&l.body, env, &inner, rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OperatorBuilder;
    use crate::expr::BinOp;
    use crate::stmt::{ForLoop, LoopPragma};

    fn const_loop_op() -> Operator {
        OperatorBuilder::new("fill")
            .array_param("a", [16])
            .loop_nest(&[("i", 16)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    idx[0].clone(),
                )]
            })
            .build()
    }

    #[test]
    fn dependence_lattice_orders_and_joins() {
        use Dependence::{Const, InputData, InputShape};
        assert!(Const < InputShape && InputShape < InputData);
        assert_eq!(Const.join(InputData), InputData);
        assert_eq!(InputShape.join(Const), InputShape);
        assert_eq!(Const.name(), "const");
        assert_eq!(InputData.name(), "input-data");
    }

    #[test]
    fn const_loop_is_static() {
        let t = analyze_operator_taint(&const_loop_op());
        assert_eq!(t.class, AdaptivityClass::Static);
        assert!(t.control.iter().all(|&d| d == Dependence::Const));
        assert_eq!(t.loop_bounds[&0].dep, Dependence::Const);
        assert_eq!(t.const_control_stmts(), t.stmt_count);
        assert!(t.sink_params().is_empty());
    }

    #[test]
    fn scalar_bound_is_shape_adaptive() {
        let op = OperatorBuilder::new("dyn")
            .array_param("a", [64])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::int(1),
                )]
            })
            .build();
        let t = analyze_operator_taint(&op);
        assert_eq!(t.class, AdaptivityClass::ShapeAdaptive);
        let bound = &t.loop_bounds[&0];
        assert_eq!(bound.dep, Dependence::InputShape);
        assert!(bound.params.contains(&Ident::new("n")));
        // The loop itself executes unconditionally; its body is shape-gated.
        assert_eq!(t.control[0], Dependence::Const);
        assert_eq!(t.control[1], Dependence::InputShape);
        assert_eq!(t.sink_params(), BTreeSet::from([Ident::new("n")]));
    }

    #[test]
    fn data_branch_is_data_adaptive() {
        let op = OperatorBuilder::new("cond")
            .array_param("a", [8])
            .array_param("b", [8])
            .loop_nest(&[("i", 8)], |idx| {
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
        // ids: 0 = For, 1 = If, 2 = store.
        assert_eq!(t.branch_conds[&1].dep, Dependence::InputData);
        assert_eq!(t.control[1], Dependence::Const);
        assert_eq!(t.control[2], Dependence::InputData);
        assert!(t.sink_params().is_empty());
    }

    #[test]
    fn def_use_chain_carries_data_taint_into_bound() {
        // x = a[0]; for i in 0..x — the bound is data-tainted through x.
        let op = OperatorBuilder::new("chain")
            .array_param("a", [8])
            .stmt(Stmt::assign(
                LValue::var("x"),
                Expr::load("a", vec![Expr::int(0)]),
            ))
            .stmt(Stmt::For(ForLoop {
                var: "i".into(),
                lo: Expr::int(0),
                hi: Expr::var("x"),
                step: Expr::int(1),
                pragma: LoopPragma::None,
                body: vec![Stmt::assign(
                    LValue::store("a", vec![Expr::var("i")]),
                    Expr::int(0),
                )],
            }))
            .build();
        let t = analyze_operator_taint(&op);
        assert_eq!(t.class, AdaptivityClass::DataAdaptive);
        assert_eq!(t.loop_bounds[&1].dep, Dependence::InputData);
        assert!(t.sink_params().is_empty());
    }

    #[test]
    fn implicit_flow_taints_assignment_under_data_branch() {
        // if a[0] > 0 { n = 5 }; for i in 0..n — n's *value* depends on
        // whether the branch ran, so the loop is data-adaptive.
        let op = OperatorBuilder::new("implicit")
            .array_param("a", [8])
            .stmt(Stmt::assign(LValue::var("n"), Expr::int(2)))
            .stmt(Stmt::if_then(
                Expr::binary(BinOp::Gt, Expr::load("a", vec![Expr::int(0)]), Expr::int(0)),
                vec![Stmt::assign(LValue::var("n"), Expr::int(5))],
            ))
            .stmt(Stmt::For(ForLoop {
                var: "i".into(),
                lo: Expr::int(0),
                hi: Expr::var("n"),
                step: Expr::int(1),
                pragma: LoopPragma::None,
                body: vec![Stmt::assign(
                    LValue::store("a", vec![Expr::var("i")]),
                    Expr::int(0),
                )],
            }))
            .build();
        let t = analyze_operator_taint(&op);
        assert_eq!(t.class, AdaptivityClass::DataAdaptive);
        // ids: 0 = n=2, 1 = If, 2 = n=5, 3 = For, 4 = store.
        assert_eq!(t.loop_bounds[&3].dep, Dependence::InputData);
    }

    #[test]
    fn program_seeding_makes_const_args_static() {
        let op = OperatorBuilder::new("dyn")
            .array_param("a", [64])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::int(1),
                )]
            })
            .build();
        let mut program = Program::single_op(op);
        // Unseeded: the pass-through graph parameter keeps it shape-adaptive.
        let pt = analyze_program_taint(&program);
        assert_eq!(pt.class, AdaptivityClass::ShapeAdaptive);
        assert!(pt.invocations[0].loop_bounds[&0]
            .params
            .contains(&Ident::new("n")));
        // Pinning the argument to a constant makes the invocation static.
        program.graph.params.clear();
        program.graph.invocations[0].args[1] = Arg::int(12);
        let pt = analyze_program_taint(&program);
        assert_eq!(pt.class, AdaptivityClass::Static);
        assert_eq!(pt.invocations[0].class, AdaptivityClass::Static);
    }

    #[test]
    fn block_dependence_follows_control() {
        let op = OperatorBuilder::new("cond")
            .array_param("a", [8])
            .array_param("b", [8])
            .loop_nest(&[("i", 8)], |idx| {
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
        let cfg = Cfg::build(&op);
        let deps = t.block_dependence(&cfg);
        assert_eq!(deps.len(), cfg.blocks.len());
        // The then-arm block (holding the store) is data-dependent; the
        // entry block (holding nothing) is const.
        assert!(deps.contains(&Dependence::InputData));
        assert_eq!(deps[cfg.entry], Dependence::Const);
    }

    #[test]
    fn class_names_and_order() {
        assert_eq!(AdaptivityClass::Static.name(), "static");
        assert_eq!(AdaptivityClass::ShapeAdaptive.name(), "shape-adaptive");
        assert_eq!(AdaptivityClass::DataAdaptive.name(), "data-adaptive");
        assert!(AdaptivityClass::Static.is_static());
        assert!(!AdaptivityClass::DataAdaptive.is_static());
        assert_eq!(AdaptivityClass::all().len(), 3);
    }

    #[test]
    fn unknown_operator_invocations_are_skipped() {
        let mut program = Program::single_op(const_loop_op());
        program.graph.invocations[0].op = "missing".into();
        let pt = analyze_program_taint(&program);
        assert!(pt.invocations.is_empty());
        assert_eq!(pt.class, AdaptivityClass::Static);
    }
}
