//! Analysis-directed compiled simulation.
//!
//! [`compile`] walks each operator body and, for every maximal run of
//! statements that the [`llmulator_ir::taint`] pass proves input-independent
//! *and* the [`llmulator_ir::bounds`] pass can count exactly, pre-computes a
//! per-entry cost delta (cycles, loads, stores, branches, iterations) at
//! compile time. Executing such a *region* then costs one bulk retire instead
//! of per-iteration interpretation; only the data side effects (buffer reads
//! and writes, wrap/div-by-zero/undefined-read statistics) are still played
//! forward, on a slot-indexed machine with no hash lookups. Statements the
//! analyses cannot prove static fall back to an exact replica of the
//! [`crate::exec`] interpreter, so [`simulate_compiled`] is bit-identical to
//! [`crate::simulate`] on every [`CycleReport`] field — the interpreter stays
//! the oracle, the compiled engine is the throughput path.
//!
//! A statement enters a region only when every one of these holds:
//!
//! * `For`: exact static trip count, constant `lo`/`step`, taint-`Const`
//!   bound, effect-free bound expressions, and a compilable body;
//! * `If`: the condition folds statically, is taint-`Const`, and is
//!   effect-free (the live arm is inlined, the branch stat bulk-counted);
//! * `Assign`: always (values stay data-dependent; only control must be
//!   static).
//!
//! "Effect-free" means evaluation can never bump `undefined_reads`,
//! `div_by_zero`, `wrapped_accesses` or issue memory traffic — otherwise
//! skipping the evaluation would diverge from the interpreter's statistics.

use crate::cost::{
    binop_latency, intrinsic_latency, parallel_cycles, unary_latency, LaneCost, INVOKE_OVERHEAD,
};
use crate::exec::{
    apply_binop, apply_intrinsic, eval_graph_expr, group_overhead, setup_program, unroll_factor,
    CycleReport, ExecStats, InvocationProfile, SimConfig, SimError,
};
use llmulator_ir::{
    analyze_program_bounds, analyze_program_taint, AdaptivityClass, Arg, BinOp, Dependence, Expr,
    HardwareParams, Ident, InputData, Intrinsic, LValue, Operator, OperatorBounds, OperatorTaint,
    Program, Stmt, Tensor, UnOp,
};
use std::collections::{BTreeSet, HashMap};

/// What the region compiler managed to prove about a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileSummary {
    /// Invocations in the graph (compiled or not).
    pub invocations: usize,
    /// Input-independent regions whose cost retires in O(1).
    pub regions: usize,
    /// Source statements covered by those regions.
    pub region_stmts: usize,
    /// Source statements across all invoked operator bodies.
    pub total_stmts: usize,
    /// Whole-program adaptivity class from the taint analysis.
    pub class: AdaptivityClass,
}

impl CompileSummary {
    /// Fraction of statements retired through compiled regions.
    pub fn coverage(&self) -> f64 {
        if self.total_stmts == 0 {
            return 0.0;
        }
        self.region_stmts as f64 / self.total_stmts as f64
    }
}

/// A program lowered to slot-indexed nodes with pre-costed static regions.
pub struct CompiledProgram<'p> {
    program: &'p Program,
    plans: Vec<Result<InvPlan, SimError>>,
    summary: CompileSummary,
}

/// How one scalar slot starts each invocation (mirrors the interpreter's
/// frame-then-graph variable lookup order).
enum SlotInit {
    /// Never written before first read: reads count as `undefined_reads`.
    Undef,
    /// Falls through to the graph-level scalar binding.
    Graph(Ident),
    /// Bound by a scalar invocation argument, evaluated over graph scalars.
    Arg(Expr),
}

struct InvPlan {
    op: Ident,
    inits: Vec<SlotInit>,
    body: Vec<CNode>,
}

/// Expression with names resolved to slots/buffers and latencies baked in.
enum CExpr {
    Const(f64),
    Slot(usize),
    /// `buf` is `None` when the array name is not bound in the frame: the
    /// interpreter then skips index evaluation entirely and reads 0.
    Load {
        buf: Option<usize>,
        indices: Vec<CExpr>,
    },
    Binary {
        op: BinOp,
        lat: u64,
        lhs: Box<CExpr>,
        rhs: Box<CExpr>,
    },
    Unary {
        op: UnOp,
        lat: u64,
        operand: Box<CExpr>,
    },
    Call {
        func: Intrinsic,
        lat: u64,
        args: Vec<CExpr>,
    },
}

enum CDest {
    Slot(usize),
    Store {
        buf: Option<usize>,
        indices: Vec<CExpr>,
    },
}

/// Interpreted spine nodes: cost is accounted at runtime, exactly as the
/// step interpreter does.
enum CNode {
    Assign {
        dest: CDest,
        value: CExpr,
    },
    If {
        cond: CExpr,
        then_body: Vec<CNode>,
        else_body: Vec<CNode>,
    },
    For {
        var: usize,
        var_name: Ident,
        lo: CExpr,
        hi: CExpr,
        step: CExpr,
        factor: u64,
        overhead: u64,
        body: Vec<CNode>,
    },
    Region(Region),
}

/// Fast-path nodes inside a proven-static region: no cost bookkeeping, only
/// data effects.
enum FNode {
    Assign {
        dest: CDest,
        value: CExpr,
    },
    Loop {
        var: usize,
        lo: i64,
        step: i64,
        trips: u64,
        body: Vec<FNode>,
    },
}

struct Region {
    nodes: Vec<FNode>,
    delta: RegionCost,
}

/// Pre-computed per-entry cost of a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RegionCost {
    /// Straight-line lane contribution at the region's nesting level.
    lane: LaneCost,
    /// Already-folded nested-loop cycles.
    nested: u64,
    loads: u64,
    stores: u64,
    taken: u64,
    not_taken: u64,
    iters: u64,
}

impl RegionCost {
    fn seq(&mut self, o: RegionCost) {
        self.lane.sequential(o.lane);
        self.nested = self.nested.saturating_add(o.nested);
        self.loads = self.loads.saturating_add(o.loads);
        self.stores = self.stores.saturating_add(o.stores);
        self.taken = self.taken.saturating_add(o.taken);
        self.not_taken = self.not_taken.saturating_add(o.not_taken);
        self.iters = self.iters.saturating_add(o.iters);
    }
}

fn block_stmt_count(stmts: &[Stmt]) -> usize {
    stmts.iter().map(stmt_count).sum()
}

fn stmt_count(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::Assign { .. } => 0,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => block_stmt_count(then_body) + block_stmt_count(else_body),
        Stmt::For(l) => block_stmt_count(&l.body),
    }
}

/// True when evaluating `expr` can never touch the statistics counters:
/// no loads, no reads of possibly-undefined scalars, no division or modulo
/// with a possibly-zero divisor. Only such expressions may be skipped at
/// runtime without diverging from the interpreter.
fn pure_expr(expr: &Expr, defined: &BTreeSet<Ident>) -> bool {
    match expr {
        Expr::IntConst(_) | Expr::FloatConst(_) => true,
        Expr::Var(name) => defined.contains(name),
        Expr::Load { .. } => false,
        Expr::Binary { op, lhs, rhs } => {
            if matches!(op, BinOp::Div | BinOp::Mod) && !nonzero_const(rhs) {
                return false;
            }
            pure_expr(lhs, defined) && pure_expr(rhs, defined)
        }
        Expr::Unary { operand, .. } => pure_expr(operand, defined),
        Expr::Call { args, .. } => args.iter().all(|a| pure_expr(a, defined)),
    }
}

fn nonzero_const(expr: &Expr) -> bool {
    match expr {
        Expr::IntConst(v) => *v != 0,
        Expr::FloatConst(v) => *v != 0.0,
        _ => false,
    }
}

/// Accumulates the lane cost the interpreter would charge for evaluating `e`.
fn cexpr_lane(e: &CExpr, lane: &mut LaneCost) {
    match e {
        CExpr::Const(_) | CExpr::Slot(_) => {}
        CExpr::Load {
            buf: Some(_),
            indices,
        } => {
            for (k, idx) in indices.iter().enumerate() {
                cexpr_lane(idx, lane);
                lane.compute += u64::from(k > 0);
            }
            lane.loads += 1;
        }
        CExpr::Load { buf: None, .. } => lane.loads += 1,
        CExpr::Binary { lat, lhs, rhs, .. } => {
            cexpr_lane(lhs, lane);
            cexpr_lane(rhs, lane);
            lane.compute += lat;
        }
        CExpr::Unary { lat, operand, .. } => {
            cexpr_lane(operand, lane);
            lane.compute += lat;
        }
        CExpr::Call { lat, args, .. } => {
            for a in args {
                cexpr_lane(a, lane);
            }
            lane.compute += lat;
        }
    }
}

struct OpCompiler<'a> {
    hw: &'a HardwareParams,
    graph_params: &'a [Ident],
    bounds: Option<&'a OperatorBounds>,
    taint: Option<&'a OperatorTaint>,
    arrays: HashMap<Ident, usize>,
    slots: HashMap<Ident, usize>,
    inits: Vec<SlotInit>,
    next_id: usize,
    regions: usize,
    region_stmts: usize,
}

impl OpCompiler<'_> {
    fn slot_of(&mut self, name: &Ident) -> usize {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.inits.len();
        let init = if self.graph_params.contains(name) {
            SlotInit::Graph(name.clone())
        } else {
            SlotInit::Undef
        };
        self.inits.push(init);
        self.slots.insert(name.clone(), s);
        s
    }

    fn compile_expr(&mut self, e: &Expr) -> CExpr {
        match e {
            Expr::IntConst(v) => CExpr::Const(*v as f64),
            Expr::FloatConst(v) => CExpr::Const(*v),
            Expr::Var(name) => CExpr::Slot(self.slot_of(name)),
            Expr::Load { array, indices } => match self.arrays.get(array).copied() {
                Some(buf) => CExpr::Load {
                    buf: Some(buf),
                    indices: indices.iter().map(|i| self.compile_expr(i)).collect(),
                },
                // Unknown array: the interpreter never evaluates the indices.
                None => CExpr::Load {
                    buf: None,
                    indices: Vec::new(),
                },
            },
            Expr::Binary { op, lhs, rhs } => CExpr::Binary {
                op: *op,
                lat: binop_latency(*op),
                lhs: Box::new(self.compile_expr(lhs)),
                rhs: Box::new(self.compile_expr(rhs)),
            },
            Expr::Unary { op, operand } => CExpr::Unary {
                op: *op,
                lat: unary_latency(),
                operand: Box::new(self.compile_expr(operand)),
            },
            Expr::Call { func, args } => CExpr::Call {
                func: *func,
                lat: intrinsic_latency(*func),
                args: args.iter().map(|a| self.compile_expr(a)).collect(),
            },
        }
    }

    fn compile_dest(
        &mut self,
        dest: &LValue,
        defined: &mut BTreeSet<Ident>,
        lane: &mut LaneCost,
    ) -> CDest {
        match dest {
            LValue::Var(name) => {
                let s = self.slot_of(name);
                defined.insert(name.clone());
                CDest::Slot(s)
            }
            LValue::Store { array, indices } => match self.arrays.get(array).copied() {
                Some(buf) => {
                    let idxs: Vec<CExpr> = indices.iter().map(|i| self.compile_expr(i)).collect();
                    for (k, idx) in idxs.iter().enumerate() {
                        cexpr_lane(idx, lane);
                        lane.compute += u64::from(k > 0);
                    }
                    lane.stores += 1;
                    CDest::Store {
                        buf: Some(buf),
                        indices: idxs,
                    }
                }
                None => {
                    lane.stores += 1;
                    CDest::Store {
                        buf: None,
                        indices: Vec::new(),
                    }
                }
            },
        }
    }

    /// Compiles a block into interpreted nodes, merging every maximal run of
    /// provably-static statements into a single [`Region`].
    fn compile_block(&mut self, stmts: &[Stmt], defined: &mut BTreeSet<Ident>) -> Vec<CNode> {
        let mut out = Vec::new();
        let mut acc_nodes: Vec<FNode> = Vec::new();
        let mut acc_rc = RegionCost::default();
        let mut acc_stmts = 0usize;
        for stmt in stmts {
            let save = self.next_id;
            let mut d = defined.clone();
            if let Some((nodes, rc)) = self.try_fast(stmt, &mut d) {
                *defined = d;
                acc_nodes.extend(nodes);
                acc_rc.seq(rc);
                acc_stmts += stmt_count(stmt);
            } else {
                self.next_id = save;
                self.flush(&mut out, &mut acc_nodes, &mut acc_rc, &mut acc_stmts);
                out.push(self.compile_slow(stmt, defined));
            }
        }
        self.flush(&mut out, &mut acc_nodes, &mut acc_rc, &mut acc_stmts);
        out
    }

    fn flush(
        &mut self,
        out: &mut Vec<CNode>,
        nodes: &mut Vec<FNode>,
        rc: &mut RegionCost,
        stmts: &mut usize,
    ) {
        if *stmts == 0 {
            return;
        }
        self.regions += 1;
        self.region_stmts += *stmts;
        out.push(CNode::Region(Region {
            nodes: std::mem::take(nodes),
            delta: *rc,
        }));
        *rc = RegionCost::default();
        *stmts = 0;
    }

    /// Tries to compile one statement for bulk retirement. `None` means it
    /// (or something it contains) needs the interpreter; the caller restores
    /// `next_id` and the defined set.
    fn try_fast(
        &mut self,
        stmt: &Stmt,
        defined: &mut BTreeSet<Ident>,
    ) -> Option<(Vec<FNode>, RegionCost)> {
        let sid = self.next_id;
        self.next_id += 1;
        match stmt {
            Stmt::Assign { dest, value } => {
                let v = self.compile_expr(value);
                let mut lane = LaneCost::default();
                cexpr_lane(&v, &mut lane);
                let dest_c = self.compile_dest(dest, defined, &mut lane);
                let rc = RegionCost {
                    lane,
                    loads: lane.loads,
                    stores: lane.stores,
                    ..RegionCost::default()
                };
                Some((
                    vec![FNode::Assign {
                        dest: dest_c,
                        value: v,
                    }],
                    rc,
                ))
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let fold = self.bounds?.cond_folds.get(&sid).copied().flatten()?;
                let tinfo = self.taint?.branch_conds.get(&sid)?;
                if tinfo.dep != Dependence::Const || !pure_expr(cond, defined) {
                    return None;
                }
                let cond_c = self.compile_expr(cond);
                let mut lane = LaneCost::default();
                cexpr_lane(&cond_c, &mut lane);
                lane.compute += 1; // branch decision
                let mut rc = RegionCost {
                    lane,
                    loads: lane.loads,
                    ..RegionCost::default()
                };
                let (nodes, brc) = if fold {
                    rc.taken = 1;
                    let r = self.fast_block(then_body, defined)?;
                    self.next_id += block_stmt_count(else_body);
                    r
                } else {
                    rc.not_taken = 1;
                    self.next_id += block_stmt_count(then_body);
                    self.fast_block(else_body, defined)?
                };
                rc.seq(brc);
                Some((nodes, rc))
            }
            Stmt::For(l) => {
                let b = self.bounds?;
                let tb = b.trips.get(&sid)?;
                if !tb.exact {
                    return None;
                }
                let trips = tb.min;
                let lc = b.loop_consts.get(&sid).copied()?;
                let tinfo = self.taint?.loop_bounds.get(&sid)?;
                if lc.step < 1
                    || tinfo.dep != Dependence::Const
                    || !pure_expr(&l.lo, defined)
                    || !pure_expr(&l.hi, defined)
                    || !pure_expr(&l.step, defined)
                {
                    return None;
                }
                let var_slot = self.slot_of(&l.var);
                let mut bdef = defined.clone();
                bdef.insert(l.var.clone());
                let (body_nodes, brc) = self.fast_block(&l.body, &mut bdef)?;
                if trips >= 1 {
                    *defined = bdef;
                }
                // Per-entry cost, replicating the interpreter's group-of-
                // `factor` lane retirement with identical per-iteration lanes.
                let lo_c = self.compile_expr(&l.lo);
                let step_c = self.compile_expr(&l.step);
                let mut bound_lane = LaneCost::default();
                cexpr_lane(&lo_c, &mut bound_lane);
                cexpr_lane(&step_c, &mut bound_lane);
                let factor = unroll_factor(l.pragma, self.hw);
                let overhead = group_overhead(l.pragma);
                let mut cycles = bound_lane.cycles(self.hw);
                if trips > 0 {
                    let full = trips / factor;
                    let rem = trips % factor;
                    if full > 0 {
                        let g = parallel_cycles(&vec![brc.lane; factor as usize], self.hw)
                            .saturating_add(overhead);
                        cycles = cycles.saturating_add(full.saturating_mul(g));
                    }
                    if rem > 0 {
                        let g = parallel_cycles(&vec![brc.lane; rem as usize], self.hw)
                            .saturating_add(overhead);
                        cycles = cycles.saturating_add(g);
                    }
                    cycles = cycles.saturating_add(trips.saturating_mul(brc.nested));
                }
                let rc = RegionCost {
                    lane: LaneCost::default(),
                    nested: cycles,
                    loads: bound_lane
                        .loads
                        .saturating_add(trips.saturating_mul(brc.loads)),
                    stores: trips.saturating_mul(brc.stores),
                    taken: trips.saturating_mul(brc.taken),
                    not_taken: trips.saturating_mul(brc.not_taken),
                    iters: trips.saturating_add(trips.saturating_mul(brc.iters)),
                };
                Some((
                    vec![FNode::Loop {
                        var: var_slot,
                        lo: lc.lo,
                        step: lc.step,
                        trips,
                        body: body_nodes,
                    }],
                    rc,
                ))
            }
        }
    }

    fn fast_block(
        &mut self,
        stmts: &[Stmt],
        defined: &mut BTreeSet<Ident>,
    ) -> Option<(Vec<FNode>, RegionCost)> {
        let mut nodes = Vec::new();
        let mut rc = RegionCost::default();
        for stmt in stmts {
            let (n, r) = self.try_fast(stmt, defined)?;
            nodes.extend(n);
            rc.seq(r);
        }
        Some((nodes, rc))
    }

    fn compile_slow(&mut self, stmt: &Stmt, defined: &mut BTreeSet<Ident>) -> CNode {
        self.next_id += 1;
        match stmt {
            Stmt::Assign { dest, value } => {
                let v = self.compile_expr(value);
                let mut lane = LaneCost::default();
                let d = self.compile_dest(dest, defined, &mut lane);
                CNode::Assign { dest: d, value: v }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.compile_expr(cond);
                let mut d1 = defined.clone();
                let then_c = self.compile_block(then_body, &mut d1);
                let mut d2 = defined.clone();
                let else_c = self.compile_block(else_body, &mut d2);
                // Only names assigned on both paths are definitely defined.
                *defined = d1.intersection(&d2).cloned().collect();
                CNode::If {
                    cond: c,
                    then_body: then_c,
                    else_body: else_c,
                }
            }
            Stmt::For(l) => {
                let var_slot = self.slot_of(&l.var);
                let lo = self.compile_expr(&l.lo);
                let hi = self.compile_expr(&l.hi);
                let step = self.compile_expr(&l.step);
                let mut d = defined.clone();
                d.insert(l.var.clone());
                let body = self.compile_block(&l.body, &mut d);
                // Zero trips are possible: body definitions don't escape.
                CNode::For {
                    var: var_slot,
                    var_name: l.var.clone(),
                    lo,
                    hi,
                    step,
                    factor: unroll_factor(l.pragma, self.hw),
                    overhead: group_overhead(l.pragma),
                    body,
                }
            }
        }
    }
}

/// Compiles a program for repeated execution via [`CompiledProgram::run`].
pub fn compile(program: &Program) -> CompiledProgram<'_> {
    let pb = analyze_program_bounds(program);
    let pt = analyze_program_taint(program);
    // Buffer name resolution is data-independent: positions in declaration
    // order, later duplicates winning (as the interpreter's map insert does).
    let mut buffer_index: HashMap<Ident, usize> = HashMap::new();
    for (i, decl) in program.graph.buffers.iter().enumerate() {
        buffer_index.insert(decl.name.clone(), i);
    }
    let mut plans = Vec::new();
    let mut regions = 0usize;
    let mut region_stmts = 0usize;
    let mut total_stmts = 0usize;
    // Both analyses skip invocations of unknown operators, so their reports
    // align with the known-op subsequence of the graph.
    let mut known = 0usize;
    for inv in &program.graph.invocations {
        match program.operator(&inv.op) {
            None => plans.push(Err(SimError::Unbound(inv.op.to_string()))),
            Some(op) => {
                let bounds = pb.invocations.get(known);
                let taint = pt.invocations.get(known);
                known += 1;
                total_stmts += block_stmt_count(&op.body);
                let mut c = OpCompiler {
                    hw: &program.hw,
                    graph_params: &program.graph.params,
                    bounds,
                    taint,
                    arrays: HashMap::new(),
                    slots: HashMap::new(),
                    inits: Vec::new(),
                    next_id: 0,
                    regions: 0,
                    region_stmts: 0,
                };
                plans.push(plan_invocation(op, &inv.args, &buffer_index, &mut c));
                regions += c.regions;
                region_stmts += c.region_stmts;
            }
        }
    }
    let summary = CompileSummary {
        invocations: program.graph.invocations.len(),
        regions,
        region_stmts,
        total_stmts,
        class: pt.class,
    };
    CompiledProgram {
        program,
        plans,
        summary,
    }
}

fn plan_invocation(
    op: &Operator,
    args: &[Arg],
    buffer_index: &HashMap<Ident, usize>,
    c: &mut OpCompiler<'_>,
) -> Result<InvPlan, SimError> {
    // Mirror `bind_frame` exactly: zip-order binding with buffer resolution
    // errors surfacing before the arity check.
    let mut defined: BTreeSet<Ident> = c.graph_params.iter().cloned().collect();
    for (param, arg) in op.params.iter().zip(args) {
        match arg {
            Arg::Buffer(name) => {
                let idx = *buffer_index
                    .get(name)
                    .ok_or_else(|| SimError::Unbound(name.to_string()))?;
                c.arrays.insert(param.name.clone(), idx);
            }
            Arg::Scalar(expr) => {
                let s = c.slot_of(&param.name);
                c.inits[s] = SlotInit::Arg(expr.clone());
                defined.insert(param.name.clone());
            }
        }
    }
    if op.params.len() != args.len() {
        return Err(SimError::Unbound(format!(
            "arity mismatch invoking `{}`",
            op.name
        )));
    }
    let body = c.compile_block(&op.body, &mut defined);
    Ok(InvPlan {
        op: op.name.clone(),
        inits: std::mem::take(&mut c.inits),
        body,
    })
}

impl CompiledProgram<'_> {
    /// What the compiler proved (region coverage, adaptivity class).
    pub fn summary(&self) -> &CompileSummary {
        &self.summary
    }

    /// Runs against input data with default limits.
    ///
    /// # Errors
    ///
    /// Identical to [`crate::simulate`] on the same program and data.
    pub fn run(&self, data: &InputData) -> Result<CycleReport, SimError> {
        self.run_with(data, SimConfig::default())
    }

    /// Runs against input data with explicit limits.
    ///
    /// # Errors
    ///
    /// Identical to [`crate::simulate_with`] on the same program and data.
    pub fn run_with(&self, data: &InputData, config: SimConfig) -> Result<CycleReport, SimError> {
        let state = setup_program(self.program, data)?;
        let mut buffers = state.buffers;
        let geom: Vec<(Vec<i64>, i64)> = buffers
            .iter()
            .map(|t| {
                let dims = t.shape().iter().map(|&d| d as i64).collect();
                (dims, t.len().max(1) as i64)
            })
            .collect();
        let mut stats = ExecStats::default();
        let mut invocations = Vec::new();
        let mut total: u64 = 0;
        for plan in &self.plans {
            let plan = plan.as_ref().map_err(Clone::clone)?;
            let slots: Vec<Option<f64>> = plan
                .inits
                .iter()
                .map(|init| match init {
                    SlotInit::Undef => None,
                    SlotInit::Graph(name) => state.graph_scalars.get(name).copied(),
                    SlotInit::Arg(expr) => Some(eval_graph_expr(expr, &state.graph_scalars)),
                })
                .collect();
            let mut runner = Runner {
                hw: self.program.hw,
                budget: config.max_iterations,
                buffers: &mut buffers,
                geom: &geom,
                stats: &mut stats,
                slots,
            };
            let body = runner.run_block(&plan.body)?;
            let cycles = body.lane.cycles(&self.program.hw) + body.nested + INVOKE_OVERHEAD;
            total += cycles;
            invocations.push(InvocationProfile {
                op: plan.op.clone(),
                cycles,
            });
        }
        // Move each final buffer into the report. `buffer_index` keeps the
        // later of two same-named declarations, so an earlier duplicate
        // reads a slot its twin moves out further on: it gets a copy.
        let mut buffers: Vec<Option<Tensor>> = buffers.into_iter().map(Some).collect();
        let out: Vec<(Ident, Tensor)> = self
            .program
            .graph
            .buffers
            .iter()
            .enumerate()
            .filter_map(|(i, decl)| {
                let idx = state.buffer_index[&decl.name];
                let tensor = if idx == i {
                    buffers[i].take()
                } else {
                    buffers[idx].clone()
                };
                tensor.map(|t| (decl.name.clone(), t))
            })
            .collect();
        Ok(CycleReport {
            total_cycles: total,
            invocations,
            stats,
            buffers: out,
        })
    }
}

/// Simulates through the region compiler with default limits.
///
/// # Errors
///
/// Identical to [`crate::simulate`] on the same inputs.
pub fn simulate_compiled(program: &Program, data: &InputData) -> Result<CycleReport, SimError> {
    compile(program).run(data)
}

/// Simulates through the region compiler with explicit limits.
///
/// # Errors
///
/// Identical to [`crate::simulate_with`] on the same inputs.
pub fn simulate_compiled_with(
    program: &Program,
    data: &InputData,
    config: SimConfig,
) -> Result<CycleReport, SimError> {
    compile(program).run_with(data, config)
}

#[derive(Debug, Clone, Copy, Default)]
struct RBody {
    lane: LaneCost,
    nested: u64,
}

impl RBody {
    fn seq(&mut self, o: RBody) {
        self.lane.sequential(o.lane);
        self.nested += o.nested;
    }
}

struct Runner<'a> {
    hw: HardwareParams,
    budget: u64,
    buffers: &'a mut Vec<Tensor>,
    /// Per-buffer `(dims, len.max(1))` snapshot: shapes never change during
    /// a run (`Tensor::set` writes in place), and fetching them from the
    /// tensor on every access would put a heap allocation in the hot loop.
    geom: &'a [(Vec<i64>, i64)],
    stats: &'a mut ExecStats,
    slots: Vec<Option<f64>>,
}

impl Runner<'_> {
    fn run_block(&mut self, nodes: &[CNode]) -> Result<RBody, SimError> {
        let mut cost = RBody::default();
        for n in nodes {
            cost.seq(self.run_node(n)?);
        }
        Ok(cost)
    }

    fn run_node(&mut self, node: &CNode) -> Result<RBody, SimError> {
        match node {
            CNode::Assign { dest, value } => {
                let mut lane = LaneCost::default();
                let v = self.ieval(value, &mut lane);
                self.iassign(dest, v, &mut lane);
                Ok(RBody { lane, nested: 0 })
            }
            CNode::If {
                cond,
                then_body,
                else_body,
            } => {
                let mut lane = LaneCost::default();
                let c = self.ieval(cond, &mut lane);
                lane.compute += 1; // branch decision
                let mut cost = RBody { lane, nested: 0 };
                if c != 0.0 {
                    self.stats.branches_taken += 1;
                    cost.seq(self.run_block(then_body)?);
                } else {
                    self.stats.branches_not_taken += 1;
                    cost.seq(self.run_block(else_body)?);
                }
                Ok(cost)
            }
            CNode::For {
                var,
                var_name,
                lo,
                hi,
                step,
                factor,
                overhead,
                body,
            } => {
                let hw = self.hw;
                let mut bound_lane = LaneCost::default();
                let lo_v = self.ieval(lo, &mut bound_lane) as i64;
                let step_v = self.ieval(step, &mut bound_lane) as i64;
                if step_v <= 0 {
                    return Err(SimError::BadStep(var_name.to_string()));
                }
                let mut cycles: u64 = bound_lane.cycles(&hw);
                let mut i = lo_v;
                let mut lanes: Vec<LaneCost> = Vec::with_capacity(*factor as usize);
                let mut nested: u64 = 0;
                loop {
                    // Re-evaluate the bound each iteration (C semantics).
                    let mut hi_lane = LaneCost::default();
                    let hi_v = self.ieval(hi, &mut hi_lane) as i64;
                    if i >= hi_v {
                        break;
                    }
                    self.stats.iterations += 1;
                    if self.stats.iterations > self.budget {
                        return Err(SimError::BudgetExceeded {
                            budget: self.budget,
                        });
                    }
                    self.slots[*var] = Some(i as f64);
                    let b = self.run_block(body)?;
                    lanes.push(b.lane);
                    nested += b.nested;
                    if lanes.len() as u64 == *factor {
                        cycles += parallel_cycles(&lanes, &hw) + overhead;
                        lanes.clear();
                    }
                    i += step_v;
                }
                if !lanes.is_empty() {
                    cycles += parallel_cycles(&lanes, &hw) + overhead;
                }
                cycles += nested;
                Ok(RBody {
                    lane: LaneCost::default(),
                    nested: cycles,
                })
            }
            CNode::Region(r) => {
                if r.delta.iters > 0 {
                    self.stats.iterations = self.stats.iterations.saturating_add(r.delta.iters);
                    if self.stats.iterations > self.budget {
                        return Err(SimError::BudgetExceeded {
                            budget: self.budget,
                        });
                    }
                }
                for n in &r.nodes {
                    self.fexec(n);
                }
                self.stats.loads += r.delta.loads;
                self.stats.stores += r.delta.stores;
                self.stats.branches_taken += r.delta.taken;
                self.stats.branches_not_taken += r.delta.not_taken;
                Ok(RBody {
                    lane: r.delta.lane,
                    nested: r.delta.nested,
                })
            }
        }
    }

    // ---- interpreted path: full lane + stats accounting ----

    fn iflat(&mut self, buf: usize, indices: &[CExpr], lane: &mut LaneCost) -> usize {
        let mut flat: i64 = 0;
        for (k, idx) in indices.iter().enumerate() {
            let v = self.ieval(idx, lane) as i64;
            let dim = self.geom[buf].0.get(k).copied().unwrap_or(1);
            flat = flat * dim + v;
            // Index arithmetic is address-generation work.
            lane.compute += u64::from(k > 0);
        }
        if flat < 0 {
            self.stats.wrapped_accesses += 1;
            flat = flat.rem_euclid(self.geom[buf].1);
        }
        flat as usize
    }

    fn iassign(&mut self, dest: &CDest, v: f64, lane: &mut LaneCost) {
        match dest {
            CDest::Slot(s) => {
                self.slots[*s] = Some(v);
            }
            CDest::Store {
                buf: Some(buf),
                indices,
            } => {
                let idx = self.iflat(*buf, indices, lane);
                let wrapped = idx % self.geom[*buf].1 as usize;
                if wrapped != idx {
                    self.stats.wrapped_accesses += 1;
                }
                self.buffers[*buf].set(wrapped, v);
                lane.stores += 1;
                self.stats.stores += 1;
            }
            CDest::Store { buf: None, .. } => {
                lane.stores += 1;
                self.stats.stores += 1;
            }
        }
    }

    fn ieval(&mut self, e: &CExpr, lane: &mut LaneCost) -> f64 {
        match e {
            CExpr::Const(v) => *v,
            CExpr::Slot(s) => match self.slots[*s] {
                Some(v) => v,
                None => {
                    self.stats.undefined_reads += 1;
                    0.0
                }
            },
            CExpr::Load {
                buf: Some(buf),
                indices,
            } => {
                let idx = self.iflat(*buf, indices, lane);
                lane.loads += 1;
                self.stats.loads += 1;
                let wrapped = idx % self.geom[*buf].1 as usize;
                if wrapped != idx {
                    self.stats.wrapped_accesses += 1;
                }
                self.buffers[*buf].get(wrapped).unwrap_or(0.0)
            }
            CExpr::Load { buf: None, .. } => {
                lane.loads += 1;
                self.stats.loads += 1;
                self.stats.undefined_reads += 1;
                0.0
            }
            CExpr::Binary { op, lat, lhs, rhs } => {
                let a = self.ieval(lhs, lane);
                let b = self.ieval(rhs, lane);
                lane.compute += lat;
                apply_binop(*op, a, b, self.stats)
            }
            CExpr::Unary { op, lat, operand } => {
                let v = self.ieval(operand, lane);
                lane.compute += lat;
                match op {
                    UnOp::Neg => -v,
                    UnOp::Not => f64::from(v == 0.0),
                }
            }
            CExpr::Call { func, lat, args } => {
                let vals: Vec<f64> = args.iter().map(|a| self.ieval(a, lane)).collect();
                lane.compute += lat;
                apply_intrinsic(*func, &vals)
            }
        }
    }

    // ---- fast path: data effects only; loads/stores/branches/iterations
    // are bulk-retired from the region's pre-computed delta ----

    fn fexec(&mut self, node: &FNode) {
        match node {
            FNode::Assign { dest, value } => {
                let v = self.feval(value);
                self.fassign(dest, v);
            }
            FNode::Loop {
                var,
                lo,
                step,
                trips,
                body,
            } => {
                let mut i = *lo;
                for _ in 0..*trips {
                    self.slots[*var] = Some(i as f64);
                    for n in body {
                        self.fexec(n);
                    }
                    i = i.wrapping_add(*step);
                }
            }
        }
    }

    fn fflat(&mut self, buf: usize, indices: &[CExpr]) -> usize {
        let mut flat: i64 = 0;
        for (k, idx) in indices.iter().enumerate() {
            let v = self.feval(idx) as i64;
            let dim = self.geom[buf].0.get(k).copied().unwrap_or(1);
            flat = flat * dim + v;
        }
        if flat < 0 {
            self.stats.wrapped_accesses += 1;
            flat = flat.rem_euclid(self.geom[buf].1);
        }
        flat as usize
    }

    fn fassign(&mut self, dest: &CDest, v: f64) {
        match dest {
            CDest::Slot(s) => {
                self.slots[*s] = Some(v);
            }
            CDest::Store {
                buf: Some(buf),
                indices,
            } => {
                let idx = self.fflat(*buf, indices);
                let wrapped = idx % self.geom[*buf].1 as usize;
                if wrapped != idx {
                    self.stats.wrapped_accesses += 1;
                }
                self.buffers[*buf].set(wrapped, v);
            }
            CDest::Store { buf: None, .. } => {}
        }
    }

    fn feval(&mut self, e: &CExpr) -> f64 {
        match e {
            CExpr::Const(v) => *v,
            CExpr::Slot(s) => match self.slots[*s] {
                Some(v) => v,
                None => {
                    self.stats.undefined_reads += 1;
                    0.0
                }
            },
            CExpr::Load {
                buf: Some(buf),
                indices,
            } => {
                let idx = self.fflat(*buf, indices);
                let wrapped = idx % self.geom[*buf].1 as usize;
                if wrapped != idx {
                    self.stats.wrapped_accesses += 1;
                }
                self.buffers[*buf].get(wrapped).unwrap_or(0.0)
            }
            CExpr::Load { buf: None, .. } => {
                self.stats.undefined_reads += 1;
                0.0
            }
            CExpr::Binary { op, lhs, rhs, .. } => {
                let a = self.feval(lhs);
                let b = self.feval(rhs);
                apply_binop(*op, a, b, self.stats)
            }
            CExpr::Unary { op, operand, .. } => {
                let v = self.feval(operand);
                match op {
                    UnOp::Neg => -v,
                    UnOp::Not => f64::from(v == 0.0),
                }
            }
            CExpr::Call { func, args, .. } => {
                let vals: Vec<f64> = args.iter().map(|a| self.feval(a)).collect();
                apply_intrinsic(*func, &vals)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, simulate_with};
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{Dim, ForLoop, LoopPragma};

    fn assert_identical(p: &Program, data: &InputData) {
        let interp = simulate(p, data);
        let comp = simulate_compiled(p, data);
        assert_eq!(interp, comp);
    }

    fn scale_op(n: usize) -> Program {
        let op = OperatorBuilder::new("scale")
            .array_param("a", [n])
            .array_param("b", [n])
            .loop_nest(&[("i", n)], |idx| {
                vec![Stmt::assign(
                    LValue::store("b", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) * Expr::int(2),
                )]
            })
            .build();
        Program::single_op(op)
    }

    #[test]
    fn static_loop_becomes_one_region() {
        let p = scale_op(16);
        let c = compile(&p);
        assert_eq!(c.summary().regions, 1);
        assert_eq!(c.summary().region_stmts, 2);
        assert_eq!(c.summary().total_stmts, 2);
        assert!(c.summary().class.is_static());
        assert!((c.summary().coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bit_identical_on_static_program() {
        let p = scale_op(16);
        let data = InputData::new().with("buf_a", Tensor::from_fn(vec![16], |i| i as f64));
        assert_identical(&p, &data);
    }

    #[test]
    fn duplicate_buffer_names_report_the_later_slot_twice() {
        // Both same-named declarations read the later one's slot: the
        // earlier entry is a copy, the later one the moved buffer.
        let mut p = scale_op(16);
        let dup = p.graph.buffers[1].clone();
        p.graph.buffers.insert(0, dup);
        let data = InputData::new().with("buf_a", Tensor::from_fn(vec![16], |i| i as f64));
        assert_identical(&p, &data);
        let report = simulate_compiled(&p, &data).expect("runs");
        assert_eq!(report.buffers.len(), 3);
        assert_eq!(report.buffers[0], report.buffers[2]);
        assert_eq!(report.buffers[2].1.get(3), Some(6.0));
    }

    #[test]
    fn bit_identical_on_dynamic_bound() {
        let op = OperatorBuilder::new("dyn")
            .array_param("a", [256])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    idx[0].clone(),
                )]
            })
            .build();
        let p = Program::single_op(op);
        let c = compile(&p);
        // The data-dependent loop itself stays interpreted; only its body
        // assign folds into a (re-entered) region.
        assert_eq!(c.summary().regions, 1);
        assert_eq!(c.summary().region_stmts, 1);
        assert!(!c.summary().class.is_static());
        // ...but execution still matches exactly, for several inputs.
        for n in [0i64, 1, 7, 64] {
            assert_identical(&p, &InputData::new().with("n", n));
        }
    }

    #[test]
    fn bit_identical_on_data_branch() {
        let op = OperatorBuilder::new("cond")
            .array_param("a", [32])
            .array_param("b", [32])
            .loop_nest(&[("i", 32)], |idx| {
                vec![Stmt::if_then(
                    Expr::binary(
                        BinOp::Gt,
                        Expr::load("a", vec![idx[0].clone()]),
                        Expr::int(0),
                    ),
                    vec![Stmt::assign(
                        LValue::store("b", vec![idx[0].clone()]),
                        Expr::call(Intrinsic::Exp, vec![Expr::load("a", vec![idx[0].clone()])]),
                    )],
                )]
            })
            .build();
        let p = Program::single_op(op);
        for bias in [-1.0, 0.0, 1.0] {
            let data = InputData::new().with(
                "buf_a",
                Tensor::from_fn(vec![32], |i| (i % 3) as f64 - 1.0 + bias),
            );
            assert_identical(&p, &data);
        }
    }

    #[test]
    fn bit_identical_with_unrolled_pragma() {
        let op = OperatorBuilder::new("unrolled")
            .array_param("a", [64])
            .array_param("b", [64])
            .loop_nest_with_pragma(&[("i", 64)], LoopPragma::Unroll(4), |idx| {
                vec![Stmt::assign(
                    LValue::store("b", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
                )]
            })
            .build();
        let p = Program::single_op(op);
        let c = compile(&p);
        assert_eq!(c.summary().regions, 1);
        let data = InputData::new().with("buf_a", Tensor::from_fn(vec![64], |i| (i % 5) as f64));
        assert_identical(&p, &data);
    }

    #[test]
    fn bit_identical_on_wrapping_and_div_by_zero() {
        // Negative store index (wraps) and a data-dependent division: the
        // region compiler must keep these statistics live on the fast path.
        let op = OperatorBuilder::new("weird")
            .array_param("a", [8])
            .array_param("b", [8])
            .loop_nest(&[("i", 8)], |idx| {
                vec![Stmt::assign(
                    LValue::store("b", vec![idx[0].clone() - Expr::int(3)]),
                    Expr::binary(
                        BinOp::Div,
                        Expr::int(10),
                        Expr::load("a", vec![idx[0].clone()]),
                    ),
                )]
            })
            .build();
        let p = Program::single_op(op);
        let c = compile(&p);
        assert_eq!(c.summary().regions, 1, "control is static");
        let data = InputData::new().with("buf_a", Tensor::from_fn(vec![8], |i| (i % 2) as f64));
        assert_identical(&p, &data);
    }

    #[test]
    fn errors_match_interpreter() {
        // Unknown operator.
        let mut p = scale_op(8);
        p.graph.invocations[0].op = "missing_op".into();
        assert_eq!(
            simulate_compiled(&p, &InputData::new()),
            simulate(&p, &InputData::new())
        );
        // Unknown buffer argument.
        let mut p = scale_op(8);
        p.graph.invocations[0].args[0] = Arg::Buffer("missing_buf".into());
        assert_eq!(
            simulate_compiled(&p, &InputData::new()),
            simulate(&p, &InputData::new())
        );
        // Arity mismatch.
        let mut p = scale_op(8);
        p.graph.invocations[0].args.pop();
        assert_eq!(
            simulate_compiled(&p, &InputData::new()),
            simulate(&p, &InputData::new())
        );
        // Missing symbolic buffer dimension.
        let mut p = scale_op(8);
        p.graph.buffers[0].dims = vec![Dim::Sym("phantom".into())];
        assert_eq!(
            simulate_compiled(&p, &InputData::new()),
            simulate(&p, &InputData::new())
        );
        // Bad step.
        let mut p = scale_op(8);
        let body = std::mem::take(&mut p.operators[0].body);
        p.operators[0].body = vec![Stmt::For(ForLoop {
            var: "i".into(),
            lo: Expr::int(0),
            hi: Expr::int(8),
            step: Expr::int(0),
            pragma: LoopPragma::None,
            body,
        })];
        assert_eq!(
            simulate_compiled(&p, &InputData::new()),
            simulate(&p, &InputData::new())
        );
    }

    #[test]
    fn budget_errors_match_even_when_bulk_retired() {
        let p = scale_op(64); // 64 iterations, all in one region
        let tight = SimConfig { max_iterations: 63 };
        let loose = SimConfig { max_iterations: 64 };
        assert_eq!(
            simulate_compiled_with(&p, &InputData::new(), tight),
            simulate_with(&p, &InputData::new(), tight),
        );
        assert!(matches!(
            simulate_compiled_with(&p, &InputData::new(), tight),
            Err(SimError::BudgetExceeded { budget: 63 })
        ));
        assert_eq!(
            simulate_compiled_with(&p, &InputData::new(), loose),
            simulate_with(&p, &InputData::new(), loose),
        );
    }

    #[test]
    fn mixed_static_and_dynamic_nesting() {
        // Dynamic outer loop with a constant inner loop: the inner nest
        // compiles to a region re-entered per outer iteration.
        let op = OperatorBuilder::new("mixed")
            .array_param("a", [128])
            .scalar_param("n")
            .dyn_loop_nest(&[("i", Expr::var("n"))], |idx| {
                let i = idx[0].clone();
                vec![Stmt::For(ForLoop {
                    var: "j".into(),
                    lo: Expr::int(0),
                    hi: Expr::int(8),
                    step: Expr::int(1),
                    pragma: LoopPragma::None,
                    body: vec![Stmt::assign(
                        LValue::store("a", vec![i.clone() * Expr::int(8) + Expr::var("j")]),
                        Expr::var("j") + i.clone(),
                    )],
                })]
            })
            .build();
        let p = Program::single_op(op);
        let c = compile(&p);
        assert_eq!(c.summary().regions, 1);
        for n in [0i64, 3, 16] {
            assert_identical(&p, &InputData::new().with("n", n));
        }
    }

    #[test]
    fn zero_trip_region_loop_keeps_induction_var_undefined() {
        // for i in 0..0 {} then read `i`: the interpreter counts an
        // undefined read; the compiled engine must too.
        let op = OperatorBuilder::new("zero")
            .array_param("out", [1])
            .stmt(Stmt::For(ForLoop {
                var: "i".into(),
                lo: Expr::int(0),
                hi: Expr::int(0),
                step: Expr::int(1),
                pragma: LoopPragma::None,
                body: vec![],
            }))
            .stmt(Stmt::assign(
                LValue::store("out", vec![Expr::int(0)]),
                Expr::var("i"),
            ))
            .build();
        let p = Program::single_op(op);
        let interp = simulate(&p, &InputData::new()).expect("interprets");
        assert_eq!(interp.stats.undefined_reads, 1);
        assert_identical(&p, &InputData::new());
    }

    #[test]
    fn compiled_engine_drops_hash_lookups_from_hot_loop() {
        // Not a wall-clock benchmark (bench-runner measures that); just show
        // full coverage of a large Class-I nest while staying bit-identical.
        let op = OperatorBuilder::new("gemm")
            .array_param("a", [24, 24])
            .array_param("b", [24, 24])
            .array_param("c", [24, 24])
            .loop_nest(&[("i", 24), ("j", 24), ("k", 24)], |idx| {
                let (i, j, k) = (idx[0].clone(), idx[1].clone(), idx[2].clone());
                vec![Stmt::accumulate(
                    "c",
                    vec![i.clone(), j.clone()],
                    Expr::load("a", vec![i, k.clone()]) * Expr::load("b", vec![k, j]),
                )]
            })
            .build();
        let p = Program::single_op(op);
        let c = compile(&p);
        assert!((c.summary().coverage() - 1.0).abs() < 1e-12);
        let data = InputData::new()
            .with("buf_a", Tensor::from_fn(vec![24, 24], |i| (i % 7) as f64))
            .with("buf_b", Tensor::from_fn(vec![24, 24], |i| (i % 5) as f64));
        assert_identical(&p, &data);
    }
}
