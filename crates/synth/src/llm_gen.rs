//! LLM-style diversification (paper Sec. 6.1, third stage).
//!
//! The paper prompts an LLM to produce semantic-preserving variants of seed
//! dataflow programs ("replacing 3×3 convolutions with 5×5 depthwise
//! variants", restructuring loops, …). We reproduce the *distributional*
//! role of that stage with a grammar-level mutation engine: each mutation is
//! a transformation a code-rewriting LLM plausibly produces, applied
//! deterministically from a seeded RNG (see DESIGN.md substitution table).

use llmulator_ir::{Expr, ForLoop, LoopPragma, Operator, Program, Stmt};
use rand::rngs::StdRng;
use rand::Rng;

/// The mutation kinds the engine can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Swap two adjacent nesting levels (loop interchange).
    LoopInterchange,
    /// Toggle/replace the outer loop's mapping pragma.
    PragmaMutation,
    /// Duplicate the innermost statement (manual unroll step).
    StatementDuplication,
    /// Double or halve an innermost constant loop bound (kernel-size swap).
    BoundScaling,
    /// Wrap the innermost statement in an input-dependent branch.
    BranchInjection,
}

impl Mutation {
    /// All mutations, in a stable order.
    pub fn all() -> &'static [Mutation] {
        &[
            Mutation::LoopInterchange,
            Mutation::PragmaMutation,
            Mutation::StatementDuplication,
            Mutation::BoundScaling,
            Mutation::BranchInjection,
        ]
    }
}

/// Applies one random mutation to a random operator of the program.
/// Returns the mutation used, or `None` when no site was applicable.
pub fn mutate(program: &mut Program, rng: &mut StdRng) -> Option<Mutation> {
    if program.operators.is_empty() {
        return None;
    }
    let op_idx = rng.gen_range(0..program.operators.len());
    let all = Mutation::all();
    // Try a few mutation kinds until one applies.
    for _ in 0..all.len() {
        let m = all[rng.gen_range(0..all.len())];
        if apply(&mut program.operators[op_idx], m, rng) {
            return Some(m);
        }
    }
    None
}

fn apply(op: &mut Operator, mutation: Mutation, rng: &mut StdRng) -> bool {
    match mutation {
        Mutation::LoopInterchange => interchange(&mut op.body),
        Mutation::PragmaMutation => {
            if let Some(l) = first_loop(&mut op.body) {
                l.pragma = match l.pragma {
                    LoopPragma::None => LoopPragma::UnrollFull,
                    LoopPragma::UnrollFull => LoopPragma::ParallelFor,
                    LoopPragma::ParallelFor => LoopPragma::Unroll(rng.gen_range(2..=8)),
                    LoopPragma::Unroll(_) => LoopPragma::None,
                };
                true
            } else {
                false
            }
        }
        Mutation::StatementDuplication => duplicate_innermost(&mut op.body),
        Mutation::BoundScaling => scale_bound(&mut op.body, rng),
        Mutation::BranchInjection => inject_branch(&mut op.body),
    }
}

fn first_loop(block: &mut [Stmt]) -> Option<&mut ForLoop> {
    for stmt in block {
        if let Stmt::For(l) = stmt {
            return Some(l);
        }
    }
    None
}

/// Swaps the variables+bounds of the outermost loop and its first nested
/// loop; bodies stay in place, so indexing expressions see the same variable
/// names with swapped extents — a loop interchange.
fn interchange(block: &mut [Stmt]) -> bool {
    for stmt in block {
        if let Stmt::For(outer) = stmt {
            // find a directly nested loop
            let inner_pos = outer.body.iter().position(|s| matches!(s, Stmt::For(_)));
            if let Some(pos) = inner_pos {
                if let Stmt::For(inner) = &mut outer.body[pos] {
                    std::mem::swap(&mut outer.var, &mut inner.var);
                    std::mem::swap(&mut outer.lo, &mut inner.lo);
                    std::mem::swap(&mut outer.hi, &mut inner.hi);
                    std::mem::swap(&mut outer.step, &mut inner.step);
                    return true;
                }
            }
        }
    }
    false
}

fn innermost_body(block: &mut Vec<Stmt>) -> &mut Vec<Stmt> {
    // Walk to the deepest loop body along the first-loop spine.
    let has_loop = block.iter().any(|s| matches!(s, Stmt::For(_)));
    if !has_loop {
        return block;
    }
    for stmt in block.iter_mut() {
        if let Stmt::For(l) = stmt {
            return innermost_body(&mut l.body);
        }
    }
    unreachable!("loop presence checked above")
}

fn duplicate_innermost(block: &mut Vec<Stmt>) -> bool {
    let body = innermost_body(block);
    if let Some(first) = body.first().cloned() {
        if matches!(first, Stmt::Assign { .. }) {
            body.push(first);
            return true;
        }
    }
    false
}

fn scale_bound(block: &mut [Stmt], rng: &mut StdRng) -> bool {
    // Find the deepest loop along the first-loop spine and scale its
    // constant bound.
    fn deepest(block: &mut [Stmt]) -> Option<&mut ForLoop> {
        let pos = block.iter().position(|s| matches!(s, Stmt::For(_)))?;
        let Stmt::For(l) = &mut block[pos] else {
            unreachable!("position matched a loop");
        };
        if l.body.iter().any(|s| matches!(s, Stmt::For(_))) {
            deepest(&mut l.body)
        } else {
            Some(l)
        }
    }
    if let Some(l) = deepest(block) {
        if let Expr::IntConst(b) = l.hi {
            let scaled = if rng.gen_bool(0.5) {
                (b * 2).min(96)
            } else {
                (b / 2).max(1)
            };
            l.hi = Expr::int(scaled);
            return true;
        }
    }
    false
}

fn inject_branch(block: &mut Vec<Stmt>) -> bool {
    let body = innermost_body(block);
    if body.is_empty() || matches!(body[0], Stmt::If { .. }) {
        return false;
    }
    // Guard on the first loaded value of the first statement, if any.
    let guard = match &body[0] {
        Stmt::Assign { value, .. } if value.reads_memory() => {
            first_load(value).map(|l| Expr::binary(llmulator_ir::BinOp::Gt, l, Expr::int(0)))
        }
        _ => None,
    };
    match guard {
        Some(cond) => {
            let inner = std::mem::take(body);
            body.push(Stmt::If {
                cond,
                then_body: inner,
                else_body: Vec::new(),
            });
            true
        }
        None => false,
    }
}

fn first_load(expr: &Expr) -> Option<Expr> {
    match expr {
        Expr::Load { .. } => Some(expr.clone()),
        Expr::Binary { lhs, rhs, .. } => first_load(lhs).or_else(|| first_load(rhs)),
        Expr::Unary { operand, .. } => first_load(operand),
        Expr::Call { args, .. } => args.iter().find_map(first_load),
        _ => None,
    }
}

/// Produces `count` mutated variants of a seed program.
pub fn variants(seed: &Program, count: usize, rng: &mut StdRng) -> Vec<Program> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut v = seed.clone();
        // 1–3 stacked mutations per variant.
        let layers = rng.gen_range(1..=3);
        let mut applied = false;
        for _ in 0..layers {
            applied |= mutate(&mut v, rng).is_some();
        }
        if applied && v.validate().is_ok() {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow_gen::{instantiate, Template, TemplateParams};
    use rand::SeedableRng;

    fn seed_program() -> Program {
        Program::single_op(instantiate(
            Template::Gemm,
            "g",
            TemplateParams {
                n: 8,
                k: 4,
                step: 1,
                pragma: LoopPragma::None,
            },
        ))
    }

    #[test]
    fn variants_differ_from_seed_and_simulate() {
        let mut rng = StdRng::seed_from_u64(1);
        let seed = seed_program();
        let vs = variants(&seed, 8, &mut rng);
        assert!(!vs.is_empty());
        for v in &vs {
            v.validate().expect("valid variant");
            let data = llmulator_ir::InputData::new();
            llmulator_sim::simulate(v, &data).expect("variant simulates");
        }
        assert!(vs.iter().any(|v| v != &seed), "at least one real change");
    }

    #[test]
    fn interchange_swaps_bounds() {
        let mut p = seed_program();
        let before = p.render();
        assert!(apply(
            &mut p.operators[0],
            Mutation::LoopInterchange,
            &mut StdRng::seed_from_u64(0)
        ));
        assert_ne!(p.render(), before);
        p.validate().expect("still valid");
    }

    #[test]
    fn pragma_mutation_cycles() {
        let mut p = seed_program();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(apply(
            &mut p.operators[0],
            Mutation::PragmaMutation,
            &mut rng
        ));
        match &p.operators[0].body[0] {
            Stmt::For(l) => assert_eq!(l.pragma, LoopPragma::UnrollFull),
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn bound_scaling_changes_trip_count() {
        let mut p = seed_program();
        let before = llmulator_sim::simulate(&p, &llmulator_ir::InputData::new())
            .expect("before")
            .total_cycles;
        let mut rng = StdRng::seed_from_u64(1);
        assert!(apply(&mut p.operators[0], Mutation::BoundScaling, &mut rng));
        let after = llmulator_sim::simulate(&p, &llmulator_ir::InputData::new())
            .expect("after")
            .total_cycles;
        assert_ne!(before, after);
    }

    #[test]
    fn branch_injection_adds_control_flow() {
        let mut p = seed_program();
        let before = p.operators[0].stmt_count();
        assert!(inject_branch(&mut p.operators[0].body));
        assert!(p.operators[0].stmt_count() > before);
        // Now the operator is Class II (value-dependent branch).
        let report = llmulator_ir::analyze_operator_taint(&p.operators[0]);
        assert_eq!(report.class, llmulator_ir::AdaptivityClass::DataAdaptive);
    }
}
