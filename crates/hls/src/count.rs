//! Operation census: walks an operator body and counts datapath operations
//! per functional-unit kind, tracking loop weights (trip-count products) and
//! spatial replication (unroll/parallel factors).

use crate::cells::{binop_fu, intrinsic_fu, FuKind};
use llmulator_ir::{Expr, ForLoop, HardwareParams, LoopPragma, Operator, Stmt};
use std::collections::BTreeMap;

/// Default trip-count estimate for loops whose bounds are input-dependent.
/// (Static metrics must exist before inputs do; the simulator computes the
/// exact dynamic counts.)
pub const DYNAMIC_TRIP_ESTIMATE: u64 = 16;

/// Census of one operator body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpCensus {
    /// Per-kind *static* op instance counts after spatial replication
    /// (one entry per op site × its replication factor). Drives allocation.
    pub replicated_sites: BTreeMap<FuKind, u64>,
    /// Per-kind dynamic op counts weighted by estimated trip counts.
    /// Drives activity/energy estimation.
    pub weighted_ops: BTreeMap<FuKind, f64>,
    /// Loop counter register bits (sum of ceil(log2(bound)) per loop).
    pub counter_bits: u64,
    /// Number of loops in the body.
    pub loop_count: u64,
    /// Number of branch (if) sites.
    pub branch_count: u64,
    /// Estimated total innermost iterations (for utilization estimates).
    pub est_iterations: f64,
}

impl OpCensus {
    /// Total replicated op sites across kinds.
    pub fn total_sites(&self) -> u64 {
        self.replicated_sites.values().sum()
    }
}

/// Walks `op` and produces its census under `hw` (which caps replication).
pub fn census(op: &Operator, hw: &HardwareParams) -> OpCensus {
    let mut out = OpCensus::default();
    for stmt in &op.body {
        walk_stmt(stmt, 1.0, 1, hw, &mut out);
    }
    out
}

fn trip_estimate(l: &ForLoop) -> u64 {
    l.const_trip_count()
        .map(|t| t.max(0) as u64)
        .unwrap_or(DYNAMIC_TRIP_ESTIMATE)
}

fn replication_factor(l: &ForLoop, hw: &HardwareParams) -> u64 {
    let trip = trip_estimate(l).max(1);
    match l.pragma {
        LoopPragma::None => 1,
        LoopPragma::UnrollFull => trip.min(hw.max_unroll_width as u64),
        LoopPragma::Unroll(k) => (k as u64).min(trip).min(hw.max_unroll_width as u64).max(1),
        LoopPragma::ParallelFor => (hw.parallel_lanes as u64).min(trip).max(1),
    }
}

fn walk_stmt(stmt: &Stmt, weight: f64, repl: u64, hw: &HardwareParams, out: &mut OpCensus) {
    match stmt {
        Stmt::Assign { dest, value } => {
            count_expr(value, weight, repl, out);
            if dest.writes_memory() {
                bump(out, FuKind::Store, weight, repl);
                if let llmulator_ir::LValue::Store { indices, .. } = dest {
                    for idx in indices {
                        count_expr(idx, weight, repl, out);
                    }
                }
            }
        }
        Stmt::For(l) => {
            let trip = trip_estimate(l).max(1);
            let factor = replication_factor(l, hw);
            // Bound expressions are evaluated once per iteration of the
            // *enclosing* region.
            count_expr(&l.lo, weight, repl, out);
            count_expr(&l.hi, weight * trip as f64, repl, out);
            // Loop counter: one adder op per iteration plus its register.
            bump_weighted(out, FuKind::AddSub, weight * trip as f64);
            out.counter_bits += 64 - (trip.max(1)).leading_zeros() as u64;
            out.loop_count += 1;
            let inner_weight = weight * (trip as f64 / factor as f64).max(1.0);
            let inner_repl = repl.saturating_mul(factor);
            let mut innermost = true;
            for s in &l.body {
                if matches!(s, Stmt::For(_)) {
                    innermost = false;
                }
                walk_stmt(s, inner_weight, inner_repl, hw, out);
            }
            if innermost {
                out.est_iterations += inner_weight;
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            out.branch_count += 1;
            count_expr(cond, weight, repl, out);
            // Statically both sides exist in hardware; weight each by an
            // agnostic 50% activity estimate.
            for s in then_body {
                walk_stmt(s, weight * 0.5, repl, hw, out);
            }
            for s in else_body {
                walk_stmt(s, weight * 0.5, repl, hw, out);
            }
        }
    }
}

fn bump(out: &mut OpCensus, kind: FuKind, weight: f64, repl: u64) {
    *out.replicated_sites.entry(kind).or_insert(0) += repl;
    *out.weighted_ops.entry(kind).or_insert(0.0) += weight * repl as f64;
}

fn bump_weighted(out: &mut OpCensus, kind: FuKind, weight: f64) {
    out.replicated_sites.entry(kind).or_insert(0);
    *out.weighted_ops.entry(kind).or_insert(0.0) += weight;
}

fn count_expr(expr: &Expr, weight: f64, repl: u64, out: &mut OpCensus) {
    match expr {
        Expr::IntConst(_) | Expr::FloatConst(_) | Expr::Var(_) => {}
        Expr::Load { indices, .. } => {
            bump(out, FuKind::Load, weight, repl);
            for idx in indices {
                count_expr(idx, weight, repl, out);
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            bump(out, binop_fu(*op), weight, repl);
            count_expr(lhs, weight, repl, out);
            count_expr(rhs, weight, repl, out);
        }
        Expr::Unary { operand, .. } => {
            bump(out, FuKind::Logic, weight, repl);
            count_expr(operand, weight, repl, out);
        }
        Expr::Call { func, args } => {
            bump(out, intrinsic_fu(*func), weight, repl);
            for a in args {
                count_expr(a, weight, repl, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{LValue, LoopPragma};

    fn gemm(n: usize) -> Operator {
        OperatorBuilder::new("gemm")
            .array_param("a", [n, n])
            .array_param("b", [n, n])
            .array_param("c", [n, n])
            .loop_nest(&[("i", n), ("j", n), ("k", n)], |idx| {
                vec![Stmt::accumulate(
                    "c",
                    vec![idx[0].clone(), idx[1].clone()],
                    Expr::load("a", vec![idx[0].clone(), idx[2].clone()])
                        * Expr::load("b", vec![idx[2].clone(), idx[1].clone()]),
                )]
            })
            .build()
    }

    #[test]
    fn gemm_census_scales_cubically() {
        let hw = HardwareParams::default();
        let small = census(&gemm(4), &hw);
        let large = census(&gemm(8), &hw);
        let small_mul = small.weighted_ops[&FuKind::Mul];
        let large_mul = large.weighted_ops[&FuKind::Mul];
        assert!((large_mul / small_mul - 8.0).abs() < 0.01, "8x mul work");
    }

    #[test]
    fn unroll_replicates_sites_not_weight() {
        let hw = HardwareParams::default();
        let plain = OperatorBuilder::new("k")
            .array_param("a", [8])
            .loop_nest(&[("i", 8)], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
                )]
            })
            .build();
        let unrolled = OperatorBuilder::new("k")
            .array_param("a", [8])
            .loop_nest_with_pragma(&[("i", 8)], LoopPragma::UnrollFull, |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
                )]
            })
            .build();
        let cp = census(&plain, &hw);
        let cu = census(&unrolled, &hw);
        assert_eq!(cp.replicated_sites[&FuKind::AddSub], 1);
        assert_eq!(cu.replicated_sites[&FuKind::AddSub], 8);
        // Total dynamic work is the same.
        let wp = cp.weighted_ops[&FuKind::AddSub];
        let wu = cu.weighted_ops[&FuKind::AddSub];
        assert!((wp - wu).abs() < 1e-9, "{wp} vs {wu}");
    }

    #[test]
    fn dynamic_bounds_use_estimate() {
        let hw = HardwareParams::default();
        let op = OperatorBuilder::new("dynloop")
            .scalar_param("n")
            .array_param("a", [64])
            .dyn_loop_nest(&[("i", Expr::var("n"))], |idx| {
                vec![Stmt::assign(
                    LValue::store("a", vec![idx[0].clone()]),
                    Expr::int(0),
                )]
            })
            .build();
        let c = census(&op, &hw);
        assert!((c.est_iterations - DYNAMIC_TRIP_ESTIMATE as f64).abs() < 1e-9);
    }

    #[test]
    fn branches_halve_activity() {
        let hw = HardwareParams::default();
        let op = OperatorBuilder::new("branchy")
            .array_param("a", [4])
            .loop_nest(&[("i", 4)], |idx| {
                vec![Stmt::if_then(
                    Expr::binary(
                        llmulator_ir::BinOp::Gt,
                        Expr::load("a", vec![idx[0].clone()]),
                        Expr::int(0),
                    ),
                    vec![Stmt::assign(
                        LValue::store("a", vec![idx[0].clone()]),
                        Expr::int(1),
                    )],
                )]
            })
            .build();
        let c = census(&op, &hw);
        assert_eq!(c.branch_count, 1);
        // Store runs at 50% of the 4 iterations → weight 2.
        assert!((c.weighted_ops[&FuKind::Store] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn counter_bits_grow_with_bounds() {
        let hw = HardwareParams::default();
        let small = census(&gemm(4), &hw);
        let large = census(&gemm(64), &hw);
        assert!(large.counter_bits > small.counter_bits);
    }
}
