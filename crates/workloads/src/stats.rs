//! Table 2 workload statistics: text lengths, operator counts and dynamic
//! control-flow parameter counts.

use crate::workload::Workload;
use llmulator_ir::{analyze_operator_taint, AdaptivityClass, Program};
use serde::{Deserialize, Serialize};

/// One Table 2 row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Workload name.
    pub name: String,
    /// Character count of the full model input ("All Len").
    pub all_len: usize,
    /// Character count of the dataflow graph program ("Graph Len").
    pub graph_len: usize,
    /// Number of operators in the dataflow graph ("Op Num").
    pub op_num: usize,
    /// Number of dynamic control-flow-related parameters ("Dyn. Num").
    pub dyn_num: usize,
    /// Character count of the operator definitions ("Op Len").
    pub op_len: usize,
}

/// Computes the Table 2 statistics for a workload.
pub fn stats(workload: &Workload) -> WorkloadStats {
    program_stats(&workload.name, &workload.program)
}

/// Computes the Table 2 statistics for any program.
///
/// "Dyn. Num" sums over the graph's invocations: each counts the scalar
/// inputs that reach its operator's control-flow sinks, plus one when that
/// control flow reads tensor contents. Operators are analyzed per
/// definition, unseeded; invocations of unknown operators count zero.
pub fn program_stats(name: &str, program: &Program) -> WorkloadStats {
    let dyn_num = program
        .graph
        .invocations
        .iter()
        .filter_map(|inv| program.operator(&inv.op))
        .map(|op| {
            let t = analyze_operator_taint(op);
            t.sink_params().len() + usize::from(t.class == AdaptivityClass::DataAdaptive)
        })
        .sum();
    WorkloadStats {
        name: name.to_string(),
        all_len: program.render().chars().count(),
        graph_len: program.render_graph().chars().count(),
        op_num: program.graph.op_count(),
        dyn_num,
        op_len: program.render_operators().chars().count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modern;

    #[test]
    fn lengths_decompose_sensibly() {
        for w in modern::all() {
            let s = stats(&w);
            assert!(s.all_len >= s.graph_len + s.op_len, "{}", s.name);
            assert!(s.graph_len > 0 && s.op_len > 0, "{}", s.name);
            assert!(s.op_num > 0, "{}", s.name);
        }
    }

    #[test]
    fn dynamic_counts_nonzero_for_modern_workloads() {
        for w in modern::all() {
            let s = stats(&w);
            assert!(s.dyn_num >= 1, "{} has dynamic control flow", s.name);
        }
    }

    #[test]
    fn dyn_num_is_pinned_per_workload() {
        let pins: [(Vec<Workload>, &[usize]); 3] = [
            (crate::polybench::all(), &[1, 0, 0, 0, 0, 0, 1, 1, 1, 1]),
            (modern::all(), &[2, 2, 2, 4, 3, 2, 2, 1, 2, 1, 1, 1, 1, 1]),
            (crate::accelerators::all(), &[0, 0, 0]),
        ];
        for (suite, expect) in pins {
            assert_eq!(suite.len(), expect.len());
            for (w, &n) in suite.iter().zip(expect) {
                assert_eq!(stats(w).dyn_num, n, "{}", w.name);
            }
        }
    }

    #[test]
    fn t5_is_the_largest_nlp_workload() {
        let all = modern::all();
        let t5 = stats(&all[11]);
        assert_eq!(t5.name, "Tab. 2-12");
        let max_ops = all.iter().map(|w| stats(w).op_num).max().expect("rows");
        assert_eq!(t5.op_num, max_ops, "T5 has the most operators (21)");
    }
}
