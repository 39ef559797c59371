//! # llmulator-workloads
//!
//! The evaluation workloads from LLMulator (MICRO 2025):
//!
//! * [`polybench`] — the ten Polybench kernels of Tables 3/4/11,
//! * [`modern`] — the fourteen image-processing and NLP workloads of
//!   Table 2 (operator graphs with input-adaptive control flow),
//! * [`accelerators`] — TPU v1 / Eyeriss / ShiDianNao GEMM loop-schedule
//!   variants (Sec. 7.4),
//! * [`mod@stats`] — Table 2 statistics (text lengths, op counts, dynamic
//!   parameter counts),
//! * [`ops`] — the reusable operator constructor library behind them.
//!
//! ```
//! use llmulator_workloads::polybench;
//!
//! let kernels = polybench::all();
//! assert_eq!(kernels.len(), 10);
//! let report = llmulator_sim::simulate(&kernels[1].program, &kernels[1].inputs)?;
//! assert!(report.total_cycles > 0);
//! # Ok::<(), llmulator_sim::SimError>(())
//! ```

pub mod accelerators;
pub mod modern;
pub mod ops;
pub mod polybench;
pub mod stats;
pub mod workload;

pub use stats::{program_stats, stats, WorkloadStats};
pub use workload::Workload;

#[cfg(test)]
mod tests {
    /// Every evaluation workload must stay clean under the static lint
    /// pass: the suite is the ground-truth corpus, and a kernel with dead
    /// stores or unreachable code would skew every MAPE table built on it.
    ///
    /// One advisory rule is exempt: `control-only-input-bound` fires on the
    /// time-stepped Polybench kernels because `tsteps` only scales loop trip
    /// counts — which is *intentional* there (the dynamic scalar that makes
    /// them input-adaptive, Table 11), so the corpus asserts the rule fires
    /// rather than silencing the kernels.
    #[test]
    fn every_workload_is_lint_clean() {
        let mut all = crate::polybench::all();
        all.extend(crate::modern::all());
        all.extend(crate::accelerators::all());
        assert!(!all.is_empty());
        let mut cost_only_bounds = 0usize;
        for w in &all {
            let report = llmulator_ir::lint_program(&w.program);
            let (expected, unexpected): (Vec<_>, Vec<_>) = report
                .lints
                .into_iter()
                .partition(|l| l.rule == llmulator_ir::LintRule::ControlOnlyInputBound);
            cost_only_bounds += expected.len();
            assert!(
                unexpected.is_empty(),
                "workload `{}` has lints: {:#?}",
                w.name,
                unexpected
            );
        }
        // The taint-backed rule must keep seeing the intentional cost-only
        // `tsteps` bounds in the time-loop kernels.
        assert!(
            cost_only_bounds >= 1,
            "expected at least one control-only-input-bound finding in the corpus"
        );
    }
}
