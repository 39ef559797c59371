//! Subcommand implementations for the `llmulator` CLI.
//!
//! `train` and `eval` drive the paper's headline loop from the shell:
//! cached dataset synthesis → predictor fitting → model persistence → MAPE
//! tables against the baselines. Ground truth is memoized through
//! [`DatasetCache`] (datasets keyed by synthesis config, simulator profiles
//! keyed by `(program, inputs)`), so a second run of either command skips
//! re-profiling entirely.

use llmulator::{
    CacheStats, CostModel, DatasetCache, DigitCodec, Error, ModelScale, NumericPredictor,
    PredictorConfig, Sample, TrainOptions,
};
use llmulator_baselines::{Gnnhls, TensetMlp, Timeloop, Tlp};
use llmulator_eval::{try_mape_on, Table};
use llmulator_ir::{
    analyze_operator_taint, analyze_program_bounds, lint_program, operator_classes,
    AdaptivityClass, Cfg, InputData, OperatorBounds, Program, Severity,
};
use llmulator_sim::Metric;
use llmulator_synth::{synthesize_cached, DataFormat, SynthesisConfig};
use llmulator_token::NumericMode;
use llmulator_workloads::{accelerators, modern, polybench, Workload};
use std::fmt::Write;
use std::path::PathBuf;

/// `profile`: run the HLS + cycle-simulation substrate and print the cost
/// vector plus the RTL-level `<think>` features.
pub fn profile(program: &Program, data: &InputData) -> Result<String, Error> {
    let profile = llmulator_sim::profile(program, data).map_err(Error::from)?;
    let mut out = String::new();
    let _ = writeln!(out, "power  : {:.3} mW", profile.cost.power_mw);
    let _ = writeln!(out, "area   : {:.0} um^2", profile.cost.area_um2);
    let _ = writeln!(out, "ff     : {}", profile.cost.ff);
    let _ = writeln!(out, "cycles : {}", profile.cost.cycles);
    let _ = writeln!(out, "loads  : {}", profile.cycles.stats.loads);
    let _ = writeln!(out, "stores : {}", profile.cycles.stats.stores);
    let _ = writeln!(
        out,
        "branches: {} taken / {} not taken",
        profile.cycles.stats.branches_taken, profile.cycles.stats.branches_not_taken
    );
    let _ = writeln!(out, "\n{}", profile.features.render_think());
    Ok(out)
}

/// `stats`: Table 2 style statistics for a program.
pub fn stats(program: &Program) -> Result<String, Error> {
    let s = llmulator_workloads::program_stats("", program);
    let mut out = String::new();
    let _ = writeln!(out, "All Len   : {}", s.all_len);
    let _ = writeln!(out, "Graph Len : {}", s.graph_len);
    let _ = writeln!(out, "Op Num    : {}", s.op_num);
    let _ = writeln!(out, "Dyn. Num  : {}", s.dyn_num);
    let _ = writeln!(out, "Op Len    : {}", s.op_len);
    Ok(out)
}

/// `classify`: per-operator Class I/II report.
pub fn classify(program: &Program) -> Result<String, Error> {
    let mut out = String::new();
    for op in &program.operators {
        let t = analyze_operator_taint(op);
        let class = if t.class.is_static() {
            "Class I  (input-independent control flow)"
        } else {
            "Class II (input-dependent control flow)"
        };
        let _ = writeln!(out, "{:<24} {class}", op.name.to_string());
        let params = t.sink_params();
        if !params.is_empty() {
            let names: Vec<String> = params.iter().map(|p| p.to_string()).collect();
            let _ = writeln!(out, "{:<24}   dynamic params: {}", "", names.join(", "));
        }
        if t.class == AdaptivityClass::DataAdaptive {
            let _ = writeln!(out, "{:<24}   value-dependent control flow", "");
        }
    }
    Ok(out)
}

/// `normalize`: run the normalization pass and print the rewritten text.
pub fn normalize(mut program: Program) -> Result<String, Error> {
    let rewrites = llmulator_ir::normalize_program(&mut program);
    let mut out = String::new();
    let _ = writeln!(out, "// {rewrites} rewrites applied");
    out.push_str(&program.render());
    Ok(out)
}

/// `analyze --suite`: run the static-analysis report over a workload suite.
pub fn analyze_suite(suite: &str, limit: usize, json: bool) -> Result<String, Error> {
    let workloads = suite_workloads(suite, limit)?;
    analyze(
        workloads
            .into_iter()
            .map(|w| (w.name.clone(), w.program))
            .collect(),
        json,
    )
}

/// `analyze`: CFG statistics, static trip/count/cycle bounds and lints for
/// each program, ending with a one-line summary (`analyzed N programs, E
/// lint errors, W lint warnings`) that smoke tests grep for.
pub fn analyze(programs: Vec<(String, Program)>, json: bool) -> Result<String, Error> {
    let mut out = String::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (name, program) in &programs {
        let bounds = analyze_program_bounds(program);
        let cycles = llmulator_sim::program_cycle_bounds(program, &bounds);
        let report = lint_program(program);
        errors += report.error_count();
        warnings += report.warning_count();
        let classes: Vec<&str> = operator_classes(program)
            .iter()
            .map(|c| if c.is_static() { "Class I" } else { "Class II" })
            .collect();
        let taint = llmulator_ir::analyze_program_taint(program);
        let taint_of = |op: &llmulator_ir::Ident| taint.invocations.iter().find(|t| &t.op == op);
        if json {
            let ops: Vec<serde_json::Value> = program
                .operators
                .iter()
                .zip(&classes)
                .map(|(op, class)| {
                    let cfg = Cfg::build(op);
                    serde_json::json!({
                        "name": op.name.to_string(),
                        "class": class,
                        "taint": taint_of(&op.name)
                            .map(taint_json)
                            .unwrap_or(serde_json::Value::Null),
                        "blocks": cfg.blocks.len(),
                        "edges": cfg.edge_count(),
                        "loops": cfg.natural_loops().len(),
                    })
                })
                .collect();
            let invocations: Vec<serde_json::Value> = bounds
                .invocations
                .iter()
                .zip(&cycles.invocations)
                .map(|(ob, cb)| {
                    serde_json::json!({
                        "op": ob.op.to_string(),
                        "cycles": { "min": cb.min, "max": json_opt(cb.max) },
                        "trips": ob.trips.iter().map(|(id, t)| {
                            serde_json::json!({
                                "stmt": id, "min": t.min, "max": json_opt(t.max),
                                "exact": t.exact,
                            })
                        }).collect::<Vec<_>>(),
                    })
                })
                .collect();
            let line = serde_json::json!({
                "program": name,
                "adaptivity": taint.class.name(),
                "operators": ops,
                "invocations": invocations,
                "totals": {
                    "cycles": { "min": cycles.total.min, "max": json_opt(cycles.total.max) },
                    "iterations": { "min": bounds.iterations.lo, "max": json_opt(bounds.iterations.hi) },
                    "loads": { "min": bounds.loads.lo, "max": json_opt(bounds.loads.hi) },
                    "stores": { "min": bounds.stores.lo, "max": json_opt(bounds.stores.hi) },
                    "branches": { "min": bounds.branches.lo, "max": json_opt(bounds.branches.hi) },
                },
                "lints": report.lints,
            });
            let _ = writeln!(out, "{line}");
        } else {
            let _ = writeln!(out, "== {name} ==");
            let _ = writeln!(out, "adaptivity: {}", taint.class.name());
            for (op, class) in program.operators.iter().zip(&classes) {
                let cfg = Cfg::build(op);
                let _ = writeln!(
                    out,
                    "operator {:<16}: {class}, {}, {} blocks, {} edges, {} loops",
                    op.name.to_string(),
                    taint_of(&op.name)
                        .map(|t| t.class.name())
                        .unwrap_or("unanalyzed"),
                    cfg.blocks.len(),
                    cfg.edge_count(),
                    cfg.natural_loops().len(),
                );
                if let Some(t) = taint_of(&op.name) {
                    for (id, info) in &t.loop_bounds {
                        if info.dep != llmulator_ir::Dependence::Const {
                            let _ = writeln!(
                                out,
                                "taint : loop @{id} bound is {} ({})",
                                info.dep.name(),
                                params_summary(&info.params),
                            );
                        }
                    }
                    for (id, info) in &t.branch_conds {
                        if info.dep != llmulator_ir::Dependence::Const {
                            let _ = writeln!(
                                out,
                                "taint : branch @{id} condition is {} ({})",
                                info.dep.name(),
                                params_summary(&info.params),
                            );
                        }
                    }
                }
            }
            for (ob, cb) in bounds.invocations.iter().zip(&cycles.invocations) {
                let _ = writeln!(
                    out,
                    "invoke {:<18}: cycles {cb}, trips {}",
                    ob.op.to_string(),
                    trips_summary(ob),
                );
            }
            let _ = writeln!(
                out,
                "totals: cycles {}, iterations {}, loads {}, stores {}, branches {}",
                cycles.total, bounds.iterations, bounds.loads, bounds.stores, bounds.branches,
            );
            if report.lints.is_empty() {
                let _ = writeln!(out, "lints : clean");
            } else {
                for l in &report.lints {
                    let sev = match l.severity {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    };
                    let at = l.stmt.map(|s| format!(" stmt {s}")).unwrap_or_default();
                    let _ = writeln!(
                        out,
                        "lint  : {sev} {} @ {}{at}: {}",
                        l.rule.name(),
                        l.op,
                        l.message
                    );
                }
            }
        }
    }
    if json {
        let line = serde_json::json!({
            "analyzed": programs.len(),
            "lint_errors": errors,
            "lint_warnings": warnings,
        });
        let _ = writeln!(out, "{line}");
    } else {
        let _ = writeln!(
            out,
            "analyzed {} programs, {errors} lint errors, {warnings} lint warnings",
            programs.len()
        );
    }
    Ok(out)
}

/// Optional upper bound as plain number-or-null. The vendored serde wraps
/// `Some(n)` in a one-element array for lossless round-trips; wire output
/// wants the conventional shape instead.
fn json_opt(v: Option<u64>) -> serde_json::Value {
    match v {
        Some(n) => serde_json::json!(n),
        None => serde_json::Value::Null,
    }
}

/// One operator's taint verdict for `analyze --json`: adaptivity class plus
/// every non-`Const` control sink with the input names that taint it.
fn taint_json(t: &llmulator_ir::OperatorTaint) -> serde_json::Value {
    let sinks = |m: &std::collections::BTreeMap<usize, llmulator_ir::TaintInfo>| {
        m.iter()
            .filter(|(_, info)| info.dep != llmulator_ir::Dependence::Const)
            .map(|(id, info)| {
                serde_json::json!({
                    "stmt": id,
                    "dep": info.dep.name(),
                    "params": info.params.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
                })
            })
            .collect::<Vec<_>>()
    };
    serde_json::json!({
        "adaptivity": t.class.name(),
        "dynamic_loop_bounds": sinks(&t.loop_bounds),
        "dynamic_branches": sinks(&t.branch_conds),
    })
}

/// Comma-joined input names behind a taint verdict (`-` when none are
/// attributed, e.g. a pure data dependence through an unattributed load).
fn params_summary(params: &std::collections::BTreeSet<llmulator_ir::Ident>) -> String {
    if params.is_empty() {
        return "-".to_string();
    }
    params
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders an operator's per-loop trip bounds as `@id [lo, hi]` pairs
/// (`*` marks a compile-time-exact count).
fn trips_summary(ob: &OperatorBounds) -> String {
    if ob.trips.is_empty() {
        return "none".to_string();
    }
    ob.trips
        .iter()
        .map(|(id, t)| format!("@{id} {}{}", t.interval(), if t.exact { "*" } else { "" }))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `synthesize`: generate labelled samples and print them as JSON lines.
pub fn synthesize(count: usize, seed: u64, format: &str) -> Result<String, Error> {
    let fmt = match format {
        "direct" => llmulator_synth::DataFormat::Direct,
        "reasoning" => llmulator_synth::DataFormat::Reasoning,
        other => return Err(Error::InvalidArgument(format!("unknown format `{other}`"))),
    };
    let mut config = llmulator_synth::SynthesisConfig::paper_mix(count, seed);
    config.format = fmt;
    let (dataset, stats) = llmulator_synth::synthesize_with_stats(&config);
    let mut out = String::new();
    for s in &dataset.samples {
        let line = serde_json::json!({
            "cost": {
                "power_mw": s.cost.power_mw,
                "area_um2": s.cost.area_um2,
                "ff": s.cost.ff,
                "cycles": s.cost.cycles,
            },
            "chars": s.text.char_len(),
            "operators": s.program.operators.len(),
        });
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(
        out,
        "// {} samples, {} rejected by lint, {} failed to profile",
        dataset.len(),
        stats.rejected_by_lint,
        stats.failed_to_profile
    );
    let _ = writeln!(out, "// class mix: {}", class_mix_summary(stats.class_mix));
    Ok(out)
}

/// Renders an adaptivity-class mix (`[static, shape-adaptive,
/// data-adaptive]` counts) as the one-line summary `train`/`synthesize`
/// print.
fn class_mix_summary(mix: [usize; 3]) -> String {
    format!(
        "{} static, {} shape-adaptive, {} data-adaptive",
        mix[0], mix[1], mix[2]
    )
}

/// Arguments for `llmulator train`.
#[derive(Debug, Clone)]
pub struct TrainArgs {
    /// Synthetic samples in the paper-mix training set.
    pub samples: usize,
    /// RNG seed for synthesis and model init.
    pub seed: u64,
    /// Data format (direct or reasoning).
    pub format: DataFormat,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Gradient-accumulation worker threads.
    pub threads: usize,
    /// Model capacity tier.
    pub scale: ModelScale,
    /// Context length in tokens.
    pub max_len: usize,
    /// Cache root for datasets and profiles.
    pub cache_dir: PathBuf,
    /// Where to save the trained model.
    pub out: PathBuf,
}

/// Arguments for `llmulator eval`.
#[derive(Debug, Clone)]
pub struct EvalArgs {
    /// Trained model file (from `llmulator train`).
    pub model: PathBuf,
    /// Workload suite (`polybench`/`modern`/`accelerators`/`all`) or a
    /// single workload name (e.g. `atax`).
    pub suite: String,
    /// Cap on the number of workloads (0 = no cap).
    pub limit: usize,
    /// Also train and evaluate the TLP/GNNHLS/Tenset/Timeloop baselines.
    pub baselines: bool,
    /// Data format the model was trained with.
    pub format: DataFormat,
    /// Synthesis volume for baseline training (must match `train` to reuse
    /// the cached dataset).
    pub samples: usize,
    /// Synthesis/baseline seed (must match `train` to reuse the cache).
    pub seed: u64,
    /// Baseline training epochs.
    pub epochs: usize,
    /// Baseline mini-batch size.
    pub batch: usize,
    /// Baseline training threads.
    pub threads: usize,
    /// Cache root for datasets and profiles.
    pub cache_dir: PathBuf,
}

/// Evaluation input-scale factors (mirrors the experiment harness; unseen
/// during training, whose neighbourhood uses ±50% factors).
const EVAL_FACTORS: &[f64] = &[0.9, 1.0, 1.1];

fn train_options(epochs: usize, batch: usize, threads: usize) -> TrainOptions {
    TrainOptions {
        epochs,
        batch_size: batch.max(1),
        lr: 3e-3,
        threads: threads.max(1),
    }
}

fn synthesis_config(samples: usize, seed: u64, format: DataFormat) -> SynthesisConfig {
    let mut config = SynthesisConfig::paper_mix(samples, seed);
    config.format = format;
    config
}

fn cache_line(hit: bool, path: &std::path::Path) -> String {
    format!(
        "dataset cache : {} {}\n",
        if hit { "hit" } else { "miss" },
        path.display()
    )
}

/// `train`: synthesize (or load from cache) the labelled dataset, fit the
/// numeric predictor, and save it atomically to `--out`.
pub fn train(a: &TrainArgs) -> Result<String, Error> {
    let config = synthesis_config(a.samples, a.seed, a.format);
    let cache = DatasetCache::new(&a.cache_dir);
    let (dataset, hit) = synthesize_cached(&config, &cache)
        .map_err(|e| Error::from(e).context("dataset cache failed"))?;
    if dataset.is_empty() {
        return Err(Error::InvalidArgument(
            "synthesis produced no samples (try a larger --samples)".into(),
        ));
    }
    let mut model = NumericPredictor::new(PredictorConfig {
        scale: a.scale,
        codec: DigitCodec::standard(),
        numeric_mode: NumericMode::Digits,
        max_len: a.max_len,
        seed: a.seed,
    });
    let curve = model.fit(&dataset, train_options(a.epochs, a.batch, a.threads));
    model
        .save(&a.out)
        .map_err(|e| Error::from(e).context(format!("cannot save model `{}`", a.out.display())))?;

    let mut out = String::new();
    out.push_str(&cache_line(
        hit,
        &cache.dataset_path(&llmulator_synth::cache_key(&config)),
    ));
    let _ = writeln!(out, "samples       : {}", dataset.len());
    let _ = writeln!(
        out,
        "class mix     : {}",
        class_mix_summary(llmulator_synth::class_mix(&dataset))
    );
    let _ = writeln!(out, "params        : {}", model.param_count());
    if let (Some(first), Some(last)) = (curve.first(), curve.last()) {
        let _ = writeln!(
            out,
            "loss          : {first:.4} -> {last:.4} over {} epochs",
            curve.len()
        );
    }
    let _ = writeln!(out, "model         : {}", a.out.display());
    Ok(out)
}

/// Resolves `--suite`: a named suite, `all`, or a single workload name.
fn suite_workloads(suite: &str, limit: usize) -> Result<Vec<Workload>, Error> {
    let mut ws = match suite {
        "polybench" => polybench::all(),
        "modern" => modern::all(),
        "accelerators" => accelerators::all(),
        "all" => {
            let mut v = polybench::all();
            v.extend(modern::all());
            v.extend(accelerators::all());
            v
        }
        name => {
            let mut v = polybench::all();
            v.extend(modern::all());
            v.extend(accelerators::all());
            v.retain(|w| w.name == name);
            if v.is_empty() {
                return Err(Error::InvalidArgument(format!(
                    "unknown suite `{name}` (expected polybench|modern|accelerators|all or a workload name)"
                )));
            }
            v
        }
    };
    if limit > 0 && ws.len() > limit {
        ws.truncate(limit);
    }
    Ok(ws)
}

/// `eval`: load a trained model, profile the evaluation workloads through
/// the profile cache (a second run re-simulates nothing), and render one
/// MAPE table per metric — optionally against freshly fitted baselines.
pub fn eval(a: &EvalArgs) -> Result<String, Error> {
    let model = NumericPredictor::load(&a.model).map_err(|e| {
        Error::from(e).context(format!(
            "cannot load model `{}` (run `llmulator train` first)",
            a.model.display()
        ))
    })?;
    let model_params = model.param_count();
    let cache = DatasetCache::new(&a.cache_dir);
    let workloads = suite_workloads(&a.suite, a.limit)?;
    let with_think = a.format == DataFormat::Reasoning;

    // Ground truth for every (workload, input scale), memoized on disk.
    // Simulation failures are counted and reported, never silently dropped:
    // a MAPE table over partial coverage must say so.
    let mut stats = CacheStats::default();
    let mut skipped: Vec<String> = Vec::new();
    let mut suites: Vec<(String, Vec<Sample>)> = Vec::new();
    for w in &workloads {
        let mut samples = Vec::with_capacity(EVAL_FACTORS.len());
        for &f in EVAL_FACTORS {
            let data = w.scaled_inputs(f);
            match cache.profile_or_compute(&w.program, &data, &mut stats) {
                Ok(p) => samples.push(Sample::from_profile(
                    &w.program,
                    Some(&data),
                    &p,
                    with_think,
                )),
                Err(e) => skipped.push(format!("{} @ {f}: {e}", w.name)),
            }
        }
        if !samples.is_empty() {
            suites.push((w.name.clone(), samples));
        }
    }
    if suites.is_empty() {
        return Err(Error::InvalidRequest(
            "no evaluation workloads produced samples".into(),
        ));
    }

    // The model roster: ours, plus baselines fitted on the cached dataset.
    let mut dataset_line = None;
    let mut models: Vec<(&str, Box<dyn CostModel>)> = vec![("Ours", Box::new(model))];
    if a.baselines {
        let config = synthesis_config(a.samples, a.seed, a.format);
        let (train_ds, hit) = synthesize_cached(&config, &cache)
            .map_err(|e| Error::from(e).context("dataset cache failed"))?;
        if train_ds.is_empty() {
            return Err(Error::InvalidArgument(
                "baseline training dataset is empty (try a larger --samples; it must match the \
                 value passed to `train` to reuse its cache)"
                    .into(),
            ));
        }
        dataset_line = Some(cache_line(
            hit,
            &cache.dataset_path(&llmulator_synth::cache_key(&config)),
        ));
        // The `fit_paper` constructors encode the same protocol the bench
        // harness uses (seed offsets, epoch multipliers), so CLI columns
        // match the bench-regenerated tables.
        let opts = train_options(a.epochs, a.batch, a.threads);
        models.push(("TLP", Box::new(Tlp::fit_paper(&train_ds, opts, a.seed))));
        models.push((
            "GNNHLS",
            Box::new(Gnnhls::fit_paper(&train_ds, opts, a.seed)),
        ));
        models.push((
            "Tenset",
            Box::new(TensetMlp::fit_paper(&train_ds, opts, a.seed)),
        ));
        models.push(("Timeloop", Box::new(Timeloop)));
    }

    // One fixed-width MAPE table per metric, matching the paper's layout.
    let mut out = String::new();
    for &metric in Metric::all() {
        let mut table = Table::new(format!("MAPE ({})", metric.label()));
        let mut header = vec!["Benchmark".to_string()];
        header.extend(models.iter().map(|(n, _)| n.to_string()));
        table.header(header);
        let mut sums = vec![0.0f64; models.len()];
        for (name, samples) in &suites {
            let mut cells = vec![name.clone()];
            for (mi, (_, m)) in models.iter().enumerate() {
                let v = try_mape_on(m.as_ref(), samples, metric)
                    .map_err(|e| e.context(format!("prediction failed on suite `{name}`")))?;
                sums[mi] += v;
                cells.push(Table::pct(v));
            }
            table.row(cells);
        }
        if suites.len() > 1 {
            let mut cells = vec![format!("average({})", suites.len())];
            cells.extend(sums.iter().map(|s| Table::pct(s / suites.len() as f64)));
            table.row(cells);
        }
        out.push_str(&table.render());
        out.push('\n');
    }

    let total: usize = suites.iter().map(|(_, s)| s.len()).sum();
    let _ = writeln!(
        out,
        "model         : {} ({model_params} params)",
        a.model.display()
    );
    let _ = writeln!(
        out,
        "eval samples  : {total} across {} workloads",
        suites.len()
    );
    if !skipped.is_empty() {
        let _ = writeln!(
            out,
            "skipped       : {} sample(s) failed to profile — tables cover the rest",
            skipped.len()
        );
        for s in &skipped {
            let _ = writeln!(out, "  skipped {s}");
        }
    }
    if let Some(line) = dataset_line {
        out.push_str(&line);
    }
    let _ = writeln!(
        out,
        "profile cache : {} hits, {} misses ({})",
        stats.hits,
        stats.misses,
        cache.root().display()
    );
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use llmulator_ir::builder::OperatorBuilder;
    use llmulator_ir::{Expr, LValue, Stmt};

    pub(crate) fn program() -> Program {
        let op = OperatorBuilder::new("scale")
            .array_param("a", [8])
            .array_param("b", [8])
            .loop_nest(&[("i", 8)], |idx| {
                vec![Stmt::assign(
                    LValue::store("b", vec![idx[0].clone()]),
                    Expr::load("a", vec![idx[0].clone()]) * Expr::int(2),
                )]
            })
            .build();
        Program::single_op(op)
    }

    #[test]
    fn profile_reports_all_metrics() {
        let out = profile(&program(), &InputData::new()).expect("profiles");
        for key in ["power", "area", "ff", "cycles", "<think>"] {
            assert!(out.contains(key), "missing {key}");
        }
    }

    #[test]
    fn stats_reports_table2_fields() {
        let out = stats(&program()).expect("stats");
        for key in ["All Len", "Graph Len", "Op Num", "Dyn. Num", "Op Len"] {
            assert!(out.contains(key), "missing {key}");
        }
    }

    #[test]
    fn classify_labels_class_i() {
        let out = classify(&program()).expect("classifies");
        assert!(out.contains("Class I"));
    }

    #[test]
    fn normalize_reports_rewrites() {
        let out = normalize(program()).expect("normalizes");
        assert!(out.contains("rewrites applied"));
        assert!(out.contains("void scale"));
    }

    #[test]
    fn analyze_reports_cfg_bounds_and_summary() {
        let out = analyze(vec![("scale".to_string(), program())], false).expect("analyzes");
        assert!(out.contains("== scale =="), "program header: {out}");
        assert!(out.contains("Class I"), "classification: {out}");
        assert!(out.contains("adaptivity: static"), "taint class: {out}");
        assert!(out.contains("blocks"), "CFG stats: {out}");
        assert!(out.contains("@0 8*"), "exact trip bounds: {out}");
        assert!(out.contains("lints : clean"), "lint-clean program: {out}");
        assert!(
            out.contains("analyzed 1 programs, 0 lint errors, 0 lint warnings"),
            "summary line: {out}"
        );
        // A constant-control-flow program has exact (min == max) cycle
        // bounds, rendered as a single number rather than an interval.
        let totals = out
            .lines()
            .find(|l| l.starts_with("totals:"))
            .expect("totals line");
        assert!(
            !totals.contains("inf"),
            "exact bounds stay finite: {totals}"
        );
    }

    #[test]
    fn analyze_json_mode_emits_parseable_lines() {
        let out = analyze(vec![("scale".to_string(), program())], true).expect("analyzes");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "one program line + one summary: {out}");
        for line in &lines {
            serde_json::parse_value(line).expect("valid JSON");
        }
        assert!(lines[0].contains("\"program\":\"scale\""), "{out}");
        assert!(lines[0].contains("\"class\":\"Class I\""), "{out}");
        assert!(lines[0].contains("\"adaptivity\""), "{out}");
        assert!(lines[0].contains("\"taint\""), "{out}");
        assert!(lines[0].contains("\"trips\""), "{out}");
        // Optional upper bounds render as plain numbers (or null), never as
        // the vendored serde's `[n]` Option encoding.
        assert!(!lines[0].contains("\"max\":["), "{out}");
        assert!(lines[1].contains("\"analyzed\":1"), "{out}");
        assert!(lines[1].contains("\"lint_errors\":0"), "{out}");
    }

    #[test]
    fn analyze_suite_covers_every_workload() {
        let out = analyze_suite("polybench", 3, false).expect("analyzes suite");
        assert!(
            out.contains("analyzed 3 programs,"),
            "all selected workloads analyzed: {out}"
        );
    }

    #[test]
    fn synthesize_emits_json_lines() {
        let out = synthesize(4, 1, "direct").expect("synthesizes");
        assert!(out.lines().any(|l| l.starts_with('{')));
        assert!(out.contains("samples"));
        assert!(out.contains("// class mix:"), "stratification line: {out}");
    }

    #[test]
    fn synthesize_rejects_bad_format() {
        assert!(synthesize(2, 0, "yaml").is_err());
    }

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "llmulator_cli_cmd_test_{}_{}_{n}",
            tag,
            std::process::id()
        ))
    }

    fn tiny_train_args(dir: &std::path::Path) -> TrainArgs {
        TrainArgs {
            samples: 6,
            seed: 5,
            format: DataFormat::Direct,
            epochs: 1,
            batch: 4,
            threads: 1,
            scale: ModelScale::Small,
            max_len: 96,
            cache_dir: dir.join("cache"),
            out: dir.join("model.json"),
        }
    }

    fn tiny_eval_args(dir: &std::path::Path) -> EvalArgs {
        EvalArgs {
            model: dir.join("model.json"),
            suite: "atax".to_string(),
            limit: 0,
            baselines: false,
            format: DataFormat::Direct,
            samples: 6,
            seed: 5,
            epochs: 1,
            batch: 4,
            threads: 1,
            cache_dir: dir.join("cache"),
        }
    }

    /// Lines that carry cache hit/miss bookkeeping (they legitimately differ
    /// between a cold and a warm run); everything else must be byte-equal.
    fn strip_cache_lines(s: &str) -> String {
        s.lines()
            .filter(|l| !l.contains("cache"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn train_then_eval_reuses_the_cache_and_is_deterministic() {
        let dir = unique_dir("pipeline");
        let ta = tiny_train_args(&dir);

        let t1 = train(&ta).expect("first train");
        assert!(
            t1.contains("dataset cache : miss"),
            "cold run synthesizes: {t1}"
        );
        assert!(ta.out.is_file(), "model saved");
        assert!(t1.contains("class mix     :"), "stratification line: {t1}");
        let t2 = train(&ta).expect("second train");
        assert!(t2.contains("dataset cache : hit"), "warm run loads: {t2}");
        assert!(
            t2.contains("class mix     :"),
            "mix recomputed from the cached dataset: {t2}"
        );

        let ea = tiny_eval_args(&dir);
        let e1 = eval(&ea).expect("first eval");
        for key in [
            "MAPE (Power)",
            "MAPE (Area)",
            "MAPE (FF)",
            "MAPE (Cycles)",
            "atax",
            "Ours",
        ] {
            assert!(e1.contains(key), "missing {key} in:\n{e1}");
        }
        assert!(!e1.contains(" 0 misses"), "cold eval must profile: {e1}");

        let e2 = eval(&ea).expect("second eval");
        assert!(
            e2.contains(" 0 misses"),
            "warm eval must not re-profile: {e2}"
        );
        assert_eq!(
            strip_cache_lines(&e1),
            strip_cache_lines(&e2),
            "metrics must be byte-identical across runs"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn eval_with_baselines_renders_all_columns() {
        let dir = unique_dir("baselines");
        let ta = tiny_train_args(&dir);
        train(&ta).expect("train");
        let mut ea = tiny_eval_args(&dir);
        ea.baselines = true;
        let out = eval(&ea).expect("eval");
        for col in ["Ours", "TLP", "GNNHLS", "Tenset", "Timeloop"] {
            assert!(out.contains(col), "missing column {col} in:\n{out}");
        }
        // Baseline fitting reuses the dataset `train` cached.
        assert!(out.contains("dataset cache : hit"), "got:\n{out}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn eval_without_model_explains_the_fix() {
        let dir = unique_dir("nomodel");
        let err = eval(&tiny_eval_args(&dir)).expect_err("no model on disk");
        let chain = err.chain();
        assert!(chain.contains("llmulator train"), "hint present: {chain}");
        assert!(
            chain.contains("caused by:"),
            "exit message carries the source chain: {chain}"
        );
        assert!(
            chain.contains("i/o failed"),
            "root cause is the filesystem error: {chain}"
        );
    }

    #[test]
    fn suite_selection_resolves_names_and_limits() {
        assert_eq!(suite_workloads("polybench", 0).expect("suite").len(), 10);
        assert_eq!(suite_workloads("polybench", 3).expect("suite").len(), 3);
        assert_eq!(suite_workloads("all", 0).expect("suite").len(), 27);
        let single = suite_workloads("atax", 0).expect("workload by name");
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].name, "atax");
        assert!(suite_workloads("not-a-suite", 0).is_err());
    }
}
