//! `llmulator` — command-line front end for the LLMulator reproduction.
//!
//! ```text
//! llmulator profile <program.c> [--input name=value]...   profile ground truth
//! llmulator stats <program.c>                             Table 2 statistics
//! llmulator classify <program.c>                          Class I/II analysis
//! llmulator normalize <program.c>                         normalization pass
//! llmulator analyze <program.c> | --suite S               static analysis
//! llmulator synthesize [--count N] [--seed S]             dataset synthesis
//! llmulator train [--samples N] [--seed S] [--out M]      fit + save a predictor
//! llmulator eval  [--model M] [--suite S] [--baselines]   MAPE tables
//! llmulator serve [--model M] [--tcp ADDR] [--workers W]  JSONL prediction daemon
//! ```
//!
//! Programs use the C-like surface syntax produced by the IR renderer (see
//! `llmulator-ir`); `train`/`eval` drive the full paper loop — cached dataset
//! synthesis, predictor fitting, model persistence and MAPE tables — without
//! writing any Rust (see `commands::train` / `commands::eval`), and `serve`
//! turns the trained model into a long-lived prediction daemon speaking one
//! JSON request/response per line over stdin/stdout (see `serve`).
//!
//! Every failure is a typed [`llmulator::Error`]; exit messages render the
//! full `caused by:` source chain instead of a flattened string.

use llmulator::Error;
use llmulator_ir::{parse, InputData, Program};
use std::path::PathBuf;
use std::process::ExitCode;

mod commands;
mod net;
mod serve;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        // `serve` streams responses incrementally instead of returning one
        // output string, so it owns its stdout loop.
        return serve::run(&args);
    }
    match run(&args) {
        Ok(output) => {
            // Tolerate a closed stdout (`llmulator ... | head` must not
            // panic on EPIPE the way println! does), but report any other
            // write failure — truncated output must not exit 0.
            use std::io::Write;
            match writeln!(std::io::stdout(), "{output}") {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    let _ = writeln!(std::io::stderr(), "error: cannot write output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(error) => {
            use std::io::Write;
            let mut err = std::io::stderr();
            let _ = writeln!(err, "error: {}", error.chain());
            // Usage helps only when the command line itself was at fault;
            // a runtime failure's chain should end the output.
            if error.kind() == "invalid_argument" {
                let _ = writeln!(err, "\n{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  llmulator profile <program.c> [--input name=value]...
  llmulator stats <program.c>
  llmulator classify <program.c>
  llmulator normalize <program.c>
  llmulator analyze <program.c> [--json]
  llmulator analyze --suite polybench|modern|accelerators|all [--limit N] [--json]
  llmulator synthesize [--count N] [--seed S] [--format direct|reasoning]
  llmulator train [--samples N] [--seed S] [--format direct|reasoning]
                  [--epochs E] [--batch B] [--threads T]
                  [--scale small|medium|large] [--max-len L]
                  [--cache-dir DIR] [--out model.json]
  llmulator eval  [--model model.json] [--suite polybench|modern|accelerators|all]
                  [--limit N] [--baselines] [--format direct|reasoning]
                  [--samples N] [--seed S] [--epochs E] [--batch B] [--threads T]
                  [--cache-dir DIR]
  llmulator serve [--model model.json] [--threads T] [--max-batch N]
                  [--tcp ADDR] [--workers W] [--max-queue N]
                  [--default-timeout-ms MS]
                  [--calibrate] [--ab-split PCT] [--checkpoint-every N]";

/// Every flag that consumes the following argv entry as its value. The
/// positional scan skips these values, so `llmulator profile --input n=3
/// prog.c` finds `prog.c` regardless of flag ordering.
const VALUE_FLAGS: &[&str] = &[
    "--input",
    "--count",
    "--seed",
    "--format",
    "--samples",
    "--epochs",
    "--batch",
    "--threads",
    "--scale",
    "--max-len",
    "--cache-dir",
    "--out",
    "--model",
    "--suite",
    "--limit",
    "--max-batch",
    "--tcp",
    "--workers",
    "--max-queue",
    "--default-timeout-ms",
    "--ab-split",
    "--checkpoint-every",
];

/// Flags each subcommand accepts; anything else starting with `--` is an
/// error, so a typo (`--epoch` for `--epochs`) can never be silently
/// ignored. Value-taking entries here must also appear in [`VALUE_FLAGS`]
/// so the positional scan skips their values.
const TRAIN_FLAGS: &[&str] = &[
    "--samples",
    "--seed",
    "--format",
    "--epochs",
    "--batch",
    "--threads",
    "--scale",
    "--max-len",
    "--cache-dir",
    "--out",
];
const EVAL_FLAGS: &[&str] = &[
    "--model",
    "--suite",
    "--limit",
    "--baselines",
    "--format",
    "--samples",
    "--seed",
    "--epochs",
    "--batch",
    "--threads",
    "--cache-dir",
];
const ANALYZE_FLAGS: &[&str] = &["--suite", "--limit", "--json"];
pub(crate) const SERVE_FLAGS: &[&str] = &[
    "--model",
    "--threads",
    "--max-batch",
    "--tcp",
    "--workers",
    "--max-queue",
    "--default-timeout-ms",
    "--calibrate",
    "--ab-split",
    "--checkpoint-every",
];

/// Rejects any `--flag` the command does not accept. Flag *values* never
/// start with `--` (see [`flag_value`]), so scanning every argv entry is
/// sound.
pub(crate) fn check_flags(args: &[String], command: &str, allowed: &[&str]) -> Result<(), Error> {
    for a in args.iter().skip(1) {
        if a.starts_with("--") && !allowed.contains(&a.as_str()) {
            return Err(Error::InvalidArgument(format!(
                "unknown flag `{a}` for `{command}`"
            )));
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<String, Error> {
    let Some(command) = args.first() else {
        return Err(Error::InvalidArgument("missing command".into()));
    };
    match command.as_str() {
        "profile" => {
            check_flags(args, "profile", &["--input"])?;
            commands::profile(&load_program(args)?, &parse_inputs(args)?)
        }
        "stats" => {
            check_flags(args, "stats", &[])?;
            commands::stats(&load_program(args)?)
        }
        "classify" => {
            check_flags(args, "classify", &[])?;
            commands::classify(&load_program(args)?)
        }
        "normalize" => {
            check_flags(args, "normalize", &[])?;
            commands::normalize(load_program(args)?)
        }
        "analyze" => {
            check_flags(args, "analyze", ANALYZE_FLAGS)?;
            let json = has_flag(args, "--json");
            match flag_value(args, "--suite")? {
                Some(suite) => {
                    let suite = suite.to_string();
                    commands::analyze_suite(&suite, parse_flag(args, "--limit", 0usize)?, json)
                }
                None => {
                    let name = positional(args).cloned().unwrap_or_default();
                    commands::analyze(vec![(name, load_program(args)?)], json)
                }
            }
        }
        "synthesize" => {
            check_flags(args, "synthesize", &["--count", "--seed", "--format"])?;
            commands::synthesize(
                parse_flag(args, "--count", 8usize)?,
                parse_flag(args, "--seed", 0u64)?,
                flag_value(args, "--format")?.unwrap_or("reasoning"),
            )
        }
        "train" => {
            check_flags(args, "train", TRAIN_FLAGS)?;
            commands::train(&parse_train_args(args)?)
        }
        "eval" => {
            check_flags(args, "eval", EVAL_FLAGS)?;
            commands::eval(&parse_eval_args(args)?)
        }
        other => Err(Error::InvalidArgument(format!("unknown command `{other}`"))),
    }
}

fn parse_train_args(args: &[String]) -> Result<commands::TrainArgs, Error> {
    Ok(commands::TrainArgs {
        samples: parse_flag(args, "--samples", 64usize)?,
        seed: parse_flag(args, "--seed", 0u64)?,
        format: parse_format(flag_value(args, "--format")?)?,
        epochs: parse_flag(args, "--epochs", 4usize)?,
        batch: parse_flag(args, "--batch", 8usize)?,
        threads: parse_flag(args, "--threads", 2usize)?,
        scale: parse_scale(flag_value(args, "--scale")?)?,
        max_len: parse_flag(args, "--max-len", 256usize)?,
        cache_dir: cache_dir(args)?,
        out: PathBuf::from(flag_value(args, "--out")?.unwrap_or("model.json")),
    })
}

fn parse_eval_args(args: &[String]) -> Result<commands::EvalArgs, Error> {
    Ok(commands::EvalArgs {
        model: PathBuf::from(flag_value(args, "--model")?.unwrap_or("model.json")),
        suite: flag_value(args, "--suite")?
            .unwrap_or("polybench")
            .to_string(),
        limit: parse_flag(args, "--limit", 0usize)?,
        baselines: has_flag(args, "--baselines"),
        format: parse_format(flag_value(args, "--format")?)?,
        samples: parse_flag(args, "--samples", 64usize)?,
        seed: parse_flag(args, "--seed", 0u64)?,
        epochs: parse_flag(args, "--epochs", 4usize)?,
        batch: parse_flag(args, "--batch", 8usize)?,
        threads: parse_flag(args, "--threads", 2usize)?,
        cache_dir: cache_dir(args)?,
    })
}

fn cache_dir(args: &[String]) -> Result<PathBuf, Error> {
    Ok(flag_value(args, "--cache-dir")?
        .map(PathBuf::from)
        .unwrap_or_else(llmulator::DatasetCache::default_root))
}

fn parse_format(value: Option<&str>) -> Result<llmulator_synth::DataFormat, Error> {
    match value.unwrap_or("reasoning") {
        "direct" => Ok(llmulator_synth::DataFormat::Direct),
        "reasoning" => Ok(llmulator_synth::DataFormat::Reasoning),
        other => Err(Error::InvalidArgument(format!("unknown format `{other}`"))),
    }
}

fn parse_scale(value: Option<&str>) -> Result<llmulator::ModelScale, Error> {
    match value.unwrap_or("medium") {
        "small" => Ok(llmulator::ModelScale::Small),
        "medium" => Ok(llmulator::ModelScale::Medium),
        "large" => Ok(llmulator::ModelScale::Large),
        other => Err(Error::InvalidArgument(format!("unknown scale `{other}`"))),
    }
}

fn load_program(args: &[String]) -> Result<Program, Error> {
    let path =
        positional(args).ok_or_else(|| Error::InvalidArgument("missing program file".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Io(e).context(format!("cannot read `{path}`")))?;
    let program = parse::parse_program(&text)
        .map_err(|e| Error::from(e).context(format!("cannot parse `{path}`")))?;
    program
        .validate()
        .map_err(|e| Error::from(e).context(format!("invalid program `{path}`")))?;
    Ok(program)
}

/// The first non-flag argument after the command, skipping flag values, so
/// `profile --input n=3 prog.c` and `profile prog.c --input n=3` both find
/// `prog.c`.
fn positional(args: &[String]) -> Option<&String> {
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            i += if VALUE_FLAGS.contains(&a.as_str()) {
                2
            } else {
                1
            };
        } else {
            return Some(a);
        }
    }
    None
}

fn parse_inputs(args: &[String]) -> Result<InputData, Error> {
    let mut data = InputData::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--input" {
            let binding = iter
                .next()
                .ok_or_else(|| Error::InvalidArgument("--input needs name=value".into()))?;
            let (name, value) = binding.split_once('=').ok_or_else(|| {
                Error::InvalidArgument(format!("bad --input `{binding}` (expected name=value)"))
            })?;
            let v: i64 = value
                .trim()
                .parse()
                .map_err(|_| Error::InvalidArgument(format!("bad value in `{binding}`")))?;
            data.bind(name.trim(), v);
        }
    }
    Ok(data)
}

/// Looks up `flag`'s value. A following argv entry that is itself a flag
/// (starts with `--`) is *not* a value: `synthesize --count --seed 9` is a
/// missing-value error naming `--count`, not a silent attempt to parse
/// `"--seed"` as the count.
pub(crate) fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, Error> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(Error::InvalidArgument(format!(
                "flag `{flag}` requires a value"
            ))),
        },
    }
}

/// True when a boolean flag (one that takes no value) is present.
pub(crate) fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses `flag`'s value with `FromStr`, falling back to `default` when the
/// flag is absent.
pub(crate) fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, Error> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| Error::InvalidArgument(format!("invalid value for `{flag}`: `{v}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_finds_pairs() {
        let args = argv(&["synthesize", "--count", "5", "--seed", "9"]);
        assert_eq!(flag_value(&args, "--count").expect("ok"), Some("5"));
        assert_eq!(flag_value(&args, "--seed").expect("ok"), Some("9"));
        assert_eq!(flag_value(&args, "--missing").expect("ok"), None);
    }

    #[test]
    fn flag_value_rejects_flag_as_value() {
        // Regression: `--count --seed 9` used to parse `"--seed"` as the
        // count and fail with a confusing "invalid --count" downstream.
        let args = argv(&["synthesize", "--count", "--seed", "9"]);
        let err = flag_value(&args, "--count")
            .expect_err("missing value")
            .to_string();
        assert!(err.contains("--count"), "error names the flag: {err}");
        assert!(err.contains("value"), "error mentions the value: {err}");
        // The same applies when the flag is last on the command line.
        let args = argv(&["synthesize", "--count"]);
        assert!(flag_value(&args, "--count").is_err());
    }

    #[test]
    fn parse_flag_defaults_and_validates() {
        let args = argv(&["synthesize", "--count", "5"]);
        assert_eq!(parse_flag(&args, "--count", 8usize).expect("ok"), 5);
        assert_eq!(parse_flag(&args, "--seed", 3u64).expect("ok"), 3);
        let bad = argv(&["synthesize", "--count", "many"]);
        assert!(parse_flag(&bad, "--count", 8usize).is_err());
    }

    #[test]
    fn positional_ignores_flag_ordering() {
        // Regression: `profile --input n=3 prog.c` used to fail with
        // "missing program file" because only args[1] was considered.
        let before = argv(&["profile", "--input", "n=3", "prog.c"]);
        assert_eq!(positional(&before), Some(&"prog.c".to_string()));
        let after = argv(&["profile", "prog.c", "--input", "n=3"]);
        assert_eq!(positional(&after), Some(&"prog.c".to_string()));
        let mixed = argv(&["eval", "--baselines", "--suite", "all", "x.c"]);
        assert_eq!(positional(&mixed), Some(&"x.c".to_string()));
        let none = argv(&["profile", "--input", "n=3"]);
        assert_eq!(positional(&none), None);
    }

    #[test]
    fn load_program_accepts_flags_before_path() {
        let dir = std::env::temp_dir().join(format!("llmulator_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("prog.c");
        let text = commands::tests::program().render();
        std::fs::write(&path, text).expect("writes");
        let args = argv(&["profile", "--input", "n=3", path.to_str().expect("utf8")]);
        assert!(load_program(&args).is_ok(), "flags before the path parse");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_program_errors_carry_the_cause_chain() {
        let err = load_program(&argv(&["stats", "/no/such/prog.c"])).expect_err("missing file");
        let chain = err.chain();
        assert!(chain.contains("cannot read `/no/such/prog.c`"), "{chain}");
        assert!(chain.contains("caused by:"), "{chain}");
    }

    #[test]
    fn parse_inputs_accepts_bindings() {
        let args = argv(&["profile", "f.c", "--input", "n=32", "--input", "m=8"]);
        let data = parse_inputs(&args).expect("parses");
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn parse_inputs_rejects_malformed() {
        let args = argv(&["profile", "f.c", "--input", "oops"]);
        assert!(parse_inputs(&args).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        let args = vec!["frobnicate".to_string()];
        assert!(run(&args).is_err());
    }

    #[test]
    fn synthesize_with_missing_count_value_names_the_flag() {
        let args = argv(&["synthesize", "--count", "--seed", "9"]);
        let err = run(&args).expect_err("missing value").to_string();
        assert!(err.contains("--count"), "got: {err}");
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // A typo must not silently run the wrong experiment.
        let typo = argv(&["train", "--epoch", "10"]);
        let err = run(&typo).expect_err("typo rejected").to_string();
        assert!(err.contains("--epoch"), "error names the flag: {err}");
        assert!(err.contains("train"), "error names the command: {err}");
        let stray = argv(&["profile", "prog.c", "--frobnicate"]);
        assert!(run(&stray).is_err());
        // Known flags still pass the check (and fail later only if invalid).
        let ok = argv(&[
            "synthesize",
            "--count",
            "2",
            "--seed",
            "1",
            "--format",
            "direct",
        ]);
        assert!(run(&ok).is_ok());
    }

    #[test]
    fn argument_errors_are_typed_invalid_argument() {
        for args in [
            argv(&["frobnicate"]),
            argv(&["train", "--epoch", "10"]),
            argv(&["synthesize", "--count", "many"]),
            argv(&["eval", "--suite"]),
        ] {
            let err = run(&args).expect_err("rejected");
            assert_eq!(err.kind(), "invalid_argument", "{args:?} -> {err}");
        }
    }

    #[test]
    fn command_flag_lists_are_value_flag_consistent() {
        // Every value-taking flag of train/eval/serve must be in VALUE_FLAGS
        // so the positional scan skips its value (--baselines is boolean).
        for flag in TRAIN_FLAGS {
            assert!(
                VALUE_FLAGS.contains(flag),
                "{flag} missing from VALUE_FLAGS"
            );
        }
        for flag in ANALYZE_FLAGS.iter().filter(|f| **f != "--json") {
            assert!(
                VALUE_FLAGS.contains(flag),
                "{flag} missing from VALUE_FLAGS"
            );
        }
        for flag in EVAL_FLAGS.iter().filter(|f| **f != "--baselines") {
            assert!(
                VALUE_FLAGS.contains(flag),
                "{flag} missing from VALUE_FLAGS"
            );
        }
        for flag in SERVE_FLAGS.iter().filter(|f| **f != "--calibrate") {
            assert!(
                VALUE_FLAGS.contains(flag),
                "{flag} missing from VALUE_FLAGS"
            );
        }
    }

    #[test]
    fn format_and_scale_parse() {
        assert!(parse_format(Some("direct")).is_ok());
        assert!(parse_format(Some("reasoning")).is_ok());
        assert!(parse_format(None).is_ok());
        assert!(parse_format(Some("yaml")).is_err());
        assert!(parse_scale(Some("small")).is_ok());
        assert!(parse_scale(None).is_ok());
        assert!(parse_scale(Some("tiny")).is_err());
    }
}
