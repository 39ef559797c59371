//! End-to-end smoke tests against the real `llmulator` binary: the paper
//! loop (`synthesize` → `train` → `eval`) runs entirely from the shell, the
//! second run of each cached stage re-profiles nothing, and the CLI
//! argument-handling regressions stay fixed.

use llmulator_ir::builder::OperatorBuilder;
use llmulator_ir::{Expr, LValue, Program, Stmt};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A valid program in the CLI's surface syntax, produced by the same IR
/// renderer the parser round-trips with.
fn tiny_program_text() -> String {
    let op = OperatorBuilder::new("inc")
        .array_param("a", [8])
        .loop_nest(&[("i", 8)], |idx| {
            vec![Stmt::assign(
                LValue::store("a", vec![idx[0].clone()]),
                Expr::load("a", vec![idx[0].clone()]) + Expr::int(1),
            )]
        })
        .build();
    Program::single_op(op).render()
}

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_llmulator")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary spawns")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("llmulator_cli_smoke_{}_{tag}", std::process::id()))
}

/// Cache bookkeeping lines differ between cold and warm runs by design;
/// everything else (the metric tables) must be byte-identical.
fn strip_cache_lines(s: &str) -> String {
    s.lines()
        .filter(|l| !l.contains("cache"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn missing_flag_value_is_a_clear_error() {
    // Regression: `synthesize --count --seed 9` used to swallow `--seed` as
    // the count value and fail with a confusing parse error.
    let out = run(&["synthesize", "--count", "--seed", "9"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("--count"), "error names the flag: {err}");
    assert!(err.contains("value"), "error mentions the value: {err}");
}

#[test]
fn profile_accepts_flags_before_the_program_path() {
    // Regression: the program path was only accepted at args[1], so
    // `profile --input n=3 prog.c` failed with "missing program file".
    let dir = unique_dir("positional");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let prog = dir.join("prog.c");
    std::fs::write(&prog, tiny_program_text()).expect("writes");
    let path = prog.to_str().expect("utf8");
    let flags_first = run(&["profile", "--input", "n=3", path]);
    assert!(
        flags_first.status.success(),
        "flags before path must work: {}",
        stderr(&flags_first)
    );
    let flags_last = run(&["profile", path, "--input", "n=3"]);
    assert!(flags_last.status.success());
    assert_eq!(stdout(&flags_first), stdout(&flags_last));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn paper_loop_runs_from_the_shell_with_cache_reuse() {
    let dir = unique_dir("paper_loop");
    let cache = dir.join("cache");
    let model = dir.join("model.json");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cache_s = cache.to_str().expect("utf8");
    let model_s = model.to_str().expect("utf8");

    let train_args = [
        "train",
        "--samples",
        "6",
        "--seed",
        "5",
        "--format",
        "direct",
        "--epochs",
        "1",
        "--batch",
        "4",
        "--threads",
        "1",
        "--scale",
        "small",
        "--max-len",
        "96",
        "--cache-dir",
        cache_s,
        "--out",
        model_s,
    ];
    let t1 = run(&train_args);
    assert!(t1.status.success(), "train: {}", stderr(&t1));
    assert!(
        stdout(&t1).contains("dataset cache : miss"),
        "{}",
        stdout(&t1)
    );
    assert!(model.is_file(), "model persisted");

    let t2 = run(&train_args);
    assert!(t2.status.success(), "retrain: {}", stderr(&t2));
    assert!(
        stdout(&t2).contains("dataset cache : hit"),
        "second train must reuse the dataset cache: {}",
        stdout(&t2)
    );

    let eval_args = [
        "eval",
        "--model",
        model_s,
        "--suite",
        "atax",
        "--format",
        "direct",
        "--samples",
        "6",
        "--seed",
        "5",
        "--cache-dir",
        cache_s,
    ];
    let e1 = run(&eval_args);
    assert!(e1.status.success(), "eval: {}", stderr(&e1));
    let e1_out = stdout(&e1);
    for key in ["MAPE (Power)", "MAPE (Cycles)", "atax", "Ours"] {
        assert!(e1_out.contains(key), "missing {key} in:\n{e1_out}");
    }

    let e2 = run(&eval_args);
    assert!(e2.status.success(), "re-eval: {}", stderr(&e2));
    let e2_out = stdout(&e2);
    assert!(
        e2_out.contains(" 0 misses"),
        "second eval must not re-profile: {e2_out}"
    );
    assert_eq!(
        strip_cache_lines(&e1_out),
        strip_cache_lines(&e2_out),
        "metrics must be byte-identical across runs"
    );

    assert!(cache.join("datasets").is_dir(), "dataset cache layout");
    assert!(cache.join("profiles").is_dir(), "profile cache layout");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Regression for the typed-error satellite: a nonexistent model path must
/// exit non-zero with the full `caused by:` source chain, not a flattened
/// one-line string.
#[test]
fn eval_with_missing_model_exits_nonzero_with_the_cause_chain() {
    let dir = unique_dir("missing_model");
    let missing = dir.join("no-such-model.json");
    let out = run(&[
        "eval",
        "--model",
        missing.to_str().expect("utf8"),
        "--suite",
        "atax",
    ]);
    assert!(!out.status.success(), "missing model must fail");
    let err = stderr(&out);
    assert!(err.contains("cannot load model"), "context first: {err}");
    assert!(
        err.contains("caused by:"),
        "exit message renders the source chain: {err}"
    );
    assert!(
        err.contains("i/o failed"),
        "chain reaches the filesystem cause: {err}"
    );
    assert!(
        err.contains("llmulator train"),
        "hint survives the migration: {err}"
    );
}

/// A model file claiming a future format version is rejected up front with
/// the typed version error, not a confusing missing-field decode failure.
#[test]
fn serve_rejects_a_future_format_version_model() {
    let dir = unique_dir("future_model");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let model = dir.join("model.json");
    std::fs::write(&model, r#"{"format_version": 9007, "model": {}}"#).expect("writes");
    let out = run(&["serve", "--model", model.to_str().expect("utf8")]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("unsupported model format version 9007"),
        "typed version error: {err}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Trains a small model into `dir` from the shell and returns its path.
fn train_tiny_model(dir: &std::path::Path) -> PathBuf {
    let cache = dir.join("cache");
    let model = dir.join("model.json");
    std::fs::create_dir_all(dir).expect("mkdir");
    let train = run(&[
        "train",
        "--samples",
        "4",
        "--seed",
        "7",
        "--format",
        "direct",
        "--epochs",
        "1",
        "--scale",
        "small",
        "--max-len",
        "64",
        "--cache-dir",
        cache.to_str().expect("utf8"),
        "--out",
        model.to_str().expect("utf8"),
    ]);
    assert!(train.status.success(), "train: {}", stderr(&train));
    model
}

/// The serve daemon answers a mixed batch of valid and malformed JSONL
/// requests with id-correlated responses, returns a structured error object
/// for the bad line, and exits cleanly on EOF.
#[test]
fn serve_answers_mixed_jsonl_with_id_correlation_and_clean_eof_exit() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = unique_dir("serve");
    let model = train_tiny_model(&dir);

    // One program request (source text goes through JSON string escaping),
    // one pre-tokenized request with a metric subset, one malformed line,
    // one unknown-model request, a line with an invalid UTF-8 byte, a line
    // of 200 000 `[`, and a last request that must still be answered.
    // Between the last two, programs nested 100 000 levels deep (`(`, then
    // unary `-`), each followed by a line that must still be answered.
    let program_line = format!(
        "{{\"id\": \"prog-1\", \"program\": {}, \"inputs\": {{\"n\": 3}}}}",
        serde_json::Value::Str(tiny_program_text())
    );
    let mut requests = format!(
        "{program_line}\n\
         {{\"id\": 2, \"tokens\": [1, 2, 3], \"metrics\": [\"cycles\"]}}\n\
         not json at all\n\
         {{\"id\": 4, \"tokens\": [9], \"model\": \"nope\"}}\n"
    )
    .into_bytes();
    requests.extend_from_slice(b"{\"id\":5,\"tokens\":[4,\xff5]}\n");
    requests.extend_from_slice(&[b'['; 200_000]);
    requests.push(b'\n');
    for (id, prefix) in [("parens", "("), ("minus", "-")] {
        let expr = prefix.repeat(100_000);
        requests.extend_from_slice(
            format!(
                "{{\"id\": \"{id}\", \"program\": \"void f(float a[4]) {{ a[0] = {expr}1; }}\"}}\n\
                 {{\"id\": \"after-{id}\", \"tokens\": [3]}}\n"
            )
            .as_bytes(),
        );
    }
    requests.extend_from_slice(b"{\"id\": 7, \"tokens\": [1, 2]}\n");

    let mut child = std::process::Command::new(bin())
        .args([
            "serve",
            "--model",
            model.to_str().expect("utf8"),
            "--threads",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(&requests)
        .expect("requests written");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "EOF must be a clean exit: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 11, "one response per request line:\n{stdout}");

    // Responses are id-correlated, in request order.
    assert!(lines[0].contains("\"id\":\"prog-1\""), "{}", lines[0]);
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(lines[0].contains("\"cycles\""), "{}", lines[0]);
    assert!(lines[1].contains("\"id\":2"), "{}", lines[1]);
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    assert!(
        !lines[1].contains("\"power\""),
        "metric subset respected: {}",
        lines[1]
    );
    // The malformed line gets a structured error object with a null id.
    assert!(lines[2].contains("\"id\":null"), "{}", lines[2]);
    assert!(lines[2].contains("\"ok\":false"), "{}", lines[2]);
    assert!(
        lines[2].contains("\"kind\":\"invalid_request\""),
        "{}",
        lines[2]
    );
    assert!(lines[2].contains("malformed JSON"), "{}", lines[2]);
    // The unknown-model request errors without killing the daemon.
    assert!(lines[3].contains("\"id\":4"), "{}", lines[3]);
    assert!(
        lines[3].contains("\"kind\":\"unknown_model\""),
        "{}",
        lines[3]
    );
    // Invalid UTF-8 and over-deep nesting each cost their line one error;
    // the line after them is still answered.
    for (line, cause) in [(lines[4], "malformed JSON"), (lines[5], "nesting deeper")] {
        assert!(line.contains("\"id\":null"), "{line}");
        assert!(line.contains("\"kind\":\"invalid_request\""), "{line}");
        assert!(line.contains(cause), "{line}");
    }
    // Each over-deep program costs its line one `ir` error (not a stack
    // overflow), and the line after it is still answered.
    for (deep, after, id) in [
        (lines[6], lines[7], "parens"),
        (lines[8], lines[9], "minus"),
    ] {
        assert!(deep.contains(&format!("\"id\":\"{id}\"")), "{deep}");
        assert!(deep.contains("\"kind\":\"ir\""), "{deep}");
        assert!(deep.contains("nesting deeper than 128"), "{deep}");
        assert!(after.contains(&format!("\"id\":\"after-{id}\"")), "{after}");
        assert!(after.contains("\"ok\":true"), "{after}");
    }
    assert!(lines[10].contains("\"id\":7"), "{}", lines[10]);
    assert!(lines[10].contains("\"ok\":true"), "{}", lines[10]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The stdin daemon applies backpressure instead of shedding: with a
/// one-job queue and one-job batches, a piped burst of requests blocks the
/// reader rather than overflowing the queue, so every line is answered, in
/// order, and none with `overloaded`.
#[test]
fn serve_stdin_backpressure_answers_every_line_in_order() {
    use std::io::Write;
    use std::process::Stdio;

    const LINES: usize = 200;
    let dir = unique_dir("serve_backpressure");
    let model = train_tiny_model(&dir);
    let requests: String = (0..LINES)
        .map(|i| format!("{{\"id\": {i}, \"tokens\": [{}, 2, 3]}}\n", i % 50 + 1))
        .collect();

    let mut child = std::process::Command::new(bin())
        .args([
            "serve",
            "--model",
            model.to_str().expect("utf8"),
            "--threads",
            "1",
            "--max-queue",
            "1",
            "--max-batch",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // Write from a thread: the daemon's stdout must drain concurrently or a
    // full pipe would stall both sides.
    let mut stdin = child.stdin.take().expect("stdin piped");
    let feeder = std::thread::spawn(move || stdin.write_all(requests.as_bytes()));
    let out = child.wait_with_output().expect("daemon exits");
    feeder
        .join()
        .expect("feeder joins")
        .expect("requests written");
    assert!(out.status.success(), "clean exit: {}", stderr(&out));

    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), LINES, "one response per request line");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"id\":{i},")),
            "order at {i}: {line}"
        );
        assert!(line.contains("\"ok\":true"), "line {i}: {line}");
        assert!(!line.contains("overloaded"), "line {i}: {line}");
    }
    let summary = stderr(&out);
    assert!(
        summary.contains(&format!(
            "{LINES} request(s) answered, 0 error response(s), 0 shed"
        )),
        "{summary}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The static-analysis report over every workload suite, pinned byte for
/// byte: Class I/II, taint verdicts, CFG shapes, static bounds and lints.
#[test]
fn analyze_suite_all_matches_the_goldens() {
    let text = run(&["analyze", "--suite", "all"]);
    assert!(text.status.success(), "{}", stderr(&text));
    assert_eq!(
        stdout(&text),
        include_str!("golden/analyze_all.txt"),
        "`analyze --suite all` drifted from tests/golden/analyze_all.txt"
    );
    let json = run(&["analyze", "--suite", "all", "--json"]);
    assert!(json.status.success(), "{}", stderr(&json));
    assert_eq!(
        stdout(&json),
        include_str!("golden/analyze_all.jsonl"),
        "`analyze --suite all --json` drifted from tests/golden/analyze_all.jsonl"
    );
}

/// An operator whose loop bound reads graph scalar `n` directly: its cost
/// moves with `n`, so every report must call it Class II with `n` dynamic.
#[test]
fn graph_scalar_loop_bound_is_class_ii_everywhere() {
    const PROGRAM: &str = "void win(float a[64]) {
  for (int i = 0; i < n; i += 1) {
    a[i] = 1;
  }
}

void graph(int n) {
  float buf[64];
  win(buf);
}
";
    let dir = unique_dir("graph_scalar");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let prog = dir.join("win.c");
    std::fs::write(&prog, PROGRAM).expect("writes");
    let path = prog.to_str().expect("utf8");
    let ok = |args: &[&str]| {
        let out = run(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        stdout(&out)
    };

    let classify = ok(&["classify", path]);
    assert!(
        classify.contains("Class II (input-dependent control flow)"),
        "{classify}"
    );
    assert!(classify.contains("dynamic params: n"), "{classify}");
    let stats = ok(&["stats", path]);
    assert!(stats.contains("Dyn. Num  : 1\n"), "{stats}");
    let analyze = ok(&["analyze", path]);
    assert!(analyze.contains("Class II, shape-adaptive"), "{analyze}");

    let cycles = |n: &str| {
        let out = ok(&["profile", path, "--input", n]);
        out.lines()
            .find_map(|l| l.strip_prefix("cycles : "))
            .expect("cycles line")
            .to_string()
    };
    assert_eq!(cycles("n=4"), "52");
    assert_eq!(cycles("n=40"), "448");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
