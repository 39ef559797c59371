//! `repo-lint` — enforces repository-wide source invariants that clippy
//! cannot express:
//!
//! 1. **No raw mutex unwraps.** `.lock().unwrap()` / `.lock().expect(` would
//!    propagate poison panics through the serving stack; every lock must go
//!    through `unpoisoned` (crates/core/src/sync.rs), which recovers the
//!    guard instead.
//! 2. **No `unwrap()`/`expect(` in serving hot paths.** The serve loop, the
//!    TCP transport, the worker pool, the engine's request path, the JSON
//!    parser and the IR parser every request goes through, the tokenizer,
//!    the encoder inference kernel and the daemon's background calibrator
//!    (online loop and DPO step) must degrade with typed errors, not panics;
//!    test modules (after `#[cfg(test)]`) are exempt.
//! 3. **No new `unsafe`.** The sanctioned blocks are the signal-handler
//!    FFI in crates/cli/src/net.rs and the call into the AVX2-compiled GEMM
//!    body in crates/nn/src/matrix.rs, right after its CPU-feature check;
//!    anything else needs a deliberate allowlist change here.
//! 4. **No `panic!`/`unreachable!` in the simulator.** `crates/sim` is the
//!    ground-truth engine behind synthesis and evaluation; a reachable panic
//!    in the interpreter or the compiled fast path would take down a whole
//!    profiling run instead of surfacing a typed `SimError`. Test modules
//!    are exempt.
//!
//! Exit status is non-zero when any violation is found, so CI can gate on
//! it. Output lists `file:line: rule — offending line`.

use std::path::{Path, PathBuf};

/// Files whose non-test code must be panic-free (rule 2).
const HOT_PATH_FILES: &[&str] = &[
    "crates/cli/src/serve.rs",
    "crates/cli/src/net.rs",
    "crates/core/src/calibrate.rs",
    "crates/core/src/counters.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/online.rs",
    "crates/core/src/serve_pool.rs",
    "crates/ir/src/parse.rs",
    "crates/nn/src/infer.rs",
    "crates/token/src/tokenizer.rs",
    "vendor/serde_json/src/lib.rs",
];

/// Directories scanned, relative to the repo root: every workspace crate,
/// plus the vendored JSON parser that reads every request line.
const SCAN_ROOTS: &[&str] = &["crates", "vendor/serde_json/src"];

/// Files allowed to contain `unsafe` (rule 3).
const UNSAFE_ALLOWLIST: &[&str] = &["crates/cli/src/net.rs", "crates/nn/src/matrix.rs"];

/// Directory prefixes whose non-test code must not use panicking macros
/// (rule 4).
const PANIC_FREE_DIRS: &[&str] = &["crates/sim/src/"];

/// This linter's own source names every banned pattern (in rules, messages
/// and tests), so it is the one file exempt from scanning.
const SELF_PATH: &str = "crates/bench/src/bin/repo_lint.rs";

fn main() {
    let root = repo_root();
    let files = scanned_files(&root);

    let mut violations = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            violations.push(format!("{}: unreadable file", rel(path, &root)));
            continue;
        };
        let rel_path = rel(path, &root);
        violations.extend(lint_file(&rel_path, &text));
    }

    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("repo lint: clean, {} files scanned", files.len());
    } else {
        println!(
            "repo lint: {} violation(s) in {} files scanned",
            violations.len(),
            files.len()
        );
        std::process::exit(1);
    }
}

/// All violations in one file. `rel_path` uses forward slashes relative to
/// the repo root, so allowlists match on every platform.
fn lint_file(rel_path: &str, text: &str) -> Vec<String> {
    if rel_path == SELF_PATH {
        return Vec::new();
    }
    let hot = HOT_PATH_FILES.contains(&rel_path);
    let unsafe_ok = UNSAFE_ALLOWLIST.contains(&rel_path);
    let panic_free = PANIC_FREE_DIRS.iter().any(|d| rel_path.starts_with(d));
    let mut out = Vec::new();
    let mut in_tests = false;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.contains("#[cfg(test)]") {
            // Everything below the first test gate is test code; panics
            // there are assertions, not serving failures.
            in_tests = true;
        }
        let code = strip_line_comment(line);
        if code.contains(".lock().unwrap()") || code.contains(".lock().expect(") {
            out.push(format!(
                "{rel_path}:{n}: raw mutex lock (use sync::unpoisoned) — {}",
                line.trim()
            ));
        }
        if hot && !in_tests && (code.contains(".unwrap()") || code.contains(".expect(")) {
            out.push(format!(
                "{rel_path}:{n}: unwrap/expect in serving hot path — {}",
                line.trim()
            ));
        }
        if !unsafe_ok && contains_word(code, "unsafe") {
            out.push(format!(
                "{rel_path}:{n}: unsafe outside the allowlist — {}",
                line.trim()
            ));
        }
        if panic_free && !in_tests && (code.contains("panic!(") || code.contains("unreachable!(")) {
            out.push(format!(
                "{rel_path}:{n}: panicking macro in the simulator (return SimError) — {}",
                line.trim()
            ));
        }
    }
    out
}

/// Drops a trailing `// ...` comment (including `///` docs) so prose never
/// trips a rule. String literals containing `//` are rare enough in this
/// codebase that the cheap scan is acceptable — a false *negative* there
/// only skips the rest of one line.
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// True when `word` occurs with non-identifier characters on both sides.
fn contains_word(haystack: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok = haystack[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after_ok = haystack[at + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Every `.rs` file under [`SCAN_ROOTS`], sorted.
fn scanned_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    files
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; the repo root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn rel(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_mutex_lock_is_flagged_everywhere() {
        let v = lint_file("crates/x/src/lib.rs", "let g = m.lock().unwrap();\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("raw mutex lock"));
        let v = lint_file("crates/x/src/lib.rs", "let g = m.lock().expect(\"l\");\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn lock_unpoisoned_idiom_and_stdin_lock_pass() {
        let clean = "mutex.lock().unwrap_or_else(PoisonError::into_inner)\n\
                     for line in stdin.lock().lines() {\n";
        assert!(lint_file("crates/core/src/serve_pool.rs", clean).is_empty());
    }

    #[test]
    fn hot_path_unwrap_is_flagged_outside_tests_only() {
        let text = "let x = y.unwrap();\n#[cfg(test)]\nmod tests { let z = q.unwrap(); }\n";
        let v = lint_file("crates/cli/src/serve.rs", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains(":1:"), "only the pre-test line: {v:?}");
        // The same code in a non-hot file passes rule 2.
        assert!(lint_file("crates/ir/src/lib.rs", text).is_empty());
    }

    #[test]
    fn unsafe_is_flagged_outside_the_allowlist() {
        let v = lint_file("crates/sim/src/exec.rs", "unsafe { *p }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(lint_file("crates/cli/src/net.rs", "unsafe { *p }\n").is_empty());
        assert!(lint_file("crates/nn/src/matrix.rs", "unsafe { gemm_avx2() }\n").is_empty());
        // The allowlist names files, not crates: the nn inference kernel is
        // still flagged.
        let v = lint_file("crates/nn/src/infer.rs", "unsafe { *p }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        // Comments and identifiers containing the word do not trip it.
        let prose = "// unsafe is forbidden here\nlet unsafely = 1;\n";
        assert!(lint_file("crates/sim/src/exec.rs", prose).is_empty());
    }

    #[test]
    fn simulator_panic_macros_are_flagged_outside_tests_only() {
        let text = "panic!(\"boom\");\n#[cfg(test)]\nmod tests { panic!(\"ok here\"); }\n";
        let v = lint_file("crates/sim/src/compiled.rs", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("panicking macro"), "{v:?}");
        let v = lint_file("crates/sim/src/exec.rs", "unreachable!(\"no\");\n");
        assert_eq!(v.len(), 1, "{v:?}");
        // The same code outside the simulator passes rule 4.
        assert!(lint_file("crates/nn/src/lib.rs", "panic!(\"x\");\n").is_empty());
    }

    #[test]
    fn the_vendored_json_parser_is_scanned_as_a_hot_path() {
        let root = repo_root();
        let lib = root.join("vendor/serde_json/src/lib.rs");
        assert!(scanned_files(&root).contains(&lib), "vendor path scanned");
        let v = lint_file("vendor/serde_json/src/lib.rs", "let x = y.unwrap();\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("serving hot path"), "{v:?}");
    }

    #[test]
    fn the_repository_is_currently_clean() {
        let root = repo_root();
        let files = scanned_files(&root);
        assert!(!files.is_empty(), "source files found");
        let mut violations = Vec::new();
        for path in &files {
            let text = std::fs::read_to_string(path).expect("readable source");
            violations.extend(lint_file(&rel(path, &root), &text));
        }
        assert!(
            violations.is_empty(),
            "repo must stay lint-clean:\n{violations:#?}"
        );
    }
}
