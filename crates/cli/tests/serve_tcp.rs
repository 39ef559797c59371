//! End-to-end tests for the TCP serving transport (`serve --tcp`).
//!
//! Every test drives the real `llmulator` binary over real sockets:
//!
//! * concurrency stress — many client threads, ids correlate, responses
//!   arrive in per-connection request order and are bit-identical to the
//!   single-stream stdin/stdout oracle, at 1/2/4 workers;
//! * protocol robustness (proptests) — byte garbage, oversized lines,
//!   split/coalesced TCP frames and mid-request disconnects never panic
//!   the daemon or wedge the pool;
//! * load-shedding — a saturated queue answers `overloaded`, never hangs;
//! * graceful drain — `{"shutdown": true}` and SIGTERM complete all
//!   accepted in-flight requests, then exit 0;
//! * hung-up clients — EPIPE on stdout and TCP resets are tolerated the
//!   same way (clean exit / connection teardown, daemon keeps serving);
//! * fault isolation (chaos) — env-injected panics/delays/forced errors
//!   (`LLMULATOR_FAULTS`) and zero deadlines are contained to their own
//!   request: batchmates stay bit-identical to the oracle, the counters
//!   record the containment, slow clients are disconnected instead of
//!   wedging the writer, and the drain still exits 0.
//!
//! Hangs are converted into failures by a 60 s socket read timeout: a lost
//! response makes `read_line` fail instead of blocking the test forever.

use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_llmulator")
}

/// Trains the tiny shared model once per test process.
fn shared_model() -> &'static Path {
    static MODEL: OnceLock<PathBuf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("llmulator_serve_tcp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let model = dir.join("model.json");
        let cache = dir.join("cache");
        let out = Command::new(bin())
            .args([
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
            ])
            .output()
            .expect("train runs");
        assert!(
            out.status.success(),
            "train: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        model
    })
}

/// A running `serve --tcp` daemon. Killed on drop so a failing assertion
/// never leaks a process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Stderr written after the listening banner (summary line included),
    /// delivered once the daemon exits.
    stderr_rest: mpsc::Receiver<String>,
}

impl Daemon {
    /// Spawns `serve --tcp 127.0.0.1:0 <extra>` and parses the bound
    /// address from the `serve: listening on IP:PORT ...` banner.
    fn spawn(extra: &[&str]) -> Daemon {
        Daemon::spawn_with(extra, &[])
    }

    /// Like [`Daemon::spawn`], but with extra environment variables — the
    /// chaos hooks (`LLMULATOR_FAULTS`, `LLMULATOR_WRITER_CAP`,
    /// `LLMULATOR_WRITE_TIMEOUT_MS`) are env-selected so a release binary
    /// can be fault-tested without recompiling.
    fn spawn_with(extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let model = shared_model();
        let mut child = Command::new(bin())
            .args([
                "serve",
                "--model",
                model.to_str().expect("utf8"),
                "--threads",
                "1",
                "--tcp",
                "127.0.0.1:0",
            ])
            .args(extra)
            .envs(envs.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let mut reader = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut seen = String::new();
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).expect("stderr readable") > 0 {
            seen.push_str(&line);
            if let Some(rest) = line.trim().strip_prefix("serve: listening on ") {
                let end = rest.find(' ').unwrap_or(rest.len());
                addr = Some(rest[..end].parse().expect("bound address"));
                break;
            }
            line.clear();
        }
        let addr = addr.unwrap_or_else(|| panic!("no listening banner; stderr:\n{seen}"));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            let _ = tx.send(rest);
        });
        Daemon {
            child,
            addr,
            stderr_rest: rx,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        stream
    }

    /// Sends `{"shutdown": true}` on a fresh connection, waits for the
    /// acknowledgement and a clean exit, and returns the remaining stderr
    /// (which carries the shutdown summary).
    fn shutdown_and_wait(mut self) -> String {
        let mut conn = self.connect();
        conn.write_all(b"{\"id\": \"bye\", \"shutdown\": true}\n")
            .expect("shutdown sent");
        let ack = read_lines(&mut BufReader::new(&mut conn), 1).remove(0);
        assert!(ack.contains("\"shutting_down\":true"), "{ack}");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "shutdown drain must exit 0");
        self.stderr_rest
            .recv_timeout(Duration::from_secs(10))
            .expect("stderr collected")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads exactly `n` response lines; a timeout or early EOF is a test
/// failure naming the missing response.
fn read_lines(reader: &mut impl BufRead, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let mut line = String::new();
            let got = reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("response {i} lost (of {n}): {e}"));
            assert!(got > 0, "connection closed before response {i} (of {n})");
            line.trim_end().to_string()
        })
        .collect()
}

/// Runs the stdin/stdout daemon over `input` and returns its response
/// lines — the single-stream oracle the TCP path must match bit for bit.
fn stdin_oracle(input: &str) -> Vec<String> {
    let model = shared_model();
    let mut child = Command::new(bin())
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
        .expect("oracle spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("oracle input");
    let out = child.wait_with_output().expect("oracle exits");
    assert!(
        out.status.success(),
        "oracle: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

/// The request line client `c` sends as its `k`-th request.
fn request_line(c: usize, k: usize) -> String {
    format!(
        "{{\"id\": \"c{c}-r{k}\", \"tokens\": [{c}, {k}, {}], \"metrics\": [\"cycles\", \"power\"]}}",
        (c * 7 + k * 3) % 100
    )
}

/// [`request_line`] with a per-request deadline attached.
fn request_line_with_timeout(c: usize, k: usize, timeout_ms: u64) -> String {
    format!(
        "{{\"id\": \"c{c}-r{k}\", \"timeout_ms\": {timeout_ms}, \"tokens\": [{c}, {k}, {}], \
         \"metrics\": [\"cycles\", \"power\"]}}",
        (c * 7 + k * 3) % 100
    )
}

/// Pulls the count immediately preceding `suffix` out of the shutdown
/// summary (e.g. `summary_count(s, "panic(s) contained")` on
/// `"... 2 panic(s) contained ..."` returns 2).
fn summary_count(summary: &str, suffix: &str) -> u64 {
    let end = summary
        .find(suffix)
        .unwrap_or_else(|| panic!("summary lacks `{suffix}`: {summary}"));
    let digits: Vec<char> = summary[..end]
        .trim_end()
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .iter()
        .rev()
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("no count before `{suffix}`: {summary}"))
}

/// Tentpole stress test: 8 concurrent client threads against one daemon at
/// 1/2/4 workers. Every response id matches its request, responses arrive
/// in per-connection request order, none is lost or duplicated, and every
/// payload is bit-identical to the stdin/stdout oracle.
#[test]
fn stress_concurrent_connections_match_the_stdin_oracle_at_1_2_4_workers() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 12;
    let requests: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| (0..PER_CLIENT).map(|k| request_line(c, k)).collect())
        .collect();
    let flat: Vec<&String> = requests.iter().flatten().collect();
    let mut oracle_input = String::new();
    for line in &flat {
        oracle_input.push_str(line);
        oracle_input.push('\n');
    }
    let oracle = stdin_oracle(&oracle_input);
    assert_eq!(oracle.len(), flat.len(), "oracle answered every line");
    // id -> oracle response line (stdin answers in request order).
    let expected: std::collections::HashMap<String, &String> = (0..CLIENTS)
        .flat_map(|c| (0..PER_CLIENT).map(move |k| (c, k)))
        .zip(&oracle)
        .map(|((c, k), line)| (format!("\"id\":\"c{c}-r{k}\""), line))
        .collect();

    for workers in ["1", "2", "4"] {
        let daemon = Daemon::spawn(&["--workers", workers]);
        let handles: Vec<_> = requests
            .iter()
            .cloned()
            .enumerate()
            .map(|(c, lines)| {
                let stream = daemon.connect();
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().expect("clone");
                    let mut payload = String::new();
                    for line in &lines {
                        payload.push_str(line);
                        payload.push('\n');
                    }
                    writer.write_all(payload.as_bytes()).expect("send");
                    let got = read_lines(&mut BufReader::new(stream), lines.len());
                    (c, got)
                })
            })
            .collect();
        for handle in handles {
            let (c, got) = handle.join().expect("client thread");
            for (k, line) in got.iter().enumerate() {
                let id = format!("\"id\":\"c{c}-r{k}\"");
                assert!(
                    line.contains(&id),
                    "workers={workers}: response {k} of client {c} out of order or \
                     mis-correlated: {line}"
                );
                assert_eq!(
                    line, expected[&id],
                    "workers={workers}: TCP response differs from stdin oracle"
                );
            }
        }
        let summary = daemon.shutdown_and_wait();
        assert!(summary.contains("bye"), "{summary}");
    }
}

/// Admin `{"stats": true}` reports exact counters once the matching
/// responses have been read (served increments before the response line is
/// released).
#[test]
fn stats_request_reports_served_and_latency() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    for k in 0..3 {
        conn.write_all((request_line(0, k) + "\n").as_bytes())
            .expect("send");
    }
    read_lines(&mut reader, 3);
    conn.write_all(b"{\"id\": \"s\", \"stats\": true}\n")
        .expect("stats sent");
    let stats = read_lines(&mut reader, 1).remove(0);
    for needle in [
        "\"id\":\"s\"",
        "\"ok\":true",
        "\"served\":3",
        "\"errors\":0",
        "\"shed\":0",
        "\"latency_us\":{",
        "\"count\":3",
        "\"p50\":",
        "\"p99\":",
    ] {
        assert!(stats.contains(needle), "missing {needle}: {stats}");
    }
    daemon.shutdown_and_wait();
}

/// A repeated request is answered from the worker session's prediction
/// memo: the same `predictions` bytes, counted as a hit in `{"stats":
/// true}` and in the shutdown summary.
#[test]
fn repeated_request_is_a_memo_hit_with_identical_predictions() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut predictions = Vec::new();
    for _ in 0..2 {
        conn.write_all((request_line(3, 5) + "\n").as_bytes())
            .expect("send");
        let reply = read_lines(&mut reader, 1).remove(0);
        let at = reply
            .find("\"predictions\":")
            .unwrap_or_else(|| panic!("no predictions: {reply}"));
        predictions.push(reply[at..].to_string());
    }
    assert_eq!(
        predictions[0], predictions[1],
        "a hit replies the same bytes"
    );
    conn.write_all(b"{\"id\": \"s\", \"stats\": true}\n")
        .expect("stats sent");
    let stats = read_lines(&mut reader, 1).remove(0);
    assert_eq!(extract_u64(&stats, "memo_hits"), 1, "{stats}");
    assert_eq!(extract_u64(&stats, "memo_misses"), 1, "{stats}");
    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary_count(&summary, "hit(s)"), 1, "{summary}");
    assert_eq!(summary_count(&summary, "miss(es)"), 1, "{summary}");
}

/// A queue saturated past `--max-queue` sheds with structured `overloaded`
/// errors — every request is answered (no hangs, no losses), in order, at
/// 1/2/4 workers.
#[test]
fn saturated_queue_sheds_overloaded_instead_of_hanging() {
    const PIPELINED: usize = 200;
    for workers in ["1", "2", "4"] {
        let daemon = Daemon::spawn(&["--workers", workers, "--max-batch", "1", "--max-queue", "1"]);
        let mut conn = daemon.connect();
        let mut payload = String::new();
        for k in 0..PIPELINED {
            payload.push_str(&request_line(1, k));
            payload.push('\n');
        }
        conn.write_all(payload.as_bytes()).expect("burst sent");
        let got = read_lines(&mut BufReader::new(conn), PIPELINED);
        let mut ok = 0usize;
        let mut shed = 0usize;
        for (k, line) in got.iter().enumerate() {
            assert!(
                line.contains(&format!("\"id\":\"c1-r{k}\"")),
                "workers={workers}: response {k} out of order: {line}"
            );
            if line.contains("\"ok\":true") {
                ok += 1;
            } else {
                assert!(
                    line.contains("\"kind\":\"overloaded\""),
                    "workers={workers}: only sheds may fail: {line}"
                );
                assert!(line.contains("overloaded"), "{line}");
                shed += 1;
            }
        }
        assert_eq!(ok + shed, PIPELINED, "every request answered exactly once");
        assert!(
            ok >= 1,
            "workers={workers}: the first accepted request serves"
        );
        assert!(
            shed >= 1,
            "workers={workers}: a 200-deep burst into a 1-deep queue must shed"
        );
        let summary = daemon.shutdown_and_wait();
        assert!(summary.contains("shed"), "{summary}");
    }
}

/// Graceful drain: once requests are accepted (queued or executing), a
/// shutdown from *another* connection completes them all before the
/// daemon exits — at 1/2/4 workers.
#[test]
fn shutdown_drain_completes_accepted_inflight_requests() {
    const INFLIGHT: usize = 6;
    for workers in ["1", "2", "4"] {
        let daemon = Daemon::spawn(&["--workers", workers, "--max-batch", "1"]);
        let mut conn_a = daemon.connect();
        let mut reader_a = BufReader::new(conn_a.try_clone().expect("clone"));
        let mut payload = String::new();
        for k in 0..INFLIGHT {
            payload.push_str(&request_line(2, k));
            payload.push('\n');
        }
        conn_a.write_all(payload.as_bytes()).expect("send");

        // Poll stats on a second connection until every request from A has
        // been accepted by the pool (served, erred, or still queued), so
        // the shutdown below races only with *accepted* work.
        let mut conn_b = daemon.connect();
        let mut reader_b = BufReader::new(conn_b.try_clone().expect("clone"));
        loop {
            conn_b
                .write_all(b"{\"stats\": true}\n")
                .expect("stats sent");
            let stats = read_lines(&mut reader_b, 1).remove(0);
            let accepted = ["served", "errors", "shed", "queue_depth"]
                .iter()
                .map(|key| extract_u64(&stats, key))
                .sum::<u64>();
            if accepted >= INFLIGHT as u64 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        conn_b
            .write_all(b"{\"id\": \"halt\", \"shutdown\": true}\n")
            .expect("shutdown sent");
        let ack = read_lines(&mut reader_b, 1).remove(0);
        assert!(ack.contains("\"shutting_down\":true"), "{ack}");

        // All accepted in-flight requests complete before the exit.
        let got = read_lines(&mut reader_a, INFLIGHT);
        for (k, line) in got.iter().enumerate() {
            assert!(
                line.contains(&format!("\"id\":\"c2-r{k}\"")) && line.contains("\"ok\":true"),
                "workers={workers}: in-flight request {k} must complete: {line}"
            );
        }
        let mut daemon = daemon;
        let status = daemon.child.wait().expect("daemon exits after drain");
        assert!(status.success(), "workers={workers}: drain exits 0");
    }
}

/// SIGTERM triggers the same graceful drain as a shutdown request: the
/// daemon stops accepting, finishes, logs the summary, and exits 0.
#[test]
fn sigterm_drains_and_exits_zero() {
    let daemon = Daemon::spawn(&[]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    conn.write_all((request_line(3, 0) + "\n").as_bytes())
        .expect("send");
    let first = read_lines(&mut reader, 1).remove(0);
    assert!(first.contains("\"ok\":true"), "{first}");

    let kill = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success(), "SIGTERM delivered");

    // Consume the daemon without dropping it (drop would SIGKILL).
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "SIGTERM must drain and exit 0");
    let summary = daemon
        .stderr_rest
        .recv_timeout(Duration::from_secs(10))
        .expect("stderr collected");
    assert!(summary.contains("bye"), "summary logged: {summary}");
    // The connection sees EOF, not a reset mid-line.
    let mut rest = String::new();
    let _ = BufReader::new(conn).read_to_string(&mut rest);
    assert!(rest.is_empty(), "no partial lines after drain: {rest}");
}

/// A client that disconnects mid-request (partial line, no newline) or
/// without reading its responses never wedges the daemon: other
/// connections keep answering and the daemon still shuts down cleanly.
#[test]
fn mid_request_disconnects_leave_the_daemon_serving() {
    let daemon = Daemon::spawn(&["--workers", "2"]);

    // Half a request, then a hard drop.
    let mut conn = daemon.connect();
    conn.write_all(b"{\"id\": 1, \"tok").expect("partial send");
    drop(conn);

    // Requests sent, connection dropped before reading any response (the
    // writer hits a closed socket — the TCP flavor of EPIPE).
    let mut conn = daemon.connect();
    for k in 0..4 {
        conn.write_all((request_line(4, k) + "\n").as_bytes())
            .expect("send");
    }
    drop(conn);

    // A fresh connection still gets served.
    let mut conn = daemon.connect();
    conn.write_all((request_line(5, 0) + "\n").as_bytes())
        .expect("probe sent");
    let probe = read_lines(&mut BufReader::new(conn), 1).remove(0);
    assert!(
        probe.contains("\"id\":\"c5-r0\"") && probe.contains("\"ok\":true"),
        "{probe}"
    );
    daemon.shutdown_and_wait();
}

/// Stdin-mode EPIPE tolerance, unified with the TCP behavior: when the
/// stdout reader goes away the daemon stops reading, drains, and exits 0.
#[test]
fn stdin_mode_tolerates_stdout_hangup_with_a_clean_exit() {
    let model = shared_model();
    let mut child = Command::new(bin())
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
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    stdin
        .write_all((request_line(6, 0) + "\n").as_bytes())
        .expect("send");
    let first = read_lines(&mut reader, 1).remove(0);
    assert!(first.contains("\"ok\":true"), "{first}");
    // Close the read end, then keep writing; the daemon must notice the
    // broken pipe and exit 0 instead of erroring or spinning.
    drop(reader);
    for k in 1..50 {
        if stdin
            .write_all((request_line(6, k) + "\n").as_bytes())
            .is_err()
        {
            break; // daemon already gone: its stdin pipe closed
        }
    }
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "stdout hang-up must exit clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// An oversized request line is answered with a structured error and
/// skipped, and so is a line of 200 000 `[` (deep enough to overflow a
/// recursive JSON parser's stack) and a program nested 100 000 levels deep
/// (`(`, then unary `-`; deep enough to overflow the IR parser's); the
/// connection (and the daemon) keep working.
#[test]
fn oversized_lines_get_a_structured_error_and_the_connection_survives() {
    let daemon = Daemon::spawn(&[]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let huge = "a".repeat(2 * 1024 * 1024);
    conn.write_all(huge.as_bytes()).expect("oversize sent");
    conn.write_all(b"\n").expect("newline sent");
    conn.write_all(&[b'['; 200_000]).expect("nesting sent");
    conn.write_all(b"\n").expect("newline sent");
    conn.write_all((request_line(7, 0) + "\n").as_bytes())
        .expect("probe sent");
    let responses = read_lines(&mut reader, 3);
    for (line, cause) in [
        (&responses[0], "exceeds"),
        (&responses[1], "nesting deeper"),
    ] {
        assert!(
            line.contains("\"kind\":\"invalid_request\"") && line.contains(cause),
            "{line}"
        );
        assert!(line.contains("\"id\":null"), "{line}");
    }
    assert!(
        responses[2].contains("\"id\":\"c7-r0\"") && responses[2].contains("\"ok\":true"),
        "{}",
        responses[2]
    );
    for (k, prefix) in ["(", "-"].into_iter().enumerate() {
        let expr = prefix.repeat(100_000);
        let deep = format!(
            "{{\"id\": \"deep{k}\", \"program\": \"void f(float a[4]) {{ a[0] = {expr}1; }}\"}}\n"
        );
        conn.write_all(deep.as_bytes()).expect("deep program sent");
        conn.write_all((request_line(7, k + 1) + "\n").as_bytes())
            .expect("probe sent");
        let responses = read_lines(&mut reader, 2);
        assert!(
            responses[0].contains(&format!("\"id\":\"deep{k}\""))
                && responses[0].contains("\"kind\":\"ir\"")
                && responses[0].contains("nesting deeper than 128"),
            "{}",
            responses[0]
        );
        assert!(
            responses[1].contains(&format!("\"id\":\"c7-r{}\"", k + 1))
                && responses[1].contains("\"ok\":true"),
            "{}",
            responses[1]
        );
    }
    daemon.shutdown_and_wait();
}

/// Deterministic pseudo-random byte generator for the robustness
/// proptests (no RNG dependency needed in this crate).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Arbitrary byte garbage (including invalid UTF-8) is answered with
    /// the structured `{kind,message,chain}` error object, one response
    /// per line, and the daemon keeps serving valid requests afterwards.
    #[test]
    fn garbage_lines_get_structured_errors_and_never_wedge(seed in 1u64..10_000) {
        let daemon = Daemon::spawn(&[]);
        let mut conn = daemon.connect();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut state = seed;
        const LINES: usize = 5;
        for _ in 0..LINES {
            let len = 1 + (xorshift(&mut state) % 40) as usize;
            let mut garbage = vec![0xFEu8]; // force non-empty, non-JSON, non-UTF-8
            garbage.extend((1..len).map(|_| {
                let b = (xorshift(&mut state) % 256) as u8;
                if b == b'\n' { b'+' } else { b }
            }));
            garbage.push(b'\n');
            conn.write_all(&garbage).expect("garbage sent");
        }
        conn.write_all((request_line(8, 0) + "\n").as_bytes()).expect("probe sent");
        let responses = read_lines(&mut reader, LINES + 1);
        for line in &responses[..LINES] {
            prop_assert!(line.contains("\"ok\":false"), "{}", line);
            prop_assert!(line.contains("\"kind\":\"invalid_request\""), "{}", line);
            prop_assert!(line.contains("\"message\":"), "{}", line);
            prop_assert!(line.contains("\"chain\":["), "{}", line);
        }
        prop_assert!(responses[LINES].contains("\"ok\":true"), "{}", responses[LINES]);
        daemon.shutdown_and_wait();
    }

    /// Split and coalesced TCP frames parse identically: a request written
    /// byte-dribbled in arbitrary chunk sizes and a burst of requests in
    /// one frame both yield exactly one correct response per line.
    #[test]
    fn split_and_coalesced_frames_parse_identically(chunk in 1usize..7) {
        let daemon = Daemon::spawn(&[]);
        let mut conn = daemon.connect();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));

        // Split: one request, `chunk` bytes at a time with pauses.
        let split = request_line(9, 0) + "\n";
        for piece in split.as_bytes().chunks(chunk) {
            conn.write_all(piece).expect("piece sent");
            conn.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(1));
        }
        let got = read_lines(&mut reader, 1).remove(0);
        prop_assert!(
            got.contains("\"id\":\"c9-r0\"") && got.contains("\"ok\":true"),
            "{}", got
        );

        // Coalesced: several requests in a single frame.
        let mut burst = String::new();
        for k in 1..5 {
            burst.push_str(&request_line(9, k));
            burst.push('\n');
        }
        conn.write_all(burst.as_bytes()).expect("burst sent");
        let got = read_lines(&mut reader, 4);
        for (i, line) in got.iter().enumerate() {
            prop_assert!(
                line.contains(&format!("\"id\":\"c9-r{}\"", i + 1))
                    && line.contains("\"ok\":true"),
                "{}", line
            );
        }
        daemon.shutdown_and_wait();
    }
}

/// Chaos stress: injected faults (a panic, a forced error, a delay) are
/// contained to their own request. The faulted requests get structured
/// `internal` errors, every other request is answered bit-identically to
/// the stdin oracle, the counters record the containment, and the drain
/// still exits 0.
#[test]
fn injected_faults_are_contained_and_batchmates_match_the_oracle() {
    const REQUESTS: usize = 12;
    let lines: Vec<String> = (0..REQUESTS).map(|k| request_line(10, k)).collect();
    let mut oracle_input = String::new();
    for line in &lines {
        oracle_input.push_str(line);
        oracle_input.push('\n');
    }
    let oracle = stdin_oracle(&oracle_input);
    assert_eq!(oracle.len(), REQUESTS, "oracle answered every line");

    let daemon = Daemon::spawn_with(
        &["--workers", "2"],
        &[("LLMULATOR_FAULTS", "panic@2;error@5;delay@8=20")],
    );
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut payload = String::new();
    for line in &lines {
        payload.push_str(line);
        payload.push('\n');
    }
    conn.write_all(payload.as_bytes()).expect("send");
    // One connection dispatches serially, so request k is arrival k.
    let got = read_lines(&mut reader, REQUESTS);
    for (k, line) in got.iter().enumerate() {
        assert!(
            line.contains(&format!("\"id\":\"c10-r{k}\"")),
            "response {k} lost or out of order: {line}"
        );
        match k {
            2 => {
                assert!(
                    line.contains("\"ok\":false") && line.contains("\"kind\":\"internal\""),
                    "panicking request must fail internal: {line}"
                );
                assert!(line.contains("panicked during execution"), "{line}");
            }
            5 => {
                assert!(
                    line.contains("\"ok\":false") && line.contains("\"kind\":\"internal\""),
                    "forced-error request must fail internal: {line}"
                );
                assert!(line.contains("forced error"), "{line}");
            }
            _ => assert_eq!(
                line, &oracle[k],
                "non-faulted request {k} must match the stdin oracle bit for bit"
            ),
        }
    }
    conn.write_all(b"{\"id\": \"s\", \"stats\": true}\n")
        .expect("stats sent");
    let stats = read_lines(&mut reader, 1).remove(0);
    assert!(
        extract_u64(&stats, "panics_contained") >= 1,
        "containment must be counted: {stats}"
    );
    assert_eq!(
        extract_u64(&stats, "served"),
        REQUESTS as u64 - 2,
        "{stats}"
    );
    assert_eq!(extract_u64(&stats, "errors"), 2, "{stats}");
    assert_eq!(extract_u64(&stats, "deadline_shed"), 0, "{stats}");
    let summary = daemon.shutdown_and_wait();
    assert!(
        summary_count(&summary, "panic(s) contained") >= 1,
        "{summary}"
    );
}

/// A `timeout_ms: 0` request is shed at dequeue with a structured
/// `deadline_exceeded` error — never executed — while its neighbors on
/// the same connection are served normally.
#[test]
fn timeout_zero_requests_are_shed_with_deadline_exceeded() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let payload = format!(
        "{}\n{}\n{}\n",
        request_line_with_timeout(11, 0, 0),
        request_line(11, 1),
        request_line_with_timeout(11, 2, 0),
    );
    conn.write_all(payload.as_bytes()).expect("send");
    let got = read_lines(&mut reader, 3);
    for (k, line) in got.iter().enumerate() {
        assert!(
            line.contains(&format!("\"id\":\"c11-r{k}\"")),
            "response {k} lost or out of order: {line}"
        );
    }
    assert!(
        got[0].contains("\"kind\":\"deadline_exceeded\"")
            && got[0].contains("shed without executing"),
        "{}",
        got[0]
    );
    assert!(got[1].contains("\"ok\":true"), "{}", got[1]);
    assert!(
        got[2].contains("\"kind\":\"deadline_exceeded\""),
        "{}",
        got[2]
    );
    conn.write_all(b"{\"id\": \"s\", \"stats\": true}\n")
        .expect("stats sent");
    let stats = read_lines(&mut reader, 1).remove(0);
    assert_eq!(extract_u64(&stats, "deadline_shed"), 2, "{stats}");
    assert_eq!(extract_u64(&stats, "served"), 1, "{stats}");
    assert_eq!(extract_u64(&stats, "errors"), 0, "{stats}");
    let summary = daemon.shutdown_and_wait();
    assert!(summary.contains("2 deadline-shed"), "{summary}");
}

/// `{"stats": true}` and the shutdown line read one counter registry: after
/// valid, malformed and zero-deadline requests they agree on every count
/// they share, and both include the front end's error response.
#[test]
fn stats_reply_and_shutdown_line_report_the_same_counters() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let payload = format!(
        "{}\n{}\n{}\nthis line is not json\n{}\n",
        request_line(12, 0),
        request_line(12, 1),
        request_line(12, 2),
        request_line_with_timeout(12, 3, 0),
    );
    conn.write_all(payload.as_bytes()).expect("send");
    let got = read_lines(&mut reader, 5);
    assert!(
        got[3].contains("\"kind\":\"invalid_request\""),
        "{}",
        got[3]
    );
    assert!(
        got[4].contains("\"kind\":\"deadline_exceeded\""),
        "{}",
        got[4]
    );
    conn.write_all(b"{\"id\": \"s\", \"stats\": true}\n")
        .expect("stats sent");
    let stats = read_lines(&mut reader, 1).remove(0);
    let summary = daemon.shutdown_and_wait();
    for (key, suffix) in [
        ("served", "request(s) answered"),
        ("errors", "error response(s)"),
        ("shed", " shed,"),
        ("deadline_shed", "deadline-shed"),
        ("memo_hits", "hit(s)"),
        ("memo_misses", "miss(es)"),
    ] {
        assert_eq!(
            extract_u64(&stats, key),
            summary_count(&summary, suffix),
            "{key}: {stats} vs {summary}"
        );
    }
    assert_eq!(extract_u64(&stats, "errors"), 1, "{stats}");
    assert_eq!(extract_u64(&stats, "served"), 3, "{stats}");
    assert_eq!(extract_u64(&stats, "deadline_shed"), 1, "{stats}");
}

/// `--default-timeout-ms` applies to requests without their own deadline,
/// and an explicit generous `timeout_ms` overrides it.
#[test]
fn default_timeout_flag_applies_and_explicit_timeouts_override_it() {
    let daemon = Daemon::spawn(&["--workers", "1", "--default-timeout-ms", "0"]);
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let payload = format!(
        "{}\n{}\n",
        request_line(12, 0),
        request_line_with_timeout(12, 1, 60_000),
    );
    conn.write_all(payload.as_bytes()).expect("send");
    let got = read_lines(&mut reader, 2);
    assert!(
        got[0].contains("\"id\":\"c12-r0\"") && got[0].contains("\"kind\":\"deadline_exceeded\""),
        "default deadline must apply: {}",
        got[0]
    );
    assert!(
        got[1].contains("\"id\":\"c12-r1\"") && got[1].contains("\"ok\":true"),
        "explicit timeout must override the default: {}",
        got[1]
    );
    daemon.shutdown_and_wait();
}

/// A client that stops reading its responses is disconnected once its
/// bounded writer queue overflows, counted exactly once, and every other
/// connection keeps getting answers.
#[test]
fn slow_clients_are_disconnected_and_counted() {
    const ID_BYTES: usize = 512 * 1024;
    const REQUESTS: usize = 48;
    let daemon = Daemon::spawn_with(
        &["--workers", "1"],
        &[
            ("LLMULATOR_WRITER_CAP", "2"),
            ("LLMULATOR_WRITE_TIMEOUT_MS", "500"),
        ],
    );
    let slow = daemon.connect();
    slow.set_write_timeout(Some(Duration::from_secs(5)))
        .expect("write timeout");
    let mut slow_writer = slow.try_clone().expect("clone");
    // Responses echo the ~0.5 MB id. The client never reads, so the
    // kernel buffers fill, the daemon's writer blocks, the 2-deep writer
    // queue overflows, and the connection is condemned.
    let big_id = "x".repeat(ID_BYTES);
    let line =
        format!("{{\"id\": \"{big_id}\", \"tokens\": [1, 2, 3], \"metrics\": [\"cycles\"]}}\n");
    for _ in 0..REQUESTS {
        if slow_writer.write_all(line.as_bytes()).is_err() {
            break; // already condemned: the daemon closed the socket
        }
    }
    // A healthy second connection observes the disconnect counter and
    // still gets its own answers.
    let mut conn = daemon.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        conn.write_all(b"{\"stats\": true}\n").expect("stats sent");
        let stats = read_lines(&mut reader, 1).remove(0);
        if extract_u64(&stats, "slow_client_disconnects") >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slow client never condemned: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    conn.write_all((request_line(13, 0) + "\n").as_bytes())
        .expect("probe sent");
    let probe = read_lines(&mut reader, 1).remove(0);
    assert!(
        probe.contains("\"id\":\"c13-r0\"") && probe.contains("\"ok\":true"),
        "{probe}"
    );
    drop(slow_writer);
    drop(slow);
    let summary = daemon.shutdown_and_wait();
    assert_eq!(
        summary_count(&summary, "slow client(s) disconnected"),
        1,
        "condemned once, counted once: {summary}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Chaos interleavings: a seed-derived fault plan (panics, delays,
    /// forced errors) plus client-chosen zero deadlines, replayed at
    /// 1/2/4 workers. Every request is answered exactly once and in
    /// order, faulted requests fail with the right error kind, clean
    /// requests stay bit-identical to the stdin oracle, and the drain
    /// still exits 0.
    #[test]
    fn seeded_chaos_plans_never_lose_or_corrupt_responses(seed in 1u64..1_000_000) {
        const REQUESTS: usize = 12;
        #[derive(Clone, Copy, PartialEq)]
        enum Fate { Clean, Panic, Delay, Error, Deadline }
        let mut state = seed;
        let fates: Vec<Fate> = (0..REQUESTS)
            .map(|_| match xorshift(&mut state) % 10 {
                0 | 1 => Fate::Panic,
                2 => Fate::Delay,
                3 => Fate::Error,
                4 => Fate::Deadline,
                _ => Fate::Clean,
            })
            .collect();
        let spec = fates
            .iter()
            .enumerate()
            .filter_map(|(k, fate)| match fate {
                Fate::Panic => Some(format!("panic@{k}")),
                Fate::Delay => Some(format!("delay@{k}=5")),
                Fate::Error => Some(format!("error@{k}")),
                Fate::Clean | Fate::Deadline => None,
            })
            .collect::<Vec<_>>()
            .join(";");

        let clean_lines: Vec<String> = (0..REQUESTS).map(|k| request_line(14, k)).collect();
        let mut oracle_input = String::new();
        for line in &clean_lines {
            oracle_input.push_str(line);
            oracle_input.push('\n');
        }
        let oracle = stdin_oracle(&oracle_input);

        for workers in ["1", "2", "4"] {
            let daemon =
                Daemon::spawn_with(&["--workers", workers], &[("LLMULATOR_FAULTS", &spec)]);
            let mut conn = daemon.connect();
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            // One connection dispatches serially, so request k is arrival
            // k and the plan replays identically at every worker count.
            let mut payload = String::new();
            for (k, fate) in fates.iter().enumerate() {
                payload.push_str(&match fate {
                    Fate::Deadline => request_line_with_timeout(14, k, 0),
                    _ => clean_lines[k].clone(),
                });
                payload.push('\n');
            }
            conn.write_all(payload.as_bytes()).expect("send");
            let got = read_lines(&mut reader, REQUESTS);
            for (k, line) in got.iter().enumerate() {
                prop_assert!(
                    line.contains(&format!("\"id\":\"c14-r{k}\"")),
                    "workers={}: response {} lost or out of order: {}",
                    workers, k, line
                );
                match fates[k] {
                    Fate::Deadline => prop_assert!(
                        line.contains("\"kind\":\"deadline_exceeded\""),
                        "workers={}: {}", workers, line
                    ),
                    Fate::Panic | Fate::Error => prop_assert!(
                        line.contains("\"kind\":\"internal\""),
                        "workers={}: {}", workers, line
                    ),
                    Fate::Clean | Fate::Delay => prop_assert_eq!(
                        line, &oracle[k],
                        "workers={}: clean request {} must match the oracle", workers, k
                    ),
                }
            }
            let summary = daemon.shutdown_and_wait();
            prop_assert!(summary.contains("bye"), "{}", summary);
        }
    }
}

/// Pulls `"key":<u64>` out of a rendered stats response.
fn extract_u64(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag).map(|i| i + tag.len());
    let Some(start) = start else { return 0 };
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}
