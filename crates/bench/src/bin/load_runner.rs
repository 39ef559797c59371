//! Closed-loop and burst load generator for the `llmulator serve --tcp`
//! daemon, writing its JSON report to the required `--out` path. It checks
//! serving correctness under load and chaos (zero lost requests, structured
//! errors); `llmbench` measures serving performance.
//!
//! Boot a daemon first (`llmulator serve --model m.json --tcp 127.0.0.1:PORT`),
//! then run `cargo run --release -p llmulator-bench --bin load-runner --
//! --addr 127.0.0.1:PORT --out PATH [--quick] [--requests N]`.
//!
//! Two load shapes are driven against the same daemon:
//!
//! - **closed loop**: N connections, each sending one request and waiting
//!   for its response before the next — measures latency under increasing
//!   concurrency without ever overrunning the queue.
//! - **burst**: each connection pipelines its whole batch before reading
//!   any responses — deliberately overruns `--max-queue` so the shed path
//!   (structured `overloaded` errors) shows up in the shed-rate column.
//!
//! With `--chaos` a third level runs *first* (so a `LLMULATOR_FAULTS` plan
//! keyed on small arrival indices lands on it): one connection drives 24
//! closed-loop requests, every sixth carrying `timeout_ms: 0`, and the
//! responses are classified ok / shed / `internal` / `deadline_exceeded`.
//! The chaos invariant is the same exactly-one-response rule — injected
//! panics and deadlines must produce structured errors, never lost
//! requests.
//!
//! With `--feedback` a calibration level runs *last* against a daemon
//! booted with `--calibrate`: one connection interleaves an explicit
//! `"model": "calibrated"` stream and an explicit `"model": "default"`
//! probe stream (every fifth request is unrouted, exercising the A/B
//! split), all over one fixed token sequence. Each request after the first
//! of its stream carries `feedback` with a fixed biased ground truth and
//! the prediction the daemon just returned, so the background calibrator
//! sees a steady flow of preference triples. The row reports the
//! calibrated stream's head-window vs tail-window relative error, the
//! highest hot-swap `epoch` observed in any response, and the daemon's own
//! `calibration` counters. `feedback_improved` is a bounded-regression
//! guard (the tail must not regress more than 25% past the head — the
//! rollback guardrail demotes anything worse); the strict
//! error-goes-down claim is pinned in-process by
//! `tests/online_calibration.rs`, where the model is controlled.
//!
//! Every response is matched back to its request id; a request with no
//! response counts as **lost** and fails the run (nonzero exit), as does a
//! run that completes zero requests.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use llmulator::{Counter, LatencyHistogram};

/// One measured load level: counters plus client-side latency percentiles.
struct LevelResult {
    connections: usize,
    offered: u64,
    ok: u64,
    shed: u64,
    /// Structured `internal` errors (contained panics, injected faults).
    internal: u64,
    /// Structured `deadline_exceeded` errors (expired while queued).
    deadline: u64,
    /// Any other structured error response.
    errors: u64,
    lost: u64,
    elapsed: Duration,
    latency: LatencyHistogram,
}

impl LevelResult {
    fn empty(connections: usize, offered: u64) -> LevelResult {
        LevelResult {
            connections,
            offered,
            ok: 0,
            shed: 0,
            internal: 0,
            deadline: 0,
            errors: 0,
            lost: 0,
            elapsed: Duration::ZERO,
            latency: LatencyHistogram::new(),
        }
    }

    fn count(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Internal => self.internal += 1,
            Outcome::Deadline => self.deadline += 1,
            Outcome::OtherError => self.errors += 1,
        }
    }
}

impl LevelResult {
    fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ok as f64 / secs
        } else {
            0.0
        }
    }

    fn shed_rate(&self) -> f64 {
        if self.offered > 0 {
            self.shed as f64 / self.offered as f64
        } else {
            0.0
        }
    }
}

fn request_line(conn: usize, k: usize) -> String {
    format!(
        "{{\"id\": \"c{conn}-r{k}\", \"tokens\": [{}, {}, {}], \"metrics\": [\"cycles\"]}}\n",
        conn % 50,
        k % 50,
        (conn * 7 + k * 3) % 100
    )
}

fn expected_id(conn: usize, k: usize) -> String {
    // The daemon serializes responses compactly: `"id":"c0-r0"`.
    format!("\"id\":\"c{conn}-r{k}\"")
}

/// One response, classified by its `ok` flag / structured error kind.
#[derive(Clone, Copy)]
enum Outcome {
    Ok,
    Shed,
    Internal,
    Deadline,
    OtherError,
}

fn classify(line: &str) -> Outcome {
    if line.contains("\"ok\": true") || line.contains("\"ok\":true") {
        Outcome::Ok
    } else if line.contains("\"overloaded\"") {
        Outcome::Shed
    } else if line.contains("\"internal\"") {
        Outcome::Internal
    } else if line.contains("\"deadline_exceeded\"") {
        Outcome::Deadline
    } else {
        Outcome::OtherError
    }
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("load-runner: cannot connect to {addr}: {e}");
        std::process::exit(2);
    });
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    stream
}

/// One closed-loop client: send, wait for the matching response, repeat.
fn closed_loop_client(addr: &str, conn: usize, requests: usize) -> LevelResult {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut result = LevelResult::empty(1, requests as u64);
    for k in 0..requests {
        let line = request_line(conn, k);
        let sent = Instant::now();
        if writer.write_all(line.as_bytes()).is_err() {
            result.lost += (requests - k) as u64;
            break;
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(n) if n > 0 => {
                result.latency.record(sent.elapsed());
                if !response.contains(&expected_id(conn, k)) {
                    result.lost += 1;
                    continue;
                }
                result.count(classify(&response));
            }
            _ => {
                result.lost += (requests - k) as u64;
                break;
            }
        }
    }
    result
}

/// Number of requests the chaos level drives down its one connection.
const CHAOS_REQUESTS: usize = 24;

/// One chaos client: a single closed-loop connection whose arrival order
/// is deterministic (request index == pool arrival index on an idle
/// daemon), so an env-selected fault plan lands on predictable requests.
/// Every sixth request carries `timeout_ms: 0`, which always expires at
/// dequeue — exercising the deadline path alongside the injected faults.
fn chaos_client(addr: &str, conn: usize, requests: usize) -> LevelResult {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut result = LevelResult::empty(1, requests as u64);
    for k in 0..requests {
        let line = if k % 6 == 5 {
            format!(
                "{{\"id\": \"c{conn}-r{k}\", \"tokens\": [{}, {}], \"metrics\": [\"cycles\"], \
                 \"timeout_ms\": 0}}\n",
                conn % 50,
                k % 50
            )
        } else {
            request_line(conn, k)
        };
        let sent = Instant::now();
        if writer.write_all(line.as_bytes()).is_err() {
            result.lost += (requests - k) as u64;
            break;
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(n) if n > 0 => {
                result.latency.record(sent.elapsed());
                if !response.contains(&expected_id(conn, k)) {
                    result.lost += 1;
                    continue;
                }
                result.count(classify(&response));
            }
            _ => {
                result.lost += (requests - k) as u64;
                break;
            }
        }
    }
    result
}

/// Number of requests the feedback level drives down its one connection.
const FEEDBACK_REQUESTS: usize = 60;

/// The biased ground truth every feedback observation reports. The seed
/// model was never trained toward this value, so the calibrated variant
/// has room to move and the head/tail error comparison is meaningful.
const FEEDBACK_TRUTH: f64 = 2400.0;

/// The feedback level's result: the plain counters plus the calibration
/// observations the other levels have no use for.
struct FeedbackSummary {
    result: LevelResult,
    /// Mean |truth - prediction| / truth over the calibrated stream's
    /// first third.
    first_err: f64,
    /// Same over the last third.
    last_err: f64,
    /// Bounded-regression guard: tail error within 25% of head error.
    improved: bool,
    /// Highest hot-swap epoch observed in any success response.
    max_epoch: u64,
}

/// Pulls the first numeric value following `"key":` out of a JSON line.
/// Good enough for the few fields the runner reads back without dragging
/// a parser into the bench crate.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One feedback client: a single closed-loop connection interleaving a
/// `calibrated` stream (with biased ground-truth feedback), a `default`
/// probe stream (same truth, so the incumbent's rolling error is
/// populated for the rollback guardrail), and unrouted requests (A/B
/// split coverage). All requests share one token sequence so repeated DPO
/// observations compound on the same input and predictions stay
/// comparable across the run.
fn feedback_client(addr: &str, requests: usize) -> FeedbackSummary {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut result = LevelResult::empty(1, requests as u64);
    let mut max_epoch = 0u64;
    let mut cal_errs: Vec<f64> = Vec::new();
    let mut last_cal: Option<f64> = None;
    let mut last_def: Option<f64> = None;
    for k in 0..requests {
        let (model, last) = if k % 5 == 4 {
            (None, None)
        } else if k % 2 == 0 {
            (Some("calibrated"), last_cal)
        } else {
            (Some("default"), last_def)
        };
        let mut line =
            format!("{{\"id\": \"fb-r{k}\", \"tokens\": [11, 7, 13], \"metrics\": [\"cycles\"]");
        if let Some(m) = model {
            let _ = write!(line, ", \"model\": \"{m}\"");
        }
        if let Some(pred) = last {
            let _ = write!(
                line,
                ", \"feedback\": {{\"item\": 0, \"metric\": \"cycles\", \
                 \"actual\": {FEEDBACK_TRUTH}, \"predicted\": {pred}}}"
            );
        }
        line.push_str("}\n");
        let sent = Instant::now();
        if writer.write_all(line.as_bytes()).is_err() {
            result.lost += (requests - k) as u64;
            break;
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(n) if n > 0 => {
                result.latency.record(sent.elapsed());
                if !response.contains(&format!("\"id\":\"fb-r{k}\"")) {
                    result.lost += 1;
                    continue;
                }
                let outcome = classify(&response);
                result.count(outcome);
                if matches!(outcome, Outcome::Ok) {
                    if let Some(epoch) = json_number(&response, "epoch") {
                        max_epoch = max_epoch.max(epoch as u64);
                    }
                    if let Some(value) = json_number(&response, "value") {
                        match model {
                            Some("calibrated") => {
                                cal_errs.push((FEEDBACK_TRUTH - value).abs() / FEEDBACK_TRUTH);
                                last_cal = Some(value);
                            }
                            Some("default") => last_def = Some(value),
                            _ => {}
                        }
                    }
                }
            }
            _ => {
                result.lost += (requests - k) as u64;
                break;
            }
        }
    }
    let mean = |s: &[f64]| {
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    };
    let third = (cal_errs.len() / 3).max(1).min(cal_errs.len().max(1));
    let first_err = mean(cal_errs.get(..third.min(cal_errs.len())).unwrap_or(&[]));
    let last_err = mean(
        cal_errs
            .get(cal_errs.len().saturating_sub(third)..)
            .unwrap_or(&[]),
    );
    FeedbackSummary {
        result,
        first_err,
        last_err,
        improved: last_err <= first_err * 1.25 + 1e-9,
        max_epoch,
    }
}

/// One burst client: pipeline every request, then drain the responses.
fn burst_client(addr: &str, conn: usize, requests: usize) -> LevelResult {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut result = LevelResult::empty(1, requests as u64);
    let mut sent_at = Vec::with_capacity(requests);
    let mut written = 0usize;
    for k in 0..requests {
        let line = request_line(conn, k);
        sent_at.push(Instant::now());
        if writer.write_all(line.as_bytes()).is_err() {
            break;
        }
        written = k + 1;
    }
    let _ = writer.flush();
    result.lost += (requests - written) as u64;
    // Responses come back in per-connection request order, so the k-th
    // line answers the k-th request.
    for (k, &sent) in sent_at.iter().take(written).enumerate() {
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(n) if n > 0 => {
                result.latency.record(sent.elapsed());
                if !response.contains(&expected_id(conn, k)) {
                    result.lost += 1;
                    continue;
                }
                result.count(classify(&response));
            }
            _ => {
                result.lost += (written - k) as u64;
                break;
            }
        }
    }
    result
}

/// Fan a level out over `connections` client threads and fold the results.
fn run_level<F>(addr: &str, connections: usize, requests: usize, client: F) -> LevelResult
where
    F: Fn(&str, usize, usize) -> LevelResult + Send + Copy,
{
    let start = Instant::now();
    let mut folded = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| scope.spawn(move || client(addr, conn, requests)))
            .collect();
        let mut folded = LevelResult::empty(connections, 0);
        for handle in handles {
            let part = handle.join().expect("client thread");
            folded.offered += part.offered;
            folded.ok += part.ok;
            folded.shed += part.shed;
            folded.internal += part.internal;
            folded.deadline += part.deadline;
            folded.errors += part.errors;
            folded.lost += part.lost;
            folded.latency.merge(&part.latency);
        }
        folded
    });
    folded.elapsed = start.elapsed();
    folded
}

/// Ask the daemon for its own counters; returns the raw JSON line.
fn fetch_server_stats(addr: &str) -> Option<String> {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = stream;
    writer
        .write_all(b"{\"id\": \"stats\", \"stats\": true}\n")
        .ok()?;
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let trimmed = line.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_string())
    }
}

fn push_row(json: &mut String, row: &LevelResult, indent: &str, trailing_comma: bool) {
    let summary = row.latency.summary();
    let (p50, p90, p99, max) = summary
        .map(|s| (s.p50_micros, s.p90_micros, s.p99_micros, s.max_micros))
        .unwrap_or((0, 0, 0, 0));
    let _ = writeln!(
        json,
        "{indent}{{\"connections\": {}, \"offered\": {}, \"ok\": {}, \"shed\": {}, \
         \"internal\": {}, \"deadline\": {}, \
         \"errors\": {}, \"lost\": {}, \"throughput_rps\": {:.1}, \"shed_rate\": {:.4}, \
         \"p50_us\": {p50}, \"p90_us\": {p90}, \"p99_us\": {p99}, \"max_us\": {max}}}{}",
        row.connections,
        row.offered,
        row.ok,
        row.shed,
        row.internal,
        row.deadline,
        row.errors,
        row.lost,
        row.throughput_rps(),
        row.shed_rate(),
        if trailing_comma { "," } else { "" },
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let chaos = args.iter().any(|a| a == "--chaos");
    let feedback = args.iter().any(|a| a == "--feedback");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let (Some(addr), Some(out_path)) = (flag_value("--addr"), flag_value("--out")) else {
        eprintln!(
            "usage: load-runner --addr HOST:PORT --out PATH [--quick] [--chaos] [--feedback] \
             [--requests N]\n\
             boot the daemon first: llmulator serve --model m.json --tcp 127.0.0.1:PORT\n\
             (--feedback expects a daemon booted with --calibrate)"
        );
        std::process::exit(2);
    };
    let default_requests = if quick { 8 } else { 50 };
    let requests: usize = flag_value("--requests")
        .map(|v| v.parse().expect("--requests takes an integer"))
        .unwrap_or(default_requests);
    let levels: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let (burst_conns, burst_requests) = if quick { (2, 32) } else { (4, 100) };

    eprintln!("load-runner: target {addr}, {requests} request(s) per closed-loop connection");
    // The chaos level must run FIRST: a `LLMULATOR_FAULTS` plan keys on
    // pool arrival indices, and only the first requests of a fresh daemon
    // have predictable ones.
    let chaos_result = chaos.then(|| {
        eprintln!(
            "load-runner: chaos, 1 connection x {CHAOS_REQUESTS} closed-loop \
             (every 6th with timeout_ms: 0)..."
        );
        run_level(&addr, 1, CHAOS_REQUESTS, chaos_client)
    });
    let mut closed = Vec::new();
    for &connections in levels {
        eprintln!("load-runner: closed loop, {connections} connection(s)...");
        closed.push(run_level(&addr, connections, requests, closed_loop_client));
    }
    eprintln!("load-runner: burst, {burst_conns} connection(s) x {burst_requests} pipelined...");
    let burst = run_level(&addr, burst_conns, burst_requests, burst_client);
    // The feedback level runs LAST so its hot swaps and calibration
    // counters are visible in the final server-stats snapshot.
    let feedback_result = feedback.then(|| {
        eprintln!(
            "load-runner: feedback, 1 connection x {FEEDBACK_REQUESTS} closed-loop \
             (biased ground truth {FEEDBACK_TRUTH})..."
        );
        let start = Instant::now();
        let mut fb = feedback_client(&addr, FEEDBACK_REQUESTS);
        fb.result.elapsed = start.elapsed();
        // Give the background calibrator a beat to drain the tail of the
        // feedback stream before the counters are snapshotted.
        std::thread::sleep(Duration::from_millis(300));
        fb
    });
    let server_stats = fetch_server_stats(&addr);

    let total_ok: u64 = closed.iter().map(|r| r.ok).sum::<u64>()
        + burst.ok
        + chaos_result.as_ref().map_or(0, |r| r.ok)
        + feedback_result.as_ref().map_or(0, |r| r.result.ok);
    let total_lost: u64 = closed.iter().map(|r| r.lost).sum::<u64>()
        + burst.lost
        + chaos_result.as_ref().map_or(0, |r| r.lost)
        + feedback_result.as_ref().map_or(0, |r| r.result.lost);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"meta\": {{\"quick\": {quick}, \"chaos\": {chaos}, \"feedback\": {feedback}, \
         \"addr\": \"{addr}\", \
         \"requests_per_connection\": {requests}, \"burst_connections\": {burst_conns}, \
         \"burst_requests_per_connection\": {burst_requests}, \
         \"available_parallelism\": {}}},",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if let Some(row) = &chaos_result {
        json.push_str("  \"chaos\":\n");
        push_row(&mut json, row, "    ", true);
    }
    json.push_str("  \"closed_loop\": [\n");
    for (i, row) in closed.iter().enumerate() {
        push_row(&mut json, row, "    ", i + 1 < closed.len());
    }
    json.push_str("  ],\n");
    json.push_str("  \"burst\":\n");
    push_row(&mut json, &burst, "    ", true);
    if let Some(fb) = &feedback_result {
        // Updates/swaps come from the daemon's own counters so the row is
        // greppable even when `server_stats` parsing changes shape.
        let stats_num = |counter: Counter| {
            server_stats
                .as_deref()
                .and_then(|s| json_number(s, counter.key()))
                .map_or(0, |v| v as u64)
        };
        let _ = writeln!(
            json,
            "  \"feedback\": {{\"offered\": {}, \"ok\": {}, \"lost\": {}, \
             \"first_window_err\": {:.4}, \"last_window_err\": {:.4}, \
             \"feedback_improved\": {}, \"max_epoch\": {}, \
             \"calibration_updates\": {}, \"hot_swaps\": {}}},",
            fb.result.offered,
            fb.result.ok,
            fb.result.lost,
            fb.first_err,
            fb.last_err,
            fb.improved,
            fb.max_epoch,
            stats_num(Counter::Updates),
            stats_num(Counter::HotSwaps),
        );
    }
    let _ = writeln!(
        json,
        "  \"server_stats\": {}",
        server_stats.as_deref().unwrap_or("null"),
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("load-runner: wrote {out_path}");

    if total_lost > 0 {
        eprintln!("load-runner: FAILED — {total_lost} request(s) lost");
        std::process::exit(1);
    }
    if total_ok == 0 {
        eprintln!("load-runner: FAILED — zero requests completed successfully");
        std::process::exit(1);
    }
    eprintln!("load-runner: {total_ok} ok, 0 lost");
}
