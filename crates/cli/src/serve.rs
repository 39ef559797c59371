//! `llmulator serve` — a long-lived JSONL prediction daemon.
//!
//! The daemon loads a trained model into an [`Engine`] and answers
//! newline-delimited JSON: one request object per input line,
//! one response object per output line, correlated by the request's `id`
//! field (echoed verbatim). Malformed lines are answered with a structured
//! error object — they never kill the process. Two transports share the
//! exact same dispatch path (so their answers are bit-identical):
//!
//! * **stdin/stdout** (default): EOF on stdin ends the loop with a clean
//!   exit. The local pipe gets *backpressure*: a line that finds the queue
//!   full blocks the reader in [`ServePool::submit_wait`](llmulator::ServePool::submit_wait)
//!   until a worker frees space, so piping a large request file never drops
//!   lines.
//! * **TCP** (`--tcp ADDR`, see [`crate::net`]): many concurrent clients,
//!   load-shedding with structured `overloaded` errors when the queue is
//!   full, graceful drain on SIGTERM.
//!
//! ## Wire protocol
//!
//! Request (one JSON object per line; exactly one of `program`/`tokens`):
//!
//! ```json
//! {"id": 1, "program": "void f(...) {...}", "inputs": {"n": 64},
//!  "metrics": ["cycles", "power"], "threads": 2,
//!  "feedback": {"metric": "cycles", "actual": 120.0, "predicted": 90.0}}
//! ```
//!
//! `beam_width` is accepted and validated (an integer in 0–256) but
//! ignored: digits decode greedily, which is what the top beam of any width
//! decoded, so the field never changed a reply.
//!
//! Success response:
//!
//! ```json
//! {"id": 1, "ok": true, "model": "default", "predictions": [
//!   {"metric": "cycles", "value": 512.0, "digits": [0,0,5,1,2],
//!    "confidence": 0.93, "mean_confidence": 0.88}]}
//! ```
//!
//! Error response (`id` is `null` when the line was unparseable):
//!
//! ```json
//! {"id": 1, "ok": false, "error": {"kind": "invalid_request",
//!  "message": "...", "chain": ["...", "..."]}}
//! ```
//!
//! Two admin request types ride the same framing: `{"stats": true}` returns
//! the serving counters and latency percentiles, `{"shutdown": true}`
//! acknowledges and drains the daemon (stop accepting, finish everything
//! already accepted, exit 0). Every layer counts into the engine's one
//! registry ([`Engine::counters`](llmulator::Engine::counters)): the pool,
//! the dispatcher (front-end error responses), the writers (slow clients),
//! the session memos and the calibrator. The stats reply and the shutdown
//! line both render from it, so they always agree.
//!
//! Requests are micro-batched by a shared [`ServePool`]: every line
//! buffered when a worker turns — across *all* connections in TCP mode — is answered in one
//! [`Session::predict_micro_batch`](llmulator::Session::predict_micro_batch)
//! call, bit-identical to serial prediction. Responses come back on each
//! connection in request order (a sequencing writer reorders out-of-order
//! pool completions).

use llmulator::{
    AbRouter, CalibrationConfig, Calibrator, CalibratorCore, Counter, Counters, Engine,
    EngineConfig, Error, FaultPlan, Feedback, NumericPredictor, PoolConfig, PredictRequest,
    PredictResponse, ServeJob, ServePool,
};
use llmulator_sim::Metric;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Entry point for the `serve` subcommand (called from `main` before the
/// one-shot command dispatcher; owns its own stdout loop).
pub(crate) fn run(args: &[String]) -> ExitCode {
    match serve(args) {
        Ok(summary) => {
            eprintln!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}", e.chain());
            // Same rule as the one-shot commands in `main`: usage helps
            // only when the command line itself was at fault.
            if e.kind() == "invalid_argument" {
                eprintln!("\n{}", crate::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}

/// The shutdown line, rendered once the transport has drained and the
/// calibrator has stopped. Its `calibration:` clause appears exactly when
/// the feedback queue is enabled, which is under `--calibrate`.
fn shutdown_line(engine: &Engine) -> String {
    let counters = engine.counters();
    let n = |counter| counters.get(counter);
    let latency = match counters.latency() {
        None => "no latency samples".to_string(),
        Some(l) => format!(
            "latency p50/p90/p99/max {}/{}/{}/{} us over {} request(s)",
            l.p50_micros, l.p90_micros, l.p99_micros, l.max_micros, l.count
        ),
    };
    let calibration = if engine.feedback().is_enabled() {
        format!(
            "; calibration: {} update(s), {} hot swap(s), {} rollback(s), {} checkpoint(s)",
            n(Counter::Updates),
            n(Counter::HotSwaps),
            n(Counter::CalibrationsRolledBack),
            n(Counter::Checkpoints)
        )
    } else {
        String::new()
    };
    format!(
        "serve: {} request(s) answered, {} error response(s), {} shed, {} deadline-shed; \
         {} panic(s) contained, {} worker(s) respawned, {} slow client(s) disconnected; \
         {latency}{calibration}; memo {} hit(s), {} miss(es); bye",
        n(Counter::Served),
        n(Counter::Errors),
        n(Counter::Shed),
        n(Counter::DeadlineShed),
        n(Counter::PanicsContained),
        n(Counter::WorkersRespawned),
        n(Counter::SlowClientDisconnects),
        n(Counter::MemoHits),
        n(Counter::MemoMisses),
    )
}

fn serve(args: &[String]) -> Result<String, Error> {
    crate::check_flags(args, "serve", crate::SERVE_FLAGS)?;
    let model_path = crate::flag_value(args, "--model")?.unwrap_or("model.json");
    let max_batch = crate::parse_flag(args, "--max-batch", 64usize)?.max(1);
    let max_queue = crate::parse_flag(args, "--max-queue", 256usize)?.max(1);
    let tcp = crate::flag_value(args, "--tcp")?.map(str::to_string);
    let workers = match crate::flag_value(args, "--workers")? {
        // The default (0) is never used: the flag is known to be present.
        Some(_) => crate::parse_flag(args, "--workers", 0usize)?.max(1),
        // Stdin serves one pipe; TCP defaults to a pool sized for the host.
        None if tcp.is_some() => std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
        None => 1,
    };
    let mut config = EngineConfig::new();
    if crate::flag_value(args, "--threads")?.is_some() {
        config = config.threads(crate::parse_flag(args, "--threads", 0usize)?);
    }
    let default_timeout = match crate::flag_value(args, "--default-timeout-ms")? {
        Some(_) => Some(Duration::from_millis(crate::parse_flag(
            args,
            "--default-timeout-ms",
            0u64,
        )?)),
        None => None,
    };
    let calibrate = crate::has_flag(args, "--calibrate");
    let ab_split = crate::parse_flag(args, "--ab-split", 50u32)?;
    if ab_split > 100 {
        return Err(Error::InvalidArgument(format!(
            "--ab-split {ab_split} is a percentage and must be 0..=100"
        )));
    }
    if !calibrate
        && (crate::flag_value(args, "--ab-split")?.is_some()
            || crate::flag_value(args, "--checkpoint-every")?.is_some())
    {
        return Err(Error::InvalidArgument(
            "--ab-split/--checkpoint-every only apply with --calibrate".into(),
        ));
    }
    let checkpoint_every = crate::parse_flag(args, "--checkpoint-every", 32u64)?;
    if calibrate {
        // Bounded cross-session feedback queue feeding the background
        // calibrator; without --calibrate it stays disabled (capacity 0).
        config = config.feedback_capacity(1024);
    }
    let engine = config.build();
    engine.load_predictor("default", model_path)?;
    let engine = Arc::new(engine);
    let calibrator = if calibrate {
        Some(start_calibrator(
            &engine,
            model_path,
            ab_split,
            checkpoint_every,
        )?)
    } else {
        None
    };
    let pool_config = PoolConfig {
        workers,
        max_batch,
        max_queue,
        default_timeout,
    };
    // Chaos-testing hook: an env-selected fault plan lets CI and the
    // load-runner exercise panic containment / deadline shedding against a
    // release daemon without recompiling. Loud on stderr — never leave
    // this on in production.
    let faults = match std::env::var("LLMULATOR_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::from_spec(&spec)
                .map_err(|e| e.context("invalid LLMULATOR_FAULTS fault spec"))?;
            eprintln!(
                "serve: FAULT INJECTION ACTIVE — {} fault(s) from LLMULATOR_FAULTS \
                 (testing only)",
                plan.len()
            );
            plan
        }
        _ => FaultPlan::default(),
    };
    let pool = ServePool::start_with_faults(Arc::clone(&engine), pool_config, faults);
    let served = match tcp {
        Some(addr) => crate::net::run_tcp(&addr, pool, pool_config),
        None => {
            eprintln!(
                "serve: model `{model_path}` loaded; one JSON request per line on stdin \
                 ({workers} worker(s), micro-batch up to {max_batch})"
            );
            serve_stdin(pool);
            Ok(())
        }
    };
    // Stop the background calibrator after the transport has drained: it
    // ingests any remaining feedback, publishes the final swap and writes
    // the final checkpoint before the summary is rendered.
    if let Some(calibrator) = calibrator {
        calibrator.stop();
    }
    served.map(|()| shutdown_line(&engine))
}

/// Builds and spawns the background calibration worker: resume the variant
/// from the previous run's checkpoint when one loads (a restarted daemon
/// keeps its learned corrections), otherwise start from a clone of the
/// frozen incumbent; then install the A/B router splitting unrouted
/// traffic `(100 - ab_split) : ab_split` between `default` and
/// `calibrated`.
fn start_calibrator(
    engine: &Arc<Engine>,
    model_path: &str,
    ab_split: u32,
    checkpoint_every: u64,
) -> Result<Calibrator, Error> {
    let checkpoint = PathBuf::from(format!("{model_path}.calibrated"));
    let (start, resumed) = match NumericPredictor::load_calibrated(&checkpoint) {
        Ok((model, meta)) => (model, meta.is_some()),
        Err(_) => {
            let resolved = engine.resolve(Some("default"))?;
            let Some(predictor) = resolved.model.as_predictor() else {
                return Err(Error::InvalidArgument(
                    "--calibrate needs a predictor-backed default model".into(),
                ));
            };
            (predictor.clone(), false)
        }
    };
    if resumed {
        eprintln!(
            "serve: calibration resumed from checkpoint `{}`",
            checkpoint.display()
        );
    }
    let core = CalibratorCore::new(
        Arc::clone(engine),
        start,
        CalibrationConfig {
            checkpoint_every,
            checkpoint_path: Some(checkpoint),
            ..CalibrationConfig::default()
        },
    );
    engine.set_router(Some(AbRouter::new(vec![
        ("default".to_string(), 100 - ab_split),
        ("calibrated".to_string(), ab_split),
    ])?))?;
    eprintln!(
        "serve: online calibration active ({ab_split}% of unrouted requests to `calibrated`, \
         checkpoint every {checkpoint_every} update step(s))"
    );
    Ok(Calibrator::spawn(core))
}

/// The stdin/stdout transport: reads lines on this thread, dispatches them
/// through the shared pool, and lets a sequencing writer thread keep stdout
/// in request order. EOF (or `{"shutdown": true}`) drains and returns.
fn serve_stdin(mut pool: ServePool) {
    let (tx, rx) = mpsc::channel();
    let gone = Arc::new(AtomicBool::new(false));
    let writer = {
        let gone = Arc::clone(&gone);
        let engine = Arc::clone(pool.engine());
        std::thread::spawn(move || {
            let stdout = std::io::stdout();
            writer_loop(stdout.lock(), &rx, &gone, engine.counters());
        })
    };
    {
        // Stdout is a local pipe, not a remote client: keep the unbounded
        // channel (the reader blocking on a full queue bounds it in
        // practice).
        let mut dispatcher = Dispatcher::new(&pool, ResponseTx::Unbounded(tx));
        // A stdout hang-up (EPIPE) sets `gone`: stop reading, drain, exit
        // clean — `llmulator serve | head` must not error.
        crate::net::read_lines(std::io::stdin().lock(), &mut dispatcher, &gone);
    }
    pool.drain();
    let _ = writer.join();
}

/// One input line, classified. `Request` carries the echoed `id`, the
/// typed request and its per-request deadline (the `timeout_ms` wire
/// field); `Invalid` still carries whatever `id` could be recovered.
pub(crate) enum Parsed {
    /// Blank line — ignored, no response.
    Empty,
    /// A well-formed prediction request.
    Request(Value, PredictRequest, Option<Duration>),
    /// A line that gets a structured error response without touching the
    /// pool.
    Invalid(Value, Error),
    /// `{"stats": true}` — answer with counters and latency percentiles.
    Stats(Value),
    /// `{"shutdown": true}` — acknowledge, then drain the daemon.
    Shutdown(Value),
}

/// Classifies one request line (see [`Parsed`]).
pub(crate) fn classify_line(line: &str) -> Parsed {
    if line.trim().is_empty() {
        return Parsed::Empty;
    }
    let value = match serde_json::parse_value(line) {
        Ok(v) => v,
        Err(e) => {
            return Parsed::Invalid(
                Value::Null,
                Error::InvalidRequest(format!("malformed JSON: {e}")),
            )
        }
    };
    let Some(pairs) = value.as_object() else {
        return Parsed::Invalid(
            Value::Null,
            Error::InvalidRequest(format!(
                "request must be a JSON object, got {}",
                type_name(&value)
            )),
        );
    };
    let id = get(pairs, "id").cloned().unwrap_or(Value::Null);
    for (key, admin) in [
        ("stats", Parsed::Stats as fn(Value) -> Parsed),
        ("shutdown", Parsed::Shutdown as fn(Value) -> Parsed),
    ] {
        if let Some(v) = get(pairs, key) {
            return if v == &Value::Bool(true) {
                admin(id)
            } else {
                Parsed::Invalid(
                    id,
                    Error::InvalidRequest(format!("`{key}` must be the literal `true`")),
                )
            };
        }
    }
    match build_request(pairs) {
        Ok((request, timeout)) => Parsed::Request(id, request, timeout),
        Err(e) => Parsed::Invalid(id, e),
    }
}

/// How each transport hands responses to its writer thread — and so how a
/// full pool queue is handled. Stdin keeps an unbounded channel and its
/// reader blocks on a full pool queue (backpressure); TCP bounds the
/// channel so a client that stops reading is condemned (`gone`) once it
/// fills, instead of buffering responses without limit, and a full pool
/// queue sheds its requests.
#[derive(Clone)]
pub(crate) enum ResponseTx {
    /// Unbounded — for the local stdin/stdout pipe.
    Unbounded(mpsc::Sender<(u64, String)>),
    /// Bounded — for TCP connections. On a full queue the connection is
    /// marked gone and counted as a slow-client disconnect; the writer
    /// drains and discards, the reader stops, the socket closes.
    Bounded {
        /// The bounded channel into the connection's writer thread.
        tx: mpsc::SyncSender<(u64, String)>,
        /// Set when the client is hung up or condemned.
        gone: Arc<AtomicBool>,
        /// The engine whose registry counts slow-client disconnects.
        engine: Arc<Engine>,
    },
}

impl ResponseTx {
    /// Hands one `(seq, line)` response to the writer. Never blocks: a
    /// bounded queue that is full condemns the connection instead.
    fn send(&self, seq: u64, line: String) {
        match self {
            ResponseTx::Unbounded(tx) => {
                let _ = tx.send((seq, line));
            }
            ResponseTx::Bounded { tx, gone, engine } => {
                if gone.load(Ordering::Relaxed) {
                    return; // already condemned: drop the response
                }
                match tx.try_send((seq, line)) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(_)) => {
                        // The client stopped reading long enough for its
                        // whole writer queue to fill: disconnect it rather
                        // than buffer unboundedly. `swap` keeps the count
                        // at one per connection.
                        if !gone.swap(true, Ordering::Relaxed) {
                            engine.counters().add(Counter::SlowClientDisconnects, 1);
                        }
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => {}
                }
            }
        }
    }
}

/// The one request-dispatch path both transports share. Each line gets a
/// monotonically increasing sequence number; every response — whether
/// produced inline (errors, stats) or by a pool worker — is sent to the
/// connection's writer as `(seq, line)`, and the writer emits them in
/// sequence order. That keeps responses in request order per connection
/// even though pool completions interleave across connections.
pub(crate) struct Dispatcher<'p> {
    pool: &'p ServePool,
    out: ResponseTx,
    next_seq: u64,
}

impl<'p> Dispatcher<'p> {
    pub(crate) fn new(pool: &'p ServePool, out: ResponseTx) -> Dispatcher<'p> {
        Dispatcher {
            pool,
            out,
            next_seq: 0,
        }
    }

    /// Routes one input line. Returns `false` when the line asked the
    /// daemon to shut down (the shutdown is acknowledged first).
    pub(crate) fn dispatch(&mut self, line: &str) -> bool {
        match classify_line(line) {
            Parsed::Empty => true,
            Parsed::Request(id, request, timeout) => {
                let seq = self.take_seq();
                let out = self.out.clone();
                // Deterministic A/B routing: hash the rendered `id` so the
                // same request id always lands on the same variant (requests
                // naming a `model` bypass the router entirely).
                let request = request.route_key(llmulator::route_key(id.to_string().as_bytes()));
                let job = ServeJob::new(request, move |result, _| {
                    let value = match result {
                        Ok(response) => success_response(&id, &response),
                        Err(e) => error_response(id, &e),
                    };
                    out.send(seq, value.to_string());
                })
                .timeout(timeout);
                match self.out {
                    // The local pipe pauses its reader on a full queue
                    // (backpressure, so no line is ever dropped); remote
                    // clients are shed with `overloaded` instead.
                    ResponseTx::Unbounded(_) => self.pool.submit_wait(job),
                    ResponseTx::Bounded { .. } => self.pool.submit(job),
                }
                true
            }
            Parsed::Invalid(id, e) => {
                self.answer_error(id, &e);
                true
            }
            Parsed::Stats(id) => {
                let value = stats_response(&id, self.pool.engine(), self.pool.depth());
                self.send(value);
                true
            }
            Parsed::Shutdown(id) => {
                crate::net::SHUTDOWN.store(true, Ordering::SeqCst);
                self.send(serde_json::json!({
                    "id": id,
                    "ok": true,
                    "shutting_down": true,
                }));
                false
            }
        }
    }

    /// Answers a line that never reaches the parser (e.g. oversized) with
    /// a structured error response.
    pub(crate) fn reject(&mut self, error: &Error) {
        self.answer_error(Value::Null, error);
    }

    /// Answers an error that never enters the pool, counted in the
    /// engine's `errors` before the reply is sent.
    fn answer_error(&mut self, id: Value, error: &Error) {
        self.pool.engine().counters().add(Counter::Errors, 1);
        self.send(error_response(id, error));
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn send(&mut self, value: Value) {
        let seq = self.take_seq();
        self.out.send(seq, value.to_string());
    }
}

/// The per-connection response writer: receives `(seq, line)` pairs in
/// completion order, emits them in sequence order (buffering gaps), and
/// flushes whenever the channel runs dry. A write failure sets `gone` so
/// the transport stops reading — the unified hung-up-client behavior of
/// both stdin and TCP modes. A write *timeout* (a stalled client whose
/// TCP window filled) is the writer-side flavor of a slow client, so it
/// is also counted in `counters` — once per connection, shared with the
/// queue-overflow path through the same `gone` swap.
pub(crate) fn writer_loop<W: Write>(
    mut out: W,
    rx: &mpsc::Receiver<(u64, String)>,
    gone: &AtomicBool,
    counters: &Counters,
) {
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut next = 0u64;
    loop {
        let (seq, line) = match rx.try_recv() {
            Ok(message) => message,
            Err(mpsc::TryRecvError::Empty) => {
                // Nothing buffered: flush what we have, then block.
                let _ = out.flush();
                match rx.recv() {
                    Ok(message) => message,
                    Err(_) => break,
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => break,
        };
        pending.insert(seq, line);
        while let Some(line) = pending.remove(&next) {
            next += 1;
            if gone.load(Ordering::Relaxed) {
                continue; // client hung up: drain the channel, write nothing
            }
            if let Err(e) = writeln!(out, "{line}") {
                let was_gone = gone.swap(true, Ordering::Relaxed);
                // EPIPE/reset is a client that *left* (not counted here);
                // a blocked write that timed out is a client that stopped
                // *reading* — the slow-client disconnect this counter is
                // for.
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                if !was_gone && timed_out {
                    counters.add(Counter::SlowClientDisconnects, 1);
                }
            }
        }
    }
    let _ = out.flush();
}

/// Builds the success response object for one answered request.
fn success_response(id: &Value, response: &PredictResponse) -> Value {
    let predictions: Vec<Value> = response.items[0]
        .metrics
        .iter()
        .map(|mv| {
            serde_json::json!({
                "metric": metric_name(mv.metric),
                "value": mv.value,
                "digits": mv.digits.clone().unwrap_or_default(),
                "confidence": f64::from(mv.confidence.unwrap_or(0.0)),
                "mean_confidence": f64::from(mv.mean_confidence.unwrap_or(0.0)),
            })
        })
        .collect();
    serde_json::json!({
        "id": id.clone(),
        "ok": true,
        "model": response.model.clone(),
        "epoch": response.epoch,
        "predictions": predictions,
    })
}

/// Builds the `{"stats": true}` response: every registry counter (the
/// calibrator's nested under `calibration`), the queue `depth`, latency
/// percentiles, the swap epoch, the per-model scorecards and the feedback
/// queue's own figures.
fn stats_response(id: &Value, engine: &Engine, depth: usize) -> Value {
    let counters = engine.counters();
    let count = |c: &Counter| (c.key().to_string(), Value::U64(counters.get(*c)));
    let latency = match counters.latency() {
        None => Value::Null,
        Some(l) => serde_json::json!({
            "count": l.count,
            "p50": l.p50_micros,
            "p90": l.p90_micros,
            "p99": l.p99_micros,
            "max": l.max_micros,
        }),
    };
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::F64);
    let models: Vec<Value> = engine
        .scoreboard()
        .snapshot()
        .iter()
        .map(|card| {
            serde_json::json!({
                "model": card.model.clone(),
                "ok_requests": card.ok_requests,
                "feedback_count": card.feedback_count,
                "window_len": card.window_len as u64,
                "rolling_error": opt(card.rolling_error),
                "mean_latency_us": opt(card.mean_latency_us),
            })
        })
        .collect();
    let (calibration, serving): (Vec<Counter>, Vec<Counter>) =
        Counter::ALL.into_iter().partition(|c| c.is_calibration());
    let feedback = engine.feedback();
    let mut calibration: Vec<(String, Value)> = calibration.iter().map(count).collect();
    calibration.extend([
        ("queue_depth".into(), Value::U64(feedback.len() as u64)),
        ("feedback_accepted".into(), Value::U64(feedback.accepted())),
        ("feedback_dropped".into(), Value::U64(feedback.dropped())),
    ]);
    let mut stats: Vec<(String, Value)> = serving.iter().map(count).collect();
    stats.extend([
        ("queue_depth".into(), Value::U64(depth as u64)),
        ("latency_us".into(), latency),
        ("swap_epoch".into(), Value::U64(engine.swap_epoch())),
        ("models".into(), Value::Array(models)),
        ("calibration".into(), Value::Object(calibration)),
    ]);
    serde_json::json!({
        "id": id.clone(),
        "ok": true,
        "stats": Value::Object(stats),
    })
}

/// Builds the structured error object for one failed request.
fn error_response(id: Value, error: &Error) -> Value {
    let chain: Vec<Value> = error.chain_messages().into_iter().map(Value::Str).collect();
    serde_json::json!({
        "id": id,
        "ok": false,
        "error": {
            "kind": error.kind(),
            "message": error.to_string(),
            "chain": Value::Array(chain),
        },
    })
}

/// Parses one request line into its echoed `id` and a typed request.
/// Production code goes through [`classify_line`]; this wrapper keeps the
/// parser's unit tests in request/result form.
#[cfg(test)]
fn parse_request(line: &str) -> (Value, Result<PredictRequest, Error>) {
    match classify_line(line) {
        Parsed::Request(id, request, _) => (id, Ok(request)),
        Parsed::Invalid(id, e) => (id, Err(e)),
        Parsed::Empty => (
            Value::Null,
            Err(Error::InvalidRequest("empty request line".into())),
        ),
        Parsed::Stats(id) | Parsed::Shutdown(id) => (
            id,
            Err(Error::InvalidRequest(
                "admin request, not a prediction".into(),
            )),
        ),
    }
}

/// Largest `beam_width` a request may carry. The field no longer affects
/// decoding; the cap keeps the wire contract clients were written against.
const MAX_BEAM_WIDTH: usize = 256;

fn build_request(pairs: &[(String, Value)]) -> Result<(PredictRequest, Option<Duration>), Error> {
    const KNOWN: &[&str] = &[
        "id",
        "program",
        "inputs",
        "tokens",
        "metrics",
        "beam_width",
        "threads",
        "model",
        "feedback",
        "timeout_ms",
    ];
    if let Some((key, _)) = pairs.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
        return Err(Error::InvalidRequest(format!(
            "unknown field `{key}` (expected one of: {})",
            KNOWN.join(", ")
        )));
    }

    let mut request = PredictRequest::new();
    match (get(pairs, "program"), get(pairs, "tokens")) {
        (Some(program), None) => {
            let Some(source) = program.as_str() else {
                return Err(Error::InvalidRequest("`program` must be a string".into()));
            };
            let inputs = match get(pairs, "inputs") {
                None => Vec::new(),
                Some(v) => parse_bindings(v)?,
            };
            request = request.input(llmulator::PredictInput::Source {
                program: source.to_string(),
                inputs,
            });
        }
        (None, Some(tokens)) => {
            request = request.input(llmulator::PredictInput::Tokens(parse_tokens(tokens)?));
        }
        (Some(_), Some(_)) => {
            return Err(Error::InvalidRequest(
                "give either `program` or `tokens`, not both".into(),
            ))
        }
        (None, None) => {
            return Err(Error::InvalidRequest(
                "request needs a `program` (source text) or `tokens` (pre-tokenized) field".into(),
            ))
        }
    }

    if let Some(v) = get(pairs, "metrics") {
        let Some(items) = v.as_array() else {
            return Err(Error::InvalidRequest(
                "`metrics` must be an array of metric names".into(),
            ));
        };
        let metrics = items
            .iter()
            .map(|m| {
                m.as_str()
                    .ok_or_else(|| Error::InvalidRequest("metric names are strings".into()))
                    .and_then(parse_metric)
            })
            .collect::<Result<Vec<Metric>, Error>>()?;
        request = request.metrics(metrics);
    }
    // Validated for wire compatibility, then ignored (decoding is greedy).
    if let Some(v) = get(pairs, "beam_width") {
        let width = parse_usize(v, "beam_width")?;
        if width > MAX_BEAM_WIDTH {
            return Err(Error::InvalidRequest(format!(
                "beam_width {width} exceeds the maximum of {MAX_BEAM_WIDTH}"
            )));
        }
    }
    if let Some(v) = get(pairs, "threads") {
        request = request.threads(parse_usize(v, "threads")?);
    }
    if let Some(v) = get(pairs, "model") {
        let Some(name) = v.as_str() else {
            return Err(Error::InvalidRequest("`model` must be a string".into()));
        };
        request = request.for_model(name);
    }
    if let Some(v) = get(pairs, "feedback") {
        request = request.feedback(parse_feedback(v)?);
    }
    // `timeout_ms: 0` is legal and always expires at dequeue — useful for
    // deterministic deadline tests.
    let timeout = match get(pairs, "timeout_ms") {
        None => None,
        Some(v) => Some(Duration::from_millis(parse_usize(v, "timeout_ms")? as u64)),
    };
    Ok((request, timeout))
}

/// `{"n": 64, ...}` → scalar input bindings.
fn parse_bindings(value: &Value) -> Result<Vec<(String, i64)>, Error> {
    let Some(pairs) = value.as_object() else {
        return Err(Error::InvalidRequest(
            "`inputs` must be an object of name -> integer".into(),
        ));
    };
    pairs
        .iter()
        .map(|(name, v)| {
            as_i64(v)
                .map(|n| (name.clone(), n))
                .ok_or_else(|| Error::InvalidRequest(format!("input `{name}` must be an integer")))
        })
        .collect()
}

fn parse_tokens(value: &Value) -> Result<Vec<u32>, Error> {
    let Some(items) = value.as_array() else {
        return Err(Error::InvalidRequest(
            "`tokens` must be an array of token ids".into(),
        ));
    };
    items
        .iter()
        .map(|v| {
            as_i64(v)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| {
                    Error::InvalidRequest("token ids must be integers in u32 range".into())
                })
        })
        .collect()
}

fn parse_feedback(value: &Value) -> Result<Feedback, Error> {
    let Some(pairs) = value.as_object() else {
        return Err(Error::InvalidRequest(
            "`feedback` must be an object with metric/actual/predicted".into(),
        ));
    };
    let metric = get(pairs, "metric")
        .and_then(Value::as_str)
        .ok_or_else(|| Error::InvalidRequest("feedback needs a `metric` name".into()))
        .and_then(parse_metric)?;
    let actual = get(pairs, "actual")
        .and_then(as_f64)
        .ok_or_else(|| Error::InvalidRequest("feedback needs a numeric `actual` value".into()))?;
    let predicted = get(pairs, "predicted").and_then(as_f64).ok_or_else(|| {
        Error::InvalidRequest("feedback needs a numeric `predicted` value".into())
    })?;
    let item = match get(pairs, "item") {
        None => 0,
        Some(v) => parse_usize(v, "feedback.item")?,
    };
    Ok(Feedback {
        item,
        metric,
        actual,
        predicted,
    })
}

fn parse_metric(name: &str) -> Result<Metric, Error> {
    match name {
        "power" => Ok(Metric::Power),
        "area" => Ok(Metric::Area),
        "ff" => Ok(Metric::FlipFlops),
        "cycles" => Ok(Metric::Cycles),
        other => Err(Error::InvalidRequest(format!(
            "unknown metric `{other}` (expected power|area|ff|cycles)"
        ))),
    }
}

fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::Power => "power",
        Metric::Area => "area",
        Metric::FlipFlops => "ff",
        Metric::Cycles => "cycles",
    }
}

fn get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_i64(value: &Value) -> Option<i64> {
    // i64's range as exact f64 bounds: [-2^63, 2^63). The upper bound
    // itself must be rejected — 2^63 as i64 saturates to i64::MAX, and
    // i64::MAX rounds back up to exactly 2^63, so a round-trip check alone
    // would accept it.
    const LO: f64 = i64::MIN as f64; // -2^63, exact
    const HI: f64 = -(i64::MIN as f64); // 2^63, exact
    match value {
        Value::I64(n) => Some(*n),
        Value::U64(n) => i64::try_from(*n).ok(),
        Value::F64(x) if x.fract() == 0.0 && (LO..HI).contains(x) => Some(*x as i64),
        _ => None,
    }
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn parse_usize(value: &Value, field: &str) -> Result<usize, Error> {
    as_i64(value)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| Error::InvalidRequest(format!("`{field}` must be a non-negative integer")))
}

fn type_name(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_extracts_id_and_tokens() {
        let (id, request) = parse_request(r#"{"id": 7, "tokens": [1, 2, 3]}"#);
        assert_eq!(id, Value::U64(7));
        let request = request.expect("valid");
        assert_eq!(
            request.inputs,
            vec![llmulator::PredictInput::Tokens(vec![1, 2, 3])]
        );
        assert!(request.metrics.is_none());
    }

    #[test]
    fn parse_request_accepts_program_with_bindings_and_options() {
        let line = r#"{"id": "a", "program": "void f() {}", "inputs": {"n": 64},
                       "metrics": ["cycles"], "beam_width": 2, "threads": 1,
                       "model": "default",
                       "feedback": {"metric": "cycles", "actual": 10, "predicted": 8}}"#;
        let (id, request) = parse_request(&line.replace('\n', " "));
        assert_eq!(id, Value::Str("a".into()));
        let request = request.expect("valid");
        match &request.inputs[0] {
            llmulator::PredictInput::Source { program, inputs } => {
                assert!(program.contains("void f"));
                assert_eq!(inputs, &vec![("n".to_string(), 64i64)]);
            }
            other => panic!("expected source input, got {other:?}"),
        }
        assert_eq!(request.metrics, Some(vec![Metric::Cycles]));
        assert_eq!(request.threads, Some(1));
        assert_eq!(request.model.as_deref(), Some("default"));
        let fb = request.feedback.expect("feedback");
        assert_eq!(fb.metric, Metric::Cycles);
        assert_eq!(fb.actual, 10.0);
    }

    #[test]
    fn malformed_lines_become_typed_errors_with_null_id() {
        for line in ["not json", "[1,2]", "{\"id\": 1}", "{\"tokens\": 3}"] {
            let (_, request) = parse_request(line);
            let err = request.expect_err(line);
            assert_eq!(err.kind(), "invalid_request", "{line}");
        }
        let (id, _) = parse_request("not json");
        assert_eq!(id, Value::Null);
        // A parseable object echoes its id even when the request is bad.
        let (id, request) = parse_request(r#"{"id": 5, "tokens": "oops"}"#);
        assert_eq!(id, Value::U64(5));
        assert!(request.is_err());
    }

    #[test]
    fn unknown_fields_and_metrics_are_rejected() {
        let (_, r) = parse_request(r#"{"tokens": [1], "frobnicate": true}"#);
        assert!(r
            .expect_err("unknown field")
            .to_string()
            .contains("frobnicate"));
        let (_, r) = parse_request(r#"{"tokens": [1], "metrics": ["watts"]}"#);
        assert!(r.expect_err("unknown metric").to_string().contains("watts"));
        let (_, r) = parse_request(r#"{"tokens": [1], "program": "x"}"#);
        assert!(r.expect_err("both inputs").to_string().contains("not both"));
    }

    #[test]
    fn admin_lines_classify_as_stats_and_shutdown() {
        match classify_line(r#"{"id": 9, "stats": true}"#) {
            Parsed::Stats(id) => assert_eq!(id, Value::U64(9)),
            _ => panic!("stats request"),
        }
        match classify_line(r#"{"shutdown": true}"#) {
            Parsed::Shutdown(id) => assert_eq!(id, Value::Null),
            _ => panic!("shutdown request"),
        }
        // Anything but the literal `true` is a structured error, not an
        // accidental shutdown.
        match classify_line(r#"{"shutdown": 1}"#) {
            Parsed::Invalid(_, e) => assert_eq!(e.kind(), "invalid_request"),
            _ => panic!("non-true shutdown rejected"),
        }
        match classify_line("   ") {
            Parsed::Empty => {}
            _ => panic!("blank line"),
        }
    }

    #[test]
    fn error_response_carries_kind_message_and_chain() {
        let err = Error::from(llmulator::PersistError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "gone",
        )))
        .context("cannot load model `m.json`");
        let value = error_response(Value::U64(3), &err);
        let text = value.to_string();
        assert!(text.contains("\"ok\":false"), "{text}");
        assert!(text.contains("\"id\":3"), "{text}");
        assert!(text.contains("\"kind\":\"persist\""), "{text}");
        assert!(text.contains("cannot load model"), "{text}");
        assert!(text.contains("gone"), "chain reaches the root: {text}");
    }

    #[test]
    fn stats_response_renders_counters_and_latency() {
        let engine = EngineConfig::new().build();
        let text = stats_response(&Value::Str("s".into()), &engine, 0).to_string();
        assert!(text.contains("\"latency_us\":null"), "{text}");
        assert!(text.contains("\"served\":0"), "{text}");
        assert!(text.contains("\"calibration\":"), "{text}");
        assert!(text.contains("\"memo_hits\":0"), "{text}");
        assert!(text.contains("\"memo_misses\":0"), "{text}");
        assert!(
            text.contains("\"models\":[]"),
            "no models registered: {text}"
        );

        // The same sequence twice on one session: one miss, then one hit.
        engine.register_predictor(
            "default",
            NumericPredictor::new(llmulator::PredictorConfig {
                scale: llmulator::ModelScale::Small,
                max_len: 16,
                ..llmulator::PredictorConfig::default()
            }),
        );
        let mut session = engine.session();
        for _ in 0..2 {
            session
                .predict(&PredictRequest::tokens(vec![1, 2, 3]))
                .expect("serves");
        }

        let counters = engine.counters();
        counters.record_latency(Duration::from_micros(100));
        counters.record_latency(Duration::from_micros(200));
        for (counter, n) in [
            (Counter::Served, 2),
            (Counter::Errors, 1),
            (Counter::Shed, 3),
            (Counter::PanicsContained, 5),
            (Counter::DeadlineShed, 6),
            (Counter::WorkersRespawned, 7),
            (Counter::SlowClientDisconnects, 8),
        ] {
            counters.add(counter, n);
        }
        let text = stats_response(&Value::Null, &engine, 4).to_string();
        for needle in [
            "\"served\":2",
            "\"errors\":1",
            "\"shed\":3",
            "\"panics_contained\":5",
            "\"deadline_shed\":6",
            "\"workers_respawned\":7",
            "\"slow_client_disconnects\":8",
            "\"queue_depth\":4",
            "\"memo_hits\":1",
            "\"memo_misses\":1",
            "\"count\":2",
            "\"p50\":",
            "\"p99\":",
            "\"max\":200",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }

    #[test]
    fn timeout_ms_parses_into_a_request_deadline() {
        match classify_line(r#"{"id": 1, "tokens": [1, 2], "timeout_ms": 250}"#) {
            Parsed::Request(_, _, timeout) => {
                assert_eq!(timeout, Some(Duration::from_millis(250)));
            }
            _ => panic!("valid request with timeout"),
        }
        match classify_line(r#"{"tokens": [1], "timeout_ms": 0}"#) {
            Parsed::Request(_, _, timeout) => assert_eq!(timeout, Some(Duration::ZERO)),
            _ => panic!("zero timeout is legal"),
        }
        match classify_line(r#"{"tokens": [1]}"#) {
            Parsed::Request(_, _, timeout) => assert_eq!(timeout, None),
            _ => panic!("no timeout field"),
        }
        for bad in [
            r#"{"tokens": [1], "timeout_ms": -1}"#,
            r#"{"tokens": [1], "timeout_ms": "soon"}"#,
            r#"{"tokens": [1], "timeout_ms": 1.5}"#,
        ] {
            match classify_line(bad) {
                Parsed::Invalid(_, e) => assert_eq!(e.kind(), "invalid_request", "{bad}"),
                _ => panic!("rejected: {bad}"),
            }
        }
    }

    #[test]
    fn bounded_response_tx_condemns_slow_clients_once() {
        let (tx, rx) = mpsc::sync_channel(2);
        let gone = Arc::new(AtomicBool::new(false));
        let engine = Arc::new(EngineConfig::new().build());
        let out = ResponseTx::Bounded {
            tx,
            gone: Arc::clone(&gone),
            engine: Arc::clone(&engine),
        };
        out.send(0, "a".into());
        out.send(1, "b".into());
        assert!(!gone.load(Ordering::Relaxed), "under the cap: fine");
        // Third response overflows the cap: the connection is condemned
        // and counted exactly once, no matter how many more arrive.
        out.send(2, "c".into());
        out.send(3, "d".into());
        assert!(gone.load(Ordering::Relaxed), "slow client condemned");
        assert_eq!(
            engine.counters().get(Counter::SlowClientDisconnects),
            1,
            "counted once per connection"
        );
        // The writer still drains what was queued before the overflow.
        assert_eq!(rx.try_recv().expect("queued").1, "a");
        assert_eq!(rx.try_recv().expect("queued").1, "b");
        assert!(rx.try_recv().is_err(), "overflowed responses dropped");
    }

    #[test]
    fn writer_loop_reorders_by_sequence_and_respects_gone() {
        let engine = EngineConfig::new().build();
        let (tx, rx) = mpsc::channel();
        // Out-of-order completions: 2, 0, 1 must print as 0, 1, 2.
        tx.send((2, "two".to_string())).expect("send");
        tx.send((0, "zero".to_string())).expect("send");
        tx.send((1, "one".to_string())).expect("send");
        drop(tx);
        let mut out = Vec::new();
        let gone = AtomicBool::new(false);
        writer_loop(&mut out, &rx, &gone, engine.counters());
        assert_eq!(String::from_utf8_lossy(&out), "zero\none\ntwo\n");

        // A hung-up client: everything is drained, nothing is written.
        let (tx, rx) = mpsc::channel();
        tx.send((0, "x".to_string())).expect("send");
        drop(tx);
        let mut out = Vec::new();
        let gone = AtomicBool::new(true);
        writer_loop(&mut out, &rx, &gone, engine.counters());
        assert!(out.is_empty(), "gone writer writes nothing");
        assert_eq!(
            engine.counters().get(Counter::SlowClientDisconnects),
            0,
            "clean writes and hung-up clients are not slow clients"
        );
    }

    /// A sink that fails every write with the given error kind, the
    /// in-process stand-in for a stalled (timeout) or vanished (EPIPE)
    /// TCP peer.
    struct FailingSink(std::io::ErrorKind);

    impl Write for FailingSink {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(self.0, "sink failure"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_loop_counts_timed_out_clients_but_not_hangups() {
        // A write timeout is a slow client: condemned AND counted once.
        let engine = EngineConfig::new().build();
        let (tx, rx) = mpsc::channel();
        tx.send((0, "a".to_string())).expect("send");
        tx.send((1, "b".to_string())).expect("send");
        drop(tx);
        let gone = AtomicBool::new(false);
        writer_loop(
            FailingSink(std::io::ErrorKind::TimedOut),
            &rx,
            &gone,
            engine.counters(),
        );
        assert!(gone.load(Ordering::Relaxed), "timed-out client condemned");
        assert_eq!(engine.counters().get(Counter::SlowClientDisconnects), 1);

        // EPIPE/reset is a client that left, not a slow one: condemned
        // but not counted.
        let engine = EngineConfig::new().build();
        let (tx, rx) = mpsc::channel();
        tx.send((0, "a".to_string())).expect("send");
        drop(tx);
        let gone = AtomicBool::new(false);
        writer_loop(
            FailingSink(std::io::ErrorKind::BrokenPipe),
            &rx,
            &gone,
            engine.counters(),
        );
        assert!(gone.load(Ordering::Relaxed), "vanished client condemned");
        assert_eq!(engine.counters().get(Counter::SlowClientDisconnects), 0);
    }

    #[test]
    fn numeric_fields_reject_saturating_floats() {
        // 1e300 has zero fract but is not an i64; the old `as` cast would
        // have silently bound n = i64::MAX.
        let (_, r) = parse_request(r#"{"tokens": [1], "inputs": {}, "program": null}"#);
        assert!(r.is_err(), "precondition: parser runs");
        assert_eq!(as_i64(&Value::F64(1e300)), None);
        assert_eq!(as_i64(&Value::F64(12.0)), Some(12));
        assert_eq!(as_i64(&Value::F64(12.5)), None);
        // The 2^63 boundary: `2^63 as i64` saturates to i64::MAX and
        // i64::MAX rounds back to 2^63, so a naive round-trip check passes;
        // the range guard must reject it (and accept the exact minimum).
        assert_eq!(as_i64(&Value::F64(9_223_372_036_854_775_808.0)), None);
        assert_eq!(
            as_i64(&Value::F64(i64::MIN as f64)),
            Some(i64::MIN),
            "lower bound is exactly representable and valid"
        );
        let (_, r) = parse_request(r#"{"program": "x", "inputs": {"n": 1e300}}"#);
        let err = r.expect_err("saturating binding rejected").to_string();
        assert!(err.contains('n'), "{err}");
        let (_, r) = parse_request(r#"{"tokens": [1], "beam_width": 1e300}"#);
        assert!(r.is_err(), "beam_width saturation rejected");
    }

    /// `beam_width` keeps its wire validation but changes no reply:
    /// accepted widths answer with the exact bytes of a request without one.
    #[test]
    fn beam_width_is_validated_and_ignored() {
        let engine = EngineConfig::new().threads(2).build();
        let predictor = NumericPredictor::new(llmulator::PredictorConfig {
            scale: llmulator::ModelScale::Small,
            codec: llmulator::DigitCodec::decimal(4),
            max_len: 48,
            seed: 3,
            ..llmulator::PredictorConfig::default()
        });
        engine.register_predictor("default", predictor);
        let mut session = engine.session();
        let mut reply = |line: String| {
            let (id, request) = parse_request(&line);
            let response = session.predict(&request?)?;
            Ok::<_, Error>(success_response(&id, &response).to_string())
        };
        let line = |width: &str| format!(r#"{{"id": 1, "tokens": [5, 6, 7]{width}}}"#);
        let plain = reply(line("")).expect("serves");
        for width in ["8", "0", "1", "256"] {
            let got = reply(line(&format!(r#", "beam_width": {width}"#)));
            assert_eq!(got.expect("serves"), plain, "beam_width {width}");
        }
        for width in ["257", "1e9", "1e300", "-1", "2.5", "\"4\""] {
            let err = reply(line(&format!(r#", "beam_width": {width}"#))).expect_err("rejected");
            assert!(matches!(err, Error::InvalidRequest(_)), "{width}: {err:?}");
        }
    }

    #[test]
    fn metric_names_round_trip() {
        for &m in Metric::all() {
            assert_eq!(parse_metric(metric_name(m)).expect("round trips"), m);
        }
        assert!(parse_metric("volts").is_err());
    }
}
