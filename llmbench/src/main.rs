//! `llmbench`: the repository benchmark. One command runs one workload and
//! prints every metric by name and unit, after its correctness gates pass.
//!
//! ```sh
//! bash llmbench/run.sh --workload serve-short --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! breakdown and prints the per-layer metrics. See `llmbench/README.md` for
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

mod cpu;
mod daemon;
mod load;
mod paper;
mod replay;
mod speed;
mod stats;
mod trace;

use daemon::Daemon;
use llmulator::{NumericPredictor, PredictorConfig, SegmentedText};
use load::{Item, Plan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use speed::Speed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};

/// Daemon spawns per serving run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 9;
/// `paper-loop` input constructions per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 31;
/// Replayed requests per traced serving run.
const REPLAY_SHORT: usize = 256;
const REPLAY_DSE: usize = 64;
/// Fewest requests an untimed-path replay runs: `p99_ms` needs 1 000.
const SERVICE_MIN: usize = 1000;

/// Where results and scratch files go, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything one run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    detail: Vec<(String, Value)>,
    spans: Vec<Span>,
}

/// Object member lookup on a vendored `serde_json::Value`.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Any JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::I64(x) => Some(*x as f64),
        Value::U64(x) => Some(*x as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("llmbench: {e}\nusage: llmbench --workload serve-short|serve-dse|paper-loop --seed N --seconds S --trace 0|1");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(report) => {
            print_report(&args, report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("llmbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir(PathBuf::from(OUT_DIR).join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create {}: {e}", work.0.display()))?;
    match args.workload.as_str() {
        "serve-short" => serve_workload(args, Kind::Short, &work.0),
        "serve-dse" => serve_workload(args, Kind::Dse, &work.0),
        "paper-loop" => paper_workload(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Short,
    Dse,
}

/// The daemon binary, built next to this one.
fn daemon_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("llmulator");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("daemon binary {} not built", bin.display()))
    }
}

/// The paper-default Medium-scale, `max_len` 256 predictor, seeded.
fn serving_model(seed: u64) -> NumericPredictor {
    NumericPredictor::new(PredictorConfig {
        seed,
        ..PredictorConfig::default()
    })
}

fn eval_workloads() -> Vec<llmulator_workloads::Workload> {
    let mut ws = llmulator_workloads::polybench::all();
    ws.extend(llmulator_workloads::modern::all());
    ws.extend(llmulator_workloads::accelerators::all());
    ws
}

/// `"inputs":{...}` members for the integer scalars of `data` (the wire
/// protocol binds scalars only).
fn inputs_json(data: &llmulator_ir::InputData) -> String {
    let pairs: Vec<String> = data
        .iter()
        .filter_map(|(k, v)| match v {
            llmulator_ir::Value::Int(i) => Some(format!("\"{k}\":{i}")),
            _ => None,
        })
        .collect();
    format!("\"inputs\":{{{}}}", pairs.join(","))
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings always serialize")
}

/// `serve-short`: short pre-tokenized requests from a small pool (44
/// sequences), so they repeat heavily. Windows of the workloads' own token
/// streams keep the ids realistic; every 8th request carries feedback;
/// clients reconnect every 16 requests.
fn short_plan(model: &NumericPredictor, seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5407);
    let streams: Vec<Vec<u32>> = eval_workloads()
        .iter()
        .map(|w| {
            SegmentedText::from_program(&w.program, Some(&w.inputs), None)
                .tokenize(model.tokenizer(), usize::MAX)
                .tokens
        })
        .collect();
    // Every length in 3..=24 appears twice, so the length mix (and with it
    // the forward cost) does not drift with the seed; the windows do.
    let pool: Vec<(String, f64)> = (3..=24usize)
        .flat_map(|len| [len, len])
        .map(|len| {
            let s = &streams[rng.gen_range(0..streams.len())];
            let len = len.min(s.len());
            let at = rng.gen_range(0..=s.len() - len);
            let ids: Vec<String> = s[at..at + len].iter().map(u32::to_string).collect();
            let body = format!("\"tokens\":[{}],\"metrics\":[\"cycles\"]", ids.join(","));
            (body, f64::from(rng.gen_range(1_000u32..100_000)))
        })
        .collect();
    Plan {
        depth: 1,
        reconnect_every: Some(16),
        feedback_every: Some(8),
        warmup: 32,
        keep_replies: false,
        next: Box::new(move |rng: &mut StdRng| {
            let key = rng.gen_range(0..pool.len());
            Item {
                key,
                body: pool[key].0.clone(),
                truth: pool[key].1,
            }
        }),
    }
}

/// `serve-dse`: one of the 27 workload programs per request, its scalars at
/// a seeded input scale in [0.5, 1.5], pipelined in generations of 16.
fn dse_plan() -> Plan {
    let ws = eval_workloads();
    let programs: Vec<(String, llmulator_workloads::Workload)> = ws
        .into_iter()
        .map(|w| {
            (
                json_string(&llmulator_ir::render::render_program(&w.program)),
                w,
            )
        })
        .collect();
    Plan {
        depth: replay::GENERATION,
        reconnect_every: None,
        feedback_every: None,
        warmup: replay::GENERATION as u64,
        keep_replies: true,
        next: Box::new(move |rng: &mut StdRng| {
            let key = rng.gen_range(0..programs.len());
            let (text, w) = &programs[key];
            let data = w.scaled_inputs(rng.gen_range(0.5..=1.5));
            Item {
                key,
                body: format!("\"program\":{text},{}", inputs_json(&data)),
                truth: 0.0,
            }
        }),
    }
}

/// `n` request lines drawn from `plan` that the timed stream never sends
/// (for the gate before timing).
fn draw_lines(plan: &Plan, seed: u64, n: usize, tag: &str) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| format!("{{\"id\":\"{tag}{k}\",{}}}", (plan.next)(&mut rng).body))
        .collect()
}

/// Set-up times of the daemons one run spawned.
struct Setups {
    /// CPU time up to the listening banner, s.
    cpu_s: Vec<f64>,
    /// Wall time from spawn to the listening banner, s.
    wall_s: Vec<f64>,
}

/// Starts `SETUP_SPAWNS` fresh daemons, each on its own copy of the model
/// (so `--calibrate` never resumes an earlier daemon's checkpoint), tears
/// all but the last down through the checked drain, and returns the last
/// with every daemon's set-up time. A `speed` slice is taken before and
/// after each spawn.
fn start_daemon(
    model: &Path,
    work: &Path,
    calibrate: bool,
    speed: &mut Speed,
) -> Result<(Daemon, Setups), String> {
    let bin = daemon_bin()?;
    let mut setups = Setups {
        cpu_s: Vec::new(),
        wall_s: Vec::new(),
    };
    for i in 0..SETUP_SPAWNS {
        let copy = work.join(format!("model-{i}.json"));
        std::fs::copy(model, &copy).map_err(|e| format!("copy model: {e}"))?;
        speed.slice();
        let d = Daemon::spawn(&bin, &copy, calibrate)?;
        speed.slice();
        setups.cpu_s.push(d.setup_cpu_s);
        setups.wall_s.push(d.setup.as_secs_f64());
        if i + 1 == SETUP_SPAWNS {
            return Ok((d, setups));
        }
        d.shutdown()?;
    }
    Err("no daemon spawned".into())
}

/// Failure accounting for a set of timed requests.
fn failures(sent: &[load::Sent]) -> (u64, u64, BTreeMap<String, u64>) {
    let mut kinds = BTreeMap::new();
    for s in sent {
        if let Some(k) = &s.failure {
            *kinds.entry(k.clone()).or_insert(0) += 1;
        }
    }
    (sent.len() as u64, kinds.values().sum(), kinds)
}

/// p50 and p99 over raw latency samples; a failed request is infinitely
/// late, printed as `late_ms`.
fn latency(ms: &[f64], late_ms: f64) -> Result<(f64, f64), String> {
    let cap = |x: f64| if x.is_finite() { x } else { late_ms };
    Ok((cap(stats::median(ms)), cap(stats::p99(ms)?)))
}

/// The end-to-end metrics of one run, times in CPU time scaled to the
/// reference host (`speed`).
struct EndToEnd {
    setup_s: f64,
    cpu_ms_per_req: f64,
    p50_ms: f64,
    p99_ms: f64,
    attempted: u64,
    failed: u64,
    rss_mb: f64,
}

impl EndToEnd {
    /// The printed metrics, in report order.
    fn metrics(&self) -> Vec<Metric> {
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        [
            ("setup_s", self.setup_s, "s"),
            ("cpu_ms_per_req", self.cpu_ms_per_req, "ms"),
            ("p50_ms", self.p50_ms, "ms"),
            ("p99_ms", self.p99_ms, "ms"),
            ("ok_frac", ok, "fraction"),
            ("rss_mb", self.rss_mb, "MiB"),
        ]
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
    }
}

/// The run's host-speed slices (count and quartiles, ms) and the unscaled
/// CPU times, for the result file.
fn unscaled_detail(
    speed: &Speed,
    setup_s: f64,
    cpu_ms_per_req: f64,
    service_ms: &[f64],
) -> Result<Vec<(String, Value)>, String> {
    let slices = &speed.slices;
    Ok(vec![
        ("host_slices".into(), Value::U64(slices.len() as u64)),
        (
            "host_slice_ms_quartiles".into(),
            floats(&[0.25, 0.5, 0.75].map(|q| stats::quantile(slices, q))),
        ),
        ("unscaled_setup_s".into(), Value::F64(setup_s)),
        ("unscaled_cpu_ms_per_req".into(), Value::F64(cpu_ms_per_req)),
        (
            "unscaled_p50_ms".into(),
            Value::F64(stats::median(service_ms)),
        ),
        (
            "unscaled_p99_ms".into(),
            Value::F64(stats::p99(service_ms)?),
        ),
    ])
}

fn serve_workload(args: &Args, kind: Kind, work: &Path) -> Result<Report, String> {
    let model = serving_model(args.seed);
    let model_path = work.join("model.json");
    model
        .save(&model_path)
        .map_err(|e| format!("save model: {e}"))?;
    let plan = match kind {
        Kind::Short => short_plan(&model, args.seed),
        Kind::Dse => dse_plan(),
    };
    let mut speed = Speed::new();
    let (daemon, setups) = start_daemon(&model_path, work, kind == Kind::Short, &mut speed)?;
    let setup_scale = Speed::scale(&speed.slices);
    let pid = daemon.pid();
    let engine = replay::engine_for(
        NumericPredictor::load(&model_path).map_err(|e| format!("load model: {e}"))?,
    );
    let mut detail: Vec<(String, Value)> = Vec::new();
    if kind == Kind::Dse {
        // Gate before timing: daemon replies equal in-process predictions.
        let lines = draw_lines(&plan, args.seed ^ 0x6a7e, 2 * replay::GENERATION, "gate-");
        let replies = load::exchange(daemon.addr, &lines)?;
        let pairs: Vec<(&str, &str)> = lines
            .iter()
            .map(String::as_str)
            .zip(replies.iter().map(String::as_str))
            .collect();
        let n = replay::verify_replies(&engine, &pairs)?;
        detail.push(("gate_bit_identical_before".into(), Value::U64(n as u64)));
    }
    let secs = Duration::from_secs(args.seconds);
    if !args.trace {
        // Half the run drives the daemon; the other half replays the
        // requests it answered through its request path in process.
        let windows = load::drive_windows(
            daemon.addr,
            pid,
            &plan,
            args.seed,
            secs / 2,
            |_| false,
            Instant::now(),
            &mut speed,
        )?;
        let mut checked = 0;
        for w in &windows {
            checked += check_replies(w, kind, &engine)?;
        }
        detail.push((
            "gate_bit_identical_timed".into(),
            Value::U64(checked as u64),
        ));
        let rss = daemon.peak_rss_mb()?;
        let drain = daemon.shutdown()?;
        // Daemon CPU per reply is the median over windows, each scaled by
        // the slices taken during it. Wall-clock throughput and client
        // latency are recorded, not gated on.
        let cpu_ms: Vec<f64> = windows
            .iter()
            .map(|w| w.daemon_cpu_s * 1e3 / w.ok().max(1) as f64)
            .collect();
        let cpu_ms_scaled: Vec<f64> = cpu_ms
            .iter()
            .zip(&windows)
            .map(|(ms, w)| ms * Speed::scale(&w.probe_ms))
            .collect();
        let rps: Vec<f64> = windows
            .iter()
            .map(|w| w.ok() as f64 / w.elapsed_s)
            .collect();
        detail.push(("cpu_ms_per_req_windows".into(), floats(&cpu_ms)));
        detail.push(("wall_rps_windows".into(), floats(&rps)));
        let sent: Vec<load::Sent> = windows.into_iter().flat_map(|w| w.sent).collect();
        let ms: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
        // A failed request is as late as the run is long. Too few samples
        // for a p99 (a slow host) records null rather than failing the run.
        let late_ms = |x: f64| {
            if x.is_finite() {
                x
            } else {
                secs.as_secs_f64() * 1e3
            }
        };
        detail.push((
            "wall_client_p50_ms".into(),
            Value::F64(late_ms(stats::median(&ms))),
        ));
        detail.push((
            "wall_client_p99_ms".into(),
            stats::p99(&ms).map_or(Value::Null, |p| Value::F64(late_ms(p))),
        ));
        detail.push(("client_samples".into(), Value::U64(ms.len() as u64)));
        let (attempted, failed, kinds) = failures(&sent);
        detail.push(("failures".into(), kinds_json(&kinds)));
        detail.push(("drain_s".into(), Value::F64(drain.seconds)));
        detail.push(("drain_summary".into(), Value::Str(drain.summary)));
        detail.push(("setup_s_samples".into(), floats(&setups.cpu_s)));
        detail.push(("wall_setup_s_samples".into(), floats(&setups.wall_s)));
        let lines: Vec<&str> = sent
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.line.as_str())
            .collect();
        let mark = speed.mark();
        let service = replay::service_cpu_ms(&engine, &lines, SERVICE_MIN, secs / 2, &mut speed)?;
        detail.push(("service_samples".into(), Value::U64(service.len() as u64)));
        let paired = &speed.slices[mark..];
        let scaled: Vec<f64> = service
            .iter()
            .enumerate()
            .map(|(i, ms)| ms * Speed::scale_near(paired, i))
            .collect();
        let setup_s = stats::median(&setups.cpu_s);
        let e2e = EndToEnd {
            setup_s: setup_s * setup_scale,
            cpu_ms_per_req: stats::median(&cpu_ms_scaled),
            p50_ms: stats::median(&scaled),
            p99_ms: stats::p99(&scaled)?,
            attempted,
            failed,
            rss_mb: rss,
        };
        detail.extend(unscaled_detail(
            &speed,
            setup_s,
            stats::median(&cpu_ms),
            &service,
        )?);
        return Ok(Report {
            attempted,
            failed,
            metrics: e2e.metrics(),
            detail,
            spans: Vec::new(),
        });
    }

    // Traced run: alternate untraced and traced windows (tracing overhead),
    // snapshot the daemon's counters, then replay the stream in process.
    let origin = Instant::now();
    let mut spans = Vec::new();
    let mut all_sent = Vec::new();
    let mut connect_ms = Vec::new();
    let mut first_reply_ms = Vec::new();
    let (mut rps_off, mut rps_on) = (Vec::new(), Vec::new());
    let windows = load::drive_windows(
        daemon.addr,
        pid,
        &plan,
        args.seed,
        secs,
        |k| k % 2 == 1,
        origin,
        &mut speed,
    )?;
    let mut checked = 0;
    for (k, mut d) in windows.into_iter().enumerate() {
        checked += check_replies(&d, kind, &engine)?;
        let rps = d.ok() as f64 / d.elapsed_s;
        if k % 2 == 1 {
            rps_on.push(rps)
        } else {
            rps_off.push(rps)
        }
        spans.append(&mut d.spans);
        connect_ms.append(&mut d.connect_ms);
        first_reply_ms.append(&mut d.first_reply_ms);
        all_sent.append(&mut d.sent);
    }
    detail.push((
        "gate_bit_identical_timed".into(),
        Value::U64(checked as u64),
    ));
    let stats = daemon.stats()?;
    let drain = daemon.shutdown()?;
    let (attempted, failed, _) = failures(&all_sent);
    let lines: Vec<&str> = all_sent
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.line.as_str())
        .take(if kind == Kind::Short {
            REPLAY_SHORT
        } else {
            REPLAY_DSE
        })
        .collect();
    let (replayed, mut rspans) = replay::replay(&model, &lines, origin)?;
    spans.append(&mut rspans);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    net_metrics(&mut m, &all_sent, &connect_ms, &first_reply_ms, &stats);
    m.extend(replayed.metrics);
    if kind == Kind::Short {
        // A token stream never reaches the program parser or tokenizer.
        for k in ["ir.parse_us", "token.tokenize_us", "token.truncated_frac"] {
            m.remove(k);
        }
    }
    pool_online_metrics(&mut m, &stats, kind == Kind::Short);
    m.insert("persist.load_ms", load_ms(&model_path)?);
    let wait_us = m["pool.service_p50_us"] - m["engine.predict_us"];
    m.insert("pool.wait_us", wait_us);
    m.insert(
        "trace.overhead_frac",
        stats::mean(&rps_off) / stats::mean(&rps_on).max(1e-9) - 1.0,
    );
    detail.push(("metric_source".into(), metric_sources(&m)));
    detail.push((
        "replayed_requests".into(),
        Value::U64(replayed.requests as u64),
    ));
    detail.push(("rps_untraced".into(), floats(&rps_off)));
    detail.push(("rps_traced".into(), floats(&rps_on)));
    detail.push(("drain_summary".into(), Value::Str(drain.summary)));
    detail.push(("daemon_stats".into(), stats));
    Ok(Report {
        attempted,
        failed,
        metrics: layer_report(&m),
        detail,
        spans,
    })
}

/// Gates on one timed window: every request got exactly its own reply; for
/// `serve-dse`, a sample of timed replies equals in-process predictions.
/// Returns the number of replies checked bit for bit.
fn check_replies(
    driven: &load::Driven,
    kind: Kind,
    engine: &llmulator::Engine,
) -> Result<usize, String> {
    if let Some(m) = driven.mismatches.first() {
        return Err(format!(
            "{} mismatched replies, first: {m}",
            driven.mismatches.len()
        ));
    }
    if kind == Kind::Dse {
        let pairs: Vec<(&str, &str)> = driven
            .sent
            .iter()
            .filter(|s| s.ok)
            .step_by(64)
            .filter_map(|s| Some((s.line.as_str(), s.reply.as_deref()?)))
            .collect();
        return replay::verify_replies(engine, &pairs);
    }
    Ok(0)
}

fn net_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    sent: &[load::Sent],
    connect_ms: &[f64],
    first: &[f64],
    stats: &Value,
) {
    let ok: Vec<&load::Sent> = sent.iter().filter(|s| s.ok).collect();
    let steady: Vec<f64> = ok
        .iter()
        .filter(|s| !s.first_on_conn)
        .map(|s| s.latency_ms)
        .collect();
    let all: Vec<f64> = ok.iter().map(|s| s.latency_ms).collect();
    let daemon_p50_us = field(stats, "latency_us")
        .and_then(|l| field(l, "p50"))
        .and_then(number)
        .unwrap_or(0.0);
    m.insert("net.connect_ms", stats::median(connect_ms));
    m.insert("net.first_reply_ms", stats::median(first));
    m.insert("net.steady_reply_ms", stats::median(&steady));
    m.insert("net.overhead_us", stats::median(&all) * 1e3 - daemon_p50_us);
    m.insert("net.samples", all.len() as f64);
}

fn pool_online_metrics(m: &mut BTreeMap<&'static str, f64>, stats: &Value, calibrating: bool) {
    let get = |path: &[&str]| -> f64 {
        let mut v = stats;
        for k in path {
            match field(v, k) {
                Some(x) => v = x,
                None => return 0.0,
            }
        }
        number(v).unwrap_or(0.0)
    };
    m.insert("pool.service_p50_us", get(&["latency_us", "p50"]));
    m.insert("pool.service_p99_us", get(&["latency_us", "p99"]));
    m.insert("pool.served", get(&["served"]));
    m.insert("pool.shed", get(&["shed"]));
    m.insert("pool.errors", get(&["errors"]));
    m.insert("pool.deadline_shed", get(&["deadline_shed"]));
    if !calibrating {
        // Only a `--calibrate` daemon runs the online calibrator.
        return;
    }
    let (acc, drop) = (
        get(&["calibration", "feedback_accepted"]),
        get(&["calibration", "feedback_dropped"]),
    );
    m.insert("online.updates", get(&["calibration", "updates"]));
    m.insert("online.hot_swaps", get(&["calibration", "hot_swaps"]));
    m.insert(
        "online.rollbacks",
        get(&["calibration", "calibrations_rolled_back"]),
    );
    m.insert("online.feedback_accepted", acc);
    m.insert("online.feedback_dropped", drop);
    m.insert(
        "online.drop_frac",
        if acc + drop > 0.0 {
            drop / (acc + drop)
        } else {
            0.0
        },
    );
    m.insert(
        "online.queue_depth_end",
        get(&["calibration", "queue_depth"]),
    );
}

/// Median of three `NumericPredictor::load` calls, ms.
fn load_ms(path: &Path) -> Result<f64, String> {
    let mut ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let m = NumericPredictor::load(path).map_err(|e| format!("load model: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(m);
    }
    Ok(stats::median(&ms))
}

fn paper_workload(args: &Args) -> Result<Report, String> {
    let mut speed = Speed::new();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_BUILDS {
        speed.slice();
        let (built, ms) = cpu::time_ms(|| std::hint::black_box(paper::build_inputs(args.seed)));
        speed.slice();
        inputs = Some(built);
        setups.push(ms * 1e-3);
    }
    let setup_scale = Speed::scale(&speed.slices);
    let inputs = inputs.expect("SETUP_BUILDS is positive");
    let gated = paper::gate_simulators(&inputs)?;
    let mut detail: Vec<(String, Value)> = vec![
        ("gate_sim_points".into(), Value::U64(gated as u64)),
        ("setup_s_samples".into(), floats(&setups)),
    ];
    let origin = Instant::now();
    if !args.trace {
        let mut figures: Vec<paper::Figures> = Vec::new();
        let mut peaks = Vec::new();
        // Per loop: its ground-truth request CPU times scaled by the slices
        // taken beside them, and its probe's scale.
        let mut request_ms = Vec::new();
        let mut scaled_ms = Vec::new();
        let mut scales = Vec::new();
        let mut failed = 0u64;
        let mut off = Tracer::new(false, origin, 0);
        // Whole loops until the next one would end past `seconds` by more
        // than half a loop.
        let budget = args.seconds as f64;
        let start = Instant::now();
        while figures
            .last()
            .is_none_or(|f| start.elapsed().as_secs_f64() + f.loop_s / 2.0 < budget)
        {
            // Peak memory per loop: a single whole-process peak includes
            // whatever earlier loops left free in the allocator.
            daemon::reset_own_peak_rss()?;
            let (round, probe, probe_cpu_ms) =
                speed::probed(|| paper::run(&inputs, &mut off, &mut speed));
            let mut round = round?;
            peaks.push(daemon::vm_hwm_mb("/proc/self/status")?);
            round.cpu_s -= probe_cpu_ms * 1e-3;
            if figures.is_empty() {
                let gated = paper::gate_batch_predict(&round)?;
                detail.push(("gate_batch_predict".into(), Value::U64(gated as u64)));
                detail.push((
                    "truth_samples".into(),
                    Value::U64(round.truth_samples as u64),
                ));
                detail.push((
                    "synth_samples".into(),
                    Value::U64(round.synth_samples as u64),
                ));
            }
            failed += round.failed as u64;
            figures.push(paper::Figures::of(&round));
            for (j, ms) in round.request_ms.iter().enumerate() {
                let near = Speed::scale_near(&round.request_slices, j / paper::SLICE_EVERY);
                scaled_ms.push(ms * near);
            }
            request_ms.extend(round.request_ms);
            scales.push(Speed::scale(&probe));
        }
        let med = |f: fn(&paper::Figures) -> f64| {
            stats::median(&figures.iter().map(f).collect::<Vec<_>>())
        };
        let loop_s = med(|f| f.loop_s);
        let cpu_ms: Vec<f64> = figures.iter().map(|f| f.cpu_ms_per_sample).collect();
        let cpu_ms_scaled: Vec<f64> = cpu_ms.iter().zip(&scales).map(|(m, s)| m * s).collect();
        let attempted = request_ms.len() as u64;
        let (p50, p99) = latency(&scaled_ms, loop_s * 1e3)?;
        for (k, v) in [
            ("wall_samples_per_s", med(|f| f.wall_per_s)),
            ("truth_per_s", med(|f| f.truth_per_s)),
            ("train_per_s", med(|f| f.train_per_s)),
            ("loop_s", loop_s),
            ("mape_cycles", med(|f| f.mape_cycles)),
            ("calib_mape_cycles", med(|f| f.calib_mape_cycles)),
            ("truth_s", med(|f| f.truth_s)),
            ("train_s", med(|f| f.train_s)),
            ("calibrate_s", med(|f| f.calib_s)),
            ("eval_s", med(|f| f.eval_s)),
        ] {
            detail.push((k.into(), Value::F64(v)));
        }
        detail.push(("loops".into(), Value::U64(figures.len() as u64)));
        detail.push(("latency_samples".into(), Value::U64(attempted)));
        detail.push(("rss_mb_loops".into(), floats(&peaks)));
        detail.push(("cpu_ms_per_req_loops".into(), floats(&cpu_ms)));
        let setup_s = stats::median(&setups);
        let e2e = EndToEnd {
            setup_s: setup_s * setup_scale,
            cpu_ms_per_req: stats::median(&cpu_ms_scaled),
            p50_ms: p50,
            p99_ms: p99,
            attempted,
            failed,
            rss_mb: stats::median(&peaks),
        };
        let finite: Vec<f64> = request_ms.into_iter().filter(|m| m.is_finite()).collect();
        detail.extend(unscaled_detail(
            &speed,
            setup_s,
            stats::median(&cpu_ms),
            &finite,
        )?);
        return Ok(Report {
            attempted,
            failed,
            metrics: e2e.metrics(),
            detail,
            spans: Vec::new(),
        });
    }

    // Traced: one untraced and one traced loop (tracing overhead), then the
    // layer breakdown.
    let untraced = paper::run(&inputs, &mut Tracer::new(false, origin, 0), &mut speed)?;
    let mut tracer = Tracer::new(true, origin, 0);
    let round = paper::run(&inputs, &mut tracer, &mut speed)?;
    paper::gate_batch_predict(&round)?;
    let mut spans = Vec::new();
    tracer.drain_into(&mut spans);
    let (mut m, mut extra) = paper::layer_metrics(&inputs, &round, &spans, origin);
    spans.append(&mut extra);
    m.insert("trace.overhead_frac", round.cpu_s / untraced.cpu_s - 1.0);
    detail.push(("metric_source".into(), metric_sources(&m)));
    Ok(Report {
        attempted: round.request_ms.len() as u64,
        failed: round.failed as u64,
        metrics: layer_report(&m),
        detail,
        spans,
    })
}

/// Name → unit for every per-layer metric, in report order.
const LAYER_UNITS: &[(&str, &str)] = &[
    ("net.connect_ms", "ms"),
    ("net.first_reply_ms", "ms"),
    ("net.steady_reply_ms", "ms"),
    ("net.overhead_us", "us"),
    ("net.samples", "count"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("pool.service_p50_us", "us"),
    ("pool.service_p99_us", "us"),
    ("pool.wait_us", "us"),
    ("pool.served", "count"),
    ("pool.shed", "count"),
    ("pool.errors", "count"),
    ("pool.deadline_shed", "count"),
    ("engine.predict_us", "us"),
    ("engine.batch_per_req_us", "us"),
    ("engine.fusion_gain", "ratio"),
    ("engine.stage_sum_us", "us"),
    ("engine.unexplained_us", "us"),
    ("ir.parse_us", "us"),
    ("ir.taint_us", "us"),
    ("token.tokenize_us", "us"),
    ("token.tokens_per_req", "count"),
    ("token.truncated_frac", "fraction"),
    ("nn.forward_ms", "ms"),
    ("nn.forward_packed_ms_per_seq", "ms"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("nn.train_step_ms", "ms"),
    ("model.decode_us", "us"),
    ("online.updates", "count"),
    ("online.hot_swaps", "count"),
    ("online.rollbacks", "count"),
    ("online.feedback_accepted", "count"),
    ("online.feedback_dropped", "count"),
    ("online.drop_frac", "fraction"),
    ("online.queue_depth_end", "count"),
    ("persist.load_ms", "ms"),
    ("synth.gen_s", "s"),
    ("synth.samples", "count"),
    ("synth.reject_frac", "fraction"),
    ("sim.profile_us", "us"),
    ("sim.compile_us", "us"),
    ("sim.run_us", "us"),
    ("sim.region_coverage", "fraction"),
    ("calibrate.iter_ms", "ms"),
    ("calibrate.ape_first", "fraction"),
    ("calibrate.ape_last", "fraction"),
    ("calibrate.mape_cycles", "fraction"),
    ("eval.predict_ms_per_sample", "ms"),
    ("eval.mape_cycles", "fraction"),
    ("loop.truth_per_s", "1/s"),
    ("loop.train_per_s", "1/s"),
    ("loop.wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Every per-layer metric. A layer the workload does not run prints 0: the
/// result line must carry a number for every per-layer metric, and the
/// workload spends no time there.
fn layer_report(m: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    LAYER_UNITS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: m.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// `measured` or `not exercised` for every per-layer metric, for the result
/// file.
fn metric_sources(m: &BTreeMap<&'static str, f64>) -> Value {
    Value::Object(
        LAYER_UNITS
            .iter()
            .map(|&(name, _)| {
                let source = if m.contains_key(name) {
                    "measured"
                } else {
                    "not exercised"
                };
                (name.to_string(), Value::Str(source.into()))
            })
            .collect(),
    )
}

fn floats(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|x| Value::F64(*x)).collect())
}

fn kinds_json(kinds: &BTreeMap<String, u64>) -> Value {
    Value::Object(
        kinds
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect(),
    )
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        // Only the checkout's own repository, never one above it.
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

/// Host facts recorded with every result.
fn host(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unavailable".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unavailable".into());
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        "cpu": cpu,
        "kernel": kernel,
        "rustc": command_line("rustc", &["--version"]),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "workload": args.workload.clone(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
}

fn print_report(args: &Args, report: Report) {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        let value = if m.value.is_finite() {
            Value::F64(m.value)
        } else {
            Value::Null
        };
        metrics.push((
            m.name.to_string(),
            serde_json::json!({ "value": value, "unit": m.unit }),
        ));
        eprintln!("  {:<30} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let mut detail = vec![("host".to_string(), host(args))];
    detail.extend(report.detail);
    let detail = Value::Object(detail);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(
        Path::new(OUT_DIR).join(format!("result-{tag}.json")),
        detail.to_string(),
    );
    if !report.spans.is_empty() {
        let _ = std::fs::write(
            Path::new(OUT_DIR).join(format!("spans-{tag}.jsonl")),
            trace::to_jsonl(&report.spans),
        );
    }
    println!(
        "{}",
        serde_json::json!({
            "correct": true,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": Value::Object(metrics),
        })
    );
}
