//! Closed-loop clients against a serving daemon. Every client owns one
//! connection at a time and sends a *generation* of `depth` requests,
//! reading all replies before the next generation; `depth` 1 is a plain
//! request/reply loop. Latency is measured per request, from the write of
//! its generation to the read of its reply.

use crate::speed::{Speed, PROBE_EVERY};
use crate::trace::{Span, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Concurrent client connections: load comes from one process with at
/// most `nproc` client threads, sized for a 2-CPU host.
pub const CLIENTS: usize = 2;

/// One request body, before its `id` and optional `feedback` are attached.
pub struct Item {
    /// Key for the per-client "last prediction" memory used by feedback.
    pub key: usize,
    /// JSON object members without braces, e.g. `"tokens":[1,2]`.
    pub body: String,
    /// Ground-truth cycles sent as feedback `actual`.
    pub truth: f64,
}

/// The shape of one workload's traffic.
pub struct Plan {
    pub depth: usize,
    pub reconnect_every: Option<u64>,
    pub feedback_every: Option<u64>,
    /// Requests each client sends before the timed window.
    pub warmup: u64,
    /// Keep reply lines (for the bit-identity spot check).
    pub keep_replies: bool,
    /// Draws the next request from a client's seeded stream.
    pub next: Box<dyn Fn(&mut StdRng) -> Item + Sync>,
}

/// One timed request.
pub struct Sent {
    pub line: String,
    /// Client-observed latency, ms; `f64::INFINITY` when it failed.
    pub latency_ms: f64,
    pub ok: bool,
    /// First request on a freshly opened connection.
    pub first_on_conn: bool,
    /// `error.kind` of a failed reply, or `lost`.
    pub failure: Option<String>,
    pub reply: Option<String>,
}

pub struct Driven {
    pub sent: Vec<Sent>,
    /// Connection set-up times and first-reply latencies, warm-up included
    /// (a persistent connection is opened only there).
    pub connect_ms: Vec<f64>,
    pub first_reply_ms: Vec<f64>,
    /// Timed window: barrier release until the last client finished.
    pub elapsed_s: f64,
    /// The daemon's CPU time over the timed window, s.
    pub daemon_cpu_s: f64,
    /// Host-speed slices taken during the timed window, ms.
    pub probe_ms: Vec<f64>,
    pub spans: Vec<Span>,
    /// Replies that did not answer the request they were read for.
    pub mismatches: Vec<String>,
}

impl Driven {
    pub fn ok(&self) -> usize {
        self.sent.iter().filter(|s| s.ok).count()
    }
}

/// Runs `CLIENTS` closed-loop clients for `duration` after a warm-up,
/// reading the CPU clock of the daemon `pid` when every client has warmed
/// up and again when the last one has finished, and taking a `speed` slice
/// every `PROBE_EVERY` in between. `tag` prefixes request ids so repeated
/// windows never reuse an id; span times are relative to `origin`.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: SocketAddr,
    pid: u32,
    plan: &Plan,
    seed: u64,
    tag: &str,
    duration: Duration,
    traced: bool,
    origin: Instant,
    speed: &mut Speed,
) -> Result<Driven, String> {
    // The clients and this thread: warmed up, then go.
    let (warmed, go) = (Barrier::new(CLIENTS + 1), Barrier::new(CLIENTS + 1));
    let mut probe_ms = Vec::new();
    let (results, cpu): (Vec<Result<ClientOut, String>>, Result<u64, String>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (warmed, go) = (&warmed, &go);
                    scope.spawn(move || {
                        let mut client = Client::new(addr, plan, seed, c, tag, traced, origin);
                        let warm = client.run_warmup();
                        // Every client reaches the barriers, even after a failed
                        // warm-up, so no thread waits forever.
                        warmed.wait();
                        go.wait();
                        warm?;
                        let start = Instant::now();
                        let deadline = start + duration;
                        while Instant::now() < deadline {
                            client.generation(true)?;
                        }
                        Ok(ClientOut {
                            start,
                            end: Instant::now(),
                            client,
                        })
                    })
                })
                .collect();
            warmed.wait();
            let cpu0 = crate::cpu::process_ns(pid);
            go.wait();
            probe_ms.push(speed.slice());
            while !handles.iter().all(|h| h.is_finished()) {
                std::thread::sleep(PROBE_EVERY);
                probe_ms.push(speed.slice());
            }
            let results = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect();
            let cpu = cpu0.and_then(|c0| Ok(crate::cpu::process_ns(pid)? - c0));
            (results, cpu)
        });
    let mut out = Driven {
        sent: Vec::new(),
        connect_ms: Vec::new(),
        first_reply_ms: Vec::new(),
        elapsed_s: 0.0,
        daemon_cpu_s: cpu? as f64 * 1e-9,
        probe_ms,
        spans: Vec::new(),
        mismatches: Vec::new(),
    };
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for r in results {
        let mut c = r?;
        first = Some(first.map_or(c.start, |f: Instant| f.min(c.start)));
        last = Some(last.map_or(c.end, |l: Instant| l.max(c.end)));
        out.sent.append(&mut c.client.sent);
        out.connect_ms.append(&mut c.client.connect_ms);
        out.first_reply_ms.append(&mut c.client.first_reply_ms);
        out.mismatches.append(&mut c.client.mismatches);
        c.client.tracer.drain_into(&mut out.spans);
    }
    if let (Some(f), Some(l)) = (first, last) {
        out.elapsed_s = l.duration_since(f).as_secs_f64();
    }
    Ok(out)
}

/// Splits `duration` into windows of about `WINDOW` and drives each with
/// fresh connections and its own request stream, so one window's client
/// phase alignment (which generations share a micro-batch) does not set
/// the whole run's figure. `traced(k)` says whether window `k` records
/// spans. Returns every window.
#[allow(clippy::too_many_arguments)]
pub fn drive_windows(
    addr: SocketAddr,
    pid: u32,
    plan: &Plan,
    seed: u64,
    duration: Duration,
    traced: impl Fn(usize) -> bool,
    origin: Instant,
    speed: &mut Speed,
) -> Result<Vec<Driven>, String> {
    let windows = ((duration.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(1);
    (0..windows)
        .map(|k| {
            let tag = format!("w{k}-");
            let seed = seed ^ (k as u64).wrapping_mul(0xa24b_aed4_963e_e407);
            drive(
                addr,
                pid,
                plan,
                seed,
                &tag,
                duration / windows as u32,
                traced(k),
                origin,
                speed,
            )
        })
        .collect()
}

/// Target length of one measurement window. Short windows give many
/// independent phase alignments per run, so their median is steady.
pub const WINDOW: Duration = Duration::from_secs(2);

struct ClientOut<'p> {
    start: Instant,
    end: Instant,
    client: Client<'p>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    requests: u64,
}

struct Client<'p> {
    addr: SocketAddr,
    plan: &'p Plan,
    rng: StdRng,
    id_prefix: String,
    k: u64,
    conn: Option<Conn>,
    last_pred: HashMap<usize, f64>,
    tracer: Tracer,
    sent: Vec<Sent>,
    connect_ms: Vec<f64>,
    first_reply_ms: Vec<f64>,
    mismatches: Vec<String>,
}

impl<'p> Client<'p> {
    fn new(
        addr: SocketAddr,
        plan: &'p Plan,
        seed: u64,
        client: usize,
        tag: &str,
        traced: bool,
        origin: Instant,
    ) -> Client<'p> {
        Client {
            addr,
            plan,
            rng: StdRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(client as u64 + 1)),
            ),
            id_prefix: format!("{tag}{client}-"),
            k: 0,
            conn: None,
            last_pred: HashMap::new(),
            tracer: Tracer::new(traced, origin, client + 1),
            sent: Vec::new(),
            connect_ms: Vec::new(),
            first_reply_ms: Vec::new(),
            mismatches: Vec::new(),
        }
    }

    fn run_warmup(&mut self) -> Result<(), String> {
        while self.k < self.plan.warmup {
            self.generation(false)?;
        }
        Ok(())
    }

    fn connect(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        let addr = self.addr;
        let stream = self
            .tracer
            .span("net.connect", self.k, |_| TcpStream::connect(addr))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        // Kept even during warm-up: a persistent connection opens only there.
        self.connect_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let _ = stream.set_nodelay(true);
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        self.conn = Some(Conn {
            reader: BufReader::new(stream),
            writer,
            requests: 0,
        });
        Ok(())
    }

    /// Sends one generation and reads every reply. `record` false is the
    /// warm-up: nothing is kept.
    fn generation(&mut self, record: bool) -> Result<(), String> {
        let reconnect = match (&self.conn, self.plan.reconnect_every) {
            (None, _) => true,
            (Some(c), Some(every)) => c.requests >= every,
            _ => false,
        };
        if reconnect {
            self.conn = None;
            self.connect()?;
        }
        let first_req_on_conn = self.conn.as_ref().map_or(0, |c| c.requests) == 0;
        let mut batch = String::new();
        let mut pending = Vec::with_capacity(self.plan.depth);
        for _ in 0..self.plan.depth {
            let item = (self.plan.next)(&mut self.rng);
            let id = format!("{}{}", self.id_prefix, self.k);
            let feedback = match self.plan.feedback_every {
                Some(every) if self.k % every == every - 1 => {
                    let predicted = self
                        .last_pred
                        .get(&item.key)
                        .copied()
                        .unwrap_or(item.truth * 0.5);
                    format!(
                        ",\"feedback\":{{\"metric\":\"cycles\",\"actual\":{:?},\"predicted\":{predicted:?}}}",
                        item.truth
                    )
                }
                _ => String::new(),
            };
            let line = format!("{{\"id\":\"{id}\",{}{feedback}}}", item.body);
            batch.push_str(&line);
            batch.push('\n');
            pending.push((id, line, item.key));
            self.k += 1;
        }
        let gen_id = self.k;
        let plan = self.plan;
        let mut conn = self.conn.take().expect("connected above");
        let mut results: Vec<(Option<String>, Instant)> = Vec::with_capacity(pending.len());
        let t_send = Instant::now();
        let wrote = self.tracer.span("client.generation", gen_id, |t| {
            let wrote = t.span("net.write", gen_id, |_| {
                conn.writer.write_all(batch.as_bytes())
            });
            if wrote.is_ok() {
                for (i, _) in pending.iter().enumerate() {
                    let mut reply = String::new();
                    let read = t.span("net.read", gen_id + i as u64, |_| {
                        conn.reader.read_line(&mut reply)
                    });
                    let at = Instant::now();
                    t.record("client.request", gen_id + i as u64, t_send, at);
                    match read {
                        Ok(n) if n > 0 => results.push((Some(reply), at)),
                        _ => break,
                    }
                }
            }
            wrote
        });
        conn.requests += pending.len() as u64;
        let healthy = wrote.is_ok() && results.len() == pending.len();
        if healthy {
            self.conn = Some(conn);
        }
        for (i, (id, line, key)) in pending.into_iter().enumerate() {
            let got = results.get(i);
            let (ok, failure, latency_ms, reply) = match got {
                None => (false, Some("lost".to_string()), f64::INFINITY, None),
                Some((Some(reply), at)) => {
                    let ms = at.duration_since(t_send).as_secs_f64() * 1e3;
                    match classify(reply, &id) {
                        Reply::Ok(pred) => {
                            if let Some(v) = pred {
                                self.last_pred.insert(key, v);
                            }
                            (true, None, ms, Some(reply.clone()))
                        }
                        Reply::Failed(kind) => {
                            (false, Some(kind), f64::INFINITY, Some(reply.clone()))
                        }
                        Reply::WrongId(got) => {
                            self.mismatches
                                .push(format!("request `{id}` answered as `{got}`"));
                            (
                                false,
                                Some("wrong_id".into()),
                                f64::INFINITY,
                                Some(reply.clone()),
                            )
                        }
                    }
                }
                Some((None, _)) => (false, Some("lost".to_string()), f64::INFINITY, None),
            };
            if first_req_on_conn && i == 0 && ok {
                self.first_reply_ms.push(latency_ms);
            }
            if record {
                self.sent.push(Sent {
                    line,
                    latency_ms,
                    ok,
                    first_on_conn: first_req_on_conn && i == 0,
                    failure,
                    reply: if plan.keep_replies { reply } else { None },
                });
            }
        }
        Ok(())
    }
}

enum Reply {
    /// Carries the predicted cycles when present.
    Ok(Option<f64>),
    Failed(String),
    WrongId(String),
}

fn classify(reply: &str, id: &str) -> Reply {
    let Ok(v) = serde_json::parse_value(reply.trim()) else {
        return Reply::Failed("unparseable_reply".into());
    };
    let got = crate::field(&v, "id").and_then(Value::as_str).unwrap_or("");
    if got != id {
        return Reply::WrongId(got.to_string());
    }
    if crate::field(&v, "ok") != Some(&Value::Bool(true)) {
        let kind = crate::field(&v, "error")
            .and_then(|e| crate::field(e, "kind"))
            .and_then(Value::as_str)
            .unwrap_or("error");
        return Reply::Failed(kind.to_string());
    }
    let cycles = crate::field(&v, "predictions")
        .and_then(Value::as_array)
        .and_then(|ps| {
            ps.iter()
                .find(|p| crate::field(p, "metric").and_then(Value::as_str) == Some("cycles"))
        })
        .and_then(|p| crate::number(crate::field(p, "value")?));
    Reply::Ok(cycles)
}

/// Sends `lines` pipelined on one fresh connection and returns the replies
/// in order (used by the pre-timing correctness gate).
pub fn exchange(addr: SocketAddr, lines: &[String]) -> Result<Vec<String>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    let mut batch = lines.join("\n");
    batch.push('\n');
    writer
        .write_all(batch.as_bytes())
        .map_err(|e| format!("gate write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::with_capacity(lines.len());
    for _ in lines {
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => replies.push(reply),
            _ => return Err("gate connection closed before every reply arrived".into()),
        }
    }
    Ok(replies)
}
