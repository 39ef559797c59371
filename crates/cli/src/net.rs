//! The TCP transport for `llmulator serve --tcp ADDR`.
//!
//! Hand-rolled on std's [`TcpListener`]/[`TcpStream`] — no network crates.
//! An accept loop hands each connection to its own reader thread; every
//! reader funnels requests into the one shared [`ServePool`], so requests
//! from *different* connections that arrive together share one
//! micro-batch. Each connection pairs its reader with a sequencing writer
//! thread ([`crate::serve::writer_loop`]), so responses return on the right
//! socket in that connection's request order.
//!
//! Shutdown is cooperative: SIGTERM/SIGINT (or a `{"shutdown": true}`
//! request on any connection) sets [`SHUTDOWN`]; the accept loop stops
//! accepting and closes the listener, readers notice within one poll
//! interval and stop reading, everything already accepted is answered and
//! flushed, and the daemon exits 0 with a latency summary.
//!
//! Robustness contract (pinned by `tests/serve_tcp.rs`): byte garbage,
//! oversized lines, split/coalesced frames and mid-request disconnects
//! never panic the daemon or wedge the pool — a malformed line costs its
//! connection one structured error response, nothing more. A client that
//! stops *reading* is bounded too: each connection's writer queue holds at
//! most [`writer_cap`] responses and each socket write carries a
//! [`write_timeout`]; past either limit the connection is condemned and
//! counted as a slow-client disconnect while every other connection keeps
//! its answers.

use crate::serve::{Dispatcher, ResponseTx};
use llmulator::{Error, PoolConfig, ServePool};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

/// Set by the signal handler or a `{"shutdown": true}` request; every
/// accept/read loop polls it and begins the graceful drain when it flips.
pub(crate) static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// A single request line may not exceed this many bytes (the writer's
/// reorder buffer and the parser both hold whole lines in memory); longer
/// lines are answered with a structured error and skipped to the next
/// newline.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How often blocked accept/read calls wake up to poll [`SHUTDOWN`].
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Per-connection writer-queue capacity (responses buffered for a client
/// that is not reading). When a connection's queue fills, the client is
/// disconnected instead of buffering without limit. The
/// `LLMULATOR_WRITER_CAP` env var overrides it — a testing hook so the
/// slow-client tests don't need to queue a thousand responses.
fn writer_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("LLMULATOR_WRITER_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&v| v > 0)
            .unwrap_or(1024)
    })
}

/// How long one socket write may block before the writer gives the
/// connection up (a stalled client with a full TCP window must not wedge
/// the drain). `LLMULATOR_WRITE_TIMEOUT_MS` overrides it for tests.
fn write_timeout() -> Duration {
    static MS: OnceLock<u64> = OnceLock::new();
    Duration::from_millis(*MS.get_or_init(|| {
        std::env::var("LLMULATOR_WRITE_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&v| v > 0)
            .unwrap_or(5000)
    }))
}

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: the one thing a signal handler may safely do.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM and SIGINT to [`SHUTDOWN`] so the daemon drains instead
/// of dying mid-response. Declared directly against libc's `signal(2)` —
/// std links libc on every unix target, and the two-line shim avoids a
/// whole FFI crate.
#[cfg(unix)]
fn install_signal_handlers() {
    type Handler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` matches the sighandler_t signature and is
    // async-signal-safe (a single atomic store).
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Binds `addr`, announces the bound address on stderr (`serve: listening
/// on IP:PORT ...` — tests bind port 0 and parse the real port from this
/// line), serves until [`SHUTDOWN`], then drains.
pub(crate) fn run_tcp(addr: &str, mut pool: ServePool, config: PoolConfig) -> Result<(), Error> {
    install_signal_handlers();
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(e) => {
            // The pool was started by the caller; shut its workers down
            // before reporting the bind failure.
            pool.drain();
            return Err(Error::Io(e).context(format!("cannot listen on `{addr}`")));
        }
    };
    listener.set_nonblocking(true).map_err(Error::Io)?;
    let local = listener.local_addr().map_err(Error::Io)?;
    eprintln!(
        "serve: listening on {local} ({} worker(s), micro-batch up to {}, queue limit {}); \
         one JSON request per line; SIGTERM or {{\"shutdown\": true}} drains and exits",
        config.workers.max(1),
        config.max_batch.max(1),
        config.max_queue.max(1),
    );
    std::thread::scope(|scope| {
        while !SHUTDOWN.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let pool = &pool;
                    scope.spawn(move || handle_connection(stream, pool));
                }
                // Nonblocking accept: idle (or transient per-connection
                // failures like ECONNABORTED) just waits out a poll tick.
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        }
        // Stop accepting before the in-flight work finishes: new clients
        // are refused while accepted requests still get their answers.
        drop(listener);
    });
    pool.drain();
    Ok(())
}

/// Serves one connection: a reader loop on this thread, a sequencing
/// writer thread for the responses. The writer queue is bounded
/// ([`writer_cap`]) and each socket write carries a timeout
/// ([`write_timeout`]), so a client that stops reading is disconnected
/// instead of wedging the daemon or buffering responses without limit.
fn handle_connection(stream: TcpStream, pool: &ServePool) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = write_half.set_write_timeout(Some(write_timeout()));
    let (tx, rx) = mpsc::sync_channel(writer_cap());
    let gone = Arc::new(AtomicBool::new(false));
    let writer = {
        let gone = Arc::clone(&gone);
        let engine = Arc::clone(pool.engine());
        std::thread::spawn(move || {
            crate::serve::writer_loop(BufWriter::new(write_half), &rx, &gone, engine.counters())
        })
    };
    let out = ResponseTx::Bounded {
        tx,
        gone: Arc::clone(&gone),
        engine: Arc::clone(pool.engine()),
    };
    let mut dispatcher = Dispatcher::new(pool, out);
    read_lines(BufReader::new(stream), &mut dispatcher, &gone);
    // Dropping the dispatcher drops its channel sender; the writer exits
    // once every in-flight completion callback has fired, so joining here
    // guarantees all accepted requests on this connection were answered
    // (or the client was observed gone) before the thread ends.
    drop(dispatcher);
    let _ = writer.join();
}

/// The reader loop of both transports (a TCP connection or stdin):
/// accumulates bytes into lines, tolerating split and coalesced TCP
/// frames, and dispatches each complete line. Returns on EOF, read error,
/// client hang-up (`gone`), [`SHUTDOWN`], or a shutdown request. Lines
/// longer than [`MAX_LINE_BYTES`] are answered with a structured error and
/// skipped without buffering them; invalid UTF-8 is decoded lossily, so it
/// costs its line one error response and never ends the loop.
pub(crate) fn read_lines(
    mut reader: impl BufRead,
    dispatcher: &mut Dispatcher<'_>,
    gone: &AtomicBool,
) {
    enum Step {
        Eof,
        Wait,
        Fatal,
        Line { consumed: usize },
        Partial { consumed: usize },
    }
    let mut line: Vec<u8> = Vec::new();
    let mut skipping = false;
    loop {
        if SHUTDOWN.load(Ordering::Relaxed) || gone.load(Ordering::Relaxed) {
            return;
        }
        let step = match reader.fill_buf() {
            Ok([]) => Step::Eof,
            Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !skipping {
                        line.extend_from_slice(&chunk[..pos]);
                    }
                    Step::Line { consumed: pos + 1 }
                }
                None => {
                    if !skipping {
                        line.extend_from_slice(chunk);
                    }
                    Step::Partial {
                        consumed: chunk.len(),
                    }
                }
            },
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Step::Wait
            }
            // Mid-request disconnect, reset, etc.: this connection is done;
            // the pool and every other connection are unaffected.
            Err(_) => Step::Fatal,
        };
        match step {
            Step::Wait => continue,
            Step::Fatal => return,
            Step::Eof => {
                // A trailing unterminated line still gets an answer.
                if !skipping && !line.is_empty() {
                    dispatch_bytes(dispatcher, &line);
                }
                return;
            }
            Step::Line { consumed } => {
                reader.consume(consumed);
                if skipping {
                    skipping = false;
                } else if !dispatch_bytes(dispatcher, &line) {
                    return;
                }
                line.clear();
            }
            Step::Partial { consumed } => {
                reader.consume(consumed);
                if !skipping && line.len() > MAX_LINE_BYTES {
                    dispatcher.reject(&Error::InvalidRequest(format!(
                        "request line exceeds {MAX_LINE_BYTES} bytes and was discarded"
                    )));
                    skipping = true;
                    line.clear();
                }
            }
        }
    }
}

/// Decodes one raw line (lossily — garbage bytes become a malformed-JSON
/// error response, never a panic) and dispatches it. Returns `false` when
/// the line asked the daemon to shut down.
fn dispatch_bytes(dispatcher: &mut Dispatcher<'_>, raw: &[u8]) -> bool {
    let text = String::from_utf8_lossy(raw);
    dispatcher.dispatch(text.trim_end_matches('\r'))
}
