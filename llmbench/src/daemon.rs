//! A `llmulator serve --tcp 127.0.0.1:0` daemon under test: spawn until the
//! listening banner, `{"stats": true}` snapshots, peak memory, and a SIGTERM
//! teardown that checks the graceful drain.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a SIGTERM'd daemon may take to drain (the online calibrator
/// ingests whatever feedback is still queued before the final checkpoint).
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn until the listening banner (model load included), wall time.
    pub setup: Duration,
    /// The daemon's CPU time up to its listening banner, s.
    pub setup_cpu_s: f64,
    stderr: Arc<Mutex<Vec<String>>>,
    reader: Option<JoinHandle<()>>,
}

/// What a clean shutdown reported.
pub struct Drain {
    /// Wall time from SIGTERM to process exit.
    pub seconds: f64,
    /// The daemon's final `serve: ... bye` summary line.
    pub summary: String,
}

impl Daemon {
    /// Spawns `bin serve --model MODEL --tcp 127.0.0.1:0 --workers 2
    /// [--calibrate]` and waits for its banner.
    pub fn spawn(bin: &Path, model: &Path, calibrate: bool) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--model")
            .arg(model)
            .args(["--tcp", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if calibrate {
            cmd.arg("--calibrate");
        }
        let start = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut reader = BufReader::new(stderr);
        let mut seen = Vec::new();
        let addr = loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "daemon exited before listening: {}",
                        seen.join(" | ")
                    ));
                }
                Ok(_) => {}
            }
            let line = line.trim_end().to_string();
            if let Some(rest) = line.strip_prefix("serve: listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                match addr.parse() {
                    Ok(a) => break a,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparseable banner `{line}`"));
                    }
                }
            }
            seen.push(line);
        };
        let setup = start.elapsed();
        let setup_cpu_s = match crate::cpu::process_ns(child.id()) {
            Ok(ns) => ns as f64 * 1e-9,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let lines = Arc::new(Mutex::new(seen));
        let sink = Arc::clone(&lines);
        let reader = std::thread::spawn(move || {
            for line in reader.lines() {
                let Ok(line) = line else { break };
                sink.lock().expect("stderr sink poisoned").push(line);
            }
        });
        Ok(Daemon {
            child,
            addr,
            setup,
            setup_cpu_s,
            stderr: lines,
            reader: Some(reader),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One `{"stats": true}` snapshot on a fresh connection.
    pub fn stats(&self) -> Result<Value, String> {
        let mut stream =
            TcpStream::connect(self.addr).map_err(|e| format!("stats connect: {e}"))?;
        stream
            .write_all(b"{\"id\": \"stats\", \"stats\": true}\n")
            .map_err(|e| format!("stats write: {e}"))?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| format!("stats read: {e}"))?;
        let reply =
            serde_json::parse_value(line.trim()).map_err(|e| format!("stats reply: {e}"))?;
        crate::field(&reply, "stats")
            .cloned()
            .ok_or_else(|| format!("stats reply without `stats`: {line}"))
    }

    /// Peak resident memory (`VmHWM`) of the daemon, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// SIGTERM, then wait for the graceful drain: exit status 0 and the
    /// `bye` summary line on stderr.
    pub fn shutdown(mut self) -> Result<Drain, String> {
        let start = Instant::now();
        terminate(self.child.id())?;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if start.elapsed() < DRAIN_LIMIT => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err(format!("daemon did not drain within {DRAIN_LIMIT:?}")),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        };
        let seconds = start.elapsed().as_secs_f64();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let lines = self.stderr.lock().expect("stderr sink poisoned").clone();
        let summary = lines
            .iter()
            .rev()
            .find(|l| l.starts_with("serve: ") && l.ends_with("bye"))
            .cloned();
        match (status.success(), summary) {
            (true, Some(summary)) => Ok(Drain { seconds, summary }),
            (ok, _) => Err(format!(
                "daemon drain failed (exit ok: {ok}); stderr: {}",
                lines.join(" | ")
            )),
        }
    }
}

impl Drop for Daemon {
    /// Error paths never leave a daemon behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(unix)]
fn terminate(pid: u32) -> Result<(), String> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // `pid` is our own live child, so the signal cannot reach a reused pid.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(format!("kill({pid}, SIGTERM) failed"))
    }
}

#[cfg(not(unix))]
fn terminate(_pid: u32) -> Result<(), String> {
    Err("SIGTERM teardown needs a unix host".into())
}

/// Returns free heap pages to the system, then resets this process's
/// `VmHWM` to its resident size (Linux `clear_refs` code 5), so the next
/// reading is the peak of the work that follows, not of free memory that
/// earlier work left in the allocator.
pub fn reset_own_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes a plain integer, only releases
        // pages the allocator holds free, and locks each arena it trims.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak memory: {e}"))
}

/// `VmHWM` from a `/proc/<pid>/status` file, MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path)
        .map_err(|e| format!("cannot read {status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}
