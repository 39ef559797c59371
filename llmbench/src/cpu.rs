//! On-CPU time. Every timing the benchmark gates on is CPU time, not wall
//! time: on a shared host the wall clock also counts the time the host gives
//! this guest's CPUs to other guests (steal, which paravirtual time
//! accounting keeps out of these clocks) and the time other threads hold a
//! CPU, so wall-clock figures of the same code moved by 2-3x between runs.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec through the pointer, which
    // points at a live, properly laid out local.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time of the calling thread, ns.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID).expect("the thread CPU clock is always readable")
}

/// CPU time of this process, every thread (exited ones too), ns.
pub fn own_process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID).expect("the process CPU clock is always readable")
}

/// CPU time of process `pid`, every thread (exited ones too), ns.
pub fn process_ns(pid: u32) -> Result<u64, String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut clock = 0i32;
    // SAFETY: clock_getcpuclockid writes one clockid_t (an int on Linux)
    // through the pointer, which points at a live local.
    let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
    if rc != 0 {
        return Err(format!("no CPU clock for pid {pid} (error {rc})"));
    }
    read(clock).ok_or_else(|| format!("cannot read the CPU clock of pid {pid}"))
}

/// CPU time `f` takes on the calling thread, ms, with its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = thread_ns();
    let out = f();
    (out, (thread_ns() - t0) as f64 * 1e-6)
}
