//! Host speed. The per-core speed of the shared host this benchmark runs on
//! moves by up to 2x over minutes and by 1.5x within a second, in CPU time
//! as well as in wall time: other guests on the same physical cores slow
//! every instruction of this one. A run therefore times short slices of a
//! fixed reference kernel, owned by the benchmark and independent of the
//! repository's code, beside the work it measures (on the same thread right
//! after a measured request, or every `PROBE_EVERY` while the daemon or a
//! loop runs), and scales each CPU time it reports by the slices taken with
//! it, to a host on which one slice takes `REFERENCE_MS`. A change to the
//! program under test moves the scaled times as it moves the raw ones; a
//! slower host moves the slices too.

use crate::cpu;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often a probe takes a slice beside running work (about 2% of one
/// CPU).
pub const PROBE_EVERY: Duration = Duration::from_millis(20);

/// Slice CPU time, ms, of the host the scaled times are expressed on (about
/// the fastest one ran on a 2-vCPU Intel Xeon guest).
pub const REFERENCE_MS: f64 = 0.17;

/// Sequence length and width of the reference attention block: the
/// paper-default Medium model's width, at half its `max_len`.
const SEQ: usize = 128;
const D: usize = 32;

/// `out = x · w` for row-major `x` (`rows`×`k`) and `w` (`k`×`cols`), in
/// the i-k-j order that vectorizes.
fn matmul(x: &[f32], w: &[f32], out: &mut [f32], k: usize, cols: usize) {
    out.fill(0.0);
    for (xr, or) in x.chunks(k).zip(out.chunks_mut(cols)) {
        for (kk, &a) in xr.iter().enumerate() {
            for (o, &b) in or.iter_mut().zip(&w[kk * cols..(kk + 1) * cols]) {
                *o += a * b;
            }
        }
    }
}

/// The benchmark's fixed reference work, with its buffers.
struct Kernel {
    x: Vec<f32>,
    w: Vec<f32>,
    q: Vec<f32>,
    kt: Vec<f32>,
    scores: Vec<f32>,
    out: Vec<f32>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            x: (0..SEQ * D)
                .map(|i| ((i % 13) as f32 - 6.0) * 0.05)
                .collect(),
            w: (0..D * D).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect(),
            q: vec![0.0; SEQ * D],
            kt: vec![0.0; D * SEQ],
            scores: vec![0.0; SEQ * SEQ],
            out: vec![0.0; SEQ * D],
        }
    }

    /// One self-attention block at width `D`: projection, scores, softmax
    /// and weighted sum, small matrix products and `exp` like the model's
    /// forward pass. It is all arithmetic on data in the L1 and L2 caches:
    /// a busy host slowed this kind of work, and a walk of dependent loads
    /// through a 256 KiB table hardly at all, so a slice holds no such walk.
    fn round(&mut self) -> f32 {
        matmul(&self.x, &self.w, &mut self.q, D, D);
        for (i, row) in self.q.chunks(D).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                self.kt[j * SEQ + i] = v;
            }
        }
        matmul(&self.q, &self.kt, &mut self.scores, D, SEQ);
        for row in self.scores.chunks_mut(SEQ) {
            let max = row.iter().copied().fold(f32::MIN, f32::max);
            let mut sum = 0.0;
            for s in row.iter_mut() {
                *s = (*s - max).exp();
                sum += *s;
            }
            for s in row.iter_mut() {
                *s /= sum;
            }
        }
        matmul(&self.scores, &self.q, &mut self.out, SEQ, D);
        self.out[D + 1]
    }
}

/// The reference kernel's slices over one run.
pub struct Speed {
    kernel: Kernel,
    /// CPU time of every slice so far, ms, in the order taken.
    pub slices: Vec<f64>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed {
            kernel: Kernel::new(),
            slices: Vec::new(),
        }
    }

    /// Times one slice (one round of the reference kernel) on this thread,
    /// records it and returns its CPU time, ms.
    pub fn slice(&mut self) -> f64 {
        let kernel = &mut self.kernel;
        let (out, ms) = cpu::time_ms(|| kernel.round());
        std::hint::black_box(out);
        self.slices.push(ms);
        ms
    }

    /// Slices taken so far; `slices[mark..]` are the ones taken since.
    pub fn mark(&self) -> usize {
        self.slices.len()
    }

    /// The factor that expresses CPU time spent while `slices` were taken
    /// on the reference host: `REFERENCE_MS` over their median.
    pub fn scale(slices: &[f64]) -> f64 {
        REFERENCE_MS / crate::stats::median(slices)
    }

    /// `scale` of the nine slices around `slices[i]`.
    pub fn scale_near(slices: &[f64], i: usize) -> f64 {
        let from = i.saturating_sub(4).min(slices.len().saturating_sub(9));
        Speed::scale(&slices[from..(from + 9).min(slices.len())])
    }
}

/// Sets its flag when dropped, so the probe stops even if the probed work
/// panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `f` on this thread while a probe thread takes a slice every
/// `PROBE_EVERY`. Returns `f`'s result, the probe's slices, ms, and the
/// probe thread's whole CPU time, ms (to take out of a process CPU time).
pub fn probed<R>(f: impl FnOnce() -> R) -> (R, Vec<f64>, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            let t0 = cpu::thread_ns();
            let mut speed = Speed::new();
            speed.slice();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(PROBE_EVERY);
                speed.slice();
            }
            (speed.slices, (cpu::thread_ns() - t0) as f64 * 1e-6)
        });
        let out = {
            let _stop = StopOnDrop(&stop);
            f()
        };
        let (slices, cpu_ms) = probe.join().expect("the probe thread does not panic");
        (out, slices, cpu_ms)
    })
}
