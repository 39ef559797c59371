//! A reusable buffer arena for allocation-free inference.
//!
//! Forward passes need a handful of temporaries per layer (normalized
//! activations, attention scores, FFN hidden rows). Allocating them per
//! row — or even per call — dominated the profile of the naive inference
//! path; a [`Scratch`] keeps returned matrices pooled so steady-state
//! inference performs no heap allocation at all.

use crate::matrix::Matrix;

/// Pool of reusable [`Matrix`] buffers.
///
/// Buffers handed out are zero-filled at the requested shape; returning them
/// with [`Scratch::recycle`] keeps their allocations alive for the next
/// request. The pool is intentionally
/// shape-agnostic: a recycled buffer's capacity is reused for whatever shape
/// is asked for next.
#[derive(Debug, Default)]
pub struct Scratch {
    mats: Vec<Matrix>,
}

impl Scratch {
    /// An empty pool.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// A zeroed `rows × cols` matrix, reusing a pooled allocation when one
    /// is available.
    ///
    /// Selection is best-fit rather than LIFO: the pooled buffer with the
    /// smallest capacity that already holds the request is preferred, and
    /// when none is large enough the largest buffer grows. The packed batch
    /// path cycles through very differently sized buffers per group (an
    /// `n × n` score block next to a `B·n × d_ff` hidden block), and LIFO
    /// reuse would repeatedly grow small buffers while large ones sit idle.
    pub fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        let need = rows * cols;
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, m) in self.mats.iter().enumerate() {
            let cap = m.capacity();
            let better = match best {
                None => true,
                Some((_, best_cap)) if best_cap >= need => cap >= need && cap < best_cap,
                Some((_, best_cap)) => cap > best_cap,
            };
            if better {
                best = Some((i, cap));
            }
        }
        let mut m = match best {
            Some((i, _)) => self.mats.swap_remove(i),
            None => Matrix::zeros(0, 0),
        };
        m.resize_buf(rows, cols);
        m
    }

    /// Returns a matrix to the pool.
    pub fn recycle(&mut self, m: Matrix) {
        self.mats.push(m);
    }

    /// Number of pooled buffers, for tests.
    pub fn pooled(&self) -> usize {
        self.mats.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_are_zeroed_and_reused() {
        let mut s = Scratch::new();
        let mut m = s.matrix(3, 4);
        m.set(1, 2, 9.0);
        let ptr = m.data().as_ptr();
        let cap_probe = m.data().len();
        assert_eq!(cap_probe, 12);
        s.recycle(m);
        // Smaller shape reuses the same allocation, zeroed.
        let m2 = s.matrix(2, 3);
        assert_eq!(m2.shape(), (2, 3));
        assert!(m2.data().iter().all(|&v| v == 0.0));
        assert_eq!(m2.data().as_ptr(), ptr, "allocation reused");
    }

    #[test]
    fn matrix_reuse_is_best_fit() {
        let mut s = Scratch::new();
        let big = s.matrix(8, 8); // capacity 64
        let small = s.matrix(2, 2); // capacity 4
        let big_ptr = big.data().as_ptr();
        let small_ptr = small.data().as_ptr();
        s.recycle(big);
        s.recycle(small);
        // A small request takes the small buffer even though the big one was
        // recycled first...
        let m = s.matrix(2, 2);
        assert_eq!(m.data().as_ptr(), small_ptr, "small request → small buffer");
        s.recycle(m);
        // ...and a large request takes the big buffer.
        let m = s.matrix(6, 6);
        assert_eq!(m.data().as_ptr(), big_ptr, "large request → large buffer");
        s.recycle(m);
        // A request larger than everything grows the largest buffer.
        let m = s.matrix(16, 16);
        assert_eq!(m.shape(), (16, 16));
        assert_eq!(s.pooled(), 1, "grew a pooled buffer instead of allocating");
    }
}
