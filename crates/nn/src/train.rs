//! Mini-batch training helpers: per-example tapes evaluated in parallel with
//! gradients summed on the main thread, plus the generic scoped-thread map
//! the batch-inference paths fan out with.

use crate::graph::{Graph, NodeId, ParamId, ParamStore};
use crate::matrix::Matrix;

/// Worker count to use when the caller has no preference: the machine's
/// available parallelism (1 when it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, fanning out across up to `threads` scoped
/// threads. Results keep input order; `threads` is clamped to the item
/// count and a single thread short-circuits to a plain map.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    par_map_init(items, threads, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker state: `init` runs once on each worker
/// thread (e.g. to build a [`crate::Scratch`]) and the resulting state is
/// threaded through that worker's `f` calls.
pub fn par_map_init<T: Sync, R: Send, S>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    if threads == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|piece| {
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut state = init();
                    piece
                        .iter()
                        .map(|item| f(&mut state, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    })
}

/// Adds `grads` into `acc` by [`ParamId`]: a parameter already in `acc`
/// sums in place, a new one is appended, so `acc` lists every parameter
/// once in the order the tapes first registered it. When both lists name
/// the same parameters in the same order (every tape of one model
/// registers them alike), each gradient lands on its own position and no
/// search runs.
fn add_grads(acc: &mut Vec<(ParamId, Matrix)>, grads: Vec<(ParamId, Matrix)>) {
    for (at, (pid, g)) in grads.into_iter().enumerate() {
        let slot = match acc.get(at) {
            Some((p, _)) if *p == pid => Some(at),
            _ => acc.iter().position(|(p, _)| *p == pid),
        };
        match slot {
            Some(s) => acc[s].1.add_assign(&g),
            None => acc.push((pid, g)),
        }
    }
}

/// Builds per-example losses in parallel across threads and returns the mean
/// loss plus summed parameter gradients.
///
/// `build` must construct the forward pass and return the `1×1` loss node for
/// one item. The parameter store is shared read-only across threads; a
/// single thread runs inline on the caller's. Tapes may register different
/// parameters (DPO registers only the metric head a triple names): the sum
/// is kept per [`ParamId`], and a parameter a tape did not register counts
/// as a zero gradient for that item.
pub fn batch_grads<T: Sync>(
    store: &ParamStore,
    items: &[T],
    threads: usize,
    build: impl for<'s> Fn(&mut Graph<'s>, &'s ParamStore, &T) -> NodeId + Sync,
) -> (f32, Vec<(ParamId, Matrix)>) {
    if items.is_empty() {
        return (0.0, Vec::new());
    }
    let piece_grads = |piece: &[T]| {
        let mut loss_sum = 0.0f32;
        let mut grads = Vec::new();
        for item in piece {
            let mut g = Graph::new();
            let loss = build(&mut g, store, item);
            loss_sum += g.value(loss).get(0, 0);
            g.backward(loss);
            add_grads(&mut grads, g.param_grads());
        }
        (loss_sum, grads)
    };
    let threads = threads.clamp(1, items.len());
    let results: Vec<(f32, Vec<(ParamId, Matrix)>)> = if threads == 1 {
        vec![piece_grads(items)]
    } else {
        let chunk = items.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|piece| {
                    let piece_grads = &piece_grads;
                    scope.spawn(move || piece_grads(piece))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("training worker panicked"))
                .collect()
        })
    };

    let mut total_loss = 0.0f32;
    let mut grads = Vec::new();
    for (loss, piece) in results {
        total_loss += loss;
        add_grads(&mut grads, piece);
    }
    let inv = 1.0 / items.len() as f32;
    for (_, g) in &mut grads {
        g.scale_assign(inv);
    }
    (total_loss * inv, grads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Matrix::from_vec(1, 2, vec![0.4, -0.2]));
        let items: Vec<usize> = vec![0, 1, 0, 1, 1, 0];
        let run = |threads| {
            batch_grads(&store, &items, threads, |g, store, item| {
                let w = g.param(store, pid);
                g.cross_entropy(w, &[*item])
            })
        };
        let (l1, g1) = run(1);
        let (l2, g2) = run(3);
        assert!((l1 - l2).abs() < 1e-5);
        for ((_, a), (_, b)) in g1.iter().zip(&g2) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn tapes_with_different_params_sum_each_param_on_its_own() {
        // Two items each register a shared parameter and one item-specific
        // head, like DPO triples of different metrics.
        let mut store = ParamStore::new();
        let shared = store.add("shared", Matrix::from_vec(1, 2, vec![0.1, 0.3]));
        let heads = [
            store.add("head.a", Matrix::from_vec(1, 2, vec![0.9, -0.4])),
            store.add("head.b", Matrix::from_vec(1, 2, vec![-0.2, 0.7])),
        ];
        fn build<'s>(g: &mut Graph<'s>, store: &'s ParamStore, item: &usize) -> NodeId {
            let s = g.param(store, ParamId(0));
            let h = g.param(store, ParamId(1 + *item));
            let x = g.mul_elem(s, h);
            g.cross_entropy(x, &[*item])
        }
        let single = |item: usize| {
            let mut g = Graph::new();
            let loss = build(&mut g, &store, &item);
            g.backward(loss);
            g.param_grads()
        };
        let (a, b) = (single(0), single(1));
        for threads in [1, 2] {
            let (_, grads) = batch_grads(&store, &[0usize, 1], threads, build);
            let ids: Vec<ParamId> = grads.iter().map(|(p, _)| *p).collect();
            assert_eq!(ids, [shared, heads[0], heads[1]], "threads={threads}");
            let half = |m: &Matrix| m.data().iter().map(|v| v * 0.5).collect::<Vec<_>>();
            assert_eq!(grads[1].1.data(), half(&a[1].1), "head.a alone");
            assert_eq!(grads[2].1.data(), half(&b[1].1), "head.b alone");
            let mut sum = a[0].1.clone();
            sum.add_assign(&b[0].1);
            assert_eq!(grads[0].1.data(), half(&sum), "shared summed");
        }
    }

    #[test]
    fn empty_batch_is_harmless() {
        let store = ParamStore::new();
        let items: Vec<usize> = vec![];
        let (loss, grads) = batch_grads(&store, &items, 4, |g, _, _| g.input(Matrix::zeros(1, 1)));
        assert_eq!(loss, 0.0);
        assert!(grads.is_empty());
    }

    #[test]
    fn par_map_preserves_order_across_thread_counts() {
        let items: Vec<i64> = (0..23).collect();
        let expect: Vec<i64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 16, 64] {
            assert_eq!(par_map(&items, threads, |&x| x * x), expect, "{threads}");
        }
        assert!(par_map(&[] as &[i64], 4, |&x| x).is_empty());
        assert!(available_threads() >= 1);
    }

    #[test]
    fn gradients_are_batch_means() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Matrix::zeros(1, 2));
        let items = vec![0usize, 0];
        let (_, grads) = batch_grads(&store, &items, 1, |g, store, item| {
            let w = g.param(store, pid);
            g.cross_entropy(w, &[*item])
        });
        let single = {
            let mut g = Graph::new();
            let w = g.param(&store, pid);
            let l = g.cross_entropy(w, &[0]);
            g.backward(l);
            g.param_grads().remove(0).1
        };
        for (a, b) in grads[0].1.data().iter().zip(single.data()) {
            assert!((a - b).abs() < 1e-6, "mean of identical items = item grad");
        }
    }
}
