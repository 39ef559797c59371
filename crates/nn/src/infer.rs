//! Forward-only encoder inference: one kernel, also run on changed rows.
//!
//! Every forward pass runs one layer body, `encoder_layer`: pre-norm
//! `q`/`k`/`v` projections, per-head `attention_head`, `wo` and the
//! residual, then the feed-forward block. It is built on the blocked
//! kernels in [`crate::matrix`] and the [`Scratch`] arena, so steady-state
//! inference allocates nothing. Two entry points run it:
//!
//! * [`forward`] — the hot path behind every prediction, one sequence per
//!   call, bit-identical to the autodiff tape forward in
//!   [`Transformer::encode`]. Each head's scores are one GEMM on the
//!   transposed `k` head block, and the softmax row max is taken over eight
//!   lanes (see `lane_max` for the `±0`/NaN argument). `attention_head` is
//!   also the forward of the tape's fused [`crate::Graph::attention`] node,
//!   so training and inference run one attention kernel. The same kernel
//!   can pack a group of same-length sequences into one activation matrix
//!   ([`forward_packed`]: one GEMM per projection for the group, attention
//!   block-diagonal), every packed sample bit-identical to [`forward`] on
//!   that sample alone. Nothing in the prediction path packs; the benchmark's
//!   trace replay is its only caller;
//! * [`encode_cached`] — the paper's *dynamic prediction acceleration*
//!   (Sec. 5.3). When one segment of the input (an operator, or the `data`
//!   scalars) changes between predictions, only the rows that changed, or
//!   that attend to a changed row under the separation mask (Sec. 5.2), are
//!   gathered and run through the same layer body; their keys, values and
//!   outputs are scattered into the cached ones. Every other row keeps its
//!   cached output, and the result is bit-identical to [`forward`].
//!
//! [`encode_naive`] keeps the pre-optimization row loop as the independent
//! test oracle for the kernel.

use crate::graph::ParamStore;
use crate::matrix::{softmax_slice, Matrix};
use crate::scratch::Scratch;
use crate::transformer::{clamp_token, LayerParams, RawHandles, Transformer, TransformerConfig};
use std::ops::Range;

/// Threshold below which a mask entry is considered "blocked".
const MASK_BLOCKED: f32 = -1e8;

/// Cached per-layer state.
#[derive(Debug, Clone)]
struct LayerCache {
    k: Matrix,
    v: Matrix,
    x_out: Matrix,
}

/// Cached encoder state for one token sequence.
#[derive(Debug, Clone)]
pub struct EncoderCache {
    tokens: Vec<u32>,
    layers: Vec<LayerCache>,
    /// Final per-token representations (`n × d`).
    pub seq: Matrix,
    /// Mean-pooled representation (`1 × d`).
    pub pooled: Matrix,
}

impl EncoderCache {
    /// The token sequence this cache was computed for.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }
}

/// Work accounting for one cached forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferStats {
    /// Attention/FFN rows actually recomputed (summed over layers).
    pub rows_computed: usize,
    /// Total rows had nothing been cached.
    pub rows_total: usize,
}

impl InferStats {
    /// Fraction of work skipped thanks to the cache (0 when nothing cached).
    pub fn savings(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            1.0 - self.rows_computed as f64 / self.rows_total as f64
        }
    }
}

/// Row-wise `layer_norm(x) * gain + bias` into `out`, reshaped to `x`'s
/// shape without a zero-fill (every element is written); the same op order
/// as the tape's `layer_norm_rows` → `mul_row` → `add_row` chain.
fn layer_norm_into(x: &Matrix, gain: &Matrix, bias: &Matrix, out: &mut Matrix) {
    out.resize_buf_overwrite(x.rows(), x.cols());
    for i in 0..x.rows() {
        let row = x.row(i);
        let n = row.len() as f32;
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let inv = 1.0 / (var + 1e-5).sqrt();
        let (g, b) = (gain.row(0), bias.row(0));
        for (((o, &v), &g), &b) in out.row_mut(i).iter_mut().zip(row).zip(g).zip(b) {
            *o = (v - mean) * inv * g + b;
        }
    }
}

/// Token plus position embeddings of `ids` into `x` (`ids.len() × d`):
/// packed samples of `n` tokens each, so row `r` takes position `r % n`.
fn embed_into(store: &ParamStore, raw: &RawHandles<'_>, ids: &[usize], n: usize, x: &mut Matrix) {
    let (tok_table, pos_table) = (store.get(raw.tok_embed), store.get(raw.pos_embed));
    for (r, &id) in ids.iter().enumerate() {
        for ((o, &tv), &pv) in x
            .row_mut(r)
            .iter_mut()
            .zip(tok_table.row(id))
            .zip(pos_table.row(r % n))
        {
            *o = tv + pv;
        }
    }
}

/// Lanes of the row-max reduction in [`lane_max`].
const MAX_LANES: usize = 8;

/// Applies `s = s * scale (+ mask)` to one score row in place (the tape's
/// association) and returns its [`lane_max`].
fn scale_mask_max(row: &mut [f32], mask: Option<&[f32]>, scale: f32) -> f32 {
    match mask {
        Some(m) => {
            for (s, &mv) in row.iter_mut().zip(m) {
                *s = *s * scale + mv;
            }
        }
        None => {
            for s in row.iter_mut() {
                *s *= scale;
            }
        }
    }
    lane_max(row)
}

/// Row maximum taken over [`MAX_LANES`] independent lanes and then folded,
/// so no single dependent `max` chain runs the length of the row.
///
/// It equals the sequential `f32::max` fold that [`softmax_slice`] takes,
/// up to the sign of a zero: `f32::max` ignores NaN whichever side it is
/// on and is otherwise order-independent, and a maximum of `+0.0` versus
/// `-0.0` changes no `(v - max).exp()`: it flips only the sign of a zero
/// difference, and `exp(±0)` is `1.0` in `f32::exp` and in the vector
/// `exp` alike, which returns `f32::exp`'s bits for every input. So
/// `softmax_slice_with_max` gives bit-identical output with either.
fn lane_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; MAX_LANES];
    let mut chunks = row.chunks_exact(MAX_LANES);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = lane.max(v);
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = lane.max(v);
    }
    lanes.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// One attention head over column block `off..off+hd`: query rows `qrows`
/// of `q` attend over key/value rows `krows` of `k`/`v` under the
/// `nq × nk` additive `mask`, and the result lands in rows `qrows` of
/// `cat`'s column block.
///
/// The scores are one GEMM: the head's `q` block (gathered into `vh`)
/// times the transposed `k` block (gathered into `head_out`, transposed
/// into `kt`, `hd × nk`), each element summed in head-dimension order. A
/// second pass per row applies `* scale (+ mask)` and takes the lane max
/// ([`scale_mask_max`]) for the softmax, leaving the `nq × nk`
/// probabilities in `scores`. The weighted values `scores × v` block are
/// written into `cat`. `vh`/`head_out` are scratch matrices. Every operand
/// is gathered out of its row block first, so every sample of a pack runs
/// exactly the single-sequence path. [`crate::Graph::attention`] runs this
/// routine per head with a fresh `scores` and keeps it for its backward
/// pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_head(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: Option<&Matrix>,
    qrows: Range<usize>,
    krows: Range<usize>,
    off: usize,
    hd: usize,
    scale: f32,
    scores: &mut Matrix,
    kt: &mut Matrix,
    vh: &mut Matrix,
    head_out: &mut Matrix,
    cat: &mut Matrix,
) {
    q.gather_block_into(qrows.start, qrows.end, off, hd, vh);
    k.gather_block_into(krows.start, krows.end, off, hd, head_out);
    head_out.transpose_into(kt);
    vh.matmul_into(kt, scores);
    for i in 0..scores.rows() {
        let sr = scores.row_mut(i);
        let mx = scale_mask_max(sr, mask.map(|m| m.row(i)), scale);
        crate::matrix::softmax_slice_with_max(sr, mx);
    }
    // head_out = scores × v[krows, off..off+hd].
    v.gather_block_into(krows.start, krows.end, off, hd, vh);
    scores.matmul_into(vh, head_out);
    cat.scatter_block_from(qrows.start, off, head_out);
}

/// The temporaries of [`encoder_layer`], taken from a [`Scratch`] once per
/// pass and recycled into it afterwards.
struct LayerBufs {
    ln: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    scores: Matrix,
    kt: Matrix,
    vh: Matrix,
    head_out: Matrix,
    cat: Matrix,
    proj: Matrix,
    hidden: Matrix,
    ffn: Matrix,
}

impl LayerBufs {
    /// Buffers sized for `rows` activation rows attending over `n` keys.
    fn take(scratch: &mut Scratch, rows: usize, n: usize, cfg: &TransformerConfig) -> LayerBufs {
        let (d, hd) = (cfg.d_model, cfg.d_model / cfg.n_heads);
        LayerBufs {
            ln: scratch.matrix(rows, d),
            q: scratch.matrix(rows, d),
            k: scratch.matrix(rows, d),
            v: scratch.matrix(rows, d),
            scores: scratch.matrix(n, n),
            kt: scratch.matrix(hd, n),
            vh: scratch.matrix(n, hd),
            head_out: scratch.matrix(n, hd),
            cat: scratch.matrix(rows, d),
            proj: scratch.matrix(rows, d),
            hidden: scratch.matrix(rows, cfg.d_ff),
            ffn: scratch.matrix(rows, d),
        }
    }

    fn recycle(self, scratch: &mut Scratch) {
        let b = self;
        for m in [
            b.ln, b.q, b.k, b.v, b.scores, b.kt, b.vh, b.head_out, b.cat, b.proj, b.hidden, b.ffn,
        ] {
            scratch.recycle(m);
        }
    }
}

/// Keys and values the query rows of [`encoder_layer`] attend over.
enum Keys<'a> {
    /// `x` holds this many equal sample blocks, each attending over its
    /// own rows (the packed forward).
    Packed(usize),
    /// `x` holds rows `at` of one sequence: their keys and values are
    /// written into rows `at` of the full-sequence `k`/`v`, and the rows
    /// attend over all of them (the cached path).
    Cached {
        k: &'a mut Matrix,
        v: &'a mut Matrix,
        at: &'a [usize],
    },
}

/// One pre-norm encoder layer, in place on the activation rows `x`: layer
/// norm and the `q`/`k`/`v` projections, per-head [`attention_head`] over
/// `keys` under the per-block additive `mask`, `wo` and the residual, then
/// the feed-forward block and its residual. Each projection is one GEMM
/// over all rows of `x`, and each output row depends only on its own input
/// row and the keys and values it attends over.
fn encoder_layer(
    store: &ParamStore,
    cfg: &TransformerConfig,
    layer: &LayerParams,
    x: &mut Matrix,
    mask: Option<&Matrix>,
    keys: Keys<'_>,
    bufs: &mut LayerBufs,
) {
    let ids = layer.ids();
    let b = bufs;
    // Attention sub-block (pre-norm).
    layer_norm_into(
        x,
        store.get(ids.ln1_gain),
        store.get(ids.ln1_bias),
        &mut b.ln,
    );
    b.ln.matmul_into(store.get(ids.wq), &mut b.q);
    b.ln.matmul_into(store.get(ids.wk), &mut b.k);
    b.ln.matmul_into(store.get(ids.wv), &mut b.v);
    let (blocks, keys, values) = match keys {
        Keys::Packed(blocks) => (blocks, &b.k, &b.v),
        Keys::Cached { k, v, at } => {
            k.scatter_rows_from(at, &b.k);
            v.scatter_rows_from(at, &b.v);
            (1, &*k, &*v)
        }
    };
    let (rows, d) = x.shape();
    let (nq, nk) = (rows / blocks, keys.rows() / blocks);
    let (heads, hd) = (cfg.n_heads, d / cfg.n_heads);
    let scale = 1.0 / (hd as f32).sqrt();
    // Every element is written: the blocks cover the rows, the heads the
    // columns.
    b.cat.resize_buf_overwrite(rows, d);
    for s in 0..blocks {
        for h in 0..heads {
            attention_head(
                &b.q,
                keys,
                values,
                mask,
                s * nq..(s + 1) * nq,
                s * nk..(s + 1) * nk,
                h * hd,
                hd,
                scale,
                &mut b.scores,
                &mut b.kt,
                &mut b.vh,
                &mut b.head_out,
                &mut b.cat,
            );
        }
    }
    b.cat.matmul_into(store.get(ids.wo), &mut b.proj);
    x.add_assign(&b.proj);
    // Feed-forward sub-block (pre-norm).
    layer_norm_into(
        x,
        store.get(ids.ln2_gain),
        store.get(ids.ln2_bias),
        &mut b.ln,
    );
    b.ln.matmul_into(store.get(ids.w1), &mut b.hidden);
    b.hidden.bias_relu(store.get(ids.b1));
    b.hidden.matmul_into(store.get(ids.w2), &mut b.ffn);
    let b2 = store.get(ids.b2);
    for i in 0..rows {
        for ((o, &hv), &bv) in x.row_mut(i).iter_mut().zip(b.ffn.row(i)).zip(b2.row(0)) {
            // Same association as the tape: x + (ffn + b2).
            *o += hv + bv;
        }
    }
}

/// Full-sequence forward pass on the blocked kernels, allocation-free via
/// `scratch` — the production prediction path, one sequence per call.
///
/// Computes the identical sequence of floating-point operations as the
/// autodiff tape forward ([`Transformer::encode`]) without building a tape,
/// so results are bit-identical while running several times faster.
///
/// Returns the `(seq, pooled)` pair (recycle them into `scratch` when done
/// to keep inference allocation-free).
///
/// # Panics
///
/// Panics if `mask` does not match the (truncated) token count.
pub fn forward(
    t: &Transformer,
    store: &ParamStore,
    tokens: &[u32],
    mask: Option<&Matrix>,
    scratch: &mut Scratch,
) -> (Matrix, Matrix) {
    forward_kernel(t, store, std::slice::from_ref(&tokens), mask, scratch)
}

/// Packed batch forward pass over a group of sequences sharing one effective
/// (truncated) length `n`: all `B` samples are packed row-wise into a single
/// `B·n × d` activation matrix and every per-layer projection (`q`/`k`/`v`,
/// `wo`, and both FFN matmuls) runs as **one** blocked GEMM for the whole
/// group instead of one per sample. Attention itself stays block-diagonal —
/// each sample's rows only attend within their own block — so no
/// cross-sample term is ever computed.
///
/// Returns `(seq, pooled)` where `seq` is the packed `B·n × d` per-token
/// matrix (sample `s` owns rows `s·n .. (s+1)·n`) and `pooled` is `B × d`
/// with one mean-pooled row per sample. Because every kernel preserves the
/// per-element accumulation order of the per-sample path, row `s` of
/// `pooled` (and sample `s`'s block of `seq`) is bit-identical to
/// [`forward`] on that sample alone, for any group size.
///
/// Recycle both returned matrices into `scratch` to keep steady-state
/// batch inference allocation-free.
///
/// Nothing in the prediction path calls this: batches run one [`forward`]
/// per sequence, which measured as fast once the GEMM and softmax were
/// vectorized. It is kept for the benchmark's trace replay.
///
/// # Panics
///
/// Panics if `seqs` is empty or the sequences' effective lengths
/// ([`crate::TransformerConfig::effective_len`]) differ.
pub fn forward_packed(
    t: &Transformer,
    store: &ParamStore,
    seqs: &[&[u32]],
    scratch: &mut Scratch,
) -> (Matrix, Matrix) {
    forward_kernel(t, store, seqs, None, scratch)
}

/// The one encoder inference kernel behind [`forward`] and
/// [`forward_packed`]: packs `seqs` row-wise and applies the optional
/// `n × n` additive `mask` inside every sample's attention block.
fn forward_kernel(
    t: &Transformer,
    store: &ParamStore,
    seqs: &[&[u32]],
    mask: Option<&Matrix>,
    scratch: &mut Scratch,
) -> (Matrix, Matrix) {
    let raw = t.raw();
    let cfg = raw.config;
    let b = seqs.len();
    assert!(b > 0, "forward_packed needs at least one sequence");
    let n = cfg.effective_len(seqs[0].len());
    if let Some(m) = mask {
        assert_eq!(m.shape(), (n, n), "mask shape");
    }
    let mut ids = Vec::with_capacity(b * n);
    for s in seqs {
        assert_eq!(
            cfg.effective_len(s.len()),
            n,
            "forward_packed requires equal effective lengths"
        );
        ids.extend(
            s.iter()
                .take(n)
                .map(|&tok| clamp_token(tok, cfg.vocab_size)),
        );
    }
    let rows = b * n;
    let d = cfg.d_model;

    // ---- embeddings (sample s owns rows s·n .. (s+1)·n) ----
    let mut x = scratch.matrix(rows, d);
    embed_into(store, &raw, &ids, n, &mut x);

    // ---- layers: one GEMM per projection for the whole group ----
    let mut bufs = LayerBufs::take(scratch, rows, n, cfg);
    for layer in raw.layers {
        encoder_layer(store, cfg, layer, &mut x, mask, Keys::Packed(b), &mut bufs);
    }

    // ---- final layer norm + per-sample pooling ----
    let mut seq = scratch.matrix(rows, d);
    layer_norm_into(
        &x,
        store.get(raw.final_gain),
        store.get(raw.final_bias),
        &mut seq,
    );
    let mut pooled = scratch.matrix(b, d);
    for s in 0..b {
        seq.mean_rows_block_into(s * n, (s + 1) * n, pooled.row_mut(s));
    }
    bufs.recycle(scratch);
    scratch.recycle(x);
    (seq, pooled)
}

/// The pre-optimization forward pass, kept as a test oracle and perf
/// baseline for [`forward`]: naive axpy row-matmuls with a fresh `Vec` per
/// row, element-wise `get()` accessors in the attention loops, and no
/// buffer reuse — the implementation every prediction ran through before the
/// blocked kernels and [`Scratch`] landed.
///
/// Produces bit-identical `(seq, pooled)` results to [`forward`]. Like the
/// kernels, it skips no zero term, so the identity also holds when a zero
/// weight meets an infinite or NaN activation.
///
/// # Panics
///
/// Panics if `mask` does not match the (truncated) token count.
pub fn encode_naive(
    t: &Transformer,
    store: &ParamStore,
    tokens: &[u32],
    mask: Option<&Matrix>,
) -> (Matrix, Matrix) {
    fn row_matmul(row: &[f32], w: &Matrix) -> Vec<f32> {
        let mut out = vec![0.0f32; w.cols()];
        for (k, &a) in row.iter().enumerate() {
            for (o, &b) in out.iter_mut().zip(w.row(k)) {
                *o += a * b;
            }
        }
        out
    }
    fn layer_norm_row(row: &[f32], gain: &Matrix, bias: &Matrix) -> Vec<f32> {
        let n = row.len() as f32;
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let inv = 1.0 / (var + 1e-5).sqrt();
        row.iter()
            .enumerate()
            .map(|(c, &v)| (v - mean) * inv * gain.get(0, c) + bias.get(0, c))
            .collect()
    }

    let raw = t.raw();
    let cfg = raw.config;
    let n = tokens.len().min(cfg.max_len).max(1);
    let ids: Vec<usize> = tokens
        .iter()
        .take(n)
        .map(|&tok| clamp_token(tok, cfg.vocab_size))
        .collect();
    if let Some(m) = mask {
        assert_eq!(m.shape(), (ids.len(), ids.len()), "mask shape");
    }
    let mut x = Matrix::zeros(ids.len(), cfg.d_model);
    let tok_table = store.get(raw.tok_embed);
    let pos_table = store.get(raw.pos_embed);
    for (i, &id) in ids.iter().enumerate() {
        for c in 0..cfg.d_model {
            x.set(i, c, tok_table.get(id, c) + pos_table.get(i, c));
        }
    }
    let heads = cfg.n_heads;
    let hd = cfg.d_model / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    for layer in raw.layers {
        let idsl = layer.ids();
        let (g1, b1) = (store.get(idsl.ln1_gain), store.get(idsl.ln1_bias));
        let (wq, wk, wv, wo) = (
            store.get(idsl.wq),
            store.get(idsl.wk),
            store.get(idsl.wv),
            store.get(idsl.wo),
        );
        let mut q = Matrix::zeros(ids.len(), cfg.d_model);
        let mut k = Matrix::zeros(ids.len(), cfg.d_model);
        let mut v = Matrix::zeros(ids.len(), cfg.d_model);
        for i in 0..ids.len() {
            let ln = layer_norm_row(x.row(i), g1, b1);
            q.row_mut(i).copy_from_slice(&row_matmul(&ln, wq));
            k.row_mut(i).copy_from_slice(&row_matmul(&ln, wk));
            v.row_mut(i).copy_from_slice(&row_matmul(&ln, wv));
        }
        let (g2, b2) = (store.get(idsl.ln2_gain), store.get(idsl.ln2_bias));
        let (w1, b1f) = (store.get(idsl.w1), store.get(idsl.b1));
        let (w2, b2f) = (store.get(idsl.w2), store.get(idsl.b2));
        let mut x_out = Matrix::zeros(ids.len(), cfg.d_model);
        for i in 0..ids.len() {
            let mut cat = vec![0.0f32; cfg.d_model];
            for h in 0..heads {
                let off = h * hd;
                let mut scores = vec![0.0f32; ids.len()];
                for (j, s) in scores.iter_mut().enumerate() {
                    let mut dot = 0.0f32;
                    for c in 0..hd {
                        dot += q.get(i, off + c) * k.get(j, off + c);
                    }
                    *s = match mask {
                        Some(m) => dot * scale + m.get(i, j),
                        None => dot * scale,
                    };
                }
                softmax_slice(&mut scores);
                for (j, &a) in scores.iter().enumerate() {
                    for c in 0..hd {
                        cat[off + c] += a * v.get(j, off + c);
                    }
                }
            }
            let proj = row_matmul(&cat, wo);
            let mut mid = vec![0.0f32; cfg.d_model];
            for c in 0..cfg.d_model {
                mid[c] = x.get(i, c) + proj[c];
            }
            let ln = layer_norm_row(&mid, g2, b2);
            let mut hrow = row_matmul(&ln, w1);
            for (c, hv) in hrow.iter_mut().enumerate() {
                *hv = (*hv + b1f.get(0, c)).max(0.0);
            }
            let out = row_matmul(&hrow, w2);
            for c in 0..cfg.d_model {
                x_out.set(i, c, mid[c] + (out[c] + b2f.get(0, c)));
            }
        }
        x = x_out;
    }
    let (fg, fb) = (store.get(raw.final_gain), store.get(raw.final_bias));
    let mut seq = Matrix::zeros(ids.len(), cfg.d_model);
    for i in 0..ids.len() {
        let ln = layer_norm_row(x.row(i), fg, fb);
        seq.row_mut(i).copy_from_slice(&ln);
    }
    let mut pooled = Matrix::zeros(1, cfg.d_model);
    for i in 0..ids.len() {
        for c in 0..cfg.d_model {
            pooled.set(0, c, pooled.get(0, c) + seq.get(i, c));
        }
    }
    pooled.scale_assign(1.0 / ids.len().max(1) as f32);
    (seq, pooled)
}

/// Encodes `tokens`, reusing `prev` where the mask proves rows unaffected.
///
/// `mask` is the same additive `n × n` matrix accepted by
/// [`Transformer::encode`]; `None` means full attention (every row depends on
/// every token, so any change invalidates everything).
///
/// Returns the new cache and the work statistics.
///
/// # Panics
///
/// Panics if `mask` does not match the (truncated) token count.
pub fn encode_cached(
    t: &Transformer,
    store: &ParamStore,
    tokens: &[u32],
    mask: Option<&Matrix>,
    prev: Option<&EncoderCache>,
) -> (EncoderCache, InferStats) {
    let mut scratch = Scratch::new();
    encode_cached_with(t, store, tokens, mask, prev, &mut scratch)
}

/// The rows whose layer output can change when the input rows `changed`
/// (non-empty) do: those rows, and every row that attends to one of them
/// under `mask` (without a mask, every row). Softmax gives a blocked entry
/// (`≤ MASK_BLOCKED`) weight exactly zero beside a finite unblocked row
/// maximum. A row with no such maximum (every entry blocked, or one `+inf`)
/// spreads its weight over every row, so it attends to all of them.
fn reached_rows(mask: Option<&Matrix>, changed: &[usize], n: usize) -> Vec<usize> {
    (0..n)
        .filter(|&i| {
            let Some(m) = mask else { return true };
            let row = m.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let sparse = max > MASK_BLOCKED && max < f32::INFINITY;
            !sparse || changed.iter().any(|&j| j == i || row[j] > MASK_BLOCKED)
        })
        .collect()
}

/// [`encode_cached`] with a caller-owned [`Scratch`], so repeated
/// incremental predictions (the design-space-exploration loop) allocate only
/// the returned cache matrices.
///
/// Per layer, the rows that changed or attend to a changed row are gathered
/// and run through the layer body [`forward`] uses, attending over the
/// cached keys and values of every row; the results are scattered back into
/// the cache. So `seq` and `pooled` are bit-identical to [`forward`] under
/// the same mask. Without a usable `prev` (none, or a different token count)
/// every row is computed.
///
/// # Panics
///
/// Panics if `mask` does not match the (truncated) token count.
pub fn encode_cached_with(
    t: &Transformer,
    store: &ParamStore,
    tokens: &[u32],
    mask: Option<&Matrix>,
    prev: Option<&EncoderCache>,
    scratch: &mut Scratch,
) -> (EncoderCache, InferStats) {
    let raw = t.raw();
    let cfg = raw.config;
    let n = cfg.effective_len(tokens.len());
    let ids: Vec<usize> = tokens
        .iter()
        .take(n)
        .map(|&tok| clamp_token(tok, cfg.vocab_size))
        .collect();
    if let Some(m) = mask {
        assert_eq!(m.shape(), (n, n), "mask shape");
    }
    let usable_prev = prev.filter(|p| p.tokens.len() == n && p.layers.len() == raw.layers.len());
    // Rows whose input changed; every row without a usable cache.
    let mut rows: Vec<usize> = (0..n)
        .filter(|&i| usable_prev.is_none_or(|p| p.tokens[i] as usize != ids[i]))
        .collect();
    let mut cache = match usable_prev {
        Some(p) => p.clone(),
        None => {
            let zeros = Matrix::zeros(n, cfg.d_model);
            let layer = LayerCache {
                k: zeros.clone(),
                v: zeros.clone(),
                x_out: zeros.clone(),
            };
            EncoderCache {
                tokens: Vec::new(),
                layers: vec![layer; raw.layers.len()],
                seq: zeros,
                pooled: Matrix::zeros(1, cfg.d_model),
            }
        }
    };
    cache.tokens = ids.iter().map(|&id| id as u32).collect();
    let mut x0 = scratch.matrix(n, cfg.d_model);
    embed_into(store, &raw, &ids, n, &mut x0);

    let mut stats = InferStats {
        rows_computed: 0,
        rows_total: n * raw.layers.len(),
    };
    let mut x = scratch.matrix(n, cfg.d_model);
    let mut mask_rows = scratch.matrix(n, n);
    let mut bufs = LayerBufs::take(scratch, n, n, cfg);
    let mut input = &x0;
    for (layer, lc) in raw.layers.iter().zip(cache.layers.iter_mut()) {
        if rows.is_empty() {
            break;
        }
        rows = reached_rows(mask, &rows, n);
        input.gather_rows_into(&rows, &mut x);
        if let Some(m) = mask {
            m.gather_rows_into(&rows, &mut mask_rows);
        }
        let keys = Keys::Cached {
            k: &mut lc.k,
            v: &mut lc.v,
            at: &rows,
        };
        let mask = mask.map(|_| &mask_rows);
        encoder_layer(store, cfg, layer, &mut x, mask, keys, &mut bufs);
        lc.x_out.scatter_rows_from(&rows, &x);
        stats.rows_computed += rows.len();
        input = &lc.x_out;
    }

    // ---- final layer norm + pooling: O(n·d), so over every row ----
    let last = cache.layers.last().map_or(&x0, |l| &l.x_out);
    let (gain, bias) = (store.get(raw.final_gain), store.get(raw.final_bias));
    layer_norm_into(last, gain, bias, &mut cache.seq);
    let pooled = cache.pooled.row_mut(0);
    cache.seq.mean_rows_block_into(0, n, pooled);
    bufs.recycle(scratch);
    for m in [x0, x, mask_rows] {
        scratch.recycle(m);
    }
    (cache, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::transformer::TransformerConfig;

    fn setup() -> (Transformer, ParamStore) {
        let mut store = ParamStore::new();
        let t = Transformer::new(TransformerConfig::tiny(64), &mut store, 11);
        (t, store)
    }

    fn close(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn cached_full_pass_matches_tape_forward() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22, 7, 4];
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &tokens, None);
        let (cache, stats) = encode_cached(&t, &store, &tokens, None, None);
        assert!(close(g.value(out.seq), &cache.seq, 1e-4));
        assert!(close(g.value(out.pooled), &cache.pooled, 1e-4));
        assert_eq!(stats.rows_computed, stats.rows_total);
    }

    #[test]
    fn forward_is_bit_identical_to_tape() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22, 7, 4, 13, 2];
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &tokens, None);
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward(&t, &store, &tokens, None, &mut scratch);
        assert_eq!(g.value(out.seq).data(), seq.data(), "seq drifted");
        assert_eq!(g.value(out.pooled).data(), pooled.data(), "pooled drifted");
    }

    #[test]
    fn forward_is_bit_identical_to_tape_with_mask() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22, 7];
        let mask = Matrix::from_fn(5, 5, |r, c| if (r + c) % 3 == 0 { -1e9 } else { 0.0 });
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &tokens, Some(&mask));
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward(&t, &store, &tokens, Some(&mask), &mut scratch);
        assert_eq!(g.value(out.seq).data(), seq.data(), "masked seq drifted");
        assert_eq!(g.value(out.pooled).data(), pooled.data());
    }

    #[test]
    fn naive_oracle_is_bit_identical_to_forward() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22, 7, 4, 13];
        let mut scratch = Scratch::new();
        for mask in [
            None,
            Some(Matrix::from_fn(7, 7, |r, c| {
                if r.abs_diff(c) > 2 {
                    -1e9
                } else {
                    0.0
                }
            })),
        ] {
            let (ns, np) = encode_naive(&t, &store, &tokens, mask.as_ref());
            let (fs, fp) = forward(&t, &store, &tokens, mask.as_ref(), &mut scratch);
            assert_eq!(ns.data(), fs.data(), "seq (mask={})", mask.is_some());
            assert_eq!(np.data(), fp.data(), "pooled (mask={})", mask.is_some());
        }
    }

    #[test]
    fn lane_max_feeds_softmax_bit_identically_to_the_sequential_fold() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for len in [7usize, 8, 9] {
            for case in 0..5 {
                // Negative base entries, so a zero is the row maximum.
                let mut row: Vec<f32> = (0..len).map(|j| -1.0 - 0.25 * j as f32).collect();
                match case {
                    0 => (row[1], row[len - 1]) = (0.0, -0.0),
                    1 => (row[0], row[len - 2]) = (-0.0, 0.0),
                    2 => row[len / 2] = nan,
                    3 => row[len - 1] = inf,
                    _ => row.fill(f32::NEG_INFINITY),
                }
                let mask_row: Vec<f32> =
                    (0..len).map(|j| if j == 2 { -1e9 } else { 0.0 }).collect();
                for mask in [None, Some(&mask_row[..])] {
                    let scale = 0.353_553_4;
                    let mut fast = row.clone();
                    let mx = scale_mask_max(&mut fast, mask, scale);
                    crate::matrix::softmax_slice_with_max(&mut fast, mx);
                    let mut slow: Vec<f32> = row
                        .iter()
                        .enumerate()
                        .map(|(j, &s)| match mask {
                            Some(m) => s * scale + m[j],
                            None => s * scale,
                        })
                        .collect();
                    softmax_slice(&mut slow);
                    assert_eq!(
                        bits(&fast),
                        bits(&slow),
                        "len={len} case={case} mask={}",
                        mask.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_cached_pass_is_bit_identical_to_forward() {
        let (t, store) = setup();
        let tokens = [5u32, 6, 7, 8, 9];
        let (cache, _) = encode_cached(&t, &store, &tokens, None, None);
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward(&t, &store, &tokens, None, &mut scratch);
        assert_eq!(cache.seq.data(), seq.data());
        assert_eq!(cache.pooled.data(), pooled.data());
    }

    #[test]
    fn forward_reuses_scratch_allocations() {
        let (t, store) = setup();
        let tokens = [1u32, 2, 3, 4];
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward(&t, &store, &tokens, None, &mut scratch);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        let before = scratch.pooled();
        let (seq, pooled) = forward(&t, &store, &tokens, None, &mut scratch);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        assert_eq!(scratch.pooled(), before, "steady state pools buffers");
    }

    #[test]
    fn forward_packed_is_bit_identical_to_naive_any_group_size() {
        let (t, store) = setup();
        let d = t.config().d_model;
        for group in [1usize, 2, 3, 5, 8] {
            let seqs: Vec<Vec<u32>> = (0..group)
                .map(|s| (0..6).map(|j| ((s * 13 + j * 7) % 40) as u32).collect())
                .collect();
            let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
            let mut scratch = Scratch::new();
            let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
            assert_eq!(seq.shape(), (group * 6, d));
            assert_eq!(pooled.shape(), (group, d));
            for (s, tokens) in seqs.iter().enumerate() {
                let (es, ep) = encode_naive(&t, &store, tokens, None);
                for i in 0..6 {
                    assert_eq!(
                        seq.row(s * 6 + i),
                        es.row(i),
                        "group={group} sample={s} row={i}"
                    );
                }
                assert_eq!(pooled.row(s), ep.row(0), "group={group} sample={s}");
            }
        }
    }

    #[test]
    fn forward_pack_of_one_with_mask_is_bit_identical_to_naive() {
        let (t, store) = setup();
        // Longer than max_len (32), so the mask covers the truncated block;
        // rows 0 and 5 are fully masked (uniform softmax).
        let tokens: Vec<u32> = (0..40).map(|i| (i * 11) % 60).collect();
        let mask = Matrix::from_fn(32, 32, |r, c| {
            if r == 0 || r == 5 || (r + 2 * c) % 5 == 0 {
                -1e9
            } else {
                0.0
            }
        });
        let mut scratch = Scratch::new();
        let (fs, fp) = forward(&t, &store, &tokens, Some(&mask), &mut scratch);
        let (ns, np) = encode_naive(&t, &store, &tokens, Some(&mask));
        assert_eq!(fs.data(), ns.data(), "masked seq drifted");
        assert_eq!(fp.data(), np.data(), "masked pooled drifted");
    }

    #[test]
    fn forward_packed_truncates_like_forward() {
        let (t, store) = setup();
        // Longer than max_len (32): both sequences truncate to the same
        // effective length and pack together.
        let long: Vec<u32> = (0..50).map(|i| i % 30).collect();
        let longer: Vec<u32> = (0..64).map(|i| (i * 3) % 30).collect();
        let refs: Vec<&[u32]> = vec![&long, &longer];
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        assert_eq!(seq.rows(), 2 * 32);
        for (s, tokens) in [&long, &longer].iter().enumerate() {
            let (_, ep) = encode_naive(&t, &store, tokens, None);
            assert_eq!(pooled.row(s), ep.row(0), "sample {s}");
        }
    }

    #[test]
    fn forward_packed_handles_empty_sequences() {
        let (t, store) = setup();
        let refs: Vec<&[u32]> = vec![&[], &[]];
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        assert_eq!(seq.rows(), 0);
        assert_eq!(pooled.shape(), (2, t.config().d_model));
        let (_, ep) = encode_naive(&t, &store, &[], None);
        for s in 0..2 {
            assert_eq!(pooled.row(s), ep.row(0), "empty sample {s}");
        }
    }

    #[test]
    #[should_panic(expected = "equal effective lengths")]
    fn forward_packed_rejects_mixed_lengths() {
        let (t, store) = setup();
        let refs: Vec<&[u32]> = vec![&[1, 2, 3], &[1, 2]];
        let mut scratch = Scratch::new();
        let _ = forward_packed(&t, &store, &refs, &mut scratch);
    }

    #[test]
    fn forward_packed_clamps_out_of_vocab_tokens() {
        let (t, store) = setup();
        let vocab = t.config().vocab_size as u32;
        let wild: Vec<u32> = vec![3, 9_999_999, 1, u32::MAX];
        let clamped: Vec<u32> = wild.iter().map(|&x| x.min(vocab - 1)).collect();
        let mut scratch = Scratch::new();
        let (_, wild_pooled) = forward_packed(&t, &store, &[&wild], &mut scratch);
        let (_, clamped_pooled) = forward_packed(&t, &store, &[&clamped], &mut scratch);
        assert_eq!(wild_pooled.data(), clamped_pooled.data());
    }

    #[test]
    fn forward_packed_reuses_scratch_allocations() {
        let (t, store) = setup();
        let seqs: Vec<Vec<u32>> = (0..4).map(|s| vec![s as u32 + 1; 5]).collect();
        let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
        let mut scratch = Scratch::new();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        let before = scratch.pooled();
        let (seq, pooled) = forward_packed(&t, &store, &refs, &mut scratch);
        scratch.recycle(seq);
        scratch.recycle(pooled);
        assert_eq!(scratch.pooled(), before, "steady state pools buffers");
    }

    #[test]
    fn cached_pass_matches_with_mask() {
        let (t, store) = setup();
        let tokens = [3u32, 9, 1, 22];
        let mask = Matrix::from_fn(4, 4, |r, c| if (r + c) % 2 == 0 { 0.0 } else { -1e9 });
        let mut g = Graph::new();
        let out = t.encode(&mut g, &store, &tokens, Some(&mask));
        let (cache, _) = encode_cached(&t, &store, &tokens, Some(&mask), None);
        assert!(close(g.value(out.seq), &cache.seq, 1e-4));
    }

    #[test]
    fn unchanged_rerun_computes_nothing() {
        let (t, store) = setup();
        let tokens = [5u32, 6, 7];
        let (cache, _) = encode_cached(&t, &store, &tokens, None, None);
        let (cache2, stats) = encode_cached(&t, &store, &tokens, None, Some(&cache));
        assert_eq!(stats.rows_computed, 0);
        assert!(close(&cache.seq, &cache2.seq, 1e-6));
    }

    #[test]
    fn masked_change_recomputes_only_reachable_rows() {
        let (t, store) = setup();
        // Two isolated blocks of two tokens: {0,1} and {2,3}.
        let mask = Matrix::from_fn(4, 4, |r, c| if (r < 2) == (c < 2) { 0.0 } else { -1e9 });
        let a = [1u32, 2, 3, 4];
        let mut b = a;
        b[3] = 9; // change inside the second block
        let (cache, _) = encode_cached(&t, &store, &a, Some(&mask), None);
        let (cache_b, stats) = encode_cached(&t, &store, &b, Some(&mask), Some(&cache));
        // Only rows 2 & 3 per layer should recompute.
        assert_eq!(stats.rows_computed, 2 * t.config().n_layers);
        // Block {0,1} outputs identical; block {2,3} differs.
        for i in 0..2 {
            for c in 0..t.config().d_model {
                assert!((cache.seq.get(i, c) - cache_b.seq.get(i, c)).abs() < 1e-6);
            }
        }
        let diff: f32 = (2..4)
            .map(|i| {
                (0..t.config().d_model)
                    .map(|c| (cache.seq.get(i, c) - cache_b.seq.get(i, c)).abs())
                    .sum::<f32>()
            })
            .sum();
        assert!(diff > 1e-5);
    }

    #[test]
    fn incremental_equals_fresh_computation() {
        let (t, store) = setup();
        let mask = Matrix::from_fn(6, 6, |r, c| if r.abs_diff(c) <= 1 { 0.0 } else { -1e9 });
        let a = [1u32, 2, 3, 4, 5, 6];
        let mut b = a;
        b[0] = 8;
        let (cache_a, _) = encode_cached(&t, &store, &a, Some(&mask), None);
        let (incremental, stats) = encode_cached(&t, &store, &b, Some(&mask), Some(&cache_a));
        let (fresh, _) = encode_cached(&t, &store, &b, Some(&mask), None);
        assert!(
            close(&incremental.seq, &fresh.seq, 1e-4),
            "incremental must equal fresh"
        );
        assert!(stats.rows_computed < stats.rows_total, "must save work");
    }

    #[test]
    fn fully_blocked_row_is_recomputed_when_any_row_changes() {
        let (t, store) = setup();
        // Row 0 blocks every entry, so its softmax spreads over every row and
        // the change at row 2 reaches it.
        let mask = Matrix::from_fn(3, 3, |r, _| if r == 0 { -1e9 } else { 0.0 });
        let (cache, _) = encode_cached(&t, &store, &[1, 2, 3], Some(&mask), None);
        let b = [1u32, 2, 9];
        let (incremental, _) = encode_cached(&t, &store, &b, Some(&mask), Some(&cache));
        let (fresh, _) = encode_cached(&t, &store, &b, Some(&mask), None);
        let (seq, pooled) = forward(&t, &store, &b, Some(&mask), &mut Scratch::new());
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&incremental.seq), bits(&fresh.seq), "stale row");
        assert_eq!(bits(&incremental.seq), bits(&seq));
        assert_eq!(bits(&incremental.pooled), bits(&pooled));
    }

    #[test]
    fn savings_fraction_is_sane() {
        let s = InferStats {
            rows_computed: 3,
            rows_total: 12,
        };
        assert!((s.savings() - 0.75).abs() < 1e-12);
        assert_eq!(InferStats::default().savings(), 0.0);
    }
}
