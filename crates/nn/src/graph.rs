//! Tape-based reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Graph`] is built per forward pass: every operation appends a node
//! carrying its output value and enough cached state for the backward sweep.
//! Parameters live outside the graph in a [`ParamStore`]. A parameter leaf
//! registered with [`Graph::param`] borrows its matrix from the store for
//! the tape's lifetime `'p` instead of copying it, so a step over a short
//! sequence does not pay for a copy of the whole model. After
//! [`Graph::backward`], [`Graph::param_grads`] consumes the tape and moves
//! each parameter's gradient out to the optimizer.
//!
//! Multi-head attention is one fused node, [`Graph::attention`]. Its forward
//! runs the inference kernel's per-head routine (`infer::attention_head`)
//! and keeps each head's probability matrix `P`. Its hand-written backward
//! runs, per head, `dP = dO·Vᵀ`, `dV = Pᵀ·dO`,
//! `dS = (P ⊙ (dP − rowdot(dP, P))) · scale`, `dQ = dS·K` and `dK = dSᵀ·Q`,
//! and adds each head's column block into zero-initialised `dQ`/`dK`/`dV`.
//! Values and parameter gradients are bit-identical to the per-head chain
//! `slice_cols → matmul_nt → scale → add(mask) → softmax_rows → matmul →
//! concat_cols`; the additive mask is a constant and gets no gradient.

use crate::infer::attention_head;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::ops::Deref;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// Owns model parameters (and nothing else — optimizer state lives in the
/// optimizer).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.params.push(value);
        self.names.push(name.into());
        ParamId(self.params.len() - 1)
    }

    /// Borrow of a parameter value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.params[id.0]
    }

    /// Mutable borrow of a parameter value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0]
    }

    /// The parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across parameters.
    pub fn scalar_count(&self) -> usize {
        self.params.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// Iterates over `(id, matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.params.iter().enumerate().map(|(i, m)| (ParamId(i), m))
    }
}

/// Identifier of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    MatMulNt(NodeId, NodeId),
    Add(NodeId, NodeId),
    AddRow(NodeId, NodeId),
    MulRow(NodeId, NodeId),
    MulElem(NodeId, NodeId),
    Scale(NodeId, f32),
    Relu(NodeId),
    SoftmaxRows(NodeId),
    LayerNormRows {
        input: NodeId,
        // cached per-row (mean, inv_std)
        stats: Vec<(f32, f32)>,
    },
    Gather {
        table: NodeId,
        ids: Vec<usize>,
    },
    MeanRows(NodeId),
    SliceCols {
        input: NodeId,
        start: usize,
    },
    ConcatCols(Vec<NodeId>),
    CrossEntropy {
        logits: NodeId,
        targets: Vec<usize>,
        probs: Matrix,
    },
    Sigmoid(NodeId),
    LogSigmoid(NodeId),
    Attention {
        q: NodeId,
        k: NodeId,
        v: NodeId,
        // each head's softmax probabilities (`n × n`)
        probs: Vec<Matrix>,
    },
}

/// A node's forward value: computed by the tape, or a parameter borrowed
/// from the store.
enum Value<'p> {
    Owned(Matrix),
    Borrowed(&'p Matrix),
}

impl Deref for Value<'_> {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Borrowed(m) => m,
        }
    }
}

struct NodeData<'p> {
    value: Value<'p>,
    op: Op,
}

/// Adds `g` into a gradient slot (taking ownership on first write).
fn accum_slot(slot: &mut Option<Matrix>, g: Matrix) {
    match slot {
        Some(existing) => existing.add_assign(&g),
        None => *slot = Some(g),
    }
}

/// `dst[:, off..off + src.cols()] += src`.
fn add_cols_block(dst: &mut Matrix, off: usize, src: &Matrix) {
    for r in 0..src.rows() {
        for (d, &s) in dst.row_mut(r)[off..off + src.cols()]
            .iter_mut()
            .zip(src.row(r))
        {
            *d += s;
        }
    }
}

/// One forward pass's computation tape; parameter leaves borrow the
/// [`ParamStore`] for `'p`.
pub struct Graph<'p> {
    nodes: Vec<NodeData<'p>>,
    param_nodes: Vec<(ParamId, NodeId)>,
    grads: Vec<Option<Matrix>>,
}

impl Default for Graph<'_> {
    fn default() -> Self {
        Graph::new()
    }
}

impl<'p> Graph<'p> {
    /// Empty tape.
    pub fn new() -> Graph<'p> {
        Graph {
            nodes: Vec::new(),
            param_nodes: Vec::new(),
            grads: Vec::new(),
        }
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        self.push_value(Value::Owned(value), op)
    }

    fn push_value(&mut self, value: Value<'p>, op: Op) -> NodeId {
        self.nodes.push(NodeData { value, op });
        NodeId(self.nodes.len() - 1)
    }

    /// Borrow of a node's forward value.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Registers a constant input (no gradient is needed, but one is still
    /// computed if requested).
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Registers a parameter leaf that borrows its value from the store.
    /// Registering the same parameter again on this tape returns the
    /// existing leaf, so every use shares one gradient slot and
    /// [`Graph::param_grads`] lists each parameter once.
    pub fn param(&mut self, store: &'p ParamStore, id: ParamId) -> NodeId {
        if let Some(&(_, node)) = self.param_nodes.iter().find(|(pid, _)| *pid == id) {
            return node;
        }
        let node = self.push_value(Value::Borrowed(store.get(id)), Op::Leaf);
        self.param_nodes.push((id, node));
        node
    }

    /// `a × b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a, b))
    }

    /// `a × bᵀ` (attention-score shape) without materializing the transpose.
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.matmul_nt(&self.nodes[b.0].value);
        self.push(v, Op::MatMulNt(a, b))
    }

    /// Element-wise `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.nodes[a.0].value.clone();
        v.add_assign(&self.nodes[b.0].value);
        self.push(v, Op::Add(a, b))
    }

    /// `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let nb = self.scale(b, -1.0);
        self.add(a, nb)
    }

    /// Adds a `1×d` row to every row of `a` (bias add).
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let r = &self.nodes[row.0].value;
        assert_eq!(r.rows(), 1, "add_row takes a 1×d row");
        let mut v = self.nodes[a.0].value.clone();
        for i in 0..v.rows() {
            for (x, &b) in v.row_mut(i).iter_mut().zip(r.row(0)) {
                *x += b;
            }
        }
        self.push(v, Op::AddRow(a, row))
    }

    /// Multiplies every row of `a` by a `1×d` row (layer-norm gain).
    pub fn mul_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let r = &self.nodes[row.0].value;
        assert_eq!(r.rows(), 1, "mul_row takes a 1×d row");
        let mut v = self.nodes[a.0].value.clone();
        for i in 0..v.rows() {
            for (x, &b) in v.row_mut(i).iter_mut().zip(r.row(0)) {
                *x *= b;
            }
        }
        self.push(v, Op::MulRow(a, row))
    }

    /// Element-wise product.
    pub fn mul_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (aa, bb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let v = Matrix::from_fn(bb.rows(), bb.cols(), |r, c| aa.get(r, c) * bb.get(r, c));
        self.push(v, Op::MulElem(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.nodes[a.0].value.map(|x| x * s);
        self.push(v, Op::Scale(a, s))
    }

    /// ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let mut v = self.nodes[a.0].value.clone();
        v.softmax_rows_mut();
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalization (no learned gain/bias; compose with
    /// [`Graph::mul_row`] and [`Graph::add_row`]).
    pub fn layer_norm_rows(&mut self, a: NodeId) -> NodeId {
        let x = &self.nodes[a.0].value;
        let (rows, cols) = x.shape();
        let mut out = Matrix::zeros(rows, cols);
        let mut stats = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + 1e-5).sqrt();
            stats.push((mean, inv_std));
            for (c, &v) in row.iter().enumerate() {
                out.set(r, c, (v - mean) * inv_std);
            }
        }
        self.push(out, Op::LayerNormRows { input: a, stats })
    }

    /// Gathers rows `ids` from a table (embedding lookup).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn gather(&mut self, table: NodeId, ids: &[usize]) -> NodeId {
        let t = &self.nodes[table.0].value;
        for &id in ids {
            assert!(id < t.rows(), "gather id {id} out of range {}", t.rows());
        }
        let cols = t.cols();
        let mut v = Matrix::zeros(ids.len(), cols);
        for (r, &id) in ids.iter().enumerate() {
            v.row_mut(r).copy_from_slice(t.row(id));
        }
        self.push(
            v,
            Op::Gather {
                table,
                ids: ids.to_vec(),
            },
        )
    }

    /// Mean over rows → `1×d`.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let x = &self.nodes[a.0].value;
        let (rows, cols) = x.shape();
        let mut v = Matrix::zeros(1, cols);
        for r in 0..rows {
            for (c, &val) in x.row(r).iter().enumerate() {
                v.set(0, c, v.get(0, c) + val);
            }
        }
        v.scale_assign(1.0 / rows.max(1) as f32);
        self.push(v, Op::MeanRows(a))
    }

    /// Column slice `a[:, start..start+len]`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let x = &self.nodes[a.0].value;
        assert!(start + len <= x.cols(), "slice out of range");
        let v = Matrix::from_fn(x.rows(), len, |r, c| x.get(r, start + c));
        self.push(v, Op::SliceCols { input: a, start })
    }

    /// Concatenates matrices with equal row counts along columns.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of nothing");
        let rows = self.nodes[parts[0].0].value.rows();
        let total: usize = parts.iter().map(|p| self.nodes[p.0].value.cols()).sum();
        let mut v = Matrix::zeros(rows, total);
        let mut off = 0;
        for p in parts {
            let m = &self.nodes[p.0].value;
            assert_eq!(m.rows(), rows, "concat row mismatch");
            for r in 0..rows {
                v.row_mut(r)[off..off + m.cols()].copy_from_slice(m.row(r));
            }
            off += m.cols();
        }
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Mean cross-entropy between row-wise logits and integer targets.
    /// Returns a `1×1` loss node.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of logit rows.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let x: &Matrix = &self.nodes[logits.0].value;
        assert_eq!(x.rows(), targets.len(), "one target per logit row");
        let mut probs = x.clone();
        probs.softmax_rows_mut();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len().max(1) as f32;
        let v = Matrix::from_vec(1, 1, vec![loss]);
        self.push(
            v,
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// The summed log-probability `Σ_r log softmax(logits)_r[target_r]` as a
    /// `1×1` node (used by DPO).
    pub fn log_prob(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let n = targets.len() as f32;
        let ce = self.cross_entropy(logits, targets);
        self.scale(ce, -n)
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Element-wise `log σ(x)`, computed stably as `-softplus(-x)`.
    pub fn log_sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.map(|x| {
            if x > 0.0 {
                -((-x).exp().ln_1p())
            } else {
                x - x.exp().ln_1p()
            }
        });
        self.push(v, Op::LogSigmoid(a))
    }

    /// Multi-head scaled dot-product attention over `n × d` `q`/`k`/`v`
    /// with `heads` column blocks of width `hd = d / heads`: each head
    /// computes `softmax(Q_h·K_hᵀ / √hd (+ mask)) · V_h`, and the result is
    /// the `n × d` concatenation of the heads. `mask`, when present, is an
    /// `n × n` additive constant (it receives no gradient).
    ///
    /// # Panics
    ///
    /// Panics on mismatched shapes or when `heads` does not divide `d`.
    pub fn attention(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        mask: Option<NodeId>,
        heads: usize,
    ) -> NodeId {
        let (qv, kv, vv) = (
            &self.nodes[q.0].value,
            &self.nodes[k.0].value,
            &self.nodes[v.0].value,
        );
        let (n, d) = qv.shape();
        assert!(
            kv.shape() == (n, d) && vv.shape() == (n, d),
            "attention q/k/v shapes"
        );
        assert!(heads > 0 && d % heads == 0, "heads must divide d");
        let mask = mask.map(|m| &*self.nodes[m.0].value);
        if let Some(m) = mask {
            assert_eq!(m.shape(), (n, n), "attention mask shape");
        }
        let hd = d / heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut cat = Matrix::zeros(n, d);
        let (mut kt, mut vh, mut head_out) = (
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
        );
        let probs = (0..heads)
            .map(|h| {
                let mut p = Matrix::zeros(n, n);
                attention_head(
                    qv,
                    kv,
                    vv,
                    mask,
                    0..n,
                    0..n,
                    h * hd,
                    hd,
                    scale,
                    &mut p,
                    &mut kt,
                    &mut vh,
                    &mut head_out,
                    &mut cat,
                );
                p
            })
            .collect();
        self.push(cat, Op::Attention { q, k, v, probs })
    }

    /// Runs the backward sweep from a `1×1` loss node.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1×1`.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(self.nodes[loss.0].value.shape(), (1, 1), "loss must be 1×1");
        self.grads = (0..self.nodes.len()).map(|_| None).collect();
        self.grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));
        let nodes = &self.nodes;
        for i in (0..nodes.len()).rev() {
            // Every operand of node `i` has a smaller index (the tape is
            // append-only), so splitting the gradient vector at `i` lets the
            // upstream gradient be read while operand slots are written —
            // no per-node clones of the op or its cached values.
            let (lower, upper) = self.grads.split_at_mut(i);
            let Some(g) = upper[0].as_ref() else {
                continue;
            };
            match &nodes[i].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let ga = g.matmul_nt(&nodes[b.0].value);
                    let gb = nodes[a.0].value.matmul_tn(g);
                    accum_slot(&mut lower[a.0], ga);
                    accum_slot(&mut lower[b.0], gb);
                }
                Op::MatMulNt(a, b) => {
                    // C = A Bᵀ ⇒ dA = G B, dB = Gᵀ A.
                    let ga = g.matmul(&nodes[b.0].value);
                    let gb = g.matmul_tn(&nodes[a.0].value);
                    accum_slot(&mut lower[a.0], ga);
                    accum_slot(&mut lower[b.0], gb);
                }
                Op::Add(a, b) => {
                    accum_slot(&mut lower[a.0], g.clone());
                    accum_slot(&mut lower[b.0], g.clone());
                }
                Op::AddRow(a, row) => {
                    let mut grow = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (c, &v) in g.row(r).iter().enumerate() {
                            grow.set(0, c, grow.get(0, c) + v);
                        }
                    }
                    accum_slot(&mut lower[a.0], g.clone());
                    accum_slot(&mut lower[row.0], grow);
                }
                Op::MulRow(a, row) => {
                    let rvals = &nodes[row.0].value;
                    let avals = &nodes[a.0].value;
                    let ga =
                        Matrix::from_fn(g.rows(), g.cols(), |r, c| g.get(r, c) * rvals.get(0, c));
                    let mut grow = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            grow.set(0, c, grow.get(0, c) + g.get(r, c) * avals.get(r, c));
                        }
                    }
                    accum_slot(&mut lower[a.0], ga);
                    accum_slot(&mut lower[row.0], grow);
                }
                Op::MulElem(a, b) => {
                    let bv = &nodes[b.0].value;
                    let av = &nodes[a.0].value;
                    let ga = Matrix::from_fn(g.rows(), g.cols(), |r, c| g.get(r, c) * bv.get(r, c));
                    let gb = Matrix::from_fn(g.rows(), g.cols(), |r, c| g.get(r, c) * av.get(r, c));
                    accum_slot(&mut lower[a.0], ga);
                    accum_slot(&mut lower[b.0], gb);
                }
                Op::Scale(a, s) => {
                    let mut ga = g.clone();
                    ga.scale_assign(*s);
                    accum_slot(&mut lower[a.0], ga);
                }
                Op::Relu(a) => {
                    let x = &nodes[a.0].value;
                    let ga = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        if x.get(r, c) > 0.0 {
                            g.get(r, c)
                        } else {
                            0.0
                        }
                    });
                    accum_slot(&mut lower[a.0], ga);
                }
                Op::SoftmaxRows(a) => {
                    let y = &nodes[i].value;
                    let mut ga = Matrix::zeros(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        let dot: f32 = g
                            .row(r)
                            .iter()
                            .zip(y.row(r))
                            .map(|(&gv, &yv)| gv * yv)
                            .sum();
                        for c in 0..g.cols() {
                            ga.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    accum_slot(&mut lower[a.0], ga);
                }
                Op::LayerNormRows { input, stats } => {
                    let y = &nodes[i].value;
                    let cols = g.cols() as f32;
                    let mut ga = Matrix::zeros(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        let (_mean, inv_std) = stats[r];
                        let g_mean: f32 = g.row(r).iter().sum::<f32>() / cols;
                        let gy_mean: f32 = g
                            .row(r)
                            .iter()
                            .zip(y.row(r))
                            .map(|(&gv, &yv)| gv * yv)
                            .sum::<f32>()
                            / cols;
                        for c in 0..g.cols() {
                            let v = inv_std * (g.get(r, c) - g_mean - y.get(r, c) * gy_mean);
                            ga.set(r, c, v);
                        }
                    }
                    accum_slot(&mut lower[input.0], ga);
                }
                Op::Gather { table, ids } => {
                    let t = &nodes[table.0].value;
                    let mut gt = Matrix::zeros(t.rows(), t.cols());
                    for (r, &id) in ids.iter().enumerate() {
                        for (c, &v) in g.row(r).iter().enumerate() {
                            gt.set(id, c, gt.get(id, c) + v);
                        }
                    }
                    accum_slot(&mut lower[table.0], gt);
                }
                Op::MeanRows(a) => {
                    let rows = nodes[a.0].value.rows();
                    let inv = 1.0 / rows.max(1) as f32;
                    let ga = Matrix::from_fn(rows, g.cols(), |_, c| g.get(0, c) * inv);
                    accum_slot(&mut lower[a.0], ga);
                }
                Op::SliceCols { input, start } => {
                    let x = &nodes[input.0].value;
                    let mut ga = Matrix::zeros(x.rows(), x.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            ga.set(r, start + c, g.get(r, c));
                        }
                    }
                    accum_slot(&mut lower[input.0], ga);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for p in parts {
                        let cols = nodes[p.0].value.cols();
                        let gp = Matrix::from_fn(g.rows(), cols, |r, c| g.get(r, off + c));
                        accum_slot(&mut lower[p.0], gp);
                        off += cols;
                    }
                }
                Op::CrossEntropy {
                    logits,
                    targets,
                    probs,
                } => {
                    let gs = g.get(0, 0) / targets.len().max(1) as f32;
                    let mut gl = probs.clone();
                    for (r, &t) in targets.iter().enumerate() {
                        gl.set(r, t, gl.get(r, t) - 1.0);
                    }
                    gl.scale_assign(gs);
                    accum_slot(&mut lower[logits.0], gl);
                }
                Op::Sigmoid(a) => {
                    let y = &nodes[i].value;
                    let ga = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        let yv = y.get(r, c);
                        g.get(r, c) * yv * (1.0 - yv)
                    });
                    accum_slot(&mut lower[a.0], ga);
                }
                Op::LogSigmoid(a) => {
                    let x = &nodes[a.0].value;
                    let ga = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                        let s = 1.0 / (1.0 + x.get(r, c).exp());
                        g.get(r, c) * s
                    });
                    accum_slot(&mut lower[a.0], ga);
                }
                Op::Attention { q, k, v, probs } => {
                    let (qv, kv, vv) = (&nodes[q.0].value, &nodes[k.0].value, &nodes[v.0].value);
                    let (n, d) = qv.shape();
                    let hd = d / probs.len();
                    let scale = 1.0 / (hd as f32).sqrt();
                    let (mut dq, mut dk, mut dv) = (
                        Matrix::zeros(n, d),
                        Matrix::zeros(n, d),
                        Matrix::zeros(n, d),
                    );
                    let mut go = Matrix::zeros(0, 0);
                    let mut xh = Matrix::zeros(0, 0);
                    let mut xt = Matrix::zeros(0, 0);
                    let mut ds = Matrix::zeros(0, 0);
                    let mut dh = Matrix::zeros(0, 0);
                    for (h, p) in probs.iter().enumerate() {
                        let off = h * hd;
                        g.gather_block_into(0, n, off, hd, &mut go);
                        // dP = dO·Vᵀ, dV = Pᵀ·dO.
                        vv.gather_block_into(0, n, off, hd, &mut xh);
                        xh.transpose_into(&mut xt);
                        go.matmul_into(&xt, &mut ds);
                        p.matmul_tn_into(&go, &mut dh);
                        add_cols_block(&mut dv, off, &dh);
                        // dS = (P ⊙ (dP − rowdot)) · scale, in place over dP;
                        // the row dot sums in `SoftmaxRows`'s order.
                        for r in 0..n {
                            let pr = p.row(r);
                            let dr = ds.row_mut(r);
                            let dot: f32 = dr.iter().zip(pr).map(|(&gv, &yv)| gv * yv).sum();
                            for (x, &yv) in dr.iter_mut().zip(pr) {
                                *x = yv * (*x - dot) * scale;
                            }
                        }
                        // dQ = dS·K, dK = dSᵀ·Q.
                        kv.gather_block_into(0, n, off, hd, &mut xh);
                        ds.matmul_into(&xh, &mut dh);
                        add_cols_block(&mut dq, off, &dh);
                        qv.gather_block_into(0, n, off, hd, &mut xh);
                        ds.matmul_tn_into(&xh, &mut dh);
                        add_cols_block(&mut dk, off, &dh);
                    }
                    accum_slot(&mut lower[q.0], dq);
                    accum_slot(&mut lower[k.0], dk);
                    accum_slot(&mut lower[v.0], dv);
                }
            }
        }
    }

    /// Gradient of a node after [`Graph::backward`].
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Consumes the tape and moves out the gradients of all registered
    /// parameters, one entry per distinct parameter in registration order;
    /// a parameter the loss does not reach gets zeros of its shape. Read
    /// any values or gradients needed from the tape before calling this.
    pub fn param_grads(mut self) -> Vec<(ParamId, Matrix)> {
        self.param_nodes
            .iter()
            .map(|&(pid, nid)| {
                let g = self.grads.get_mut(nid.0).and_then(Option::take);
                let g = g.unwrap_or_else(|| {
                    let (rows, cols) = self.nodes[nid.0].value.shape();
                    Matrix::zeros(rows, cols)
                });
                (pid, g)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a scalar function of one param.
    fn check_grad(
        build: impl for<'s> Fn(&mut Graph<'s>, &'s ParamStore, ParamId) -> NodeId,
        init: Matrix,
        tol: f32,
    ) {
        let mut store = ParamStore::new();
        let pid = store.add("w", init);
        // Analytic gradient.
        let mut g = Graph::new();
        let loss = {
            let l = build(&mut g, &store, pid);
            assert_eq!(g.value(l).shape(), (1, 1));
            l
        };
        g.backward(loss);
        let analytic = g.param_grads().remove(0).1;

        // Numeric gradient.
        let eps = 1e-3f32;
        let (rows, cols) = store.get(pid).shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = store.get(pid).get(r, c);
                store.get_mut(pid).set(r, c, orig + eps);
                let mut gp = Graph::new();
                let lp = build(&mut gp, &store, pid);
                let fp = gp.value(lp).get(0, 0);
                store.get_mut(pid).set(r, c, orig - eps);
                let mut gm = Graph::new();
                let lm = build(&mut gm, &store, pid);
                let fm = gm.value(lm).get(0, 0);
                store.get_mut(pid).set(r, c, orig);
                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn grad_check_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Matrix::randn(3, 4, 1.0, &mut rng);
        let init = Matrix::randn(4, 2, 0.5, &mut rng);
        check_grad(
            move |g, store, pid| {
                let w = g.param(store, pid);
                let xin = g.input(x.clone());
                let y = g.matmul(xin, w);
                let y = g.relu(y);
                let pooled = g.mean_rows(y);
                let sq = g.mul_elem(pooled, pooled);
                let col = g.mean_rows(sq); // 1×2 still — reduce to scalar:
                let t = g.slice_cols(col, 0, 1);
                let u = g.slice_cols(col, 1, 1);
                g.add(t, u)
            },
            init,
            2e-2,
        );
    }

    #[test]
    fn grad_check_softmax_cross_entropy() {
        let mut rng = StdRng::seed_from_u64(8);
        let init = Matrix::randn(3, 5, 0.8, &mut rng);
        check_grad(
            |g, store, pid| {
                let logits = g.param(store, pid);
                g.cross_entropy(logits, &[1, 4, 0])
            },
            init,
            2e-2,
        );
    }

    #[test]
    fn grad_check_layernorm() {
        let mut rng = StdRng::seed_from_u64(9);
        let init = Matrix::randn(2, 6, 1.0, &mut rng);
        check_grad(
            |g, store, pid| {
                let x = g.param(store, pid);
                let y = g.layer_norm_rows(x);
                let sq = g.mul_elem(y, y);
                let m = g.mean_rows(sq);
                let mut acc = g.slice_cols(m, 0, 1);
                for c in 1..6 {
                    let s = g.slice_cols(m, c, 1);
                    acc = g.add(acc, s);
                }
                acc
            },
            init,
            5e-2,
        );
    }

    #[test]
    fn grad_check_gather_and_rows() {
        let mut rng = StdRng::seed_from_u64(10);
        let init = Matrix::randn(4, 3, 0.7, &mut rng);
        check_grad(
            |g, store, pid| {
                let table = g.param(store, pid);
                let e = g.gather(table, &[0, 2, 2, 1]);
                let pooled = g.mean_rows(e);
                let sq = g.mul_elem(pooled, pooled);
                let m = g.mean_rows(sq);
                g.slice_cols(m, 0, 1)
            },
            init,
            2e-2,
        );
    }

    #[test]
    fn grad_check_log_sigmoid() {
        let init = Matrix::from_vec(1, 1, vec![0.3]);
        check_grad(
            |g, store, pid| {
                let x = g.param(store, pid);
                let y = g.log_sigmoid(x);
                g.scale(y, -1.0)
            },
            init,
            1e-2,
        );
    }

    #[test]
    fn grad_check_attention() {
        // One parameter feeds q, k and v through different fixed maps, so
        // the check covers all three input gradients; 2 heads of width 3
        // and a mask blocking a few entries. (A fully masked row is left
        // out: its scores are swallowed by the `-1e9` offset, so its true
        // derivative is zero while the softmax rule gives a uniform-row
        // gradient, on the fused node and the per-head chain alike.)
        let mut rng = StdRng::seed_from_u64(11);
        let (n, d) = (5, 6);
        let (wq, wk, wv) = (
            Matrix::randn(d, d, 0.6, &mut rng),
            Matrix::randn(d, d, 0.6, &mut rng),
            Matrix::randn(d, d, 0.6, &mut rng),
        );
        let readout = Matrix::randn(d, 1, 1.0, &mut rng);
        let mask = Matrix::from_fn(n, n, |r, c| if (r + 2 * c) % 5 == 1 { -1e9 } else { 0.0 });
        let init = Matrix::randn(n, d, 0.8, &mut rng);
        check_grad(
            move |g, store, pid| {
                let x = g.param(store, pid);
                let (wq, wk, wv) = (
                    g.input(wq.clone()),
                    g.input(wk.clone()),
                    g.input(wv.clone()),
                );
                let q = g.matmul(x, wq);
                let k = g.matmul(x, wk);
                let v = g.matmul(x, wv);
                let m = g.input(mask.clone());
                let att = g.attention(q, k, v, Some(m), 2);
                let sq = g.mul_elem(att, att);
                let r = g.input(readout.clone());
                let y = g.matmul(sq, r);
                g.mean_rows(y)
            },
            init,
            2e-2,
        );
    }

    #[test]
    fn log_prob_is_negative_sum_ce() {
        let mut g = Graph::new();
        let logits = g.input(Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]));
        let lp = g.log_prob(logits, &[0, 2]);
        let v = g.value(lp).get(0, 0);
        assert!(v < 0.0, "log prob must be negative, got {v}");
    }

    #[test]
    fn softmax_then_ce_decreases_with_training_signal() {
        // One gradient step moves probability toward the target.
        let mut store = ParamStore::new();
        let pid = store.add("logits", Matrix::zeros(1, 4));
        let loss_at = |store: &ParamStore| {
            let mut g = Graph::new();
            let l = g.param(store, pid);
            let loss = g.cross_entropy(l, &[2]);
            let v = g.value(loss).get(0, 0);
            g.backward(loss);
            (v, g.param_grads().remove(0).1)
        };
        let (l0, grad) = loss_at(&store);
        for r in 0..1 {
            for c in 0..4 {
                let v = store.get(pid).get(r, c) - 0.5 * grad.get(r, c);
                store.get_mut(pid).set(r, c, v);
            }
        }
        let (l1, _) = loss_at(&store);
        assert!(l1 < l0, "loss should drop: {l0} -> {l1}");
    }

    #[test]
    fn concat_and_slice_are_inverses() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = g.input(Matrix::from_vec(2, 1, vec![5., 6.]));
        let cat = g.concat_cols(&[a, b]);
        assert_eq!(g.value(cat).shape(), (2, 3));
        let back = g.slice_cols(cat, 2, 1);
        assert_eq!(g.value(back).data(), &[5., 6.]);
    }

    #[test]
    fn reregistered_param_shares_one_leaf_and_one_gradient() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Matrix::from_vec(1, 2, vec![0.5, -1.0]));
        let mut g = Graph::new();
        let a = g.param(&store, pid);
        let b = g.param(&store, pid);
        assert_eq!(a, b, "same parameter, same leaf");
        // d/dw (w·w summed) = 2w, reached through both operands of one node.
        let sq = g.mul_elem(a, b);
        let m = g.mean_rows(sq);
        let x = g.slice_cols(m, 0, 1);
        let y = g.slice_cols(m, 1, 1);
        let loss = g.add(x, y);
        g.backward(loss);
        let grads = g.param_grads();
        assert_eq!(grads.len(), 1, "listed once");
        assert_eq!(grads[0].1.data(), &[1.0, -2.0]);
    }

    #[test]
    fn param_store_bookkeeping() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::zeros(2, 2));
        let b = store.add("b", Matrix::zeros(1, 3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.scalar_count(), 7);
        assert_eq!(store.name(a), "a");
        assert_eq!(store.name(b), "b");
        assert!(!store.is_empty());
    }
}
