//! The fourteen modern workloads of the paper's Table 2: image-processing
//! pipelines (1–9) and NLP transformer stacks (10–14), rebuilt as dataflow
//! graphs over the operator library in [`crate::ops`].
//!
//! Structural properties follow the paper's table — operator counts per
//! graph, presence of dynamic control-flow parameters (runtime image/text
//! sizes, value-dependent anchors) — at reduced tensor extents so profiling
//! stays interactive.

use crate::ops;
use crate::workload::Workload;
use llmulator_ir::{
    Arg, BufferDecl, DataflowGraph, Dim, HardwareParams, Ident, InputData, Invocation, Operator,
    ParamKind, Program,
};

/// Incremental graph builder used by the workload definitions.
#[derive(Debug)]
struct Chain {
    graph: DataflowGraph,
    ops: Vec<Operator>,
}

impl Chain {
    fn new() -> Chain {
        Chain {
            graph: DataflowGraph::new("graph"),
            ops: Vec::new(),
        }
    }

    fn buffer(&mut self, name: &str, dims: &[usize]) -> Ident {
        let id = Ident::new(name);
        if self.graph.buffer(&id).is_none() {
            self.graph.buffers.push(BufferDecl {
                name: id.clone(),
                dims: dims.iter().map(|&d| Dim::Const(d)).collect(),
            });
        }
        id
    }

    fn param(&mut self, name: &str) -> Ident {
        let id = Ident::new(name);
        if !self.graph.params.contains(&id) {
            self.graph.params.push(id.clone());
        }
        id
    }

    /// Invokes `op` with buffers/params matched positionally to its
    /// signature: array params consume `arrays` in order, scalar params
    /// consume `scalars` in order.
    fn invoke(&mut self, op: Operator, arrays: &[&Ident], scalars: &[&Ident]) {
        let mut a = arrays.iter();
        let mut s = scalars.iter();
        let args: Vec<Arg> = op
            .params
            .iter()
            .map(|p| match p.kind {
                ParamKind::Array { .. } => {
                    Arg::Buffer((*a.next().expect("buffer for array param")).clone())
                }
                ParamKind::Scalar => Arg::var((*s.next().expect("scalar for param")).clone()),
            })
            .collect();
        self.graph
            .invocations
            .push(Invocation::new(op.name.clone(), args));
        if !self.ops.iter().any(|o| o.name == op.name) {
            self.ops.push(op);
        }
    }

    fn build(self) -> Program {
        Program::new(self.graph, self.ops, HardwareParams::default())
    }
}

const IMG: usize = 12; // image side
const FLAT: usize = IMG * IMG; // flattened feature size
const SEQ: usize = 8; // token count
const DM: usize = 8; // model width

fn img_inputs() -> InputData {
    InputData::new().with("h", 8i64).with("w", 8i64)
}

fn seq_inputs() -> InputData {
    InputData::new().with("len", 6i64)
}

/// Tab. 2-1 — image normalization + CNN classifier (8 ops, dynamic input
/// size).
pub fn image_norm_cnn() -> Workload {
    let mut c = Chain::new();
    let img = c.buffer("img", &[IMG, IMG]);
    let resized = c.buffer("resized", &[IMG, IMG]);
    let (h, w) = (c.param("h"), c.param("w"));
    c.invoke(
        ops::dyn_window2d("resize", IMG),
        &[&img, &resized],
        &[&h, &w],
    );
    let k = c.buffer("k1", &[3, 3]);
    let f1 = c.buffer("f1", &[IMG, IMG]);
    c.invoke(ops::conv2d("conv1", IMG, IMG, 3), &[&resized, &k, &f1], &[]);
    let f1f = c.buffer("f1f", &[FLAT]);
    c.invoke(ops::relu_op("relu1", FLAT), &[&f1, &f1f], &[]);
    let stats = c.buffer("bnstats", &[4]);
    let f1n = c.buffer("f1n", &[FLAT]);
    c.invoke(ops::batch_norm("bn1", FLAT), &[&f1f, &stats, &f1n], &[]);
    let pooled = c.buffer("pooled", &[IMG / 2, IMG / 2]);
    c.invoke(ops::maxpool2d("pool1", IMG, IMG, 2), &[&f1n, &pooled], &[]);
    let wfc = c.buffer("wfc", &[IMG / 2, SEQ]);
    let logits = c.buffer("logits", &[IMG / 2, SEQ]);
    c.invoke(
        ops::gemm("fc", IMG / 2, SEQ, IMG / 2),
        &[&pooled, &wfc, &logits],
        &[],
    );
    let tmp = c.buffer("smtmp", &[1]);
    let probs = c.buffer("probs", &[SEQ]);
    c.invoke(ops::softmax("softmax1", SEQ), &[&logits, &tmp, &probs], &[]);
    let out = c.buffer("out", &[SEQ]);
    c.invoke(ops::relu_op("relu2", SEQ), &[&probs, &out], &[]);
    Workload::new("Tab. 2-1", c.build(), img_inputs())
}

/// Tab. 2-2 — residual block + depthwise separable convolution (6 ops).
pub fn rb_dsc() -> Workload {
    let mut c = Chain::new();
    let x = c.buffer("x", &[IMG, IMG]);
    let resized = c.buffer("resized", &[IMG, IMG]);
    let (h, w) = (c.param("h"), c.param("w"));
    c.invoke(ops::dyn_window2d("resize", IMG), &[&x, &resized], &[&h, &w]);
    let kd = c.buffer("kd", &[3, 3]);
    let dw = c.buffer("dw", &[IMG, IMG]);
    c.invoke(
        ops::depthwise_conv("dwconv", IMG, IMG, 3),
        &[&resized, &kd, &dw],
        &[],
    );
    let wp = c.buffer("wp", &[1]);
    let pw = c.buffer("pw", &[FLAT]);
    c.invoke(ops::pointwise("pwconv", FLAT), &[&dw, &wp, &pw], &[]);
    let stats = c.buffer("bnstats", &[4]);
    let bn = c.buffer("bn", &[FLAT]);
    c.invoke(ops::batch_norm("bn", FLAT), &[&pw, &stats, &bn], &[]);
    let act = c.buffer("act", &[FLAT]);
    c.invoke(ops::relu_op("relu", FLAT), &[&bn, &act], &[]);
    let out = c.buffer("out", &[FLAT]);
    c.invoke(ops::residual_add("skip", FLAT), &[&act, &x, &out], &[]);
    Workload::new("Tab. 2-2", c.build(), img_inputs())
}

/// Tab. 2-3 — spatial pyramid pooling + feature fusion (8 ops).
pub fn spp_fusion() -> Workload {
    let mut c = Chain::new();
    let x = c.buffer("x", &[IMG, IMG]);
    let resized = c.buffer("resized", &[IMG, IMG]);
    let (h, w) = (c.param("h"), c.param("w"));
    c.invoke(ops::dyn_window2d("resize", IMG), &[&x, &resized], &[&h, &w]);
    let k = c.buffer("k", &[3, 3]);
    let f = c.buffer("f", &[IMG, IMG]);
    c.invoke(ops::conv2d("conv", IMG, IMG, 3), &[&resized, &k, &f], &[]);
    let p2 = c.buffer("p2", &[IMG / 2, IMG / 2]);
    c.invoke(ops::maxpool2d("pool2", IMG, IMG, 2), &[&f, &p2], &[]);
    let p4 = c.buffer("p4", &[IMG / 4, IMG / 4]);
    c.invoke(ops::maxpool2d("pool4", IMG, IMG, 4), &[&f, &p4], &[]);
    let p2f = c.buffer("p2f", &[FLAT / 4]);
    c.invoke(ops::relu_op("relu2f", FLAT / 4), &[&p2, &p2f], &[]);
    let p4f = c.buffer("p4f", &[FLAT / 16]);
    c.invoke(ops::relu_op("relu4f", FLAT / 16), &[&p4, &p4f], &[]);
    let fused = c.buffer("fused", &[FLAT / 16]);
    c.invoke(
        ops::residual_add("fuse", FLAT / 16),
        &[&p2f, &p4f, &fused],
        &[],
    );
    let out = c.buffer("out", &[FLAT / 16]);
    c.invoke(ops::sigmoid_op("gate", FLAT / 16), &[&fused, &out], &[]);
    Workload::new("Tab. 2-3", c.build(), img_inputs())
}

/// Tab. 2-4 — CBAM channel+spatial attention (12 ops, many value-dependent
/// gates).
pub fn cbam_attention() -> Workload {
    let mut c = Chain::new();
    let x = c.buffer("x", &[FLAT]);
    // channel attention
    let wa = c.buffer("wa", &[1]);
    let sq = c.buffer("sq", &[FLAT]);
    c.invoke(ops::pointwise("squeeze", FLAT), &[&x, &wa, &sq], &[]);
    let a1 = c.buffer("a1", &[FLAT]);
    c.invoke(ops::relu_op("ca_relu", FLAT), &[&sq, &a1], &[]);
    let g1 = c.buffer("g1", &[FLAT]);
    c.invoke(ops::sigmoid_op("ca_gate", FLAT), &[&a1, &g1], &[]);
    let ca = c.buffer("ca", &[FLAT]);
    c.invoke(ops::residual_add("ca_apply", FLAT), &[&x, &g1, &ca], &[]);
    let roi = c.buffer("roi", &[FLAT]);
    c.invoke(ops::anchor_filter("ca_sel", FLAT), &[&ca, &roi], &[]);
    // spatial attention
    let k = c.buffer("k", &[3, 3]);
    let sa = c.buffer("sa", &[IMG, IMG]);
    c.invoke(ops::conv2d("sa_conv", IMG, IMG, 3), &[&roi, &k, &sa], &[]);
    let g2 = c.buffer("g2", &[FLAT]);
    c.invoke(ops::sigmoid_op("sa_gate", FLAT), &[&sa, &g2], &[]);
    let sel = c.buffer("sel", &[FLAT]);
    c.invoke(ops::anchor_filter("sa_sel", FLAT), &[&g2, &sel], &[]);
    let resized = c.buffer("resized", &[IMG, IMG]);
    let (h, w) = (c.param("h"), c.param("w"));
    c.invoke(ops::dyn_window2d("crop", IMG), &[&sel, &resized], &[&h, &w]);
    let stats = c.buffer("bnstats", &[4]);
    let bn = c.buffer("bn", &[FLAT]);
    c.invoke(ops::batch_norm("bn", FLAT), &[&resized, &stats, &bn], &[]);
    let fused = c.buffer("fused", &[FLAT]);
    c.invoke(ops::residual_add("fuse", FLAT), &[&bn, &x, &fused], &[]);
    let out = c.buffer("out", &[FLAT]);
    c.invoke(ops::relu_op("out_relu", FLAT), &[&fused, &out], &[]);
    Workload::new("Tab. 2-4", c.build(), img_inputs())
}

/// Tab. 2-5 — anchor generation + RoIAlign (5 ops, heavily input-driven).
pub fn anchor_roialign() -> Workload {
    let mut c = Chain::new();
    let feat = c.buffer("feat", &[IMG, IMG]);
    let k = c.buffer("k", &[3, 3]);
    let scores = c.buffer("scores", &[IMG, IMG]);
    c.invoke(ops::conv2d("rpn", IMG, IMG, 3), &[&feat, &k, &scores], &[]);
    let rois = c.buffer("rois", &[FLAT]);
    c.invoke(ops::anchor_filter("anchors", FLAT), &[&scores, &rois], &[]);
    let aligned = c.buffer("aligned", &[IMG, IMG]);
    let (h, w) = (c.param("h"), c.param("w"));
    c.invoke(
        ops::dyn_window2d("roialign", IMG),
        &[&rois, &aligned],
        &[&h, &w],
    );
    let ids = c.buffer("ids", &[SEQ]);
    let sampled = c.buffer("sampled", &[SEQ]);
    c.invoke(
        ops::gather("sample", SEQ, FLAT),
        &[&aligned, &ids, &sampled],
        &[],
    );
    let pooled = c.buffer("pooled", &[IMG / 2, IMG / 2]);
    c.invoke(
        ops::maxpool2d("pool", IMG, IMG, 2),
        &[&aligned, &pooled],
        &[],
    );
    Workload::new("Tab. 2-5", c.build(), img_inputs())
}

/// Tab. 2-6 — GAN generator + super-resolution upsampling (13 ops).
pub fn gan_superres() -> Workload {
    let mut c = Chain::new();
    let z = c.buffer("z", &[IMG, IMG]);
    let k1 = c.buffer("k1", &[3, 3]);
    let g1 = c.buffer("g1", &[IMG, IMG]);
    c.invoke(ops::conv2d("gconv1", IMG, IMG, 3), &[&z, &k1, &g1], &[]);
    let a1 = c.buffer("a1", &[FLAT]);
    c.invoke(ops::relu_op("grelu1", FLAT), &[&g1, &a1], &[]);
    let stats = c.buffer("bn1s", &[4]);
    let b1 = c.buffer("b1", &[FLAT]);
    c.invoke(ops::batch_norm("gbn1", FLAT), &[&a1, &stats, &b1], &[]);
    let up1 = c.buffer("up1", &[2 * IMG, 2 * IMG]);
    c.invoke(ops::upsample2x("up1", IMG, IMG), &[&b1, &up1], &[]);
    let k2 = c.buffer("k2", &[3, 3]);
    let g2 = c.buffer("g2", &[2 * IMG, 2 * IMG]);
    c.invoke(
        ops::conv2d("gconv2", 2 * IMG, 2 * IMG, 3),
        &[&up1, &k2, &g2],
        &[],
    );
    let a2 = c.buffer("a2", &[4 * FLAT]);
    c.invoke(ops::relu_op("grelu2", 4 * FLAT), &[&g2, &a2], &[]);
    let up2 = c.buffer("up2", &[4 * IMG, 4 * IMG]);
    c.invoke(ops::upsample2x("up2", 2 * IMG, 2 * IMG), &[&a2, &up2], &[]);
    let k3 = c.buffer("k3", &[3, 3]);
    let g3 = c.buffer("g3", &[4 * IMG, 4 * IMG]);
    c.invoke(
        ops::conv2d("gconv3", 4 * IMG, 4 * IMG, 3),
        &[&up2, &k3, &g3],
        &[],
    );
    let skip = c.buffer("skip", &[4 * FLAT]);
    c.invoke(
        ops::residual_add("gskip", 4 * FLAT),
        &[&g3, &up2, &skip],
        &[],
    );
    let crop = c.buffer("crop", &[IMG, IMG]);
    let (h, w) = (c.param("h"), c.param("w"));
    c.invoke(ops::dyn_window2d("crop", IMG), &[&skip, &crop], &[&h, &w]);
    let gate = c.buffer("gate", &[FLAT]);
    c.invoke(ops::sigmoid_op("disc_gate", FLAT), &[&crop, &gate], &[]);
    let wp = c.buffer("wp", &[1]);
    let proj = c.buffer("proj", &[FLAT]);
    c.invoke(ops::pointwise("proj", FLAT), &[&gate, &wp, &proj], &[]);
    let out = c.buffer("out", &[FLAT]);
    c.invoke(ops::relu_op("out", FLAT), &[&proj, &out], &[]);
    Workload::new("Tab. 2-6", c.build(), img_inputs())
}

/// Tab. 2-7 — DenseNet block with skip connections (8 ops).
pub fn dense_skip() -> Workload {
    let mut c = Chain::new();
    let x = c.buffer("x", &[IMG, IMG]);
    let k1 = c.buffer("k1", &[3, 3]);
    let f1 = c.buffer("f1", &[IMG, IMG]);
    c.invoke(ops::conv2d("dconv1", IMG, IMG, 3), &[&x, &k1, &f1], &[]);
    let a1 = c.buffer("a1", &[FLAT]);
    c.invoke(ops::relu_op("drelu1", FLAT), &[&f1, &a1], &[]);
    let cat1 = c.buffer("cat1", &[FLAT]);
    c.invoke(ops::residual_add("dcat1", FLAT), &[&a1, &x, &cat1], &[]);
    let k2 = c.buffer("k2", &[3, 3]);
    let f2 = c.buffer("f2", &[IMG, IMG]);
    c.invoke(ops::conv2d("dconv2", IMG, IMG, 3), &[&cat1, &k2, &f2], &[]);
    let a2 = c.buffer("a2", &[FLAT]);
    c.invoke(ops::relu_op("drelu2", FLAT), &[&f2, &a2], &[]);
    let cat2 = c.buffer("cat2", &[FLAT]);
    c.invoke(ops::residual_add("dcat2", FLAT), &[&a2, &cat1, &cat2], &[]);
    let crop = c.buffer("crop", &[IMG, IMG]);
    let (h, w) = (c.param("h"), c.param("w"));
    c.invoke(ops::dyn_window2d("crop", IMG), &[&cat2, &crop], &[&h, &w]);
    let pooled = c.buffer("pooled", &[IMG / 2, IMG / 2]);
    c.invoke(ops::maxpool2d("dpool", IMG, IMG, 2), &[&crop, &pooled], &[]);
    Workload::new("Tab. 2-7", c.build(), img_inputs())
}

/// Tab. 2-8 — dilated convolutions + aggregation (6 ops).
pub fn dilated_aggre() -> Workload {
    let n = FLAT;
    let mut c = Chain::new();
    let x = c.buffer("x", &[n]);
    let w1 = c.buffer("w1", &[3]);
    let d1 = c.buffer("d1", &[n]);
    c.invoke(ops::dilated_conv("dil1", n, 3, 1), &[&x, &w1, &d1], &[]);
    let w2 = c.buffer("w2", &[3]);
    let d2 = c.buffer("d2", &[n]);
    c.invoke(ops::dilated_conv("dil2", n, 3, 2), &[&x, &w2, &d2], &[]);
    let w4 = c.buffer("w4", &[3]);
    let d4 = c.buffer("d4", &[n]);
    c.invoke(ops::dilated_conv("dil4", n, 3, 4), &[&x, &w4, &d4], &[]);
    let agg1 = c.buffer("agg1", &[n]);
    c.invoke(ops::residual_add("agg1", n), &[&d1, &d2, &agg1], &[]);
    let agg2 = c.buffer("agg2", &[n]);
    c.invoke(ops::residual_add("agg2", n), &[&agg1, &d4, &agg2], &[]);
    let out = c.buffer("out", &[n]);
    let len = c.param("len");
    c.invoke(ops::dyn_seq_mix("ctx", n), &[&agg2, &out], &[&len]);
    Workload::new("Tab. 2-8", c.build(), InputData::new().with("len", 64i64))
}

/// Tab. 2-9 — BEVFormer-style spatiotemporal sampling + attention (5 ops).
pub fn bevformer() -> Workload {
    let mut c = Chain::new();
    let feat = c.buffer("feat", &[FLAT]);
    let ids = c.buffer("ids", &[SEQ * DM]);
    let sampled = c.buffer("sampled", &[SEQ * DM]);
    c.invoke(
        ops::gather("bev_sample", SEQ * DM, FLAT),
        &[&feat, &ids, &sampled],
        &[],
    );
    let wq = c.buffer("wq", &[DM, DM]);
    let q = c.buffer("q", &[SEQ, DM]);
    c.invoke(ops::gemm("bev_q", SEQ, DM, DM), &[&sampled, &wq, &q], &[]);
    let scores = c.buffer("scores", &[SEQ, SEQ]);
    c.invoke(
        ops::gemm("bev_qk", SEQ, SEQ, DM),
        &[&q, &sampled, &scores],
        &[],
    );
    let tmp = c.buffer("tmp", &[1]);
    let attn = c.buffer("attn", &[SEQ * SEQ]);
    c.invoke(
        ops::softmax("bev_softmax", SEQ * SEQ),
        &[&scores, &tmp, &attn],
        &[],
    );
    let crop = c.buffer("crop", &[IMG, IMG]);
    let (h, w) = (c.param("h"), c.param("w"));
    c.invoke(
        ops::dyn_window2d("bev_crop", IMG),
        &[&attn, &crop],
        &[&h, &w],
    );
    Workload::new("Tab. 2-9", c.build(), img_inputs())
}

/// One transformer encoder block over `(SEQ, DM)` with `prefix`-scoped
/// names: 8 invocations.
fn encoder_block(c: &mut Chain, prefix: &str, input: &Ident, len: Option<&Ident>) -> Ident {
    let wq = c.buffer(&format!("{prefix}_wq"), &[DM, DM]);
    let q = c.buffer(&format!("{prefix}_q"), &[SEQ, DM]);
    c.invoke(
        ops::gemm(&format!("{prefix}_proj_q"), SEQ, DM, DM),
        &[input, &wq, &q],
        &[],
    );
    let wk = c.buffer(&format!("{prefix}_wk"), &[DM, DM]);
    let k = c.buffer(&format!("{prefix}_k"), &[SEQ, DM]);
    c.invoke(
        ops::gemm(&format!("{prefix}_proj_k"), SEQ, DM, DM),
        &[input, &wk, &k],
        &[],
    );
    let scores = c.buffer(&format!("{prefix}_scores"), &[SEQ, SEQ]);
    c.invoke(
        ops::gemm(&format!("{prefix}_qk"), SEQ, SEQ, DM),
        &[&q, &k, &scores],
        &[],
    );
    let tmp = c.buffer(&format!("{prefix}_tmp"), &[1]);
    let attn = c.buffer(&format!("{prefix}_attn"), &[SEQ * SEQ]);
    c.invoke(
        ops::softmax(&format!("{prefix}_softmax"), SEQ * SEQ),
        &[&scores, &tmp, &attn],
        &[],
    );
    let wv = c.buffer(&format!("{prefix}_wv"), &[SEQ, DM]);
    let ctx = c.buffer(&format!("{prefix}_ctx"), &[SEQ, DM]);
    c.invoke(
        ops::gemm(&format!("{prefix}_av"), SEQ, DM, SEQ),
        &[&attn, &wv, &ctx],
        &[],
    );
    let res = c.buffer(&format!("{prefix}_res"), &[SEQ * DM]);
    c.invoke(
        ops::residual_add(&format!("{prefix}_res"), SEQ * DM),
        &[&ctx, input, &res],
        &[],
    );
    let acc = c.buffer(&format!("{prefix}_lnacc"), &[2]);
    let ln = c.buffer(&format!("{prefix}_ln"), &[SEQ * DM]);
    c.invoke(
        ops::layer_norm(&format!("{prefix}_ln"), SEQ * DM),
        &[&res, &acc, &ln],
        &[],
    );
    match len {
        Some(len) => {
            let mixed = c.buffer(&format!("{prefix}_mix"), &[SEQ * DM]);
            c.invoke(
                ops::dyn_seq_mix(&format!("{prefix}_mix"), SEQ * DM),
                &[&ln, &mixed],
                &[len],
            );
            mixed
        }
        None => ln,
    }
}

/// Tab. 2-10 — BERT-base style encoder (12 ops).
pub fn bert_base() -> Workload {
    let mut c = Chain::new();
    let table = c.buffer("embed_table", &[64]);
    let ids = c.buffer("token_ids", &[SEQ * DM]);
    let emb = c.buffer("emb", &[SEQ * DM]);
    c.invoke(
        ops::gather("embed", SEQ * DM, 64),
        &[&table, &ids, &emb],
        &[],
    );
    let len = c.param("len");
    let enc = encoder_block(&mut c, "enc0", &emb, Some(&len));
    let wff = c.buffer("wff", &[DM, DM]);
    let ff = c.buffer("ff", &[SEQ, DM]);
    c.invoke(ops::gemm("ffn", SEQ, DM, DM), &[&enc, &wff, &ff], &[]);
    let act = c.buffer("act", &[SEQ * DM]);
    c.invoke(ops::relu_op("gelu", SEQ * DM), &[&ff, &act], &[]);
    let out = c.buffer("out", &[SEQ * DM]);
    c.invoke(
        ops::residual_add("ffres", SEQ * DM),
        &[&act, &enc, &out],
        &[],
    );
    Workload::new("Tab. 2-10", c.build(), seq_inputs())
}

/// Tab. 2-11 — ALBERT (13 ops: shared-parameter encoder + extra mixing).
pub fn albert() -> Workload {
    let mut c = Chain::new();
    let table = c.buffer("embed_table", &[64]);
    let ids = c.buffer("token_ids", &[SEQ * DM]);
    let emb = c.buffer("emb", &[SEQ * DM]);
    c.invoke(
        ops::gather("embed", SEQ * DM, 64),
        &[&table, &ids, &emb],
        &[],
    );
    let wp = c.buffer("wp", &[1]);
    let proj = c.buffer("proj", &[SEQ * DM]);
    c.invoke(
        ops::pointwise("factorized", SEQ * DM),
        &[&emb, &wp, &proj],
        &[],
    );
    let len = c.param("len");
    let enc = encoder_block(&mut c, "enc0", &proj, Some(&len));
    let wff = c.buffer("wff", &[DM, DM]);
    let ff = c.buffer("ff", &[SEQ, DM]);
    c.invoke(ops::gemm("ffn", SEQ, DM, DM), &[&enc, &wff, &ff], &[]);
    let act = c.buffer("act", &[SEQ * DM]);
    c.invoke(ops::relu_op("gelu", SEQ * DM), &[&ff, &act], &[]);
    let out = c.buffer("out", &[SEQ * DM]);
    c.invoke(
        ops::residual_add("ffres", SEQ * DM),
        &[&act, &enc, &out],
        &[],
    );
    Workload::new("Tab. 2-11", c.build(), seq_inputs())
}

/// Tab. 2-12 — T5-base style encoder-decoder (21 ops).
pub fn t5_base() -> Workload {
    let mut c = Chain::new();
    let table = c.buffer("embed_table", &[64]);
    let ids = c.buffer("token_ids", &[SEQ * DM]);
    let emb = c.buffer("emb", &[SEQ * DM]);
    c.invoke(
        ops::gather("embed", SEQ * DM, 64),
        &[&table, &ids, &emb],
        &[],
    );
    let len = c.param("len");
    let enc = encoder_block(&mut c, "enc0", &emb, None);
    let dec = encoder_block(&mut c, "dec0", &enc, Some(&len));
    let wff = c.buffer("wff", &[DM, DM]);
    let ff = c.buffer("ff", &[SEQ, DM]);
    c.invoke(ops::gemm("ffn", SEQ, DM, DM), &[&dec, &wff, &ff], &[]);
    let act = c.buffer("act", &[SEQ * DM]);
    c.invoke(ops::relu_op("gelu", SEQ * DM), &[&ff, &act], &[]);
    let out = c.buffer("out", &[SEQ * DM]);
    c.invoke(
        ops::residual_add("ffres", SEQ * DM),
        &[&act, &dec, &out],
        &[],
    );
    let logits = c.buffer("logits", &[SEQ, DM]);
    let wlm = c.buffer("wlm", &[DM, DM]);
    c.invoke(
        ops::gemm("lm_head", SEQ, DM, DM),
        &[&out, &wlm, &logits],
        &[],
    );
    let smtmp = c.buffer("smtmp", &[1]);
    let probs = c.buffer("probs", &[SEQ * DM]);
    c.invoke(
        ops::softmax("lm_softmax", SEQ * DM),
        &[&logits, &smtmp, &probs],
        &[],
    );
    Workload::new("Tab. 2-12", c.build(), seq_inputs())
}

/// Tab. 2-13 — RoBERTa (10 ops).
pub fn roberta() -> Workload {
    let mut c = Chain::new();
    let table = c.buffer("embed_table", &[64]);
    let ids = c.buffer("token_ids", &[SEQ * DM]);
    let emb = c.buffer("emb", &[SEQ * DM]);
    c.invoke(
        ops::gather("embed", SEQ * DM, 64),
        &[&table, &ids, &emb],
        &[],
    );
    let len = c.param("len");
    let enc = encoder_block(&mut c, "enc0", &emb, Some(&len));
    let wcls = c.buffer("wcls", &[DM, DM]);
    let cls = c.buffer("cls", &[SEQ, DM]);
    c.invoke(
        ops::gemm("cls_head", SEQ, DM, DM),
        &[&enc, &wcls, &cls],
        &[],
    );
    Workload::new("Tab. 2-13", c.build(), seq_inputs())
}

/// Tab. 2-14 — LLaMA-style decoder block (8 ops, RMSNorm + SiLU gate).
pub fn llama() -> Workload {
    let mut c = Chain::new();
    let x = c.buffer("x", &[SEQ * DM]);
    let acc = c.buffer("rmsacc", &[2]);
    let normed = c.buffer("normed", &[SEQ * DM]);
    c.invoke(
        ops::layer_norm("rmsnorm", SEQ * DM),
        &[&x, &acc, &normed],
        &[],
    );
    let wq = c.buffer("wq", &[DM, DM]);
    let q = c.buffer("q", &[SEQ, DM]);
    c.invoke(ops::gemm("wq_proj", SEQ, DM, DM), &[&normed, &wq, &q], &[]);
    let scores = c.buffer("scores", &[SEQ, SEQ]);
    c.invoke(ops::gemm("qk", SEQ, SEQ, DM), &[&q, &normed, &scores], &[]);
    let tmp = c.buffer("tmp", &[1]);
    let attn = c.buffer("attn", &[SEQ * SEQ]);
    c.invoke(
        ops::softmax("softmax", SEQ * SEQ),
        &[&scores, &tmp, &attn],
        &[],
    );
    let wv = c.buffer("wv", &[SEQ, DM]);
    let ctx = c.buffer("ctx", &[SEQ, DM]);
    c.invoke(ops::gemm("av", SEQ, DM, SEQ), &[&attn, &wv, &ctx], &[]);
    let gate = c.buffer("gate", &[SEQ * DM]);
    c.invoke(ops::sigmoid_op("silu", SEQ * DM), &[&ctx, &gate], &[]);
    let mixed = c.buffer("mixed", &[SEQ * DM]);
    let len = c.param("len");
    c.invoke(
        ops::dyn_seq_mix("kvwin", SEQ * DM),
        &[&gate, &mixed],
        &[&len],
    );
    let out = c.buffer("out", &[SEQ * DM]);
    c.invoke(ops::residual_add("res", SEQ * DM), &[&mixed, &x, &out], &[]);
    Workload::new("Tab. 2-14", c.build(), seq_inputs())
}

/// All fourteen workloads, in Table 2 order.
pub fn all() -> Vec<Workload> {
    vec![
        image_norm_cnn(),
        rb_dsc(),
        spp_fusion(),
        cbam_attention(),
        anchor_roialign(),
        gan_superres(),
        dense_skip(),
        dilated_aggre(),
        bevformer(),
        bert_base(),
        albert(),
        t5_base(),
        roberta(),
        llama(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fourteen_simulate() {
        let ws = all();
        assert_eq!(ws.len(), 14);
        for w in &ws {
            let r = llmulator_sim::simulate(&w.program, &w.inputs)
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert!(r.total_cycles > 0, "{}", w.name);
        }
    }

    #[test]
    fn op_counts_match_table2() {
        let expect = [8, 6, 8, 12, 5, 13, 8, 6, 5, 12, 13, 21, 10, 8];
        for (w, &n) in all().iter().zip(&expect) {
            assert_eq!(w.program.graph.op_count(), n, "{}", w.name);
        }
    }

    #[test]
    fn every_workload_has_dynamic_control_flow() {
        for w in all() {
            assert!(
                crate::stats::stats(&w).dyn_num >= 1,
                "{} should have dynamic params",
                w.name
            );
        }
    }

    #[test]
    fn image_workloads_respond_to_input_size() {
        let w = image_norm_cnn();
        let small = llmulator_sim::simulate(&w.program, &w.scaled_inputs(0.5))
            .expect("small")
            .total_cycles;
        let large = llmulator_sim::simulate(&w.program, &w.scaled_inputs(1.5))
            .expect("large")
            .total_cycles;
        assert!(large > small, "{large} > {small}");
    }

    #[test]
    fn nlp_workloads_respond_to_text_length() {
        let w = bert_base();
        let short = llmulator_sim::simulate(&w.program, &w.scaled_inputs(0.5))
            .expect("short")
            .total_cycles;
        let long = llmulator_sim::simulate(&w.program, &w.scaled_inputs(2.0))
            .expect("long")
            .total_cycles;
        assert!(long > short, "{long} > {short}");
    }
}
