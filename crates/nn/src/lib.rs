//! # llmulator-nn
//!
//! From-scratch neural-network substrate for the LLMulator reproduction —
//! the role the HuggingFace + LLaMA-3.2 stack plays in the paper.
//!
//! The crate provides:
//!
//! * [`Matrix`] — dense `f32` matrices with blocked, allocation-free matmul
//!   kernels (bit-identical to the naive `*_naive` test oracles); on x86-64
//!   hosts with AVX2 the GEMM runs an AVX2-compiled copy of the same body,
//!   chosen at run time. Only `avx2` is enabled, never `fma`, and rustc
//!   never contracts a multiply-add, so each element rounds the same way
//!   and the output bits do not depend on the host,
//! * [`Scratch`] — a reusable buffer arena keeping steady-state inference
//!   free of heap allocation,
//! * [`Graph`] — a tape-based reverse-mode autodiff engine (gradient-checked
//!   against finite differences in the test suite) whose parameter leaves
//!   borrow the [`ParamStore`] and whose `param_grads` consumes the tape,
//!   so a step copies no weights; its element-wise ops run as row-slice
//!   zips the compiler vectorizes, each element keeping its expression,
//! * [`Transformer`] — a pre-norm encoder with *pluggable additive attention
//!   masks* (the hook for LLMulator's dynamic control-flow separation),
//! * [`infer::forward`] — the production forward pass (tape-free,
//!   scratch-backed, one sequence with an optional attention mask),
//!   bit-identical to the tape and the [`infer::encode_naive`] oracle. Its
//!   kernel also packs same-length sequences into one blocked GEMM per
//!   layer ([`infer::forward_packed`]); nothing in the prediction path
//!   calls that, and it is kept only for the benchmark's trace replay,
//! * [`infer::encode_cached`] — the same kernel's layer body run only on
//!   the rows a changed token reaches under the attention mask, with every
//!   other row served from the previous call's cache (LLMulator's dynamic
//!   prediction acceleration), bit-identical to [`infer::forward`],
//! * [`AdamW`] — decoupled-weight-decay optimizer,
//! * [`train::batch_grads`] / [`train::par_map`] — parallel mini-batch
//!   gradient accumulation (summed per parameter id, so tapes may register
//!   different parameters) and a generic scoped-thread map.
//!
//! ```
//! use llmulator_nn::{Graph, ParamStore, Transformer, TransformerConfig};
//!
//! let mut store = ParamStore::new();
//! let encoder = Transformer::new(TransformerConfig::tiny(100), &mut store, 0);
//! let mut g = Graph::new();
//! let out = encoder.encode(&mut g, &store, &[5, 17, 3], None);
//! assert_eq!(g.value(out.pooled).shape(), (1, 16));
//! ```

// Lint baseline: the autodiff/inference kernels iterate rows by index into
// several matrices at once (values, gradients, caches, masks); the iterator
// rewrites clippy suggests obscure the row-parallel structure.
#![allow(clippy::needless_range_loop)]

pub mod adam;
pub mod graph;
pub mod infer;
pub mod matrix;
pub mod scratch;
pub mod train;
pub mod transformer;

pub use adam::{AdamConfig, AdamW};
pub use graph::{Graph, NodeId, ParamId, ParamStore};
pub use infer::{
    encode_cached, encode_cached_with, encode_naive, forward, forward_packed, EncoderCache,
    InferStats,
};
pub use matrix::{softmax_slice, Matrix};
pub use scratch::Scratch;
pub use train::{available_threads, par_map, par_map_init};
pub use transformer::{EncodeOut, Transformer, TransformerConfig};
