//! # zg-tensor
//!
//! A compact, dependency-light f32 tensor engine with tape-based
//! reverse-mode automatic differentiation. This is the computational
//! substrate for the ZiGong reproduction: the Mistral-style language model
//! in `zg-model`, LoRA adapters in `zg-lora`, and the TracIn/TracSeq
//! influence machinery in `zg-influence` are all built on it.
//!
//! Highlights:
//! - NumPy-style broadcasting for binary ops, with gradient reduction over
//!   broadcast axes.
//! - Batched matmul with broadcastable batch dimensions, over one f32
//!   GEMM family: the naive oracle and a bit-identical SIMD fast path
//!   ([`gemm`], [`GemmKernel`]).
//! - Fused softmax / cross-entropy kernels.
//! - [`Tensor::custom`] — define new differentiable ops downstream.
//! - [`no_grad`] scopes for tape-free inference.
//! - [`TensorStore`] — named checkpoints (TracIn replays gradients at
//!   stored checkpoints, so checkpoints are load-bearing).
//!
//! ```
//! use zg_tensor::Tensor;
//! let w = Tensor::param(vec![0.5, -0.5], [2]);
//! let x = Tensor::from_vec(vec![1.0, 2.0], [2]);
//! let loss = w.mul(&x).sum().square();
//! loss.backward();
//! assert!(w.grad().is_some());
//! ```

mod autograd;
mod fastpath;
mod init;
mod leak;
mod ops_binary;
mod ops_matmul;
mod ops_nn;
mod ops_reduce;
mod ops_shape;
mod ops_unary;
mod pool;
mod shape;
mod simd;
mod store;
mod tensor;

pub use fastpath::{op_fast_paths, set_op_fast_paths};
pub use init::randn_sample;
pub use leak::{live_tape_nodes, GraphLeakGuard};
pub use ops_matmul::{
    available_threads, default_gemm_kernel, gemm, gemm_kernel, gemm_naive, set_gemm_kernel,
    GemmKernel,
};
pub use pool::{
    clear_pool, live_pooled_buffers, pool_stats, pool_stats_scope, reset_pool_stats, PoolStats,
    PoolStatsScope, PooledBuf,
};
pub use shape::{Shape, StridedIter};
pub use simd::{gemm_simd, gemm_simd_with_threads, simd_available};
pub use store::TensorStore;
pub use tensor::{grad_enabled, no_grad, Tensor};
