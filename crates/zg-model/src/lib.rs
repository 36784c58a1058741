//! # zg-model
//!
//! A from-scratch, Mistral-style decoder-only transformer on the
//! `zg-tensor` autograd engine: RMSNorm, rotary position embeddings,
//! grouped-query attention with sliding-window causal masking, SwiGLU MLP,
//! KV-cache decoding, AdamW with cosine decay, and in-memory checkpoints.
//!
//! This is the substrate standing in for Mistral 7B in the ZiGong
//! reproduction (see DESIGN.md §2 for the substitution argument): every
//! architectural mechanism from the paper's Table 3 is present, scaled to
//! CPU-trainable size.

mod attention;
mod block;
mod config;
mod layers;
mod lm;
mod mlp;
mod optim;
mod prefix;
mod rope;
mod spec;

pub use attention::{attn_mask, Attention, LayerKvCache};
pub use block::TransformerBlock;
pub use config::ModelConfig;
pub use layers::{Adapter, Embedding, Init, Linear, RmsNorm, ZeroInit};
pub use lm::{log_prob_row, sample_logits, CausalLm, KvCache};
pub use mlp::SwiGluMlp;
pub use optim::{clip_grad_norm, AdamW, CosineSchedule};
pub use prefix::{PrefixBlock, PrefixPool, PrefixStats};
pub use rope::RopeCache;
pub use spec::LmSpec;
