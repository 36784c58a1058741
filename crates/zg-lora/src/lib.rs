//! # zg-lora
//!
//! Low-Rank Adaptation (LoRA, Hu et al. 2021) for the `zg-model`
//! transformer, matching the paper's fine-tuning recipe (Table 3):
//! rank 8, alpha 16, target modules {query, key, value}.
//!
//! `attach` injects `ΔW = (α/r)·A·B` adapters into the selected attention
//! projections and freezes every base parameter, so that
//! `CausalLm::trainable_params()` returns exactly the adapter matrices —
//! which is also the gradient subspace `zg-influence` uses for TracIn /
//! TracSeq (per-sample gradients of the *trainable* parameters).

mod adapter;

pub use adapter::{attach, lora_param_count, lora_params, LoraConfig, TargetModule};
