//! Model hyperparameters. The defaults mirror Mistral 7B's *architecture
//! choices* (Table 3 of the paper: RMSNorm, SiLU, RoPE, grouped-query
//! attention, sliding-window attention) at a laptop-trainable scale.

use serde::{Deserialize, Serialize};

/// Configuration of a decoder-only causal LM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Vocabulary size (from the tokenizer).
    pub vocab_size: usize,
    /// Hidden dimension (`d_model`). Mistral 7B: 4096.
    pub d_model: usize,
    /// Number of transformer blocks. Mistral 7B: 32.
    pub n_layers: usize,
    /// Number of attention (query) heads. Mistral 7B: 32.
    pub n_heads: usize,
    /// Number of key/value heads (grouped-query attention). Mistral 7B: 8.
    pub n_kv_heads: usize,
    /// Feed-forward inner dimension. Mistral 7B: 14336.
    pub d_ff: usize,
    /// Maximum sequence length (context). Paper Table 3: 4096.
    pub max_seq_len: usize,
    /// Sliding-window attention width. Mistral 7B: 4096.
    pub sliding_window: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// RMSNorm epsilon.
    pub rms_eps: f32,
}

impl ModelConfig {
    /// Miniature Mistral-style config used throughout the reproduction:
    /// same architectural shape (GQA 4:1, SwiGLU, sliding window), scaled
    /// to CPU-trainable size.
    pub fn mistral_miniature(vocab_size: usize) -> Self {
        ModelConfig {
            vocab_size,
            d_model: 64,
            n_layers: 2,
            n_heads: 4,
            n_kv_heads: 2,
            d_ff: 128,
            max_seq_len: 256,
            sliding_window: 128,
            rope_theta: 10_000.0,
            rms_eps: 1e-5,
        }
    }

    /// A slightly larger config for the headline Table 2 run.
    pub fn mistral_small(vocab_size: usize) -> Self {
        ModelConfig {
            d_model: 96,
            n_layers: 3,
            n_heads: 6,
            n_kv_heads: 2,
            d_ff: 192,
            ..Self::mistral_miniature(vocab_size)
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Validate internal consistency; panics with a clear message otherwise.
    pub fn validate(&self) {
        assert!(self.vocab_size > 0, "vocab_size must be positive");
        assert_eq!(
            self.d_model % self.n_heads,
            0,
            "d_model {} not divisible by n_heads {}",
            self.d_model,
            self.n_heads
        );
        assert_eq!(
            self.n_heads % self.n_kv_heads,
            0,
            "n_heads {} not divisible by n_kv_heads {}",
            self.n_heads,
            self.n_kv_heads
        );
        assert!(self.sliding_window >= 1, "sliding window must be >= 1");
        assert!(self.max_seq_len >= 2, "max_seq_len too small");
    }

    /// Approximate parameter count of the dense model.
    pub fn param_count(&self) -> usize {
        let emb = self.vocab_size * self.d_model;
        let attn = self.d_model * self.d_model // q
            + 2 * self.d_model * (self.n_kv_heads * self.head_dim()) // k, v
            + self.d_model * self.d_model; // o
        let mlp = 3 * self.d_model * self.d_ff;
        let norms = 2 * self.d_model;
        emb + self.n_layers * (attn + mlp + norms) + self.d_model + emb // final norm + lm head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_is_valid() {
        let c = ModelConfig::mistral_miniature(300);
        c.validate();
        assert_eq!(c.head_dim(), 16);
        assert_eq!(c.n_heads / c.n_kv_heads, 2);
    }

    #[test]
    fn small_is_valid() {
        ModelConfig::mistral_small(300).validate();
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn invalid_heads_panics() {
        let mut c = ModelConfig::mistral_miniature(300);
        c.n_heads = 3;
        c.validate();
    }

    #[test]
    fn param_count_reasonable() {
        let c = ModelConfig::mistral_miniature(300);
        let n = c.param_count();
        assert!(n > 10_000 && n < 1_000_000, "param count {n}");
    }

    #[test]
    fn serde_roundtrip() {
        let c = ModelConfig::mistral_miniature(300);
        let json = serde_json::to_string(&c).unwrap();
        let back: ModelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
