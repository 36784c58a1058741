//! A pre-norm transformer block: `x + attn(norm(x))` then `x + mlp(norm(x))`.

use zg_tensor::Tensor;

use crate::attention::{Attention, LayerKvCache};
use crate::config::ModelConfig;
use crate::layers::{Init, RmsNorm};
use crate::mlp::SwiGluMlp;
use crate::rope::RopeCache;

/// One decoder layer.
pub struct TransformerBlock {
    /// Norm before attention.
    pub attn_norm: RmsNorm,
    /// Grouped-query attention.
    pub attn: Attention,
    /// Norm before the MLP.
    pub mlp_norm: RmsNorm,
    /// SwiGLU feed-forward.
    pub mlp: SwiGluMlp,
}

impl TransformerBlock {
    /// Build a block per `cfg`.
    pub fn new(cfg: &ModelConfig, init: &mut impl Init) -> Self {
        TransformerBlock {
            attn_norm: RmsNorm::new(cfg.d_model, cfg.rms_eps),
            attn: Attention::new(
                cfg.d_model,
                cfg.n_heads,
                cfg.n_kv_heads,
                cfg.sliding_window,
                init,
            ),
            mlp_norm: RmsNorm::new(cfg.d_model, cfg.rms_eps),
            mlp: SwiGluMlp::new(cfg.d_model, cfg.d_ff, init),
        }
    }

    /// Forward with residual connections.
    ///
    /// Multi-token KV-cache chunks (prompt ingestion) open `block.attn`
    /// and `block.mlp` spans, the rule `model.prefill` follows: none per
    /// decode step, none in training forwards.
    pub fn forward(
        &self,
        x: &Tensor,
        rope: &RopeCache,
        pos_offset: usize,
        cache: Option<&mut LayerKvCache>,
    ) -> Tensor {
        let traced = cache.is_some() && x.dims()[1] > 1;
        let span = |name| traced.then(|| zg_trace::span(name));
        let h = {
            let _span = span("block.attn");
            x.add(
                &self
                    .attn
                    .forward(&self.attn_norm.forward(x), rope, pos_offset, cache),
            )
        };
        let _span = span("block.mlp");
        h.add(&self.mlp.forward(&self.mlp_norm.forward(&h)))
    }

    /// Named parameters.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        out.extend(self.attn_norm.params(&format!("{prefix}.attn_norm")));
        out.extend(self.attn.params(&format!("{prefix}.attn")));
        out.extend(self.mlp_norm.params(&format!("{prefix}.mlp_norm")));
        out.extend(self.mlp.params(&format!("{prefix}.mlp")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_preserves_shape_and_flows_grads() {
        let cfg = ModelConfig::mistral_miniature(64);
        let mut rng = StdRng::seed_from_u64(0);
        let block = TransformerBlock::new(&cfg, &mut rng);
        let rope = RopeCache::new(cfg.head_dim(), cfg.max_seq_len, cfg.rope_theta);
        let x = Tensor::param(vec![0.1; 2 * 4 * cfg.d_model], [2, 4, cfg.d_model]);
        let y = block.forward(&x, &rope, 0, None);
        assert_eq!(y.dims(), x.dims());
        y.sum().backward();
        assert!(x.grad().is_some());
    }

    #[test]
    fn residual_identity_path() {
        // Residual connections mean output != 0 even where sublayers output
        // something tiny; check the input signal survives.
        let cfg = ModelConfig::mistral_miniature(64);
        let mut rng = StdRng::seed_from_u64(1);
        let block = TransformerBlock::new(&cfg, &mut rng);
        let rope = RopeCache::new(cfg.head_dim(), cfg.max_seq_len, cfg.rope_theta);
        let x = Tensor::full([1, 2, cfg.d_model], 3.0);
        let y = block.forward(&x, &rope, 0, None);
        let my: f32 = y.to_vec().iter().sum::<f32>() / y.numel() as f32;
        assert!(my.abs() > 0.5, "residual signal lost: mean {my}");
    }

    #[test]
    fn param_naming_is_hierarchical() {
        let cfg = ModelConfig::mistral_miniature(64);
        let mut rng = StdRng::seed_from_u64(2);
        let block = TransformerBlock::new(&cfg, &mut rng);
        let names: Vec<String> = block.params("l3").into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n == "l3.attn.wq.weight"));
        assert!(names.iter().any(|n| n == "l3.mlp.gate.weight"));
        assert!(names.iter().any(|n| n == "l3.attn_norm.gain"));
    }
}
