//! Decoding strategies beyond greedy/temperature: top-k, nucleus (top-p),
//! and repetition penalty — plus perplexity evaluation, the standard
//! language-modeling quality measure for the pretraining stage.

use rand::Rng;

use crate::lm::{sample_logits, CausalLm};

/// Decoding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Softmax temperature; `0` = greedy.
    pub temperature: f32,
    /// Keep only the `k` most likely tokens (`0` = disabled).
    pub top_k: usize,
    /// Nucleus sampling: keep the smallest set with cumulative probability
    /// ≥ `top_p` (`1.0` = disabled).
    pub top_p: f32,
    /// Divide logits of already-generated tokens by this factor
    /// (`1.0` = disabled).
    pub repetition_penalty: f32,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            temperature: 0.0,
            top_k: 0,
            top_p: 1.0,
            repetition_penalty: 1.0,
        }
    }
}

impl SamplingConfig {
    /// Greedy decoding.
    pub fn greedy() -> Self {
        Self::default()
    }

    /// Typical creative sampling: temperature 0.8, nucleus 0.95.
    pub fn nucleus(temperature: f32, top_p: f32) -> Self {
        SamplingConfig {
            temperature,
            top_p,
            ..Self::default()
        }
    }
}

/// Apply the configured filters to raw logits and sample a token id.
pub fn sample_filtered(
    logits: &[f32],
    cfg: &SamplingConfig,
    history: &[u32],
    rng: &mut impl Rng,
) -> u32 {
    let mut logits = logits.to_vec();
    // Repetition penalty (CTRL-style): dampen already-emitted tokens.
    if cfg.repetition_penalty != 1.0 {
        for &tok in history {
            let l = &mut logits[tok as usize];
            *l = if *l > 0.0 {
                *l / cfg.repetition_penalty
            } else {
                *l * cfg.repetition_penalty
            };
        }
    }
    // Top-k filter.
    if cfg.top_k > 0 && cfg.top_k < logits.len() {
        let mut sorted: Vec<f32> = logits.clone();
        // INVARIANT: NaN logits are a caller bug; fail loudly rather than mis-rank.
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite logits"));
        let cutoff = sorted[cfg.top_k - 1];
        for l in &mut logits {
            if *l < cutoff {
                *l = f32::NEG_INFINITY;
            }
        }
    }
    // Nucleus (top-p) filter.
    if cfg.top_p < 1.0 {
        let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&l| (l - m).exp()).collect();
        let z: f32 = exps.iter().sum();
        let mut order: Vec<usize> = (0..logits.len()).collect();
        // INVARIANT: NaN logits are a caller bug; fail loudly rather than mis-rank.
        order.sort_by(|&a, &b| logits[b].partial_cmp(&logits[a]).expect("finite"));
        let mut cum = 0.0f32;
        let mut keep = vec![false; logits.len()];
        for &i in &order {
            keep[i] = true;
            cum += exps[i] / z;
            if cum >= cfg.top_p {
                break;
            }
        }
        for (l, k) in logits.iter_mut().zip(&keep) {
            if !k {
                *l = f32::NEG_INFINITY;
            }
        }
    }
    sample_logits(&logits, cfg.temperature, rng)
}

impl CausalLm {
    /// Generate with a full [`SamplingConfig`]; otherwise identical to
    /// [`CausalLm::generate`].
    pub fn generate_with(
        &self,
        prompt: &[u32],
        max_new: usize,
        cfg: &SamplingConfig,
        eos: u32,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let mut cache = self.new_cache();
        let mut logits = Vec::new();
        for &t in prompt {
            logits = self.step(t, &mut cache);
        }
        let mut out: Vec<u32> = Vec::new();
        for _ in 0..max_new {
            let next = sample_filtered(&logits, cfg, &out, rng);
            if next == eos {
                break;
            }
            out.push(next);
            // The budget spent or a full context ends the decode, as in
            // `CausalLm::generate`.
            if out.len() == max_new || cache.pos == self.cfg.max_seq_len {
                break;
            }
            logits = self.step(next, &mut cache);
        }
        out
    }

    /// Perplexity of a token sequence under the model: `exp(mean NLL)`
    /// over the next-token predictions.
    pub fn perplexity(&self, tokens: &[u32]) -> f32 {
        assert!(tokens.len() >= 2, "need at least two tokens");
        zg_tensor::no_grad(|| {
            let t = tokens.len();
            let logits = self.forward(tokens, 1, t);
            let logp = logits.reshape([t, self.cfg.vocab_size]).log_softmax();
            let lp = logp.data();
            let v = self.cfg.vocab_size;
            let mut nll = 0.0f32;
            for pos in 0..t - 1 {
                nll -= lp[pos * v + tokens[pos + 1] as usize];
            }
            (nll / (t - 1) as f32).exp()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_lm() -> CausalLm {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cfg = ModelConfig::mistral_miniature(24);
        cfg.n_layers = 1;
        cfg.d_model = 16;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        CausalLm::new(cfg, &mut rng)
    }

    #[test]
    fn top_k_restricts_support() {
        let logits = vec![5.0, 4.0, 3.0, -10.0];
        let cfg = SamplingConfig {
            temperature: 1.0,
            top_k: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let t = sample_filtered(&logits, &cfg, &[], &mut rng);
            assert!(t < 2, "token {t} outside top-2");
        }
    }

    #[test]
    fn nucleus_keeps_minimal_mass() {
        // One dominant token: p ≈ 0.97 → top_p 0.9 keeps only it.
        let logits = vec![10.0, 5.0, 5.0, 5.0];
        let cfg = SamplingConfig {
            temperature: 1.0,
            top_p: 0.9,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            assert_eq!(sample_filtered(&logits, &cfg, &[], &mut rng), 0);
        }
    }

    #[test]
    fn repetition_penalty_discourages_repeats() {
        let logits = vec![2.0, 1.9];
        let cfg = SamplingConfig {
            temperature: 0.0,
            repetition_penalty: 2.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        // With token 0 in history its logit halves → token 1 wins.
        assert_eq!(sample_filtered(&logits, &cfg, &[0], &mut rng), 1);
        assert_eq!(sample_filtered(&logits, &cfg, &[], &mut rng), 0);
    }

    #[test]
    fn greedy_config_matches_plain_generate() {
        let lm = tiny_lm();
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let a = lm.generate(&[1, 2, 3], 5, 0.0, 2, &mut r1);
        let b = lm.generate_with(&[1, 2, 3], 5, &SamplingConfig::greedy(), 2, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn perplexity_bounded_by_vocab() {
        let lm = tiny_lm();
        let ppl = lm.perplexity(&[1, 5, 9, 2, 7]);
        assert!(ppl.is_finite() && ppl > 1.0);
        // An untrained model is near-uniform: ppl ≈ vocab size.
        assert!(ppl < 24.0 * 3.0, "ppl {ppl}");
    }

    #[test]
    fn perplexity_drops_after_memorizing() {
        let lm = tiny_lm();
        for (_, p) in lm.params() {
            p.set_requires_grad(true);
        }
        let seq = [1u32, 5, 9, 2, 7, 3, 1, 5];
        let before = lm.perplexity(&seq);
        let params = lm.params();
        let mut opt = crate::optim::AdamW::new(0.01, 0.0);
        for _ in 0..60 {
            let labels: Vec<u32> = seq[1..].iter().copied().chain([0]).collect();
            let loss = lm.sft_loss(&seq, &labels, 1, seq.len(), 0);
            loss.backward();
            opt.step(&params);
        }
        let after = lm.perplexity(&seq);
        assert!(after < before * 0.5, "ppl {before} -> {after}");
    }
}
