//! Adapter construction, attachment, freezing, and merging.

use rand::Rng;
use serde::{Deserialize, Serialize};
use zg_model::{Adapter, CausalLm, Linear};
use zg_tensor::Tensor;

/// Which attention projections receive adapters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetModule {
    /// Query projection.
    Q,
    /// Key projection.
    K,
    /// Value projection.
    V,
    /// Output projection.
    O,
}

/// LoRA hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoraConfig {
    /// Adapter rank `r`. Paper Table 3: 8.
    pub rank: usize,
    /// Scaling numerator `α`; effective scale is `α / r`. Paper Table 3: 16.
    pub alpha: f32,
    /// Projections to adapt. Paper Table 3: {query, key, value}.
    pub targets: Vec<TargetModule>,
}

impl Default for LoraConfig {
    fn default() -> Self {
        LoraConfig {
            rank: 8,
            alpha: 16.0,
            targets: vec![TargetModule::Q, TargetModule::K, TargetModule::V],
        }
    }
}

impl LoraConfig {
    /// Effective adapter scaling `α / r`.
    pub fn scale(&self) -> f32 {
        self.alpha / self.rank as f32
    }
}

fn make_adapter(linear: &Linear, cfg: &LoraConfig, rng: &mut impl Rng) -> Adapter {
    let (fin, fout) = (linear.in_features(), linear.out_features());
    // Standard LoRA init: A ~ N(0, 1/r), B = 0, so ΔW starts at zero and
    // the adapted model is exactly the base model at step 0.
    let a = Tensor::randn([fin, cfg.rank], 0.0, 1.0 / cfg.rank as f32, rng);
    a.set_requires_grad(true);
    let b = Tensor::param(vec![0.0; cfg.rank * fout], [cfg.rank, fout]);
    Adapter {
        a,
        b,
        scale: cfg.scale(),
    }
}

fn targeted<'a>(projections: [&'a mut Linear; 4], targets: &[TargetModule]) -> Vec<&'a mut Linear> {
    let [q, k, v, o] = projections;
    let mut out = Vec::new();
    // Preserve q/k/v/o order regardless of target order in the config.
    let mut slots = [Some(q), Some(k), Some(v), Some(o)];
    for (idx, module) in [
        TargetModule::Q,
        TargetModule::K,
        TargetModule::V,
        TargetModule::O,
    ]
    .iter()
    .enumerate()
    {
        if targets.contains(module) {
            // INVARIANT: each TargetModule appears once in the array, so each slot is taken at most once.
            out.push(slots[idx].take().expect("slot taken once"));
        }
    }
    out
}

/// Attach LoRA adapters to the configured projections of every layer and
/// freeze all base parameters. After this call,
/// [`CausalLm::trainable_params`] returns exactly the adapter matrices.
pub fn attach(lm: &mut CausalLm, cfg: &LoraConfig, rng: &mut impl Rng) {
    assert!(cfg.rank >= 1, "LoRA rank must be >= 1");
    assert!(!cfg.targets.is_empty(), "no target modules configured");
    // Freeze the base model.
    for (_, p) in lm.params() {
        p.set_requires_grad(false);
    }
    for block in &mut lm.blocks {
        for linear in targeted(block.attn.projections_mut(), &cfg.targets) {
            linear.adapter = Some(make_adapter(linear, cfg, rng));
        }
    }
}

/// The adapter parameters of `lm` (name, tensor) — the LoRA subspace.
pub fn lora_params(lm: &CausalLm) -> Vec<(String, Tensor)> {
    lm.params()
        .into_iter()
        .filter(|(name, _)| name.ends_with(".lora_a") || name.ends_with(".lora_b"))
        .collect()
}

/// Total number of adapter parameters.
pub fn lora_param_count(lm: &CausalLm) -> usize {
    lora_params(lm).iter().map(|(_, p)| p.numel()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zg_model::ModelConfig;

    fn tiny_lm(seed: u64) -> CausalLm {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = ModelConfig::mistral_miniature(32);
        cfg.n_layers = 2;
        cfg.d_model = 16;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        CausalLm::new(cfg, &mut rng)
    }

    #[test]
    fn attach_freezes_base_and_exposes_adapters() {
        let mut lm = tiny_lm(1);
        let total_before = lm.params().len();
        let mut rng = StdRng::seed_from_u64(2);
        attach(&mut lm, &LoraConfig::default(), &mut rng);
        let trainable = lm.trainable_params();
        // q,k,v adapters per layer × 2 matrices × 2 layers = 12.
        assert_eq!(trainable.len(), 12);
        assert!(trainable
            .iter()
            .all(|(n, _)| n.contains("lora_a") || n.contains("lora_b")));
        assert_eq!(lm.params().len(), total_before + 12);
    }

    #[test]
    fn zero_init_preserves_base_outputs() {
        let mut lm = tiny_lm(3);
        let before = lm.forward(&[1, 2, 3], 1, 3).to_vec();
        let mut rng = StdRng::seed_from_u64(4);
        attach(&mut lm, &LoraConfig::default(), &mut rng);
        let after = lm.forward(&[1, 2, 3], 1, 3).to_vec();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-6, "LoRA must start as identity");
        }
    }

    #[test]
    fn training_only_updates_adapters() {
        let mut lm = tiny_lm(5);
        let mut rng = StdRng::seed_from_u64(6);
        attach(&mut lm, &LoraConfig::default(), &mut rng);
        let loss = lm.sft_loss(&[1, 2, 3, 4], &[2, 3, 4, 2], 1, 4, 0);
        loss.backward();
        for (name, p) in lm.params() {
            let has_grad = p.grad().is_some();
            let is_adapter = name.contains("lora");
            assert_eq!(
                has_grad, is_adapter,
                "{name}: grad {has_grad}, adapter {is_adapter}"
            );
        }
    }

    #[test]
    fn rank_controls_param_count() {
        for rank in [1usize, 4, 8] {
            let mut lm = tiny_lm(11);
            let mut rng = StdRng::seed_from_u64(12);
            let cfg = LoraConfig {
                rank,
                ..Default::default()
            };
            attach(&mut lm, &cfg, &mut rng);
            // Per adapted linear: rank*(in+out). d_model=16, kv dim=8.
            // q: 16*(16+16)r/8... just check proportionality to rank.
            let count = lora_param_count(&lm);
            assert_eq!(count % rank, 0);
            assert_eq!(count / rank, {
                let mut base_lm = tiny_lm(11);
                let mut rng2 = StdRng::seed_from_u64(12);
                attach(
                    &mut base_lm,
                    &LoraConfig {
                        rank: 1,
                        ..Default::default()
                    },
                    &mut rng2,
                );
                lora_param_count(&base_lm)
            });
        }
    }

    #[test]
    fn target_selection_respected() {
        let mut lm = tiny_lm(13);
        let mut rng = StdRng::seed_from_u64(14);
        attach(
            &mut lm,
            &LoraConfig {
                targets: vec![TargetModule::O],
                ..Default::default()
            },
            &mut rng,
        );
        let names: Vec<String> = lora_params(&lm).into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().all(|n| n.contains(".wo.")), "{names:?}");
        assert_eq!(names.len(), 4); // 2 layers × (A, B)
    }

    #[test]
    fn scale_is_alpha_over_rank() {
        let cfg = LoraConfig {
            rank: 8,
            alpha: 16.0,
            ..Default::default()
        };
        assert_eq!(cfg.scale(), 2.0);
    }
}
