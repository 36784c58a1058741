//! [`LmSpec`]: a `Send` blueprint of a [`CausalLm`].
//!
//! `CausalLm` tensors are `Rc`-backed and cannot cross threads, so any
//! parallel engine (the evaluator's worker pool, the trainer's
//! data-parallel gradient accumulation) ships this plain-data spec to each
//! worker and rebuilds a private replica there.
//!
//! Replicas are exact: every parameter (base weights *and* adapter
//! matrices) is restored by name, adapter slots are recreated *before* the
//! name-matched restore (the `lora_a`/`lora_b` names only exist once the
//! slot does), and — unlike a bare checkpoint — each parameter's
//! `requires_grad` flag is carried along, so a replica of a LoRA-frozen
//! model reports the same `trainable_params()` set as the original. That
//! last part is what makes the spec usable for *training* replicas, not
//! just inference ones.

use std::collections::BTreeMap;

use zg_tensor::Tensor;

use crate::config::ModelConfig;
use crate::layers::{Adapter, ZeroInit};
use crate::lm::CausalLm;

/// Plain-data blueprint of a [`CausalLm`]: configuration, raw `f32` weight
/// buffers with their gradient flags, and LoRA adapter geometry.
#[derive(Clone)]
pub struct LmSpec {
    cfg: ModelConfig,
    /// `(name, data, requires_grad)` per parameter, in [`CausalLm::params`]
    /// order.
    weights: Vec<(String, Vec<f32>, bool)>,
    /// Per block, per q/k/v/o projection: `(rank, scale)` of an attached
    /// adapter.
    adapters: Vec<[Option<(usize, f32)>; 4]>,
}

impl LmSpec {
    /// Snapshot `lm` into a thread-shippable blueprint.
    pub fn snapshot(lm: &CausalLm) -> LmSpec {
        let weights = lm
            .params()
            .into_iter()
            .map(|(name, p)| {
                let data = p.data().to_vec();
                let rg = p.requires_grad();
                (name, data, rg)
            })
            .collect();
        let adapters = lm
            .blocks
            .iter()
            .map(|b| {
                let projs = b.attn.projections();
                [0, 1, 2, 3].map(|i| {
                    projs[i]
                        .adapter
                        .as_ref()
                        .map(|ad| (ad.a.dims()[1], ad.scale))
                })
            })
            .collect();
        LmSpec {
            cfg: lm.cfg.clone(),
            weights,
            adapters,
        }
    }

    /// Rebuild an exact replica of the snapshotted model.
    pub fn build(&self) -> CausalLm {
        // Every weight is restored below, so none is drawn at random.
        let mut lm = CausalLm::new(self.cfg.clone(), &mut ZeroInit);
        // Recreate adapter slots before restoring weights: parameters are
        // matched by name, and `lora_a`/`lora_b` names only exist once the
        // slot does.
        for (block, slots) in lm.blocks.iter_mut().zip(&self.adapters) {
            for (linear, slot) in block.attn.projections_mut().into_iter().zip(slots) {
                if let &Some((rank, scale)) = slot {
                    let (fin, fout) = (linear.in_features(), linear.out_features());
                    linear.adapter = Some(Adapter {
                        a: Tensor::param(vec![0.0; fin * rank], [fin, rank]),
                        b: Tensor::param(vec![0.0; rank * fout], [rank, fout]),
                        scale,
                    });
                }
            }
        }
        let by_name: BTreeMap<&str, (&Vec<f32>, bool)> = self
            .weights
            .iter()
            .map(|(n, d, rg)| (n.as_str(), (d, *rg)))
            .collect();
        let params = lm.params();
        assert_eq!(
            params.len(),
            self.weights.len(),
            "replica parameters must cover the spec exactly"
        );
        for (name, p) in params {
            let (data, rg) = by_name
                .get(name.as_str())
                // INVARIANT: a spec missing a replica parameter is unrecoverable corruption.
                .unwrap_or_else(|| panic!("spec missing parameter {name}"));
            p.set_data(data);
            p.set_requires_grad(*rg);
        }
        lm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_lm() -> CausalLm {
        let mut rng = StdRng::seed_from_u64(17);
        let mut cfg = ModelConfig::mistral_miniature(48);
        cfg.n_layers = 2;
        cfg.d_model = 16;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        CausalLm::new(cfg, &mut rng)
    }

    #[test]
    fn replica_forward_is_bit_identical() {
        let lm = tiny_lm();
        let spec = LmSpec::snapshot(&lm);
        let replica = spec.build();
        let tokens = [1u32, 9, 4, 2, 7, 3];
        let a = lm.forward(&tokens, 2, 3).to_vec();
        let b = replica.forward(&tokens, 2, 3).to_vec();
        assert_eq!(a, b, "replica logits must match bitwise");
    }

    #[test]
    fn replica_preserves_requires_grad_and_adapters() {
        let mut lm = tiny_lm();
        // Freeze everything, then attach a trainable adapter on one
        // projection — the LoRA training shape.
        for (_, p) in lm.params() {
            p.set_requires_grad(false);
        }
        let mut rng = StdRng::seed_from_u64(5);
        {
            let block = &mut lm.blocks[0];
            let [q, _, _, _] = block.attn.projections_mut();
            let (fin, fout) = (q.in_features(), q.out_features());
            let a = Tensor::xavier_uniform(fin, 2, &mut rng);
            a.set_requires_grad(true);
            let b = Tensor::param(vec![0.25; 2 * fout], [2, fout]);
            q.adapter = Some(Adapter { a, b, scale: 0.5 });
        }
        let trainable: Vec<String> = lm.trainable_params().into_iter().map(|(n, _)| n).collect();
        assert_eq!(trainable.len(), 2, "exactly lora_a + lora_b trainable");

        let replica = LmSpec::snapshot(&lm).build();
        let replica_trainable: Vec<String> = replica
            .trainable_params()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            trainable, replica_trainable,
            "replica must reproduce the trainable set exactly"
        );
        // Adapter weights themselves restored bitwise.
        let q = &replica.blocks[0].attn.projections()[0];
        let ad = q.adapter.as_ref().expect("adapter slot recreated");
        assert_eq!(ad.scale, 0.5);
        assert!(ad.b.data().iter().all(|&v| v == 0.25));
    }
}
