//! Per-sample gradient extraction from the language model, in the
//! **trainable-parameter (LoRA) subspace**.
//!
//! TracIn-CP's authors compute influence with last-layer gradients for
//! tractability; in the LoRA fine-tuning setting the natural analogue is
//! the adapter subspace — those are the only parameters that move during
//! SFT, so influence on *training* is exactly influence through them.

use std::collections::BTreeMap;

use zg_model::CausalLm;
use zg_tensor::TensorStore;

use crate::parallel::{par_map_init, ParallelConfig};
use crate::tracin::CheckpointGrads;

/// A tokenized training/test sample: `(input tokens, aligned labels)`,
/// labels `0` (`<pad>`) masked from the loss.
pub type TokenizedSample = (Vec<u32>, Vec<u32>);

/// A stored LM checkpoint for influence replay.
pub struct LmCheckpoint {
    /// Full weight snapshot (adapters included).
    pub store: TensorStore,
    /// Step size η_i in effect around this checkpoint.
    pub eta: f32,
    /// Checkpoint time index t_i.
    pub time: u32,
}

/// Gradient of the (masked) next-token loss for one sample with respect to
/// the model's trainable parameters, flattened in parameter-name order.
///
/// Existing gradients are cleared first and the tape is dropped afterwards,
/// so calls do not interfere with training state.
pub fn lm_sample_gradient(lm: &CausalLm, sample: &TokenizedSample) -> Vec<f32> {
    let params = lm.trainable_params();
    assert!(
        !params.is_empty(),
        "model has no trainable parameters — attach LoRA first"
    );
    for (_, p) in &params {
        p.zero_grad();
    }
    let (tokens, labels) = sample;
    let loss = lm.sft_loss(tokens, labels, 1, tokens.len(), 0);
    loss.backward();
    let mut out = Vec::new();
    for (_, p) in &params {
        out.extend(p.grad_or_zeros());
        p.zero_grad();
    }
    out
}

/// Replay stored checkpoints: restore each snapshot into `lm`, compute
/// per-sample gradients for all train/test samples, and package them as
/// [`CheckpointGrads`] for TracIn/TracSeq. The model's current weights are
/// restored on return.
pub fn lm_checkpoint_grads(
    lm: &CausalLm,
    checkpoints: &[LmCheckpoint],
    train: &[TokenizedSample],
    test: &[TokenizedSample],
) -> Vec<CheckpointGrads> {
    let current = lm.checkpoint();
    let mut out = Vec::with_capacity(checkpoints.len());
    for ck in checkpoints {
        lm.restore(&ck.store);
        out.push(CheckpointGrads {
            eta: ck.eta,
            time: ck.time,
            train: train.iter().map(|s| lm_sample_gradient(lm, s)).collect(),
            test: test.iter().map(|s| lm_sample_gradient(lm, s)).collect(),
        });
    }
    lm.restore(&current);
    out
}

/// [`lm_checkpoint_grads`] fanned across `par.workers` threads.
///
/// The autograd `Tensor` is `Rc`-based and not `Send`, so the model
/// cannot be shared across threads; instead each worker builds one
/// replica via `make_lm` (architecture + tokenizer only — weights are
/// overwritten). The work is a single fan-out over every (checkpoint,
/// split, sample) item in output order, and a worker loads a
/// checkpoint's weights, shipped as plain buffers, whenever its next
/// item's checkpoint differs from the loaded one. Gradients depend only
/// on (weights, sample), so the result is **bit-identical** to the
/// serial path for every worker count.
pub fn lm_checkpoint_grads_with<F>(
    make_lm: F,
    checkpoints: &[LmCheckpoint],
    train: &[TokenizedSample],
    test: &[TokenizedSample],
    par: &ParallelConfig,
) -> Vec<CheckpointGrads>
where
    F: Fn() -> CausalLm + Sync,
{
    let weights: Vec<BTreeMap<&str, Vec<f32>>> = checkpoints
        .iter()
        .map(|ck| {
            ck.store
                .names()
                // INVARIANT: `names` lists only keys the store holds.
                .map(|name| (name, ck.store.get(name).expect("listed").to_vec()))
                .collect()
        })
        .collect();
    let items: Vec<(usize, &TokenizedSample)> = (0..checkpoints.len())
        .flat_map(|c| train.iter().chain(test).map(move |s| (c, s)))
        .collect();
    let mut grads = par_map_init(
        &items,
        par.resolved_workers(),
        || (make_lm(), None),
        |(lm, loaded): &mut (CausalLm, Option<usize>), &(c, sample)| {
            if *loaded != Some(c) {
                for (name, p) in lm.params() {
                    let data = weights[c]
                        .get(name.as_str())
                        // INVARIANT: a checkpoint missing a model parameter is unrecoverable corruption.
                        .unwrap_or_else(|| panic!("checkpoint missing parameter {name}"));
                    p.set_data(data);
                }
                *loaded = Some(c);
            }
            lm_sample_gradient(lm, sample)
        },
    )
    .into_iter();
    checkpoints
        .iter()
        .map(|ck| CheckpointGrads {
            eta: ck.eta,
            time: ck.time,
            train: grads.by_ref().take(train.len()).collect(),
            test: grads.by_ref().take(test.len()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zg_lora::{attach, LoraConfig};
    use zg_model::ModelConfig;

    fn lora_lm(seed: u64) -> CausalLm {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = ModelConfig::mistral_miniature(24);
        cfg.n_layers = 1;
        cfg.d_model = 16;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        let mut lm = CausalLm::new(cfg, &mut rng);
        attach(
            &mut lm,
            &LoraConfig {
                rank: 2,
                ..Default::default()
            },
            &mut rng,
        );
        lm
    }

    #[test]
    fn gradient_dimension_is_lora_subspace() {
        let lm = lora_lm(1);
        let sample = (vec![1u32, 5, 7, 3], vec![5u32, 7, 3, 2]);
        let g = lm_sample_gradient(&lm, &sample);
        assert_eq!(g.len(), zg_lora::lora_param_count(&lm));
        assert!(g.iter().any(|&v| v != 0.0), "gradient must be nonzero");
    }

    #[test]
    fn gradient_deterministic() {
        let lm = lora_lm(2);
        let sample = (vec![1u32, 5, 7], vec![5u32, 7, 2]);
        assert_eq!(
            lm_sample_gradient(&lm, &sample),
            lm_sample_gradient(&lm, &sample)
        );
    }

    #[test]
    fn fully_masked_sample_has_zero_gradient() {
        let lm = lora_lm(3);
        let sample = (vec![1u32, 5, 7], vec![0u32, 0, 0]);
        let g = lm_sample_gradient(&lm, &sample);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn checkpoint_replay_restores_weights() {
        let lm = lora_lm(4);
        // Two snapshots with different adapter values.
        let ck1 = lm.checkpoint();
        for (name, p) in lm.trainable_params() {
            if name.ends_with("lora_b") {
                p.set_data(&vec![0.05; p.numel()]);
            }
        }
        let ck2 = lm.checkpoint();
        let before = lm.forward(&[1, 2, 3], 1, 3).to_vec();

        let train = vec![(vec![1u32, 5, 7], vec![5u32, 7, 2])];
        let test = vec![(vec![2u32, 6, 8], vec![6u32, 8, 2])];
        let grads = lm_checkpoint_grads(
            &lm,
            &[
                LmCheckpoint {
                    store: ck1,
                    eta: 0.1,
                    time: 0,
                },
                LmCheckpoint {
                    store: ck2,
                    eta: 0.1,
                    time: 1,
                },
            ],
            &train,
            &test,
        );
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[0].train.len(), 1);
        assert_eq!(grads[0].test.len(), 1);
        // Different checkpoints give different gradients.
        assert_ne!(grads[0].train[0], grads[1].train[0]);
        // Weights restored.
        let after = lm.forward(&[1, 2, 3], 1, 3).to_vec();
        assert_eq!(before, after);
    }

    #[test]
    fn parallel_grads_bit_identical_to_serial() {
        let lm = lora_lm(6);
        let cks: Vec<LmCheckpoint> = [0.0f32, 0.03, -0.02]
            .iter()
            .enumerate()
            .map(|(t, &b)| {
                for (name, p) in lm.trainable_params() {
                    if name.ends_with("lora_b") {
                        p.set_data(&vec![b; p.numel()]);
                    }
                }
                LmCheckpoint {
                    store: lm.checkpoint(),
                    eta: 0.1 / (t + 1) as f32,
                    time: t as u32,
                }
            })
            .collect();
        let train: Vec<TokenizedSample> = (0..4)
            .map(|i| (vec![1 + i, 5, 7, 3 + i], vec![0, 7, 3 + i, 2]))
            .collect();
        let test = vec![(vec![2u32, 6, 8], vec![6u32, 8, 2])];
        // 5 items per checkpoint: over 3 checkpoints, 2 and 5 workers cut
        // a chunk inside a checkpoint; over 2, 3 workers do.
        for n_ck in [2, 3] {
            let serial = lm_checkpoint_grads(&lm, &cks[..n_ck], &train, &test);
            for workers in [1usize, 2, 3, 5] {
                let par = lm_checkpoint_grads_with(
                    || lora_lm(6),
                    &cks[..n_ck],
                    &train,
                    &test,
                    &ParallelConfig::serial().with_workers(workers),
                );
                assert_eq!(par.len(), n_ck);
                for (a, b) in serial.iter().zip(&par) {
                    assert_eq!((a.eta, a.time), (b.eta, b.time));
                    assert_eq!(a.train, b.train, "workers={workers}");
                    assert_eq!(a.test, b.test, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn influence_pipeline_end_to_end() {
        // TracIn over LM gradients: a training sample identical to the test
        // sample should receive a higher score than an unrelated one.
        let lm = lora_lm(5);
        // Make adapters slightly non-trivial so gradients are informative.
        for (name, p) in lm.trainable_params() {
            if name.ends_with("lora_b") {
                let d: Vec<f32> = (0..p.numel())
                    .map(|i| 0.02 * ((i % 5) as f32 - 2.0))
                    .collect();
                p.set_data(&d);
            }
        }
        let ck = LmCheckpoint {
            store: lm.checkpoint(),
            eta: 0.1,
            time: 0,
        };
        let twin = (vec![1u32, 5, 7, 9], vec![0u32, 0, 7, 9]);
        let other = (vec![4u32, 11, 3, 14], vec![0u32, 0, 12, 6]);
        let train = vec![twin.clone(), other];
        let test = vec![twin];
        let grads = lm_checkpoint_grads(&lm, &[ck], &train, &test);
        let scores =
            crate::tracin::influence_scores(&grads, &crate::tracin::TracConfig::tracin(), None);
        assert!(
            scores[0] > scores[1],
            "twin {} must outrank unrelated {}",
            scores[0],
            scores[1]
        );
        assert!(scores[0] > 0.0, "self-influence is positive");
    }
}
