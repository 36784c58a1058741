//! `CausalLm::sft_loss` computes only what the loss reads: the blocks run
//! up to the batch's last supervised position, and the final norm, LM
//! head and cross-entropy see only the supervised rows. These tests pin
//! it bit for bit to the full-row oracle — `forward` over the whole
//! `(batch, time)` grid, then `cross_entropy_logits` with the ignore
//! label — on right-padded batches with masked prompts, masked tails,
//! fully masked rows and fully masked batches. Three things must agree:
//!
//! * the loss bits;
//! * every trainable parameter's gradient bits;
//! * the set of parameters whose `grad()` is `Some` — AdamW skips the
//!   `None`s, so a fully masked micro-batch must still reach every one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zg_model::{Adapter, CausalLm, ModelConfig};
use zg_tensor::Tensor;

const VOCAB: usize = 24;
const IGNORE: u32 = 0;

/// A 2-layer model with random LoRA adapters on all four attention
/// projections. `full` leaves every weight trainable (the pretraining
/// shape); otherwise only the adapters are (the LoRA SFT shape).
fn tiny_lm(seed: u64, full: bool) -> CausalLm {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = ModelConfig::mistral_miniature(VOCAB);
    cfg.n_layers = 2;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_kv_heads = 1;
    cfg.d_ff = 32;
    cfg.max_seq_len = 32;
    let mut lm = CausalLm::new(cfg, &mut rng);
    for (_, p) in lm.params() {
        p.set_requires_grad(full);
    }
    for block in &mut lm.blocks {
        for linear in block.attn.projections_mut() {
            let (fin, fout) = (linear.in_features(), linear.out_features());
            let a = Tensor::xavier_uniform(fin, 2, &mut rng);
            let b = Tensor::xavier_uniform(2, fout, &mut rng);
            a.set_requires_grad(true);
            b.set_requires_grad(true);
            linear.adapter = Some(Adapter { a, b, scale: 0.5 });
        }
    }
    lm
}

/// Loss bits and, per parameter, the gradient bits or `None`.
type Outcome = (u32, Vec<Option<Vec<u32>>>);

fn run(lm: &CausalLm, loss: impl FnOnce() -> Tensor) -> Outcome {
    let params = lm.params();
    for (_, p) in &params {
        p.zero_grad();
    }
    let loss = loss();
    loss.backward();
    let grads = params
        .iter()
        .map(|(_, p)| p.grad().map(|g| g.iter().map(|v| v.to_bits()).collect()))
        .collect();
    (loss.item().to_bits(), grads)
}

/// The full-row oracle: logits at every position, cross-entropy with the
/// ignore label masking the unsupervised ones.
fn oracle(lm: &CausalLm, tokens: &[u32], labels: &[u32], b: usize, t: usize) -> Tensor {
    let targets: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
    lm.forward(tokens, b, t)
        .cross_entropy_logits(&targets, Some(IGNORE as usize))
}

fn assert_matches_oracle(lm: &CausalLm, tokens: &[u32], labels: &[u32], b: usize, t: usize) {
    let fast = run(lm, || lm.sft_loss(tokens, labels, b, t, IGNORE));
    let slow = run(lm, || oracle(lm, tokens, labels, b, t));
    assert_eq!(fast.0, slow.0, "loss bits");
    let names: Vec<String> = lm.params().into_iter().map(|(n, _)| n).collect();
    for ((name, f), s) in names.iter().zip(&fast.1).zip(&slow.1) {
        assert_eq!(f.is_some(), s.is_some(), "{name}: grad presence");
        assert!(f == s, "{name}: gradient bits differ");
    }
    let trainable = lm.trainable_params().len();
    let reached = fast.1.iter().filter(|g| g.is_some()).count();
    assert_eq!(reached, trainable, "backward reaches every trainable param");
}

/// A random right-padded `(b, t)` batch. Each row holds 1..=t real
/// tokens and pads the rest with 0. Its labels stop at a random cut, so
/// the row ends in a masked tail (a cut of 0 masks the whole row), and
/// positions before the cut are masked with probability 0.3, as prompt
/// tokens are. One batch in eight is masked entirely.
fn random_batch(b: usize, t: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let all_masked = rng.gen_range(0..8) == 0;
    let mut tokens = vec![0u32; b * t];
    let mut labels = vec![IGNORE; b * t];
    for row in 0..b {
        let len = rng.gen_range(1..=t);
        let cut = if all_masked {
            0
        } else {
            rng.gen_range(0..=len)
        };
        for pos in 0..len {
            let i = row * t + pos;
            tokens[i] = rng.gen_range(1..VOCAB as u32);
            if pos < cut && !rng.gen_bool(0.3) {
                labels[i] = rng.gen_range(1..VOCAB as u32);
            }
        }
    }
    (tokens, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sft_loss_is_bit_identical_to_full_rows(
        b in 1..=5usize,
        t in 2..=24usize,
        full in any::<bool>(),
        seed in 0..1_000_000u64,
    ) {
        let lm = tiny_lm(seed, full);
        let (tokens, labels) = random_batch(b, t, seed);
        assert_matches_oracle(&lm, &tokens, &labels, b, t);
    }
}

#[test]
fn fully_masked_batch_still_reaches_every_parameter() {
    let (b, t) = (3, 7);
    let mut rng = StdRng::seed_from_u64(9);
    let tokens: Vec<u32> = (0..b * t).map(|_| rng.gen_range(1..VOCAB as u32)).collect();
    let labels = vec![IGNORE; b * t];
    for full in [false, true] {
        let lm = tiny_lm(3, full);
        assert_matches_oracle(&lm, &tokens, &labels, b, t);
        assert_eq!(lm.sft_loss(&tokens, &labels, b, t, IGNORE).item(), 0.0);
    }
}
