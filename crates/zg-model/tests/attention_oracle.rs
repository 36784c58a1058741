//! The fused sliding-window attention kernel against its oracle, the
//! composite attention path (GQA expansion, score tensor, mask tensor,
//! softmax, value product). `zg_tensor::set_op_fast_paths(false)` turns
//! the fused kernel off, so every test runs the same KV-cache forwards
//! twice, on two caches, once with op fast paths on and once off, and
//! requires every output to carry the same bits.
//!
//! Later chunks read what earlier ones stored, so a cache that kept the
//! wrong window would show up as a differing output too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zg_model::{Attention, CausalLm, LayerKvCache, ModelConfig, RopeCache};
use zg_tensor::{no_grad, set_op_fast_paths, Tensor};

/// Run `f` with this thread's op fast paths pinned to `on`.
fn with_fast_paths<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = set_op_fast_paths(on);
    let out = f();
    set_op_fast_paths(prev);
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Chunk lengths covering `len` positions: random chunks up to `split`,
/// then single-token steps.
fn chunk_plan(len: usize, split: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut plan = Vec::new();
    let mut fed = 0;
    while fed < split {
        let n = rng.gen_range(1..=split - fed);
        plan.push(n);
        fed += n;
    }
    plan.extend(std::iter::repeat_n(1, len - split));
    plan
}

/// Random inputs `(len, d_model)`, with about one row in eight all zero
/// (its queries are then exactly zero, so every score is `+0`).
fn inputs(len: usize, d_model: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut x = Tensor::randn([len, d_model], 0.0, 1.5, rng).to_vec();
    for row in x.chunks_exact_mut(d_model) {
        if rng.gen_range(0..8) == 0 {
            row.fill(0.0);
        }
    }
    x
}

/// Feed `x` through `attn` chunk by chunk on a fresh cache, with op fast
/// paths `on`, and return every chunk's output.
fn run_chunks(
    attn: &Attention,
    rope: &RopeCache,
    x: &[f32],
    d_model: usize,
    plan: &[usize],
    on: bool,
) -> Vec<Vec<f32>> {
    with_fast_paths(on, || {
        no_grad(|| {
            let mut cache = LayerKvCache::default();
            let mut pos = 0;
            plan.iter()
                .map(|&n| {
                    let chunk = x[pos * d_model..(pos + n) * d_model].to_vec();
                    let y = attn.forward(
                        &Tensor::from_vec(chunk, [1, n, d_model]),
                        rope,
                        pos,
                        Some(&mut cache),
                    );
                    pos += n;
                    y.to_vec()
                })
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_attention_is_bit_identical_to_the_composite_path(
        kv_heads in 1..=3usize,
        groups in 1..=3usize,
        half_dim in 1..=8usize,
        len in 1..=48usize,
        window_pick in 0..=1000usize,
        split_pick in 0..=1000usize,
        seed in 0..1_000_000u64,
    ) {
        let n_heads = kv_heads * groups;
        let head_dim = 2 * half_dim;
        let d_model = n_heads * head_dim;
        // A window from 1 to past the sequence length.
        let window = 1 + window_pick % (len + 2);
        let split = split_pick % (len + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let attn = Attention::new(d_model, n_heads, kv_heads, window, &mut rng);
        let rope = RopeCache::new(head_dim, len, 10_000.0);
        let x = inputs(len, d_model, &mut rng);
        let plan = chunk_plan(len, split, &mut rng);
        let fast = run_chunks(&attn, &rope, &x, d_model, &plan, true);
        let oracle = run_chunks(&attn, &rope, &x, d_model, &plan, false);
        for (i, (f, o)) in fast.iter().zip(&oracle).enumerate() {
            prop_assert!(
                bits(f) == bits(o),
                "chunk {i} of {plan:?} differs (heads {n_heads}/{kv_heads}, \
                 head_dim {head_dim}, window {window})"
            );
        }
    }
}

/// What the served path reads from one decision: the prefill logits of
/// a chunk after a cached prefix, the logits of cached steps after it,
/// and candidate scores through KV forks.
fn served_shape_outputs(lm: &CausalLm, ids: &[u32], on: bool) -> (Vec<u32>, Vec<u32>) {
    with_fast_paths(on, || {
        let mut cache = lm.new_cache();
        lm.prefill(&ids[..234], &mut cache);
        let mut logits = lm.prefill(&ids[234..312], &mut cache);
        let mut seen = logits.clone();
        for &tok in &ids[312..] {
            logits = lm.step(tok, &mut cache);
            seen.extend_from_slice(&logits);
        }
        let candidates: [&[u32]; 3] = [&[5, 9], &[17], &[300, 2, 41]];
        let scores = lm.score_continuations_with_cache(&cache, &logits, &candidates);
        (bits(&seen), bits(&scores))
    })
}

#[test]
fn served_shape_prefill_steps_and_scores_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x5E4D);
    let mut cfg = ModelConfig::mistral_miniature(1024);
    cfg.max_seq_len = 768;
    let lm = CausalLm::new(cfg, &mut rng);
    // A 234-token cached prefix, a 78-token chunk, then 6 steps.
    let ids: Vec<u32> = (0..318).map(|_| rng.gen_range(4..1024)).collect();
    let fast = served_shape_outputs(&lm, &ids, true);
    let oracle = served_shape_outputs(&lm, &ids, false);
    assert!(fast.0 == oracle.0, "prefill and step logits differ");
    assert!(fast.1 == oracle.1, "continuation scores differ");
}
