//! Multi-head self-attention with grouped-query heads (GQA), sliding-window
//! causal masking, RoPE, and an incremental KV cache for decoding — the
//! Mistral attention stack.

use zg_tensor::Tensor;

use crate::layers::{Init, Linear};
use crate::rope::RopeCache;

/// Additive attention mask for `t_q` queries attending over `t_kv` keys,
/// where the first `n_cached` keys precede the current chunk. Entry is `0`
/// when key `j` is visible to query `i` (causal and within the sliding
/// window), `-1e9` otherwise.
pub fn attn_mask(t_q: usize, t_kv: usize, n_cached: usize, window: usize) -> Tensor {
    debug_assert_eq!(t_kv, n_cached + t_q);
    let mut m = vec![0.0f32; t_q * t_kv];
    for i in 0..t_q {
        let qpos = n_cached + i;
        for j in 0..t_kv {
            let visible = j <= qpos && qpos < j + window;
            if !visible {
                m[i * t_kv + j] = -1e9;
            }
        }
    }
    Tensor::from_vec(m, [t_q, t_kv])
}

/// Per-layer KV cache holding keys/values of already-processed positions,
/// shape `(1, n_kv_heads, cached_len, head_dim)` each.
///
/// Cloning is cheap: the K/V tensors are `Rc` handles onto immutable
/// buffers, and [`LayerKvCache::append`] replaces them with freshly
/// concatenated tensors rather than mutating in place — so a clone
/// *forks* the cache, and both branches can continue independently.
#[derive(Default, Clone)]
pub struct LayerKvCache {
    k: Option<Tensor>,
    v: Option<Tensor>,
}

impl LayerKvCache {
    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.k.as_ref().map_or(0, |k| k.dims()[2])
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append new keys/values and return the full concatenated K/V for
    /// this forward pass. The *stored* cache is trimmed to the most
    /// recent `window` positions (the sliding window makes older entries
    /// unreachable for future queries), but the returned tensors keep
    /// every position so that chunked prefill — where early queries in
    /// the chunk still see pre-trim keys — masks rather than drops them.
    fn append(&mut self, k_new: &Tensor, v_new: &Tensor, window: usize) -> (Tensor, Tensor) {
        let (k, v) = match (&self.k, &self.v) {
            (Some(k), Some(v)) => (
                Tensor::concat(&[k.clone(), k_new.clone()], 2),
                Tensor::concat(&[v.clone(), v_new.clone()], 2),
            ),
            _ => (k_new.clone(), v_new.clone()),
        };
        let len = k.dims()[2];
        let (k_keep, v_keep) = if len > window {
            (
                k.narrow(2, len - window, window),
                v.narrow(2, len - window, window),
            )
        } else {
            (k.clone(), v.clone())
        };
        self.k = Some(k_keep.detach());
        self.v = Some(v_keep.detach());
        (k, v)
    }
}

/// Grouped-query attention block.
pub struct Attention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    n_kv_heads: usize,
    head_dim: usize,
    sliding_window: usize,
}

impl Attention {
    /// Build projections for the given geometry.
    pub fn new(
        d_model: usize,
        n_heads: usize,
        n_kv_heads: usize,
        sliding_window: usize,
        init: &mut impl Init,
    ) -> Self {
        let head_dim = d_model / n_heads;
        Attention {
            wq: Linear::new(d_model, n_heads * head_dim, init),
            wk: Linear::new(d_model, n_kv_heads * head_dim, init),
            wv: Linear::new(d_model, n_kv_heads * head_dim, init),
            wo: Linear::new(n_heads * head_dim, d_model, init),
            n_heads,
            n_kv_heads,
            head_dim,
            sliding_window,
        }
    }

    /// Mutable access to the q/k/v/o projections — `zg-lora` attaches
    /// adapters through this.
    pub fn projections_mut(&mut self) -> [&mut Linear; 4] {
        [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }

    /// Immutable access to the q/k/v/o projections.
    pub fn projections(&self) -> [&Linear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }

    /// Forward pass.
    ///
    /// * `x` — `(batch, time, d_model)`
    /// * `rope` — rotary table; positions start at `pos_offset`
    /// * `cache` — when `Some`, keys/values are appended and reused
    ///   (decoding); training passes `None`.
    pub fn forward(
        &self,
        x: &Tensor,
        rope: &RopeCache,
        pos_offset: usize,
        cache: Option<&mut LayerKvCache>,
    ) -> Tensor {
        let dims = x.dims();
        let (b, t, _d) = (dims[0], dims[1], dims[2]);
        if cache.is_some() {
            assert_eq!(b, 1, "KV-cache decoding supports batch size 1");
        }
        let h = self.n_heads;
        let kvh = self.n_kv_heads;
        let hd = self.head_dim;

        // Project and reshape to (B, heads, T, hd).
        let q = self
            .wq
            .forward(x)
            .reshape([b, t, h, hd])
            .permute(&[0, 2, 1, 3]);
        let k = self
            .wk
            .forward(x)
            .reshape([b, t, kvh, hd])
            .permute(&[0, 2, 1, 3]);
        let v = self
            .wv
            .forward(x)
            .reshape([b, t, kvh, hd])
            .permute(&[0, 2, 1, 3]);

        // RoPE at absolute positions.
        let q = rope.apply(&q, pos_offset);
        let k = rope.apply(&k, pos_offset);

        // KV cache append / sliding-window trim.
        let n_cached_before = cache.as_ref().map_or(0, |c| c.len());
        let (k, v) = match cache {
            Some(c) => c.append(&k, &v, self.sliding_window),
            None => (k, v),
        };
        let t_kv = k.dims()[2];

        // Expand KV heads to query heads (GQA groups).
        let groups = h / kvh;
        let expand = |t: &Tensor| -> Tensor {
            if groups == 1 {
                return t.clone();
            }
            t.reshape([b, kvh, 1, t_kv, hd])
                .broadcast_to([b, kvh, groups, t_kv, hd])
                .reshape([b, h, t_kv, hd])
        };
        let k = expand(&k);
        let v = expand(&v);

        // Scaled dot-product with causal sliding-window mask.
        let scale = 1.0 / (hd as f32).sqrt();
        let scores = q.matmul(&k.t()).mul_scalar(scale);
        // `append` returns the untrimmed concatenation, so the key axis
        // always covers exactly the cached prefix plus this chunk; keys
        // outside the sliding window are masked, not dropped.
        let n_cached_now = t_kv - t;
        debug_assert_eq!(n_cached_now, n_cached_before);
        let mask = attn_mask(t, t_kv, n_cached_now, self.sliding_window);
        let probs = scores.add(&mask).softmax();
        let ctx = probs.matmul(&v); // (B, H, T, hd)

        let merged = ctx.permute(&[0, 2, 1, 3]).reshape([b, t, h * hd]);
        self.wo.forward(&merged)
    }

    /// Named parameters.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        out.extend(self.wq.params(&format!("{prefix}.wq")));
        out.extend(self.wk.params(&format!("{prefix}.wk")));
        out.extend(self.wv.params(&format!("{prefix}.wv")));
        out.extend(self.wo.params(&format!("{prefix}.wo")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mk_attn(window: usize) -> (Attention, RopeCache) {
        let mut rng = StdRng::seed_from_u64(42);
        let attn = Attention::new(16, 4, 2, window, &mut rng);
        let rope = RopeCache::new(4, 64, 10_000.0);
        (attn, rope)
    }

    #[test]
    fn mask_causal_no_window() {
        let m = attn_mask(3, 3, 0, 100);
        assert_eq!(m.at(&[0, 0]), 0.0);
        assert_eq!(m.at(&[0, 1]), -1e9);
        assert_eq!(m.at(&[2, 0]), 0.0);
        assert_eq!(m.at(&[2, 2]), 0.0);
    }

    #[test]
    fn mask_sliding_window_cuts_old() {
        let m = attn_mask(4, 4, 0, 2);
        // Query 3 sees keys 2..=3 only.
        assert_eq!(m.at(&[3, 0]), -1e9);
        assert_eq!(m.at(&[3, 1]), -1e9);
        assert_eq!(m.at(&[3, 2]), 0.0);
        assert_eq!(m.at(&[3, 3]), 0.0);
    }

    #[test]
    fn mask_with_cached_prefix() {
        let m = attn_mask(1, 5, 4, 100);
        // Single query at position 4 sees everything cached.
        for j in 0..5 {
            assert_eq!(m.at(&[0, j]), 0.0);
        }
    }

    #[test]
    fn forward_shape() {
        let (attn, rope) = mk_attn(64);
        let x = Tensor::ones([2, 5, 16]);
        let y = attn.forward(&x, &rope, 0, None);
        assert_eq!(y.dims(), &[2, 5, 16]);
    }

    #[test]
    fn causality_future_tokens_do_not_affect_past() {
        let (attn, rope) = mk_attn(64);
        let mut rng = StdRng::seed_from_u64(9);
        let x1 = Tensor::randn([1, 4, 16], 0.0, 1.0, &mut rng);
        // Same first 3 tokens, different 4th.
        let mut d2 = x1.to_vec();
        for v in &mut d2[3 * 16..] {
            *v += 5.0;
        }
        let x2 = Tensor::from_vec(d2, [1, 4, 16]);
        let y1 = attn.forward(&x1, &rope, 0, None);
        let y2 = attn.forward(&x2, &rope, 0, None);
        for t in 0..3 {
            for j in 0..16 {
                assert!(
                    (y1.at(&[0, t, j]) - y2.at(&[0, t, j])).abs() < 1e-5,
                    "position {t} leaked future information"
                );
            }
        }
    }

    #[test]
    fn kv_cache_matches_full_forward() {
        let (attn, rope) = mk_attn(64);
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::randn([1, 6, 16], 0.0, 1.0, &mut rng);
        let full = attn.forward(&x, &rope, 0, None);
        // Incremental: feed one token at a time through the cache.
        let mut cache = LayerKvCache::default();
        let xd = x.to_vec();
        for t in 0..6 {
            let step = Tensor::from_vec(xd[t * 16..(t + 1) * 16].to_vec(), [1, 1, 16]);
            let y = attn.forward(&step, &rope, t, Some(&mut cache));
            for j in 0..16 {
                assert!(
                    (y.at(&[0, 0, j]) - full.at(&[0, t, j])).abs() < 1e-4,
                    "token {t} dim {j} mismatch"
                );
            }
        }
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn kv_cache_window_trims() {
        let (attn, rope) = mk_attn(3);
        let mut cache = LayerKvCache::default();
        for t in 0..5 {
            let step = Tensor::ones([1, 1, 16]);
            attn.forward(&step, &rope, t, Some(&mut cache));
        }
        assert_eq!(cache.len(), 3, "cache must trim to the window");
    }

    #[test]
    fn gradients_flow_through_attention() {
        let (attn, rope) = mk_attn(64);
        let x = Tensor::param(vec![0.1; 2 * 3 * 16], [2, 3, 16]);
        attn.forward(&x, &rope, 0, None).sum().backward();
        assert!(x.grad().is_some());
        for (_, p) in attn.params("a") {
            assert!(p.grad().is_some(), "all projections receive grads");
        }
    }

    #[test]
    fn params_enumerated() {
        let (attn, _) = mk_attn(8);
        let names: Vec<String> = attn.params("l0").into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"l0.wq.weight".to_string()));
        assert_eq!(names.len(), 4);
    }
}
