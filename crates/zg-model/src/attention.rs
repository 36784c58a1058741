//! Multi-head self-attention with grouped-query heads (GQA), sliding-window
//! causal masking, RoPE, and an incremental KV cache for decoding — the
//! Mistral attention stack.
//!
//! The attention core has two implementations. The composite one
//! (expand the KV heads, materialise scores, add a mask tensor, softmax,
//! multiply by the values) is built from differentiable tensor ops: it is
//! the autograd path for training and the oracle. The fused
//! [`window_attention`] kernel is the inference fast path: it runs on
//! KV-cache forwards (prefill chunks and decode steps) with gradients off
//! and op fast paths on, scores each query only against the keys in its
//! causal window, and reproduces the composite path bit for bit.

use zg_tensor::{grad_enabled, op_fast_paths, PooledBuf, Tensor};

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

/// Geometry of one [`window_attention`] call.
#[derive(Debug, Clone, Copy)]
struct WindowGeometry {
    /// Query heads.
    n_heads: usize,
    /// Key/value heads; `n_heads` is a multiple of it (GQA groups).
    n_kv_heads: usize,
    /// Width of one head.
    head_dim: usize,
    /// Queries in this chunk: the last `t_q` of the `t_kv` positions.
    t_q: usize,
    /// Keys: the cached prefix followed by this chunk.
    t_kv: usize,
    /// Sliding-window width: query position `p` sees keys `p+1-window..=p`.
    window: usize,
}

/// Running maxima kept per score row: max is exact and order-free, so
/// interleaved lanes find the same value as one pass in key order, and
/// the loop vectorises.
const MAX_LANES: usize = 8;

/// Context lanes accumulated per pass over a query's visible values: a
/// fixed-width local block the compiler keeps in registers.
const CTX_LANES: usize = 16;

/// Fused causal sliding-window attention for the KV-cache path: the
/// context of every query, written into the `(t_q, n_heads·head_dim)`
/// rows the output projection reads.
///
/// * `q` — `(n_heads, t_q, head_dim)` RoPE'd queries;
/// * `k`, `v` — `(n_kv_heads, t_kv, head_dim)`, the cached prefix then
///   this chunk; query head `h` reads KV head `h / (n_heads / n_kv_heads)`
///   in place (no GQA expansion);
/// * `out` — `(t_q, n_heads·head_dim)`, all `+0` on entry.
///
/// Query `i` sits at key position `p = t_kv - t_q + i` and sees keys
/// `max(0, p+1-window)..=p`. Only those are scored: no mask tensor, and
/// no score or probability tensor beyond one query's row.
///
/// **Exactness.** The result equals the composite path (scores `q·kᵀ`,
/// `* scale`, `+ mask`, softmax, `· v` through the naive GEMM, which the
/// SIMD GEMM matches bit for bit) in every bit, because it performs the
/// same float operations in the same order:
/// - each score is an ascending-`d` dot product from `+0`, then
///   `* scale`;
/// - the row max `m`, then `e = (s - m).exp()` with [`f32::exp`] (no
///   polynomial or vector exp), `z` summed in ascending key order, and
///   `p = e * (1/z)`;
/// - the context `Σ p·v` summed in ascending key order from `+0`.
///
/// Dropping the masked keys changes no bit: a masked score is
/// `s - 1e9`, so it never wins the max, its `exp(≈-1e9 - m)` is exactly
/// `0` and adds nothing to `z`, and its `p = 0` adds `±0` to the context
/// sums, which the naive GEMM skips anyway. An ascending sum from `+0`
/// never holds `-0`, so adding (or skipping) a `±0` term leaves it
/// unchanged; that is also why the zero query lanes the GEMM skips need
/// no test here. A visible score that is `-0` here but `+0` after the
/// mask add gives the same `s - m` and the same max.
/// Precondition: every input is finite and every score far inside
/// `±1e9`, so masked scores stay below every visible one (each query
/// sees at least its own key).
///
/// Vectorisation runs only across independent outputs: each KV head's
/// keys are transposed once per call so a query's scores accumulate one
/// `d` at a time across its visible keys (the naive GEMM's ikj order,
/// four `d` per pass over the row), the row max keeps [`MAX_LANES`]
/// running maxima, and each query's context accumulates [`CTX_LANES`]
/// lanes at a time in a local block.
fn window_attention(q: &[f32], k: &[f32], v: &[f32], geo: WindowGeometry, out: &mut [f32]) {
    let WindowGeometry {
        n_heads: h,
        n_kv_heads: kvh,
        head_dim: hd,
        t_q,
        t_kv,
        window,
    } = geo;
    assert!(kvh > 0 && h % kvh == 0, "{h} heads over {kvh} KV heads");
    assert!(
        window > 0 && t_q <= t_kv,
        "window {window}, {t_q} of {t_kv}"
    );
    assert_eq!(q.len(), h * t_q * hd, "query shape");
    assert_eq!(k.len(), kvh * t_kv * hd, "key shape");
    assert_eq!(v.len(), kvh * t_kv * hd, "value shape");
    assert_eq!(out.len(), t_q * h * hd, "output shape");
    if t_q == 0 || hd == 0 {
        return;
    }
    let groups = h / kvh;
    let n_cached = t_kv - t_q;
    let scale = 1.0 / (hd as f32).sqrt();
    // One KV head's keys, `d`-major: `kt[d·t_kv + j]` is key j's d-th lane.
    let mut kt = PooledBuf::scratch(hd * t_kv);
    // One query's scores, then its probabilities, over its visible keys.
    let mut row = PooledBuf::scratch(window.min(t_kv));
    let heads = k
        .chunks_exact(t_kv * hd)
        .zip(v.chunks_exact(t_kv * hd))
        .zip(q.chunks_exact(groups * t_q * hd));
    for (g, ((kg, vg), qg)) in heads.enumerate() {
        for (j, key) in kg.chunks_exact(hd).enumerate() {
            for (lane, &kd) in kt.chunks_exact_mut(t_kv).zip(key) {
                lane[j] = kd;
            }
        }
        // The query heads of KV head g: g·groups .. (g+1)·groups.
        for (hh, qh) in (g * groups..).zip(qg.chunks_exact(t_q * hd)) {
            let rows = qh.chunks_exact(hd).zip(out.chunks_exact_mut(h * hd));
            for (pos, (query, orow)) in (n_cached..).zip(rows) {
                // INVARIANT: lo <= pos < t_kv and pos + 1 - lo <= window,
                // so every range below is in bounds.
                let lo = (pos + 1).saturating_sub(window);
                let p = &mut row[..pos + 1 - lo];
                score_row(query, &kt, t_kv, lo, p);
                let m = scale_max(p, scale);
                let mut z = 0.0f32;
                for s in p.iter_mut() {
                    *s = (*s - m).exp();
                    z += *s;
                }
                let inv = 1.0 / z;
                for e in p.iter_mut() {
                    *e *= inv;
                }
                weigh_values(p, &vg[lo * hd..], &mut orow[hh * hd..(hh + 1) * hd]);
            }
        }
    }
}

/// `scores[j] = Σ_d query[d]·kt[d·t_kv + lo + j]`, each summed in
/// ascending `d` from `+0`. A pass over the row adds four `d` to every
/// score, one after another, so each score sees the same sequence of
/// additions as one pass per `d`.
fn score_row(query: &[f32], kt: &[f32], t_kv: usize, lo: usize, scores: &mut [f32]) {
    let n = scores.len();
    scores.fill(0.0);
    let quads = query.chunks_exact(4);
    let rest = quads.remainder();
    for (qd, lanes) in quads.zip(kt.chunks_exact(4 * t_kv)) {
        let (q0, q1, q2, q3) = (qd[0], qd[1], qd[2], qd[3]);
        // INVARIANT: lo + n <= t_kv, so each lane's range is in bounds.
        let lane = |i: usize| &lanes[i * t_kv + lo..i * t_kv + lo + n];
        let keys = lane(0).iter().zip(lane(1)).zip(lane(2)).zip(lane(3));
        for (s, (((&k0, &k1), &k2), &k3)) in scores.iter_mut().zip(keys) {
            *s = *s + q0 * k0 + q1 * k1 + q2 * k2 + q3 * k3;
        }
    }
    let lanes = kt.chunks_exact(t_kv).skip(query.len() - rest.len());
    for (&qd, lane) in rest.iter().zip(lanes) {
        for (s, &kd) in scores.iter_mut().zip(&lane[lo..lo + n]) {
            *s += qd * kd;
        }
    }
}

/// Multiply `scores` by `scale` in place and return their maximum.
fn scale_max(scores: &mut [f32], scale: f32) -> f32 {
    let mut maxima = [f32::NEG_INFINITY; MAX_LANES];
    let mut chunks = scores.chunks_exact_mut(MAX_LANES);
    for chunk in &mut chunks {
        for (m, s) in maxima.iter_mut().zip(chunk) {
            *s *= scale;
            *m = m.max(*s);
        }
    }
    for (m, s) in maxima.iter_mut().zip(chunks.into_remainder()) {
        *s *= scale;
        *m = m.max(*s);
    }
    maxima.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// `ctx[d] = Σ_j p[j]·values[j·hd + d]` for `hd = ctx.len()`, each summed
/// in ascending `j` from `+0`: [`CTX_LANES`] lanes per pass in a local
/// block, then any remaining lanes in place.
fn weigh_values(p: &[f32], values: &[f32], ctx: &mut [f32]) {
    let hd = ctx.len();
    let mut blocks = ctx.chunks_exact_mut(CTX_LANES);
    let mut d0 = 0;
    for block in &mut blocks {
        let mut acc = [0.0f32; CTX_LANES];
        for (&pj, value) in p.iter().zip(values.chunks_exact(hd)) {
            for (a, &vd) in acc.iter_mut().zip(&value[d0..d0 + CTX_LANES]) {
                *a += pj * vd;
            }
        }
        block.copy_from_slice(&acc);
        d0 += CTX_LANES;
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        for (&pj, value) in p.iter().zip(values.chunks_exact(hd)) {
            for (c, &vd) in tail.iter_mut().zip(&value[d0..]) {
                *c += pj * vd;
            }
        }
    }
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
    ///
    /// With a cache, gradients off and op fast paths on (the default),
    /// the core runs the fused [`window_attention`] kernel; otherwise the
    /// composite, differentiable path — both give the same bits.
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

        // KV cache append / sliding-window trim. `append` returns the
        // untrimmed concatenation, so the key axis always covers exactly
        // the cached prefix plus this chunk; keys outside the sliding
        // window are masked (or, in the fused kernel, never scored), not
        // dropped.
        let fused = cache.is_some() && op_fast_paths() && !grad_enabled();
        let (k, v) = match cache {
            Some(c) => c.append(&k, &v, self.sliding_window),
            None => (k, v),
        };
        let merged = if fused {
            let out = Tensor::zeros([b, t, h * hd]);
            window_attention(
                &q.data(),
                &k.data(),
                &v.data(),
                WindowGeometry {
                    n_heads: h,
                    n_kv_heads: kvh,
                    head_dim: hd,
                    t_q: t,
                    t_kv: k.dims()[2],
                    window: self.sliding_window,
                },
                &mut out.data_mut(),
            );
            out
        } else {
            self.composite_attention(&q, &k, &v)
        };
        self.wo.forward(&merged)
    }

    /// The composite attention core: expand the KV heads to the query
    /// heads, materialise the scaled scores, add the causal window mask,
    /// softmax, and multiply by the values. `q` is `(B, H, T, hd)`, `k`
    /// and `v` are `(B, kvh, t_kv, hd)` with the chunk's keys last; the
    /// result is `(B, T, H·hd)`. This is the autograd path for training
    /// and the oracle of [`window_attention`].
    fn composite_attention(&self, q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
        let (b, h, t, hd) = (q.dims()[0], self.n_heads, q.dims()[2], self.head_dim);
        let kvh = self.n_kv_heads;
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
        let k = expand(k);
        let v = expand(v);

        // Scaled dot-product with causal sliding-window mask.
        let scale = 1.0 / (hd as f32).sqrt();
        let scores = q.matmul(&k.t()).mul_scalar(scale);
        let mask = attn_mask(t, t_kv, t_kv - t, self.sliding_window);
        let probs = scores.add(&mask).softmax();
        let ctx = probs.matmul(&v); // (B, H, T, hd)

        ctx.permute(&[0, 2, 1, 3]).reshape([b, t, h * hd])
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
