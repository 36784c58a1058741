//! The decoder-only causal language model: embedding, N transformer
//! blocks, final RMSNorm, LM head — plus training loss, generation with a
//! KV cache, and continuation scoring (used for answer selection and for
//! the probability scores behind the KS metric).

use rand::Rng;
use zg_tensor::{no_grad, GraphLeakGuard, Tensor, TensorStore};

use crate::attention::LayerKvCache;
use crate::block::TransformerBlock;
use crate::config::ModelConfig;
use crate::layers::{Embedding, Init, Linear, RmsNorm};
use crate::rope::RopeCache;

/// Per-layer KV caches for one decoding session.
pub struct KvCache {
    layers: Vec<LayerKvCache>,
    /// Absolute position of the next token to be fed.
    pub pos: usize,
}

impl KvCache {
    fn new(n_layers: usize) -> Self {
        KvCache {
            layers: (0..n_layers).map(|_| LayerKvCache::default()).collect(),
            pos: 0,
        }
    }

    /// Fork the cache at its current position. The per-layer K/V tensors
    /// are `Rc` handles onto immutable buffers, so this is a cheap
    /// pointer-copy per layer; the fork and the original then extend
    /// independently. This is what lets one prompt prefill serve many
    /// candidate continuations.
    pub fn fork(&self) -> KvCache {
        zg_trace::counter_add("model.kv_forks", 1.0);
        KvCache {
            layers: self.layers.clone(),
            pos: self.pos,
        }
    }
}

/// Mistral-style causal LM.
pub struct CausalLm {
    /// Model configuration.
    pub cfg: ModelConfig,
    /// Token embedding.
    pub embed: Embedding,
    /// Decoder layers.
    pub blocks: Vec<TransformerBlock>,
    /// Final norm before the head.
    pub final_norm: RmsNorm,
    /// LM head projecting to vocabulary logits.
    pub lm_head: Linear,
    rope: RopeCache,
}

impl CausalLm {
    /// Initialize a model from `cfg`, its weights filled by `init` (an
    /// RNG draws random weights).
    pub fn new(cfg: ModelConfig, init: &mut impl Init) -> Self {
        cfg.validate();
        let blocks = (0..cfg.n_layers)
            .map(|_| TransformerBlock::new(&cfg, init))
            .collect();
        let rope = RopeCache::new(cfg.head_dim(), cfg.max_seq_len, cfg.rope_theta);
        CausalLm {
            embed: Embedding::new(cfg.vocab_size, cfg.d_model, init),
            blocks,
            final_norm: RmsNorm::new(cfg.d_model, cfg.rms_eps),
            lm_head: Linear::new(cfg.d_model, cfg.vocab_size, init),
            rope,
            cfg,
        }
    }

    /// Fresh KV cache for decoding.
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(self.cfg.n_layers)
    }

    /// Forward over a `(batch, time)` grid of token ids -> logits
    /// `(batch, time, vocab)`.
    pub fn forward(&self, tokens: &[u32], batch: usize, time: usize) -> Tensor {
        self.head(&self.hidden(tokens, batch, time))
    }

    /// The last block's output `(batch, time, d_model)`.
    fn hidden(&self, tokens: &[u32], batch: usize, time: usize) -> Tensor {
        assert!(
            time <= self.cfg.max_seq_len,
            "sequence length {time} exceeds max {}",
            self.cfg.max_seq_len
        );
        let mut h = self.embed.forward(tokens, batch, time);
        for block in &self.blocks {
            h = block.forward(&h, &self.rope, 0, None);
        }
        h
    }

    /// Final norm and LM head: hidden rows `(…, d_model)` -> logits
    /// `(…, vocab)`.
    fn head(&self, h: &Tensor) -> Tensor {
        self.lm_head.forward(&self.final_norm.forward(h))
    }

    /// Single decoding step through the KV cache (batch 1): returns logits
    /// `(vocab,)` for the next-token distribution after `token`.
    pub fn step(&self, token: u32, cache: &mut KvCache) -> Vec<f32> {
        self.prefill(&[token], cache)
    }

    /// Feed `tokens` through the KV cache in one chunked forward (batch 1)
    /// and return the next-token logits `(vocab,)` after the final token:
    /// [`CausalLm::ingest`], then the final norm and LM head on the last
    /// position.
    ///
    /// This is the fast path for prompt ingestion: one forward over the
    /// whole chunk instead of a per-token [`CausalLm::step`] loop, and the
    /// LM head is applied to the *last position only* — skipping the
    /// `(t-1)·d_model·vocab` logit rows a full forward would compute.
    /// Runs entirely under [`no_grad`], so decoding never builds backward
    /// closures regardless of the caller's scope.
    pub fn prefill(&self, tokens: &[u32], cache: &mut KvCache) -> Vec<f32> {
        let _span = chunk_span(tokens.len());
        no_grad(|| {
            let h = self.feed(tokens, cache);
            self.head(&h.narrow(1, tokens.len() - 1, 1)).to_vec()
        })
    }

    /// Feed `tokens` through the KV cache (batch 1) without the final norm
    /// and LM head: the cache afterwards is exactly what
    /// [`CausalLm::prefill`] leaves, but no logits are computed. For
    /// chunks whose next-token distribution is never read, such as the
    /// intermediate chunks of a split prefill.
    pub fn ingest(&self, tokens: &[u32], cache: &mut KvCache) {
        let _span = chunk_span(tokens.len());
        no_grad(|| {
            self.feed(tokens, cache);
        });
    }

    /// Run `tokens` through every block on the KV cache (batch 1), advance
    /// the cache position, and return the last block's output
    /// `(1, t, d_model)`. Callers hold the [`no_grad`] scope.
    fn feed(&self, tokens: &[u32], cache: &mut KvCache) -> Tensor {
        assert!(!tokens.is_empty(), "prefill needs at least one token");
        let t = tokens.len();
        assert!(
            cache.pos + t <= self.cfg.max_seq_len,
            "cache position {} + chunk {t} exceeds max_seq_len {}",
            cache.pos,
            self.cfg.max_seq_len
        );
        let mut h = self.embed.forward(tokens, 1, t);
        for (block, layer_cache) in self.blocks.iter().zip(&mut cache.layers) {
            h = block.forward(&h, &self.rope, cache.pos, Some(layer_cache));
        }
        cache.pos += t;
        h
    }

    /// Next-token cross-entropy over a batch.
    ///
    /// `labels[b][t]` is the target for the prediction made at position `t`;
    /// positions whose label equals `ignore` (typically `<pad>` = 0) are
    /// masked from the loss — this is how prompt tokens are excluded in SFT.
    ///
    /// Only supervised positions are computed: the blocks run up to the
    /// batch's last supervised position, which causal attention makes
    /// exact, and the final norm, LM head and cross-entropy see only the
    /// supervised rows. The loss and every gradient are bit-identical to
    /// cross-entropy over the full `(batch, time, vocab)` logits: the
    /// skipped rows would add only exact zeros to the same sums.
    pub fn sft_loss(
        &self,
        tokens: &[u32],
        labels: &[u32],
        batch: usize,
        time: usize,
        ignore: u32,
    ) -> Tensor {
        assert_eq!(tokens.len(), labels.len());
        assert_eq!(tokens.len(), batch * time, "tokens must fill (batch, time)");
        let live = |t: usize| (0..batch).any(|b| labels[b * time + t] != ignore);
        // A fully masked batch still runs one position: its zero loss
        // keeps a graph whose backward reaches every parameter.
        let run = (0..time).rev().find(|&t| live(t)).map_or(1, |t| t + 1);
        let mut ids = Vec::with_capacity(batch * run);
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for b in 0..batch {
            ids.extend_from_slice(&tokens[b * time..b * time + run]);
            for (t, &l) in labels[b * time..b * time + run].iter().enumerate() {
                if l != ignore {
                    rows.push(b * run + t);
                    targets.push(l as usize);
                }
            }
        }
        // Every gathered row is supervised, so none needs masking.
        let h = self.hidden(&ids, batch, run).index_select0(&rows);
        self.head(&h).cross_entropy_logits(&targets, None)
    }

    /// Sample a continuation of `prompt`. Greedy when `temperature == 0`.
    /// Stops at `eos`, after `max_new` tokens, or once the context is full
    /// (`max_seq_len` tokens fed). Returns only new tokens.
    pub fn generate(
        &self,
        prompt: &[u32],
        max_new: usize,
        temperature: f32,
        eos: u32,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let _span = zg_trace::span_arg("model.generate", max_new as i64);
        let _leak = GraphLeakGuard::new("CausalLm::generate");
        // The whole decode runs under no_grad — chunked prompt prefill,
        // then one cached step per sampled token.
        no_grad(|| {
            let mut cache = self.new_cache();
            let mut logits = self.prefill(prompt, &mut cache);
            let mut out = Vec::new();
            for _ in 0..max_new {
                let next = sample_logits(&logits, temperature, rng);
                if next == eos {
                    break;
                }
                out.push(next);
                // The budget spent or a full context ends the decode like
                // EOS does: `next`'s logits would never be sampled, and a
                // full context has no cache position to feed it through.
                if out.len() == max_new || cache.pos == self.cfg.max_seq_len {
                    break;
                }
                logits = self.step(next, &mut cache);
            }
            out
        })
    }

    /// Sum log-probability of `continuation` given `prompt` (teacher
    /// forcing, no sampling). Used to rank candidate answers and to derive
    /// the positive-class score for the KS metric.
    ///
    /// Thin wrapper over [`CausalLm::score_continuations`] — scoring one
    /// candidate is the single-element case of the prefix-reused path.
    pub fn score_continuation(&self, prompt: &[u32], continuation: &[u32]) -> f32 {
        self.score_continuations(prompt, &[continuation])[0]
    }

    /// Score many candidate continuations of one prompt, prefilling the
    /// KV cache over the prompt **once** and forking it per candidate.
    ///
    /// Each fork is a cheap per-layer `Rc` copy of the cached K/V
    /// buffers; only the continuation tokens are then teacher-forced
    /// through cached steps. Relative to a full-sequence forward per
    /// candidate ([`CausalLm::score_continuation_full`]) this drops the
    /// cost from
    /// `n_candidates · O((t_p + t_c)²)` to `O(t_p²) + n_candidates ·
    /// O(t_c)` attention work — and the log-softmax is computed row-wise
    /// on exactly the needed positions (`O(|cont|·V)`, not `O(t·V)`).
    pub fn score_continuations(&self, prompt: &[u32], continuations: &[&[u32]]) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let _span = zg_trace::span_arg("model.score", continuations.len() as i64);
        let _leak = GraphLeakGuard::new("CausalLm::score_continuations");
        let mut cache = self.new_cache();
        let prompt_logits = self.prefill(prompt, &mut cache);
        self.score_continuations_with_cache(&cache, &prompt_logits, continuations)
    }

    /// Score candidates against an already-prefilled prompt cache:
    /// `next_logits` must be the next-token logits after the cached
    /// prompt (what [`CausalLm::prefill`] returned). Lets one prefill
    /// serve answer generation *and* candidate scoring.
    pub fn score_continuations_with_cache(
        &self,
        cache: &KvCache,
        next_logits: &[f32],
        continuations: &[&[u32]],
    ) -> Vec<f32> {
        let _span = zg_trace::span_arg("model.score_cached", continuations.len() as i64);
        zg_trace::counter_add("model.continuations", continuations.len() as f64);
        let _leak = GraphLeakGuard::new("CausalLm::score_continuations_with_cache");
        no_grad(|| {
            continuations
                .iter()
                .map(|cont| {
                    assert!(!cont.is_empty(), "continuation must be non-empty");
                    let mut fork = cache.fork();
                    let mut row = next_logits.to_vec();
                    let mut total = 0.0f32;
                    for (i, &tok) in cont.iter().enumerate() {
                        total += log_prob_row(&row, tok as usize);
                        // The last token's successor distribution is never
                        // consumed — skip its forward step.
                        if i + 1 < cont.len() {
                            row = self.step(tok, &mut fork);
                        }
                    }
                    total
                })
                .collect()
        })
    }

    /// Reference implementation of [`CausalLm::score_continuation`]: one
    /// full forward over `prompt ++ continuation` with no KV reuse,
    /// reading log-probabilities only at the continuation positions. The
    /// oracle of the prefix-reuse regression tests; the inference
    /// benchmark times KV reuse against it on the same GEMM kernel.
    pub fn score_continuation_full(&self, prompt: &[u32], continuation: &[u32]) -> f32 {
        assert!(!prompt.is_empty() && !continuation.is_empty());
        let _leak = GraphLeakGuard::new("CausalLm::score_continuation_full");
        no_grad(|| {
            let mut seq = prompt.to_vec();
            seq.extend_from_slice(continuation);
            let t = seq.len();
            let logits = self.forward(&seq, 1, t);
            let lp = logits.data();
            let v = self.cfg.vocab_size;
            let mut total = 0.0f32;
            for (i, &tok) in continuation.iter().enumerate() {
                let pos = prompt.len() + i - 1; // logits at pos predict token pos+1
                total += log_prob_row(&lp[pos * v..(pos + 1) * v], tok as usize);
            }
            total
        })
    }

    /// All named parameters, including any attached LoRA adapters.
    pub fn params(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        out.extend(self.embed.params("embed"));
        for (i, b) in self.blocks.iter().enumerate() {
            out.extend(b.params(&format!("layers.{i}")));
        }
        out.extend(self.final_norm.params("final_norm"));
        out.extend(self.lm_head.params("lm_head"));
        out
    }

    /// Only the parameters that require gradients (respects LoRA freezing).
    pub fn trainable_params(&self) -> Vec<(String, Tensor)> {
        self.params()
            .into_iter()
            .filter(|(_, p)| p.requires_grad())
            .collect()
    }

    /// Snapshot all weights into a [`TensorStore`] checkpoint.
    pub fn checkpoint(&self) -> TensorStore {
        let mut store = TensorStore::new();
        for (name, p) in self.params() {
            store.insert(name, &p);
        }
        store
    }

    /// Restore weights from a checkpoint produced by [`CausalLm::checkpoint`].
    /// Unknown names in the store are ignored; missing names panic.
    pub fn restore(&self, store: &TensorStore) {
        for (name, p) in self.params() {
            let saved = store
                .get(&name)
                // INVARIANT: a checkpoint missing a model parameter is unrecoverable corruption.
                .unwrap_or_else(|| panic!("checkpoint missing parameter {name}"));
            assert_eq!(saved.dims(), p.dims(), "shape mismatch for {name}");
            p.set_data(&saved.data());
        }
    }
}

/// Trace a KV-cache chunk of `t` tokens. Single-token chunks are cached
/// decode steps; multi-token chunks are prompt ingestion. Spans only for
/// the latter — a span per decoded token would dominate the trace.
fn chunk_span(t: usize) -> Option<zg_trace::Span> {
    if t > 1 {
        zg_trace::counter_add("model.prefill_tokens", t as f64);
        Some(zg_trace::span_arg("model.prefill", t as i64))
    } else {
        zg_trace::counter_add("model.decode_steps", 1.0);
        None
    }
}

/// Log-probability of class `tok` under a single row of logits: the
/// max-shifted log-sum-exp, without materializing the row's log-softmax.
pub fn log_prob_row(logits: &[f32], tok: usize) -> f32 {
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let lse = m + logits.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
    logits[tok] - lse
}

/// Sample from logits. `temperature == 0` is argmax.
pub fn sample_logits(logits: &[f32], temperature: f32, rng: &mut impl Rng) -> u32 {
    if temperature <= 0.0 {
        return logits
            .iter()
            .enumerate()
            // INVARIANT: NaN logits are a caller bug; fail loudly rather than mis-rank.
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i as u32)
            // INVARIANT: callers never pass an empty logit row.
            .expect("non-empty logits");
    }
    // Softmax with temperature, then inverse-CDF sampling.
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits
        .iter()
        .map(|&l| ((l - m) / temperature).exp())
        .collect();
    let z: f32 = exps.iter().sum();
    let mut u: f32 = rng.gen::<f32>() * z;
    for (i, &e) in exps.iter().enumerate() {
        u -= e;
        if u <= 0.0 {
            return i as u32;
        }
    }
    (exps.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_lm() -> CausalLm {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cfg = ModelConfig::mistral_miniature(32);
        cfg.n_layers = 1;
        cfg.d_model = 16;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        CausalLm::new(cfg, &mut rng)
    }

    #[test]
    fn forward_logits_shape() {
        let lm = tiny_lm();
        let logits = lm.forward(&[1, 2, 3, 4, 5, 6], 2, 3);
        assert_eq!(logits.dims(), &[2, 3, 32]);
    }

    #[test]
    fn step_matches_forward() {
        let lm = tiny_lm();
        let seq = [1u32, 5, 9, 2];
        let full = lm.forward(&seq, 1, 4).to_vec();
        let mut cache = lm.new_cache();
        let mut last = Vec::new();
        for &t in &seq {
            last = lm.step(t, &mut cache);
        }
        let v = lm.cfg.vocab_size;
        for j in 0..v {
            assert!(
                (last[j] - full[3 * v + j]).abs() < 1e-3,
                "logit {j}: {} vs {}",
                last[j],
                full[3 * v + j]
            );
        }
    }

    #[test]
    fn sft_loss_masks_prompt() {
        let lm = tiny_lm();
        // All labels ignored -> loss computed over zero positions -> 0/1 = 0.
        let loss = lm.sft_loss(&[1, 2, 3], &[0, 0, 0], 1, 3, 0);
        assert_eq!(loss.item(), 0.0);
        // One live label -> positive loss.
        let loss = lm.sft_loss(&[1, 2, 3], &[0, 0, 7], 1, 3, 0);
        assert!(loss.item() > 0.0);
    }

    #[test]
    fn sft_loss_backward_reaches_params() {
        let lm = tiny_lm();
        let loss = lm.sft_loss(&[1, 2, 3, 4], &[2, 3, 4, 2], 1, 4, 0);
        loss.backward();
        let with_grad = lm
            .params()
            .iter()
            .filter(|(_, p)| p.grad().is_some())
            .count();
        assert!(with_grad > 5, "only {with_grad} params got grads");
    }

    #[test]
    fn generate_terminates_and_respects_eos() {
        let lm = tiny_lm();
        let mut rng = StdRng::seed_from_u64(3);
        let out = lm.generate(&[1, 2, 3], 8, 0.0, 2, &mut rng);
        assert!(out.len() <= 8);
        assert!(!out.contains(&2), "eos must not appear in output");
        // An eos the model cannot emit and a budget past the context: the
        // decode feeds tokens until the context is full, then emits the
        // token predicted at its last position and stops, instead of
        // panicking.
        let max = lm.cfg.max_seq_len;
        let out = lm.generate(&[1, 2, 3], max + 10, 0.0, u32::MAX, &mut rng);
        assert_eq!(out.len(), max - 3 + 1);
    }

    #[test]
    fn decode_spends_no_step_on_the_last_token() {
        let lm = tiny_lm();
        let mut rng = StdRng::seed_from_u64(3);
        // Reference: the decode that also feeds back its last token.
        let mut cache = lm.new_cache();
        let mut logits = lm.prefill(&[1, 2, 3], &mut cache);
        let mut expect = Vec::new();
        for _ in 0..6 {
            let next = sample_logits(&logits, 0.0, &mut rng);
            expect.push(next);
            logits = lm.step(next, &mut cache);
        }
        let tracer = zg_trace::Tracer::with_clock(zg_trace::tick_clock());
        let steps = |decode: &mut dyn FnMut() -> Vec<u32>| {
            let before = tracer.totals();
            let out = {
                let _g = tracer.install("decode");
                decode()
            };
            let steps = tracer.totals().delta(&before).counter("model.decode_steps");
            (out, steps)
        };
        let (out, n) = steps(&mut || lm.generate(&[1, 2, 3], 6, 0.0, u32::MAX, &mut rng));
        assert_eq!(out, expect);
        assert_eq!(n, 5.0, "6 tokens take 5 steps");
    }

    #[test]
    fn greedy_sampling_is_argmax() {
        let mut rng = StdRng::seed_from_u64(0);
        let logits = vec![0.1, 5.0, -3.0];
        assert_eq!(sample_logits(&logits, 0.0, &mut rng), 1);
    }

    #[test]
    fn temperature_sampling_covers_support() {
        let mut rng = StdRng::seed_from_u64(0);
        let logits = vec![1.0, 1.0];
        let mut seen = [false; 2];
        for _ in 0..50 {
            seen[sample_logits(&logits, 1.0, &mut rng) as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn score_continuation_is_log_prob() {
        let lm = tiny_lm();
        let s = lm.score_continuation(&[1, 2], &[3]);
        assert!(s <= 0.0, "log-prob must be <= 0");
        // Sum over full vocab of exp(score) == 1 at a single position.
        let total: f32 = (0..32)
            .map(|tok| lm.score_continuation(&[1, 2], &[tok]).exp())
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "total prob {total}");
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let lm = tiny_lm();
        let before = lm.forward(&[1, 2, 3], 1, 3).to_vec();
        let ckpt = lm.checkpoint();
        // Perturb all weights, then restore.
        for (_, p) in lm.params() {
            let d: Vec<f32> = p.data().iter().map(|v| v + 1.0).collect();
            p.set_data(&d);
        }
        let perturbed = lm.forward(&[1, 2, 3], 1, 3).to_vec();
        assert!(before
            .iter()
            .zip(&perturbed)
            .any(|(a, b)| (a - b).abs() > 1e-3));
        lm.restore(&ckpt);
        let after = lm.forward(&[1, 2, 3], 1, 3).to_vec();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn trainable_params_respects_freezing() {
        let lm = tiny_lm();
        let all = lm.params().len();
        assert_eq!(lm.trainable_params().len(), all);
        lm.embed.weight.set_requires_grad(false);
        assert_eq!(lm.trainable_params().len(), all - 1);
    }
}
