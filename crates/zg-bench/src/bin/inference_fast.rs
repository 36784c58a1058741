//! Inference fast-path benchmark: measures each layer of the speedup
//! stack — the SIMD GEMM kernel, KV prefix-reused continuation scoring,
//! chunked prefill decoding, and parallel benchmark evaluation — against
//! the historical implementations, and writes
//! `results/inference_fast.json`.
//!
//! Stages of the end-to-end comparison (a Table-2-style eval pass):
//!
//! 1. baseline: naive GEMM, full-forward continuation scoring,
//!    token-by-token prompt ingestion, serial items;
//! 2. +auto GEMM (SIMD above the naive crossover; same scoring path);
//! 3. +KV prefix reuse and chunked prefill (serial items);
//! 4. +parallel item evaluation (all cores).
//!
//! Exits non-zero if the perf gate fails: the SIMD kernel must clear a
//! minimum speedup over naive (2x at 256³ full, 1.2x at 128³ quick).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_bench::{quick_mode, write_result};
use zg_model::{CausalLm, ModelConfig};
use zg_tensor::{
    available_threads, gemm_naive, gemm_simd, set_gemm_kernel, simd_available, GemmKernel,
};
use zg_tokenizer::Special;
use zg_zigong::{
    eval_items, evaluate_classifier, evaluate_zigong, train_tokenizer, CreditClassifier, EvalItem,
    ZiGongModel,
};

/// Deterministic pseudo-random buffer (xorshift; no RNG state shared
/// with the model builders).
fn mat(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Median seconds per call, adaptively repeated to ~0.2s of wall-clock.
fn time_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.2 / once) as usize).clamp(1, 10_000);
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[1]
}

fn gemm_section(quick: bool) -> serde_json::Value {
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(64, 64, 64), (128, 128, 128)]
    } else {
        &[
            (64, 64, 64),
            (128, 128, 128),
            (256, 256, 256),
            (128, 768, 64),
        ]
    };
    let mut rows = Vec::new();
    for &(m, n, k) in shapes {
        let a = mat(1, m * k);
        let b = mat(2, k * n);
        let mut c = vec![0.0f32; m * n];
        let flops = 2.0 * (m * n * k) as f64;
        let t_naive = time_call(|| {
            c.iter_mut().for_each(|v| *v = 0.0);
            gemm_naive(false, false, m, n, k, &a, &b, &mut c);
        });
        let t_simd = time_call(|| {
            c.iter_mut().for_each(|v| *v = 0.0);
            gemm_simd(false, false, m, n, k, &a, &b, &mut c);
        });
        println!(
            "gemm {m}x{n}x{k}: naive {:.2} GF/s, simd {:.2} GF/s ({:.2}x)",
            flops / t_naive / 1e9,
            flops / t_simd / 1e9,
            t_naive / t_simd,
        );
        rows.push(serde_json::json!({
            "m": m, "n": n, "k": k,
            "naive_gflops": flops / t_naive / 1e9,
            "simd_gflops": flops / t_simd / 1e9,
            "simd_speedup": t_naive / t_simd,
        }));
    }
    serde_json::Value::Array(rows)
}

/// The benchmark model: the Table 2 miniature geometry with a BPE
/// tokenizer trained to the Table 2 vocabulary target, and random
/// weights (inference cost does not depend on training).
fn bench_model(examples: &[zg_instruct::InstructExample]) -> ZiGongModel {
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let tokenizer = train_tokenizer(examples, 768);
    let cfg = ModelConfig::mistral_miniature(tokenizer.vocab_size());
    let lm = CausalLm::new(cfg, &mut rng);
    ZiGongModel::new(lm, tokenizer, 128, "bench")
}

fn greedy(logits: &[f32]) -> u32 {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
        .map(|(i, _)| i as u32)
        .expect("non-empty logits")
}

/// Historical decode: one cached step per *prompt* token (no chunked
/// prefill), then greedy sampling.
fn answer_old(m: &ZiGongModel, prompt: &str, max_new: usize) -> String {
    let ids = m.prompt_ids(prompt, max_new);
    let mut cache = m.lm.new_cache();
    let mut logits = Vec::new();
    for &t in &ids {
        logits = m.lm.step(t, &mut cache);
    }
    let mut out = Vec::new();
    for _ in 0..max_new {
        let next = greedy(&logits);
        if next == Special::Eos.id() {
            break;
        }
        out.push(next);
        logits = m.lm.step(next, &mut cache);
    }
    m.tokenizer.decode(&out)
}

/// The historical `score_continuation`, verbatim: one full forward over
/// `prompt ++ continuation` per candidate, with the log-softmax
/// materialized over the entire `[t, vocab]` grid.
fn score_continuation_legacy(lm: &CausalLm, prompt: &[u32], continuation: &[u32]) -> f32 {
    zg_tensor::no_grad(|| {
        let mut seq = prompt.to_vec();
        seq.extend_from_slice(continuation);
        let t = seq.len();
        let logits = lm.forward(&seq, 1, t);
        let logp = logits.reshape([t, lm.cfg.vocab_size]).log_softmax();
        let lp = logp.data();
        let v = lm.cfg.vocab_size;
        let mut total = 0.0f32;
        for (i, &tok) in continuation.iter().enumerate() {
            let pos = prompt.len() + i - 1; // logits at pos predict token pos+1
            total += lp[pos * v + tok as usize];
        }
        total
    })
}

/// Historical positive-class score: one full forward + full log-softmax
/// per candidate, no KV reuse.
fn score_old(m: &ZiGongModel, item: &EvalItem) -> f64 {
    let prompt = m.prompt_ids(&item.example.prompt, 8);
    let neg = m
        .tokenizer
        .encode(&format!(" {}", item.example.candidates[0]));
    let pos = m
        .tokenizer
        .encode(&format!(" {}", item.example.candidates[1]));
    let lp_neg = score_continuation_legacy(&m.lm, &prompt, &neg) as f64;
    let lp_pos = score_continuation_legacy(&m.lm, &prompt, &pos) as f64;
    let a = lp_pos / pos.len() as f64;
    let b = lp_neg / neg.len() as f64;
    let mx = a.max(b);
    let (ea, eb) = ((a - mx).exp(), (b - mx).exp());
    ea / (ea + eb)
}

/// The pre-fast-path evaluation loop as a [`CreditClassifier`], so both
/// eras run through the identical metric code.
struct OldPath<'a>(&'a ZiGongModel);

impl CreditClassifier for OldPath<'_> {
    fn name(&self) -> String {
        format!("{} (old path)", self.0.display_name)
    }
    fn answer(&mut self, item: &EvalItem) -> String {
        answer_old(self.0, &item.example.prompt, 6)
    }
    fn score(&mut self, item: &EvalItem) -> f64 {
        score_old(self.0, item)
    }
}

fn decode_section(m: &ZiGongModel, quick: bool) -> serde_json::Value {
    let prompt: Vec<u32> = std::iter::once(Special::Bos.id())
        .chain((0..63).map(|i| 32 + (i * 5) % 200))
        .collect();
    let new_tokens = if quick { 16 } else { 48 };
    let mut rng = StdRng::seed_from_u64(3);
    // Old: step-per-prompt-token ingestion, naive GEMM.
    set_gemm_kernel(GemmKernel::Naive);
    let t_old = time_call(|| {
        let mut cache = m.lm.new_cache();
        let mut logits = Vec::new();
        for &t in &prompt {
            logits = m.lm.step(t, &mut cache);
        }
        for _ in 0..new_tokens {
            let next = greedy(&logits);
            logits = m.lm.step(next, &mut cache);
        }
    });
    // New: chunked prefill + auto GEMM.
    set_gemm_kernel(GemmKernel::Auto);
    let t_new = time_call(|| {
        let _ =
            m.lm.generate(&prompt, new_tokens, 0.0, Special::Eos.id(), &mut rng);
    });
    // f32 SIMD: the same decode pinned to the AVX2 kernel (falls back to
    // the portable path on non-x86 hosts).
    set_gemm_kernel(GemmKernel::Simd);
    let t_simd = time_call(|| {
        let _ =
            m.lm.generate(&prompt, new_tokens, 0.0, Special::Eos.id(), &mut rng);
    });
    set_gemm_kernel(GemmKernel::Auto);
    let total = (prompt.len() + new_tokens) as f64;
    println!(
        "decode ({} prompt + {new_tokens} new): old {:.1} tok/s, new {:.1} tok/s ({:.2}x), f32 simd {:.1} tok/s",
        prompt.len(),
        total / t_old,
        total / t_new,
        t_old / t_new,
        total / t_simd,
    );
    serde_json::json!({
        "prompt_tokens": prompt.len(),
        "new_tokens": new_tokens,
        "old_tok_per_s": total / t_old,
        "new_tok_per_s": total / t_new,
        "simd_tok_per_s": total / t_simd,
        "speedup": t_old / t_new,
    })
}

fn scoring_section(m: &ZiGongModel, items: &[EvalItem<'_>]) -> serde_json::Value {
    let sample = &items[0];
    set_gemm_kernel(GemmKernel::Naive);
    let t_old = time_call(|| {
        let _ = score_old(m, sample);
    });
    set_gemm_kernel(GemmKernel::Auto);
    let t_new = time_call(|| {
        let _ = m.positive_probability(&sample.example);
    });
    println!(
        "continuation scoring: old {:.2} ms/item, new {:.2} ms/item ({:.2}x)",
        t_old * 1e3,
        t_new * 1e3,
        t_old / t_new
    );
    serde_json::json!({
        "candidates": 2,
        "old_ms_per_item": t_old * 1e3,
        "new_ms_per_item": t_new * 1e3,
        "speedup": t_old / t_new,
    })
}

fn table2_eval_section(m: &ZiGongModel, items: &[EvalItem<'_>]) -> serde_json::Value {
    let n = items.len() as f64;
    let mut stages = Vec::new();
    let mut push = |name: &str, secs: f64, base: f64, acc: f64| {
        println!(
            "eval stage [{name}]: {secs:.2}s ({:.1} ms/item, {:.2}x vs baseline)",
            secs / n * 1e3,
            base / secs
        );
        stages.push(serde_json::json!({
            "name": name,
            "seconds": secs,
            "ms_per_item": secs / n * 1e3,
            "speedup_vs_baseline": base / secs,
            "acc": acc,
        }));
    };
    // Each stage runs twice; keep the faster pass (rejects scheduler
    // noise, which at miniature scale can exceed the stage deltas).
    let run = |f: &mut dyn FnMut() -> f64| {
        let a = {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        };
        let t = Instant::now();
        let acc = f();
        (t.elapsed().as_secs_f64().min(a), acc)
    };

    // Warm up allocators and instruction caches before the first timing.
    set_gemm_kernel(GemmKernel::Naive);
    let _ = evaluate_classifier(&mut OldPath(m), &items[..2.min(items.len())]);

    let (t_base, acc_base) = run(&mut || evaluate_classifier(&mut OldPath(m), items).eval.acc);
    push(
        "naive gemm + full-forward scoring (serial)",
        t_base,
        t_base,
        acc_base,
    );

    set_gemm_kernel(GemmKernel::Auto);
    let (t_auto, acc_auto) = run(&mut || evaluate_classifier(&mut OldPath(m), items).eval.acc);
    push(
        "auto gemm (simd on avx2) + full-forward scoring (serial)",
        t_auto,
        t_base,
        acc_auto,
    );

    let (t_kv, acc_kv) = run(&mut || evaluate_zigong(m, items, 1).eval.acc);
    push("auto gemm + kv prefix reuse (serial)", t_kv, t_base, acc_kv);

    let workers = available_threads();
    let (t_par, _) = run(&mut || evaluate_zigong(m, items, 0).eval.acc);
    let baseline = {
        set_gemm_kernel(GemmKernel::Naive);
        let r = evaluate_classifier(&mut OldPath(m), items);
        set_gemm_kernel(GemmKernel::Auto);
        r
    };
    let par = evaluate_zigong(m, items, 0);
    push(
        "auto gemm + kv prefix reuse + parallel eval",
        t_par,
        t_base,
        par.eval.acc,
    );

    let metrics_match = baseline.eval.acc == par.eval.acc
        && baseline.eval.f1 == par.eval.f1
        && baseline.eval.miss == par.eval.miss
        && (baseline.ks - par.ks).abs() < 1e-9
        && (baseline.auc - par.auc).abs() < 1e-9;
    if !metrics_match {
        println!("WARNING: fast-path metrics diverge from baseline");
    }
    serde_json::json!({
        "items": items.len(),
        "workers": workers,
        "stages": stages,
        "end_to_end_speedup": t_base / t_par,
        "metrics_match": metrics_match,
    })
}

fn main() {
    let quick = quick_mode();
    println!(
        "== inference fast-path benchmark ({} threads available) ==",
        available_threads()
    );

    let gemm = gemm_section(quick);

    let ds = zg_data::german(if quick { 16 } else { 120 }, 0x1F);
    let (train, test) = ds.split(0.5);
    let train_examples: Vec<_> = train
        .iter()
        .take(60)
        .map(|r| zg_instruct::render_classification(&ds, r))
        .collect();
    let model = bench_model(&train_examples);
    let capped: Vec<_> = test
        .iter()
        .copied()
        .take(if quick { 6 } else { 32 })
        .collect();
    let items = eval_items(&ds, &capped);
    let mean_prompt_tokens = items
        .iter()
        .map(|it| model.prompt_ids(&it.example.prompt, 8).len())
        .sum::<usize>() as f64
        / items.len() as f64;
    println!(
        "eval items: {} (mean prompt length {mean_prompt_tokens:.1} tokens)",
        items.len()
    );

    let decode = decode_section(&model, quick);
    let scoring = scoring_section(&model, &items);
    let table2 = table2_eval_section(&model, &items);
    set_gemm_kernel(GemmKernel::Auto);

    let gate_dim: usize = if quick { 128 } else { 256 };
    let simd_min_speedup: f64 = if quick { 1.2 } else { 2.0 };
    let gates_obj = serde_json::json!({
        "simd_gate_shape": gate_dim,
        "simd_min_speedup": simd_min_speedup,
    });
    let out = serde_json::to_string_pretty(&serde_json::json!({
        "host_threads": available_threads(),
        "simd_available": simd_available(),
        "gemm": gemm,
        "decode": decode,
        "scoring": scoring,
        "table2_eval": table2,
        "gates": gates_obj,
    }))
    .expect("benchmark serializes");
    write_result("inference_fast.json", &out);

    // ---- Perf gate (mirrors serve_load: exit non-zero). ----
    if simd_available() {
        let row = gemm
            .as_array()
            .and_then(|rows| {
                let dim = gate_dim as i64;
                rows.iter()
                    .find(|r| r["m"] == dim && r["n"] == dim && r["k"] == dim)
            })
            .expect("gate shape measured");
        let simd_speedup = row["simd_speedup"].as_f64().unwrap_or(0.0);
        if simd_speedup < simd_min_speedup {
            println!(
                "FAIL: simd gemm at {gate_dim}^3 is {simd_speedup:.2}x naive (need >= {simd_min_speedup:.1}x)"
            );
            std::process::exit(1);
        }
        println!("inference_fast gate passed: simd speedup");
    } else {
        println!("NOTE: no AVX2 on this host; SIMD perf gate skipped (portable fallback)");
    }
}
