//! Inference fast-path benchmark: times each fast path of the Table-2
//! credit decision against the oracle the library keeps for its tests,
//! both sides through the routine that ships, and writes
//! `results/inference_fast.json`.
//!
//! 1. GEMM: `gemm_simd` vs `gemm_naive`;
//! 2. decode: `CausalLm::generate` under `GemmKernel::Auto` vs `Naive`;
//! 3. scoring: `score_continuations` (one prompt prefill, a KV fork per
//!    candidate) vs `score_continuation_full` per candidate, both on the
//!    auto kernel, so the ratio measures KV reuse alone;
//! 4. Table-2 eval: `evaluate_zigong` on the naive kernel and one worker
//!    (the oracle), on the auto kernel and one worker, and on the auto
//!    kernel and every core.
//!
//! Gates, reported once all have run (exit 1 if any fails): the SIMD
//! kernel must clear a minimum speedup over naive (2x at 256³ full,
//! 1.2x at 128³ quick), and Acc/F1/Miss/KS/AUC must carry the same bits
//! in every eval stage of every round.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_bench::{cell_bits, quick_mode, race, with_kernel, write_result, Gates, Window};
use zg_model::{CausalLm, ModelConfig};
use zg_tensor::{available_threads, gemm_naive, gemm_simd, simd_available, GemmKernel};
use zg_tokenizer::Special;
use zg_zigong::{
    eval_items, evaluate_zigong, train_tokenizer, CellResult, EvalItem, ZiGongModel, SCORE_RESERVE,
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

/// Seconds per call of each side: the best of three alternating batches
/// of about 0.2 s of wall time, each side's batch size set from one
/// untimed call.
fn per_call<const N: usize>(sides: [&mut dyn FnMut(); N]) -> [f64; N] {
    let calls = sides.map(|f| {
        let t = Instant::now();
        f();
        let n = ((0.2 / t.elapsed().as_secs_f64().max(1e-9)) as usize).clamp(1, 10_000);
        (f, n)
    });
    let mut batches = calls.map(|(f, n)| {
        (
            move |_: &mut Window| {
                for _ in 0..n {
                    f();
                }
            },
            n,
        )
    });
    let best = race(
        3,
        batches
            .each_mut()
            .map(|(batch, _)| batch as &mut dyn FnMut(&mut Window)),
        |_| {},
    );
    std::array::from_fn(|i| best[i].secs / batches[i].1 as f64)
}

/// GEMM throughput by kernel; also returns the SIMD speedup at the gate
/// shape `gate³`.
fn gemm_section(quick: bool, gate: usize) -> (serde_json::Value, f64) {
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
    let mut gate_speedup = 0.0;
    for &(m, n, k) in shapes {
        let a = mat(1, m * k);
        let b = mat(2, k * n);
        let (mut c_naive, mut c_simd) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let flops = 2.0 * (m * n * k) as f64;
        let [t_naive, t_simd] = per_call([
            &mut || {
                c_naive.fill(0.0);
                gemm_naive(false, false, m, n, k, &a, &b, &mut c_naive);
            },
            &mut || {
                c_simd.fill(0.0);
                gemm_simd(false, false, m, n, k, &a, &b, &mut c_simd);
            },
        ]);
        let speedup = t_naive / t_simd;
        if (m, n, k) == (gate, gate, gate) {
            gate_speedup = speedup;
        }
        println!(
            "gemm {m}x{n}x{k}: naive {:.2} GF/s, simd {:.2} GF/s ({speedup:.2}x)",
            flops / t_naive / 1e9,
            flops / t_simd / 1e9,
        );
        rows.push(serde_json::json!({
            "m": m, "n": n, "k": k,
            "naive_gflops": flops / t_naive / 1e9,
            "simd_gflops": flops / t_simd / 1e9,
            "simd_speedup": speedup,
        }));
    }
    (serde_json::Value::Array(rows), gate_speedup)
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

fn decode_section(m: &ZiGongModel, quick: bool) -> serde_json::Value {
    let prompt: Vec<u32> = std::iter::once(Special::Bos.id())
        .chain((0..63).map(|i| 32 + (i * 5) % 200))
        .collect();
    let max_new = if quick { 16 } else { 48 };
    // Greedy decoding never draws from the RNG.
    let decode = |kernel| {
        with_kernel(kernel, || {
            let mut rng = StdRng::seed_from_u64(3);
            m.lm.generate(&prompt, max_new, 0.0, Special::Eos.id(), &mut rng)
        })
    };
    let generated = decode(GemmKernel::Auto).len();
    let [t_naive, t_auto] = per_call([
        &mut || {
            black_box(decode(GemmKernel::Naive));
        },
        &mut || {
            black_box(decode(GemmKernel::Auto));
        },
    ]);
    let total = (prompt.len() + generated) as f64;
    println!(
        "decode ({} prompt + {generated} new): naive {:.1} tok/s, auto {:.1} tok/s ({:.2}x)",
        prompt.len(),
        total / t_naive,
        total / t_auto,
        t_naive / t_auto,
    );
    serde_json::json!({
        "prompt_tokens": prompt.len(),
        "new_tokens": generated,
        "naive_tok_per_s": total / t_naive,
        "auto_tok_per_s": total / t_auto,
        "speedup": t_naive / t_auto,
    })
}

fn scoring_section(m: &ZiGongModel, item: &EvalItem<'_>) -> serde_json::Value {
    // The tokens `ZiGongModel::positive_probability` scores, encoded once
    // outside the timing.
    let prompt = m.prompt_ids(&item.example.prompt, SCORE_RESERVE);
    let candidates: Vec<Vec<u32>> = item
        .example
        .candidates
        .iter()
        .map(|c| m.tokenizer.encode(&format!(" {c}")))
        .collect();
    let candidates: Vec<&[u32]> = candidates.iter().map(Vec::as_slice).collect();
    let [t_full, t_reuse] = with_kernel(GemmKernel::Auto, || {
        per_call([
            &mut || {
                for c in &candidates {
                    black_box(m.lm.score_continuation_full(&prompt, c));
                }
            },
            &mut || {
                black_box(m.lm.score_continuations(&prompt, &candidates));
            },
        ])
    });
    println!(
        "continuation scoring: full forward per candidate {:.2} ms/item, kv reuse {:.2} ms/item ({:.2}x)",
        t_full * 1e3,
        t_reuse * 1e3,
        t_full / t_reuse
    );
    serde_json::json!({
        "candidates": candidates.len(),
        "full_forward_ms_per_item": t_full * 1e3,
        "kv_reuse_ms_per_item": t_reuse * 1e3,
        "speedup": t_full / t_reuse,
    })
}

/// The Table-2 eval stages; also returns whether every stage of every
/// round produced the same metric bits.
fn table2_eval_section(m: &ZiGongModel, items: &[EvalItem<'_>]) -> (serde_json::Value, bool) {
    let workers = available_threads();
    let eval = |kernel, workers| with_kernel(kernel, || evaluate_zigong(m, items, workers));
    // Warm up allocators and instruction caches before the first timing.
    with_kernel(GemmKernel::Naive, || {
        evaluate_zigong(m, &items[..2.min(items.len())], 1)
    });
    let mut first: Option<CellResult> = None;
    let mut metrics_match = true;
    // Two rounds; each stage keeps its faster pass (scheduler noise at
    // miniature scale can exceed the stage deltas).
    let [oracle, auto, par] = race(
        2,
        [
            &mut |_| eval(GemmKernel::Naive, 1),
            &mut |_| eval(GemmKernel::Auto, 1),
            &mut |_| eval(GemmKernel::Auto, workers),
        ],
        |cells| {
            let want = cell_bits(first.get_or_insert(cells[0]));
            metrics_match &= cells.iter().all(|c| cell_bits(c) == want);
        },
    );
    let n = items.len() as f64;
    let stages: Vec<serde_json::Value> = [
        ("naive gemm, 1 worker (oracle)", 1, &oracle),
        ("auto gemm, 1 worker", 1, &auto),
        ("auto gemm, all workers", workers, &par),
    ]
    .into_iter()
    .map(|(name, workers, run)| {
        println!(
            "eval stage [{name}]: {:.2}s ({:.1} ms/item, {:.2}x vs oracle)",
            run.secs,
            run.secs / n * 1e3,
            oracle.secs / run.secs
        );
        serde_json::json!({
            "name": name,
            "workers": workers,
            "seconds": run.secs,
            "ms_per_item": run.secs / n * 1e3,
            "speedup_vs_oracle": oracle.secs / run.secs,
            "acc": run.out.eval.acc,
        })
    })
    .collect();
    let json = serde_json::json!({
        "items": items.len(),
        "workers": workers,
        "stages": stages,
        "end_to_end_speedup": oracle.secs / par.secs,
        "metrics_match": metrics_match,
    });
    (json, metrics_match)
}

fn main() {
    let quick = quick_mode();
    println!(
        "== inference fast-path benchmark ({} threads available) ==",
        available_threads()
    );

    let gate_dim: usize = if quick { 128 } else { 256 };
    let simd_min_speedup: f64 = if quick { 1.2 } else { 2.0 };
    let (gemm, simd_speedup) = gemm_section(quick, gate_dim);

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
    let scoring = scoring_section(&model, &items[0]);
    let (table2, metrics_match) = table2_eval_section(&model, &items);

    let out = serde_json::to_string_pretty(&serde_json::json!({
        "host_threads": available_threads(),
        "simd_available": simd_available(),
        "gemm": gemm,
        "decode": decode,
        "scoring": scoring,
        "table2_eval": table2,
        "gates": serde_json::json!({
            "simd_gate_shape": gate_dim,
            "simd_min_speedup": simd_min_speedup,
        }),
    }))
    .expect("benchmark serializes");
    write_result("inference_fast.json", &out);

    let mut gates = Gates::default();
    if simd_available() {
        gates.check(
            "simd speedup",
            simd_speedup >= simd_min_speedup,
            format!(
                "simd gemm at {gate_dim}^3 is {simd_speedup:.2}x naive (need >= {simd_min_speedup:.1}x)"
            ),
        );
    } else {
        println!("NOTE: no AVX2 on this host; SIMD perf gate skipped (portable fallback)");
    }
    gates.check(
        "metrics match",
        metrics_match,
        "Acc/F1/Miss/KS/AUC bits differ between eval stages".into(),
    );
    gates.finish("inference_fast");
}
