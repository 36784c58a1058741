//! Observation is behaviorally free: tracing must never change what the
//! pipelines compute, and the traces themselves must be deterministic.
//!
//! - Training, evaluation, and influence scoring produce **bit-identical**
//!   outputs (exact f64 widening, no tolerances) with tracing off vs on.
//! - A serial run under the deterministic tick clock produces
//!   **byte-identical** trace JSONL across repeated runs.
//! - A parallel run under a clockless tracer (all timestamps zero, pure
//!   structure) produces byte-identical trace JSONL across repeated runs
//!   however the worker threads race, and per-span counts are invariant
//!   to the worker count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_influence::{influence_scores_with, CheckpointGrads, ParallelConfig, TracConfig};
use zg_instruct::InstructExample;
use zg_lora::{attach, LoraConfig};
use zg_model::{CausalLm, ModelConfig};
use zg_tokenizer::BpeTokenizer;
use zg_zigong::{
    eval_items, evaluate_zigong, tokenize_all, train_sft, train_tokenizer, TrainConfig, TrainOrder,
    ZiGongModel,
};

fn toy_examples(n: usize) -> Vec<InstructExample> {
    (0..n)
        .map(|i| {
            let positive = i % 2 == 0;
            InstructExample {
                prompt: format!(
                    "risk {}\nQuestion: default? Answer:",
                    if positive { "high" } else { "low" }
                ),
                answer: if positive { "Yes" } else { "No" }.to_string(),
                candidates: vec!["No".into(), "Yes".into()],
                dataset: "toy".into(),
                record_id: i,
                label: Some(positive),
                time: Some((i % 5) as u32),
                user: Some(i),
            }
        })
        .collect()
}

fn toy_lm(vocab: usize, seed: u64) -> CausalLm {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = ModelConfig::mistral_miniature(vocab);
    cfg.n_layers = 1;
    cfg.d_model = 32;
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2;
    cfg.d_ff = 64;
    let mut lm = CausalLm::new(cfg, &mut rng);
    attach(&mut lm, &LoraConfig::default(), &mut rng);
    lm
}

fn train_cfg(workers: usize) -> TrainConfig {
    TrainConfig {
        max_lr: 5e-3,
        min_lr: 5e-4,
        batch_size: 8,
        grad_accum: 2,
        epochs: 1,
        warmup_steps: 2,
        clip_norm: 1.0,
        weight_decay: 0.0,
        max_seq_len: 64,
        checkpoint_every: 2,
        pretrain_epochs: 0,
        pretrain_lr: 0.0,
        train_workers: workers,
    }
}

/// Losses (widened exactly to f64) and final trainable weights of one run.
fn train_outputs(
    samples: &[zg_zigong::Sample],
    vocab: usize,
    workers: usize,
) -> (Vec<f64>, Vec<Vec<f32>>) {
    let lm = toy_lm(vocab, 5);
    let report = train_sft(&lm, samples, &train_cfg(workers), TrainOrder::Shuffled, 9);
    let losses = report.losses.iter().map(|&l| l as f64).collect();
    let weights = lm
        .trainable_params()
        .into_iter()
        .map(|(_, p)| p.data().to_vec())
        .collect();
    (losses, weights)
}

#[test]
fn training_is_bitwise_invariant_to_tracing() {
    let examples = toy_examples(16);
    let tok = train_tokenizer(&examples, 300);
    let samples = tokenize_all(&tok, &examples, 64);
    for workers in [1usize, 2] {
        let off = train_outputs(&samples, tok.vocab_size(), workers);
        let tracer = zg_trace::Tracer::with_clock(zg_trace::tick_clock());
        let on = {
            let _root = tracer.install("run");
            train_outputs(&samples, tok.vocab_size(), workers)
        };
        assert_eq!(
            off.0, on.0,
            "losses changed under tracing ({workers} workers)"
        );
        assert_eq!(
            off.1, on.1,
            "weights changed under tracing ({workers} workers)"
        );
        assert!(
            !tracer.finish().streams.is_empty(),
            "the traced run must actually have recorded a trace"
        );
    }
}

fn tiny_zigong() -> ZiGongModel {
    let mut rng = StdRng::seed_from_u64(1);
    // Match the LM vocab to the tokenizer so every greedily sampled id
    // stays decodable even from the untrained model.
    let mut cfg = ModelConfig::mistral_miniature(BpeTokenizer::byte_level().vocab_size());
    cfg.n_layers = 1;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_kv_heads = 1;
    cfg.d_ff = 32;
    let lm = CausalLm::new(cfg, &mut rng);
    ZiGongModel::new(lm, BpeTokenizer::byte_level(), 64, "tiny")
}

#[test]
fn evaluation_is_bitwise_invariant_to_tracing() {
    let m = tiny_zigong();
    let ds = zg_data::german(40, 8);
    let (_, test) = ds.split(0.3);
    let items = eval_items(&ds, &test);
    let off = evaluate_zigong(&m, &items, 2);
    let tracer = zg_trace::Tracer::with_clock(zg_trace::tick_clock());
    let on = {
        let _root = tracer.install("run");
        evaluate_zigong(&m, &items, 2)
    };
    assert_eq!(off.eval.acc, on.eval.acc);
    assert_eq!(off.eval.f1, on.eval.f1);
    assert_eq!(off.eval.miss, on.eval.miss);
    assert_eq!(off.ks, on.ks);
    assert_eq!(off.auc, on.auc);
    let trace = tracer.finish();
    assert_eq!(
        trace.counters()["eval.items"],
        items.len() as f64,
        "every item must be counted exactly once across worker streams"
    );
}

fn toy_checkpoints() -> Vec<CheckpointGrads> {
    let mut rng = StdRng::seed_from_u64(3);
    (0..3u32)
        .map(|t| {
            let mut vec = |n: usize| -> Vec<Vec<f32>> {
                (0..n)
                    .map(|_| {
                        (0..24)
                            .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
                            .collect()
                    })
                    .collect()
            };
            CheckpointGrads {
                eta: 0.1,
                time: t,
                train: vec(10),
                test: vec(4),
            }
        })
        .collect()
}

#[test]
fn influence_scores_bitwise_invariant_to_tracing() {
    let checkpoints = toy_checkpoints();
    let cfg = TracConfig::default();
    let par = ParallelConfig { workers: 2 };
    let off = influence_scores_with(&checkpoints, &cfg, None, &par);
    let tracer = zg_trace::Tracer::with_clock(zg_trace::tick_clock());
    let on = {
        let _root = tracer.install("run");
        influence_scores_with(&checkpoints, &cfg, None, &par)
    };
    assert_eq!(off, on, "influence scores changed under tracing");
    let trace = tracer.finish();
    assert!(trace.span_totals().contains_key("influence.scores"));
}

#[test]
fn serial_training_trace_is_byte_identical_across_runs() {
    let examples = toy_examples(16);
    let tok = train_tokenizer(&examples, 300);
    let samples = tokenize_all(&tok, &examples, 64);
    let run = || {
        // Fresh tick clock per run: timestamps depend only on the event
        // sequence, so a repeated run must reproduce the trace byte for
        // byte. The buffer pool is cleared so the second run starts as
        // cold as the first (pool.hits is part of the trace).
        zg_tensor::clear_pool();
        let tracer = zg_trace::Tracer::with_clock(zg_trace::tick_clock());
        {
            let _root = tracer.install("run");
            let lm = toy_lm(tok.vocab_size(), 5);
            train_sft(&lm, &samples, &train_cfg(1), TrainOrder::Shuffled, 9);
        }
        tracer.finish().to_jsonl()
    };
    let a = run();
    assert_eq!(a, run(), "serial trace must be reproducible");
    // And it parses back losslessly.
    let trace = zg_trace::Trace::from_jsonl(&a).expect("roundtrip");
    assert_eq!(trace.to_jsonl(), a);
}

#[test]
fn parallel_training_trace_is_byte_identical_across_runs() {
    let examples = toy_examples(16);
    let tok = train_tokenizer(&examples, 300);
    let samples = tokenize_all(&tok, &examples, 64);
    let run = |workers: usize| {
        // Clockless tracer: all timestamps are zero, so the bytes pin the
        // pure structure (stream order, span nesting, counters) — which
        // must not depend on how the worker threads race. Clearing the
        // main-thread pool keeps pool.hits identical across runs.
        zg_tensor::clear_pool();
        let tracer = zg_trace::Tracer::new();
        {
            let _root = tracer.install("run");
            let lm = toy_lm(tok.vocab_size(), 5);
            train_sft(&lm, &samples, &train_cfg(workers), TrainOrder::Shuffled, 9);
        }
        tracer.finish()
    };
    let a = run(3).to_jsonl();
    assert_eq!(
        a,
        run(3).to_jsonl(),
        "parallel trace structure must be scheduling-independent"
    );
    // Phase span counts are invariant to the worker count.
    let forward = |w: usize| run(w).span_totals()["train.forward"].count;
    let base = forward(1);
    assert!(base > 0);
    assert_eq!(forward(2), base);
    assert_eq!(forward(3), base);
}
