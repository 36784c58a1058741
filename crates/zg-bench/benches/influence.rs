//! Influence-machinery benchmarks: TracSeq scoring throughput through
//! the parallel engine (serial / multi-worker), the agent pipeline, and
//! LM per-sample gradient extraction.
//!
//! Unlike the other benches this one has a custom `main`: after the
//! timed runs it derives speedup ratios and writes them (with the
//! machine's available parallelism, for context) to
//! `results/influence_parallel.json`.

use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use zg_data::{behavior_sequences, BehaviorConfig};
use zg_influence::{
    influence_scores_with, lm_sample_gradient, CheckpointGrads, ParallelConfig, TracConfig,
};
use zg_lora::{attach, LoraConfig};
use zg_model::{CausalLm, ModelConfig};
use zg_zigong::{agent_tracseq_scores_with, behavior_samples, split_behavior_by_user};

/// Seeded synthetic gradients sized like a LoRA-subspace problem:
/// 3 checkpoints × (600 train + 40 test) × p=4096.
fn synth_grads() -> Vec<CheckpointGrads> {
    let mut rng = StdRng::seed_from_u64(17);
    let (n_train, n_test, p) = (600usize, 40usize, 4096usize);
    (0..3)
        .map(|t| CheckpointGrads {
            eta: 0.1,
            time: t as u32,
            train: (0..n_train)
                .map(|_| (0..p).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect(),
            test: (0..n_test)
                .map(|_| (0..p).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect(),
        })
        .collect()
}

fn bench_scoring_engine(c: &mut Criterion) {
    let cks = synth_grads();
    let cfg = TracConfig {
        gamma: 0.9,
        current_time: 2,
        decay_samples: false,
    };
    c.bench_function("influence_exact_serial", |b| {
        b.iter(|| {
            black_box(influence_scores_with(
                &cks,
                &cfg,
                None,
                &ParallelConfig::serial(),
            ))
        })
    });
    c.bench_function("influence_exact_workers8", |b| {
        let par = ParallelConfig::serial().with_workers(8);
        b.iter(|| black_box(influence_scores_with(&cks, &cfg, None, &par)))
    });
}

fn bench_agent_tracseq(c: &mut Criterion) {
    let ds = behavior_sequences(
        &BehaviorConfig {
            n_users: 200,
            periods: 5,
            ..Default::default()
        },
        1,
    );
    let (train, test) = split_behavior_by_user(&ds, 0.2);
    let train_s = behavior_samples(&train);
    let test_s: Vec<(Vec<f32>, bool)> = test
        .iter()
        .map(|r| (r.numeric_features(), r.label))
        .collect();
    c.bench_function("agent_tracseq_800train_40test_serial", |b| {
        b.iter(|| {
            black_box(agent_tracseq_scores_with(
                &train_s,
                &test_s,
                0.9,
                false,
                2,
                &ParallelConfig::serial(),
            ))
        })
    });
    c.bench_function("agent_tracseq_800train_40test_auto", |b| {
        b.iter(|| {
            black_box(agent_tracseq_scores_with(
                &train_s,
                &test_s,
                0.9,
                false,
                2,
                &ParallelConfig::auto(),
            ))
        })
    });
}

fn bench_lm_gradient(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut cfg = ModelConfig::mistral_miniature(300);
    cfg.n_layers = 1;
    let mut lm = CausalLm::new(cfg, &mut rng);
    attach(&mut lm, &LoraConfig::default(), &mut rng);
    let sample = (
        (0..48).map(|i| (i % 250) as u32 + 4).collect::<Vec<u32>>(),
        (0..48)
            .map(|i| ((i + 1) % 250) as u32 + 4)
            .collect::<Vec<u32>>(),
    );
    c.bench_function("lm_sample_gradient_t48_lora", |b| {
        b.iter(|| black_box(lm_sample_gradient(&lm, &sample)))
    });
}

fn main() {
    let mut criterion = Criterion::default().sample_size(10);
    bench_scoring_engine(&mut criterion);
    bench_agent_tracseq(&mut criterion);
    bench_lm_gradient(&mut criterion);
    write_results(&criterion);
}

/// Derive speedups from the recorded medians and persist the evidence.
fn write_results(criterion: &Criterion) {
    let median = |name: &str| -> Option<f64> {
        criterion
            .records()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    };
    let serial = median("influence_exact_serial");
    let speedup_over_serial = |name: &str| -> serde_json::Value {
        match (serial, median(name)) {
            (Some(s), Some(v)) if v > 0.0 => json!(s / v),
            _ => json!(null),
        }
    };
    let rows: Vec<serde_json::Value> = criterion
        .records()
        .iter()
        .map(|r| {
            json!({
                "name": r.name.clone(),
                "min_ns": r.min_ns,
                "median_ns": r.median_ns,
                "mean_ns": r.mean_ns,
                "samples": r.samples as f64,
            })
        })
        .collect();
    if rows.is_empty() {
        return; // filtered run; nothing representative to persist
    }
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let out = json!({
        "bench": "influence_parallel",
        "available_parallelism": available as f64,
        "note": "speedups are measured wall-clock on this machine; thread \
                 speedup is bounded by available_parallelism",
        "speedup_exact_workers8_vs_serial": speedup_over_serial("influence_exact_workers8"),
        "rows": rows,
    });
    // cargo runs benches with the package dir as CWD; anchor the artifact
    // at the workspace root.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = format!("{dir}/influence_parallel.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&out).expect("serialize results"),
    )
    .expect("write results JSON");
    println!("wrote {path}");
}
