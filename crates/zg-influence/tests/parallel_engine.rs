//! Integration tests for the parallel influence engine: worker-count
//! determinism (bit-identical scores).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zg_influence::{
    influence_scores, influence_scores_with, CheckpointGrads, ParallelConfig, TracConfig,
};

/// Unstructured random gradients (noise floor for determinism checks).
fn synth_grads(
    seed: u64,
    n_ck: usize,
    n_train: usize,
    n_test: usize,
    p: usize,
) -> Vec<CheckpointGrads> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_ck)
        .map(|t| CheckpointGrads {
            eta: rng.gen_range(0.01..0.2),
            time: t as u32,
            train: (0..n_train)
                .map(|_| (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect(),
            test: (0..n_test)
                .map(|_| (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect(),
        })
        .collect()
}

#[test]
fn scores_bit_identical_across_worker_counts() {
    let cks = synth_grads(42, 4, 403, 17, 96);
    let cfg = TracConfig {
        gamma: 0.9,
        current_time: 3,
        decay_samples: false,
    };
    let serial = influence_scores(&cks, &cfg, None);
    for workers in [1usize, 2, 8] {
        let scores = influence_scores_with(
            &cks,
            &cfg,
            None,
            &ParallelConfig::serial().with_workers(workers),
        );
        // Bit-identical: exact Vec<f32> equality, no tolerance.
        assert_eq!(scores, serial, "workers={workers} diverged from serial");
    }
    // Auto (machine parallelism) is also exact.
    let auto = influence_scores_with(&cks, &cfg, None, &ParallelConfig::auto());
    assert_eq!(auto, serial);
}

#[test]
fn decayed_sample_scores_bit_identical_across_worker_counts() {
    let cks = synth_grads(7, 3, 211, 5, 32);
    let times: Vec<u32> = (0..211).map(|z| (z % 4) as u32).collect();
    let cfg = TracConfig {
        gamma: 0.8,
        current_time: 3,
        decay_samples: true,
    };
    let serial = influence_scores(&cks, &cfg, Some(&times));
    for workers in [2usize, 8] {
        let scores = influence_scores_with(
            &cks,
            &cfg,
            Some(&times),
            &ParallelConfig::serial().with_workers(workers),
        );
        assert_eq!(
            scores, serial,
            "workers={workers} diverged with sample decay"
        );
    }
}
