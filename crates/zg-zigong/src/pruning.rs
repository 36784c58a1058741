//! The data-pruning pipeline (paper §3.1–3.2): sequential agent-model
//! training with per-period checkpoints, TracSeq scoring, Top-K selection,
//! and the 70/30 hybrid mix — plus the LM-gradient variant for when the
//! gradient subspace should be the fine-tuned model's own.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use zg_data::{Dataset, Record};
use zg_influence::{
    agent_checkpoint_grads_with, hybrid_mix, influence_scores_with, lm_checkpoint_grads,
    lm_checkpoint_grads_with, select_top_k, AgentCheckpoint, AgentModel, CheckpointGrads,
    LmCheckpoint, MixConfig, ParallelConfig, TokenizedSample, TracConfig,
};
use zg_model::CausalLm;

/// A featureized behavior sample: `(numeric features, label, period)`.
pub type BehaviorSample = (Vec<f32>, bool, u32);

/// Train the agent model **chronologically** — one pass per time period,
/// checkpointing after each period so checkpoint `t_i` is literally the
/// model state after learning period `t_i`'s data. This is the alignment
/// that gives TracSeq's `γ^(T−t_i)` its intended meaning on sequential
/// financial data.
pub fn fit_agent_sequential(
    samples: &[BehaviorSample],
    lr: f32,
    l2: f32,
    passes_per_period: usize,
    seed: u64,
) -> (AgentModel, Vec<AgentCheckpoint>) {
    assert!(!samples.is_empty(), "no samples");
    let d = samples[0].0.len();
    assert!(
        samples.iter().all(|(x, _, _)| x.len() == d),
        "ragged features"
    );
    // Standardize over the full history.
    let n = samples.len() as f32;
    let mut mean = vec![0.0f32; d];
    for (x, _, _) in samples {
        for (m, &v) in mean.iter_mut().zip(x) {
            *m += v / n;
        }
    }
    let mut std = vec![0.0f32; d];
    for (x, _, _) in samples {
        for ((s, &v), m) in std.iter_mut().zip(x).zip(&mean) {
            *s += (v - m) * (v - m) / n;
        }
    }
    for s in &mut std {
        *s = s.sqrt().max(1e-6);
    }
    let mut model = AgentModel {
        weights: vec![0.0; d + 1],
        mean,
        std,
    };

    // INVARIANT: callers pass non-empty sample sets (documented precondition).
    let max_period = samples.iter().map(|(_, _, t)| *t).max().expect("non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checkpoints = Vec::new();
    for period in 0..=max_period {
        let mut idx: Vec<usize> = samples
            .iter()
            .enumerate()
            .filter(|(_, (_, _, t))| *t == period)
            .map(|(i, _)| i)
            .collect();
        for _ in 0..passes_per_period {
            idx.shuffle(&mut rng);
            for &i in &idx {
                let (x, y, _) = &samples[i];
                let xs = model.standardize(x);
                let g = AgentModel::sample_gradient(&model.weights, &xs, *y);
                for (w, gv) in model.weights.iter_mut().zip(&g) {
                    *w -= lr * (gv + l2 * *w);
                }
            }
        }
        checkpoints.push(AgentCheckpoint {
            weights: model.weights.clone(),
            eta: lr,
            time: period,
        });
    }
    (model, checkpoints)
}

/// TracSeq influence scores for behavior samples via the agent model:
/// sequential fit, per-period checkpoints, analytic gradients, Eq. 1 + 2.
///
/// Runs serially ([`ParallelConfig::serial`]): at the sizes `figure2`
/// and `ablations` score (roughly 600 to 1,100 train records), threads
/// cost more than they save — the `influence` bench's
/// `agent_tracseq_800train_40test` pair reads 1.29 ms serial
/// against 2.38 ms on all cores of a 2-vCPU host (medians). Scores are
/// bit-identical for any worker count; [`agent_tracseq_scores_with`]
/// takes one explicitly.
pub fn agent_tracseq_scores(
    train: &[BehaviorSample],
    test: &[(Vec<f32>, bool)],
    gamma: f32,
    decay_samples: bool,
    seed: u64,
) -> Vec<f32> {
    agent_tracseq_scores_with(
        train,
        test,
        gamma,
        decay_samples,
        seed,
        &ParallelConfig::serial(),
    )
}

/// [`agent_tracseq_scores`] with an explicit worker count. The
/// sequential SGD fit itself stays serial (it is inherently
/// order-dependent and cheap); gradient expansion and scoring fan out
/// across `par.workers`.
pub fn agent_tracseq_scores_with(
    train: &[BehaviorSample],
    test: &[(Vec<f32>, bool)],
    gamma: f32,
    decay_samples: bool,
    seed: u64,
    par: &ParallelConfig,
) -> Vec<f32> {
    let (model, ckpts) = fit_agent_sequential(train, 0.05, 1e-4, 2, seed);
    let train_xy: Vec<(Vec<f32>, bool)> = train.iter().map(|(x, y, _)| (x.clone(), *y)).collect();
    let grads = agent_checkpoint_grads_with(&model, &ckpts, &train_xy, test, par);
    let current_time = train.iter().map(|(_, _, t)| *t).max().unwrap_or(0);
    let times: Vec<u32> = train.iter().map(|(_, _, t)| *t).collect();
    let cfg = TracConfig {
        gamma,
        current_time,
        decay_samples,
    };
    influence_scores_with(&grads, &cfg, Some(&times), par)
}

/// Extract `(features, label, period)` from behavior dataset records.
pub fn behavior_samples(records: &[&Record]) -> Vec<BehaviorSample> {
    records
        .iter()
        .map(|r| {
            (
                r.numeric_features(),
                r.label,
                // INVARIANT: behavior records always carry `time: Some(..)`.
                r.time.expect("behavior records carry a period"),
            )
        })
        .collect()
}

/// LM-gradient TracSeq scores (the heavyweight path): replay stored SFT
/// checkpoints and score in the LoRA subspace.
pub fn lm_tracseq_scores(
    lm: &CausalLm,
    checkpoints: &[LmCheckpoint],
    train: &[TokenizedSample],
    train_times: &[u32],
    test: &[TokenizedSample],
    gamma: f32,
) -> Vec<f32> {
    let grads: Vec<CheckpointGrads> = lm_checkpoint_grads(lm, checkpoints, train, test);
    let current_time = train_times.iter().copied().max().unwrap_or(0);
    let cfg = TracConfig {
        gamma,
        current_time,
        decay_samples: false,
    };
    // Scoring may still fan out even though extraction used the borrowed
    // single-threaded model (`Tensor` is not `Send`).
    influence_scores_with(&grads, &cfg, Some(train_times), &ParallelConfig::auto())
}

/// [`lm_tracseq_scores`] through the parallel engine. Gradient extraction
/// is the dominant cost, and the autograd `Tensor` is not `Send`, so
/// callers supply `make_lm` — a factory producing a fresh model replica
/// (same architecture; weights are overwritten from each checkpoint) —
/// and every worker thread drives its own replica. Results are
/// bit-identical to [`lm_tracseq_scores`].
pub fn lm_tracseq_scores_with<F>(
    make_lm: F,
    checkpoints: &[LmCheckpoint],
    train: &[TokenizedSample],
    train_times: &[u32],
    test: &[TokenizedSample],
    gamma: f32,
    par: &ParallelConfig,
) -> Vec<f32>
where
    F: Fn() -> CausalLm + Sync,
{
    let grads: Vec<CheckpointGrads> =
        lm_checkpoint_grads_with(make_lm, checkpoints, train, test, par);
    let current_time = train_times.iter().copied().max().unwrap_or(0);
    let cfg = TracConfig {
        gamma,
        current_time,
        decay_samples: false,
    };
    influence_scores_with(&grads, &cfg, Some(train_times), par)
}

/// End-to-end selection for a behavior dataset: score train records with
/// agent-TracSeq, rank, and build the paper's 70/30 hybrid mix of
/// `total` sample indices (into `train`). Scores serially, for the
/// reason [`agent_tracseq_scores`] gives.
pub fn hybrid_selection(
    train: &[&Record],
    test: &[&Record],
    gamma: f32,
    total: usize,
    seed: u64,
) -> Vec<usize> {
    hybrid_selection_with(train, test, gamma, total, seed, &ParallelConfig::serial())
}

/// [`hybrid_selection`] with an explicit worker count. The random 70%
/// draw depends only on `seed`, and the scores do not depend on
/// `workers`, so selections are reproducible for any `workers`.
pub fn hybrid_selection_with(
    train: &[&Record],
    test: &[&Record],
    gamma: f32,
    total: usize,
    seed: u64,
    par: &ParallelConfig,
) -> Vec<usize> {
    let train_s = behavior_samples(train);
    let test_s: Vec<(Vec<f32>, bool)> = test
        .iter()
        .map(|r| (r.numeric_features(), r.label))
        .collect();
    let scores = agent_tracseq_scores_with(&train_s, &test_s, gamma, false, seed, par);
    let ranked = select_top_k(&scores, train.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    hybrid_mix(
        &MixConfig::paper_default(total),
        &ranked,
        train.len(),
        &mut rng,
    )
}

/// Split a behavior dataset by user into train/test user populations
/// (test users simulate incoming applicants at current time `T`).
pub fn split_behavior_by_user(
    ds: &Dataset,
    test_user_fraction: f64,
) -> (Vec<&Record>, Vec<&Record>) {
    let max_user = ds
        .records
        .iter()
        .filter_map(|r| r.user)
        .max()
        // INVARIANT: behavior datasets always populate `user`.
        .expect("behavior dataset has users");
    let stride = (1.0 / test_user_fraction).round().max(2.0) as usize;
    let is_test = |u: usize| u % stride == stride - 1;
    let max_period = ds.records.iter().filter_map(|r| r.time).max().unwrap_or(0);
    let train: Vec<&Record> = ds
        .records
        .iter()
        // INVARIANT: behavior datasets always populate `user`.
        .filter(|r| !is_test(r.user.expect("user")))
        .collect();
    // Test users are observed at the current period only.
    let test: Vec<&Record> = ds
        .records
        .iter()
        // INVARIANT: behavior datasets always populate `user`.
        .filter(|r| is_test(r.user.expect("user")) && r.time == Some(max_period))
        .collect();
    assert!(max_user > stride, "too few users for this split");
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zg_data::{behavior_sequences, BehaviorConfig};

    fn behavior_ds(n_users: usize, persistence: f32, seed: u64) -> Dataset {
        behavior_sequences(
            &BehaviorConfig {
                n_users,
                periods: 5,
                persistence,
                noise_std: 0.4,
                positive_rate: 0.3,
            },
            seed,
        )
    }

    #[test]
    fn sequential_fit_checkpoints_per_period() {
        let ds = behavior_ds(100, 0.6, 1);
        let (train, _) = split_behavior_by_user(&ds, 0.2);
        let samples = behavior_samples(&train);
        let (_, ckpts) = fit_agent_sequential(&samples, 0.05, 1e-4, 1, 2);
        assert_eq!(ckpts.len(), 5);
        let times: Vec<u32> = ckpts.iter().map(|c| c.time).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn split_by_user_no_leakage() {
        let ds = behavior_ds(100, 0.6, 3);
        let (train, test) = split_behavior_by_user(&ds, 0.2);
        let train_users: std::collections::HashSet<usize> =
            train.iter().map(|r| r.user.unwrap()).collect();
        for r in &test {
            assert!(!train_users.contains(&r.user.unwrap()), "user leakage");
            assert_eq!(r.time, Some(4), "test users observed at current time");
        }
    }

    #[test]
    fn tracseq_scores_cover_all_train() {
        let ds = behavior_ds(80, 0.6, 4);
        let (train, test) = split_behavior_by_user(&ds, 0.25);
        let train_s = behavior_samples(&train);
        let test_s: Vec<(Vec<f32>, bool)> = test
            .iter()
            .map(|r| (r.numeric_features(), r.label))
            .collect();
        let scores = agent_tracseq_scores(&train_s, &test_s, 0.9, false, 5);
        assert_eq!(scores.len(), train.len());
        assert!(scores.iter().all(|s| s.is_finite()));
        assert!(scores.iter().any(|&s| s != 0.0));
    }

    #[test]
    fn tracseq_prefers_recent_periods_under_drift() {
        // With strong drift, the mean influence of final-period samples
        // should exceed that of period-0 samples.
        let ds = behavior_ds(300, 0.4, 6);
        let (train, test) = split_behavior_by_user(&ds, 0.2);
        let train_s = behavior_samples(&train);
        let test_s: Vec<(Vec<f32>, bool)> = test
            .iter()
            .map(|r| (r.numeric_features(), r.label))
            .collect();
        let scores = agent_tracseq_scores(&train_s, &test_s, 0.7, false, 7);
        let mean_at = |p: u32| -> f32 {
            let v: Vec<f32> = train_s
                .iter()
                .zip(&scores)
                .filter(|((_, _, t), _)| *t == p)
                .map(|(_, &s)| s)
                .collect();
            v.iter().sum::<f32>() / v.len() as f32
        };
        assert!(
            mean_at(4) > mean_at(0),
            "recent {} vs old {}",
            mean_at(4),
            mean_at(0)
        );
    }

    #[test]
    fn hybrid_selection_size_and_bounds() {
        let ds = behavior_ds(100, 0.6, 8);
        let (train, test) = split_behavior_by_user(&ds, 0.2);
        let sel = hybrid_selection(&train, &test, 0.9, 200, 9);
        assert_eq!(sel.len(), 200);
        assert!(sel.iter().all(|&i| i < train.len()));
    }

    #[test]
    fn top_selected_beat_bottom_selected_for_downstream_fit() {
        // Train a fresh agent on the top-k vs bottom-k halves; the top half
        // should yield better test AUC — the Figure 2 effect, in miniature.
        let ds = behavior_ds(400, 0.5, 10);
        let (train, test) = split_behavior_by_user(&ds, 0.2);
        let train_s = behavior_samples(&train);
        let test_s: Vec<(Vec<f32>, bool)> = test
            .iter()
            .map(|r| (r.numeric_features(), r.label))
            .collect();
        let scores = agent_tracseq_scores(&train_s, &test_s, 0.8, false, 11);
        let k = train_s.len() / 2;
        let auc_of = |idx: &[usize]| -> f64 {
            let xs: Vec<Vec<f32>> = idx.iter().map(|&i| train_s[i].0.clone()).collect();
            let ys: Vec<bool> = idx.iter().map(|&i| train_s[i].1).collect();
            let mut rng = StdRng::seed_from_u64(12);
            let (m, _) = AgentModel::fit(&xs, &ys, &zg_influence::AgentConfig::default(), &mut rng);
            let probs: Vec<f64> = test_s
                .iter()
                .map(|(x, _)| m.predict_proba(x) as f64)
                .collect();
            let labels: Vec<bool> = test_s.iter().map(|(_, y)| *y).collect();
            zg_eval::roc_auc(&probs, &labels)
        };
        let top = zg_influence::select_top_k(&scores, k);
        let bottom = zg_influence::select_bottom_k(&scores, k);
        let (auc_top, auc_bottom) = (auc_of(&top), auc_of(&bottom));
        assert!(
            auc_top > auc_bottom,
            "high-influence subset must beat low-influence: {auc_top:.3} vs {auc_bottom:.3}"
        );
    }
}
