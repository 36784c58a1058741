//! TracInCP (Pruthi et al. 2020) and the paper's TracSeq variant (Eq. 1).
//!
//! TracInCP estimates the influence of training sample `z` on test sample
//! `z'` as `Σ_i η_i · ⟨∇ℓ(w_{t_i}, z), ∇ℓ(w_{t_i}, z')⟩` over stored
//! checkpoints `w_{t_i}` with step sizes `η_i`.
//!
//! TracSeq inserts a **time decay factor** `γ^{T − t_i}` (γ ∈ (0, 1]) so
//! checkpoints further from the current time `T` contribute less:
//!
//! ```text
//! TracSeq(z_t, z'_T) = Σ_i γ^(T − t_i) · η_i · ∇ℓ(w_{t_i}, z_t)·∇ℓ(w_{t_i}, z'_T)
//! ```
//!
//! With sequential behavior data trained in time order, checkpoint `t_i`
//! aligns with the data period being trained, so the decay concentrates
//! influence mass on recent behavior — "more recent samples receive higher
//! weights" (paper §3.1). An optional `decay_samples` switch additionally
//! applies `γ^(T − t(z))` to each training sample's own period, the
//! strictest reading of that sentence; γ = 1 in both places recovers
//! vanilla TracInCP exactly.

use serde::{Deserialize, Serialize};

/// Gradients captured at one stored checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointGrads {
    /// Step size η_i used around this checkpoint.
    pub eta: f32,
    /// Checkpoint time index t_i.
    pub time: u32,
    /// Per-training-sample gradient vectors `[n_train][p]`.
    pub train: Vec<Vec<f32>>,
    /// Per-test-sample gradient vectors `[n_test][p]`.
    pub test: Vec<Vec<f32>>,
}

impl CheckpointGrads {
    pub(crate) fn validate(&self) {
        let p = self
            .train
            .first()
            .or_else(|| self.test.first())
            .map_or(0, Vec::len);
        assert!(
            self.train.iter().all(|g| g.len() == p) && self.test.iter().all(|g| g.len() == p),
            "inconsistent gradient dimensions at checkpoint t={}",
            self.time
        );
    }
}

/// TracSeq configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracConfig {
    /// Time decay γ ∈ (0, 1]. γ = 1 is vanilla TracInCP weighting.
    pub gamma: f32,
    /// Current time `T` in Eq. 1.
    pub current_time: u32,
    /// Additionally decay each training sample by its own period age
    /// `γ^(T − t(z))` (requires sample times).
    pub decay_samples: bool,
}

impl Default for TracConfig {
    fn default() -> Self {
        TracConfig {
            gamma: 0.9,
            current_time: 0,
            decay_samples: false,
        }
    }
}

impl TracConfig {
    /// Vanilla TracInCP: γ = 1, no sample decay.
    pub fn tracin() -> Self {
        TracConfig {
            gamma: 1.0,
            current_time: 0,
            decay_samples: false,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(
            self.gamma > 0.0 && self.gamma <= 1.0,
            "gamma must lie in (0, 1], got {}",
            self.gamma
        );
    }
}

pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// The checkpoint decay factor `γ^(T − t_i)` from Eq. 1.
pub(crate) fn checkpoint_weight(cfg: &TracConfig, ck_time: u32) -> f32 {
    cfg.gamma
        .powi(cfg.current_time.saturating_sub(ck_time) as i32)
}

/// Mean test gradient of one checkpoint — the trick that turns
/// `n_train × n_test` dots into `n_train`: `Σ_test ⟨g, g'⟩ / n = ⟨g, mean g'⟩`.
pub(crate) fn mean_test_gradient(ck: &CheckpointGrads) -> Vec<f32> {
    let p = ck.test[0].len();
    let mut mean = vec![0.0f32; p];
    for g in &ck.test {
        for (m, &v) in mean.iter_mut().zip(g) {
            *m += v;
        }
    }
    let inv = 1.0 / ck.test.len() as f32;
    for m in &mut mean {
        *m *= inv;
    }
    mean
}

/// Per-training-sample influence scores, averaged over the test set
/// (the selection criterion behind Eq. 2).
///
/// `sample_times[z]` is used only when `cfg.decay_samples` is set; pass
/// `None` for non-sequential data.
///
/// This is the serial reference path — exactly
/// [`influence_scores_with`](crate::influence_scores_with) at
/// `ParallelConfig::serial()`; the parallel engine is bit-identical for
/// every worker count.
pub fn influence_scores(
    checkpoints: &[CheckpointGrads],
    cfg: &TracConfig,
    sample_times: Option<&[u32]>,
) -> Vec<f32> {
    crate::parallel::influence_scores_with(
        checkpoints,
        cfg,
        sample_times,
        &crate::parallel::ParallelConfig::serial(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(eta: f32, time: u32, train: Vec<Vec<f32>>, test: Vec<Vec<f32>>) -> CheckpointGrads {
        CheckpointGrads {
            eta,
            time,
            train,
            test,
        }
    }

    #[test]
    fn single_checkpoint_is_scaled_dot() {
        let cks = vec![ck(
            0.1,
            0,
            vec![vec![1.0, 2.0], vec![0.0, 1.0]],
            vec![vec![3.0, 4.0]],
        )];
        let scores = influence_scores(&cks, &TracConfig::tracin(), None);
        assert!((scores[0] - 0.1 * 11.0).abs() < 1e-6);
        assert!((scores[1] - 0.1 * 4.0).abs() < 1e-6);
    }

    #[test]
    fn gamma_one_recovers_tracin() {
        let cks = vec![
            ck(0.1, 0, vec![vec![1.0]], vec![vec![1.0]]),
            ck(0.2, 5, vec![vec![2.0]], vec![vec![1.0]]),
        ];
        let seq = TracConfig {
            gamma: 1.0,
            current_time: 5,
            decay_samples: false,
        };
        let plain = TracConfig::tracin();
        assert_eq!(
            influence_scores(&cks, &seq, None),
            influence_scores(&cks, &plain, None)
        );
    }

    #[test]
    fn decay_downweights_old_checkpoints() {
        let cks = vec![
            ck(0.1, 0, vec![vec![1.0]], vec![vec![1.0]]),  // old
            ck(0.1, 10, vec![vec![1.0]], vec![vec![1.0]]), // current
        ];
        let cfg = TracConfig {
            gamma: 0.5,
            current_time: 10,
            decay_samples: false,
        };
        let v = influence_scores(&cks, &cfg, None)[0];
        // old contributes 0.5^10 * 0.1, current contributes 0.1.
        let expect = 0.1 * (1.0 + 0.5f32.powi(10));
        assert!((v - expect).abs() < 1e-7);
    }

    #[test]
    fn scores_average_over_test_set() {
        let cks = vec![ck(
            1.0,
            0,
            vec![vec![1.0, 0.0]],
            vec![vec![2.0, 0.0], vec![4.0, 0.0]],
        )];
        let scores = influence_scores(&cks, &TracConfig::tracin(), None);
        assert!((scores[0] - 3.0).abs() < 1e-6); // mean of 2 and 4
    }

    #[test]
    fn scores_match_pairwise_mean() {
        let cks = vec![ck(
            0.3,
            2,
            vec![vec![1.0, -1.0], vec![0.5, 2.0]],
            vec![vec![1.0, 1.0], vec![-2.0, 0.5]],
        )];
        let cfg = TracConfig {
            gamma: 0.8,
            current_time: 4,
            decay_samples: false,
        };
        // Eq. 1 for one (train, test) pair, straight from its definition.
        let pair = |z: usize, t: usize| -> f32 {
            cks.iter()
                .map(|ck| {
                    let decay = cfg.gamma.powi((cfg.current_time - ck.time) as i32);
                    decay * ck.eta * dot(&ck.train[z], &ck.test[t])
                })
                .sum()
        };
        let scores = influence_scores(&cks, &cfg, None);
        for (z, &score) in scores.iter().enumerate() {
            let mean_pair = (pair(z, 0) + pair(z, 1)) / 2.0;
            assert!((score - mean_pair).abs() < 1e-6);
        }
    }

    #[test]
    fn sample_decay_downweights_old_samples() {
        let cks = vec![ck(1.0, 3, vec![vec![1.0], vec![1.0]], vec![vec![1.0]])];
        let cfg = TracConfig {
            gamma: 0.5,
            current_time: 3,
            decay_samples: true,
        };
        let scores = influence_scores(&cks, &cfg, Some(&[0, 3]));
        assert!(
            scores[1] > scores[0],
            "recent sample outranks old: {scores:?}"
        );
        assert!((scores[0] - 0.125).abs() < 1e-6); // 0.5^3
        assert!((scores[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negative_influence_possible() {
        // Opposing gradients: harmful sample gets a negative score.
        let cks = vec![ck(1.0, 0, vec![vec![1.0]], vec![vec![-1.0]])];
        let scores = influence_scores(&cks, &TracConfig::tracin(), None);
        assert!(scores[0] < 0.0);
    }

    #[test]
    #[should_panic(expected = "gamma must lie in")]
    fn invalid_gamma_panics() {
        let cfg = TracConfig {
            gamma: 0.0,
            current_time: 0,
            decay_samples: false,
        };
        influence_scores(&[], &cfg, None);
    }

    #[test]
    #[should_panic(expected = "requires sample_times")]
    fn sample_decay_without_times_panics() {
        let cks = vec![ck(1.0, 0, vec![vec![1.0]], vec![vec![1.0]])];
        let cfg = TracConfig {
            gamma: 0.9,
            current_time: 1,
            decay_samples: true,
        };
        influence_scores(&cks, &cfg, None);
    }
}
