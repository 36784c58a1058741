//! Temporal user-behavior sequences — the synthetic stand-in for the
//! paper's proprietary Behavior Card loan data, and the testbed for
//! TracSeq's central claim.
//!
//! Each user carries a latent risk state following an AR(1) process
//! `r_t = ρ·r_{t-1} + ε_t`. Observed behavior features at period `t` are
//! noisy projections of `r_t`; the label (default) is thresholded `r_T` at
//! the final period. With persistence `ρ < 1`, older periods carry
//! provably less information about the label — exactly the
//! time-decaying-influence structure TracSeq's `γ^(T−t)` factor models.
//! With `ρ = 1` the process is stationary and TracIn ≈ TracSeq, which is
//! what Ablation C checks.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::{Dataset, FeatureValue, Record, TaskKind};

/// Behavior-sequence generator parameters.
#[derive(Debug, Clone)]
pub struct BehaviorConfig {
    /// Number of users.
    pub n_users: usize,
    /// Time periods per user (`T`); period `T-1` is "current".
    pub periods: usize,
    /// AR(1) persistence ρ ∈ (0, 1]: 1 = stationary (no drift), lower =
    /// faster information decay.
    pub persistence: f32,
    /// Observation noise on behavior features.
    pub noise_std: f32,
    /// Target default rate.
    pub positive_rate: f64,
}

impl Default for BehaviorConfig {
    fn default() -> Self {
        BehaviorConfig {
            n_users: 300,
            periods: 6,
            persistence: 0.6,
            noise_std: 0.5,
            positive_rate: 0.25,
        }
    }
}

/// Behavior feature projections `(name, coefficient, offset, scale, round)`:
/// feature = offset + scale·(coef·r_t + noise).
const FEATURES: [(&str, f32, f32, f32, bool); 7] = [
    ("transaction count this period", -0.5, 30.0, 12.0, true),
    ("average transaction amount", -0.3, 85.0, 40.0, false),
    ("late payment count", 0.9, 1.0, 1.2, true),
    ("credit utilization percent", 0.8, 45.0, 22.0, true),
    ("new loan applications", 0.6, 0.8, 1.0, true),
    ("days since last activity", 0.4, 6.0, 5.0, true),
    ("account balance", -0.7, 2400.0, 1500.0, true),
];

/// Generate the behavior-sequence dataset. Records are ordered user-major,
/// period-minor; every record of a user carries the user's final-period
/// label (the operational Behavior Card target: "will this user default?").
pub fn behavior_sequences(cfg: &BehaviorConfig, seed: u64) -> Dataset {
    assert!(cfg.periods >= 2, "need at least 2 periods");
    assert!(
        (0.0..=1.0).contains(&cfg.persistence) && cfg.persistence > 0.0,
        "persistence must be in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Innovation scale keeps Var(r_t) ≈ 1 regardless of ρ.
    let innov = (1.0 - cfg.persistence * cfg.persistence).sqrt().max(1e-3);

    let mut records = Vec::with_capacity(cfg.n_users * cfg.periods);
    let mut final_risks = Vec::with_capacity(cfg.n_users);
    for user in 0..cfg.n_users {
        let mut r = zg_tensor::randn_sample(&mut rng);
        let mut user_records = Vec::with_capacity(cfg.periods);
        for t in 0..cfg.periods {
            if t > 0 {
                r = cfg.persistence * r + innov * zg_tensor::randn_sample(&mut rng);
            }
            let mut feats = Vec::with_capacity(FEATURES.len() + 1);
            feats.push(("period".to_string(), FeatureValue::Num(t as f32)));
            for &(name, coef, offset, scale, round) in &FEATURES {
                let raw = coef * r + cfg.noise_std * zg_tensor::randn_sample(&mut rng);
                let mut v = (offset + scale * raw).max(0.0);
                if round {
                    v = v.round();
                }
                feats.push((name.to_string(), FeatureValue::Num(v)));
            }
            user_records.push(Record {
                id: user * cfg.periods + t,
                features: feats,
                label: false, // filled once the threshold is known
                time: Some(t as u32),
                user: Some(user),
            });
        }
        final_risks.push(r + 0.3 * zg_tensor::randn_sample(&mut rng));
        records.extend(user_records);
    }
    // Threshold final risk to match the target default rate.
    let mut sorted = final_risks.clone();
    // INVARIANT: risk scores are finite by construction (bounded arithmetic on finite draws).
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite risks"));
    let cut = ((1.0 - cfg.positive_rate) * cfg.n_users as f64).floor() as usize;
    let threshold = sorted[cut.min(cfg.n_users - 1)];
    for rec in &mut records {
        // INVARIANT: every behavior record above is built with `user: Some(..)`.
        let user = rec.user.expect("behavior records carry a user");
        rec.label = final_risks[user] >= threshold;
    }
    Dataset {
        name: "Behavior Card".to_string(),
        task: TaskKind::BehaviorRisk,
        records,
        positive_name: "Yes".to_string(),
        negative_name: "No".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_ordering() {
        let cfg = BehaviorConfig {
            n_users: 20,
            periods: 4,
            ..Default::default()
        };
        let ds = behavior_sequences(&cfg, 1);
        assert_eq!(ds.records.len(), 80);
        assert_eq!(ds.records[0].user, Some(0));
        assert_eq!(ds.records[0].time, Some(0));
        assert_eq!(ds.records[7].user, Some(1));
        assert_eq!(ds.records[7].time, Some(3));
    }

    #[test]
    fn labels_consistent_within_user() {
        let ds = behavior_sequences(&BehaviorConfig::default(), 2);
        for chunk in ds.records.chunks(BehaviorConfig::default().periods) {
            let first = chunk[0].label;
            assert!(chunk.iter().all(|r| r.label == first));
        }
    }

    #[test]
    fn positive_rate_close_to_target() {
        let cfg = BehaviorConfig {
            n_users: 1000,
            ..Default::default()
        };
        let ds = behavior_sequences(&cfg, 3);
        assert!((ds.positive_rate() - cfg.positive_rate).abs() < 0.02);
    }

    #[test]
    fn recent_periods_more_predictive_when_drifting() {
        // Correlation between "late payment count" and the label should be
        // stronger at the final period than at period 0 when ρ < 1.
        let cfg = BehaviorConfig {
            n_users: 2000,
            periods: 6,
            persistence: 0.5,
            noise_std: 0.3,
            positive_rate: 0.3,
        };
        let ds = behavior_sequences(&cfg, 4);
        let corr_at = |t: u32| -> f64 {
            let recs: Vec<&Record> = ds.records.iter().filter(|r| r.time == Some(t)).collect();
            let xs: Vec<f64> = recs
                .iter()
                .map(|r| match &r.features[3].1 {
                    FeatureValue::Num(v) => *v as f64,
                    _ => unreachable!(),
                })
                .collect();
            let ys: Vec<f64> = recs.iter().map(|r| r.label as u8 as f64).collect();
            let mx = xs.iter().sum::<f64>() / xs.len() as f64;
            let my = ys.iter().sum::<f64>() / ys.len() as f64;
            let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
            let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
            cov / (vx.sqrt() * vy.sqrt())
        };
        let early = corr_at(0);
        let late = corr_at(5);
        assert!(
            late > early + 0.1,
            "late corr {late:.3} should exceed early {early:.3}"
        );
    }

    #[test]
    fn stationary_process_has_uniform_information() {
        let cfg = BehaviorConfig {
            n_users: 2000,
            periods: 5,
            persistence: 1.0,
            noise_std: 0.3,
            positive_rate: 0.3,
        };
        let ds = behavior_sequences(&cfg, 5);
        // Utilization-label correlation at first vs last period should be
        // similar when the latent state never moves.
        let corr_at = |t: u32| -> f64 {
            let recs: Vec<&Record> = ds.records.iter().filter(|r| r.time == Some(t)).collect();
            let xs: Vec<f64> = recs
                .iter()
                .map(|r| match &r.features[4].1 {
                    FeatureValue::Num(v) => *v as f64,
                    _ => unreachable!(),
                })
                .collect();
            let ys: Vec<f64> = recs.iter().map(|r| r.label as u8 as f64).collect();
            let mx = xs.iter().sum::<f64>() / xs.len() as f64;
            let my = ys.iter().sum::<f64>() / ys.len() as f64;
            let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
            let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
            cov / (vx.sqrt() * vy.sqrt())
        };
        assert!((corr_at(0) - corr_at(4)).abs() < 0.08);
    }

    #[test]
    fn deterministic_generation() {
        let cfg = BehaviorConfig::default();
        let a = behavior_sequences(&cfg, 9);
        let b = behavior_sequences(&cfg, 9);
        assert_eq!(a.records[17].feature_text(), b.records[17].feature_text());
    }
}
