//! Calibrated replay of external Table 2 baselines.
//!
//! The paper compares against ChatGPT, GPT-4, Bloomz, Vicuna, Llama 1/2,
//! Llama2-chat, FinMA, and CALM — closed or GPU-scale models we cannot
//! rerun. To still regenerate the full table, each external column is
//! replayed as a stochastic responder calibrated to its *published*
//! operating point `(Acc, F1, Miss)`: we solve for the per-class
//! correctness rates (TPR, TNR) that reproduce those numbers under the
//! dataset's class prior, then answer accordingly. Rows are clearly
//! labelled `replay` in the harness output; only ZiGong and the ablation
//! columns are measured end-to-end. See DESIGN.md §2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::evaluator::{CreditClassifier, EvalItem};

/// Published operating point of an external model on one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Reported accuracy.
    pub acc: f64,
    /// Reported F1 (positive class).
    pub f1: f64,
    /// Reported miss rate.
    pub miss: f64,
}

/// Solved response behavior: probability of answering correctly per class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// P(answer positive | label positive), among non-missed answers.
    pub tpr: f64,
    /// P(answer negative | label negative), among non-missed answers.
    pub tnr: f64,
}

/// Predicted metrics for a (tpr, tnr) pair under `prior` positives and a
/// `miss` rate, with misses scored as wrong/negative (the harness rule).
fn predicted_metrics(tpr: f64, tnr: f64, prior: f64, miss: f64) -> (f64, f64) {
    let live = 1.0 - miss;
    let acc = live * (prior * tpr + (1.0 - prior) * tnr);
    let tp = live * prior * tpr;
    let fp = live * (1.0 - prior) * (1.0 - tnr);
    let fn_ = prior * (miss + live * (1.0 - tpr));
    let f1 = if tp == 0.0 {
        0.0
    } else {
        2.0 * tp / (2.0 * tp + fp + fn_)
    };
    (acc, f1)
}

/// Solve for (TPR, TNR) reproducing the operating point under `prior`.
/// Grid search — the objective is cheap and the grid is exact enough
/// (±0.002) for table regeneration.
pub fn calibrate(op: &OperatingPoint, prior: f64) -> Calibration {
    assert!((0.0..=1.0).contains(&prior), "prior out of range");
    let mut best = Calibration { tpr: 0.5, tnr: 0.5 };
    let mut best_err = f64::INFINITY;
    let steps = 200;
    for i in 0..=steps {
        let tpr = i as f64 / steps as f64;
        for j in 0..=steps {
            let tnr = j as f64 / steps as f64;
            let (acc, f1) = predicted_metrics(tpr, tnr, prior, op.miss);
            let err = (acc - op.acc).abs() + (f1 - op.f1).abs();
            if err < best_err {
                best_err = err;
                best = Calibration { tpr, tnr };
            }
        }
    }
    best
}

/// A replayed external baseline.
pub struct ReplayBaseline {
    display_name: String,
    op: OperatingPoint,
    cal: Calibration,
    rng: StdRng,
}

impl ReplayBaseline {
    /// Build a replay model for one dataset given the published operating
    /// point and the dataset's positive prior.
    pub fn new(name: &str, op: OperatingPoint, prior: f64, seed: u64) -> Self {
        ReplayBaseline {
            display_name: format!("{name} (replay)"),
            cal: calibrate(&op, prior),
            op,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl CreditClassifier for ReplayBaseline {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn answer(&mut self, item: &EvalItem) -> String {
        if self.rng.gen::<f64>() < self.op.miss {
            return "(no parseable answer)".to_string();
        }
        let correct_rate = if item.record.label {
            self.cal.tpr
        } else {
            self.cal.tnr
        };
        let correct = self.rng.gen::<f64>() < correct_rate;
        let predicted_positive = item.record.label == correct;
        item.example.candidates[predicted_positive as usize].clone()
    }

    fn score(&mut self, item: &EvalItem) -> f64 {
        // A replay model has no real score distribution; emit a noisy
        // probability consistent with its answer behavior.
        let base = if item.record.label {
            self.cal.tpr
        } else {
            1.0 - self.cal.tnr
        };
        (base + 0.2 * (self.rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0)
    }
}

/// The published Table 2 operating points: `(model, dataset) -> (Acc, F1,
/// Miss)`, transcribed from the paper. `None` marks the cells the paper
/// leaves blank ("-", Llama2-chat on Credit Card Fraud).
pub fn paper_table2() -> Vec<(&'static str, Vec<Option<OperatingPoint>>)> {
    // Dataset order: German, Australia, Credit Card Fraud, ccFraud, Travel Insurance.
    let op = |acc: f64, f1: f64, miss: f64| Some(OperatingPoint { acc, f1, miss });
    vec![
        (
            "ChatGPT",
            vec![
                op(0.440, 0.410, 0.000),
                op(0.425, 0.257, 0.000),
                op(0.998, 0.998, 0.000),
                op(0.173, 0.214, 0.000),
                op(0.981, 0.975, 0.000),
            ],
        ),
        (
            "GPT4",
            vec![
                op(0.545, 0.513, 0.000),
                op(0.748, 0.746, 0.000),
                op(0.810, 0.878, 0.110),
                op(0.580, 0.587, 0.210),
                op(0.835, 0.897, 0.000),
            ],
        ),
        (
            "Bloomz",
            vec![
                op(0.315, 0.197, 0.110),
                op(0.568, 0.412, 0.000),
                op(0.001, 0.000, 0.000),
                op(0.059, 0.007, 0.000),
                op(0.015, 0.000, 0.000),
            ],
        ),
        (
            "Vicuna",
            vec![
                op(0.590, 0.505, 0.000),
                op(0.489, 0.513, 0.000),
                op(0.999, 0.998, 0.000),
                op(0.608, 0.651, 0.000),
                op(0.015, 0.130, 0.000),
            ],
        ),
        (
            "Llama1",
            vec![
                op(0.660, 0.173, 0.000),
                op(0.432, 0.412, 0.000),
                op(0.823, 0.902, 0.176),
                op(0.941, 0.007, 0.000),
                op(0.000, 0.001, 0.999),
            ],
        ),
        (
            "Llama2",
            vec![
                op(0.660, 0.173, 0.000),
                op(0.432, 0.412, 0.000),
                op(0.999, 0.998, 0.000),
                op(0.941, 0.007, 0.000),
                op(0.015, 0.978, 0.000),
            ],
        ),
        (
            "Llama2-chat",
            vec![
                op(0.475, 0.468, 0.000),
                op(0.432, 0.260, 0.000),
                None, // paper reports "-" with Miss 1.000
                op(0.914, 0.437, 0.000),
                op(0.665, 0.787, 0.000),
            ],
        ),
        (
            "FinMA",
            vec![
                op(0.170, 0.170, 0.110),
                op(0.410, 0.410, 0.806),
                op(0.003, 0.004, 0.000),
                op(0.060, -0.006, 0.891),
                op(0.002, 0.001, 0.000),
            ],
        ),
        (
            "CALM",
            vec![
                op(0.565, 0.535, 0.000),
                op(0.518, 0.492, 0.000),
                op(0.947, 0.971, 0.000),
                op(0.514, 0.627, 0.000),
                op(0.929, 0.950, 0.000),
            ],
        ),
        (
            "ZiGong (paper)",
            vec![
                op(0.590, 0.587, 0.000),
                op(0.779, 0.777, 0.014),
                op(0.998, 0.999, 0.031),
                op(0.987, 0.982, 0.000),
                op(0.884, 0.927, 0.064),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{eval_items, evaluate_classifier};
    use zg_data::german;

    #[test]
    fn calibration_reproduces_operating_point() {
        let op = OperatingPoint {
            acc: 0.7,
            f1: 0.55,
            miss: 0.0,
        };
        let cal = calibrate(&op, 0.3);
        let (acc, f1) = predicted_metrics(cal.tpr, cal.tnr, 0.3, 0.0);
        assert!((acc - 0.7).abs() < 0.02, "acc {acc}");
        assert!((f1 - 0.55).abs() < 0.05, "f1 {f1}");
    }

    #[test]
    fn calibration_with_miss() {
        let op = OperatingPoint {
            acc: 0.5,
            f1: 0.4,
            miss: 0.2,
        };
        let cal = calibrate(&op, 0.4);
        let (acc, f1) = predicted_metrics(cal.tpr, cal.tnr, 0.4, 0.2);
        assert!((acc - 0.5).abs() < 0.03);
        assert!((f1 - 0.4).abs() < 0.06);
    }

    #[test]
    fn replay_hits_published_numbers_on_synthetic_german() {
        // Replaying GPT-4's German row on our synthetic German test split
        // should land near (0.545, 0.513, 0.0).
        let ds = german(4000, 1);
        let (_, test) = ds.split(0.5);
        let items = eval_items(&ds, &test);
        let op = OperatingPoint {
            acc: 0.545,
            f1: 0.513,
            miss: 0.0,
        };
        let mut replay = ReplayBaseline::new("GPT4", op, ds.positive_rate(), 2);
        let r = evaluate_classifier(&mut replay, &items);
        assert!((r.eval.acc - 0.545).abs() < 0.05, "acc {}", r.eval.acc);
        assert!((r.eval.f1 - 0.513).abs() < 0.07, "f1 {}", r.eval.f1);
        assert!(r.eval.miss < 0.01);
    }

    #[test]
    fn replay_miss_rate_respected() {
        let ds = german(2000, 3);
        let (_, test) = ds.split(0.5);
        let items = eval_items(&ds, &test);
        let op = OperatingPoint {
            acc: 0.3,
            f1: 0.2,
            miss: 0.3,
        };
        let mut replay = ReplayBaseline::new("X", op, ds.positive_rate(), 4);
        let r = evaluate_classifier(&mut replay, &items);
        assert!((r.eval.miss - 0.3).abs() < 0.05, "miss {}", r.eval.miss);
    }

    #[test]
    fn table2_has_ten_models_five_datasets() {
        let t = paper_table2();
        assert_eq!(t.len(), 10);
        assert!(t.iter().all(|(_, row)| row.len() == 5));
        // The single blank cell.
        let blanks: usize = t
            .iter()
            .flat_map(|(_, row)| row.iter())
            .filter(|c| c.is_none())
            .count();
        assert_eq!(blanks, 1);
    }

    #[test]
    fn replay_name_is_labelled() {
        let op = OperatingPoint {
            acc: 0.5,
            f1: 0.5,
            miss: 0.0,
        };
        let m = ReplayBaseline::new("ChatGPT", op, 0.3, 1);
        assert!(m.name().contains("replay"));
    }
}
