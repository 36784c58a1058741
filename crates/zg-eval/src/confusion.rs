//! Binary confusion matrix and derived metrics.

use serde::{Deserialize, Serialize};

/// Binary confusion counts. "Positive" is the dataset's positive class
/// (bad credit / fraud / claim).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Accumulate one observation.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Precision of the positive class; 0 when undefined.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Recall of the positive class; 0 when undefined.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 0.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// F1 of the positive class; 0 when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(predicted: &[bool], actual: &[bool]) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::default();
        for (&p, &a) in predicted.iter().zip(actual) {
            cm.record(p, a);
        }
        cm
    }

    #[test]
    fn perfect_classifier() {
        let cm = recorded(&[true, false, true], &[true, false, true]);
        assert_eq!((cm.tp, cm.fp, cm.tn, cm.fn_), (2, 0, 1, 0));
        assert_eq!(cm.f1(), 1.0);
    }

    #[test]
    fn inverted_classifier() {
        let cm = recorded(&[false, true], &[true, false]);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn known_values() {
        // tp=3 fp=1 tn=4 fn=2
        let cm = ConfusionMatrix {
            tp: 3,
            fp: 1,
            tn: 4,
            fn_: 2,
        };
        assert!((cm.precision() - 0.75).abs() < 1e-12);
        assert!((cm.recall() - 0.6).abs() < 1e-12);
        let f1 = 2.0 * 0.75 * 0.6 / 1.35;
        assert!((cm.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_do_not_nan() {
        let cm = ConfusionMatrix::default();
        assert_eq!(cm.f1(), 0.0);
        // All-negative predictions on all-negative labels.
        let cm = recorded(&[false; 5], &[false; 5]);
        assert_eq!(cm.f1(), 0.0); // no positives to find
    }

    #[test]
    fn majority_class_predictor_on_imbalance() {
        // 95 negatives, 5 positives; always predict negative.
        let labels: Vec<bool> = (0..100).map(|i| i < 5).collect();
        let preds = vec![false; 100];
        let cm = recorded(&preds, &labels);
        assert_eq!(cm.tn, 95);
        assert_eq!(cm.f1(), 0.0, "F1 exposes the trivial classifier");
    }
}
