//! The **Behavior Card service** (paper §1 contribution 3: "successfully
//! deployed in our Behavior Card service, which supports the operational
//! model in the loan process"): a deployment-style scoring facade over a
//! trained classifier, with decision thresholds, reason codes, and an
//! audit log — the pieces a loan-operations integration actually needs.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use zg_data::{Dataset, Record};
use zg_instruct::render_classification;

use crate::evaluator::{CreditClassifier, EvalItem};

/// A scoring decision returned to the loan pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Decision {
    /// Monotone risk score in [0, 1] (higher = riskier).
    pub risk_score: f64,
    /// Whether the application passes the risk gate.
    pub approved: bool,
    /// Threshold in effect when the decision was made.
    pub threshold: f64,
    /// Top contributing feature names (reason codes).
    pub reasons: Vec<String>,
}

/// One audit-log entry (regulatory traceability).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Monotone request id.
    pub request_id: u64,
    /// Record id scored.
    pub record_id: usize,
    /// Risk score produced.
    pub risk_score: f64,
    /// Decision.
    pub approved: bool,
}

/// The service: wraps any [`CreditClassifier`] with decision logic.
pub struct BehaviorCardService<C: CreditClassifier> {
    classifier: C,
    meta: Dataset,
    threshold: f64,
    audit: Mutex<Vec<AuditEntry>>,
    counter: AtomicU64,
}

impl<C: CreditClassifier> BehaviorCardService<C> {
    /// Build a service. `meta` supplies the task framing (prompt
    /// rendering); its records are not used.
    pub fn new(classifier: C, meta: &Dataset, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
        BehaviorCardService {
            classifier,
            meta: Dataset {
                records: Vec::new(),
                ..meta.clone()
            },
            threshold,
            audit: Mutex::new(Vec::new()),
            counter: AtomicU64::new(0),
        }
    }

    /// Score one application/behavior record and log the decision.
    pub fn score(&mut self, record: &Record) -> Decision {
        let item = EvalItem {
            record,
            example: render_classification(&self.meta, record),
        };
        let risk_score = self.classifier.score(&item).clamp(0.0, 1.0);
        let approved = risk_score < self.threshold;
        let decision = Decision {
            risk_score,
            approved,
            threshold: self.threshold,
            reasons: reason_codes(record),
        };
        let request_id = self.counter.fetch_add(1, Ordering::Relaxed);
        self.audit.lock().push(AuditEntry {
            request_id,
            record_id: record.id,
            risk_score,
            approved,
        });
        decision
    }

    /// Score a batch.
    pub fn score_batch(&mut self, records: &[&Record]) -> Vec<Decision> {
        records.iter().map(|r| self.score(r)).collect()
    }

    /// Update the approval threshold (risk-policy change).
    pub fn set_threshold(&mut self, threshold: f64) {
        assert!((0.0..=1.0).contains(&threshold));
        self.threshold = threshold;
    }

    /// Current threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Snapshot of the audit log.
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        self.audit.lock().clone()
    }

    /// Approval rate over the audit history.
    pub fn approval_rate(&self) -> f64 {
        let log = self.audit.lock();
        if log.is_empty() {
            return 0.0;
        }
        log.iter().filter(|e| e.approved).count() as f64 / log.len() as f64
    }
}

/// Crude reason codes: the behavior features most associated with risk
/// (by name, for the operational model's explanation slot).
fn reason_codes(record: &Record) -> Vec<String> {
    const RISKY: [&str; 4] = [
        "late payment count",
        "credit utilization percent",
        "new loan applications",
        "status of checking account",
    ];
    record
        .features
        .iter()
        .filter(|(name, _)| RISKY.contains(&name.as_str()))
        .map(|(name, v)| format!("{name}: {v}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zg_data::{behavior_sequences, BehaviorConfig};

    /// Score = label (oracle) for deterministic service tests.
    struct OracleScorer;
    impl CreditClassifier for OracleScorer {
        fn name(&self) -> String {
            "oracle".into()
        }
        fn answer(&mut self, item: &EvalItem) -> String {
            item.example.candidates[item.record.label as usize].clone()
        }
        fn score(&mut self, item: &EvalItem) -> f64 {
            if item.record.label {
                0.9
            } else {
                0.1
            }
        }
    }

    fn sample_records() -> Dataset {
        behavior_sequences(
            &BehaviorConfig {
                n_users: 20,
                periods: 3,
                ..Default::default()
            },
            1,
        )
    }

    #[test]
    fn decisions_respect_threshold() {
        let ds = sample_records();
        let mut svc = BehaviorCardService::new(OracleScorer, &ds, 0.5);
        for r in ds.records.iter().take(10) {
            let d = svc.score(r);
            assert_eq!(d.approved, !r.label, "risky users must be declined");
            assert_eq!(d.threshold, 0.5);
        }
    }

    #[test]
    fn audit_log_grows_and_ids_monotone() {
        let ds = sample_records();
        let mut svc = BehaviorCardService::new(OracleScorer, &ds, 0.5);
        let recs: Vec<&Record> = ds.records.iter().take(5).collect();
        svc.score_batch(&recs);
        let log = svc.audit_log();
        assert_eq!(log.len(), 5);
        for (i, e) in log.iter().enumerate() {
            assert_eq!(e.request_id, i as u64);
        }
    }

    #[test]
    fn threshold_update_changes_decisions() {
        let ds = sample_records();
        let mut svc = BehaviorCardService::new(OracleScorer, &ds, 0.95);
        let risky = ds.records.iter().find(|r| r.label).expect("risky user");
        assert!(svc.score(risky).approved, "lenient threshold approves");
        svc.set_threshold(0.2);
        assert!(!svc.score(risky).approved, "strict threshold declines");
    }

    #[test]
    fn approval_rate_tracks_history() {
        let ds = sample_records();
        let mut svc = BehaviorCardService::new(OracleScorer, &ds, 0.5);
        let recs: Vec<&Record> = ds.records.iter().collect();
        svc.score_batch(&recs);
        let expected = recs.iter().filter(|r| !r.label).count() as f64 / recs.len() as f64;
        assert!((svc.approval_rate() - expected).abs() < 1e-9);
    }

    #[test]
    fn reason_codes_surface_risky_features() {
        let ds = sample_records();
        let mut svc = BehaviorCardService::new(OracleScorer, &ds, 0.5);
        let d = svc.score(&ds.records[0]);
        assert!(d.reasons.iter().any(|r| r.contains("late payment count")));
    }
}
