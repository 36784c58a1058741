//! # zg-eval
//!
//! Evaluation metrics for the ZiGong reproduction, matching the paper's
//! protocol: Accuracy / F1 / **Miss** for the Table 2 benchmark cells, the
//! **KS statistic** (the financial risk-control discrimination measure
//! used in Figure 2), ROC-AUC, and confusion-matrix utilities.

mod confusion;
mod ks;
mod lift;
mod metrics;

pub use confusion::ConfusionMatrix;
pub use ks::{ks_statistic, roc_auc};
pub use lift::{gains_table, precision_at_k, GainsBand};
pub use metrics::{evaluate_binary, evaluate_multiclass, EvalResult, Prediction};
