//! # zg-data
//!
//! Synthetic financial-credit datasets for the ZiGong reproduction.
//!
//! The paper evaluates on the CALM benchmark (Feng et al. 2023): German
//! Credit, Australian Credit, Credit Card Fraud, ccFraud, and Travel
//! Insurance — all gated or license-restricted — plus proprietary Didi
//! Behavior Card loan data. Per the substitution policy in DESIGN.md §2,
//! this crate generates synthetic datasets with the *published schemas*
//! (feature names, types, cardinalities), the *published class priors*,
//! and a planted, learnable latent risk signal, so every downstream code
//! path (instruction construction, SFT, influence estimation, metrics) is
//! exercised exactly as it would be on the real data.
//!
//! Also included: the temporal behavior-sequence generator whose AR(1)
//! information decay is the property TracSeq exploits, the generative
//! income-prediction task of paper §3.2, and financial sentiment data for
//! the Table 1 sentiment template.

mod auditing;
mod behavior;
mod calm;
mod distress;
mod income;
mod record;
mod sentiment;
mod synth;

pub use auditing::{auditing_dataset, APPROVAL_LIMIT};
pub use behavior::{behavior_sequences, BehaviorConfig};
pub use calm::{
    all_datasets, australia, ccfraud, credit_card_fraud, default_sizes, german, travel_insurance,
};
pub use distress::{polish_distress, DEFAULT_SIZE as DISTRESS_DEFAULT_SIZE};
pub use income::{income_dataset, IncomeBucket, IncomeRecord};
pub use record::{Dataset, FeatureValue, Record, TaskKind};
pub use sentiment::{sentiment_dataset, Sentiment, SentimentExample};
pub use synth::{FeatureSpec, SynthSpec};
