//! # zg-zigong
//!
//! The ZiGong pipeline — the paper's system, end to end:
//!
//! - [`config`]: Table 3 configuration (paper reference + CPU miniature).
//! - [`corpus`]: instruction tokenization with prompt masking.
//! - [`trainer`]: multi-task LoRA SFT with data-parallel gradient
//!   accumulation (bit-identical to serial for any worker count), cosine
//!   decay, clipping, phase profiling, and TracIn checkpoint capture.
//! - [`pruning`]: the data-pruning pipeline — sequential agent training,
//!   TracSeq scoring, Top-K, 70/30 hybrid mixing.
//! - [`evaluator`] / [`baselines`] / [`replay`]: the Table 2 harness with
//!   measured and calibrated-replay columns.
//! - [`benchmark`]: the Table 2 runner and renderer.
//! - [`behavior_card`]: the deployment-style Behavior Card service.

pub mod baselines;
pub mod behavior_card;
pub mod benchmark;
pub mod config;
pub mod corpus;
pub mod evaluator;
pub mod forgetting;
pub mod pruning;
pub mod replay;
pub mod trainer;

pub use baselines::{LogisticExpert, MajorityClass, RandomGuess};
pub use behavior_card::{AuditEntry, BehaviorCardService, Decision};
pub use benchmark::{
    agent_tracin_scores, balanced_train_records, pruned_mix_records, render_table2, run_table2,
    train_zigong, Table2, Table2Options, Table2Row,
};
pub use config::{TrainConfig, ZiGongConfig};
pub use corpus::{
    collate, to_pretrain_sample, tokenize_all, tokenize_example, train_tokenizer, Sample,
};
pub use evaluator::{
    eval_items, evaluate_classifier, evaluate_zigong, CellResult, CreditClassifier, DecisionStage,
    EvalItem, ZiGongModel, ZiGongSpec, ANSWER_TOKENS, SCORE_RESERVE,
};
pub use forgetting::{run_forgetting_study, ForgettingResult, ForgettingSetup};
pub use pruning::{
    agent_tracseq_scores, agent_tracseq_scores_with, behavior_samples, fit_agent_sequential,
    hybrid_selection, hybrid_selection_with, lm_tracseq_scores, lm_tracseq_scores_with,
    split_behavior_by_user, BehaviorSample,
};
pub use replay::{calibrate, paper_table2, Calibration, OperatingPoint, ReplayBaseline};
pub use trainer::{train_sft, train_sft_profiled, Clock, Profile, TrainOrder, TrainReport};
