//! # zg-influence
//!
//! The paper's primary contribution: training-data influence estimation
//! and pruning for financial-credit instruction tuning.
//!
//! - [`tracin`]: TracInCP (Pruthi et al. 2020) and **TracSeq** (paper
//!   Eq. 1), the time-decayed variant for sequential behavior data.
//! - [`select_top_k`] / [`hybrid_mix`]: Top-K selection (Eq. 2) and the
//!   70/30 random + high-influence mix of paper §3.2.
//! - [`AgentModel`]: the lightweight agent model that scores samples with
//!   closed-form logistic gradients.
//! - [`lm_sample_gradient`] / [`lm_checkpoint_grads`]: gradient extraction
//!   from the language model in the LoRA subspace, replayed at stored
//!   checkpoints.
//! - [`parallel`]: the multi-threaded scoring engine ([`ParallelConfig`],
//!   [`influence_scores_with`]) with bit-identical chunk-ordered
//!   reduction — serial is the `workers = 1` special case.

mod agent;
mod grads;
pub mod parallel;
mod select;
mod tracin;

pub use agent::{
    agent_checkpoint_grads, agent_checkpoint_grads_with, AgentCheckpoint, AgentConfig, AgentModel,
};
pub use grads::{
    lm_checkpoint_grads, lm_checkpoint_grads_with, lm_sample_gradient, LmCheckpoint,
    TokenizedSample,
};
pub use parallel::{influence_scores_with, par_map, par_map_init, ParallelConfig};
pub use select::{hybrid_mix, select_bottom_k, select_top_k, MixConfig};
pub use tracin::{influence_scores, CheckpointGrads, TracConfig};
