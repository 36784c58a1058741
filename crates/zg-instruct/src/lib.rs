//! # zg-instruct
//!
//! Financial-credit instruction data construction (paper §3.2, Table 1):
//! prompt templates for the discriminative (sentiment, classification) and
//! generative (QA) task families, plus answer parsing with **Miss**
//! detection — the third metric of the paper's Table 2.

mod parse;
mod template;

pub use parse::{parse_answer, parse_binary};
pub use template::{
    question_for, render_classification, render_income, render_sentiment, InstructExample,
    TemplateKind,
};
