//! Prompt templates from the paper's Table 1.
//!
//! Discriminative tasks:
//! ```text
//! {sentence}
//! Question: what is the sentiment? Answer: {good/neutral/bad}
//!
//! {sentence}
//! Question: {question}? Answer: {Yes/No}
//! ```
//! Generative tasks (QA): user-profile questions answered with a level.

use serde::{Deserialize, Serialize};
use zg_data::{Dataset, IncomeRecord, Record, Sentiment, SentimentExample, TaskKind};

/// Template family (Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TemplateKind {
    /// Discriminative / sentiment analysis: `good/neutral/bad`.
    SentimentAnalysis,
    /// Discriminative / classification: dataset-specific binary question.
    Classification,
    /// Generative / QA: profile questions (income level).
    Qa,
}

/// One rendered instruction example (text level — tokenization happens in
/// the trainer).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstructExample {
    /// Prompt text ending in `"Answer:"` (the completion boundary).
    pub prompt: String,
    /// Gold answer text (e.g. `"Yes"`, `"good"`, `"medium"`).
    pub answer: String,
    /// All admissible answers for this template, gold included.
    pub candidates: Vec<String>,
    /// Source dataset name.
    pub dataset: String,
    /// Source record id.
    pub record_id: usize,
    /// Binary label when the underlying task is binary (positive class).
    pub label: Option<bool>,
    /// Time period for sequential behavior data.
    pub time: Option<u32>,
    /// User id for sequential behavior data.
    pub user: Option<usize>,
}

impl InstructExample {
    /// The full training text: prompt plus gold answer.
    pub fn full_text(&self) -> String {
        format!("{} {}", self.prompt, self.answer)
    }
}

/// The question asked for each task family (Table 1 "Classification" row,
/// instantiated per dataset as in CALM).
pub fn question_for(task: TaskKind) -> &'static str {
    match task {
        TaskKind::CreditScoring => {
            "based on the applicant profile above, is the credit risk good or bad"
        }
        TaskKind::FraudDetection => "is this transaction or application fraudulent, Yes or No",
        TaskKind::ClaimAnalysis => "is this insurance claim fraudulent, Yes or No",
        TaskKind::DistressIdentification => {
            "based on these financial ratios, will the company face financial distress, Yes or No"
        }
        TaskKind::BehaviorRisk => {
            "based on this behavior record, will the user default on their loan, Yes or No"
        }
        TaskKind::FinancialAuditing => {
            "does this journal entry show signs of irregularity requiring audit review, Yes or No"
        }
    }
}

/// Render the classification template for one record of `ds`.
pub fn render_classification(ds: &Dataset, record: &Record) -> InstructExample {
    let answer = if record.label {
        ds.positive_name.clone()
    } else {
        ds.negative_name.clone()
    };
    InstructExample {
        prompt: format!(
            "{}\nQuestion: {}? Answer:",
            record.feature_text(),
            question_for(ds.task)
        ),
        answer,
        candidates: vec![ds.negative_name.clone(), ds.positive_name.clone()],
        dataset: ds.name.clone(),
        record_id: record.id,
        label: Some(record.label),
        time: record.time,
        user: record.user,
    }
}

/// Render the sentiment template (Table 1 first row).
pub fn render_sentiment(ex: &SentimentExample, id: usize) -> InstructExample {
    InstructExample {
        prompt: format!("{}\nQuestion: what is the sentiment? Answer:", ex.text),
        answer: ex.label.text().to_string(),
        candidates: Sentiment::ALL
            .iter()
            .map(|s| s.text().to_string())
            .collect(),
        dataset: "Sentiment".to_string(),
        record_id: id,
        label: None,
        time: None,
        user: None,
    }
}

/// Render the generative QA income template (paper §3.2).
pub fn render_income(rec: &IncomeRecord) -> InstructExample {
    InstructExample {
        prompt: format!(
            "{}\nQuestion: what is the user's expected income level, low, medium or high? Answer:",
            rec.feature_text()
        ),
        answer: rec.bucket().text().to_string(),
        candidates: zg_data::IncomeBucket::ALL
            .iter()
            .map(|b| b.text().to_string())
            .collect(),
        dataset: "Income".to_string(),
        record_id: rec.id,
        label: None,
        time: None,
        user: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zg_data::{german, income_dataset, sentiment_dataset};

    #[test]
    fn classification_template_shape() {
        let ds = german(10, 1);
        let ex = render_classification(&ds, &ds.records[0]);
        assert!(ex.prompt.contains("Question: "));
        assert!(ex.prompt.ends_with("Answer:"));
        assert!(ex.prompt.contains("credit amount: "));
        assert!(ex.answer == "good" || ex.answer == "bad");
        assert_eq!(ex.candidates, vec!["good".to_string(), "bad".to_string()]);
        assert_eq!(ex.label, Some(ds.records[0].label));
    }

    #[test]
    fn full_text_joins_prompt_and_answer() {
        let ds = german(5, 2);
        let ex = render_classification(&ds, &ds.records[1]);
        assert!(ex.full_text().ends_with(&format!("Answer: {}", ex.answer)));
    }

    #[test]
    fn sentiment_template_matches_table1() {
        let s = sentiment_dataset(3, 4);
        let ex = render_sentiment(&s[0], 0);
        assert!(ex
            .prompt
            .ends_with("Question: what is the sentiment? Answer:"));
        assert_eq!(ex.candidates.len(), 3);
    }

    #[test]
    fn income_template_generative() {
        let recs = income_dataset(3, 5);
        let ex = render_income(&recs[0]);
        assert!(ex.prompt.contains("phone brand"));
        assert!(["low", "medium", "high"].contains(&ex.answer.as_str()));
    }

    #[test]
    fn behavior_question_mentions_default() {
        assert!(question_for(TaskKind::BehaviorRisk).contains("default"));
    }
}
