//! Synthetic financial-news sentiment data for the Sentiment Analysis
//! template in the paper's Table 1 (`Answer: {good/neutral/bad}`).
//! Sentences are built from finance-domain templates with polarity-bearing
//! verb phrases, so the lexical signal is learnable by a small LM.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sentiment label, using the paper's answer vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sentiment {
    /// Positive financial news.
    Good,
    /// Neutral/informational.
    Neutral,
    /// Negative financial news.
    Bad,
}

impl Sentiment {
    /// Surface answer string (paper Table 1).
    pub fn text(self) -> &'static str {
        match self {
            Sentiment::Good => "good",
            Sentiment::Neutral => "neutral",
            Sentiment::Bad => "bad",
        }
    }

    /// All labels.
    pub const ALL: [Sentiment; 3] = [Sentiment::Good, Sentiment::Neutral, Sentiment::Bad];
}

/// A sentence with its sentiment label.
#[derive(Debug, Clone)]
pub struct SentimentExample {
    /// The sentence shown in the prompt.
    pub text: String,
    /// Ground-truth sentiment.
    pub label: Sentiment,
}

const SUBJECTS: [&str; 8] = [
    "The regional bank",
    "The fintech startup",
    "The insurance group",
    "The credit union",
    "The asset manager",
    "The mortgage lender",
    "The payments company",
    "The consumer finance arm",
];

const GOOD_PHRASES: [&str; 6] = [
    "reported record quarterly profits",
    "beat earnings expectations by a wide margin",
    "announced a major expansion of its loan book",
    "saw default rates fall to a five-year low",
    "secured a landmark partnership deal",
    "raised its full-year guidance",
];

const BAD_PHRASES: [&str; 6] = [
    "disclosed heavy credit losses",
    "missed earnings expectations badly",
    "warned of rising loan defaults",
    "suffered a sharp drop in deposits",
    "faces a regulatory investigation into its lending",
    "cut its dividend amid mounting bad debt",
];

const NEUTRAL_PHRASES: [&str; 6] = [
    "published its scheduled quarterly report",
    "held its annual shareholder meeting",
    "appointed a new head of compliance",
    "rebranded its retail banking unit",
    "moved its headquarters downtown",
    "updated its mobile application",
];

const TAILS: [&str; 4] = [
    "this quarter",
    "according to filings",
    "analysts said",
    "on Tuesday",
];

/// Generate `n` labeled sentences, class-balanced, deterministic in `seed`.
pub fn sentiment_dataset(n: usize, seed: u64) -> Vec<SentimentExample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let label = Sentiment::ALL[i % 3];
            let subject = SUBJECTS[rng.gen_range(0..SUBJECTS.len())];
            let phrase = match label {
                Sentiment::Good => GOOD_PHRASES[rng.gen_range(0..GOOD_PHRASES.len())],
                Sentiment::Bad => BAD_PHRASES[rng.gen_range(0..BAD_PHRASES.len())],
                Sentiment::Neutral => NEUTRAL_PHRASES[rng.gen_range(0..NEUTRAL_PHRASES.len())],
            };
            let tail = TAILS[rng.gen_range(0..TAILS.len())];
            SentimentExample {
                text: format!("{subject} {phrase} {tail}."),
                label,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_classes() {
        let ds = sentiment_dataset(300, 1);
        for lab in Sentiment::ALL {
            assert_eq!(ds.iter().filter(|e| e.label == lab).count(), 100);
        }
    }

    #[test]
    fn deterministic() {
        let a = sentiment_dataset(10, 5);
        let b = sentiment_dataset(10, 5);
        assert_eq!(a[3].text, b[3].text);
    }

    #[test]
    fn lexical_signal_separates_classes() {
        let ds = sentiment_dataset(600, 2);
        // Crude lexicon check: "record"/"beat" only in good, "losses"/"warned"
        // only in bad.
        for e in &ds {
            if e.text.contains("record quarterly profits") {
                assert_eq!(e.label, Sentiment::Good);
            }
            if e.text.contains("heavy credit losses") {
                assert_eq!(e.label, Sentiment::Bad);
            }
        }
    }
}
