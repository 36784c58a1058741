//! The fast BPE paths against the oracles they replace: `train` must
//! learn exactly the merge list `train_recount` learns, and `encode` must
//! give exactly the ids `encode_rescan` gives. No tolerance anywhere.
//!
//! Corpora are drawn over 2–4 letters so that overlapping runs (`aaaa`)
//! are common, which is where a merge order can go wrong.

use proptest::prelude::*;
use zg_tokenizer::{first_merge_id, BpeTokenizer};

/// Map raw draws onto the first `k` letters of the alphabet.
fn letters(k: usize, draws: &[u8]) -> String {
    draws
        .iter()
        .map(|&x| (b'a' + x % k as u8) as char)
        .collect()
}

fn train_both(docs: &[String], vocab: usize) -> (BpeTokenizer, BpeTokenizer) {
    let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    (
        BpeTokenizer::train(&refs, vocab),
        BpeTokenizer::train_recount(&refs, vocab),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn train_equals_recount(
        k in 2..=4usize,
        draws in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8),
        extra in 0..96usize,
    ) {
        let docs: Vec<String> = draws.iter().map(|d| letters(k, d)).collect();
        let (fast, oracle) = train_both(&docs, first_merge_id() as usize + extra);
        prop_assert_eq!(fast, oracle);
    }

    #[test]
    fn encode_equals_rescan_and_roundtrips(
        k in 2..=4usize,
        draws in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8),
        extra in 0..96usize,
        in_alphabet in prop::collection::vec(any::<u8>(), 0..96),
        // Letters outside the corpus alphabet, and 2- and 3-byte UTF-8.
        mixed in "[a-fé€ ]{0,64}",
        wide in "\\PC{0,32}",
    ) {
        let docs: Vec<String> = draws.iter().map(|d| letters(k, d)).collect();
        let (tok, _) = train_both(&docs, first_merge_id() as usize + extra);
        for text in [letters(k, &in_alphabet), mixed, wide] {
            let ids = tok.encode(&text);
            prop_assert_eq!(&ids, &tok.encode_rescan(&text));
            prop_assert_eq!(tok.decode(&ids), text);
        }
    }
}

/// Policy clauses in the style of the served lending-policy preambles.
const CLAUSES: [&str; 6] = [
    "Applicants document stable income for at least twelve consecutive months; seasonal or commission income is averaged over two years.",
    "The total debt service ratio, including the requested loan, may not exceed forty percent of verified monthly net income.",
    "Collateral is valued at the lower of purchase price or independent appraisal, discounted by fifteen percent for vehicles and equipment.",
    "Any delinquency of more than sixty days within the last three years requires a written explanation and a second approver.",
    "Guarantors are assessed under the same standards as the primary borrower and must sign the full credit agreement.",
    "Self-employed applicants provide two years of tax assessments and a current statement of assets and liabilities.",
];

const TITLES: [&str; 4] = [
    "Retail lending policy for consumer instalment loans. Apply every rule below before you assess the applicant.",
    "Branch escalation desk: second review of a declined or borderline application under the binding lending policy.",
    "Portfolio re-scoring run. Re-assess this existing borrower against the lending standards that apply today.",
    "Small business and self-employed credit desk. The following underwriting rules are binding for this review.",
];

/// German-credit fields: a name and its categories, or no categories for
/// a number.
const FIELDS: [(&str, &[&str]); 14] = [
    (
        "status of checking account",
        &["< 0 DM", "0 to 200 DM", ">= 200 DM", "no checking account"],
    ),
    ("duration in months", &[]),
    (
        "credit history",
        &[
            "no credits taken",
            "all credits paid back duly",
            "existing credits paid back duly",
            "delay in paying off in the past",
            "critical account",
        ],
    ),
    (
        "purpose",
        &[
            "car (new)",
            "car (used)",
            "furniture/equipment",
            "education",
            "repairs",
        ],
    ),
    ("credit amount", &[]),
    (
        "savings account",
        &[
            "< 100 DM",
            "100 to 500 DM",
            ">= 1000 DM",
            "unknown/no savings",
        ],
    ),
    (
        "present employment since",
        &["unemployed", "< 1 year", "1 to 4 years", ">= 7 years"],
    ),
    ("installment rate in percentage of disposable income", &[]),
    (
        "personal status and sex",
        &["male single", "male married/widowed", "female"],
    ),
    ("other debtors", &["none", "co-applicant", "guarantor"]),
    ("age in years", &[]),
    ("housing", &["rent", "own", "for free"]),
    (
        "job",
        &["unskilled resident", "skilled employee", "management"],
    ),
    ("foreign worker", &["yes", "no"]),
];

/// Template `t`: its title, then a rotation of the clauses.
fn preamble(t: usize) -> String {
    let mut s = format!("{}\n", TITLES[t]);
    for i in 0..4 {
        s.push_str(&format!("- {}\n", CLAUSES[(i + t) % CLAUSES.len()]));
    }
    s + "\n"
}

/// Record `i` rendered as a classification prompt, its values drawn by a
/// fixed xorshift.
fn record(i: u64) -> String {
    let mut s = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let fields: Vec<String> = FIELDS
        .iter()
        .map(|(name, choices)| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match choices.len() {
                0 => format!("{name}: {}", 1 + s % 4_000),
                n => format!("{name}: {}", choices[(s % n as u64) as usize]),
            }
        })
        .collect();
    format!(
        "{}\nQuestion: based on the applicant profile above, is the credit risk good or bad? Answer:",
        fields.join(", ")
    )
}

#[test]
fn served_prompt_shape_matches_oracles() {
    // As the served benchmark trains it: records and the four policy
    // documents, to a 1,024-token vocabulary.
    let mut docs: Vec<String> = (0..40)
        .map(|i| format!("{} {}", record(i), ["good", "bad"][i as usize % 2]))
        .collect();
    docs.extend((0..TITLES.len()).map(preamble));
    let (tok, oracle) = train_both(&docs, 1024);
    assert_eq!(tok.vocab_size(), 1024, "the corpus fills the vocabulary");
    assert_eq!(tok, oracle);
    // A served prompt: a preamble before a record the corpus never saw.
    for t in 0..TITLES.len() {
        let prompt = preamble(t) + &record(1_000 + t as u64);
        let ids = tok.encode(&prompt);
        assert_eq!(ids, tok.encode_rescan(&prompt));
        assert!(ids.len() < prompt.len() / 3, "the preamble compresses");
        assert_eq!(tok.decode(&ids), prompt);
    }
}
