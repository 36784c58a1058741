//! Byte-level BPE: merge training, encoding, and decoding.
//!
//! Training follows the classic algorithm: start from raw bytes, repeatedly
//! merge the most frequent adjacent pair (deterministic tie-break on the
//! pair itself) until the target vocabulary size is reached. Encoding
//! replays merges by rank. Everything round-trips losslessly because the
//! base alphabet is all 256 bytes.

use std::collections::BTreeMap;

use crate::vocab::{byte_token, first_merge_id, Special};

/// A trained byte-level BPE tokenizer.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    /// Learned merges in rank order: merging `(a, b)` yields token
    /// `first_merge_id() + rank`.
    merges: Vec<(u32, u32)>,
    /// Reverse map for fast encode: pair -> merged id.
    merge_map: BTreeMap<(u32, u32), u32>,
}

impl BpeTokenizer {
    /// Tokenizer with no merges: pure byte-level encoding.
    pub fn byte_level() -> Self {
        BpeTokenizer {
            merges: Vec::new(),
            merge_map: BTreeMap::new(),
        }
    }

    /// Train merges from a corpus until the vocabulary reaches `vocab_size`
    /// (specials + 256 bytes + merges), or no pair repeats.
    pub fn train(corpus: &[&str], vocab_size: usize) -> Self {
        let base = first_merge_id() as usize;
        let target_merges = vocab_size.saturating_sub(base);
        let mut seqs: Vec<Vec<u32>> = corpus
            .iter()
            .map(|s| s.bytes().map(byte_token).collect())
            .collect();
        let mut merges = Vec::with_capacity(target_merges);
        for rank in 0..target_merges {
            // Count adjacent pairs across the whole corpus.
            let mut counts: BTreeMap<(u32, u32), usize> = BTreeMap::new();
            for seq in &seqs {
                for w in seq.windows(2) {
                    *counts.entry((w[0], w[1])).or_insert(0) += 1;
                }
            }
            // Most frequent pair; deterministic tie-break on the pair value.
            let best = counts
                .into_iter()
                .filter(|&(_, c)| c >= 2)
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some((pair, _)) = best else { break };
            let new_id = (base + rank) as u32;
            merges.push(pair);
            for seq in &mut seqs {
                merge_in_place(seq, pair, new_id);
            }
        }
        let mut tok = BpeTokenizer {
            merges,
            merge_map: BTreeMap::new(),
        };
        tok.rebuild_merge_map();
        tok
    }

    /// Rebuild the pair→id lookup from the merge list.
    fn rebuild_merge_map(&mut self) {
        self.merge_map = self
            .merges
            .iter()
            .enumerate()
            .map(|(rank, &pair)| (pair, first_merge_id() + rank as u32))
            .collect();
    }

    /// Total vocabulary size: specials + bytes + merges.
    pub fn vocab_size(&self) -> usize {
        first_merge_id() as usize + self.merges.len()
    }

    /// Encode text to token ids (no specials added).
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut seq: Vec<u32> = text.bytes().map(byte_token).collect();
        if self.merges.is_empty() || seq.len() < 2 {
            return seq;
        }
        // Repeatedly apply the lowest-rank (earliest-learned) applicable
        // merge, mirroring training order.
        loop {
            let mut best: Option<(u32, usize)> = None; // (merged_id, position)
            for (i, w) in seq.windows(2).enumerate() {
                if let Some(&id) = self.merge_map.get(&(w[0], w[1])) {
                    if best.is_none_or(|(bid, _)| id < bid) {
                        best = Some((id, i));
                    }
                }
            }
            let Some((id, _)) = best else { break };
            let pair = self.merges[(id - first_merge_id()) as usize];
            merge_in_place(&mut seq, pair, id);
        }
        seq
    }

    /// Byte expansion of a single token id. Specials expand to their text.
    pub fn token_bytes(&self, id: u32) -> Vec<u8> {
        if id < 4 {
            return Special::ALL[id as usize].text().as_bytes().to_vec();
        }
        if id < first_merge_id() {
            return vec![(id - 4) as u8];
        }
        let rank = (id - first_merge_id()) as usize;
        assert!(rank < self.merges.len(), "token id {id} out of vocab");
        let (a, b) = self.merges[rank];
        let mut out = self.token_bytes(a);
        out.extend(self.token_bytes(b));
        out
    }

    /// Decode ids back to text. Special tokens are skipped (except `<unk>`,
    /// which renders as its text so parse failures stay visible).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut bytes = Vec::new();
        for &id in ids {
            match id {
                x if x == Special::Pad.id() || x == Special::Bos.id() || x == Special::Eos.id() => {
                }
                _ => bytes.extend(self.token_bytes(id)),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Replace every adjacent occurrence of `pair` with `new_id`, in place.
fn merge_in_place(seq: &mut Vec<u32>, pair: (u32, u32), new_id: u32) {
    let mut write = 0usize;
    let mut read = 0usize;
    while read < seq.len() {
        if read + 1 < seq.len() && seq[read] == pair.0 && seq[read + 1] == pair.1 {
            seq[write] = new_id;
            read += 2;
        } else {
            seq[write] = seq[read];
            read += 1;
        }
        write += 1;
    }
    seq.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_level_roundtrip() {
        let tok = BpeTokenizer::byte_level();
        let text = "hello, 世界! 0.42";
        assert_eq!(tok.decode(&tok.encode(text)), text);
    }

    #[test]
    fn merge_in_place_basic() {
        let mut seq = vec![1, 2, 1, 2, 3, 1];
        merge_in_place(&mut seq, (1, 2), 9);
        assert_eq!(seq, vec![9, 9, 3, 1]);
    }

    #[test]
    fn merge_in_place_overlapping_left_to_right() {
        let mut seq = vec![1, 1, 1];
        merge_in_place(&mut seq, (1, 1), 9);
        assert_eq!(seq, vec![9, 1]);
    }

    #[test]
    fn training_learns_frequent_pairs() {
        let corpus = ["ababababab", "ababab"]; // "ab" dominates
        let refs: Vec<&str> = corpus.iter().map(|s| &**s).collect();
        let tok = BpeTokenizer::train(&refs, first_merge_id() as usize + 4);
        assert!(tok.vocab_size() > first_merge_id() as usize);
        // First merge should be ('a','b').
        let encoded = tok.encode("ab");
        assert_eq!(encoded.len(), 1, "'ab' should compress to one token");
    }

    #[test]
    fn trained_roundtrip_lossless() {
        let corpus = vec![
            "Question: what is the sentiment? Answer: good",
            "Question: is this application fraudulent? Answer: No",
            "credit amount 2500, duration 12 months",
        ];
        let refs: Vec<&str> = corpus.iter().map(|s| &**s).collect();
        let tok = BpeTokenizer::train(&refs, 400);
        for text in &corpus {
            assert_eq!(tok.decode(&tok.encode(text)), *text);
        }
        // Unseen text must also round-trip (byte fallback).
        let unseen = "zebra ~~ €42";
        assert_eq!(tok.decode(&tok.encode(unseen)), unseen);
    }

    #[test]
    fn compression_reduces_token_count() {
        let corpus: Vec<String> = (0..50).map(|i| format!("Answer: Yes number {i}")).collect();
        let refs: Vec<&str> = corpus.iter().map(|s| &**s).collect();
        let tok = BpeTokenizer::train(&refs, 500);
        let text = "Answer: Yes number 7";
        assert!(tok.encode(text).len() < text.len());
    }

    #[test]
    fn vocab_size_accounts_for_merges() {
        let tok = BpeTokenizer::byte_level();
        assert_eq!(tok.vocab_size(), 260);
    }

    #[test]
    fn empty_and_single_byte_inputs() {
        let tok = BpeTokenizer::byte_level();
        assert!(tok.encode("").is_empty());
        assert_eq!(tok.encode("a").len(), 1);
        assert_eq!(tok.decode(&[]), "");
    }
}
