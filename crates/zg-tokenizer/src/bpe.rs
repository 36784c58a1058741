//! Byte-level BPE: merge training, encoding, and decoding.
//!
//! Training follows the classic algorithm: start from raw bytes, repeatedly
//! merge the most frequent adjacent pair (deterministic tie-break on the
//! pair itself) until the target vocabulary size is reached. Encoding
//! replays merges by rank. Everything round-trips losslessly because the
//! base alphabet is all 256 bytes.
//!
//! **Rank invariant.** A pair that merge `r` forms always ranks after
//! `r`. Training is the only constructor of merges: the merge list is
//! private, [`BpeTokenizer::byte_level`] has none, and only
//! [`BpeTokenizer::train`] and its oracle fill it. Training learns merge
//! `r` from symbols that exist by then, bytes or the tokens of earlier
//! merges, so the token merge `r` yields can only be a part of merges
//! learned after it. Hence a merge's pair, once all its occurrences are
//! merged, never re-forms, and encoding visits the ranks in increasing
//! order, each once. A merge list from anywhere else (hand-written or
//! loaded) could break the invariant, which is why none is accepted.
//!
//! **Encoding** is a heap merge over a doubly linked list of symbols, one
//! per byte to start with. A min-heap holds `(rank, position)` for every
//! adjacent pair that has a merge. Each pop takes the lowest rank and,
//! within it, the leftmost position, and drops a stale entry: a left
//! symbol absorbed by an earlier merge, no right neighbour, or a pair
//! that no longer matches `merges[rank]`. A live entry splices its two
//! symbols into the merged token and pushes the at most two pairs the
//! token forms with its neighbours, which by the invariant rank after
//! the one popped. So the pops replay [`BpeTokenizer::encode_rescan`]'s
//! passes exactly: every occurrence of the lowest applicable rank, left
//! to right and non-overlapping (`aaaa` becomes `aa aa`, `aaa` becomes
//! `aa a`), before any occurrence of a higher rank. That is O(n log n)
//! per text where the rescan is O(n) per merge applied.
//!
//! **Training** keeps the count of every adjacent pair in the corpus
//! incrementally, in a `BTreeMap` beside the order it picks from: the
//! highest count of at least 2, the smallest pair on ties. Each pair also
//! keeps its sites, the positions where it formed. A merge visits only
//! its own pair's sites, left to right, and drops stale ones as the
//! encoder drops heap entries. At each site it takes away the at most
//! three windows through the two merged symbols and adds the at most two
//! through the new token; the changes are collected per pair and applied
//! once the pass ends. So after every merge the counts equal a full
//! recount of the merged corpus, which [`BpeTokenizer::train_recount`]
//! makes before each of its merges, and both learn the same merge list.

use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use crate::vocab::{byte_token, first_merge_id, Special};

/// A trained byte-level BPE tokenizer.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        Self::from_merges(Vec::new())
    }

    /// Train merges from a corpus until the vocabulary reaches `vocab_size`
    /// (specials + 256 bytes + merges), or no pair repeats.
    pub fn train(corpus: &[&str], vocab_size: usize) -> Self {
        let base = first_merge_id();
        let target_merges = vocab_size.saturating_sub(base as usize);
        let mut list = Symbols::default();
        for text in corpus {
            list.push_text(text);
        }
        // The corpus's windows enter the counts as a merge's new ones do.
        let mut counts = PairCounts::default();
        let mut fresh = Changes::new();
        for p in 0..list.sym.len() as u32 {
            if let Some(pair) = list.pair_at(p) {
                formed(&mut fresh, pair, p);
            }
        }
        counts.apply(fresh);
        let mut merges = Vec::with_capacity(target_merges);
        for rank in 0..target_merges {
            let Some(pair) = counts.best() else { break };
            let id = base + rank as u32;
            merges.push(pair);
            // Collected per pair, so the counts change once per pair.
            let mut changes = Changes::new();
            for p in counts.take_sites(pair) {
                if list.pair_at(p) != Some(pair) {
                    continue;
                }
                // The windows through the two merged symbols go...
                for w in [list.prev(p), p, list.next(p)] {
                    if let Some(old) = list.pair_at(w) {
                        changes.entry(old).or_default().0 -= 1;
                    }
                }
                // ...and the ones through the new token come.
                let left = list.merge_at(p, id);
                for w in [left, p] {
                    if let Some(new) = list.pair_at(w) {
                        formed(&mut changes, new, w);
                    }
                }
            }
            counts.apply(changes);
        }
        Self::from_merges(merges)
    }

    /// The oracle for [`train`](Self::train): the same pick rule, with
    /// every pair of the corpus recounted before each merge and every
    /// sequence rewritten after it. Only tests and the `inference_fast`
    /// gate call it.
    pub fn train_recount(corpus: &[&str], vocab_size: usize) -> Self {
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
        Self::from_merges(merges)
    }

    /// The tokenizer for a merge list in rank order, with its pair→id
    /// lookup.
    fn from_merges(merges: Vec<(u32, u32)>) -> Self {
        let merge_map = merges
            .iter()
            .enumerate()
            .map(|(rank, &pair)| (pair, first_merge_id() + rank as u32))
            .collect();
        BpeTokenizer { merges, merge_map }
    }

    /// Total vocabulary size: specials + bytes + merges.
    pub fn vocab_size(&self) -> usize {
        first_merge_id() as usize + self.merges.len()
    }

    /// Encode text to token ids (no specials added).
    pub fn encode(&self, text: &str) -> Vec<u32> {
        if self.merges.is_empty() || text.len() < 2 {
            return text.bytes().map(byte_token).collect();
        }
        let mut list = Symbols::default();
        list.push_text(text);
        // Merged ids order like ranks, so the heap keys on the id.
        let entry = |list: &Symbols, p: u32| {
            let pair = list.pair_at(p)?;
            self.merge_map.get(&pair).map(|&id| Reverse((id, p)))
        };
        let mut heap: BinaryHeap<_> = (0..text.len() as u32)
            .filter_map(|p| entry(&list, p))
            .collect();
        while let Some(Reverse((id, p))) = heap.pop() {
            let pair = self.merges[(id - first_merge_id()) as usize];
            if list.pair_at(p) != Some(pair) {
                continue;
            }
            let left = list.merge_at(p, id);
            heap.extend([left, p].into_iter().filter_map(|w| entry(&list, w)));
        }
        // The first symbol of a text is never absorbed.
        let mut ids = Vec::new();
        let mut p = 0;
        while p != NONE {
            ids.push(list.sym[p as usize]);
            p = list.next(p);
        }
        ids
    }

    /// The oracle for [`encode`](Self::encode): after every merge it
    /// applies, rescan all adjacent pairs for the lowest-rank one and
    /// merge all its occurrences left to right. Only tests and the
    /// `inference_fast` gate call it.
    pub fn encode_rescan(&self, text: &str) -> Vec<u32> {
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

/// `next`/`prev` of a symbol at either end of its text.
const NONE: u32 = u32::MAX;
/// `sym` of a position absorbed by the merge at its left neighbour.
const DEAD: u32 = u32::MAX;

/// Texts as doubly linked lists of symbols, all in one array. A merge
/// keeps its left position and kills its right one, so positions stay
/// stable, order like the text, and the first symbol of a text never
/// dies.
#[derive(Default)]
struct Symbols {
    sym: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
}

impl Symbols {
    /// Append `text`'s bytes as a list of its own.
    fn push_text(&mut self, text: &str) {
        let len = self.sym.len() + text.len();
        assert!(len < NONE as usize, "BPE input of 4 GiB or more");
        let (start, end) = (self.sym.len() as u32, len as u32);
        for (p, b) in (start..end).zip(text.bytes()) {
            self.sym.push(byte_token(b));
            self.prev.push(if p == start { NONE } else { p - 1 });
            self.next.push(if p + 1 == end { NONE } else { p + 1 });
        }
    }

    fn prev(&self, p: u32) -> u32 {
        self.prev[p as usize]
    }

    fn next(&self, p: u32) -> u32 {
        self.next[p as usize]
    }

    /// The pair whose left symbol is at `p`: `None` when `p` is `NONE`,
    /// dead, or the last symbol of its text.
    fn pair_at(&self, p: u32) -> Option<(u32, u32)> {
        let p = p as usize;
        let (&a, &q) = (self.sym.get(p)?, self.next.get(p)?);
        (a != DEAD && q != NONE).then(|| (a, self.sym[q as usize]))
    }

    /// Splice the symbol at `p` and its right neighbour into token `id`;
    /// returns `p`'s left neighbour (or `NONE`), whose pair changed too.
    fn merge_at(&mut self, p: u32, id: u32) -> u32 {
        let q = self.next(p);
        let r = self.next(q);
        self.sym[p as usize] = id;
        self.sym[q as usize] = DEAD;
        self.next[p as usize] = r;
        if r != NONE {
            self.prev[r as usize] = p;
        }
        self.prev(p)
    }
}

/// Per pair, a count change and the positions where the pair formed.
type Changes = BTreeMap<(u32, u32), (isize, Vec<u32>)>;

/// Record one window of `pair` that formed at position `p`.
fn formed(changes: &mut Changes, pair: (u32, u32), p: u32) {
    let e = changes.entry(pair).or_default();
    e.0 += 1;
    e.1.push(p);
}

/// The corpus's adjacent-pair counts, ordered the way
/// [`BpeTokenizer::train`] picks (the highest count first, the smallest
/// pair on ties), and each pair's sites: the positions where it formed,
/// stale once a merge changes the pair there.
#[derive(Default)]
struct PairCounts {
    count: BTreeMap<(u32, u32), usize>,
    order: BTreeSet<(Reverse<usize>, (u32, u32))>,
    sites: BTreeMap<(u32, u32), Vec<u32>>,
}

impl PairCounts {
    /// Apply a pass's changes, once per pair.
    fn apply(&mut self, changes: Changes) {
        for (pair, (delta, formed)) in changes {
            let old = self.count.get(&pair).copied().unwrap_or(0);
            let new = (old as isize + delta) as usize;
            if new != old {
                self.order.remove(&(Reverse(old), pair));
                if new > 0 {
                    self.order.insert((Reverse(new), pair));
                }
            }
            if new == 0 {
                // No window of the pair is left, so all its sites are stale.
                self.count.remove(&pair);
                self.sites.remove(&pair);
                continue;
            }
            self.count.insert(pair, new);
            match self.sites.entry(pair) {
                Entry::Vacant(e) => {
                    e.insert(formed);
                }
                Entry::Occupied(mut e) => e.get_mut().extend(formed),
            }
        }
    }

    /// The next merge: the most frequent pair that occurs at least
    /// twice, the smallest on ties.
    fn best(&self) -> Option<(u32, u32)> {
        let &(Reverse(count), pair) = self.order.first()?;
        (count >= 2).then_some(pair)
    }

    /// `pair`'s sites, in text order as a merge must visit them. They
    /// are pushed in that order: a pair forms only in the pass that makes
    /// the larger of its two tokens (both are bytes, or one is that
    /// pass's new token), and a pass walks left to right.
    fn take_sites(&mut self, pair: (u32, u32)) -> Vec<u32> {
        let at = self.sites.remove(&pair).unwrap_or_default();
        debug_assert!(at.is_sorted(), "sites of {pair:?} out of text order");
        at
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
    fn heap_encode_merges_overlapping_runs_left_to_right() {
        let tok = BpeTokenizer::train(&["aaaaaaaa"], first_merge_id() as usize + 2);
        let (a, aa, aaaa) = (byte_token(b'a'), first_merge_id(), first_merge_id() + 1);
        assert_eq!(tok.merges, [(a, a), (aa, aa)]);
        for (text, want) in [
            ("aaa", vec![aa, a]),
            ("aaaa", vec![aaaa]),
            ("aaaaa", vec![aaaa, a]),
            ("aaaaaaa", vec![aaaa, aa, a]),
        ] {
            assert_eq!(tok.encode(text), want, "{text}");
            assert_eq!(tok.encode_rescan(text), want, "{text}");
        }
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
