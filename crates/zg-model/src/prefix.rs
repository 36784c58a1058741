//! Token-level radix-trie KV prefix cache: longest-common-prefix reuse
//! of KV blocks across requests, generalizing [`KvCache::fork`] from
//! per-candidate to cross-request, cross-template sharing.
//!
//! In the serving workload every user prompt renders a long shared
//! instruction/template prefix followed by a short per-borrower suffix.
//! The old pool reused a KV block only on an **exact full-key match**,
//! so two prompts sharing 95% of their tokens prefilled from scratch.
//! This pool stores prefixes in a radix trie over token ids:
//! [`PrefixPool::acquire`] returns a leased block for the *longest
//! cached prefix* of the request's token ids, the caller prefills only
//! the remaining suffix, and re-inserts the extended prefix so the next
//! request with a longer shared prefix hits deeper.
//! [`PrefixPool::shared_prefix_len`] additionally exposes the structural
//! LCP with the trie (how far the walk matched, entries or not), which
//! the serving engine uses to seed an entry exactly at the divergence
//! point between borrowers — the shared template boundary discovers
//! itself from traffic.
//!
//! **Bitwise transparency.** Prefilling `prompt[..k]` and then
//! `prompt[k..]` produces bit-identical KV state and logits to one
//! prefill over the whole prompt: every per-position projection, RoPE
//! rotation, and norm depends only on that position's absolute index,
//! and masked attention entries (`-1e9` additive mask) underflow to an
//! exact `0.0` in the softmax, so chunk boundaries never change the
//! visible-key sums — including when the sliding window has already
//! trimmed keys out of the stored cache. The `split_prefill_bit_identity`
//! test below pins this for multi-way splits, which is what lets the
//! serving path reuse an arbitrary-length LCP and stay exact-`f64`
//! identical to the offline single-prefill evaluator.
//!
//! **Eviction** is least-recently-used under a **token budget** (not an
//! entry count): each cached entry is charged its prefix length in
//! tokens, and unleased entries are evicted LRU-first until the
//! resident total fits the budget. Leased entries are never evicted —
//! the pool may transiently exceed its budget while everything is
//! leased. Children are ordered in `BTreeMap`s and the recency stamp is
//! a monotonic tick, so every pool decision is a pure function of the
//! operation sequence and traces stay byte-identical across runs.
//!
//! The pool is deliberately single-threaded (`Rc`-based, like the
//! tensors inside [`KvCache`]): a parallel server gives each worker
//! replica its own pool, which keeps reuse hits deterministic per
//! worker and requires no locking on the decode hot path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::lm::KvCache;

/// Aggregate pool statistics (monotonic counters plus live state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// `acquire` calls that found a cached prefix.
    pub hits: u64,
    /// `acquire` calls that found nothing reusable.
    pub misses: u64,
    /// Prompt tokens served from cache across all hits (the LCP sum).
    pub hit_tokens: u64,
    /// Prompt tokens presented to `acquire` across all lookups (the
    /// denominator of the prefix-hit-token rate).
    pub lookup_tokens: u64,
    /// Entries inserted (including replacements of an existing key).
    pub inserts: u64,
    /// Entries evicted to respect the token budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Token-budget charge of the resident entries (sum of prefix
    /// lengths; an upper bound on stored KV when a sliding window trims).
    pub resident_tokens: usize,
    /// Outstanding leases across all entries.
    pub live_leases: usize,
}

impl PrefixStats {
    /// Fraction of presented prompt tokens served from cache, in
    /// `[0, 1]` (`0` when nothing was looked up).
    pub fn hit_token_rate(&self) -> f64 {
        if self.lookup_tokens == 0 {
            0.0
        } else {
            self.hit_tokens as f64 / self.lookup_tokens as f64
        }
    }
}

/// A cached KV state at one trie node, covering the tokens from the
/// root to that node.
struct Entry {
    cache: KvCache,
    refs: usize,
    /// Monotonic recency stamp (updated on acquire), for deterministic
    /// least-recently-used eviction.
    last_used: u64,
}

/// One radix-trie node. The edge *into* the node is labelled with
/// `label` (a non-empty token run for every node except the root);
/// `depth` is the total prefix length root..=label end.
struct Node {
    label: Vec<u32>,
    parent: usize,
    /// First token of each child's label -> child node index. BTreeMap
    /// keeps traversal order deterministic.
    children: BTreeMap<u32, usize>,
    entry: Option<Entry>,
    depth: usize,
    /// Slot recycled onto the free list (never traversed).
    freed: bool,
}

const ROOT: usize = 0;

struct Inner {
    nodes: Vec<Node>,
    free: Vec<usize>,
    budget_tokens: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    hit_tokens: u64,
    lookup_tokens: u64,
    inserts: u64,
    evictions: u64,
    entries: usize,
    resident_tokens: usize,
    live_leases: usize,
}

impl Inner {
    /// Walk the trie as far as `prompt` matches it. Returns
    /// `(node, matched, deepest_entry)` where `matched` is the
    /// structural LCP in tokens and `deepest_entry` is the deepest node
    /// on the walk holding an entry with `depth < prompt.len()` (strict
    /// prefix: at least one prompt token is always left to prefill).
    fn walk(&self, prompt: &[u32]) -> (usize, usize, Option<usize>) {
        let mut cur = ROOT;
        let mut matched = 0usize;
        let mut best: Option<usize> = None;
        loop {
            // INVARIANT: cur is always a live node index — it starts at the
            // root and only follows child links, which are kept in sync with
            // the arena.
            let node = &self.nodes[cur];
            if node.entry.is_some() && node.depth > 0 && node.depth < prompt.len() {
                best = Some(cur);
            }
            let next_tok = match prompt.get(matched) {
                Some(t) => *t,
                None => break,
            };
            let child = match node.children.get(&next_tok) {
                Some(c) => *c,
                None => break,
            };
            // INVARIANT: children only hold live node indices.
            let label = &self.nodes[child].label;
            let avail = &prompt[matched..];
            let common = label
                .iter()
                .zip(avail.iter())
                .take_while(|(a, b)| a == b)
                .count();
            matched += common;
            if common < label.len() {
                // Fell off mid-edge: the child's full prefix is not a
                // prefix of the prompt, and no deeper node can be.
                break;
            }
            cur = child;
        }
        (cur, matched, best)
    }

    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Find (creating / edge-splitting as needed) the node whose prefix
    /// is exactly `key`, and return its index. Splitting an edge keeps
    /// the deeper node's index (and depth) stable, so outstanding leases
    /// keep referring to the same logical prefix.
    fn node_for(&mut self, key: &[u32]) -> usize {
        let mut cur = ROOT;
        let mut matched = 0usize;
        while matched < key.len() {
            // INVARIANT: key is non-empty and matched < key.len() inside the
            // loop, so the index is in bounds.
            let next_tok = key[matched];
            let child = match self.nodes[cur].children.get(&next_tok) {
                Some(c) => *c,
                None => {
                    let leaf = self.alloc(Node {
                        label: key[matched..].to_vec(),
                        parent: cur,
                        children: BTreeMap::new(),
                        entry: None,
                        depth: key.len(),
                        freed: false,
                    });
                    self.nodes[cur].children.insert(next_tok, leaf);
                    return leaf;
                }
            };
            let label = self.nodes[child].label.clone();
            let avail = &key[matched..];
            let common = label
                .iter()
                .zip(avail.iter())
                .take_while(|(a, b)| a == b)
                .count();
            if common == label.len() {
                matched += common;
                cur = child;
                continue;
            }
            // Split the edge: `mid` takes the shared run, `child` keeps
            // the tail (index, entry, and children untouched).
            let mid = self.alloc(Node {
                label: label[..common].to_vec(),
                parent: cur,
                children: BTreeMap::new(),
                entry: None,
                depth: matched + common,
                freed: false,
            });
            self.nodes[child].label = label[common..].to_vec();
            self.nodes[child].parent = mid;
            // INVARIANT: common < label.len() here, so the tail label is
            // non-empty and has a first token.
            let tail_tok = self.nodes[child].label[0];
            self.nodes[mid].children.insert(tail_tok, child);
            self.nodes[cur].children.insert(next_tok, mid);
            matched += common;
            cur = mid;
        }
        cur
    }

    /// Remove the entry at `idx` and prune the now-useless chain of
    /// entry-less, childless nodes above it.
    fn remove_entry(&mut self, idx: usize) {
        // INVARIANT: callers pass live entry-holding node indices.
        let depth = self.nodes[idx].depth;
        self.nodes[idx].entry = None;
        self.entries -= 1;
        self.resident_tokens -= depth;
        let mut cur = idx;
        while cur != ROOT && self.nodes[cur].entry.is_none() && self.nodes[cur].children.is_empty()
        {
            let parent = self.nodes[cur].parent;
            // INVARIANT: a non-root node's label is non-empty by
            // construction, so it has a first token keying it in its parent.
            let first = self.nodes[cur].label[0];
            self.nodes[parent].children.remove(&first);
            self.nodes[cur].freed = true;
            self.nodes[cur].label = Vec::new();
            self.free.push(cur);
            cur = parent;
        }
    }

    /// Evict unleased entries, least-recently-used first, until the
    /// resident token total fits the budget. Leased entries are never
    /// evicted (the pool may transiently exceed its budget while every
    /// entry is leased).
    fn enforce_budget(&mut self) {
        while self.resident_tokens > self.budget_tokens {
            let victim = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| !n.freed)
                .filter_map(|(i, n)| n.entry.as_ref().map(|e| (i, e)))
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    self.remove_entry(i);
                    self.evictions += 1;
                    zg_trace::counter_add("prefix.evictions", 1.0);
                }
                None => break,
            }
        }
        zg_trace::gauge_set("prefix.resident_tokens", self.resident_tokens as f64);
    }
}

/// A radix-trie pool of refcounted prefix KV blocks.
///
/// Cloning shares the pool (it is a handle, like the `Rc` tensors it
/// stores).
#[derive(Clone)]
pub struct PrefixPool {
    inner: Rc<RefCell<Inner>>,
}

impl PrefixPool {
    /// A pool retaining at most `budget_tokens` tokens of unleased
    /// cached prefixes (each entry is charged its prefix length).
    pub fn new(budget_tokens: usize) -> PrefixPool {
        assert!(
            budget_tokens > 0,
            "prefix pool token budget must be positive"
        );
        PrefixPool {
            inner: Rc::new(RefCell::new(Inner {
                nodes: vec![Node {
                    label: Vec::new(),
                    parent: ROOT,
                    children: BTreeMap::new(),
                    entry: None,
                    depth: 0,
                    freed: false,
                }],
                free: Vec::new(),
                budget_tokens,
                tick: 0,
                hits: 0,
                misses: 0,
                hit_tokens: 0,
                lookup_tokens: 0,
                inserts: 0,
                evictions: 0,
                entries: 0,
                resident_tokens: 0,
                live_leases: 0,
            })),
        }
    }

    /// Look up the longest cached prefix of `prompt` — the deepest
    /// entry on the trie walk whose prefix is a *strict* prefix of
    /// `prompt` — and lease it. Returns the lease and the matched
    /// prefix length, or `None` (a miss) when nothing reusable is
    /// cached. The strictness guarantee means at least one prompt token
    /// always remains for the caller to prefill, so the caller always
    /// obtains fresh next-token logits for the full prompt.
    pub fn acquire(&self, prompt: &[u32]) -> Option<(PrefixBlock, usize)> {
        let mut inner = self.inner.borrow_mut();
        inner.lookup_tokens += prompt.len() as u64;
        let (_, _, best) = inner.walk(prompt);
        match best {
            Some(idx) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner.hits += 1;
                inner.live_leases += 1;
                // INVARIANT: walk only reports live entry-holding nodes and
                // the map is not touched in between.
                let node = &mut inner.nodes[idx];
                let len = node.depth;
                // INVARIANT: walk only reports entry-holding nodes (see above).
                let e = node.entry.as_mut().expect("walk reported an entry");
                e.refs += 1;
                e.last_used = tick;
                inner.hit_tokens += len as u64;
                zg_trace::counter_add("prefix.hits", 1.0);
                zg_trace::counter_add("prefix.hit_tokens", len as f64);
                zg_trace::hist_record("prefix.lcp_tokens", len as f64);
                drop(inner);
                Some((
                    PrefixBlock {
                        pool: Rc::clone(&self.inner),
                        node: idx,
                    },
                    len,
                ))
            }
            None => {
                inner.misses += 1;
                zg_trace::counter_add("prefix.misses", 1.0);
                zg_trace::hist_record("prefix.lcp_tokens", 0.0);
                None
            }
        }
    }

    /// Structural LCP between `prompt` and the trie: how many leading
    /// prompt tokens the trie already spells out (entries or not),
    /// clamped to a strict prefix of `prompt`. The serving engine seeds
    /// an entry at this boundary — it is exactly where this prompt
    /// diverges from previously-seen traffic, i.e. the shared template
    /// prefix as discovered from the requests themselves.
    pub fn shared_prefix_len(&self, prompt: &[u32]) -> usize {
        let inner = self.inner.borrow();
        let (_, matched, _) = inner.walk(prompt);
        matched.min(prompt.len().saturating_sub(1))
    }

    /// Insert the KV state of a freshly prefilled prefix under `key`,
    /// returning a lease on it. Inserting over an existing key replaces
    /// its cache while preserving outstanding leases (they only pin the
    /// refcount, not the tensors).
    pub fn insert(&self, key: &[u32], cache: KvCache) -> PrefixBlock {
        assert!(!key.is_empty(), "prefix key must be non-empty");
        assert_eq!(
            cache.pos,
            key.len(),
            "cache position must equal the prefix length"
        );
        let mut inner = self.inner.borrow_mut();
        inner.tick += 1;
        let tick = inner.tick;
        inner.inserts += 1;
        inner.live_leases += 1;
        let idx = inner.node_for(key);
        let node = &mut inner.nodes[idx];
        match node.entry.as_mut() {
            Some(e) => {
                e.cache = cache;
                e.refs += 1;
                e.last_used = tick;
            }
            None => {
                node.entry = Some(Entry {
                    cache,
                    refs: 1,
                    last_used: tick,
                });
                inner.entries += 1;
                inner.resident_tokens += key.len();
            }
        }
        inner.enforce_budget();
        zg_trace::counter_add("prefix.inserts", 1.0);
        PrefixBlock {
            pool: Rc::clone(&self.inner),
            node: idx,
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> PrefixStats {
        let inner = self.inner.borrow();
        PrefixStats {
            hits: inner.hits,
            misses: inner.misses,
            hit_tokens: inner.hit_tokens,
            lookup_tokens: inner.lookup_tokens,
            inserts: inner.inserts,
            evictions: inner.evictions,
            entries: inner.entries,
            resident_tokens: inner.resident_tokens,
            live_leases: inner.live_leases,
        }
    }

    /// Assert the pool is quiescent: no outstanding leases anywhere.
    /// The serving engine calls this between requests in its leak
    /// audits — a lease that outlives its request is a refcount leak
    /// exactly like a stray autograd tape node.
    pub fn assert_quiescent(&self) {
        let inner = self.inner.borrow();
        assert_eq!(
            inner.live_leases, 0,
            "prefix pool has {} outstanding lease(s)",
            inner.live_leases
        );
        debug_assert!(inner
            .nodes
            .iter()
            .filter(|n| !n.freed)
            .all(|n| n.entry.as_ref().is_none_or(|e| e.refs == 0)));
    }
}

/// A refcounted lease on one pooled prefix entry. Dropping the lease
/// releases the reference; the entry itself stays cached (subject to
/// token-budget LRU eviction) for the next request sharing the prefix.
pub struct PrefixBlock {
    pool: Rc<RefCell<Inner>>,
    node: usize,
}

impl PrefixBlock {
    /// Fork the cached KV state for private extension. The fork is a
    /// cheap per-layer `Rc` copy ([`KvCache::fork`]); extending it never
    /// mutates the pooled entry. No next-token logits are kept: a lease
    /// covers a strict prefix of its prompt, so the caller always
    /// prefills at least one more token and gets fresh logits.
    pub fn fork(&self) -> KvCache {
        let inner = self.pool.borrow();
        // INVARIANT: a live lease pins its entry — eviction skips entries
        // with refs > 0 and drop is the only place refs reach 0 — and edge
        // splits never move or renumber entry-holding nodes.
        let e = inner.nodes[self.node]
            .entry
            .as_ref()
            // INVARIANT: the lease above pins the entry resident.
            .expect("leased entry resident");
        e.cache.fork()
    }
}

impl Drop for PrefixBlock {
    fn drop(&mut self) {
        let mut inner = self.pool.borrow_mut();
        inner.live_leases = inner.live_leases.saturating_sub(1);
        if let Some(e) = inner.nodes[self.node].entry.as_mut() {
            e.refs = e.refs.saturating_sub(1);
        }
        inner.enforce_budget();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::lm::CausalLm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_lm(window: usize) -> CausalLm {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut cfg = ModelConfig::mistral_miniature(40);
        cfg.n_layers = 2;
        cfg.d_model = 16;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        cfg.max_seq_len = 64;
        cfg.sliding_window = window;
        CausalLm::new(cfg, &mut rng)
    }

    fn toks(n: usize, salt: usize) -> Vec<u32> {
        (0..n).map(|i| ((i * 7 + salt * 13) % 40) as u32).collect()
    }

    /// The foundational claim of the whole prefix-sharing design:
    /// prefilling in chunks — two-way and three-way splits — is
    /// bit-identical to one chunk, within and beyond the sliding window.
    #[test]
    fn split_prefill_bit_identity() {
        for window in [64usize, 5] {
            let lm = tiny_lm(window);
            let prompt = toks(24, 9);
            let mut whole = lm.new_cache();
            let a = lm.prefill(&prompt, &mut whole);
            for split in [1usize, 8, 23] {
                let mut parts = lm.new_cache();
                let _ = lm.prefill(&prompt[..split], &mut parts);
                let b = lm.prefill(&prompt[split..], &mut parts);
                assert_eq!(a, b, "logits window={window} split={split}");
                let conts: Vec<Vec<u32>> = vec![toks(2, 11), toks(4, 12)];
                let refs: Vec<&[u32]> = conts.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    lm.score_continuations_with_cache(&whole, &a, &refs),
                    lm.score_continuations_with_cache(&parts, &b, &refs),
                    "scores window={window} split={split}"
                );
            }
            // Three-way split: the LCP-reuse path prefills prefix,
            // divergence-to-extended, then the final token.
            let mut parts = lm.new_cache();
            let _ = lm.prefill(&prompt[..6], &mut parts);
            let _ = lm.prefill(&prompt[6..23], &mut parts);
            let c = lm.prefill(&prompt[23..], &mut parts);
            assert_eq!(a, c, "three-way split window={window}");
        }
    }

    #[test]
    fn acquire_miss_then_hit_roundtrip() {
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(4096);
        let prompt = toks(12, 1);
        assert!(pool.acquire(&prompt).is_none(), "cold pool misses");
        assert_eq!(pool.shared_prefix_len(&prompt), 0);

        let mut cache = lm.new_cache();
        lm.prefill(&prompt[..6], &mut cache);
        let lease = pool.insert(&prompt[..6], cache);
        drop(lease);

        let (block, len) = pool.acquire(&prompt).expect("warm pool hits");
        assert_eq!(len, 6);
        let mut fork = block.fork();
        assert_eq!(fork.pos, 6);
        let rest = lm.prefill(&prompt[6..], &mut fork);

        // Exactness: the pooled path reproduces the single-prefill bits.
        let mut whole = lm.new_cache();
        let full = lm.prefill(&prompt, &mut whole);
        assert_eq!(rest, full);

        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.hit_tokens, 6);
        assert_eq!(s.lookup_tokens, 24);
        assert_eq!(s.resident_tokens, 6);
    }

    #[test]
    fn acquire_never_matches_whole_prompt() {
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(4096);
        let prompt = toks(8, 2);
        let mut cache = lm.new_cache();
        lm.prefill(&prompt, &mut cache);
        let _lease = pool.insert(&prompt, cache);
        // The full prompt is cached, but acquire demands a strict prefix.
        assert!(pool.acquire(&prompt).is_none());
        // Likewise the structural LCP is clamped strictly below.
        assert_eq!(pool.shared_prefix_len(&prompt), prompt.len() - 1);
        // A longer prompt sharing the 8-token prefix does match.
        let longer = toks(10, 2);
        assert!(pool.acquire(&longer).is_some());
    }

    /// The radix upgrade itself: a cached prefix is found even when no
    /// stored key exactly prefixes the query at its full length — the
    /// trie returns the longest *common* prefix entry, where the old
    /// exact-match pool scored a miss.
    #[test]
    fn lcp_lookup_reuses_across_diverging_suffixes() {
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(4096);
        let a: Vec<u32> = (0..16).collect();
        let mut cache = lm.new_cache();
        lm.prefill(&a, &mut cache);
        drop(pool.insert(&a, cache));
        // Borrower B shares 10 tokens then diverges: structural LCP is
        // 10, but no *entry* lives at 10 yet, so acquire misses while
        // shared_prefix_len pinpoints the divergence boundary.
        let mut b: Vec<u32> = (0..10).collect();
        b.extend([30u32, 31, 32, 33]);
        assert!(pool.acquire(&b).is_none());
        assert_eq!(pool.shared_prefix_len(&b), 10);
        // Seeding an entry at the divergence point (what the serving
        // engine does) turns every later same-template request into a hit.
        let mut cache = lm.new_cache();
        lm.prefill(&b[..10], &mut cache);
        drop(pool.insert(&b[..10], cache));
        let (_, len) = pool.acquire(&b).expect("header entry hits");
        assert_eq!(len, 10);
        // And the original full-prefix entry still wins for prompts that
        // extend it.
        let mut a_long = a.clone();
        a_long.push(39);
        let (_, len) = pool.acquire(&a_long).expect("deep entry hits");
        assert_eq!(len, 16);
    }

    #[test]
    fn acquire_prefers_longest_prefix() {
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(4096);
        let prompt = toks(12, 3);
        for k in [3usize, 7] {
            let mut c = lm.new_cache();
            lm.prefill(&prompt[..k], &mut c);
            drop(pool.insert(&prompt[..k], c));
        }
        let (_, len) = pool.acquire(&prompt).expect("hit");
        assert_eq!(len, 7, "longest cached prefix wins");
    }

    #[test]
    fn refcounts_pin_entries_against_eviction() {
        let lm = tiny_lm(64);
        // Budget fits two 6-token entries, not three.
        let pool = PrefixPool::new(12);
        let mk = |salt: usize| {
            let p = toks(6, salt);
            let mut c = lm.new_cache();
            lm.prefill(&p, &mut c);
            (p, c)
        };
        let (p1, c1) = mk(1);
        let (p2, c2) = mk(2);
        let (p3, c3) = mk(3);
        let lease1 = pool.insert(&p1, c1);
        let lease2 = pool.insert(&p2, c2);
        let lease3 = pool.insert(&p3, c3);
        // All three leased: nothing evictable, pool exceeds its budget.
        assert_eq!(pool.stats().entries, 3);
        assert_eq!(pool.stats().live_leases, 3);
        assert_eq!(pool.stats().resident_tokens, 18);
        // Releasing the oldest makes it the (only) eviction victim.
        drop(lease1);
        assert_eq!(pool.stats().entries, 2);
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().resident_tokens, 12);
        assert!(pool.acquire(&toks(7, 1)).is_none(), "entry 1 evicted");
        assert!(pool.acquire(&toks(7, 2)).is_some(), "entry 2 resident");
        drop(lease2);
        drop(lease3);
        pool.assert_quiescent();
    }

    #[test]
    fn lru_eviction_is_recency_ordered() {
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(12);
        for salt in 1..=2usize {
            let p = toks(6, salt);
            let mut c = lm.new_cache();
            lm.prefill(&p, &mut c);
            drop(pool.insert(&p, c));
        }
        // Touch entry 1 so entry 2 becomes least recently used.
        drop(pool.acquire(&toks(8, 1)).expect("hit"));
        let p3 = toks(6, 3);
        let mut c = lm.new_cache();
        lm.prefill(&p3, &mut c);
        drop(pool.insert(&p3, c));
        assert!(pool.acquire(&toks(8, 1)).is_some(), "recently used kept");
        assert!(pool.acquire(&toks(8, 2)).is_none(), "LRU entry evicted");
        assert!(pool.acquire(&toks(8, 3)).is_some());
    }

    /// Eviction under a token budget prunes trie structure too: after a
    /// deep entry is evicted, its chain of entry-less nodes is removed
    /// and the slots are recycled by later inserts.
    #[test]
    fn eviction_prunes_and_recycles_nodes() {
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(8);
        let p1 = toks(8, 1);
        let mut c = lm.new_cache();
        lm.prefill(&p1, &mut c);
        drop(pool.insert(&p1, c));
        assert_eq!(pool.stats().resident_tokens, 8);
        // Budget 8: inserting another 8-token entry evicts the first.
        let p2 = toks(8, 2);
        let mut c = lm.new_cache();
        lm.prefill(&p2, &mut c);
        drop(pool.insert(&p2, c));
        assert_eq!(pool.stats().entries, 1);
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.acquire(&toks(9, 1)).is_none());
        assert!(pool.acquire(&toks(9, 2)).is_some());
        // The pruned structure no longer contributes to the shared LCP.
        assert_eq!(pool.shared_prefix_len(&toks(9, 1)), 0);
    }

    #[test]
    fn concurrent_style_interleaved_release_is_leak_free() {
        // Many overlapping leases on the same entry, released in an
        // interleaved (non-LIFO) order — the pattern a batch of
        // concurrent requests produces.
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(64);
        let p = toks(10, 4);
        let mut c = lm.new_cache();
        lm.prefill(&p[..5], &mut c);
        let seed_lease = pool.insert(&p[..5], c);
        let mut leases: Vec<PrefixBlock> =
            (0..8).map(|_| pool.acquire(&p).expect("hit").0).collect();
        assert_eq!(pool.stats().live_leases, 9);
        // Interleaved release: evens first, then odds, then the seed.
        for i in (0..8).step_by(2).chain((1..8).step_by(2)) {
            // Forks taken mid-release must stay valid.
            let fork = leases[i].fork();
            assert_eq!(fork.pos, 5);
            leases.push(pool.acquire(&p).expect("still resident").0);
        }
        leases.clear();
        drop(seed_lease);
        pool.assert_quiescent();
        assert_eq!(pool.stats().entries, 1, "entry survives lease churn");
    }

    /// Edge splits keep outstanding leases valid: inserting a key that
    /// splits the edge below a leased entry must not move the leased
    /// node, and forks taken after the split stay correct.
    #[test]
    fn edge_split_preserves_outstanding_leases() {
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(4096);
        let deep: Vec<u32> = (0..12).collect();
        let mut c = lm.new_cache();
        lm.prefill(&deep, &mut c);
        let lease = pool.insert(&deep, c);
        // Insert a key that forces a split inside the 12-token edge.
        let shallow: Vec<u32> = (0..5).collect();
        let mut c = lm.new_cache();
        lm.prefill(&shallow, &mut c);
        drop(pool.insert(&shallow, c));
        // The original lease still forks the deep entry's KV state: one
        // more token on the fork reproduces a whole-prompt prefill.
        let mut probe = deep.clone();
        probe.push(39);
        let mut fork = lease.fork();
        assert_eq!(fork.pos, 12);
        let next = lm.prefill(&probe[12..], &mut fork);
        let mut whole = lm.new_cache();
        assert_eq!(next, lm.prefill(&probe, &mut whole));
        // Both entries are found at their lengths.
        let (_, len) = pool.acquire(&probe).expect("deep hit");
        assert_eq!(len, 12);
        let probe6: Vec<u32> = (0..6).collect();
        let (_, len) = pool.acquire(&probe6).expect("shallow hit");
        assert_eq!(len, 5);
        drop(lease);
        pool.assert_quiescent();
    }

    #[test]
    #[should_panic(expected = "outstanding lease")]
    fn quiescence_audit_catches_leaked_lease() {
        let lm = tiny_lm(64);
        let pool = PrefixPool::new(64);
        let p = toks(6, 5);
        let mut c = lm.new_cache();
        lm.prefill(&p, &mut c);
        let _leak = pool.insert(&p, c);
        pool.assert_quiescent();
    }
}
