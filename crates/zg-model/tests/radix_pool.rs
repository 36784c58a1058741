//! Property tests for the radix-trie prefix pool: LCP lookup against a
//! naive oracle, lease/refcount soundness under arbitrary interleavings,
//! token-budget eviction that never touches leased entries, and
//! replay determinism.
//!
//! Caches are faked by setting `KvCache::pos` directly (no model
//! forwards), so thousands of trie operations run in milliseconds — the
//! pool only ever checks the position invariant, and bitwise KV
//! correctness is pinned separately by `split_prefill_bit_identity` and
//! the zg-serve bit-exactness suite.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_model::{CausalLm, KvCache, ModelConfig, PrefixBlock, PrefixPool};

fn tiny_lm() -> CausalLm {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut cfg = ModelConfig::mistral_miniature(40);
    cfg.n_layers = 1;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_kv_heads = 1;
    cfg.d_ff = 32;
    cfg.max_seq_len = 64;
    CausalLm::new(cfg, &mut rng)
}

/// A cache faked to position `len` without running the model.
fn fake_cache(lm: &CausalLm, len: usize) -> KvCache {
    let mut c = lm.new_cache();
    c.pos = len;
    c
}

/// Token sequences over a tiny alphabet, so random keys share prefixes
/// often enough to exercise edge splits and deep LCP walks.
fn keys() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..4, 1..12), 1..12)
}

fn probes() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..4, 1..14), 1..16)
}

/// The oracle `acquire` is checked against: the longest inserted key
/// that is a *strict* prefix of the probe.
fn oracle_longest_strict_prefix(inserted: &[Vec<u32>], probe: &[u32]) -> Option<usize> {
    inserted
        .iter()
        .filter(|k| k.len() < probe.len() && probe[..k.len()] == k[..])
        .map(|k| k.len())
        .max()
}

/// The oracle for `shared_prefix_len`: the longest common prefix with
/// any inserted key, clamped to a strict prefix of the probe.
fn oracle_lcp(inserted: &[Vec<u32>], probe: &[u32]) -> usize {
    inserted
        .iter()
        .map(|k| {
            k.iter()
                .zip(probe.iter())
                .take_while(|(a, b)| a == b)
                .count()
        })
        .max()
        .unwrap_or(0)
        .min(probe.len().saturating_sub(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `acquire` returns exactly the longest cached strict prefix, and
    /// `shared_prefix_len` exactly the structural LCP, for arbitrary key
    /// sets and probes (budget large enough that nothing evicts).
    #[test]
    fn acquire_matches_naive_longest_prefix_oracle(keys in keys(), probes in probes()) {
        let lm = tiny_lm();
        let pool = PrefixPool::new(1 << 20);
        for k in &keys {
            drop(pool.insert(k, fake_cache(&lm, k.len())));
        }
        for p in &probes {
            let got = pool.acquire(p).map(|(block, len)| {
                prop_assert_eq!(block.fork().pos, len);
                Ok(len)
            }).transpose()?;
            let want = oracle_longest_strict_prefix(&keys, p);
            prop_assert!(
                got == want,
                "probe {p:?}: got {got:?}, oracle {want:?}, keys {keys:?}"
            );
            let lcp = pool.shared_prefix_len(p);
            let want_lcp = oracle_lcp(&keys, p);
            prop_assert!(
                lcp == want_lcp,
                "structural LCP for probe {p:?}: got {lcp}, oracle {want_lcp}"
            );
        }
    }

    /// Lease/refcount soundness: across arbitrary interleavings of
    /// inserts, acquires, and out-of-order releases, the pool's live
    /// lease count tracks the held handles exactly, every held lease
    /// stays forkable, and full release leaves the pool quiescent.
    #[test]
    fn lease_refcounts_are_sound(keys in keys(), script in prop::collection::vec(0usize..96, 0..64)) {
        let lm = tiny_lm();
        let pool = PrefixPool::new(1 << 20);
        // Each held lease with the prefix length it covers.
        let mut held: Vec<(PrefixBlock, usize)> = Vec::new();
        // Each script step packs an operation (mod 3) and an index pick.
        for step in script {
            let (op, pick) = (step % 3, step / 3);
            match op {
                // Insert a key (lease held).
                0 => {
                    let k = &keys[pick % keys.len()];
                    held.push((pool.insert(k, fake_cache(&lm, k.len())), k.len()));
                }
                // Acquire with a probe extending a key (lease on a hit).
                1 => {
                    let mut p = keys[pick % keys.len()].clone();
                    p.push(39);
                    if let Some((block, len)) = pool.acquire(&p) {
                        prop_assert!(len < p.len());
                        held.push((block, len));
                    }
                }
                // Release from the middle (non-LIFO).
                _ => {
                    if !held.is_empty() {
                        held.remove(pick % held.len());
                    }
                }
            }
            prop_assert_eq!(pool.stats().live_leases, held.len());
            for (lease, len) in &held {
                prop_assert_eq!(lease.fork().pos, *len);
            }
        }
        held.clear();
        pool.assert_quiescent();
        prop_assert_eq!(pool.stats().live_leases, 0);
    }

    /// Token-budget eviction under pressure never drops a leased entry,
    /// and once every lease is released the resident total is back under
    /// budget.
    #[test]
    fn eviction_spares_leases_and_respects_budget(
        keys in keys(),
        budget in 4usize..24,
        hold_mask in 0u32..(1 << 12),
    ) {
        let lm = tiny_lm();
        let pool = PrefixPool::new(budget);
        let mut held: Vec<(PrefixBlock, usize)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let lease = pool.insert(k, fake_cache(&lm, k.len()));
            if hold_mask & (1 << (i % 12)) != 0 {
                held.push((lease, k.len()));
            }
            // Every held lease survives whatever eviction just ran: its
            // entry is still resident and forks at the right position.
            for (lease, len) in &held {
                prop_assert_eq!(lease.fork().pos, *len);
            }
        }
        held.clear();
        // A final (unleased) insert triggers enforcement with nothing
        // pinned: the pool must fit its budget again.
        drop(pool.insert(&[0, 1, 2], fake_cache(&lm, 3)));
        let s = pool.stats();
        prop_assert!(
            s.resident_tokens <= budget,
            "resident {} exceeds budget {budget} with no leases", s.resident_tokens
        );
        prop_assert_eq!(s.live_leases, 0);
        pool.assert_quiescent();
    }

    /// Replaying one operation sequence on two fresh pools gives
    /// identical hit/miss outcomes and identical final statistics —
    /// pool behaviour is a pure function of the op sequence.
    #[test]
    fn replay_is_deterministic(keys in keys(), script in prop::collection::vec(0usize..64, 0..48)) {
        let lm = tiny_lm();
        let run = || {
            let pool = PrefixPool::new(32);
            let mut outcomes = Vec::new();
            for &step in &script {
                let (op, pick) = (step % 2, step / 2);
                match op {
                    0 => {
                        let k = &keys[pick % keys.len()];
                        drop(pool.insert(k, fake_cache(&lm, k.len())));
                    }
                    _ => {
                        let mut p = keys[pick % keys.len()].clone();
                        p.push(39);
                        outcomes.push(pool.acquire(&p).map(|(_, len)| len));
                    }
                }
            }
            (outcomes, pool.stats())
        };
        let (oa, sa) = run();
        let (ob, sb) = run();
        prop_assert!(oa == ob, "hit/miss sequences must replay identically");
        prop_assert!(sa == sb, "stats must replay identically");
    }
}
