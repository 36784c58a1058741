//! Bit-exactness of the serving path against the offline evaluator.
//!
//! The server's contract is that deploying the model changes *nothing*
//! about its numbers: for every request, the served `(answer, p)` must
//! be exact-`f64` equal to `ZiGongModel::evaluate_item` on the same
//! item — across worker counts, request interleavings, prefix sharing
//! (hits and misses), sliding-window overflow, and the truncation
//! fallback path — and, with op fast paths off offline, to the composite
//! attention path the served fused kernel must reproduce. These tests
//! pin that contract.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_data::german;
use zg_model::{CausalLm, ModelConfig};
use zg_serve::{EngineConfig, Reply, Request, ServeConfig, Server, ZiGongEngine};
use zg_tokenizer::BpeTokenizer;
use zg_trace::ManualClock;
use zg_zigong::{eval_items, EvalItem, ZiGongModel, ANSWER_TOKENS, SCORE_RESERVE};

/// A tiny model whose prompt budget is `max_seq_len`. The sliding
/// window (48) is far below the rendered prompt length (~700 byte-level
/// tokens), so the wide configuration exercises prefix sharing *beyond*
/// the attention window.
fn model(max_seq_len: usize) -> ZiGongModel {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    // Vocab matches the byte-level tokenizer exactly (4 specials + 256
    // bytes) so every greedily decoded id is decodable.
    let mut cfg = ModelConfig::mistral_miniature(260);
    cfg.n_layers = 1;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_kv_heads = 1;
    cfg.d_ff = 32;
    cfg.max_seq_len = max_seq_len;
    cfg.sliding_window = 48;
    let lm = CausalLm::new(cfg, &mut rng);
    ZiGongModel::new(lm, BpeTokenizer::byte_level(), max_seq_len, "serve-exact")
}

fn offline_eval(m: &mut ZiGongModel, items: &[EvalItem<'_>]) -> Vec<(String, f64)> {
    items.iter().map(|it| m.evaluate_item(it)).collect()
}

/// Serve all items through a fresh engine, submitting in the order given
/// by `order` (a permutation of item indices), and return the served
/// `(answer, p)` per *item* index. Requests are tagged with one shared
/// template key and served under a reorder window, so prefix-aware
/// grouping and affinity routing are always in play — the exactness
/// contract must hold straight through them. Returns the aggregate pool
/// stats alongside the scores.
fn serve_eval_with_budget(
    m: &ZiGongModel,
    items: &[EvalItem<'_>],
    workers: usize,
    order: &[usize],
    pool_budget_tokens: usize,
) -> (Vec<(String, f64)>, zg_model::PrefixStats) {
    let engine = ZiGongEngine::new(
        m.spec(),
        EngineConfig {
            workers,
            pool_budget_tokens,
        },
    );
    let clock = ManualClock::new();
    let cfg = ServeConfig {
        queue_capacity: items.len().max(1),
        max_batch: 3,
        default_timeout: None,
        reorder_window: 2,
    };
    let mut server = Server::new(engine, cfg, clock.clock());
    for &i in order {
        let ex = &items[i].example;
        let id = server
            .submit(
                Request::score(
                    ex.prompt.clone(),
                    ex.candidates[0].clone(),
                    ex.candidates[1].clone(),
                )
                .with_template(0),
            )
            .expect("capacity fits all items");
        assert_eq!(id as usize, order.iter().position(|&j| j == i).unwrap());
    }
    let completions = server.run_until_idle();
    assert_eq!(completions.len(), items.len());
    let mut out = vec![(String::new(), 0.0); items.len()];
    for c in completions {
        // Ids are assigned in submission order, so id k served order[k].
        let item_idx = order[c.id as usize];
        match c.result.expect("no timeouts configured") {
            Reply::Scored { answer, p_positive } => out[item_idx] = (answer, p_positive),
            Reply::Generated { .. } => panic!("score request got a generate reply"),
        }
    }
    let (audit, stats) = server.engine_mut().audit();
    audit.expect("no leaked prefix leases after serving");
    assert_eq!(stats.live_leases, 0);
    server.shutdown();
    (out, stats)
}

fn serve_eval(
    m: &ZiGongModel,
    items: &[EvalItem<'_>],
    workers: usize,
    order: &[usize],
) -> Vec<(String, f64)> {
    serve_eval_with_budget(m, items, workers, order, 1 << 14).0
}

fn assert_bit_equal(served: &[(String, f64)], offline: &[(String, f64)], label: &str) {
    for (i, (s, o)) in served.iter().zip(offline).enumerate() {
        assert_eq!(s.0, o.0, "{label}: answer text diverged on item {i}");
        assert_eq!(
            s.1.to_bits(),
            o.1.to_bits(),
            "{label}: p_positive diverged on item {i}: served {} vs offline {}",
            s.1,
            o.1
        );
    }
}

/// Wide context: prompts fit untruncated, so the server runs the
/// shared-prefill path with prefix-pool reuse — and must still be
/// bit-identical to the offline single-prefill evaluator for every
/// worker count and submission order.
#[test]
fn served_scores_bit_identical_to_offline_shared_path() {
    let mut m = model(1024);
    let ds = german(16, 5);
    let refs: Vec<_> = ds.records.iter().take(5).collect();
    let items = eval_items(&ds, &refs);
    // Confirm we are on the shared path (no truncation split) and beyond
    // the sliding window.
    for it in &items {
        let p_ans = m.prompt_ids(&it.example.prompt, ANSWER_TOKENS);
        assert_eq!(p_ans, m.prompt_ids(&it.example.prompt, SCORE_RESERVE));
        assert!(p_ans.len() > 48, "prompt must exceed the sliding window");
    }
    let offline = offline_eval(&mut m, &items);
    let identity: Vec<usize> = (0..items.len()).collect();
    for workers in [1usize, 2, 3, 5] {
        let served = serve_eval(&m, &items, workers, &identity);
        assert_bit_equal(&served, &offline, &format!("workers={workers}"));
    }
}

/// The replicas run the fused sliding-window attention kernel (op fast
/// paths on, their default); the offline evaluator with op fast paths
/// off runs the composite attention path, its oracle. Prompts run past
/// the sliding window, so chunks after a cached prefix drop keys, and
/// the replies must still match bit for bit.
#[test]
fn served_scores_bit_identical_to_composite_attention_oracle() {
    let mut m = model(1024);
    let ds = german(16, 9);
    let refs: Vec<_> = ds.records.iter().take(4).collect();
    let items = eval_items(&ds, &refs);
    let prev = zg_tensor::set_op_fast_paths(false);
    let oracle = offline_eval(&mut m, &items);
    zg_tensor::set_op_fast_paths(prev);
    let identity: Vec<usize> = (0..items.len()).collect();
    for workers in [1usize, 2] {
        let served = serve_eval(&m, &items, workers, &identity);
        assert_bit_equal(&served, &oracle, &format!("oracle workers={workers}"));
    }
}

/// Interleaved submission orders change batch composition and pool
/// hit/miss sequences but never the served bits.
#[test]
fn served_scores_independent_of_request_interleaving() {
    let mut m = model(1024);
    let ds = german(16, 6);
    let refs: Vec<_> = ds.records.iter().take(4).collect();
    let items = eval_items(&ds, &refs);
    let offline = offline_eval(&mut m, &items);
    let n = items.len();
    let reversed: Vec<usize> = (0..n).rev().collect();
    let evens_then_odds: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
    for order in [&reversed, &evens_then_odds] {
        for workers in [1usize, 3] {
            let served = serve_eval(&m, &items, workers, order);
            assert_bit_equal(
                &served,
                &offline,
                &format!("workers={workers} order={order:?}"),
            );
        }
    }
}

/// Narrow context: the two prompt budgets truncate differently, so the
/// server must take the offline evaluator's independent-paths fallback —
/// and match it exactly. Two extra prompts sit on either side of the
/// switch: `max_seq_len − 9` tokens still take the shared path through
/// the prefix pool, `max_seq_len − 8` tokens the fallback.
#[test]
fn served_scores_bit_identical_on_truncation_fallback() {
    let mut m = model(64);
    let ds = german(12, 7);
    let refs: Vec<_> = ds.records.iter().take(5).collect();
    let mut items = eval_items(&ds, &refs);
    for it in &items {
        assert_ne!(
            m.prompt_ids(&it.example.prompt, ANSWER_TOKENS),
            m.prompt_ids(&it.example.prompt, SCORE_RESERVE),
            "narrow budget must force the fallback path"
        );
    }
    let shared_max = m.max_seq_len - (SCORE_RESERVE + 1);
    for (len, shared) in [(shared_max, true), (shared_max + 1, false)] {
        // The byte-level tokenizer encodes one token per byte.
        let mut example = items[0].example.clone();
        example.prompt = example.prompt[example.prompt.len() - len..].to_string();
        assert_eq!(m.tokenizer.encode(&example.prompt).len(), len);
        assert_eq!(
            m.prompt_ids(&example.prompt, ANSWER_TOKENS)
                == m.prompt_ids(&example.prompt, SCORE_RESERVE),
            shared,
            "{len}-token prompt"
        );
        items.push(EvalItem {
            record: items[0].record,
            example,
        });
    }
    let offline = offline_eval(&mut m, &items);
    let identity: Vec<usize> = (0..items.len()).collect();
    for workers in [1usize, 2] {
        let (served, stats) = serve_eval_with_budget(&m, &items, workers, &identity, 1 << 14);
        assert_bit_equal(&served, &offline, &format!("fallback workers={workers}"));
        // Only the shared path looks the prompt up in the prefix pool.
        assert_eq!(
            stats.hits + stats.misses,
            1,
            "workers={workers}: exactly one prompt takes the shared path"
        );
    }
}

/// Generation requests reproduce `generate_answer` byte for byte —
/// including a budget that decodes past the context, which ends at
/// context capacity rather than panicking the worker.
#[test]
fn served_generation_matches_offline_greedy_decode() {
    let mut m = model(256);
    let prompts = [
        ("status of checking account: none, purpose: education", 8),
        ("duration in months: 13", 8),
        ("q", 8),
        ("credit amount: 2500", 300),
    ];
    let offline: Vec<String> = prompts
        .iter()
        .map(|&(p, max_new)| m.generate_answer(p, max_new))
        .collect();
    for workers in [1usize, 3] {
        let engine = ZiGongEngine::new(
            m.spec(),
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
        );
        let clock = ManualClock::new();
        let mut server = Server::new(engine, ServeConfig::default(), clock.clock());
        for &(p, max_new) in &prompts {
            server.submit(Request::generate(p, max_new)).unwrap();
        }
        let done = server.run_until_idle();
        assert_eq!(done.len(), prompts.len());
        for c in done {
            match c.result.unwrap() {
                Reply::Generated { text } => {
                    assert_eq!(text, offline[c.id as usize], "workers={workers}")
                }
                Reply::Scored { .. } => panic!("generate request got a score reply"),
            }
        }
        server.shutdown();
    }
}

/// The prefix pool actually engages under template traffic (hits and
/// inserts both non-zero), and heavy reuse leaves no leases and no
/// autograd tape nodes behind.
#[test]
fn prefix_reuse_engages_and_leaks_nothing() {
    let m = model(1024);
    let ds = german(16, 8);
    let refs: Vec<_> = ds.records.iter().take(4).collect();
    let items = eval_items(&ds, &refs);
    let tape_before = zg_tensor::live_tape_nodes();
    // Inline engine (workers=1) runs on this thread, so the thread-local
    // tape-node counter observes the whole serving path.
    let engine = ZiGongEngine::new(
        m.spec(),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let clock = ManualClock::new();
    let mut server = Server::new(engine, ServeConfig::default(), clock.clock());
    // Two passes over the same items: the second pass is all pool hits.
    for pass in 0..2 {
        for it in &items {
            let ex = &it.example;
            server
                .submit(Request::score(
                    ex.prompt.clone(),
                    ex.candidates[0].clone(),
                    ex.candidates[1].clone(),
                ))
                .unwrap();
        }
        let done = server.run_until_idle();
        assert_eq!(done.len(), items.len(), "pass {pass}");
    }
    let (audit, stats) = server.engine_mut().audit();
    audit.expect("quiescent pool after load");
    assert!(stats.inserts >= 1, "template prefix must be inserted");
    assert!(
        stats.hits as usize >= items.len(),
        "second pass must hit the pool: {stats:?}"
    );
    assert_eq!(stats.live_leases, 0);
    assert_eq!(
        zg_tensor::live_tape_nodes(),
        tape_before,
        "serving must leave the autograd tape at its baseline"
    );
    server.shutdown();
}

/// Eviction pressure: a pool budget far below one prompt's working set
/// forces evictions mid-stream, yet leased blocks survive (requests in
/// flight hold multiple leases each while the pool is over budget), the
/// served bits stay identical to offline, and the final audit is clean
/// with the resident total back under budget.
#[test]
fn eviction_pressure_keeps_leases_and_bits() {
    let mut m = model(1024);
    let ds = german(16, 5);
    let refs: Vec<_> = ds.records.iter().take(5).collect();
    let items = eval_items(&ds, &refs);
    let offline = offline_eval(&mut m, &items);
    let identity: Vec<usize> = (0..items.len()).collect();
    // ~700-token prompts against a 256-token budget: every request's
    // inserts alone exceed the budget while leased.
    for workers in [1usize, 3] {
        let (served, stats) = serve_eval_with_budget(&m, &items, workers, &identity, 256);
        assert_bit_equal(&served, &offline, &format!("pressure workers={workers}"));
        assert!(
            stats.evictions > 0,
            "budget below the working set must evict: {stats:?}"
        );
        assert!(
            stats.resident_tokens <= 256 * workers.max(1),
            "per-pool residency must settle under budget: {stats:?}"
        );
        assert_eq!(stats.live_leases, 0, "clean leak audit under pressure");
    }
}

/// Trace determinism with the *real* engine: for each worker count, two
/// same-seed serving runs emit byte-identical JSONL traces — pool
/// hit/miss/eviction counters, LCP histograms, affinity routing and all.
#[test]
fn serve_traces_bit_identical_across_reruns() {
    let m = model(1024);
    let ds = german(16, 4);
    let refs: Vec<_> = ds.records.iter().take(3).collect();
    let items = eval_items(&ds, &refs);
    let identity: Vec<usize> = (0..items.len()).collect();
    for workers in [1usize, 2, 3, 5] {
        let traced = || {
            let clock = zg_trace::ManualClock::new();
            let tracer = zg_trace::Tracer::with_clock(clock.clock());
            let guard = tracer.install("serve-exact");
            // Engine construction forks worker streams under the tracer.
            let (_, stats) = serve_eval_with_budget(&m, &items, workers, &identity, 1 << 14);
            drop(guard);
            (tracer.finish().to_jsonl(), stats)
        };
        let (a, sa) = traced();
        let (b, sb) = traced();
        assert!(!a.is_empty(), "serving must emit trace events");
        assert_eq!(sa, sb, "workers={workers}: pool stats must reproduce");
        assert_eq!(a, b, "workers={workers}: traces must be byte-identical");
    }
}
