//! Evaluation harness: every Table 2 model implements
//! [`CreditClassifier`], producing a raw text answer (parsed uniformly,
//! so Miss is measured identically for all models) and a positive-class
//! score (for KS/AUC).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use zg_data::{Dataset, Record};
use zg_eval::{evaluate_binary, ks_statistic, roc_auc, EvalResult, Prediction};
use zg_influence::par_map_init;
use zg_instruct::{parse_binary, render_classification, InstructExample};
use zg_model::{CausalLm, KvCache, LmSpec};
use zg_tokenizer::{BpeTokenizer, Special};

/// Token headroom reserved for greedy answer decoding: the budget
/// [`ZiGongModel::evaluate_item`], [`CreditClassifier::answer`], and the
/// serving path all use, so their prompt encodings (and therefore their
/// KV prefills) coincide.
pub const ANSWER_TOKENS: usize = 6;

/// Token headroom reserved when scoring the two candidate answers
/// (each candidate is at most this many tokens in every template).
pub const SCORE_RESERVE: usize = 8;

/// One evaluation item: the raw record (for feature-based expert systems)
/// plus its rendered instruction example (for LMs).
pub struct EvalItem<'a> {
    /// Source record.
    pub record: &'a Record,
    /// Rendered prompt/answer pair.
    pub example: InstructExample,
}

/// A model evaluated in the Table 2 benchmark.
pub trait CreditClassifier {
    /// Display name (Table 2 column).
    fn name(&self) -> String;
    /// Raw text answer to the item's prompt.
    fn answer(&mut self, item: &EvalItem) -> String;
    /// Positive-class score in [0, 1] (drives KS / AUC).
    fn score(&mut self, item: &EvalItem) -> f64;
}

/// Metrics for one (model, dataset) cell, extending the paper's Acc/F1/
/// Miss with the KS and AUC used in Figure 2 and the risk-control
/// discussion.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CellResult {
    /// Acc / F1 / Miss.
    pub eval: EvalResult,
    /// KS statistic of the score distribution.
    pub ks: f64,
    /// ROC-AUC of the scores.
    pub auc: f64,
}

/// Build evaluation items from a dataset's records.
pub fn eval_items<'a>(ds: &Dataset, records: &[&'a Record]) -> Vec<EvalItem<'a>> {
    records
        .iter()
        .map(|r| EvalItem {
            record: r,
            example: render_classification(ds, r),
        })
        .collect()
}

/// Evaluate one classifier over items; answers are parsed with the shared
/// Miss-aware parser.
pub fn evaluate_classifier(model: &mut dyn CreditClassifier, items: &[EvalItem<'_>]) -> CellResult {
    assert!(!items.is_empty(), "no evaluation items");
    let mut preds = Vec::with_capacity(items.len());
    let mut labels = Vec::with_capacity(items.len());
    let mut scores = Vec::with_capacity(items.len());
    for item in items {
        let text = model.answer(item);
        let neg = &item.example.candidates[0];
        let pos = &item.example.candidates[1];
        preds.push(parse_binary(&text, neg, pos));
        labels.push(item.record.label);
        scores.push(model.score(item));
    }
    CellResult {
        eval: evaluate_binary(&preds, &labels),
        ks: ks_statistic(&scores, &labels),
        auc: roc_auc(&scores, &labels),
    }
}

/// The trained ZiGong model (LM + tokenizer) as a classifier.
pub struct ZiGongModel {
    /// The fine-tuned causal LM.
    pub lm: CausalLm,
    /// Matching tokenizer.
    pub tokenizer: BpeTokenizer,
    /// Prompt budget (sequences are left-truncated to fit).
    pub max_seq_len: usize,
    /// Display name.
    pub display_name: String,
    rng: StdRng,
}

impl ZiGongModel {
    /// Wrap a trained model.
    pub fn new(lm: CausalLm, tokenizer: BpeTokenizer, max_seq_len: usize, name: &str) -> Self {
        ZiGongModel {
            lm,
            tokenizer,
            max_seq_len,
            display_name: name.to_string(),
            rng: StdRng::seed_from_u64(0xD1D1),
        }
    }

    /// Encode a prompt with BOS, left-truncating to leave `reserve` tokens
    /// of headroom.
    pub fn prompt_ids(&self, prompt: &str, reserve: usize) -> Vec<u32> {
        self.truncate(&self.tokenizer.encode(prompt), reserve)
    }

    /// BOS plus the tail of an encoded prompt that leaves `reserve` tokens
    /// of headroom.
    fn truncate(&self, ids: &[u32], reserve: usize) -> Vec<u32> {
        let budget = self.max_seq_len.saturating_sub(reserve + 1).max(1);
        let start = ids.len().saturating_sub(budget);
        let mut out = Vec::with_capacity(budget + 1);
        out.push(Special::Bos.id());
        // INVARIANT: start <= ids.len() by the saturating_sub above.
        out.extend(&ids[start..]);
        out
    }

    /// Greedy generation of an answer string.
    pub fn generate_answer(&mut self, prompt: &str, max_new: usize) -> String {
        let ids = self.prompt_ids(prompt, max_new);
        let out = self
            .lm
            .generate(&ids, max_new, 0.0, Special::Eos.id(), &mut self.rng);
        self.tokenizer.decode(&out)
    }

    /// P(positive answer) normalized over the two candidates — the score
    /// used for KS, mirroring how a risk model outputs a probability.
    ///
    /// Both candidates share the prompt, so they are scored through one
    /// prefill via [`CausalLm::score_continuations`] rather than two
    /// independent full passes.
    pub fn positive_probability(&self, example: &InstructExample) -> f64 {
        let prompt = self.prompt_ids(&example.prompt, SCORE_RESERVE);
        let neg = self
            .tokenizer
            .encode(&format!(" {}", example.candidates[0]));
        let pos = self
            .tokenizer
            .encode(&format!(" {}", example.candidates[1]));
        let scores = self.lm.score_continuations(&prompt, &[&neg, &pos]);
        two_way_probability(&scores, neg.len(), pos.len())
    }

    /// Answer *and* score one item: [`ZiGongModel::decide`] with a fresh
    /// KV cache for the prompt prefill.
    pub fn evaluate_item(&mut self, item: &EvalItem) -> (String, f64) {
        let _span = zg_trace::span("eval.item");
        let ex = &item.example;
        self.decide(
            &ex.prompt,
            &ex.candidates[0],
            &ex.candidates[1],
            |lm, ids| {
                let mut cache = lm.new_cache();
                let logits = lm.prefill(ids, &mut cache);
                (cache, logits)
            },
            |_| {},
        )
    }

    /// One credit decision: the greedy answer to `prompt` and P(`positive`)
    /// over the two candidate answers — the routine both the offline
    /// evaluator and the serving engine run.
    ///
    /// The prompt is encoded once and truncated for both budgets: the
    /// answer reserves [`ANSWER_TOKENS`] tokens of headroom, the scoring
    /// [`SCORE_RESERVE`]. When the prompt fits untruncated under both
    /// (at most `max_seq_len − SCORE_RESERVE − 1` tokens) the two
    /// encodings coincide, and one prefill — obtained from `prefill`,
    /// which returns the prompt's KV cache and next-token logits — serves
    /// the greedy decode (on a forked cache) and both candidate scorings.
    /// Longer prompts truncate differently per budget and fall back to
    /// their own prefills, exactly as [`CreditClassifier::answer`] and
    /// [`CreditClassifier::score`] compute them. Either way the text and
    /// score are bit-identical to those two independent calls.
    ///
    /// `stage` is called as each step completes: [`DecisionStage::Prefill`]
    /// (shared path only), then [`DecisionStage::Decode`] and
    /// [`DecisionStage::Score`].
    pub fn decide(
        &mut self,
        prompt: &str,
        negative: &str,
        positive: &str,
        prefill: impl FnOnce(&CausalLm, &[u32]) -> (KvCache, Vec<f32>),
        mut stage: impl FnMut(DecisionStage),
    ) -> (String, f64) {
        // Debug-mode sanitizer: one decision must not leave autograd tape
        // nodes behind (evaluation and serving run thousands of them).
        let _leak = zg_tensor::GraphLeakGuard::new("ZiGongModel::decide");
        let ids = self.tokenizer.encode(prompt);
        let p_ans = self.truncate(&ids, ANSWER_TOKENS);
        let p_score = self.truncate(&ids, SCORE_RESERVE);
        let neg = self.tokenizer.encode(&format!(" {negative}"));
        let pos = self.tokenizer.encode(&format!(" {positive}"));
        if p_ans != p_score {
            let out =
                self.lm
                    .generate(&p_ans, ANSWER_TOKENS, 0.0, Special::Eos.id(), &mut self.rng);
            let answer = self.tokenizer.decode(&out);
            stage(DecisionStage::Decode);
            let scores = self.lm.score_continuations(&p_score, &[&neg, &pos]);
            stage(DecisionStage::Score);
            return (answer, two_way_probability(&scores, neg.len(), pos.len()));
        }
        let (cache, logits) = prefill(&self.lm, &p_ans);
        stage(DecisionStage::Prefill);
        // Greedy decode on a fork — the same sampling as `generate` at
        // temperature 0.
        let mut fork = cache.fork();
        let mut row = logits.clone();
        let mut out = Vec::new();
        for _ in 0..ANSWER_TOKENS {
            let next = zg_model::sample_logits(&row, 0.0, &mut self.rng);
            if next == Special::Eos.id() {
                break;
            }
            out.push(next);
            // The last answer token's logits would never be sampled.
            if out.len() == ANSWER_TOKENS {
                break;
            }
            row = self.lm.step(next, &mut fork);
        }
        let answer = self.tokenizer.decode(&out);
        stage(DecisionStage::Decode);
        let scores = self
            .lm
            .score_continuations_with_cache(&cache, &logits, &[&neg, &pos]);
        stage(DecisionStage::Score);
        (answer, two_way_probability(&scores, neg.len(), pos.len()))
    }
}

/// A step of [`ZiGongModel::decide`], reported to its stage hook once the
/// step completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionStage {
    /// The shared prompt prefill.
    Prefill,
    /// The greedy answer decode.
    Decode,
    /// Scoring both candidate answers.
    Score,
}

/// Softmax over the two candidates' continuation log-probs `[neg, pos]`
/// (average per-token log-prob to remove length bias) — P(positive).
fn two_way_probability(scores: &[f32], neg_len: usize, pos_len: usize) -> f64 {
    // INVARIANT: callers pass one score per candidate (2 here).
    let (lp_neg, lp_pos) = (scores[0] as f64, scores[1] as f64);
    let a = lp_pos / pos_len as f64;
    let b = lp_neg / neg_len as f64;
    let m = a.max(b);
    let (ea, eb) = ((a - m).exp(), (b - m).exp());
    ea / (ea + eb)
}

impl CreditClassifier for ZiGongModel {
    fn name(&self) -> String {
        self.display_name.clone()
    }

    fn answer(&mut self, item: &EvalItem) -> String {
        self.generate_answer(&item.example.prompt, ANSWER_TOKENS)
    }

    fn score(&mut self, item: &EvalItem) -> f64 {
        self.positive_probability(&item.example)
    }
}

/// A `Send` blueprint of a [`ZiGongModel`]: an [`LmSpec`] of the
/// underlying `CausalLm` plus the tokenizer and display metadata.
///
/// `CausalLm` tensors are `Rc`-backed and cannot cross threads, so the
/// parallel evaluator ships this plain-data spec to each worker and
/// rebuilds a private replica there. The model half delegates to
/// [`LmSpec`] (shared with the trainer's data-parallel workers), which
/// restores every parameter — base weights *and* adapter matrices — by
/// name, recreating adapter slots first.
///
/// The spec is `Clone` (plain data throughout) so long-lived engines —
/// zg-serve's persistent worker pool — can hand one copy to each worker
/// thread at spawn time and rebuild replicas without re-snapshotting.
#[derive(Clone)]
pub struct ZiGongSpec {
    lm: LmSpec,
    tokenizer: BpeTokenizer,
    max_seq_len: usize,
    display_name: String,
}

impl ZiGongModel {
    /// Snapshot this model into a thread-shippable [`ZiGongSpec`].
    pub fn spec(&self) -> ZiGongSpec {
        ZiGongSpec {
            lm: LmSpec::snapshot(&self.lm),
            tokenizer: self.tokenizer.clone(),
            max_seq_len: self.max_seq_len,
            display_name: self.display_name.clone(),
        }
    }
}

impl ZiGongSpec {
    /// Rebuild an exact replica of the snapshotted model.
    pub fn build(&self) -> ZiGongModel {
        ZiGongModel::new(
            self.lm.build(),
            self.tokenizer.clone(),
            self.max_seq_len,
            &self.display_name,
        )
    }
}

/// Evaluate a ZiGong model over items with a worker pool (`workers = 0`
/// means all available cores, `1` is serial).
///
/// Items are independent — the model is read-only during evaluation and
/// greedy decoding never consumes the RNG — so the item axis is split
/// into contiguous chunks, each worker evaluates its chunk on a private
/// replica built from [`ZiGongModel::spec`], and outputs are concatenated
/// in chunk order. The resulting prediction/score vectors are *identical*
/// to the serial ones, so every metric (Acc/F1/Miss/KS/AUC) is
/// bit-identical for any worker count (pinned by the determinism test).
pub fn evaluate_zigong(model: &ZiGongModel, items: &[EvalItem<'_>], workers: usize) -> CellResult {
    assert!(!items.is_empty(), "no evaluation items");
    let _span = zg_trace::span_arg("eval.zigong", items.len() as i64);
    zg_trace::counter_add("eval.items", items.len() as f64);
    let workers = if workers == 0 {
        zg_tensor::available_threads()
    } else {
        workers
    };
    let spec = model.spec();
    let per_item: Vec<(Prediction, bool, f64)> = par_map_init(
        items,
        workers,
        || spec.build(),
        |m, item| {
            // Guard on the worker thread: the node counter is thread-local.
            let _leak = zg_tensor::GraphLeakGuard::new("evaluate_zigong item");
            let (text, score) = m.evaluate_item(item);
            let neg = &item.example.candidates[0];
            let pos = &item.example.candidates[1];
            let pred = parse_binary(&text, neg, pos);
            (pred, item.record.label, score)
        },
    );
    zg_trace::gauge_set(
        "tensor.live_tape_nodes",
        zg_tensor::live_tape_nodes() as f64,
    );
    let mut preds = Vec::with_capacity(items.len());
    let mut labels = Vec::with_capacity(items.len());
    let mut scores = Vec::with_capacity(items.len());
    for (p, l, s) in per_item {
        preds.push(p);
        labels.push(l);
        scores.push(s);
    }
    CellResult {
        eval: evaluate_binary(&preds, &labels),
        ks: ks_statistic(&scores, &labels),
        auc: roc_auc(&scores, &labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zg_data::german;

    /// A classifier that always answers the negative class.
    struct AlwaysNegative;
    impl CreditClassifier for AlwaysNegative {
        fn name(&self) -> String {
            "AlwaysNegative".into()
        }
        fn answer(&mut self, item: &EvalItem) -> String {
            item.example.candidates[0].clone()
        }
        fn score(&mut self, _item: &EvalItem) -> f64 {
            0.0
        }
    }

    /// An oracle that reads the label (upper bound sanity check).
    struct Oracle;
    impl CreditClassifier for Oracle {
        fn name(&self) -> String {
            "Oracle".into()
        }
        fn answer(&mut self, item: &EvalItem) -> String {
            let i = item.record.label as usize;
            item.example.candidates[i].clone()
        }
        fn score(&mut self, item: &EvalItem) -> f64 {
            item.record.label as u8 as f64
        }
    }

    /// Always answers garbage.
    struct Gibberish;
    impl CreditClassifier for Gibberish {
        fn name(&self) -> String {
            "Gibberish".into()
        }
        fn answer(&mut self, _item: &EvalItem) -> String {
            "zxqw".into()
        }
        fn score(&mut self, _item: &EvalItem) -> f64 {
            0.5
        }
    }

    fn tiny_zigong() -> ZiGongModel {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use zg_model::ModelConfig;
        let mut rng = StdRng::seed_from_u64(1);
        let mut cfg = ModelConfig::mistral_miniature(280);
        cfg.n_layers = 1;
        cfg.d_model = 16;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        let lm = CausalLm::new(cfg, &mut rng);
        ZiGongModel::new(lm, BpeTokenizer::byte_level(), 64, "tiny")
    }

    #[test]
    fn prompt_ids_truncates_from_left() {
        let m = tiny_zigong();
        let long = "x".repeat(500);
        let ids = m.prompt_ids(&long, 8);
        assert!(ids.len() <= 64 - 8);
        assert_eq!(ids[0], Special::Bos.id());
        // Short prompts pass through untruncated.
        let short = m.prompt_ids("hi", 8);
        assert_eq!(short.len(), 3); // BOS + 2 bytes
    }

    #[test]
    fn positive_probability_in_unit_interval() {
        let m = tiny_zigong();
        let ds = german(5, 2);
        let ex = render_classification(&ds, &ds.records[0]);
        let p = m.positive_probability(&ex);
        assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    #[test]
    fn generate_answer_returns_decodable_text() {
        let mut m = tiny_zigong();
        let out = m.generate_answer("Question: good or bad? Answer:", 4);
        // Untrained model emits arbitrary (but valid) text of bounded length.
        assert!(out.len() <= 4 * 4, "unexpectedly long: {out:?}");
    }

    #[test]
    fn oracle_scores_perfectly() {
        let ds = german(200, 1);
        let (_, test) = ds.split(0.3);
        let items = eval_items(&ds, &test);
        let r = evaluate_classifier(&mut Oracle, &items);
        assert_eq!(r.eval.acc, 1.0);
        assert_eq!(r.eval.f1, 1.0);
        assert_eq!(r.eval.miss, 0.0);
        assert!((r.ks - 1.0).abs() < 1e-9);
        assert!((r.auc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn always_negative_matches_prior() {
        let ds = german(400, 2);
        let (_, test) = ds.split(0.25);
        let items = eval_items(&ds, &test);
        let neg_rate = test.iter().filter(|r| !r.label).count() as f64 / test.len() as f64;
        let r = evaluate_classifier(&mut AlwaysNegative, &items);
        assert!((r.eval.acc - neg_rate).abs() < 1e-9);
        assert_eq!(r.eval.f1, 0.0);
    }

    #[test]
    fn gibberish_is_all_miss() {
        let ds = german(50, 3);
        let (_, test) = ds.split(0.2);
        let items = eval_items(&ds, &test);
        let r = evaluate_classifier(&mut Gibberish, &items);
        assert_eq!(r.eval.miss, 1.0);
        assert_eq!(r.eval.acc, 0.0);
    }

    #[test]
    fn items_align_with_records() {
        let ds = german(30, 4);
        let (_, test) = ds.split(0.3);
        let items = eval_items(&ds, &test);
        for item in &items {
            assert_eq!(item.example.label, Some(item.record.label));
        }
    }

    /// A tiny model with LoRA adapters attached and non-trivial adapter
    /// weights, so the spec round-trip must carry the adapter path too.
    fn tiny_zigong_with_adapters() -> ZiGongModel {
        let mut m = tiny_zigong();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        zg_lora::attach(&mut m.lm, &zg_lora::LoraConfig::default(), &mut rng);
        for (name, p) in zg_lora::lora_params(&m.lm) {
            if name.ends_with("lora_b") {
                let d: Vec<f32> = (0..p.numel()).map(|i| 0.02 * (i % 5) as f32).collect();
                p.set_data(&d);
            }
        }
        m
    }

    #[test]
    fn spec_roundtrip_rebuilds_exact_replica() {
        let m = tiny_zigong_with_adapters();
        let replica = m.spec().build();
        assert_eq!(replica.display_name, m.display_name);
        assert_eq!(replica.max_seq_len, m.max_seq_len);
        assert_eq!(replica.lm.params().len(), m.lm.params().len());
        // Forward pass on the replica is bit-identical (exact weight copy,
        // identical float-op order), adapters included.
        let a = m.lm.forward(&[1, 9, 4, 2], 1, 4).to_vec();
        let b = replica.lm.forward(&[1, 9, 4, 2], 1, 4).to_vec();
        assert_eq!(a, b, "replica forward must be bit-identical");
    }

    #[test]
    fn eval_loop_is_tape_leak_clean() {
        let mut m = tiny_zigong_with_adapters();
        let ds = german(20, 8);
        let (_, test) = ds.split(0.3);
        let items = eval_items(&ds, &test);
        let before = zg_tensor::live_tape_nodes();
        for item in &items {
            let _ = m.evaluate_item(item);
        }
        assert_eq!(
            zg_tensor::live_tape_nodes(),
            before,
            "serial eval loop must leave the autograd tape at its baseline"
        );
        // The parallel path asserts the same per item via the guards
        // inside evaluate_zigong's worker closure.
        let _ = evaluate_zigong(&m, &items, 2);
    }

    #[test]
    fn parallel_eval_bit_identical_to_serial() {
        let mut m = tiny_zigong_with_adapters();
        let ds = german(60, 8);
        let (_, test) = ds.split(0.3);
        let items = eval_items(&ds, &test);
        let serial = evaluate_classifier(&mut m, &items);
        for workers in [1usize, 2, 3, 5] {
            let par = evaluate_zigong(&m, &items, workers);
            assert_eq!(par.eval.acc, serial.eval.acc, "{workers} workers");
            assert_eq!(par.eval.f1, serial.eval.f1, "{workers} workers");
            assert_eq!(par.eval.miss, serial.eval.miss, "{workers} workers");
            assert_eq!(par.ks, serial.ks, "{workers} workers");
            assert_eq!(par.auc, serial.auc, "{workers} workers");
        }
    }
}
