//! Trace capture, overhead audit, and report rendering for the `zg-trace`
//! observability layer.
//!
//! Two modes:
//!
//! - `trace_report --report <trace.jsonl>`: parse an existing trace and
//!   print its self-time report (span tree, per-phase totals, counters).
//! - `trace_report [--quick]` (capture mode): race the SFT + evaluation
//!   workload untraced against the same workload under a wall-clock
//!   tracer, round by round, then
//!
//!   1. check the traced run's losses, final weights, and eval metrics
//!      are **bit-identical** to the untraced run in every round
//!      (observation must be behaviorally free),
//!   2. check tracing overhead stays under the pinned threshold,
//!   3. write `results/zigong_trace.jsonl` (the trace),
//!      `results/zigong_trace_chrome.json` (chrome://tracing view),
//!      `results/trace_report.txt` (rendered report), and
//!      `results/trace_overhead.json` (the overhead audit).
//!
//! The binary exits nonzero, once every gate has run, on a parity break,
//! an overhead breach or a trace that does not survive its JSONL
//! roundtrip, so CI can run `trace_report --quick` as a regression gate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_bench::{arg_value, cell_bits, quick_mode, race, write_result, Gates};
use zg_model::{CausalLm, ModelConfig};
use zg_trace::{render_report, Trace, Tracer};
use zg_zigong::{
    eval_items, evaluate_zigong, tokenize_all, train_sft, train_tokenizer, CellResult, TrainConfig,
    TrainOrder, ZiGongModel,
};

/// Pinned ceiling on tracing overhead: traced wall time may exceed the
/// untraced baseline by at most this fraction (best-of-reps vs
/// best-of-reps). Spans fire a handful of times per micro-batch, so the
/// real cost is far below this; the margin absorbs scheduler noise.
const OVERHEAD_THRESHOLD_FRAC: f64 = 0.05;

/// Everything the workload computes — compared bitwise between the
/// traced and untraced runs.
struct Outputs {
    losses: Vec<f64>,
    weights: Vec<Vec<f32>>,
    cell: CellResult,
}

impl Outputs {
    fn bit_identical(&self, other: &Outputs) -> bool {
        self.losses == other.losses
            && self.weights == other.weights
            && cell_bits(&self.cell) == cell_bits(&other.cell)
    }
}

fn workload(samples: &[zg_zigong::Sample], vocab: usize, quick: bool) -> Outputs {
    let mut rng = StdRng::seed_from_u64(42);
    let mut mcfg = ModelConfig::mistral_miniature(vocab);
    mcfg.n_layers = 1;
    mcfg.d_model = 32;
    mcfg.n_heads = 4;
    mcfg.n_kv_heads = 2;
    mcfg.d_ff = 64;
    let mut lm = CausalLm::new(mcfg, &mut rng);
    zg_lora::attach(&mut lm, &zg_lora::LoraConfig::default(), &mut rng);
    let cfg = TrainConfig {
        max_lr: 5e-3,
        min_lr: 5e-4,
        batch_size: 4,
        grad_accum: 2,
        epochs: if quick { 1 } else { 2 },
        warmup_steps: 2,
        clip_norm: 1.0,
        weight_decay: 0.0,
        max_seq_len: 64,
        checkpoint_every: 0,
        pretrain_epochs: 0,
        pretrain_lr: 0.0,
        train_workers: 2,
    };
    let report = train_sft(&lm, samples, &cfg, TrainOrder::Shuffled, 9);

    let ds = zg_data::german(if quick { 16 } else { 40 }, 8);
    let (_, test) = ds.split(0.5);
    let items = eval_items(&ds, &test);
    let tok = zg_tokenizer::BpeTokenizer::byte_level();
    // A separate byte-level model for evaluation: the training tokenizer's
    // vocab and the eval prompts are unrelated, and eval only needs a
    // deterministic model to drive the instrumented decode/score paths.
    let mut ecfg = ModelConfig::mistral_miniature(tok.vocab_size());
    ecfg.n_layers = 1;
    ecfg.d_model = 16;
    ecfg.n_heads = 2;
    ecfg.n_kv_heads = 1;
    ecfg.d_ff = 32;
    let elm = CausalLm::new(ecfg, &mut StdRng::seed_from_u64(1));
    let zm = ZiGongModel::new(elm, tok, 64, "trace-workload");
    let cell = evaluate_zigong(&zm, &items, 2);

    Outputs {
        losses: report.losses.iter().map(|&l| l as f64).collect(),
        weights: lm
            .trainable_params()
            .into_iter()
            .map(|(_, p)| p.data().to_vec())
            .collect(),
        cell,
    }
}

fn main() {
    if let Some(path) = arg_value("--report") {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let trace = Trace::from_jsonl(&text).expect("malformed trace JSONL");
        println!("{}", render_report(&trace));
        return;
    }

    let quick = quick_mode();
    let reps = if quick { 2 } else { 3 };
    println!(
        "== trace overhead audit ({} mode, best of {reps}) ==",
        if quick { "quick" } else { "full" }
    );

    let n_samples = if quick { 16 } else { 48 };
    let ds = zg_data::german(n_samples.max(24), 0x7A11);
    let examples: Vec<_> = ds
        .records
        .iter()
        .take(n_samples)
        .map(|r| zg_instruct::render_classification(&ds, r))
        .collect();
    let tokenizer = train_tokenizer(&examples, 512);
    let samples = tokenize_all(&tokenizer, &examples, 64);
    let vocab = tokenizer.vocab_size();

    let mut parity = true;
    let [off, on] = race(
        reps,
        [
            &mut |w| {
                zg_tensor::clear_pool();
                w.open();
                (workload(&samples, vocab, quick), None)
            },
            // Traced under a real clock; the fastest run's trace is kept.
            &mut |w| {
                zg_tensor::clear_pool();
                let tracer = Tracer::with_clock(zg_trace::wall_clock());
                w.open();
                let out = {
                    let _root = tracer.install("zigong");
                    workload(&samples, vocab, quick)
                };
                w.close();
                (out, Some(tracer.finish()))
            },
        ],
        // 1. Bitwise parity: tracing must be an observer, not a participant.
        |runs| parity &= runs[0].0.bit_identical(&runs[1].0),
    );
    let (off_s, on_s) = (off.secs, on.secs);
    let trace = on.out.1.expect("the traced side returns its trace");
    let overhead = (on_s - off_s) / off_s;
    println!("untraced: {off_s:.3}s");
    println!("traced:   {on_s:.3}s  (overhead {:+.2}%)", overhead * 100.0);

    // 2. Artifacts. The JSONL roundtrips through the parser before the
    // report is rendered, so the written file is proven self-describing.
    let jsonl = trace.to_jsonl();
    let reparsed = Trace::from_jsonl(&jsonl).expect("captured trace must parse");
    let roundtrip = reparsed.to_jsonl() == jsonl;
    write_result("zigong_trace.jsonl", &jsonl);
    write_result("zigong_trace_chrome.json", &trace.to_chrome_json());
    let report = render_report(&reparsed);
    write_result("trace_report.txt", &report);
    println!("\n{report}");

    let audit = serde_json::json!({
        "quick": quick,
        "reps": reps,
        "untraced_s": off_s,
        "traced_s": on_s,
        "overhead_frac": overhead,
        "threshold_frac": OVERHEAD_THRESHOLD_FRAC,
        "bitwise_parity": parity,
        "streams": trace.streams.len(),
    });
    write_result(
        "trace_overhead.json",
        &serde_json::to_string_pretty(&audit).expect("serialize audit"),
    );

    // 3. Gates.
    let mut gates = Gates::default();
    gates.check(
        "bitwise parity",
        parity,
        "traced run diverged bitwise from the untraced run".into(),
    );
    gates.check(
        "overhead ceiling",
        overhead <= OVERHEAD_THRESHOLD_FRAC,
        format!(
            "tracing overhead {:.2}% exceeds the pinned {:.0}% ceiling",
            overhead * 100.0,
            OVERHEAD_THRESHOLD_FRAC * 100.0
        ),
    );
    gates.check(
        "trace roundtrip",
        roundtrip,
        "trace JSONL drifted through parse and re-emit".into(),
    );
    gates.finish("trace_report");
}
