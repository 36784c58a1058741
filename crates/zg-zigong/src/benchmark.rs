//! The Table 2 benchmark runner: multi-task instruction construction with
//! the paper's 70/30 pruned mix, tokenizer + LoRA SFT training of ZiGong,
//! measured baselines, calibrated replay columns, and paper-style table
//! rendering.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use zg_data::{Dataset, Record};
use zg_influence::{
    agent_checkpoint_grads, hybrid_mix, influence_scores, select_top_k, AgentConfig, AgentModel,
    MixConfig, TracConfig,
};
use zg_instruct::{render_classification, InstructExample};
use zg_lora::attach;
use zg_model::CausalLm;

use crate::baselines::{LogisticExpert, MajorityClass, RandomGuess};
use crate::config::ZiGongConfig;
use crate::corpus::{to_pretrain_sample, tokenize_all, train_tokenizer};
use crate::evaluator::{eval_items, evaluate_classifier, evaluate_zigong, CellResult, ZiGongModel};
use crate::replay::{paper_table2, ReplayBaseline};
use crate::trainer::{train_sft, TrainOrder, TrainReport};

/// Options for a Table 2 run.
#[derive(Debug, Clone)]
pub struct Table2Options {
    /// Pipeline seed.
    pub seed: u64,
    /// Per-dataset cap on balanced training examples for the SFT mix.
    pub train_cap: usize,
    /// Per-dataset cap on evaluated test records.
    pub test_cap: usize,
    /// Include the calibrated replay columns for external models.
    pub include_replay: bool,
    /// Auxiliary multi-task examples (sentiment analysis + income QA, the
    /// other task families of the paper's Figure 1 workflow) appended to
    /// the SFT mix. `0` disables.
    pub aux_task_cap: usize,
    /// Worker threads for evaluating the measured LM rows (`0` = all
    /// available cores, `1` = serial). Any value yields bit-identical
    /// metrics; see [`evaluate_zigong`].
    pub eval_workers: usize,
    /// ZiGong configuration.
    pub config: ZiGongConfig,
}

impl Default for Table2Options {
    fn default() -> Self {
        Table2Options {
            seed: 20_250_706,
            train_cap: 240,
            test_cap: 120,
            include_replay: true,
            aux_task_cap: 0,
            eval_workers: 0,
            config: ZiGongConfig::miniature(20_250_706),
        }
    }
}

/// One rendered row of the benchmark.
pub struct Table2Row {
    /// Model display name.
    pub model: String,
    /// Whether the row was measured end-to-end (vs replayed).
    pub measured: bool,
    /// One cell per dataset (None = not applicable).
    pub cells: Vec<Option<CellResult>>,
}

/// Full benchmark output.
pub struct Table2 {
    /// Dataset names, in paper order.
    pub datasets: Vec<String>,
    /// Model rows.
    pub rows: Vec<Table2Row>,
    /// Training report of the measured ZiGong model.
    pub train_report: Option<TrainReport>,
}

/// Class-balanced sample of training records, capped at `cap` (sampling
/// with replacement when a class is scarce — standard practice for the
/// heavily imbalanced fraud sets).
pub fn balanced_train_records<'a>(
    train: &[&'a Record],
    cap: usize,
    rng: &mut StdRng,
) -> Vec<&'a Record> {
    let pos: Vec<&Record> = train.iter().copied().filter(|r| r.label).collect();
    let neg: Vec<&Record> = train.iter().copied().filter(|r| !r.label).collect();
    assert!(!pos.is_empty() && !neg.is_empty(), "need both classes");
    let per_class = (cap / 2).max(1);
    let mut out = Vec::with_capacity(per_class * 2);
    for _ in 0..per_class {
        // INVARIANT: both classes asserted non-empty above.
        out.push(*pos.choose(rng).expect("non-empty"));
        // INVARIANT: both classes asserted non-empty above.
        out.push(*neg.choose(rng).expect("non-empty"));
    }
    out
}

/// Agent-model TracIn scores for tabular records (γ=1; tabular data has no
/// periods). Used to pick the high-influence 30% of the paper's mix.
pub fn agent_tracin_scores(train: &[&Record], test: &[&Record], seed: u64) -> Vec<f32> {
    let xs: Vec<Vec<f32>> = train.iter().map(|r| r.numeric_features()).collect();
    let ys: Vec<bool> = train.iter().map(|r| r.label).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (model, ckpts) = AgentModel::fit(&xs, &ys, &AgentConfig::default(), &mut rng);
    let train_xy: Vec<(Vec<f32>, bool)> = xs.into_iter().zip(ys).collect();
    let test_xy: Vec<(Vec<f32>, bool)> = test
        .iter()
        .map(|r| (r.numeric_features(), r.label))
        .collect();
    let grads = agent_checkpoint_grads(&model, &ckpts, &train_xy, &test_xy);
    influence_scores(&grads, &TracConfig::tracin(), None)
}

/// Build the paper's instruction mix for one dataset: 70% random balanced
/// records + 30% top-influence records (Eq. 2 + §3.2).
pub fn pruned_mix_records<'a>(
    ds: &Dataset,
    train: &[&'a Record],
    dev: &[&Record],
    cap: usize,
    seed: u64,
) -> Vec<&'a Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Influence scored on a class-balanced pool so the Top-K is not
    // dominated by majority-class gradients.
    let pool = balanced_train_records(train, (cap * 2).min(train.len() * 2), &mut rng);
    let scores = agent_tracin_scores(&pool, dev, seed ^ 0xA6E7);
    let ranked = select_top_k(&scores, pool.len());
    let picks = hybrid_mix(
        &MixConfig::paper_default(cap),
        &ranked,
        pool.len(),
        &mut rng,
    );
    let _ = ds;
    picks.into_iter().map(|i| pool[i]).collect()
}

/// Train a ZiGong model from rendered examples, mirroring the paper's
/// two stages:
///
/// 1. **Base pretraining** (simulated): plain next-token LM objective over
///    the corpus with *all* parameters trainable — the stand-in for
///    Mistral 7B's pretraining, which the miniature cannot download.
/// 2. **LoRA SFT**: freeze the base, attach rank-8 adapters on {q, k, v},
///    and fine-tune on the prompt-masked instruction objective.
pub fn train_zigong(
    examples: &[InstructExample],
    cfg: &ZiGongConfig,
    order: TrainOrder,
    name: &str,
) -> (ZiGongModel, TrainReport) {
    cfg.validate();
    let tokenizer = train_tokenizer(examples, cfg.vocab_size);
    let samples = tokenize_all(&tokenizer, examples, cfg.train.max_seq_len);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model_cfg = cfg.model.clone();
    model_cfg.vocab_size = tokenizer.vocab_size();
    let mut lm = CausalLm::new(model_cfg, &mut rng);
    if cfg.train.pretrain_epochs > 0 {
        let pretrain_samples: Vec<_> = samples.iter().map(to_pretrain_sample).collect();
        let pretrain_cfg = crate::config::TrainConfig {
            epochs: cfg.train.pretrain_epochs,
            max_lr: cfg.train.pretrain_lr,
            min_lr: cfg.train.pretrain_lr * 0.1,
            checkpoint_every: 0,
            ..cfg.train.clone()
        };
        train_sft(
            &lm,
            &pretrain_samples,
            &pretrain_cfg,
            order,
            cfg.seed ^ 0x9BE,
        );
    }
    attach(&mut lm, &cfg.lora, &mut rng);
    let report = train_sft(&lm, &samples, &cfg.train, order, cfg.seed ^ 0x7EA1);
    (
        ZiGongModel::new(lm, tokenizer, cfg.train.max_seq_len, name),
        report,
    )
}

/// Run the full Table 2 benchmark.
pub fn run_table2(opts: &Table2Options) -> Table2 {
    let datasets = zg_data::all_datasets(opts.seed);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Per-dataset splits.
    let splits: Vec<(Vec<&Record>, Vec<&Record>)> = datasets.iter().map(|d| d.split(0.2)).collect();

    // ---- ZiGong training data: multi-task 70/30 pruned mix. ----
    let mut zigong_examples: Vec<InstructExample> = Vec::new();
    let mut random_examples: Vec<InstructExample> = Vec::new();
    for (ds, (train, test)) in datasets.iter().zip(&splits) {
        // A slice of the *train* side acts as the influence dev set —
        // never the test records.
        let dev: Vec<&Record> = train.iter().copied().take(40).collect();
        let mixed = pruned_mix_records(
            ds,
            train,
            &dev,
            opts.train_cap,
            opts.seed ^ ds.records.len() as u64,
        );
        zigong_examples.extend(mixed.iter().map(|r| render_classification(ds, r)));
        // Ablation arm: plain balanced random of the same size.
        let plain = balanced_train_records(train, opts.train_cap, &mut rng);
        random_examples.extend(plain.iter().map(|r| render_classification(ds, r)));
        let _ = test;
    }
    // Auxiliary task families (paper Figure 1: QA, sentiment analysis,
    // financial auditing alongside classification).
    if opts.aux_task_cap > 0 {
        let sentiment = zg_data::sentiment_dataset(opts.aux_task_cap, opts.seed ^ 0x5E17);
        zigong_examples.extend(
            sentiment
                .iter()
                .enumerate()
                .map(|(i, e)| zg_instruct::render_sentiment(e, i)),
        );
        let income = zg_data::income_dataset(opts.aux_task_cap, opts.seed ^ 0x14C0);
        zigong_examples.extend(income.iter().map(zg_instruct::render_income));
    }
    let mut order_rng = StdRng::seed_from_u64(opts.seed ^ 0xBEEF);
    zigong_examples.shuffle(&mut order_rng);
    random_examples.shuffle(&mut order_rng);

    let (zigong, report) = train_zigong(
        &zigong_examples,
        &opts.config,
        TrainOrder::Shuffled,
        "ZiGong (measured)",
    );
    let sft_random = {
        let mut cfg = opts.config.clone();
        cfg.seed ^= 0x51;
        train_zigong(
            &random_examples,
            &cfg,
            TrainOrder::Shuffled,
            "SFT-random (measured)",
        )
        .0
    };
    // Zero-shot base model: pretrained (stage 1) but never instruction-
    // tuned — the analogue of prompting a raw base LLM.
    let base = {
        let mut cfg = opts.config.clone();
        cfg.seed ^= 0xBA5E;
        cfg.train.epochs = 0;
        train_zigong(
            &zigong_examples,
            &cfg,
            TrainOrder::Shuffled,
            "Base zero-shot (measured)",
        )
        .0
    };

    // ---- Evaluate. ----
    let mut rows: Vec<Table2Row> = Vec::new();
    let mut eval_sets = Vec::new();
    for (ds, (train, test)) in datasets.iter().zip(&splits) {
        let capped: Vec<&Record> = test.iter().copied().take(opts.test_cap).collect();
        eval_sets.push((ds, train.clone(), eval_items(ds, &capped)));
    }

    if opts.include_replay {
        for (name, points) in paper_table2() {
            if name.starts_with("ZiGong") {
                continue; // our ZiGong row is measured below
            }
            let mut cells = Vec::new();
            for ((ds, _, items), point) in eval_sets.iter().zip(&points) {
                cells.push(point.map(|op| {
                    let mut m =
                        ReplayBaseline::new(name, op, ds.positive_rate(), opts.seed ^ 0xC0DE);
                    evaluate_classifier(&mut m, items)
                }));
            }
            rows.push(Table2Row {
                model: format!("{name} (replay)"),
                measured: false,
                cells,
            });
        }
    }

    // Measured simple baselines.
    let mut cells_majority = Vec::new();
    let mut cells_random = Vec::new();
    let mut cells_expert = Vec::new();
    for (_, train, items) in &eval_sets {
        let mut m = MajorityClass::fit(train);
        cells_majority.push(Some(evaluate_classifier(&mut m, items)));
        let mut r = RandomGuess::new(opts.seed ^ 0xFACE);
        cells_random.push(Some(evaluate_classifier(&mut r, items)));
        let mut e = LogisticExpert::fit(train, opts.seed ^ 0xE49);
        cells_expert.push(Some(evaluate_classifier(&mut e, items)));
    }
    rows.push(Table2Row {
        model: "Majority (measured)".into(),
        measured: true,
        cells: cells_majority,
    });
    rows.push(Table2Row {
        model: "Random (measured)".into(),
        measured: true,
        cells: cells_random,
    });
    rows.push(Table2Row {
        model: "Expert-LR (measured)".into(),
        measured: true,
        cells: cells_expert,
    });

    // The three measured LM rows dominate benchmark wall-clock; their
    // per-item work is independent, so fan each row's items across the
    // evaluation worker pool (metrics are bit-identical to serial for any
    // worker count).
    for (model, label) in [
        (&base, "Base zero-shot (measured)"),
        (&sft_random, "SFT-random (measured)"),
        (&zigong, "ZiGong (measured)"),
    ] {
        let cells: Vec<Option<CellResult>> = eval_sets
            .iter()
            .map(|(_, _, items)| Some(evaluate_zigong(model, items, opts.eval_workers)))
            .collect();
        rows.push(Table2Row {
            model: label.into(),
            measured: true,
            cells,
        });
    }

    Table2 {
        datasets: datasets.iter().map(|d| d.name.clone()).collect(),
        rows,
        train_report: Some(report),
    }
}

impl Table2 {
    /// Machine-readable JSON of the benchmark (datasets, rows, cells) for
    /// downstream analysis; the training report is summarized, not dumped.
    pub fn to_json(&self) -> String {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                serde_json::json!({
                    "model": row.model,
                    "measured": row.measured,
                    "cells": row.cells,
                })
            })
            .collect();
        let report = self.train_report.as_ref().map(|r| {
            serde_json::json!({
                "steps": r.steps,
                "first_loss": r.losses.first(),
                "final_loss": r.final_loss(),
                "checkpoints": r.checkpoints.len(),
            })
        });
        serde_json::to_string_pretty(&serde_json::json!({
            "datasets": self.datasets,
            "rows": rows,
            "train_report": report,
        }))
        // INVARIANT: serde_json on in-memory values with string keys cannot fail.
        .expect("benchmark serializes")
    }
}

/// Render the benchmark in the paper's layout: dataset blocks with
/// Acc/F1/Miss rows, one column per model.
pub fn render_table2(table: &Table2) -> String {
    let mut out = String::new();
    let col_w = 26usize;
    out.push_str(&format!("{:<22}{:<8}", "Dataset", "Metric"));
    for row in &table.rows {
        out.push_str(&format!(
            "{:>w$}",
            truncate(&row.model, col_w - 2),
            w = col_w
        ));
    }
    out.push('\n');
    for (di, ds) in table.datasets.iter().enumerate() {
        for (mi, metric) in ["Acc", "F1", "Miss"].iter().enumerate() {
            let label = if mi == 0 { ds.as_str() } else { "" };
            out.push_str(&format!("{label:<22}{metric:<8}"));
            for row in &table.rows {
                let cell = match &row.cells[di] {
                    Some(c) => {
                        let v = match mi {
                            0 => c.eval.acc,
                            1 => c.eval.f1,
                            _ => c.eval.miss,
                        };
                        format!("{v:.3}")
                    }
                    None => "-".to_string(),
                };
                out.push_str(&format!("{cell:>col_w$}"));
            }
            out.push('\n');
        }
    }
    out
}

fn truncate(s: &str, w: usize) -> String {
    if s.len() <= w {
        s.to_string()
    } else {
        format!("{}…", &s[..w - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zg_data::german;

    #[test]
    fn balanced_records_are_balanced() {
        let ds = german(500, 1);
        let (train, _) = ds.split(0.2);
        let mut rng = StdRng::seed_from_u64(2);
        let bal = balanced_train_records(&train, 100, &mut rng);
        assert_eq!(bal.len(), 100);
        assert_eq!(bal.iter().filter(|r| r.label).count(), 50);
    }

    #[test]
    fn tracin_scores_align_with_train() {
        let ds = german(300, 3);
        let (train, test) = ds.split(0.2);
        let dev: Vec<&Record> = test.iter().copied().take(20).collect();
        let scores = agent_tracin_scores(&train, &dev, 4);
        assert_eq!(scores.len(), train.len());
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn pruned_mix_has_requested_size() {
        let ds = german(400, 5);
        let (train, test) = ds.split(0.2);
        let dev: Vec<&Record> = test.iter().copied().take(20).collect();
        let mix = pruned_mix_records(&ds, &train, &dev, 80, 6);
        assert_eq!(mix.len(), 80);
    }

    #[test]
    fn json_export_contains_rows() {
        let table = Table2 {
            datasets: vec!["German".into()],
            rows: vec![Table2Row {
                model: "X (measured)".into(),
                measured: true,
                cells: vec![None],
            }],
            train_report: None,
        };
        let json = table.to_json();
        assert!(json.contains("\"datasets\""));
        assert!(json.contains("X (measured)"));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["rows"][0]["measured"], true);
    }

    #[test]
    fn render_handles_missing_cells() {
        let table = Table2 {
            datasets: vec!["German".into()],
            rows: vec![Table2Row {
                model: "X".into(),
                measured: false,
                cells: vec![None],
            }],
            train_report: None,
        };
        let text = render_table2(&table);
        assert!(text.contains('-'));
        assert!(text.contains("German"));
        assert!(text.contains("Miss"));
    }
}
