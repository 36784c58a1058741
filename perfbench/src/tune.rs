//! The `select_tune` workload: the paper's offline pipeline on synthetic
//! behaviour sequences. One round is LoRA SFT over the training pool with
//! checkpoints, LM-gradient TracSeq of the pool against a validation set,
//! the 70/30 hybrid selection, SFT on the selected mix, and evaluation of
//! held-out applicants.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use zg_data::{behavior_sequences, BehaviorConfig, Dataset, Record};
use zg_influence::{
    hybrid_mix, influence_scores_with, lm_checkpoint_grads, lm_checkpoint_grads_with, select_top_k,
    CheckpointGrads, MixConfig, ParallelConfig, TokenizedSample, TracConfig,
};
use zg_instruct::{parse_binary, render_classification, InstructExample};
use zg_lora::attach;
use zg_model::{CausalLm, LmSpec};
use zg_tokenizer::BpeTokenizer;
use zg_trace::{Totals, Tracer};
use zg_zigong::{
    evaluate_zigong, split_behavior_by_user, tokenize_all, train_sft_profiled, train_tokenizer,
    EvalItem, Profile, Sample, TrainConfig, TrainOrder, ZiGongConfig, ZiGongModel,
};

use crate::stats::{
    calibrate_ms, mean, median, nearest_rank, peak_rss_mb, print_calibration, ratio, thread_cpu_s,
    Digest,
};
use crate::{Args, Layers, Outcome};

/// Threads for training, gradient extraction and evaluation.
const WORKERS: usize = 2;
/// Training-pool records scored and selected from each round. A round
/// takes about a second, so every held-out decision is made in ~28 rounds
/// spread through the run: the reference host runs 1.6 times slower in
/// phases of seconds, and a decision's fastest round is almost always in
/// a fast phase.
const POOL: usize = 128;
/// Validation records TracSeq scores the pool against.
const VALIDATION: usize = 8;
/// Held-out applicants evaluated each round; their per-decision times
/// are the workload's latency samples.
const HELD_OUT: usize = 128;
/// TracSeq time decay (paper: γ = 0.9).
const GAMMA: f32 = 0.9;
/// Optimizer steps between stored checkpoints: 128 records at 32 per
/// step give 4 checkpoints.
const CHECKPOINT_EVERY: usize = 1;
/// Rounds per measured second on the reference host; a run measures at
/// least enough rounds for 1,000 latency samples.
const ROUNDS_PER_SECOND: f64 = 1.1;
const MIN_DECISIONS: usize = 1000;

/// Everything the seed determines.
struct Inputs {
    ds: Dataset,
    pool: Vec<usize>,
    validation: Vec<usize>,
    held_out: Vec<usize>,
    rounds: usize,
    seed: u64,
}

fn inputs(args: &Args) -> Inputs {
    let ds = behavior_sequences(
        &BehaviorConfig {
            n_users: 2100,
            periods: 6,
            persistence: 0.55,
            noise_std: 0.45,
            positive_rate: 0.3,
        },
        args.seed,
    );
    let (train, test) = split_behavior_by_user(&ds, 0.2);
    let position: BTreeMap<*const Record, usize> = ds
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (r as *const Record, i))
        .collect();
    let index = |r: &Record| position[&(r as *const Record)];
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E1E);
    let mut pool: Vec<usize> = train.iter().map(|r| index(r)).collect();
    pool.shuffle(&mut rng);
    pool.truncate(POOL);
    let mut test: Vec<usize> = test.iter().map(|r| index(r)).collect();
    test.shuffle(&mut rng);
    assert!(test.len() >= VALIDATION + HELD_OUT, "too few test users");
    let validation = test[..VALIDATION].to_vec();
    let held_out = test[VALIDATION..VALIDATION + HELD_OUT].to_vec();
    let by_time = (args.seconds as f64 * ROUNDS_PER_SECOND).round() as usize;
    let rounds = by_time.max(MIN_DECISIONS.div_ceil(HELD_OUT));
    Inputs {
        ds,
        pool,
        validation,
        held_out,
        rounds,
        seed: args.seed,
    }
}

fn examples(inp: &Inputs, idx: &[usize]) -> Vec<InstructExample> {
    idx.iter()
        .map(|&i| render_classification(&inp.ds, &inp.ds.records[i]))
        .collect()
}

/// The program's set-up: tokenizer, tokenized pool, and the initial
/// model with LoRA attached.
struct Tuner {
    cfg: ZiGongConfig,
    tokenizer: BpeTokenizer,
    pool: Vec<Sample>,
    pool_tok: Vec<TokenizedSample>,
    val_tok: Vec<TokenizedSample>,
    times: Vec<u32>,
    init: LmSpec,
    tokenizer_s: f64,
    model_s: f64,
}

fn tokenized(samples: &[Sample]) -> Vec<TokenizedSample> {
    samples
        .iter()
        .map(|s| (s.tokens.clone(), s.labels.clone()))
        .collect()
}

fn setup(inp: &Inputs) -> Tuner {
    let mut cfg = ZiGongConfig::miniature(inp.seed);
    cfg.train = TrainConfig {
        epochs: 1,
        checkpoint_every: CHECKPOINT_EVERY,
        train_workers: WORKERS,
        ..cfg.train
    };
    let t = Instant::now();
    let pool_ex = examples(inp, &inp.pool);
    let tokenizer = train_tokenizer(&pool_ex, cfg.vocab_size);
    let pool = tokenize_all(&tokenizer, &pool_ex, cfg.train.max_seq_len);
    let val = tokenize_all(
        &tokenizer,
        &examples(inp, &inp.validation),
        cfg.train.max_seq_len,
    );
    let tokenizer_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model_cfg = cfg.model.clone();
    model_cfg.vocab_size = tokenizer.vocab_size();
    let mut lm = CausalLm::new(model_cfg, &mut rng);
    attach(&mut lm, &cfg.lora, &mut rng);
    let init = LmSpec::snapshot(&lm);
    let model_s = t.elapsed().as_secs_f64();
    Tuner {
        times: pool.iter().map(|s| s.time.unwrap_or(0)).collect(),
        pool_tok: tokenized(&pool),
        val_tok: tokenized(&val),
        pool,
        init,
        tokenizer,
        cfg,
        tokenizer_s,
        model_s,
    }
}

/// The stages of one round, in order.
#[derive(Clone, Copy)]
enum Stage {
    SftPool,
    Grads,
    Scores,
    Select,
    SftMix,
    Eval,
}

const STAGES: usize = 6;

impl Stage {
    const ALL: [Stage; STAGES] = [
        Stage::SftPool,
        Stage::Grads,
        Stage::Scores,
        Stage::Select,
        Stage::SftMix,
        Stage::Eval,
    ];
}

/// Times the stages of a round from outside and, in a traced round, keeps
/// the tracer totals of each.
struct StageClock<'a> {
    tracer: Option<&'a Tracer>,
    start: Instant,
    mark: Instant,
    totals_mark: Totals,
    secs: [f64; STAGES],
    totals: Vec<Totals>,
}

impl<'a> StageClock<'a> {
    fn start(tracer: Option<&'a Tracer>) -> StageClock<'a> {
        let now = Instant::now();
        StageClock {
            tracer,
            start: now,
            mark: now,
            totals_mark: totals(tracer),
            secs: [0.0; STAGES],
            totals: Vec::new(),
        }
    }

    /// Close `stage`, which ran since the previous call.
    fn lap(&mut self, stage: Stage) {
        self.secs[stage as usize] = self.mark.elapsed().as_secs_f64();
        let t = totals(self.tracer);
        self.totals.push(t.delta(&self.totals_mark));
        self.totals_mark = t;
        self.mark = Instant::now();
    }
}

struct Round {
    /// Wall seconds of each stage, indexed by [`Stage`].
    secs: [f64; STAGES],
    round_s: f64,
    /// Tracer totals of each stage (empty in untraced rounds).
    totals: Vec<Totals>,
    /// Per held-out decision, wall seconds.
    decisions: Vec<f64>,
    /// Per held-out decision, CPU seconds of its worker thread.
    decision_cpu: Vec<f64>,
    selection: String,
    metrics: String,
    summary: (f64, f64, f64),
    checkpoints: usize,
    /// Per-sample gradients extracted, over all checkpoints.
    grads: usize,
    profiles: [Profile; 2],
}

/// What the serial cross-checks need from a round. The run keeps only the
/// last round's, so rounds do not accumulate models and gradients in
/// memory and inflate `peak_rss_mb`.
struct Outputs {
    grads: Vec<CheckpointGrads>,
    model: ZiGongModel,
    per_item: Vec<(String, f64)>,
}

impl Round {
    fn stage(&self, s: Stage) -> f64 {
        self.secs[s as usize]
    }
}

fn totals(tracer: Option<&Tracer>) -> Totals {
    tracer.map(Tracer::totals).unwrap_or_default()
}

fn round(
    tuner: &Tuner,
    items: &[EvalItem<'_>],
    seed: u64,
    tracer: Option<&Tracer>,
) -> (Round, Outputs) {
    let par = ParallelConfig::serial().with_workers(WORKERS);
    let mut clock = StageClock::start(tracer);

    // 1. LoRA SFT over the pool, keeping checkpoints.
    let lm = tuner.init.build();
    let first = train_sft_profiled(
        &lm,
        &tuner.pool,
        &tuner.cfg.train,
        TrainOrder::Chronological,
        seed,
        None,
    );
    assert!(first.checkpoints.len() >= 2, "SFT stores checkpoints");
    clock.lap(Stage::SftPool);

    // 2. Per-sample LoRA gradients at every checkpoint.
    let grads = lm_checkpoint_grads_with(
        || tuner.init.build(),
        &first.checkpoints,
        &tuner.pool_tok,
        &tuner.val_tok,
        &par,
    );
    clock.lap(Stage::Grads);

    // 3. TracSeq scores.
    let trac = TracConfig {
        gamma: GAMMA,
        current_time: tuner.times.iter().copied().max().unwrap_or(0),
        decay_samples: false,
    };
    let scores = influence_scores_with(&grads, &trac, Some(&tuner.times), &par);
    clock.lap(Stage::Scores);

    // 4. The 70/30 hybrid selection of half the pool.
    let ranked = select_top_k(&scores, scores.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mix = hybrid_mix(&MixConfig::paper_default(POOL / 2), &ranked, POOL, &mut rng);
    clock.lap(Stage::Select);

    // 5. SFT on the selected mix from the same initial model.
    let lm = tuner.init.build();
    let mixed: Vec<Sample> = mix.iter().map(|&i| tuner.pool[i].clone()).collect();
    let cfg = TrainConfig {
        checkpoint_every: 0,
        ..tuner.cfg.train.clone()
    };
    let second = train_sft_profiled(&lm, &mixed, &cfg, TrainOrder::Shuffled, seed, None);
    clock.lap(Stage::SftMix);

    // 6. Held-out decisions, each timed from outside.
    let model = ZiGongModel::new(
        lm,
        tuner.tokenizer.clone(),
        tuner.cfg.train.max_seq_len,
        "tuned",
    );
    let spec = model.spec();
    let per_item: Vec<(String, f64, (f64, f64))> = zg_influence::par_map_init(
        items,
        WORKERS,
        || {
            // One untimed decision per worker first: the first decision on
            // a fresh thread also fills its tensor buffer pool.
            let mut m = spec.build();
            std::hint::black_box(m.evaluate_item(&items[0]));
            m
        },
        |m, item| {
            let (t, cpu) = (Instant::now(), thread_cpu_s());
            let (text, p) = m.evaluate_item(item);
            (text, p, (t.elapsed().as_secs_f64(), thread_cpu_s() - cpu))
        },
    );
    clock.lap(Stage::Eval);
    let round_s = clock.start.elapsed().as_secs_f64();

    let mut sel = Digest::new();
    for &i in &mix {
        sel.u64(i as u64);
    }
    let preds: Vec<_> = items
        .iter()
        .zip(&per_item)
        .map(|(it, (text, _, _))| {
            parse_binary(text, &it.example.candidates[0], &it.example.candidates[1])
        })
        .collect();
    let labels: Vec<bool> = items.iter().map(|it| it.record.label).collect();
    let probs: Vec<f64> = per_item.iter().map(|(_, p, _)| *p).collect();
    let eval = zg_eval::evaluate_binary(&preds, &labels);
    let ks = zg_eval::ks_statistic(&probs, &labels);
    let mut met = Digest::new();
    for v in [eval.acc, eval.f1, ks] {
        met.u64(v.to_bits());
    }
    for s in &scores {
        sel.u64(u64::from(s.to_bits()));
    }
    let round = Round {
        secs: clock.secs,
        round_s,
        totals: clock.totals,
        decisions: per_item.iter().map(|(_, _, (wall, _))| *wall).collect(),
        decision_cpu: per_item.iter().map(|(_, _, (_, cpu))| *cpu).collect(),
        selection: sel.hex(),
        metrics: met.hex(),
        summary: (eval.acc, eval.f1, ks),
        checkpoints: first.checkpoints.len(),
        grads: grads.iter().map(|c| c.train.len() + c.test.len()).sum(),
        profiles: [first.profile, second.profile],
    };
    let outputs = Outputs {
        grads,
        model,
        per_item: per_item.into_iter().map(|(t, p, _)| (t, p)).collect(),
    };
    (round, outputs)
}

/// Checks outside the timed rounds: the 2-worker gradients and
/// evaluation are bit-identical to the serial library paths.
fn cross_check(
    tuner: &Tuner,
    items: &[EvalItem<'_>],
    last: &Outputs,
    summary: (f64, f64, f64),
    seed: u64,
) -> bool {
    let lm = tuner.init.build();
    let first = train_sft_profiled(
        &lm,
        &tuner.pool,
        &tuner.cfg.train,
        TrainOrder::Chronological,
        seed,
        None,
    );
    let probe = 8.min(tuner.pool_tok.len());
    let serial = lm_checkpoint_grads(
        &tuner.init.build(),
        &first.checkpoints[..1],
        &tuner.pool_tok[..probe],
        &tuner.val_tok,
    );
    let grads_ok =
        serial[0].train[..] == last.grads[0].train[..probe] && serial[0].test == last.grads[0].test;
    let cell = evaluate_zigong(&last.model, items, 1);
    let (acc, f1, ks) = summary;
    let eval_ok = cell.eval.acc.to_bits() == acc.to_bits()
        && cell.eval.f1.to_bits() == f1.to_bits()
        && cell.ks.to_bits() == ks.to_bits();
    let mut serial_model = last.model.spec().build();
    let items_ok = items
        .iter()
        .zip(&last.per_item)
        .take(16)
        .all(|(it, (text, p))| {
            let (t2, p2) = serial_model.evaluate_item(it);
            &t2 == text && p2.to_bits() == p.to_bits()
        });
    if !grads_ok {
        println!("MISMATCH: 2-worker gradients differ from the serial path");
    }
    if !eval_ok || !items_ok {
        println!("MISMATCH: 2-worker evaluation differs from evaluate_zigong");
    }
    grads_ok && eval_ok && items_ok
}

pub fn run(args: &Args) -> Outcome {
    let inp = inputs(args);
    println!(
        "workload: {} rounds of pool {POOL}, validation {VALIDATION}, held-out {HELD_OUT}, {WORKERS} workers",
        inp.rounds
    );
    let mut calib = vec![calibrate_ms()];
    let mut tuner = setup(&inp);
    let mut setups = vec![tuner.tokenizer_s + tuner.model_s];
    let records: Vec<&Record> = inp.held_out.iter().map(|&i| &inp.ds.records[i]).collect();
    let items = zg_zigong::eval_items(&inp.ds, &records);

    let tracer = Tracer::with_clock(zg_trace::wall_clock());
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut last = None;
    let scope = zg_tensor::pool_stats_scope();
    let mut pool_traced = (0u64, 0u64);
    // The traced run measures both sides in full: it alternates untraced
    // and traced rounds, so host drift hits both sides of the overhead
    // comparison alike.
    let total = if args.trace {
        2 * inp.rounds
    } else {
        inp.rounds
    };
    // Set up again before each further share of the rounds, so the
    // set-ups sample the host at as many moments as the rounds do.
    let resets: Vec<usize> = (1..crate::SETUP_REPEATS)
        .map(|k| k * total / crate::SETUP_REPEATS)
        .collect();
    for r in 0..total {
        if resets.contains(&r) {
            calib.push(calibrate_ms());
            tuner = setup(&inp);
            setups.push(tuner.tokenizer_s + tuner.model_s);
        }
        if args.trace && r % 2 == 1 {
            let before = scope.stats();
            let _g = tracer.install("round");
            traced_rounds.push(round(&tuner, &items, inp.seed, Some(&tracer)).0);
            let after = scope.stats();
            pool_traced.0 += after.takes - before.takes;
            pool_traced.1 += after.hits - before.hits;
        } else {
            let (r, outputs) = round(&tuner, &items, inp.seed, None);
            rounds.push(r);
            last = Some(outputs);
        }
    }
    drop(scope);
    let trace = tracer.finish();
    calib.push(calibrate_ms());

    let reference = &rounds[0];
    let mut failed = 0u64;
    for r in rounds.iter().chain(&traced_rounds) {
        if r.selection != reference.selection || r.metrics != reference.metrics {
            failed += 1;
        }
    }
    let last = last.expect("at least one untraced round");
    let cross_ok = cross_check(&tuner, &items, &last, reference.summary, inp.seed);
    let (acc, f1, ks) = reference.summary;
    println!(
        "selection_digest={} metrics_digest={} acc={acc} f1={f1} ks={ks} checkpoints={} rounds_identical={}",
        reference.selection,
        reference.metrics,
        reference.checkpoints,
        failed == 0
    );
    print_calibration(&calib);
    let attempted = (rounds.len() + traced_rounds.len()) as u64;
    let correct = failed == 0 && cross_ok;
    let round_s: Vec<f64> = rounds.iter().map(|r| r.round_s).collect();

    if !args.trace {
        // Decision latency is CPU time on the worker thread: the host takes
        // a vCPU away for milliseconds at a time, which wall time counts
        // and would make p99 a measure of the host. It also runs a whole
        // stage 1.6 times slower in some rounds and not others, which CPU
        // time counts too; every round makes the same held-out decisions
        // with an identically tuned model, so p50 takes each decision at
        // its fastest round. p99 needs ten samples beyond it, which only
        // the pooled decisions give. Set-up is the fastest of the run's
        // set-ups. Throughput takes the median round: on the reference
        // 2-vCPU host, each stage at its fastest round spread 0.15 over
        // six seeds against the median's 0.08, as a stage is fastest only
        // when both vCPUs are fast at once.
        let mut lat: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.decision_cpu.iter().map(|s| s * 1e3))
            .collect();
        lat.sort_by(f64::total_cmp);
        let mut best: Vec<f64> = (0..items.len())
            .map(|i| {
                let fastest = rounds
                    .iter()
                    .map(|r| r.decision_cpu[i])
                    .fold(f64::INFINITY, f64::min);
                fastest * 1e3
            })
            .collect();
        best.sort_by(f64::total_cmp);
        println!(
            "decision CPU time: p50 over {} decisions, each its fastest of {} rounds; p99 over all",
            best.len(),
            rounds.len()
        );
        return Outcome {
            correct,
            attempted,
            failed,
            metrics: crate::end_to_end(
                nearest_rank(&best, 50).expect("enough held-out decisions for p50"),
                nearest_rank(&lat, 99).expect("enough decisions for p99"),
                lat.len(),
                POOL as f64 / median(&round_s),
                setups.iter().copied().fold(f64::INFINITY, f64::min),
                peak_rss_mb(),
            ),
        };
    }

    // Each traced round against the untraced round just before it.
    let paired: Vec<f64> = traced_rounds
        .iter()
        .zip(&rounds)
        .map(|(t, u)| t.round_s / u.round_s - 1.0)
        .collect();
    let prompts: Vec<&InstructExample> = items.iter().map(|it| &it.example).collect();
    let probe = crate::serve::probe_requests(&last.model, &prompts, inp.seed);
    let mut m = tune_layers(&traced_rounds, &trace, &probe);
    m.insert("trace.overhead_frac", median(&paired));
    m.insert(
        "tensor.pool_hit_rate",
        ratio(pool_traced.1 as f64, pool_traced.0 as f64),
    );
    m.insert("setup.tokenizer_s", tuner.tokenizer_s);
    m.insert("setup.engine_start_s", tuner.model_s);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: crate::layer_metrics(m),
    }
}

/// Seconds of a traced stage that named spans cover. Spans that run on
/// the workers count divided by the worker count, so time one worker
/// waits for the other, model builds and thread start-up stay
/// unattributed. Selection emits no spans; it is one call timed from
/// outside, so all of it is covered.
fn covered(stage: Stage, t: &Totals, wall: f64) -> f64 {
    let workers = WORKERS as f64;
    let s = |name| t.span_seconds(name);
    match stage {
        Stage::SftPool | Stage::SftMix => {
            s("train.collate")
                + s("train.sync")
                + s("train.reduce")
                + s("train.optimizer")
                + (s("train.forward") + s("train.backward")) / workers
        }
        Stage::Grads => s("par.chunk") / workers,
        Stage::Scores => s("influence.scores"),
        Stage::Select => wall,
        Stage::Eval => s("eval.item") / workers,
    }
}

/// Layer figures of the traced rounds; `trace` holds exactly their work.
fn tune_layers(rounds: &[Round], trace: &zg_trace::Trace, probe: &crate::serve::Probe) -> Layers {
    let n = rounds.len() as f64;
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let stage_s = |st: Stage| sum(&|r| r.stage(st));
    let in_stage = |st: Stage, f: &dyn Fn(&Totals) -> f64| sum(&|r| f(&r.totals[st as usize]));
    let train_s = stage_s(Stage::SftPool) + stage_s(Stage::SftMix);
    let microbatches = sum(&|r| r.profiles.iter().map(|p| p.microbatches as f64).sum());
    let per_mb =
        |f: fn(&Profile) -> f64| sum(&|r| r.profiles.iter().map(f).sum()) / microbatches * 1e3;
    let grads_per_round = sum(&|r| r.grads as f64) / n;
    let (gemm_calls, gemm_gflop) =
        crate::ledger::gemm_work(&crate::ledger::counters_minus(trace, None));
    let decisions: Vec<f64> = rounds.iter().flat_map(|r| r.decisions.clone()).collect();
    let named = sum(&|r| {
        Stage::ALL
            .iter()
            .map(|&st| covered(st, &r.totals[st as usize], r.stage(st)))
            .sum()
    });
    // Model figures of the evaluation stage, per decision; the stage also
    // serves each worker's warm-up decision.
    let items = (decisions.len() + WORKERS * rounds.len()) as f64;
    let eval_ms = |name: &str| in_stage(Stage::Eval, &|t| t.span_seconds(name)) / items * 1e3;
    let eval_count = |name: &str| in_stage(Stage::Eval, &|t| t.counter(name)) / items;

    let mut m = Layers::new();
    m.insert("tokenizer.encode_ms", probe.encode_ms);
    m.insert("tokenizer.prompt_bytes", probe.prompt_bytes);
    m.insert("tokenizer.prompt_tokens", probe.prompt_tokens);
    m.insert("model.prefill_ms", eval_ms("model.prefill"));
    m.insert("model.score_ms", eval_ms("model.score_cached"));
    m.insert("model.decode_ms", probe.decode_ms);
    m.insert("model.prefill_tokens", eval_count("model.prefill_tokens"));
    m.insert("model.decode_steps", eval_count("model.decode_steps"));
    m.insert("model.kv_forks", eval_count("model.kv_forks"));
    m.insert(
        "train.samples_per_s",
        (POOL + POOL / 2) as f64 * n / train_s,
    );
    m.insert("train.forward_ms", per_mb(|p| p.forward_s));
    m.insert("train.backward_ms", per_mb(|p| p.backward_s));
    m.insert("train.optimizer_ms", per_mb(|p| p.optimizer_s));
    m.insert(
        "influence.grad_ms",
        stage_s(Stage::Grads) / (grads_per_round * n) * 1e3,
    );
    m.insert("influence.grads", grads_per_round);
    m.insert("influence.score_ms", stage_s(Stage::Scores) / n * 1e3);
    m.insert("select.ms", stage_s(Stage::Select) / n * 1e3);
    m.insert("eval.item_ms", mean(&decisions) * 1e3);
    m.insert("tensor.gemm_calls", gemm_calls / n);
    m.insert("tensor.gemm_gflop", gemm_gflop / n);
    m.insert("unattributed_frac", 1.0 - named / sum(&|r| r.round_s));
    m
}
