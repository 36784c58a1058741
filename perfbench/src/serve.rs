//! The `score_templated` workload: a closed loop of loan-processing
//! callers, each request behind one of four shared lending-policy
//! preambles.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use zg_data::Dataset;
use zg_instruct::{render_classification, InstructExample};
use zg_model::{sample_logits, CausalLm, ModelConfig, PrefixStats};
use zg_serve::{EngineConfig, Reply, Request, ServeConfig, Server, ZiGongEngine};
use zg_tokenizer::Special;
use zg_trace::{Clock, Trace, Tracer};
use zg_zigong::{train_tokenizer, EvalItem, ZiGongModel, ANSWER_TOKENS, SCORE_RESERVE};

use crate::ledger;
use crate::load::{closed_loop, Metered, Phase};
use crate::stats::{
    calibrate_ms, mean, nearest_rank, peak_rss_mb, print_calibration, ratio, Digest,
};
use crate::{Args, Layers, Outcome};

/// Engine replicas: the 2 vCPUs of the reference host. At most two
/// threads compute at once, because the load thread blocks in `execute`.
const REPLICAS: usize = 2;
const MAX_BATCH: usize = 2 * REPLICAS;
/// Callers: two batches' worth of requests outstanding.
const CONCURRENCY: usize = 2 * MAX_BATCH;
/// Requests run through a fresh engine before measuring, so the prefix
/// pool is warm and lazy set-up is done.
const WARMUP: usize = 2 * CONCURRENCY;
/// Tokenizer vocabulary: with the policy texts in its corpus, a preamble
/// encodes to about 250 tokens.
const VOCAB: usize = 1024;
/// Prompt budget of the served model: wide enough that a preamble plus a
/// record is never truncated.
const MAX_SEQ: usize = 768;
/// Replies checked bit-for-bit against the offline evaluator per run.
const ORACLE_SAMPLE: usize = 24;
/// Prompts the request probe replays from outside per traced run.
const PROBE_SAMPLE: usize = 64;
/// Segments a traced run interleaves its untraced and traced phases in.
const SEGMENTS: usize = 16;
/// Passes of an untraced run. Each sets up a fresh deployment and serves
/// the same requests, a share of the run's total, so every set-up,
/// request and batch is measured this many times at moments spread
/// through the run.
const PASSES: usize = crate::SETUP_REPEATS;
/// p99 needs ten samples beyond it, so a run measures at least this many
/// requests, whatever `--seconds` asks for.
const MIN_REQUESTS: usize = 1000;
/// Requests per measured second: about the parent's closed-loop capacity.
const RATE: f64 = 45.0;

/// Lending-policy clauses the four templates are built from.
const CLAUSES: [&str; 12] = [
    "Applicants document stable income for at least twelve consecutive months; seasonal or commission income is averaged over two years.",
    "The total debt service ratio, including the requested loan, may not exceed forty percent of verified monthly net income.",
    "Collateral is valued at the lower of purchase price or independent appraisal, discounted by fifteen percent for vehicles and equipment.",
    "Any delinquency of more than sixty days within the last three years requires a written explanation and a second approver.",
    "Guarantors are assessed under the same standards as the primary borrower and must sign the full credit agreement.",
    "Existing customers with an unblemished repayment history of five years may receive a reduced documentation review.",
    "Self-employed applicants provide two years of tax assessments and a current statement of assets and liabilities.",
    "Loans for purposes outside the published product catalogue are escalated to the regional credit committee for approval.",
    "Residence at the current address for less than one year is weighed together with employment tenure and savings balance.",
    "Unsecured exposure to a single household may not exceed the limit set by the current risk appetite statement of the bank.",
    "Foreign workers are assessed on the remaining term of their residence permit in addition to the standard criteria above.",
    "Every decision records its deciding factors, so that the applicant can be given the principal reasons for a refusal.",
];

const TITLES: [&str; 4] = [
    "Retail lending policy for consumer instalment loans. Apply every rule below before you assess the applicant.",
    "Branch escalation desk: second review of a declined or borderline application under the binding lending policy.",
    "Portfolio re-scoring run. Re-assess this existing borrower against the lending standards that apply today.",
    "Small business and self-employed credit desk. The following underwriting rules are binding for this review.",
];

/// Clauses in each template's preamble.
const CLAUSES_PER_TEMPLATE: usize = 6;

/// Template `k`: its title, then a rotation of the clauses, so no two
/// templates share more than their first few bytes.
fn preamble(k: usize) -> String {
    let mut s = format!("{}\n", TITLES[k]);
    for i in 0..CLAUSES_PER_TEMPLATE {
        s.push_str("- ");
        s.push_str(CLAUSES[(i + 3 * k) % CLAUSES.len()]);
        s.push('\n');
    }
    s.push('\n');
    s
}

/// One scoring request before submission.
struct Prompt {
    record: usize,
    template: u64,
    example: InstructExample,
}

impl Prompt {
    fn request(&self) -> Request {
        let e = &self.example;
        Request::score(
            e.prompt.clone(),
            e.candidates[0].clone(),
            e.candidates[1].clone(),
        )
        .with_template(self.template)
    }
}

/// Everything the seed determines: the tokenizer corpus and the warm-up
/// and measured requests.
struct Inputs {
    records: Dataset,
    corpus: Vec<InstructExample>,
    warmup: Vec<Prompt>,
    measured: Vec<Prompt>,
    model_seed: u64,
}

/// Inputs for `n` measured requests.
fn inputs(seed: u64, n: usize) -> Inputs {
    let preambles: Vec<String> = (0..TITLES.len()).map(preamble).collect();
    // The tokenizer learns from credit records and the policy documents.
    let corpus_ds = zg_data::german(40, seed ^ 0xC0_4B05);
    let mut corpus: Vec<InstructExample> = corpus_ds
        .records
        .iter()
        .map(|r| render_classification(&corpus_ds, r))
        .collect();
    for p in &preambles {
        let mut doc = corpus[0].clone();
        doc.prompt = p.clone();
        corpus.push(doc);
    }
    let records = zg_data::german(WARMUP + n, seed);
    // Each template serves an equal share of the warm-up and of the
    // measured requests, in seeded order, so seeds differ in the order of
    // templates but not in how much each is used.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E3A);
    let mut templates = Vec::with_capacity(WARMUP + n);
    for len in [WARMUP, n] {
        let mut part: Vec<usize> = (0..len).map(|i| i % preambles.len()).collect();
        part.shuffle(&mut rng);
        templates.extend(part);
    }
    let mut prompts = records
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut example = render_classification(&records, r);
            let t = templates[i];
            example.prompt = format!("{}{}", preambles[t], example.prompt);
            Prompt {
                record: i,
                template: t as u64,
                example,
            }
        })
        .collect::<Vec<Prompt>>()
        .into_iter();
    let warmup = prompts.by_ref().take(WARMUP).collect();
    let measured = prompts.collect();
    Inputs {
        records,
        corpus,
        warmup,
        measured,
        model_seed: seed ^ 0xBE7C,
    }
}

/// A running deployment: the model the replicas were built from, the
/// server in front of them, and how long each set-up step took.
struct Deployment {
    model: ZiGongModel,
    server: Server<Metered<ZiGongEngine>>,
    tokenizer_s: f64,
    engine_start_s: f64,
    warmup_s: f64,
}

impl Deployment {
    fn setup_s(&self) -> f64 {
        self.tokenizer_s + self.engine_start_s + self.warmup_s
    }

    fn shutdown(self) {
        self.server.shutdown();
    }
}

fn serve_config(queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity,
        max_batch: MAX_BATCH,
        default_timeout: None,
        reorder_window: 2 * MAX_BATCH,
    }
}

/// The program's set-up: train the tokenizer, build the model, start the
/// engine with its replicas, and fill the prefix pool with warm-up
/// requests. Worker trace streams fork from whatever tracer is installed
/// on this thread now.
fn deploy(inp: &Inputs, clock: &Clock) -> Deployment {
    let t = Instant::now();
    let tokenizer = train_tokenizer(&inp.corpus, VOCAB);
    let tokenizer_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut cfg = ModelConfig::mistral_miniature(tokenizer.vocab_size());
    cfg.max_seq_len = MAX_SEQ;
    let lm = CausalLm::new(cfg, &mut StdRng::seed_from_u64(inp.model_seed));
    let model = ZiGongModel::new(lm, tokenizer, MAX_SEQ, "perfbench");
    let engine = ZiGongEngine::new(
        model.spec(),
        EngineConfig {
            workers: REPLICAS,
            ..EngineConfig::default()
        },
    );
    let capacity = inp.warmup.len() + inp.measured.len();
    let mut server = Server::new(Metered::new(engine), serve_config(capacity), clock.clone());
    // Replicas build on their own threads; an audit round trip returns
    // once every one of them is serving.
    let (ready, _) = server.engine_mut().inner.audit();
    ready.expect("replicas start");
    let engine_start_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let warm = closed_loop(
        &mut server,
        inp.warmup.iter().map(Prompt::request).collect(),
        CONCURRENCY,
    );
    assert_eq!(warm.served.len(), inp.warmup.len(), "warm-up served");
    let warmup_s = t.elapsed().as_secs_f64();
    Deployment {
        model,
        server,
        tokenizer_s,
        engine_start_s,
        warmup_s,
    }
}

/// Serve the measured requests in `range` through the closed loop.
fn measure(d: &mut Deployment, inp: &Inputs, range: Range<usize>) -> Phase {
    let requests = inp.measured[range].iter().map(Prompt::request).collect();
    closed_loop(&mut d.server, requests, CONCURRENCY)
}

/// Digests of one phase, and how many of its requests failed.
struct Checked {
    failed: u64,
    /// Every reply, in request order.
    replies: String,
    /// The batch sequence: (tick, request index) in dispatch order.
    batches: String,
}

/// Every reply must be a score in [0, 1].
fn check(phase: &Phase) -> Checked {
    let mut failed = (phase.rejected.len() + phase.lost) as u64;
    let mut replies = Digest::new();
    for s in &phase.served {
        replies.u64(s.index as u64);
        match &s.result {
            Ok(Reply::Scored { answer, p_positive })
                if p_positive.is_finite() && (0.0..=1.0).contains(p_positive) =>
            {
                replies.bytes(answer.as_bytes());
                replies.u64(p_positive.to_bits());
            }
            other => {
                failed += 1;
                println!("FAIL request {}: {other:?}", s.index);
            }
        }
    }
    let mut batches = Digest::new();
    for s in &phase.served {
        batches.u64(s.tick as u64);
        batches.u64(s.index as u64);
    }
    Checked {
        failed,
        replies: replies.hex(),
        batches: batches.hex(),
    }
}

/// A seeded sample of the replies must be exact-`f64` equal to the
/// offline evaluator on the same prompt; returns how many are not.
fn oracle_mismatches(phase: &Phase, model: &mut ZiGongModel, inp: &Inputs, seed: u64) -> u64 {
    let replies: BTreeMap<usize, (&str, f64)> = phase
        .served
        .iter()
        .filter_map(|s| match &s.result {
            Ok(Reply::Scored { answer, p_positive }) => {
                Some((s.index, (answer.as_str(), *p_positive)))
            }
            _ => None,
        })
        .collect();
    let mut sample: Vec<usize> = replies.keys().copied().collect();
    sample.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0AC1E));
    sample.truncate(ORACLE_SAMPLE);
    sample.sort_unstable();
    let mut mismatches = 0;
    for i in sample {
        let p = &inp.measured[i];
        let item = EvalItem {
            record: &inp.records.records[p.record],
            example: p.example.clone(),
        };
        let (answer, prob) = model.evaluate_item(&item);
        let (served_answer, served_p) = replies[&i];
        if answer != served_answer || prob.to_bits() != served_p.to_bits() {
            mismatches += 1;
            println!("MISMATCH request {i}: served ({served_answer:?}, {served_p}) vs offline ({answer:?}, {prob})");
        }
    }
    mismatches
}

fn latencies_ms(phase: &Phase) -> Vec<f64> {
    let mut v: Vec<f64> = phase
        .served
        .iter()
        .filter(|s| s.result.is_ok())
        .map(|s| s.latency() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn percentile(sorted: &[f64], pct: usize, what: &str) -> f64 {
    nearest_rank(sorted, pct)
        .unwrap_or_else(|| panic!("{} samples of {what} cannot support p{pct}", sorted.len()))
}

fn print_prefix(prefix: &PrefixStats) {
    println!(
        "prefix (warm-up included): hits={} misses={} hit_tokens={} lookup_tokens={} inserts={} \
         evictions={}",
        prefix.hits,
        prefix.misses,
        prefix.hit_tokens,
        prefix.lookup_tokens,
        prefix.inserts,
        prefix.evictions
    );
}

pub fn run(args: &Args) -> Outcome {
    let n = MIN_REQUESTS.max((args.seconds as f64 * RATE).round() as usize);
    let clock = zg_trace::wall_clock();
    if args.trace {
        let inp = inputs(args.seed, n);
        println!(
            "workload: {} measured requests after {} warm-up, {REPLICAS} replicas, max_batch \
             {MAX_BATCH}, closed loop of {CONCURRENCY}",
            inp.measured.len(),
            inp.warmup.len()
        );
        traced(&inp, args.seed, &clock)
    } else {
        untraced(&inputs(args.seed, n.div_ceil(PASSES)), args.seed, &clock)
    }
}

/// `PASSES` fresh deployments in turn, each set up and then serving all
/// the measured requests. Every pass must do identical work: the same
/// replies, batches and prefix counts. The host runs 1.6 times slower in
/// phases of a second to minutes; taking each set-up, request and batch
/// at its fastest pass leaves out the phases shorter than a run.
fn untraced(inp: &Inputs, seed: u64, clock: &Clock) -> Outcome {
    let per_pass = inp.measured.len();
    println!(
        "workload: {PASSES} passes of {per_pass} measured requests after {} warm-up, {REPLICAS} \
         replicas, max_batch {MAX_BATCH}, closed loop of {CONCURRENCY}",
        inp.warmup.len()
    );
    let mut calib = vec![calibrate_ms()];
    let (mut setups, mut phases, mut prefix) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mismatches, mut leak_ok) = (0, true);
    for pass in 0..PASSES {
        let mut d = deploy(inp, clock);
        setups.push(d.setup_s());
        let phase = measure(&mut d, inp, 0..per_pass);
        let (audit, stats) = d.server.engine_mut().inner.audit();
        leak_ok &= audit.is_ok();
        if pass == 0 {
            mismatches = oracle_mismatches(&phase, &mut d.model, inp, seed);
        }
        d.shutdown();
        calib.push(calibrate_ms());
        phases.push(phase);
        prefix.push(stats);
    }
    let checked: Vec<Checked> = phases.iter().map(check).collect();
    let failed = mismatches + checked.iter().map(|c| c.failed).sum::<u64>();
    let first = &checked[0];
    let identical = checked
        .iter()
        .all(|c| c.replies == first.replies && c.batches == first.batches)
        && prefix.iter().all(|p| *p == prefix[0]);
    println!(
        "batches_digest={} ticks={}",
        first.batches,
        phases[0].tick_s.len()
    );
    print_prefix(&prefix[0]);
    println!(
        "replies_digest={} oracle_sample_exact={} leak_audit_clean={leak_ok} \
         passes_identical={identical}",
        first.replies,
        mismatches == 0
    );
    print_calibration(&calib);

    // p50: each request at its fastest pass. p99 pools every pass, as
    // the requests of one pass cannot put ten samples beyond it.
    let mut best = vec![f64::INFINITY; per_pass];
    for p in &phases {
        for s in p.served.iter().filter(|s| s.result.is_ok()) {
            best[s.index] = best[s.index].min(s.latency() * 1e3);
        }
    }
    best.retain(|v| v.is_finite());
    best.sort_by(f64::total_cmp);
    let mut pooled: Vec<f64> = phases.iter().flat_map(latencies_ms).collect();
    pooled.sort_by(f64::total_cmp);
    // Throughput: each batch at its fastest pass; identical passes
    // dispatch identical batches.
    let ticks = phases.iter().map(|p| p.tick_s.len()).min().unwrap_or(0);
    let busy_s: f64 = (0..ticks)
        .map(|t| {
            phases
                .iter()
                .map(|p| p.tick_s[t])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
    println!(
        "pooled over passes: p50_ms={:.3} throughput_per_s={:.3}",
        percentile(&pooled, 50, "latency"),
        pooled.len() as f64 / wall_s
    );
    Outcome {
        correct: failed == 0 && leak_ok && identical,
        attempted: (PASSES * per_pass) as u64,
        failed,
        metrics: crate::end_to_end(
            percentile(&best, 50, "latency"),
            percentile(&pooled, 99, "latency"),
            pooled.len(),
            best.len() as f64 / busy_s,
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            peak_rss_mb(),
        ),
    }
}

/// Per-request costs timed from outside on a seeded sample of prompts,
/// replaying the steps `Replica::serve_score` (and the offline
/// `evaluate_item`) take: the tokenizer calls, and the greedy answer
/// decode on a fork of the prompt's KV cache.
pub struct Probe {
    pub encode_ms: f64,
    pub prompt_bytes: f64,
    pub prompt_tokens: f64,
    pub decode_ms: f64,
}

pub fn probe_requests(model: &ZiGongModel, examples: &[&InstructExample], seed: u64) -> Probe {
    let mut idx: Vec<usize> = (0..examples.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9F0B));
    idx.truncate(PROBE_SAMPLE);
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let (mut bytes, mut tokens) = (Vec::new(), Vec::new());
    // Greedy sampling never draws from the generator.
    let mut rng = StdRng::seed_from_u64(0);
    for i in idx {
        let e = examples[i];
        let t = Instant::now();
        let ids = black_box(model.prompt_ids(&e.prompt, ANSWER_TOKENS));
        black_box(model.prompt_ids(&e.prompt, SCORE_RESERVE));
        black_box(model.tokenizer.encode(&format!(" {}", e.candidates[0])));
        black_box(model.tokenizer.encode(&format!(" {}", e.candidates[1])));
        encode.push(t.elapsed().as_secs_f64());
        bytes.push(e.prompt.len() as f64);
        tokens.push(ids.len() as f64);

        let mut cache = model.lm.new_cache();
        let mut row = model.lm.prefill(&ids, &mut cache);
        let t = Instant::now();
        let mut fork = cache.fork();
        let mut out = Vec::new();
        for _ in 0..ANSWER_TOKENS {
            let next = sample_logits(&row, 0.0, &mut rng);
            if next == Special::Eos.id() {
                break;
            }
            out.push(next);
            row = model.lm.step(next, &mut fork);
        }
        black_box(model.tokenizer.decode(&out));
        decode.push(t.elapsed().as_secs_f64());
    }
    Probe {
        encode_ms: mean(&encode) * 1e3,
        prompt_bytes: mean(&bytes),
        prompt_tokens: mean(&tokens),
        decode_ms: mean(&decode) * 1e3,
    }
}

/// The traced run: an untraced twin and a traced deployment serve the
/// same requests, plus a warm-up-only traced deployment whose counters are
/// subtracted so the traced counts cover only measured requests. The
/// requests run in segments, each on both deployments back to back with
/// the first side alternating, so host drift hits both sides of the
/// overhead comparison alike. Both sides must do identical work: the same
/// replies, batches and prefix counts.
fn traced(inp: &Inputs, seed: u64, clock: &Clock) -> Outcome {
    let mut calib = vec![calibrate_ms()];
    let warm_tracer = Tracer::with_clock(clock.clone());
    {
        let _g = warm_tracer.install("setup");
        deploy(inp, clock).shutdown();
    }
    let warm_trace = warm_tracer.finish();

    let mut plain = deploy(inp, clock);
    let tracer = Tracer::with_clock(clock.clone());
    let mut d = {
        let _g = tracer.install("setup");
        deploy(inp, clock)
    };

    let (_, plain_before) = plain.server.engine_mut().inner.audit();
    let (_, before) = d.server.engine_mut().inner.audit();
    let executes_before = d.server.engine_mut().execute_s.len();
    let (mut plain_phase, mut phase) = (Phase::default(), Phase::default());
    let (mut t0, mut t1) = (f64::INFINITY, 0.0);
    let n = inp.measured.len();
    for k in 0..SEGMENTS {
        let range = k * n / SEGMENTS..(k + 1) * n / SEGMENTS;
        for side in [k % 2, 1 - k % 2] {
            if side == 0 {
                let p = measure(&mut plain, inp, range.clone());
                plain_phase.append(p, range.start);
            } else {
                let _g = tracer.install("main");
                t0 = f64::min(t0, clock());
                let p = measure(&mut d, inp, range.clone());
                t1 = clock();
                phase.append(p, range.start);
            }
        }
        if k % 4 == 3 {
            calib.push(calibrate_ms());
        }
    }
    let (plain_audit, plain_after) = plain.server.engine_mut().inner.audit();
    let mismatches = oracle_mismatches(&plain_phase, &mut plain.model, inp, seed);
    plain.shutdown();
    let (audit, after) = d.server.engine_mut().inner.audit();
    let execute_s = d.server.engine_mut().execute_s[executes_before..].to_vec();
    let mismatches = mismatches + oracle_mismatches(&phase, &mut d.model, inp, seed);
    let examples: Vec<&InstructExample> = inp.measured.iter().map(|p| &p.example).collect();
    let probe = probe_requests(&d.model, &examples, seed);
    let setup = (d.tokenizer_s, d.engine_start_s, d.warmup_s);
    d.shutdown();
    let trace = tracer.finish();

    let (checked, plain_checked) = (check(&phase), check(&plain_phase));
    let same_work = checked.replies == plain_checked.replies
        && checked.batches == plain_checked.batches
        && (before, after) == (plain_before, plain_after);
    println!(
        "traced: replies_digest={} batches_digest={}; untraced twin: replies_digest={} \
         batches_digest={}",
        checked.replies, checked.batches, plain_checked.replies, plain_checked.batches
    );
    print_prefix(&after);
    println!(
        "oracle_sample_exact={} leak_audit_clean={} same_work={same_work}",
        mismatches == 0,
        audit.is_ok() && plain_audit.is_ok()
    );
    print_calibration(&calib);

    let lat = latencies_ms(&phase);
    let plain_lat = latencies_ms(&plain_phase);
    let overhead = (percentile(&lat, 50, "latency") - percentile(&plain_lat, 50, "latency"))
        / percentile(&plain_lat, 50, "latency");
    let mut layers = serve_layers(
        &phase,
        &execute_s,
        &trace,
        &warm_trace,
        (t0, t1),
        (&before, &after),
        &probe,
        setup,
    );
    layers.insert("trace.overhead_frac", overhead);
    let failed = mismatches + checked.failed + plain_checked.failed;
    Outcome {
        correct: failed == 0 && audit.is_ok() && plain_audit.is_ok() && same_work,
        attempted: 2 * n as u64,
        failed,
        metrics: crate::layer_metrics(layers),
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    phase: &Phase,
    execute_s: &[f64],
    trace: &Trace,
    warm_trace: &Trace,
    (t0, t1): (f64, f64),
    (before, after): (&PrefixStats, &PrefixStats),
    probe: &Probe,
    (tokenizer_s, engine_start_s, warmup_s): (f64, f64, f64),
) -> Layers {
    let n = phase.served.len() as f64;
    let spans = ledger::spans_within(trace, t0, t1);
    let sums = ledger::sum_by_name(&spans);
    let secs = |name: &str| sums.get(name).map(|s| s.secs).unwrap_or(0.0);
    let counters = ledger::counters_minus(trace, Some(warm_trace));
    let count = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let (gemm_calls, gemm_gflop) = ledger::gemm_work(&counters);

    let mut waits: Vec<f64> = phase.served.iter().map(|s| s.queue_wait() * 1e3).collect();
    waits.sort_by(f64::total_cmp);
    let batches = phase.tick_s.len() as f64;
    let tick_total: f64 = phase.tick_s.iter().sum();
    let exec_total: f64 = execute_s.iter().sum();
    let d = |f: fn(&PrefixStats) -> u64| (f(after) - f(before)) as f64;

    let mut m = Layers::new();
    m.insert("tokenizer.encode_ms", probe.encode_ms);
    m.insert("tokenizer.prompt_bytes", probe.prompt_bytes);
    m.insert("tokenizer.prompt_tokens", probe.prompt_tokens);
    m.insert("model.prefill_ms", secs("model.prefill") / n * 1e3);
    m.insert(
        "model.prefill_tokens",
        sums.get("model.prefill")
            .map(|s| s.args as f64)
            .unwrap_or(0.0)
            / n,
    );
    m.insert("model.decode_ms", probe.decode_ms);
    m.insert("model.decode_steps", count("model.decode_steps") / n);
    m.insert("model.score_ms", secs("model.score_cached") / n * 1e3);
    m.insert("model.kv_forks", count("model.kv_forks") / n);
    m.insert(
        "prefix.hit_token_rate",
        ratio(d(|s| s.hit_tokens), d(|s| s.lookup_tokens)),
    );
    m.insert(
        "prefix.hits_per_insert",
        ratio(d(|s| s.hits), d(|s| s.inserts)),
    );
    m.insert("prefix.evictions_per_req", d(|s| s.evictions) / n);
    m.insert("prefix.resident_tokens", after.resident_tokens as f64);
    m.insert(
        "serve.queue_wait_ms.p50",
        percentile(&waits, 50, "queue wait"),
    );
    m.insert(
        "serve.queue_wait_ms.p99",
        percentile(&waits, 99, "queue wait"),
    );
    m.insert("serve.batch_size.mean", n / batches);
    m.insert("serve.sched_ms", (tick_total - exec_total) / batches * 1e3);
    m.insert("serve.admit_us", mean(&phase.admit_s) * 1e6);
    m.insert("serve.execute_ms", exec_total / batches * 1e3);
    m.insert("tensor.gemm_calls", gemm_calls / n);
    m.insert("tensor.gemm_gflop", gemm_gflop / n);
    m.insert("setup.tokenizer_s", tokenizer_s);
    m.insert("setup.engine_start_s", engine_start_s);
    m.insert("setup.warmup_s", warmup_s);
    m.insert("unattributed_frac", ledger::serve_unattributed(&spans));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn preambles_are_long_and_distinct() {
        let p: Vec<String> = (0..TITLES.len()).map(preamble).collect();
        for (k, s) in p.iter().enumerate() {
            assert!(
                (700..900).contains(&s.len()),
                "template {k}: {} bytes",
                s.len()
            );
        }
        for a in 0..p.len() {
            for b in a + 1..p.len() {
                let shared = p[a]
                    .bytes()
                    .zip(p[b].bytes())
                    .take_while(|(x, y)| x == y)
                    .count();
                assert!(shared < 16, "templates {a} and {b} share {shared} bytes");
            }
        }
    }

    /// A tiny served model: same engine and scheduler, small enough for
    /// a debug-build test.
    fn tiny_model(seed: u64) -> (Dataset, ZiGongModel) {
        let ds = zg_data::german(24, seed);
        let corpus: Vec<InstructExample> = ds
            .records
            .iter()
            .map(|r| render_classification(&ds, r))
            .collect();
        let tokenizer = train_tokenizer(&corpus, 300);
        let mut cfg = ModelConfig::mistral_miniature(tokenizer.vocab_size());
        cfg.d_model = 16;
        cfg.n_layers = 1;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        cfg.max_seq_len = 2048;
        let lm = CausalLm::new(cfg, &mut StdRng::seed_from_u64(seed));
        (ds, ZiGongModel::new(lm, tokenizer, 2048, "tiny"))
    }

    #[test]
    fn same_seed_gives_same_batches_and_prefix_counts() {
        let run = || {
            let (ds, model) = tiny_model(7);
            let engine = ZiGongEngine::new(
                model.spec(),
                EngineConfig {
                    workers: REPLICAS,
                    ..EngineConfig::default()
                },
            );
            let mut server = Server::new(engine, serve_config(64), zg_trace::wall_clock());
            let mut rng = StdRng::seed_from_u64(3);
            let requests: Vec<Request> = ds
                .records
                .iter()
                .map(|r| {
                    let e = render_classification(&ds, r);
                    let t = rng.gen_range(0..2usize);
                    Request::score(
                        format!("{}{}", &preamble(t)[..300], e.prompt),
                        e.candidates[0].clone(),
                        e.candidates[1].clone(),
                    )
                    .with_template(t as u64)
                })
                .collect();
            let phase = closed_loop(&mut server, requests, CONCURRENCY);
            let (audit, prefix) = server.engine_mut().audit();
            audit.expect("no leaked leases");
            server.shutdown();
            let batches: Vec<(usize, usize)> =
                phase.served.iter().map(|s| (s.tick, s.index)).collect();
            let replies: Vec<String> = phase
                .served
                .iter()
                .map(|s| format!("{:?}", s.result))
                .collect();
            (batches, prefix, replies)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.0, b.0, "batch sequence");
        assert_eq!(a.1, b.1, "prefix counts");
        assert_eq!(a.2, b.2, "replies");
        assert!(a.1.hits > 0, "templated traffic reuses prefixes: {:?}", a.1);
    }
}
