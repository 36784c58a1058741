//! Serving load benchmark: drives the zg-serve continuous-batching
//! server with open-loop Poisson traffic (seeded) over **mixed-template
//! scoring requests** — several prompt preambles crossed with distinct
//! borrower items, tagged with template keys so prefix-aware grouping
//! and replica affinity engage — and gates before writing
//! `results/serve_load.json`:
//!
//! 1. **bitwise parity** — every served `(answer, p)` is exact-`f64`
//!    equal to the offline `ZiGongModel::evaluate_item` on the same
//!    (template, item) combination, LCP prefix reuse and batching
//!    included — across the main run, a no-reuse baseline, and an
//!    eviction-pressure run;
//! 2. **prefix-hit-token rate** — the radix pool must serve at least
//!    half of all presented prompt tokens from cache;
//! 3. **latency** — p99 within an absolute ceiling, and no worse than
//!    the no-reuse baseline (pool budget 1) with 10% slack;
//! 4. **eviction pressure** — a budget far below the working set must
//!    evict while keeping parity and a clean leak audit;
//! 5. **simulation determinism** — two deterministic-clock runs with
//!    the same seed produce byte-identical zg-trace JSONL;
//! 6. **ops-plane overhead** — closed-loop wall time with the live ops
//!    plane enabled stays within 5% of the untraced run (best-of reps,
//!    raced round by round), with served scores bit-identical on vs off
//!    in every round, written to `results/serve_ops.json`;
//! 7. **SLO-breach smoke** — an overloaded deterministic sim fires the
//!    deadline-miss burn-rate alert and dumps a complete,
//!    byte-reproducible post-mortem bundle.
//!
//! Exits non-zero, once every gate has run, if any gate fails, so CI can
//! run `serve_load --quick` as a smoke test.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_bench::{quick_mode, race, write_result, Gates, Window};
use zg_model::{CausalLm, ModelConfig, PrefixStats};
use zg_serve::{
    drive, poisson_arrivals, poisson_traffic, EchoEngine, EngineConfig, LatencyRecorder,
    LatencySummary, OpsConfig, Reply, Request, ServeConfig, Server, ServerStats, Slo, SloObjective,
    TimedEngine, ZiGongEngine,
};
use zg_trace::{ManualClock, Tracer};
use zg_zigong::{eval_items, train_tokenizer, EvalItem, ZiGongModel, ANSWER_TOKENS, SCORE_RESERVE};

const SEED: u64 = 0x5E4E;

/// Prompt preambles standing in for distinct serving templates (e.g.
/// different product flows rendering the same borrower record). Quick
/// mode uses the first two, full mode all four.
const PREAMBLES: [&str; 4] = [
    "",
    "You are a senior credit officer. Review this application carefully.\n\n",
    "Branch escalation queue: a second opinion is requested on this applicant.\n\n",
    "Portfolio backfill re-score. Apply the current lending policy.\n\n",
];

/// One (template, item) combination with its offline oracle.
struct Combo {
    template: u64,
    prompt: String,
    negative: String,
    positive: String,
    oracle_answer: String,
    oracle_p: f64,
}

/// The benchmark model: miniature geometry, trained BPE tokenizer, and
/// a prompt budget wide enough that every preamble + rendered credit
/// prompt fits untruncated — so the load runs exercise the shared
/// prefill + radix-pool path, not the truncation fallback.
fn bench_model(examples: &[zg_instruct::InstructExample]) -> ZiGongModel {
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let tokenizer = train_tokenizer(examples, 768);
    let mut cfg = ModelConfig::mistral_miniature(tokenizer.vocab_size());
    cfg.max_seq_len = 768;
    let lm = CausalLm::new(cfg, &mut rng);
    ZiGongModel::new(lm, tokenizer, 768, "serve-bench")
}

fn score_request(combos: &[Combo], i: usize) -> Request {
    let c = &combos[i % combos.len()];
    Request::score(c.prompt.clone(), c.negative.clone(), c.positive.clone())
        .with_template(c.template)
}

struct LoadOutcome {
    served: usize,
    wall: f64,
    sustained_qps: f64,
    summary: LatencySummary,
    parity: bool,
    complete: bool,
    audit_clean: bool,
    prefix: PrefixStats,
    server: ServerStats,
}

/// One wall-clock load run: open-loop Poisson arrivals over the combo
/// cycle, parity-checked against the oracle, leak-audited at the end.
fn run_load(
    model: &ZiGongModel,
    combos: &[Combo],
    workers: usize,
    pool_budget_tokens: usize,
    n_requests: usize,
    rate: f64,
) -> LoadOutcome {
    let engine = ZiGongEngine::new(
        model.spec(),
        EngineConfig {
            workers,
            pool_budget_tokens,
        },
    );
    let max_batch = 2 * workers.max(1);
    let cfg = ServeConfig {
        queue_capacity: n_requests,
        max_batch,
        default_timeout: None,
        // Scan one extra batch deep for same-template pulls.
        reorder_window: 2 * max_batch,
    };
    let mut server = Server::new(engine, cfg, zg_trace::wall_clock());
    let arrivals = poisson_arrivals(SEED, rate, n_requests);

    let t0 = Instant::now();
    let mut submitted = 0usize;
    let mut completions = Vec::with_capacity(n_requests);
    while submitted < n_requests || server.queue_len() > 0 {
        let now = t0.elapsed().as_secs_f64();
        while submitted < n_requests && arrivals[submitted] <= now {
            server
                .submit(score_request(combos, submitted))
                .expect("queue sized to the full load");
            submitted += 1;
        }
        if server.queue_len() > 0 {
            completions.extend(server.tick());
        } else if submitted < n_requests {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    // Parity check: every reply must match its combo's oracle bit-for-bit.
    let mut parity = true;
    let mut latencies = LatencyRecorder::new();
    let mut first_arrival = f64::INFINITY;
    let mut last_finish = f64::NEG_INFINITY;
    for c in &completions {
        latencies.record(c.latency());
        first_arrival = first_arrival.min(c.arrived);
        last_finish = last_finish.max(c.finished);
        let combo = &combos[c.id as usize % combos.len()];
        match &c.result {
            Ok(Reply::Scored { answer, p_positive }) => {
                if answer != &combo.oracle_answer
                    || p_positive.to_bits() != combo.oracle_p.to_bits()
                {
                    parity = false;
                    println!(
                        "PARITY FAIL req {}: served ({answer:?}, {p_positive}) vs offline ({:?}, {})",
                        c.id, combo.oracle_answer, combo.oracle_p
                    );
                }
            }
            other => {
                parity = false;
                println!("PARITY FAIL req {}: unexpected result {other:?}", c.id);
            }
        }
    }
    let complete = completions.len() == n_requests;
    let sustained_qps = completions.len() as f64 / (last_finish - first_arrival).max(1e-9);
    let summary = latencies.summary();
    let server_stats = server.stats();
    let (audit, prefix) = server.engine_mut().audit();
    let audit_clean = audit.is_ok();
    if let Err(e) = &audit {
        println!("LEAK AUDIT FAIL: {e}");
    }
    server.shutdown();
    LoadOutcome {
        served: completions.len(),
        wall,
        sustained_qps,
        summary,
        parity,
        complete,
        audit_clean,
        prefix,
        server: server_stats,
    }
}

/// A representative ops-plane config for the overhead runs: windowed
/// series plus one latency SLO so the observed side pays the full
/// per-window evaluation cost, not just the recording cost.
fn ops_bench_config() -> OpsConfig {
    OpsConfig {
        slos: vec![Slo {
            name: "p99-latency".into(),
            objective: SloObjective::LatencyAbove(0.25),
            budget: 0.01,
            short_windows: 4,
            long_windows: 16,
            burn_threshold: 2.0,
        }],
        ..OpsConfig::default()
    }
}

/// One closed-loop run for overhead measurement: the whole load is
/// submitted up front and ticked to completion, and `window` times only
/// that (not the server's start-up or shutdown), so the wall time is
/// pure serve work (no open-loop arrival waits diluting the ops-plane
/// cost). Returns the served `(answer, p)` pairs in request order.
fn timed_closed_loop(
    model: &ZiGongModel,
    combos: &[Combo],
    workers: usize,
    n_requests: usize,
    ops: bool,
    window: &mut Window,
) -> Vec<(String, f64)> {
    let engine = ZiGongEngine::new(
        model.spec(),
        EngineConfig {
            workers,
            pool_budget_tokens: 1 << 16,
        },
    );
    let max_batch = 2 * workers.max(1);
    let cfg = ServeConfig {
        queue_capacity: n_requests,
        max_batch,
        default_timeout: None,
        reorder_window: 2 * max_batch,
    };
    let mut server = Server::new(engine, cfg, zg_trace::wall_clock());
    if ops {
        server.enable_ops(ops_bench_config());
    }
    window.open();
    for i in 0..n_requests {
        server
            .submit(score_request(combos, i))
            .expect("queue sized to the full load");
    }
    let done = server.run_until_idle();
    window.close();
    let mut scores = vec![(String::new(), 0.0); n_requests];
    for c in done {
        match c.result {
            Ok(Reply::Scored { answer, p_positive }) => {
                scores[c.id as usize] = (answer, p_positive);
            }
            other => panic!("closed-loop run produced unexpected result: {other:?}"),
        }
    }
    server.shutdown();
    scores
}

struct SloSmoke {
    deadline_misses: u64,
    alerts: usize,
    postmortems: usize,
    deterministic: bool,
    postmortem: String,
    exposition: String,
}

/// Deterministic SLO-breach smoke on the manual clock: overload a timed
/// echo engine (one-request batches at 100 ms against 80 ms deadlines)
/// until the deadline-miss burn-rate alert fires, then rerun and check
/// the alert stream, post-mortem bundle, and exposition are
/// byte-identical.
fn ops_slo_smoke() -> SloSmoke {
    let run = || {
        let clock = ManualClock::new();
        let engine = TimedEngine::new(EchoEngine::new(), clock.clone(), 0.1);
        let cfg = ServeConfig {
            queue_capacity: 64,
            max_batch: 1,
            default_timeout: Some(0.08),
            reorder_window: 0,
        };
        let mut server = Server::new(engine, cfg, clock.clock());
        server.enable_ops(OpsConfig {
            window_secs: 0.5,
            recorder_capacity: 32,
            expo_windows: 4,
            retain_windows: 16,
            slos: vec![Slo {
                name: "deadline-miss".into(),
                objective: SloObjective::DeadlineMiss,
                budget: 0.05,
                short_windows: 1,
                long_windows: 2,
                burn_threshold: 1.0,
            }],
        });
        let traffic = poisson_traffic(SEED, 60.0, 60, |i| Request::generate(format!("p{i}"), 1));
        let out = drive(&mut server, &clock, &traffic, 0.02);
        let now = clock.now();
        let ops = server.ops_mut().expect("ops enabled");
        ops.finish(now);
        let alerts = ops.alerts().len();
        let pms: Vec<String> = ops.take_postmortems().iter().map(|p| p.render()).collect();
        let expo = ops.exposition();
        server.shutdown();
        (out.stats.timed_out, alerts, pms, expo)
    };
    let (missed, alerts, pms, expo) = run();
    let (missed2, alerts2, pms2, expo2) = run();
    let deterministic = missed == missed2 && alerts == alerts2 && pms == pms2 && expo == expo2;
    SloSmoke {
        deadline_misses: missed,
        alerts,
        postmortems: pms.len(),
        deterministic,
        postmortem: pms.into_iter().next().unwrap_or_default(),
        exposition: expo,
    }
}

fn prefix_json(p: &PrefixStats) -> serde_json::Value {
    serde_json::json!({
        "hits": p.hits,
        "misses": p.misses,
        "hit_tokens": p.hit_tokens,
        "lookup_tokens": p.lookup_tokens,
        "hit_token_rate": p.hit_token_rate(),
        "inserts": p.inserts,
        "evictions": p.evictions,
        "resident_tokens": p.resident_tokens,
    })
}

fn load_json(o: &LoadOutcome, pool_budget_tokens: usize) -> serde_json::Value {
    let latency = serde_json::json!({
        "n": o.summary.n,
        "p50_s": o.summary.p50,
        "p99_s": o.summary.p99,
        "mean_s": o.summary.mean,
        "max_s": o.summary.max,
    });
    serde_json::json!({
        "pool_budget_tokens": pool_budget_tokens,
        "served": o.served,
        "wall_seconds": o.wall,
        "sustained_qps": o.sustained_qps,
        "latency": latency,
        "prefix_pool": prefix_json(&o.prefix),
        "bitwise_parity": o.parity && o.complete,
        "leak_audit_clean": o.audit_clean,
        "batches": o.server.batches,
    })
}

fn main() {
    let quick = quick_mode();
    let (n_requests, rate, n_items, n_templates) = if quick {
        (24, 40.0, 6, 2)
    } else {
        (160, 80.0, 8, 4)
    };
    let workers = zg_tensor::available_threads().clamp(1, 4);
    let p99_ceiling = if quick { 0.1 } else { 0.25 };
    let baseline_slack = 1.10;
    let min_hit_token_rate = 0.5;
    // Generous budget for the main run (holds the whole combo working
    // set) and one token for the no-reuse baseline; the eviction-pressure
    // budget is sized from the main run below.
    let main_budget = 1 << 16;

    println!("== serve_load: continuous-batching server benchmark ==");
    println!(
        "requests={n_requests} offered_rate={rate}/s workers={workers} \
         templates={n_templates} items={n_items} seed={SEED:#x}"
    );

    // Model + items (same recipe as the inference benchmark).
    let ds = zg_data::german(64, 0x2F);
    let (train, test) = ds.split(0.5);
    let train_examples: Vec<_> = train
        .iter()
        .take(40)
        .map(|r| zg_instruct::render_classification(&ds, r))
        .collect();
    let mut model = bench_model(&train_examples);
    let capped: Vec<_> = test.iter().copied().take(n_items).collect();
    let items = eval_items(&ds, &capped);

    // Mixed-template combos with per-combo offline oracles.
    let mut combos = Vec::with_capacity(n_templates * items.len());
    for (t, pre) in PREAMBLES.iter().take(n_templates).enumerate() {
        for it in &items {
            let mut example = it.example.clone();
            example.prompt = format!("{pre}{}", example.prompt);
            let item = EvalItem {
                record: it.record,
                example,
            };
            // The shared prefill path must engage: both prompt budgets
            // see the identical untruncated token sequence.
            let p_ans = model.prompt_ids(&item.example.prompt, ANSWER_TOKENS);
            assert_eq!(
                p_ans,
                model.prompt_ids(&item.example.prompt, SCORE_RESERVE),
                "template {t}: prompt must fit untruncated (shared path)"
            );
            let (oracle_answer, oracle_p) = model.evaluate_item(&item);
            combos.push(Combo {
                template: t as u64,
                prompt: item.example.prompt,
                negative: item.example.candidates[0].clone(),
                positive: item.example.candidates[1].clone(),
                oracle_answer,
                oracle_p,
            });
        }
    }
    // Interleave templates across consecutive requests so grouping (not
    // accidental adjacency) is what reassembles same-template batches:
    // combo order is (item-major, template-minor).
    combos.sort_by_key(|c| c.prompt.len());

    // ---- Main radix-pool load run (traced) ----
    let tracer = Tracer::with_clock(zg_trace::wall_clock());
    let guard = tracer.install("serve_load");
    let main_run = run_load(&model, &combos, workers, main_budget, n_requests, rate);
    drop(guard);
    let trace = tracer.finish();
    write_result("serve_trace.jsonl", &trace.to_jsonl());
    println!(
        "radix: served {}/{n_requests} in {:.2}s wall: p50 {:.1} ms, p99 {:.1} ms, sustained {:.1} QPS",
        main_run.served,
        main_run.wall,
        main_run.summary.p50 * 1e3,
        main_run.summary.p99 * 1e3,
        main_run.sustained_qps,
    );
    println!(
        "radix pool: {} hits / {} misses / {} inserts / {} evictions, hit-token rate {:.1}% ({}/{} tokens)",
        main_run.prefix.hits,
        main_run.prefix.misses,
        main_run.prefix.inserts,
        main_run.prefix.evictions,
        100.0 * main_run.prefix.hit_token_rate(),
        main_run.prefix.hit_tokens,
        main_run.prefix.lookup_tokens,
    );

    // ---- No-reuse baseline: pool budget 1 token, everything prefills ----
    let baseline = run_load(&model, &combos, workers, 1, n_requests, rate);
    println!(
        "baseline (no reuse): p50 {:.1} ms, p99 {:.1} ms, hit-token rate {:.1}%",
        baseline.summary.p50 * 1e3,
        baseline.summary.p99 * 1e3,
        100.0 * baseline.prefix.hit_token_rate(),
    );

    // ---- Eviction pressure: budget far below the working set ----
    // Each replica has its own pool and sees about 1/workers of the
    // traffic, so half of a replica's share of the main run's resident
    // tokens squeezes every pool whatever the core count.
    let pressure_budget = main_run.prefix.resident_tokens / (2 * workers);
    let pressure = run_load(&model, &combos, workers, pressure_budget, n_requests, rate);
    println!(
        "pressure (budget {pressure_budget}): p99 {:.1} ms, {} evictions, resident {} tokens, audit clean: {}",
        pressure.summary.p99 * 1e3,
        pressure.prefix.evictions,
        pressure.prefix.resident_tokens,
        pressure.audit_clean,
    );

    // ---- Deterministic simulation gate: same seed, byte-identical trace ----
    let sim_requests = if quick { 8 } else { 24 };
    let sim_run = || {
        let clock = ManualClock::new();
        let sim_tracer = Tracer::with_clock(clock.clock());
        let sim_guard = sim_tracer.install("serve_sim");
        // Inline engine: the whole simulation runs on this thread under
        // the manual clock, so the trace is a pure function of the seed.
        let engine = ZiGongEngine::new(
            model.spec(),
            EngineConfig {
                workers: 1,
                pool_budget_tokens: main_budget,
            },
        );
        let cfg = ServeConfig {
            queue_capacity: sim_requests,
            max_batch: 4,
            default_timeout: None,
            reorder_window: 4,
        };
        let mut server = Server::new(engine, cfg, clock.clock());
        let traffic: Vec<(f64, Request)> = poisson_arrivals(SEED, 200.0, sim_requests)
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, score_request(&combos, i)))
            .collect();
        let out = drive(&mut server, &clock, &traffic, 0.01);
        let completed = out.completions.len();
        server.shutdown();
        drop(sim_guard);
        (completed, sim_tracer.finish().to_jsonl())
    };
    let (sim_completed_a, trace_a) = sim_run();
    let (_, trace_b) = sim_run();
    let trace_deterministic = trace_a == trace_b;
    println!(
        "simulation: {sim_completed_a}/{sim_requests} served, trace {} bytes, deterministic: {trace_deterministic}",
        trace_a.len()
    );

    // ---- Ops-plane stage: overhead gate + SLO-breach smoke ----
    println!("== serve_ops: live ops plane gates ==");
    let ops_reps = if quick { 2 } else { 3 };
    // Sized so each side's best rep runs at least as long as it did
    // before the heap BPE encode made requests ~3x cheaper (~0.18 s
    // quick, ~0.7 s full): a shorter window resolves less of the 5%.
    let ops_requests = if quick { 96 } else { 480 };
    let ops_overhead_ceiling = 0.05;
    let mut ops_parity = true;
    let [off, on] = race(
        ops_reps,
        [
            &mut |w| timed_closed_loop(&model, &combos, workers, ops_requests, false, w),
            &mut |w| timed_closed_loop(&model, &combos, workers, ops_requests, true, w),
        ],
        |scores| {
            ops_parity &= scores[0]
                .iter()
                .zip(&scores[1])
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        },
    );
    let (ops_wall_off, ops_wall_on) = (off.secs, on.secs);
    let ops_overhead = (ops_wall_on - ops_wall_off) / ops_wall_off;
    let ops_overhead_ok = ops_overhead <= ops_overhead_ceiling;
    println!(
        "ops overhead: best-of-{ops_reps} untraced {:.1} ms vs observed {:.1} ms — {:+.2}% (ceiling {:.0}%), score parity: {ops_parity}",
        ops_wall_off * 1e3,
        ops_wall_on * 1e3,
        100.0 * ops_overhead,
        100.0 * ops_overhead_ceiling,
    );

    let smoke = ops_slo_smoke();
    println!(
        "ops SLO smoke: {} deadline misses, {} alerts, {} post-mortems, deterministic: {}",
        smoke.deadline_misses, smoke.alerts, smoke.postmortems, smoke.deterministic,
    );
    let smoke_ok = smoke.deadline_misses > 0
        && smoke.alerts > 0
        && smoke.postmortems == smoke.alerts
        && smoke.deterministic
        && smoke.postmortem.contains("post-mortem slo=deadline-miss")
        && smoke.postmortem.contains("## flight recorder")
        && smoke.postmortem.contains("\"outcome\":\"expired\"")
        && smoke.postmortem.contains("## exposition");
    write_result("serve_ops_postmortem.txt", &smoke.postmortem);
    write_result("serve_ops_expo.txt", &smoke.exposition);

    let smoke_obj = serde_json::json!({
        "deadline_misses": smoke.deadline_misses,
        "alerts": smoke.alerts,
        "postmortems": smoke.postmortems,
        "deterministic": smoke.deterministic,
        "bundle_complete": smoke_ok,
    });
    let ops_out = serde_json::to_string_pretty(&serde_json::json!({
        "seed": SEED,
        "workers": workers,
        "requests": ops_requests,
        "reps": ops_reps,
        "wall_untraced_s": ops_wall_off,
        "wall_observed_s": ops_wall_on,
        "overhead_frac": ops_overhead,
        "overhead_ceiling": ops_overhead_ceiling,
        "overhead_ok": ops_overhead_ok,
        "score_parity_on_vs_off": ops_parity,
        "slo_smoke": smoke_obj,
    }))
    .expect("benchmark serializes");
    write_result("serve_ops.json", &ops_out);

    let parity_all = [&main_run, &baseline, &pressure]
        .iter()
        .all(|r| r.parity && r.complete);
    let audits_clean = [&main_run, &baseline, &pressure]
        .iter()
        .all(|r| r.audit_clean);
    let hit_rate_ok = main_run.prefix.hit_token_rate() >= min_hit_token_rate;
    let p99_ok = main_run.summary.p99 <= p99_ceiling;
    let beats_baseline = main_run.summary.p99 <= baseline.summary.p99 * baseline_slack;
    let pressure_evicts = pressure.prefix.evictions > 0;

    let sim_obj = serde_json::json!({
        "requests": sim_requests,
        "completed": sim_completed_a,
        "trace_bytes": trace_a.len(),
    });
    let out = serde_json::to_string_pretty(&serde_json::json!({
        "seed": SEED,
        "workers": workers,
        "requests": n_requests,
        "offered_rate_qps": rate,
        "templates": n_templates,
        "items": n_items,
        "radix": load_json(&main_run, main_budget),
        "baseline_no_reuse": load_json(&baseline, 1),
        "eviction_pressure": load_json(&pressure, pressure_budget),
        "bitwise_parity": parity_all,
        "leak_audit_clean": audits_clean,
        "trace_deterministic": trace_deterministic,
        "min_hit_token_rate": min_hit_token_rate,
        "hit_token_rate_ok": hit_rate_ok,
        "p99_ceiling_s": p99_ceiling,
        "p99_within_ceiling": p99_ok,
        "baseline_slack": baseline_slack,
        "p99_beats_baseline": beats_baseline,
        "pressure_evictions_observed": pressure_evicts,
        "sim": sim_obj,
    }))
    .expect("benchmark serializes");
    write_result("serve_load.json", &out);

    let mut gates = Gates::default();
    gates.check(
        "parity",
        parity_all,
        "served results are not bit-identical to the offline evaluator".into(),
    );
    gates.check(
        "determinism",
        trace_deterministic,
        "seeded simulation traces are not byte-identical".into(),
    );
    gates.check("leak audit", audits_clean, "prefix-lease leak audit".into());
    gates.check(
        "hit rate",
        hit_rate_ok,
        format!(
            "prefix hit-token rate {:.1}% below the {:.0}% floor",
            100.0 * main_run.prefix.hit_token_rate(),
            100.0 * min_hit_token_rate
        ),
    );
    gates.check(
        "p99 ceiling",
        p99_ok,
        format!(
            "p99 {:.3}s exceeds the {p99_ceiling:.3}s ceiling",
            main_run.summary.p99
        ),
    );
    gates.check(
        "baseline",
        beats_baseline,
        format!(
            "radix p99 {:.3}s worse than no-reuse baseline {:.3}s (+{:.0}% slack)",
            main_run.summary.p99,
            baseline.summary.p99,
            100.0 * (baseline_slack - 1.0)
        ),
    );
    gates.check(
        "eviction pressure",
        pressure_evicts,
        format!("eviction-pressure run never evicted (budget {pressure_budget})"),
    );
    gates.check(
        "ops parity",
        ops_parity,
        "ops plane changed served scores (must be bit-transparent)".into(),
    );
    gates.check(
        "ops overhead",
        ops_overhead_ok,
        format!(
            "ops-plane overhead {:.2}% exceeds the {:.0}% ceiling",
            100.0 * ops_overhead,
            100.0 * ops_overhead_ceiling
        ),
    );
    gates.check(
        "SLO smoke",
        smoke_ok,
        "alert must fire with a complete, deterministic post-mortem".into(),
    );
    gates.finish("serve_load");
}
