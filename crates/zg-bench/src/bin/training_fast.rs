//! Training fast-path benchmark: end-to-end throughput of the shipped
//! trainer, `train_sft_profiled`, against its oracle — the same routine
//! with the bit-identical op fast paths off and the naive GEMM kernel —
//! plus the trainer's phase-timing profile and the bit-identity checks
//! the fast paths guarantee. Writes `results/training_fast.json`.
//!
//! Sections:
//!
//! 1. end-to-end: reference serial vs fast serial vs fast parallel (all
//!    available cores), raced round by round, samples/sec and speedups,
//!    with exact per-step loss parity across the three in every round;
//! 2. profile: phase timings (collate/sync/forward/backward/reduce/
//!    optimizer) and buffer-pool counters of the fast runs;
//! 3. grad_parity: losses and final trainable weights bit-identical
//!    across worker counts {1, 2, 3, 5};
//! 4. pool: hit rate and a checked-out-buffer leak audit.
//!
//! Exits 1, once every gate has run, if loss parity, gradient parity or
//! the leak audit fails.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_bench::{quick_mode, race, with_kernel, write_result, Gates, Window};
use zg_model::{CausalLm, ModelConfig};
use zg_tensor::{available_threads, pool_stats, set_op_fast_paths, GemmKernel};
use zg_zigong::{tokenize_all, train_sft_profiled, train_tokenizer, TrainConfig, TrainOrder};

fn bench_lm(vocab: usize, seed: u64) -> CausalLm {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ModelConfig::mistral_miniature(vocab);
    let mut lm = CausalLm::new(cfg, &mut rng);
    zg_lora::attach(&mut lm, &zg_lora::LoraConfig::default(), &mut rng);
    lm
}

fn trainable_weights(lm: &CausalLm) -> Vec<Vec<f32>> {
    lm.trainable_params()
        .into_iter()
        .map(|(_, p)| p.data().to_vec())
        .collect()
}

fn main() {
    let quick = quick_mode();
    let threads = available_threads();
    println!("== training fast-path benchmark ({threads} threads available) ==");

    // Data: rendered credit-classification prompts, tokenized once.
    let n_samples = if quick { 16 } else { 48 };
    let ds = zg_data::german(n_samples.max(24), 0x7A11);
    let examples: Vec<_> = ds
        .records
        .iter()
        .take(n_samples)
        .map(|r| zg_instruct::render_classification(&ds, r))
        .collect();
    let tokenizer = train_tokenizer(&examples, 768);
    let max_seq = if quick { 48 } else { 96 };
    let samples = tokenize_all(&tokenizer, &examples, max_seq);
    let vocab = tokenizer.vocab_size();
    let cfg = TrainConfig {
        max_lr: 5e-3,
        min_lr: 5e-4,
        batch_size: 4,
        grad_accum: 2,
        epochs: if quick { 1 } else { 2 },
        warmup_steps: 2,
        clip_norm: 1.0,
        weight_decay: 0.0,
        max_seq_len: max_seq,
        checkpoint_every: 0,
        pretrain_epochs: 0,
        pretrain_lr: 0.0,
        train_workers: 1,
    };
    let trained = (cfg.epochs * samples.len()) as f64;
    let seed = 0x5EED;
    println!(
        "data: {} samples, {} epochs, batch {} x accum {}, seq <= {max_seq}",
        samples.len(),
        cfg.epochs,
        cfg.batch_size,
        cfg.grad_accum
    );

    // Every stage is seeded identically, so losses and weights are the
    // same in every run by the engine's determinism guarantee. Building
    // each run's model stays outside its timed window.
    let reps = if quick { 1 } else { 3 };
    let par_cfg = TrainConfig {
        train_workers: threads,
        ..cfg.clone()
    };
    let epoch_clock = zg_trace::wall_clock();
    let checked_out_before = pool_stats().checked_out;
    let train = |cfg: &TrainConfig, w: &mut Window| {
        let lm = bench_lm(vocab, 42);
        w.open();
        train_sft_profiled(
            &lm,
            &samples,
            cfg,
            TrainOrder::Shuffled,
            seed,
            Some(epoch_clock.clone()),
        )
    };
    let mut loss_parity = true;
    let [reference, fast, par] = race(
        reps,
        [
            // The oracle: reference op kernels (strided broadcast and
            // permute loops, dead-gradient GEMMs computed and discarded)
            // on the naive GEMM.
            &mut |w| {
                with_kernel(GemmKernel::Naive, || {
                    let prev = set_op_fast_paths(false);
                    let report = train(&cfg, w);
                    set_op_fast_paths(prev);
                    report
                })
            },
            &mut |w| with_kernel(GemmKernel::Auto, || train(&cfg, w)),
            &mut |w| with_kernel(GemmKernel::Auto, || train(&par_cfg, w)),
        ],
        // The op fast paths, the SIMD kernel and the data-parallel
        // reduction are all bit-transparent.
        |reports| loss_parity &= reports.iter().all(|r| r.losses == reports[0].losses),
    );
    let (reference_s, fast_s, par_s) = (reference.secs, fast.secs, par.secs);
    println!(
        "reference serial: {reference_s:.2}s ({:.2} samples/s, best of {reps})",
        trained / reference_s
    );
    println!(
        "fast serial:      {fast_s:.2}s ({:.2} samples/s, {:.2}x vs reference)",
        trained / fast_s,
        reference_s / fast_s
    );
    println!(
        "fast parallel ({threads}w): {par_s:.2}s ({:.2} samples/s, {:.2}x vs reference)",
        trained / par_s,
        reference_s / par_s
    );
    let (fast, par) = (fast.out, par.out);

    let best_s = fast_s.min(par_s);
    let p = fast.profile;
    println!(
        "fast serial profile: collate {:.2}s forward {:.2}s backward {:.2}s optimizer {:.2}s",
        p.collate_s, p.forward_s, p.backward_s, p.optimizer_s
    );
    println!(
        "pool: {} takes, {} hits ({:.1}% hit rate)",
        p.pool_takes,
        p.pool_hits,
        p.pool_hit_rate() * 100.0
    );

    // Gradient parity across worker counts {1, 2, 3, 5}.
    let parity_cfg = TrainConfig {
        epochs: 1,
        ..cfg.clone()
    };
    let parity_samples = &samples[..samples.len().min(16)];
    let parity_run = |workers: usize| {
        let lm = bench_lm(vocab, 7);
        let c = TrainConfig {
            train_workers: workers,
            ..parity_cfg.clone()
        };
        let report = train_sft_profiled(&lm, parity_samples, &c, TrainOrder::Shuffled, 11, None);
        // Exact f64 widening: equality below is bitwise, not approximate.
        let losses: Vec<f64> = report.losses.iter().map(|&l| l as f64).collect();
        (losses, trainable_weights(&lm))
    };
    let (base_losses, base_weights) = parity_run(1);
    let parity_workers = [2usize, 3, 5];
    let grad_parity = parity_workers.iter().all(|&w| {
        let (l, wts) = parity_run(w);
        let ok = l == base_losses && wts == base_weights;
        println!(
            "grad parity @ {w} workers: {}",
            if ok { "bit-identical" } else { "DIVERGED" }
        );
        ok
    });

    // Pool leak audit: nothing left checked out on this thread.
    let leaked = pool_stats().checked_out - checked_out_before;

    let note = if threads == 1 {
        "single-core host: parallel engine degenerates to serial; speedup \
         comes from the bit-identical op fast paths (sliced broadcast \
         kernels, dead-gradient GEMM skip, run-copy permute) and the SIMD \
         GEMM kernel"
    } else {
        "multi-core host"
    };
    let end_to_end = serde_json::json!({
        "samples": samples.len(),
        "epochs": cfg.epochs,
        "samples_trained": trained,
        "reference_serial_s": reference_s,
        "reference_samples_per_s": trained / reference_s,
        "fast_serial_s": fast_s,
        "fast_serial_samples_per_s": trained / fast_s,
        "fast_parallel_s": par_s,
        "fast_parallel_workers": threads,
        "fast_parallel_samples_per_s": trained / par_s,
        "speedup_serial": reference_s / fast_s,
        "speedup_end_to_end": reference_s / best_s,
        "loss_parity": loss_parity,
    });
    let pool = serde_json::json!({
        "takes": p.pool_takes,
        "hits": p.pool_hits,
        "hit_rate": p.pool_hit_rate(),
        "leaked_checkouts": leaked,
    });
    let parity = serde_json::json!({
        "workers": parity_workers.to_vec(),
        "baseline_workers": 1,
        "bit_identical": grad_parity,
    });
    let out = serde_json::to_string_pretty(&serde_json::json!({
        "host_threads": threads,
        "note": note,
        "end_to_end": end_to_end,
        "profile_fast_serial": p,
        "profile_fast_parallel": par.profile,
        "pool": pool,
        "grad_parity": parity,
    }))
    .expect("benchmark serializes");
    write_result("training_fast.json", &out);

    let mut gates = Gates::default();
    gates.check(
        "loss parity",
        loss_parity,
        "per-step losses differ between the reference and fast stages".into(),
    );
    gates.check(
        "gradient parity",
        grad_parity,
        format!("losses or weights differ from 1 worker at {parity_workers:?} workers"),
    );
    gates.check(
        "pool leak audit",
        leaked == 0,
        format!("{leaked} pooled buffers still checked out"),
    );
    gates.finish("training_fast");
}
