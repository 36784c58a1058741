//! Training fast-path benchmark: end-to-end `train_sft` throughput of
//! the current engine (bit-identical op fast paths, tensor buffer
//! pooling, fused clip+AdamW, an SFT loss that runs the blocks only up
//! to the last supervised position and the LM head only on supervised
//! rows, optional data-parallel gradient accumulation) against the
//! historical serial loop (op fast paths and pool disabled, three-pass
//! clip + step, reshape-copied logits at every position), plus the
//! trainer's phase-timing profile and the bit-identity checks the fast
//! path guarantees. Writes `results/training_fast.json`.
//!
//! Sections:
//!
//! 1. end-to-end: legacy serial loop vs fast serial vs fast parallel
//!    (all available cores), samples/sec and speedups, with exact
//!    per-step loss parity between legacy and fast paths;
//! 2. profile: phase timings (collate/sync/forward/backward/reduce/
//!    optimizer) and buffer-pool counters of the fast run;
//! 3. grad_parity: losses and final trainable weights bit-identical
//!    across worker counts {1, 2, 3, 5};
//! 4. pool: hit rate and a checked-out-buffer leak audit.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use zg_bench::{quick_mode, write_result};
use zg_model::{clip_grad_norm, AdamW, CausalLm, CosineSchedule, ModelConfig};
use zg_tensor::{available_threads, pool_stats, set_op_fast_paths, set_pool_enabled, Tensor};
use zg_zigong::{
    collate, tokenize_all, train_sft_profiled, train_tokenizer, Sample, TrainConfig, TrainOrder,
};

/// The historical `sft_loss`: logits at every position, reshaped from
/// `(batch, time, vocab)` into `(batch*time, vocab)` — a full copy
/// forward and backward — then cross-entropy. The current loss computes
/// logits for the supervised rows only.
fn sft_loss_legacy(
    lm: &CausalLm,
    tokens: &[u32],
    labels: &[u32],
    batch: usize,
    time: usize,
) -> Tensor {
    let logits = lm
        .forward(tokens, batch, time)
        .reshape([batch * time, lm.cfg.vocab_size]);
    let targets: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
    logits.cross_entropy_logits(&targets, Some(0))
}

/// The historical serial training loop, verbatim: same shuffling stream,
/// micro-batching, loss scaling, and cosine schedule as `train_sft`, but
/// with the reshape-based loss and the three-traversal
/// `clip_grad_norm` + `AdamW::step` optimizer update. Run with the
/// buffer pool disabled to reproduce the pre-pool allocator behavior.
fn train_sft_legacy(lm: &CausalLm, samples: &[Sample], cfg: &TrainConfig, seed: u64) -> Vec<f32> {
    let params = lm.trainable_params();
    let mut rng = StdRng::seed_from_u64(seed);
    let micro_per_epoch = samples.len().div_ceil(cfg.batch_size);
    let steps_per_epoch = micro_per_epoch.div_ceil(cfg.grad_accum).max(1);
    let total_steps = (steps_per_epoch * cfg.epochs) as u64;
    let schedule = CosineSchedule {
        max_lr: cfg.max_lr,
        min_lr: cfg.min_lr,
        warmup_steps: cfg.warmup_steps.min(total_steps / 2),
        total_steps,
    };
    let mut opt = AdamW::new(cfg.max_lr, cfg.weight_decay);
    let mut indices: Vec<usize> = (0..samples.len()).collect();
    let mut losses = Vec::new();
    let mut step: u64 = 0;
    for _epoch in 0..cfg.epochs {
        indices.shuffle(&mut rng);
        let mut micro_in_step = 0usize;
        let mut loss_acc = 0.0f32;
        for chunk in indices.chunks(cfg.batch_size) {
            let batch: Vec<&Sample> = chunk.iter().map(|&i| &samples[i]).collect();
            let (tokens, labels, b, t) = collate(&batch);
            let loss = sft_loss_legacy(lm, &tokens, &labels, b, t);
            loss_acc += loss.item();
            loss.mul_scalar(1.0 / cfg.grad_accum as f32).backward();
            micro_in_step += 1;
            if micro_in_step == cfg.grad_accum {
                clip_grad_norm(&params, cfg.clip_norm);
                opt.lr = schedule.lr_at(step);
                opt.step(&params);
                losses.push(loss_acc / micro_in_step as f32);
                step += 1;
                micro_in_step = 0;
                loss_acc = 0.0;
            }
        }
        if micro_in_step > 0 {
            clip_grad_norm(&params, cfg.clip_norm);
            opt.lr = schedule.lr_at(step);
            opt.step(&params);
            losses.push(loss_acc / micro_in_step as f32);
            step += 1;
        }
    }
    losses
}

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

    // Timed stages repeat `reps` times and report the fastest wall time
    // (the standard defense against scheduler noise on a shared host);
    // every repetition is seeded identically, so losses and weights are
    // the same across repetitions by the engine's determinism guarantee.
    // The first repetition doubles as each stage's warm-up under its own
    // switches, so stage ordering doesn't bias the comparison.
    let reps = if quick { 1 } else { 3 };

    // --- 1. Legacy serial loop: pool off, op fast paths off (strided
    // broadcast/permute kernels, dead-gradient GEMMs computed and
    // discarded), reshape loss, 3-pass update.
    let was_enabled = set_pool_enabled(false);
    let was_fast = set_op_fast_paths(false);
    let mut legacy_s = f64::INFINITY;
    let mut legacy_losses = Vec::new();
    for _ in 0..reps {
        let lm_legacy = bench_lm(vocab, 42);
        let t0 = Instant::now();
        legacy_losses = train_sft_legacy(&lm_legacy, &samples, &cfg, seed);
        legacy_s = legacy_s.min(t0.elapsed().as_secs_f64());
    }
    set_op_fast_paths(was_fast);
    set_pool_enabled(was_enabled);
    println!(
        "legacy serial: {legacy_s:.2}s ({:.2} samples/s, best of {reps})",
        trained / legacy_s
    );

    // --- 2. Fast serial: op fast paths, pool, fused optimizer,
    // supervised-rows loss.
    let epoch_clock = zg_trace::wall_clock();
    let checked_out_before = pool_stats().checked_out;
    let mut fast_s = f64::INFINITY;
    let mut fast = None;
    for _ in 0..reps {
        let lm_fast = bench_lm(vocab, 42);
        let t0 = Instant::now();
        let report = train_sft_profiled(
            &lm_fast,
            &samples,
            &cfg,
            TrainOrder::Shuffled,
            seed,
            Some(epoch_clock.clone()),
        );
        let s = t0.elapsed().as_secs_f64();
        if s < fast_s {
            fast_s = s;
            fast = Some(report);
        }
    }
    let fast = fast.expect("at least one fast-serial repetition");
    println!(
        "fast serial:   {fast_s:.2}s ({:.2} samples/s, {:.2}x vs legacy)",
        trained / fast_s,
        legacy_s / fast_s
    );

    // Per-step losses must match the legacy loop exactly: the fused
    // optimizer, the pool, the supervised-rows loss, and every op fast
    // path are all bit-transparent.
    let loss_parity = legacy_losses == fast.losses;
    if !loss_parity {
        println!("WARNING: fast-path losses diverge from the legacy loop");
    }

    // --- 3. Fast parallel: every available core.
    let par_cfg = TrainConfig {
        train_workers: threads,
        ..cfg.clone()
    };
    let mut par_s = f64::INFINITY;
    let mut par = None;
    for _ in 0..reps {
        let lm_par = bench_lm(vocab, 42);
        let t0 = Instant::now();
        let report = train_sft_profiled(
            &lm_par,
            &samples,
            &par_cfg,
            TrainOrder::Shuffled,
            seed,
            Some(epoch_clock.clone()),
        );
        let s = t0.elapsed().as_secs_f64();
        if s < par_s {
            par_s = s;
            par = Some(report);
        }
    }
    let par = par.expect("at least one fast-parallel repetition");
    println!(
        "fast parallel ({threads}w): {par_s:.2}s ({:.2} samples/s, {:.2}x vs legacy)",
        trained / par_s,
        legacy_s / par_s
    );
    let par_loss_parity = par.losses == fast.losses;

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

    // --- 4. Gradient parity across worker counts {1, 2, 3, 5}.
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

    // --- 5. Pool leak audit: nothing left checked out on this thread.
    let leaked = pool_stats().checked_out - checked_out_before;
    if leaked != 0 {
        println!("WARNING: {leaked} pooled buffers still checked out");
    }

    let note = if threads == 1 {
        "single-core host: parallel engine degenerates to serial; speedup \
         comes from the bit-identical op fast paths (sliced broadcast \
         kernels, dead-gradient GEMM skip, run-copy permute), pooling, the \
         fused optimizer, and the supervised-rows loss"
    } else {
        "multi-core host"
    };
    let end_to_end = serde_json::json!({
        "samples": samples.len(),
        "epochs": cfg.epochs,
        "samples_trained": trained,
        "legacy_serial_s": legacy_s,
        "legacy_samples_per_s": trained / legacy_s,
        "fast_serial_s": fast_s,
        "fast_serial_samples_per_s": trained / fast_s,
        "fast_parallel_s": par_s,
        "fast_parallel_workers": threads,
        "fast_parallel_samples_per_s": trained / par_s,
        "speedup_serial": legacy_s / fast_s,
        "speedup_end_to_end": legacy_s / best_s,
        "loss_parity": loss_parity && par_loss_parity,
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

    assert!(loss_parity, "loss parity violated");
    assert!(grad_parity, "gradient parity violated");
    assert_eq!(leaked, 0, "pooled buffer leak");
}
