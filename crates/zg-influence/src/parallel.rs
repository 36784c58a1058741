//! The **parallel influence engine**: a worker-pool layer that fans
//! per-sample gradient and scoring work across OS threads with a
//! deterministic, chunk-ordered reduction.
//!
//! Design constraints, in order:
//!
//! 1. **Bit-identical results.** Per-sample influence scores are
//!    independent of each other, so splitting the sample axis into
//!    contiguous chunks and concatenating worker outputs in chunk order
//!    reproduces the serial float-operation order exactly. Serial is
//!    literally the `workers = 1` special case of the same kernel —
//!    there is no "fast but slightly different" mode (pinned by the
//!    determinism tests).
//! 2. **Scoped threads, no 'static.** Workers borrow the checkpoint
//!    gradients and sample slices directly via [`crossbeam::thread::scope`];
//!    nothing is cloned to satisfy lifetimes.

use serde::{Deserialize, Serialize};

use crate::tracin::{self, CheckpointGrads, TracConfig};

/// Knobs for the parallel influence engine.
///
/// `workers = 1` is serial scoring; every other setting of `workers`
/// changes wall-clock only, never the scores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Worker threads for gradient fan-out and scoring. `0` means "use
    /// [`std::thread::available_parallelism`]".
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::serial()
    }
}

impl ParallelConfig {
    /// Serial scoring — the reference configuration.
    pub fn serial() -> ParallelConfig {
        ParallelConfig { workers: 1 }
    }

    /// Scoring on all available cores.
    pub fn auto() -> ParallelConfig {
        ParallelConfig { workers: 0 }
    }

    /// Same config with an explicit worker count.
    pub fn with_workers(self, workers: usize) -> ParallelConfig {
        ParallelConfig { workers }
    }

    /// The concrete worker count: `workers`, or the machine's available
    /// parallelism when `workers == 0`.
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// Parallel map with per-worker state and a deterministic, chunk-ordered
/// reduction.
///
/// `items` is split into `workers` contiguous chunks; each worker builds
/// its own state with `init` (e.g. a model replica) and maps its chunk in
/// order; outputs are concatenated in chunk order. Because every item is
/// processed by the same pure code in the same relative position,
/// the result is identical for any worker count — `workers = 1` runs
/// inline with no threads.
pub fn par_map_init<T, U, S, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        // Inline fallback still gets its own chunk stream (installs are a
        // stack, so this nests cleanly under the caller's stream) — the
        // trace shows the same per-chunk shape at every worker count.
        let _stream = zg_trace::fork_stream("chunk0").map(zg_trace::StreamHandle::install);
        let _span = zg_trace::span_arg("par.chunk", 0);
        let mut state = init();
        return items
            .iter()
            .map(|t| {
                zg_trace::counter_add("par.items", 1.0);
                f(&mut state, t)
            })
            .collect();
    }
    let chunk = items.len().div_ceil(workers);
    let init = &init;
    let f = &f;
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, part)| {
                // Stream ids allocate here, on the spawning thread in
                // chunk order, so the merged trace is scheduling-independent.
                let stream = zg_trace::fork_stream(&format!("chunk{ci}"));
                s.spawn(move || {
                    let _guard = stream.map(zg_trace::StreamHandle::install);
                    let _span = zg_trace::span_arg("par.chunk", ci as i64);
                    let mut state = init();
                    part.iter()
                        .map(|t| {
                            zg_trace::counter_add("par.items", 1.0);
                            f(&mut state, t)
                        })
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            // INVARIANT: a worker panic is unrecoverable; re-raise it in the parent.
            out.extend(h.join().expect("influence worker panicked"));
        }
        out
    })
    // INVARIANT: a worker panic is unrecoverable; re-raise it in the parent.
    .expect("influence worker pool panicked")
}

/// Stateless [`par_map_init`]: fan a pure function over `items` across
/// `workers` threads, preserving item order.
pub fn par_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_init(items, workers, || (), |(), t| f(t))
}

/// [`influence_scores`](crate::influence_scores) through the parallel
/// engine: per-sample scoring fanned across `par.workers` threads,
/// **bit-identical** to serial scoring for every worker count.
pub fn influence_scores_with(
    checkpoints: &[CheckpointGrads],
    cfg: &TracConfig,
    sample_times: Option<&[u32]>,
    par: &ParallelConfig,
) -> Vec<f32> {
    cfg.validate();
    assert!(!checkpoints.is_empty(), "need at least one checkpoint");
    let _span = zg_trace::span_arg("influence.scores", checkpoints[0].train.len() as i64);
    zg_trace::counter_add("influence.checkpoints", checkpoints.len() as f64);
    let n_train = checkpoints[0].train.len();
    let n_test = checkpoints[0].test.len();
    assert!(n_test > 0, "need at least one test sample");
    for ck in checkpoints {
        ck.validate();
        assert_eq!(
            ck.train.len(),
            n_train,
            "train count differs across checkpoints"
        );
        assert_eq!(
            ck.test.len(),
            n_test,
            "test count differs across checkpoints"
        );
    }
    if cfg.decay_samples {
        // INVARIANT: documented API precondition of `cfg.decay_samples`.
        let times = sample_times.expect("decay_samples requires sample_times");
        assert_eq!(times.len(), n_train, "sample_times length mismatch");
    }

    // Per-checkpoint pieces that are shared by every sample: the combined
    // decay·η weight and the mean test gradient (Σ_test ⟨g, g'⟩ / n =
    // ⟨g, mean g'⟩ — turns n_train × n_test dots into n_train dots).
    let weights: Vec<f32> = checkpoints
        .iter()
        .map(|ck| tracin::checkpoint_weight(cfg, ck.time) * ck.eta)
        .collect();
    let means: Vec<Vec<f32>> = checkpoints.iter().map(tracin::mean_test_gradient).collect();

    let idx: Vec<usize> = (0..n_train).collect();
    let mut scores = par_map(&idx, par.resolved_workers(), |&z| {
        let mut acc = 0.0f32;
        for (ck, (&w, mean)) in checkpoints.iter().zip(weights.iter().zip(&means)) {
            acc += w * tracin::dot(&ck.train[z], mean);
        }
        acc
    });

    if cfg.decay_samples {
        // INVARIANT: presence was checked at function entry when decay_samples is set.
        let times = sample_times.expect("checked above");
        for (s, &t) in scores.iter_mut().zip(times) {
            *s *= cfg.gamma.powi(cfg.current_time.saturating_sub(t) as i32);
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = par_map(&items, workers, |&i| i * 2);
            assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_init_builds_state_per_worker() {
        // State is an accumulating counter: with 1 worker the positions
        // are 0..n; with many workers each chunk restarts from 0. Both
        // are deterministic; this pins the per-worker-state contract.
        let items: Vec<u32> = (0..10).collect();
        let serial = par_map_init(
            &items,
            1,
            || 0usize,
            |c, _| {
                *c += 1;
                *c
            },
        );
        assert_eq!(serial, (1..=10).collect::<Vec<usize>>());
        let split = par_map_init(
            &items,
            2,
            || 0usize,
            |c, _| {
                *c += 1;
                *c
            },
        );
        assert_eq!(split, vec![1, 2, 3, 4, 5, 1, 2, 3, 4, 5]);
    }

    fn random_grads(
        seed: u64,
        n_ck: usize,
        n_train: usize,
        n_test: usize,
        p: usize,
    ) -> Vec<CheckpointGrads> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_ck)
            .map(|t| CheckpointGrads {
                eta: rng.gen_range(0.01..0.2),
                time: t as u32,
                train: (0..n_train)
                    .map(|_| (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect(),
                test: (0..n_test)
                    .map(|_| (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn parallel_scores_bit_identical_to_serial() {
        let cks = random_grads(11, 3, 57, 9, 40);
        let cfg = TracConfig {
            gamma: 0.85,
            current_time: 2,
            decay_samples: false,
        };
        let serial = influence_scores_with(&cks, &cfg, None, &ParallelConfig::serial());
        assert_eq!(serial, crate::influence_scores(&cks, &cfg, None));
        for workers in [2, 3, 8] {
            let par = influence_scores_with(
                &cks,
                &cfg,
                None,
                &ParallelConfig::serial().with_workers(workers),
            );
            assert_eq!(serial, par, "workers={workers} must be bit-identical");
        }
    }

    #[test]
    fn resolved_workers_sane() {
        assert_eq!(ParallelConfig::serial().resolved_workers(), 1);
        assert!(ParallelConfig::auto().resolved_workers() >= 1);
        assert_eq!(
            ParallelConfig::serial().with_workers(5).resolved_workers(),
            5
        );
    }
}
