//! Seeded random-projection **gradient sketching** for influence scoring.
//!
//! TracIn-style scores only consume gradients through inner products, so
//! compressing every gradient with one shared random projection `S: ℝ^p →
//! ℝ^k` (k ≪ p) preserves the scores approximately while cutting both the
//! memory held per checkpoint and the per-dot cost from `O(p)` to `O(k)`.
//! Lin et al. observe that top-K influence *rankings* survive aggressive
//! sketching; the rank-preservation test in `tests/` pins that property
//! for this implementation.
//!
//! The projection is a CountSketch-style sparse map: each input coordinate
//! `i` is assigned one output bucket `h(i)` and a sign `s(i) ∈ {±1}`, both
//! drawn from a [`rand::rngs::StdRng`] seeded by `(seed, p)`. Applying it
//! is a single `O(p)` pass (no `k × p` matrix), and `E⟨Sx, Sy⟩ = ⟨x, y⟩`
//! (the estimator is unbiased). Determinism: the same `(seed, p, k)`
//! always yields the same plan, on every thread — plans are cached behind
//! a [`parking_lot::RwLock`] so concurrent scoring workers share them.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tracin::CheckpointGrads;

/// Default projection seed used when a caller enables sketching without
/// picking one (see `ParallelConfig::with_sketch`).
pub const DEFAULT_SKETCH_SEED: u64 = 0x5EED_0F2A_C5EC;

/// One realized projection plan for input dimension `p`: bucket and sign
/// per coordinate.
#[derive(Debug)]
struct SketchPlan {
    bucket: Vec<u32>,
    sign: Vec<f32>,
}

impl SketchPlan {
    /// Deterministically draw the plan for `(seed, p)` with `dim` buckets.
    fn draw(seed: u64, p: usize, dim: usize) -> SketchPlan {
        // Mix `p` into the seed so different gradient dimensionalities get
        // independent plans from one sketcher.
        let mut rng = StdRng::seed_from_u64(seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut bucket = Vec::with_capacity(p);
        let mut sign = Vec::with_capacity(p);
        for _ in 0..p {
            bucket.push(rng.gen_range(0..dim as u32));
            sign.push(if rng.gen_bool(0.5) { 1.0 } else { -1.0 });
        }
        SketchPlan { bucket, sign }
    }
}

/// A seeded gradient sketcher: projects `ℝ^p` gradients to `ℝ^dim`.
///
/// Cheap to share by reference across scoring workers; the per-`p` plan
/// cache is guarded by a [`parking_lot::RwLock`].
#[derive(Debug)]
pub struct Sketcher {
    dim: usize,
    seed: u64,
    plans: RwLock<BTreeMap<usize, Arc<SketchPlan>>>,
}

impl Sketcher {
    /// A sketcher projecting into `dim` buckets with projection seed
    /// `seed`.
    pub fn new(dim: usize, seed: u64) -> Sketcher {
        assert!(dim > 0, "sketch dimension must be positive");
        Sketcher {
            dim,
            seed,
            plans: RwLock::new(BTreeMap::new()),
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Projection seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn plan(&self, p: usize) -> Arc<SketchPlan> {
        if let Some(plan) = self.plans.read().get(&p) {
            return Arc::clone(plan);
        }
        let mut w = self.plans.write();
        // Another worker may have built it between the read and the write.
        Arc::clone(
            w.entry(p)
                .or_insert_with(|| Arc::new(SketchPlan::draw(self.seed, p, self.dim))),
        )
    }

    /// Project one gradient vector into the sketch space (`O(p)`).
    pub fn sketch_vec(&self, g: &[f32]) -> Vec<f32> {
        let plan = self.plan(g.len());
        let mut out = vec![0.0f32; self.dim];
        for ((&v, &b), &s) in g.iter().zip(&plan.bucket).zip(&plan.sign) {
            out[b as usize] += s * v;
        }
        out
    }

    /// Project every train/test gradient of every checkpoint, preserving
    /// `eta`/`time` metadata. The same plan is used across checkpoints and
    /// splits — scores are inner products between them, so they must live
    /// in one shared sketch space.
    pub fn sketch_checkpoints(&self, checkpoints: &[CheckpointGrads]) -> Vec<CheckpointGrads> {
        let _span = zg_trace::span_arg("influence.sketch", checkpoints.len() as i64);
        checkpoints
            .iter()
            .map(|ck| CheckpointGrads {
                eta: ck.eta,
                time: ck.time,
                train: ck.train.iter().map(|g| self.sketch_vec(g)).collect(),
                test: ck.test.iter().map(|g| self.sketch_vec(g)).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_vec(seed: u64, p: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn sketch_is_deterministic_per_seed() {
        let g = seeded_vec(1, 300);
        let a = Sketcher::new(32, 7).sketch_vec(&g);
        let b = Sketcher::new(32, 7).sketch_vec(&g);
        assert_eq!(a, b, "same (seed, dim) must give identical sketches");
        let c = Sketcher::new(32, 8).sketch_vec(&g);
        assert_ne!(a, c, "different seeds must give different sketches");
    }

    #[test]
    fn sketch_is_linear() {
        // CountSketch is a linear map: S(x + y) = Sx + Sy, S(αx) = αSx.
        let s = Sketcher::new(16, 3);
        let x = seeded_vec(2, 100);
        let y = seeded_vec(3, 100);
        let sum: Vec<f32> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
        let lhs = s.sketch_vec(&sum);
        let rhs: Vec<f32> = s
            .sketch_vec(&x)
            .iter()
            .zip(s.sketch_vec(&y))
            .map(|(&a, b)| a + b)
            .collect();
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-5, "{l} vs {r}");
        }
    }

    #[test]
    fn sketch_dot_is_roughly_unbiased() {
        // Average ⟨Sx, Sy⟩ over many independent seeds ≈ ⟨x, y⟩.
        let x = seeded_vec(4, 200);
        let y = seeded_vec(5, 200);
        let exact: f32 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
        let mut mean = 0.0f64;
        let trials = 300;
        for seed in 0..trials {
            let s = Sketcher::new(64, seed);
            let d: f32 = s
                .sketch_vec(&x)
                .iter()
                .zip(s.sketch_vec(&y))
                .map(|(&a, b)| a * b)
                .sum();
            mean += d as f64 / trials as f64;
        }
        assert!(
            (mean - exact as f64).abs() < 0.5,
            "mean sketched dot {mean} vs exact {exact}"
        );
    }

    #[test]
    fn sketch_checkpoints_preserves_metadata() {
        let ck = CheckpointGrads {
            eta: 0.1,
            time: 3,
            train: vec![seeded_vec(6, 50), seeded_vec(7, 50)],
            test: vec![seeded_vec(8, 50)],
        };
        let sk = Sketcher::new(8, 1).sketch_checkpoints(&[ck]);
        assert_eq!(sk.len(), 1);
        assert_eq!(sk[0].eta, 0.1);
        assert_eq!(sk[0].time, 3);
        assert_eq!(sk[0].train.len(), 2);
        assert_eq!(sk[0].test.len(), 1);
        assert!(sk[0].train.iter().all(|g| g.len() == 8));
    }
}
