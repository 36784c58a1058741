//! Optimization: AdamW (paper Table 3: β₁=0.9, β₂=0.999), cosine-decay
//! learning-rate schedule with warmup, and global-norm gradient clipping.

use std::collections::BTreeMap;

use zg_tensor::Tensor;

/// AdamW with decoupled weight decay.
pub struct AdamW {
    /// Current learning rate (mutated by the schedule each step).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
    /// Step counter (for bias correction).
    pub t: u64,
    state: BTreeMap<u64, Moments>,
}

struct Moments {
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdamW {
    /// AdamW with the paper's betas and the given base learning rate.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            state: BTreeMap::new(),
        }
    }

    /// One update step over `params` using their accumulated gradients,
    /// then clears those gradients. Parameters without a gradient are
    /// skipped (e.g. frozen base weights under LoRA).
    pub fn step(&mut self, params: &[(String, Tensor)]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (_, p) in params {
            let Some(g) = p.grad() else { continue };
            let entry = self.state.entry(p.id()).or_insert_with(|| Moments {
                m: vec![0.0; g.len()],
                v: vec![0.0; g.len()],
            });
            let mut data = p.data_mut();
            for i in 0..g.len() {
                entry.m[i] = self.beta1 * entry.m[i] + (1.0 - self.beta1) * g[i];
                entry.v[i] = self.beta2 * entry.v[i] + (1.0 - self.beta2) * g[i] * g[i];
                let mhat = entry.m[i] / bc1;
                let vhat = entry.v[i] / bc2;
                data[i] -=
                    self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * data[i]);
            }
            drop(data);
            p.zero_grad();
        }
    }

    /// Global-norm clip fused into the update step.
    ///
    /// The two-pass path ([`clip_grad_norm`] then [`AdamW::step`]) walks
    /// the parameters three times when clipping triggers — norm read,
    /// gradient rewrite (allocate + zero + re-accumulate), update read.
    /// This fuses the clip into the update: one traversal computes the
    /// norm in the identical float order, then a single update traversal
    /// applies `g[i] * scale` inline, reading each gradient buffer once
    /// and never rewriting it. The float operations match the two-pass
    /// path exactly (the rewrite pass stores `g[i] * scale` and the
    /// update reads it back; without clipping the gradient is used
    /// as-is), so the result is bit-identical.
    ///
    /// Returns the pre-clip global norm, like [`clip_grad_norm`].
    pub fn clip_and_step(&mut self, params: &[(String, Tensor)], max_norm: f32) -> f32 {
        let mut total = 0.0f32;
        for (_, p) in params {
            if let Some(sq) = p.with_grad(|g| g.iter().map(|v| v * v).sum::<f32>()) {
                total += sq;
            }
        }
        let norm = total.sqrt();
        let scale = if norm > max_norm && norm > 0.0 {
            Some(max_norm / norm)
        } else {
            None
        };
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, eps, weight_decay, lr) =
            (self.beta1, self.beta2, self.eps, self.weight_decay, self.lr);
        for (_, p) in params {
            let state = &mut self.state;
            let applied = p.with_grad(|g| {
                let entry = state.entry(p.id()).or_insert_with(|| Moments {
                    m: vec![0.0; g.len()],
                    v: vec![0.0; g.len()],
                });
                let mut data = p.data_mut();
                for i in 0..g.len() {
                    let gi = match scale {
                        Some(s) => g[i] * s,
                        None => g[i],
                    };
                    entry.m[i] = beta1 * entry.m[i] + (1.0 - beta1) * gi;
                    entry.v[i] = beta2 * entry.v[i] + (1.0 - beta2) * gi * gi;
                    let mhat = entry.m[i] / bc1;
                    let vhat = entry.v[i] / bc2;
                    data[i] -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * data[i]);
                }
            });
            if applied.is_some() {
                p.zero_grad();
            }
        }
        norm
    }
}

/// Rescale gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[(String, Tensor)], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for (_, p) in params {
        if let Some(g) = p.grad() {
            total += g.iter().map(|v| v * v).sum::<f32>();
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for (_, p) in params {
            if let Some(g) = p.grad() {
                let scaled: Vec<f32> = g.iter().map(|v| v * scale).collect();
                p.zero_grad();
                p.accumulate_grad(&scaled);
            }
        }
    }
    norm
}

/// Cosine-decay schedule with linear warmup (paper Table 3: "Cosine Decay").
#[derive(Debug, Clone)]
pub struct CosineSchedule {
    /// Peak learning rate reached at the end of warmup.
    pub max_lr: f32,
    /// Floor learning rate at the end of decay.
    pub min_lr: f32,
    /// Number of linear warmup steps.
    pub warmup_steps: u64,
    /// Total steps of the schedule.
    pub total_steps: u64,
}

impl CosineSchedule {
    /// Learning rate at `step` (0-indexed).
    pub fn lr_at(&self, step: u64) -> f32 {
        if self.warmup_steps > 0 && step < self.warmup_steps {
            return self.max_lr * (step + 1) as f32 / self.warmup_steps as f32;
        }
        if step >= self.total_steps {
            return self.min_lr;
        }
        let progress = (step - self.warmup_steps) as f32
            / (self.total_steps - self.warmup_steps).max(1) as f32;
        self.min_lr
            + 0.5 * (self.max_lr - self.min_lr) * (1.0 + (std::f32::consts::PI * progress).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adamw_minimizes_quadratic() {
        // f(w) = (w - 3)^2, minimized at w = 3.
        let w = Tensor::param(vec![0.0], [1]);
        let params = vec![("w".to_string(), w.clone())];
        let mut opt = AdamW::new(0.1, 0.0);
        for _ in 0..300 {
            let loss = w.sub_scalar(3.0).square().sum();
            loss.backward();
            opt.step(&params);
        }
        assert!((w.item() - 3.0).abs() < 0.05, "w = {}", w.item());
    }

    #[test]
    fn adamw_skips_frozen_params() {
        let frozen = Tensor::from_vec(vec![1.0], [1]); // no grad ever
        let params = vec![("f".to_string(), frozen.clone())];
        let mut opt = AdamW::new(0.1, 0.0);
        opt.step(&params);
        assert_eq!(frozen.to_vec(), vec![1.0]);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let w = Tensor::param(vec![1.0], [1]);
        let params = vec![("w".to_string(), w.clone())];
        let mut opt = AdamW::new(0.01, 0.5);
        // Zero-gradient steps: only decay acts.
        for _ in 0..10 {
            w.accumulate_grad(&[0.0]);
            opt.step(&params);
        }
        assert!(w.item() < 1.0);
    }

    #[test]
    fn step_clears_gradients() {
        let w = Tensor::param(vec![0.0], [1]);
        let params = vec![("w".to_string(), w.clone())];
        let mut opt = AdamW::new(0.1, 0.0);
        w.accumulate_grad(&[1.0]);
        opt.step(&params);
        assert!(w.grad().is_none());
    }

    #[test]
    fn clip_reduces_large_norm() {
        let w = Tensor::param(vec![0.0, 0.0], [2]);
        w.accumulate_grad(&[3.0, 4.0]); // norm 5
        let params = vec![("w".to_string(), w.clone())];
        let pre = clip_grad_norm(&params, 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let g = w.grad().unwrap();
        let post: f32 = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_leaves_small_norm() {
        let w = Tensor::param(vec![0.1], [1]);
        w.accumulate_grad(&[0.1]);
        let params = vec![("w".to_string(), w.clone())];
        clip_grad_norm(&params, 1.0);
        assert!((w.grad().unwrap()[0] - 0.1).abs() < 1e-7);
    }

    #[test]
    fn cosine_schedule_shape() {
        let s = CosineSchedule {
            max_lr: 1.0,
            min_lr: 0.1,
            warmup_steps: 10,
            total_steps: 110,
        };
        assert!(s.lr_at(0) < 0.2); // warmup starts low
        assert!((s.lr_at(9) - 1.0).abs() < 1e-6); // warmup peak
        assert!(s.lr_at(60) < 1.0 && s.lr_at(60) > 0.1); // mid decay
        assert!((s.lr_at(109) - 0.1).abs() < 0.02); // near floor
        assert_eq!(s.lr_at(500), 0.1); // clamped after end
    }

    #[test]
    fn cosine_schedule_monotone_decay_after_warmup() {
        let s = CosineSchedule {
            max_lr: 3e-5,
            min_lr: 1e-5,
            warmup_steps: 5,
            total_steps: 100,
        };
        let mut prev = f32::INFINITY;
        for step in 5..100 {
            let lr = s.lr_at(step);
            assert!(lr <= prev + 1e-9, "lr increased at step {step}");
            prev = lr;
        }
    }
}
