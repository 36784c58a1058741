//! Random weight initialization. Every initializer takes an explicit RNG so
//! experiments are reproducible from a seed — there is no global RNG.

use rand::Rng;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Standard-normal sample via Box–Muller (avoids depending on rand_distr).
pub fn randn_sample(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

impl Tensor {
    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let data: Vec<f32> = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Normal samples with the given mean and standard deviation.
    pub fn randn(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
        let shape = shape.into();
        let data: Vec<f32> = (0..shape.numel())
            .map(|_| mean + std * randn_sample(rng))
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// Xavier/Glorot-uniform init for a `(fan_in, fan_out)` weight matrix.
    pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform([fan_in, fan_out], -bound, bound, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_from_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn([4, 4], 0.0, 1.0, &mut r1);
        let b = Tensor::randn([4, 4], 0.0, 1.0, &mut r2);
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::rand_uniform([1000], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn randn_moments_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::randn([20_000], 0.0, 1.0, &mut rng);
        let d = t.data();
        let mean: f32 = d.iter().sum::<f32>() / d.len() as f32;
        let var: f32 = d.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn xavier_bound_scales_with_fan() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::xavier_uniform(300, 300, &mut rng);
        let bound = (6.0f32 / 600.0).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= bound));
    }
}
