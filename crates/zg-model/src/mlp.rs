//! SwiGLU feed-forward block: `down( silu(gate(x)) ⊙ up(x) )`, the
//! Llama/Mistral MLP with SiLU activation (paper Table 3).

use zg_tensor::Tensor;

use crate::layers::{Init, Linear};

/// Gated feed-forward network.
pub struct SwiGluMlp {
    gate: Linear,
    up: Linear,
    down: Linear,
}

impl SwiGluMlp {
    /// Build the three projections.
    pub fn new(d_model: usize, d_ff: usize, init: &mut impl Init) -> Self {
        SwiGluMlp {
            gate: Linear::new(d_model, d_ff, init),
            up: Linear::new(d_model, d_ff, init),
            down: Linear::new(d_ff, d_model, init),
        }
    }

    /// Apply the block: `(…, d_model) -> (…, d_model)`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let g = self.gate.forward(x).silu();
        let u = self.up.forward(x);
        self.down.forward(&g.mul(&u))
    }

    /// Named parameters.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        out.extend(self.gate.params(&format!("{prefix}.gate")));
        out.extend(self.up.params(&format!("{prefix}.up")));
        out.extend(self.down.params(&format!("{prefix}.down")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = SwiGluMlp::new(8, 16, &mut rng);
        let x = Tensor::ones([2, 3, 8]);
        assert_eq!(mlp.forward(&x).dims(), &[2, 3, 8]);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = SwiGluMlp::new(4, 8, &mut rng);
        let x = Tensor::zeros([1, 1, 4]);
        let y = mlp.forward(&x);
        assert!(y.to_vec().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn gradients_flow() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = SwiGluMlp::new(4, 8, &mut rng);
        let x = Tensor::param(vec![0.5; 4], [1, 1, 4]);
        mlp.forward(&x).sum().backward();
        assert!(x.grad().is_some());
        assert_eq!(mlp.params("m").len(), 3);
        for (_, p) in mlp.params("m") {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn nonlinearity_present() {
        // f(2x) != 2 f(x) for a gated nonlinear block.
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = SwiGluMlp::new(4, 8, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.1], [1, 1, 4]);
        let y1 = mlp.forward(&x).to_vec();
        let y2 = mlp.forward(&x.mul_scalar(2.0)).to_vec();
        let linear = y1.iter().zip(&y2).all(|(a, b)| (2.0 * a - b).abs() < 1e-6);
        assert!(!linear, "SwiGLU must not be linear");
    }
}
