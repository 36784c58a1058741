//! Basic building blocks: linear projection (with optional LoRA adapter
//! slot), token embedding, and RMSNorm, and the [`Init`] that fills a new
//! layer's weights.

use rand::Rng;
use zg_tensor::Tensor;

/// Fills the weights of a newly built layer.
///
/// Every RNG is an `Init` that draws the usual random weights. [`ZeroInit`]
/// leaves them zero, for a model whose every weight is restored right
/// after it is built, as [`LmSpec::build`](crate::LmSpec::build) does.
pub trait Init {
    /// A `(fan_in, fan_out)` projection matrix: Xavier-uniform when random.
    fn matrix(&mut self, fan_in: usize, fan_out: usize) -> Tensor;
    /// A `(vocab, d_model)` embedding table: Normal(0, 0.02) when random,
    /// the usual LM choice.
    fn embedding(&mut self, vocab: usize, d_model: usize) -> Tensor;
}

impl<R: Rng> Init for R {
    fn matrix(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        Tensor::xavier_uniform(fan_in, fan_out, self)
    }

    fn embedding(&mut self, vocab: usize, d_model: usize) -> Tensor {
        Tensor::randn([vocab, d_model], 0.0, 0.02, self)
    }
}

/// The [`Init`] that leaves every weight zero and draws nothing.
pub struct ZeroInit;

impl Init for ZeroInit {
    fn matrix(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        Tensor::from_vec(vec![0.0; fan_in * fan_out], [fan_in, fan_out])
    }

    fn embedding(&mut self, vocab: usize, d_model: usize) -> Tensor {
        Tensor::from_vec(vec![0.0; vocab * d_model], [vocab, d_model])
    }
}

/// A LoRA adapter attached to a [`Linear`]: `y += scale · (x·A)·B`.
///
/// The adapter *slot* lives here so attention code is adapter-agnostic;
/// construction, freezing policy, and merging live in the `zg-lora` crate.
#[derive(Clone)]
pub struct Adapter {
    /// Down-projection, shape `(in_features, rank)`.
    pub a: Tensor,
    /// Up-projection, shape `(rank, out_features)`.
    pub b: Tensor,
    /// `alpha / rank` scaling.
    pub scale: f32,
}

/// Dense linear layer `y = x·W + b`, weight shape `(in, out)`.
pub struct Linear {
    /// Weight matrix `(in_features, out_features)`.
    pub weight: Tensor,
    /// Optional bias `(out_features,)`.
    pub bias: Option<Tensor>,
    /// Optional LoRA adapter applied additively.
    pub adapter: Option<Adapter>,
}

impl Linear {
    /// Linear layer without bias (transformer default), weight from `init`.
    pub fn new(in_features: usize, out_features: usize, init: &mut impl Init) -> Self {
        let weight = init.matrix(in_features, out_features);
        weight.set_requires_grad(true);
        Linear {
            weight,
            bias: None,
            adapter: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Apply the layer: `x (…, in) -> (…, out)`, plus the adapter path when
    /// one is attached.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.weight);
        if let Some(ad) = &self.adapter {
            let delta = x.matmul(&ad.a).matmul(&ad.b).mul_scalar(ad.scale);
            y = y.add(&delta);
        }
        match &self.bias {
            Some(b) => y.add(b),
            None => y,
        }
    }

    /// Named parameters (prefixed), including adapter parameters when present.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        let mut out = vec![(format!("{prefix}.weight"), self.weight.clone())];
        if let Some(b) = &self.bias {
            out.push((format!("{prefix}.bias"), b.clone()));
        }
        if let Some(ad) = &self.adapter {
            out.push((format!("{prefix}.lora_a"), ad.a.clone()));
            out.push((format!("{prefix}.lora_b"), ad.b.clone()));
        }
        out
    }
}

/// Token embedding table, shape `(vocab, d_model)`.
pub struct Embedding {
    /// The embedding matrix.
    pub weight: Tensor,
}

impl Embedding {
    /// Embedding table from `init`.
    pub fn new(vocab: usize, d_model: usize, init: &mut impl Init) -> Self {
        let weight = init.embedding(vocab, d_model);
        weight.set_requires_grad(true);
        Embedding { weight }
    }

    /// Look up `ids` (flattened) and reshape to `(batch, time, d_model)`.
    pub fn forward(&self, ids: &[u32], batch: usize, time: usize) -> Tensor {
        assert_eq!(ids.len(), batch * time, "ids length mismatch");
        let idx: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        let d = self.weight.dims()[1];
        self.weight.index_select0(&idx).reshape([batch, time, d])
    }

    /// Named parameters.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        vec![(format!("{prefix}.weight"), self.weight.clone())]
    }
}

/// Root-mean-square layer norm (no mean subtraction), as in Llama/Mistral:
/// `y = x / rms(x) * g`.
pub struct RmsNorm {
    /// Learned gain, shape `(d_model,)`.
    pub gain: Tensor,
    /// Stabilizing epsilon.
    pub eps: f32,
}

impl RmsNorm {
    /// Gain initialized to ones.
    pub fn new(d_model: usize, eps: f32) -> Self {
        RmsNorm {
            gain: Tensor::param(vec![1.0; d_model], [d_model]),
            eps,
        }
    }

    /// Normalize over the last axis.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let ms = x.square().mean_axis(-1, true).add_scalar(self.eps);
        x.mul(&ms.rsqrt()).mul(&self.gain)
    }

    /// Named parameters.
    pub fn params(&self, prefix: &str) -> Vec<(String, Tensor)> {
        vec![(format!("{prefix}.gain"), self.gain.clone())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(4, 3, &mut rng);
        l.bias = Some(Tensor::param(vec![0.0; 3], [3]));
        let x = Tensor::ones([2, 5, 4]);
        let y = l.forward(&x);
        assert_eq!(y.dims(), &[2, 5, 3]);
        assert_eq!(l.params("l").len(), 2);
    }

    #[test]
    fn linear_adapter_path_adds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(4, 4, &mut rng);
        let x = Tensor::ones([1, 4]);
        let base = l.forward(&x).to_vec();
        // Identity-ish adapter: A picks feature 0, B writes 10 to output 0.
        let a = Tensor::param(vec![1.0, 0.0, 0.0, 0.0], [4, 1]);
        let b = Tensor::param(vec![10.0, 0.0, 0.0, 0.0], [1, 4]);
        l.adapter = Some(Adapter { a, b, scale: 1.0 });
        let with = l.forward(&x).to_vec();
        assert!((with[0] - base[0] - 10.0).abs() < 1e-5);
        assert!((with[1] - base[1]).abs() < 1e-5);
        assert_eq!(l.params("l").len(), 3); // weight + lora_a + lora_b
    }

    #[test]
    fn embedding_lookup_shape_and_grad() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = Embedding::new(10, 4, &mut rng);
        let y = e.forward(&[1, 2, 1, 0, 3, 9], 2, 3);
        assert_eq!(y.dims(), &[2, 3, 4]);
        y.sum().backward();
        let g = e.weight.grad().unwrap();
        // Row 1 used twice -> grad 2 per column.
        assert!((g[4] - 2.0).abs() < 1e-6);
        // Row 5 unused -> zero grad.
        assert!(g[5 * 4..6 * 4].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let n = RmsNorm::new(4, 1e-6);
        let x = Tensor::from_vec(vec![2.0, -2.0, 2.0, -2.0, 0.1, 0.1, 0.1, 0.1], [2, 4]);
        let y = n.forward(&x);
        for row in 0..2 {
            let vals: Vec<f32> = (0..4).map(|j| y.at(&[row, j])).collect();
            let rms = (vals.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-3, "row {row} rms {rms}");
        }
    }

    #[test]
    fn rmsnorm_gain_scales() {
        let n = RmsNorm::new(2, 1e-6);
        n.gain.set_data(&[2.0, 0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let y = n.forward(&x).to_vec();
        assert!((y[0] / y[1] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn rmsnorm_backward_flows() {
        let n = RmsNorm::new(3, 1e-6);
        let x = Tensor::param(vec![1.0, 2.0, 3.0], [1, 3]);
        n.forward(&x).sum().backward();
        assert!(x.grad().is_some());
        assert!(n.gain.grad().is_some());
    }
}
