//! Unary elementwise operations and tensor-scalar arithmetic.

use crate::tensor::Tensor;

/// Build a unary elementwise op.
///
/// `f` computes the forward value; `df` computes the local derivative given
/// `(input, output)` — passing the output lets ops like `rsqrt` reuse the
/// forward result.
fn unary_op(x: &Tensor, f: impl Fn(f32) -> f32, df: impl Fn(f32, f32) -> f32 + 'static) -> Tensor {
    let xd = x.data();
    let mut data = crate::pool::take_cleared(xd.len());
    data.extend(xd.iter().map(|&v| f(v)));
    drop(xd);
    let parent = x.clone();
    Tensor::from_op(
        data,
        x.shape().clone(),
        vec![x.clone()],
        Box::new(move |out| {
            let g = out.out_grad();
            let g: &[f32] = &g;
            let xd = parent.data();
            let od = out.data();
            // Scratch: every element is written by the zip below.
            let mut gx = crate::pool::PooledBuf::scratch(g.len());
            for (o, (&gi, (&xi, &oi))) in gx.iter_mut().zip(g.iter().zip(xd.iter().zip(od.iter())))
            {
                *o = gi * df(xi, oi);
            }
            drop(xd);
            drop(od);
            parent.accumulate_grad(&gx);
        }),
    )
}

impl Tensor {
    /// Elementwise reciprocal square root `1/sqrt(x)`.
    pub fn rsqrt(&self) -> Tensor {
        unary_op(self, |x| 1.0 / x.sqrt(), |x, y| -0.5 * y / x)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        unary_op(self, |x| x * x, |x, _| 2.0 * x)
    }

    /// SiLU (a.k.a. swish): `x * sigmoid(x)` — Mistral's activation (Table 3).
    pub fn silu(&self) -> Tensor {
        unary_op(
            self,
            |x| x / (1.0 + (-x).exp()),
            |x, _| {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 + x * (1.0 - s))
            },
        )
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        unary_op(self, move |x| x + s, |_, _| 1.0)
    }

    /// Subtract a scalar from every element.
    pub fn sub_scalar(&self, s: f32) -> Tensor {
        self.add_scalar(-s)
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        unary_op(self, move |x| x * s, move |_, _| s)
    }

    /// Divide every element by a scalar.
    pub fn div_scalar(&self, s: f32) -> Tensor {
        self.mul_scalar(1.0 / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_of(f: impl Fn(&Tensor) -> Tensor, x0: f32) -> (f32, f32) {
        let x = Tensor::param(vec![x0], [1]);
        let y = f(&x);
        y.sum().backward();
        (y.item(), x.grad().unwrap()[0])
    }

    /// Central finite difference for gradient checking.
    fn numeric_grad(f: impl Fn(f32) -> f32, x0: f32) -> f32 {
        let h = 1e-3;
        (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    }

    #[test]
    fn silu_gradcheck() {
        for &x0 in &[-2.0f32, -0.5, 0.3, 1.7] {
            let (_, g) = grad_of(|x| x.silu(), x0);
            assert!((g - numeric_grad(|v| v / (1.0 + (-v).exp()), x0)).abs() < 1e-2,);
        }
    }

    #[test]
    fn rsqrt_value_and_grad() {
        let (y, g) = grad_of(|x| x.rsqrt(), 4.0);
        assert!((y - 0.5).abs() < 1e-6);
        assert!((g - numeric_grad(|v| 1.0 / v.sqrt(), 4.0)).abs() < 1e-3);
    }

    #[test]
    fn scalar_arith() {
        let x = Tensor::param(vec![2.0], [1]);
        let y = x
            .mul_scalar(3.0)
            .add_scalar(1.0)
            .sub_scalar(2.0)
            .div_scalar(5.0);
        assert!((y.item() - 1.0).abs() < 1e-6);
        y.sum().backward();
        assert!((x.grad().unwrap()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn square_value_and_grad() {
        let (y, g) = grad_of(|x| x.square(), 3.0);
        assert_eq!((y, g), (9.0, 6.0));
    }
}
