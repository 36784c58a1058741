//! Reductions: full and per-axis sums, means, and maxima.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Decompose a shape around `axis` into (outer, axis_len, inner) extents so a
/// reduction is three nested loops over contiguous memory.
fn axis_extents(shape: &Shape, axis: usize) -> (usize, usize, usize) {
    let dims = shape.dims();
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    (outer, dims[axis], inner)
}

fn reduced_shape(shape: &Shape, axis: usize, keepdim: bool) -> Shape {
    let mut dims = shape.dims().to_vec();
    if keepdim {
        dims[axis] = 1;
    } else {
        dims.remove(axis);
    }
    Shape(dims)
}

impl Tensor {
    /// Sum of all elements (rank-0 result).
    pub fn sum(&self) -> Tensor {
        let total: f32 = self.data().iter().sum();
        let parent = self.clone();
        Tensor::from_op(
            vec![total],
            Shape::default(),
            vec![self.clone()],
            Box::new(move |out| {
                let g = out.out_grad()[0];
                if parent.requires_grad() {
                    parent.accumulate_grad(&crate::pool::PooledBuf::filled(parent.numel(), g));
                }
            }),
        )
    }

    /// Mean of all elements (rank-0 result).
    pub fn mean(&self) -> Tensor {
        let n = self.numel() as f32;
        self.sum().div_scalar(n)
    }

    /// Sum along `axis` (negative axes allowed).
    pub fn sum_axis(&self, axis: isize, keepdim: bool) -> Tensor {
        let ax = self.shape().resolve_axis(axis);
        let (outer, len, inner) = axis_extents(self.shape(), ax);
        let data = self.data();
        let mut out = crate::pool::take_zeroed(outer * inner);
        for o in 0..outer {
            for a in 0..len {
                let base = (o * len + a) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out[obase + i] += data[base + i];
                }
            }
        }
        drop(data);
        let parent = self.clone();
        Tensor::from_op(
            out,
            reduced_shape(self.shape(), ax, keepdim),
            vec![self.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                // Scratch is safe here: the copy loop covers every element
                // of the parent exactly once.
                let mut gx = crate::pool::PooledBuf::scratch(parent.numel());
                for o in 0..outer {
                    for a in 0..len {
                        let base = (o * len + a) * inner;
                        let obase = o * inner;
                        gx[base..base + inner].copy_from_slice(&g[obase..obase + inner]);
                    }
                }
                if parent.requires_grad() {
                    parent.accumulate_grad(&gx);
                }
            }),
        )
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: isize, keepdim: bool) -> Tensor {
        let ax = self.shape().resolve_axis(axis);
        let len = self.dims()[ax] as f32;
        self.sum_axis(axis, keepdim).div_scalar(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_mean_scalar() {
        let x = Tensor::param(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(x.sum().item(), 10.0);
        assert_eq!(x.mean().item(), 2.5);
        x.mean().backward();
        assert_eq!(x.grad().unwrap(), vec![0.25; 4]);
    }

    #[test]
    fn sum_axis_rows_and_cols() {
        let x = Tensor::param(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let rows = x.sum_axis(1, false);
        assert_eq!(rows.dims(), &[2]);
        assert_eq!(rows.to_vec(), vec![6.0, 15.0]);
        let cols = x.sum_axis(0, false);
        assert_eq!(cols.to_vec(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_axis_keepdim_shape() {
        let x = Tensor::zeros([2, 3, 4]);
        assert_eq!(x.sum_axis(1, true).dims(), &[2, 1, 4]);
        assert_eq!(x.sum_axis(-1, false).dims(), &[2, 3]);
    }

    #[test]
    fn sum_axis_backward_broadcasts() {
        let x = Tensor::param(vec![1.0; 6], [2, 3]);
        let s = x.sum_axis(1, false); // [2]
        s.mul(&Tensor::from_vec(vec![1.0, 10.0], [2]))
            .sum()
            .backward();
        assert_eq!(x.grad().unwrap(), vec![1.0, 1.0, 1.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn mean_axis_values() {
        let x = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], [2, 2]);
        assert_eq!(x.mean_axis(-1, false).to_vec(), vec![3.0, 7.0]);
    }
}
