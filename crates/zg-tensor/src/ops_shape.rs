//! Shape-manipulating operations: reshape, permute/transpose, slicing,
//! concatenation, and broadcasting views (all materialized — the engine is
//! contiguous-only, which keeps kernels and backward passes simple).

use crate::shape::{Shape, StridedIter};
use crate::tensor::Tensor;

/// Split a gather layout into `(outer axes, trailing run)`: the largest
/// trailing run of offsets that is contiguous (`o..o + run`), so gathers
/// and scatters can move slices instead of single elements. Size-1 axes
/// fold into the run regardless of stride (their stride is never stepped).
fn trailing_run(dims: &[usize], strides: &[usize]) -> (usize, usize) {
    let mut run = 1usize;
    let mut split = dims.len();
    while split > 0 {
        let d = split - 1;
        if dims[d] != 1 && strides[d] != run {
            break;
        }
        run *= dims[d];
        split = d;
    }
    (split, run)
}

/// Gather `data` into `out` following `(dims, strides)` in ascending output
/// order. With fast paths on, trailing contiguous runs are copied as slices
/// and a trailing 2-D transpose is gathered blockwise; both visit exactly
/// the offsets of the strided reference loop, in the same order.
fn gather_into(out: &mut Vec<f32>, data: &[f32], dims: &[usize], strides: &[usize]) {
    if crate::fastpath::op_fast_paths() {
        let (split, run) = trailing_run(dims, strides);
        if run > 1 {
            for o in StridedIter::new(&dims[..split], &strides[..split]) {
                out.extend_from_slice(&data[o..o + run]);
            }
            return;
        }
        let rank = dims.len();
        if rank >= 2 && strides[rank - 2] == 1 && strides[rank - 1] == dims[rank - 2] {
            // Trailing transpose: each base block is a contiguous R×C
            // matrix read column-major (e.g. `t()` for attention scores).
            let (rn, cn) = (dims[rank - 2], dims[rank - 1]);
            for base in StridedIter::new(&dims[..rank - 2], &strides[..rank - 2]) {
                let block = &data[base..base + rn * cn];
                for r in 0..rn {
                    out.extend((0..cn).map(|c| block[c * rn + r]));
                }
            }
            return;
        }
    }
    out.extend(StridedIter::new(dims, strides).map(|o| data[o]));
}

/// Scatter-add `g` back through the same mapping: `gx[offset] += g[i]`.
/// Offsets repeat across outer steps when `strides` contains broadcast
/// zeros; both fast arms preserve the reference loop's ascending-`i`
/// accumulation order per slot, so sums are bit-identical.
fn scatter_add(gx: &mut [f32], g: &[f32], dims: &[usize], strides: &[usize]) {
    if crate::fastpath::op_fast_paths() {
        let (split, run) = trailing_run(dims, strides);
        if run > 1 {
            for (i, o) in StridedIter::new(&dims[..split], &strides[..split]).enumerate() {
                for (dst, &v) in gx[o..o + run].iter_mut().zip(&g[i * run..(i + 1) * run]) {
                    *dst += v;
                }
            }
            return;
        }
        let rank = dims.len();
        if rank >= 2 && strides[rank - 2] == 1 && strides[rank - 1] == dims[rank - 2] {
            let (rn, cn) = (dims[rank - 2], dims[rank - 1]);
            let outer = StridedIter::new(&dims[..rank - 2], &strides[..rank - 2]);
            for (bi, base) in outer.enumerate() {
                let gb = &g[bi * rn * cn..(bi + 1) * rn * cn];
                let block = &mut gx[base..base + rn * cn];
                for r in 0..rn {
                    for c in 0..cn {
                        block[c * rn + r] += gb[r * cn + c];
                    }
                }
            }
            return;
        }
    }
    for (i, o) in StridedIter::new(dims, strides).enumerate() {
        gx[o] += g[i];
    }
}

impl Tensor {
    /// Reinterpret the data with a new shape of the same element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "reshape {} -> {shape} changes element count",
            self.shape()
        );
        let parent = self.clone();
        let src = self.data();
        let mut data = crate::pool::take_scratch(src.len());
        data.copy_from_slice(&src);
        drop(src);
        Tensor::from_op(
            data,
            shape,
            vec![self.clone()],
            Box::new(move |out| {
                let g = out.out_grad();
                let g: &[f32] = &g;
                if parent.requires_grad() {
                    parent.accumulate_grad(g);
                }
            }),
        )
    }

    /// Reorder dimensions by `axes` (a permutation of `0..rank`).
    pub fn permute(&self, axes: &[usize]) -> Tensor {
        let rank = self.rank();
        assert_eq!(axes.len(), rank, "permute needs all axes");
        let mut seen = vec![false; rank];
        for &a in axes {
            assert!(a < rank && !seen[a], "invalid permutation {axes:?}");
            seen[a] = true;
        }
        let src_dims = self.dims();
        let src_strides = self.shape().strides();
        let out_dims: Vec<usize> = axes.iter().map(|&a| src_dims[a]).collect();
        let gather_strides: Vec<usize> = axes.iter().map(|&a| src_strides[a]).collect();
        let data = self.data();
        let mut out = crate::pool::take_cleared(data.len());
        gather_into(&mut out, &data, &out_dims, &gather_strides);
        drop(data);

        let parent = self.clone();
        let axes_owned = axes.to_vec();
        Tensor::from_op(
            out,
            Shape(out_dims),
            vec![self.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                // Scatter back through the same index mapping.
                let src_strides = parent.shape().strides();
                let out_dims = outt.dims();
                let gather_strides: Vec<usize> =
                    axes_owned.iter().map(|&a| src_strides[a]).collect();
                let mut gx = crate::pool::PooledBuf::zeroed(parent.numel());
                scatter_add(&mut gx, g, out_dims, &gather_strides);
                if parent.requires_grad() {
                    parent.accumulate_grad(&gx);
                }
            }),
        )
    }

    /// Swap two axes (negative indices allowed).
    pub fn transpose(&self, a: isize, b: isize) -> Tensor {
        let a = self.shape().resolve_axis(a);
        let b = self.shape().resolve_axis(b);
        let mut axes: Vec<usize> = (0..self.rank()).collect();
        axes.swap(a, b);
        self.permute(&axes)
    }

    /// Matrix transpose of the last two dims.
    pub fn t(&self) -> Tensor {
        self.transpose(-2, -1)
    }

    /// Slice `len` elements starting at `start` along `axis`.
    pub fn narrow(&self, axis: isize, start: usize, len: usize) -> Tensor {
        let ax = self.shape().resolve_axis(axis);
        let dims = self.dims();
        assert!(
            start + len <= dims[ax],
            "narrow [{start}, {start}+{len}) out of bounds for axis {ax} of {}",
            self.shape()
        );
        let outer: usize = dims[..ax].iter().product();
        let inner: usize = dims[ax + 1..].iter().product();
        let axis_len = dims[ax];
        let data = self.data();
        let mut out = crate::pool::take_cleared(outer * len * inner);
        for o in 0..outer {
            let base = (o * axis_len + start) * inner;
            out.extend_from_slice(&data[base..base + len * inner]);
        }
        drop(data);
        let mut out_dims = dims.to_vec();
        out_dims[ax] = len;

        let parent = self.clone();
        Tensor::from_op(
            out,
            Shape(out_dims),
            vec![self.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                let mut gx = crate::pool::PooledBuf::zeroed(parent.numel());
                for o in 0..outer {
                    let dst = (o * axis_len + start) * inner;
                    let src = o * len * inner;
                    gx[dst..dst + len * inner].copy_from_slice(&g[src..src + len * inner]);
                }
                if parent.requires_grad() {
                    parent.accumulate_grad(&gx);
                }
            }),
        )
    }

    /// Concatenate tensors along `axis`. All other dims must match.
    pub fn concat(tensors: &[Tensor], axis: isize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let ax = tensors[0].shape().resolve_axis(axis);
        let rank = tensors[0].rank();
        for t in tensors {
            assert_eq!(t.rank(), rank, "concat rank mismatch");
            for d in 0..rank {
                if d != ax {
                    assert_eq!(
                        t.dims()[d],
                        tensors[0].dims()[d],
                        "concat non-axis dim mismatch at {d}"
                    );
                }
            }
        }
        let dims = tensors[0].dims();
        let outer: usize = dims[..ax].iter().product();
        let inner: usize = dims[ax + 1..].iter().product();
        let lens: Vec<usize> = tensors.iter().map(|t| t.dims()[ax]).collect();
        let total_len: usize = lens.iter().sum();
        let mut out = crate::pool::take_cleared(outer * total_len * inner);
        for o in 0..outer {
            for (t, &l) in tensors.iter().zip(&lens) {
                let d = t.data();
                let base = o * l * inner;
                out.extend_from_slice(&d[base..base + l * inner]);
            }
        }
        let mut out_dims = dims.to_vec();
        out_dims[ax] = total_len;

        let parents: Vec<Tensor> = tensors.to_vec();
        let parents_cap = parents.clone();
        Tensor::from_op(
            out,
            Shape(out_dims),
            parents,
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                let mut grads: Vec<crate::pool::PooledBuf> = parents_cap
                    .iter()
                    .map(|t| crate::pool::PooledBuf::zeroed(t.numel()))
                    .collect();
                let mut cursor = 0usize;
                for o in 0..outer {
                    for (ti, &l) in lens.iter().enumerate() {
                        let dst = o * l * inner;
                        grads[ti][dst..dst + l * inner]
                            .copy_from_slice(&g[cursor..cursor + l * inner]);
                        cursor += l * inner;
                    }
                }
                for (t, gx) in parents_cap.iter().zip(&grads) {
                    if t.requires_grad() {
                        t.accumulate_grad(gx);
                    }
                }
            }),
        )
    }

    /// Materialize a broadcast of `self` to `target`.
    pub fn broadcast_to(&self, target: impl Into<Shape>) -> Tensor {
        let target = target.into();
        assert!(
            self.shape().broadcasts_to(&target),
            "{} does not broadcast to {target}",
            self.shape()
        );
        let strides = self.shape().broadcast_strides(&target);
        let data = self.data();
        let mut out = crate::pool::take_cleared(target.numel());
        gather_into(&mut out, &data, target.dims(), &strides);
        drop(data);
        let parent = self.clone();
        Tensor::from_op(
            out,
            target,
            vec![self.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                let strides = parent.shape().broadcast_strides(outt.shape());
                let mut gx = crate::pool::PooledBuf::zeroed(parent.numel());
                scatter_add(&mut gx, g, outt.dims(), &strides);
                if parent.requires_grad() {
                    parent.accumulate_grad(&gx);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_roundtrip_grad() {
        let x = Tensor::param(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let y = x.reshape([4]);
        assert_eq!(y.dims(), &[4]);
        y.mul(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]))
            .sum()
            .backward();
        assert_eq!(x.grad().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_bad_count_panics() {
        Tensor::zeros([2, 2]).reshape([3]);
    }

    #[test]
    fn transpose_2d() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let y = x.t();
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(y.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_batched_last_two() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), [2, 2, 3]);
        let y = x.t();
        assert_eq!(y.dims(), &[2, 3, 2]);
        assert_eq!(y.at(&[1, 2, 0]), x.at(&[1, 0, 2]));
    }

    #[test]
    fn permute_grad_scatters() {
        let x = Tensor::param(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let y = x.t();
        y.mul(&Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], [2, 2]))
            .sum()
            .backward();
        // y[i,j] = x[j,i]; grads map back transposed.
        assert_eq!(x.grad().unwrap(), vec![10.0, 30.0, 20.0, 40.0]);
    }

    #[test]
    fn narrow_middle() {
        let x = Tensor::param((0..12).map(|v| v as f32).collect(), [3, 4]);
        let y = x.narrow(1, 1, 2);
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        y.sum().backward();
        let g = x.grad().unwrap();
        assert_eq!(g, vec![0., 1., 1., 0., 0., 1., 1., 0., 0., 1., 1., 0.]);
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::param(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::param(vec![3.0, 4.0], [1, 2]);
        let c0 = Tensor::concat(&[a.clone(), b.clone()], 0);
        assert_eq!(c0.dims(), &[2, 2]);
        assert_eq!(c0.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let c1 = Tensor::concat(&[a.clone(), b.clone()], 1);
        assert_eq!(c1.dims(), &[1, 4]);
        assert_eq!(c1.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        c1.mul(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]))
            .sum()
            .backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 2.0]);
        assert_eq!(b.grad().unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn broadcast_to_materializes() {
        let x = Tensor::param(vec![1.0, 2.0], [2, 1]);
        let y = x.broadcast_to([2, 3]);
        assert_eq!(y.to_vec(), vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![3.0, 3.0]);
    }
}
