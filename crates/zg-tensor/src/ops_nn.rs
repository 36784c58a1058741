//! Fused neural-network operations: softmax, log-softmax, cross-entropy
//! over logits, embedding row gather — plus the [`Tensor::custom`] escape
//! hatch that lets downstream crates (e.g. RoPE in `zg-model`) define their
//! own differentiable ops.

use crate::shape::Shape;
use crate::tensor::{BackwardFn, Tensor};

/// (outer, len) extents treating `axis` as the reduced dim; requires the
/// axis to be the last one for the fused kernels below.
fn last_axis_extents(shape: &Shape) -> (usize, usize) {
    let dims = shape.dims();
    // INVARIANT: rank >= 1 is the documented precondition of the fused
    // last-axis kernels; rank-0 input is a caller bug.
    let len = *dims.last().expect("rank >= 1 required");
    (shape.numel() / len, len)
}

impl Tensor {
    /// Public constructor for user-defined differentiable operations.
    ///
    /// `backward` receives the output node; read its gradient with
    /// [`Tensor::grad`] and push into parents with
    /// [`Tensor::accumulate_grad`] (guard on [`Tensor::requires_grad`]).
    pub fn custom(
        data: Vec<f32>,
        shape: impl Into<Shape>,
        parents: Vec<Tensor>,
        backward: impl Fn(&Tensor) + 'static,
    ) -> Tensor {
        let backward: BackwardFn = Box::new(backward);
        Tensor::from_op(data, shape.into(), parents, backward)
    }

    /// Numerically-stable softmax over the last axis.
    pub fn softmax(&self) -> Tensor {
        let (outer, len) = last_axis_extents(self.shape());
        let data = self.data();
        let mut out = crate::pool::take_scratch(data.len());
        for o in 0..outer {
            let row = &data[o * len..(o + 1) * len];
            let orow = &mut out[o * len..(o + 1) * len];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for (ov, &v) in orow.iter_mut().zip(row) {
                let e = (v - m).exp();
                *ov = e;
                z += e;
            }
            let inv = 1.0 / z;
            for ov in orow.iter_mut() {
                *ov *= inv;
            }
        }
        drop(data);
        let parent = self.clone();
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                let y = outt.data();
                // Scratch: every element is written below.
                let mut gx = crate::pool::PooledBuf::scratch(y.len());
                for o in 0..outer {
                    let yr = &y[o * len..(o + 1) * len];
                    let gr = &g[o * len..(o + 1) * len];
                    let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
                    for ((gx, &yi), &gi) in gx[o * len..(o + 1) * len].iter_mut().zip(yr).zip(gr) {
                        *gx = yi * (gi - dot);
                    }
                }
                drop(y);
                if parent.requires_grad() {
                    parent.accumulate_grad(&gx);
                }
            }),
        )
    }

    /// Numerically-stable log-softmax over the last axis.
    pub fn log_softmax(&self) -> Tensor {
        let (outer, len) = last_axis_extents(self.shape());
        let data = self.data();
        let mut out = crate::pool::take_scratch(data.len());
        for o in 0..outer {
            let row = &data[o * len..(o + 1) * len];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
            for (ov, &v) in out[o * len..(o + 1) * len].iter_mut().zip(row) {
                *ov = v - lse;
            }
        }
        drop(data);
        let parent = self.clone();
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                let y = outt.data();
                // Scratch: every element is written below.
                let mut gx = crate::pool::PooledBuf::scratch(y.len());
                for o in 0..outer {
                    let yr = &y[o * len..(o + 1) * len];
                    let gr = &g[o * len..(o + 1) * len];
                    let gsum: f32 = gr.iter().sum();
                    for ((gx, &yi), &gi) in gx[o * len..(o + 1) * len].iter_mut().zip(yr).zip(gr) {
                        *gx = gi - yi.exp() * gsum;
                    }
                }
                drop(y);
                if parent.requires_grad() {
                    parent.accumulate_grad(&gx);
                }
            }),
        )
    }

    /// Mean cross-entropy between `(..., C)` logits and integer class targets.
    ///
    /// Leading dimensions are collapsed into one row axis, so `(N, C)` and
    /// `(B, T, C)` behave identically — the language-model loss feeds
    /// `(batch, time, vocab)` logits straight in without a reshape copy.
    ///
    /// `ignore_index` positions (e.g. padding) contribute neither loss nor
    /// gradient; the mean divides by the number of counted positions.
    pub fn cross_entropy_logits(&self, targets: &[usize], ignore_index: Option<usize>) -> Tensor {
        assert!(
            self.rank() >= 2,
            "cross_entropy_logits expects (..., C) logits with rank >= 2"
        );
        let c = self.dims()[self.rank() - 1];
        let n = self.numel() / c.max(1);
        assert_eq!(
            targets.len(),
            n,
            "targets length must equal the number of logit rows"
        );
        let data = self.data();
        // Per-row log-softmax probabilities of the target class.
        let mut counted = 0usize;
        let mut loss = 0.0f32;
        // Softmax saved for backward; scratch is safe, every element is
        // written below. The handle rides inside the backward closure and
        // recycles when the graph node drops.
        let mut probs = crate::pool::PooledBuf::scratch(n * c);
        for i in 0..n {
            let row = &data[i * c..(i + 1) * c];
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - m).exp();
                probs[i * c + j] = e;
                z += e;
            }
            let inv = 1.0 / z;
            for p in &mut probs[i * c..(i + 1) * c] {
                *p *= inv;
            }
            if ignore_index == Some(targets[i]) {
                continue;
            }
            assert!(targets[i] < c, "target {} out of range", targets[i]);
            counted += 1;
            loss -= probs[i * c + targets[i]].max(1e-30).ln();
        }
        drop(data);
        let denom = counted.max(1) as f32;
        loss /= denom;

        let parent = self.clone();
        let targets = targets.to_vec();
        Tensor::from_op(
            vec![loss],
            Shape::default(),
            vec![self.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad()[0];
                let mut gx = crate::pool::PooledBuf::zeroed(n * c);
                let scale = g / denom;
                for i in 0..n {
                    if ignore_index == Some(targets[i]) {
                        continue;
                    }
                    for j in 0..c {
                        let indicator = if j == targets[i] { 1.0 } else { 0.0 };
                        gx[i * c + j] = scale * (probs[i * c + j] - indicator);
                    }
                }
                if parent.requires_grad() {
                    parent.accumulate_grad(&gx);
                }
            }),
        )
    }

    /// Gather rows of a `(…, D)` tensor by index, its leading axes
    /// flattened into `V` rows: the embedding forward, and the pick of
    /// supervised positions from a `(batch, time, D)` hidden state.
    /// Output is `(ids.len(), D)`; backward scatter-adds into the rows.
    pub fn index_select0(&self, ids: &[usize]) -> Tensor {
        assert!(self.rank() >= 2, "index_select0 expects (…, D)");
        let d = self.dims()[self.rank() - 1];
        let v = self.numel() / d.max(1);
        let data = self.data();
        let mut out = crate::pool::take_cleared(ids.len() * d);
        for &id in ids {
            assert!(id < v, "row index {id} out of range 0..{v}");
            out.extend_from_slice(&data[id * d..(id + 1) * d]);
        }
        drop(data);
        let parent = self.clone();
        let ids = ids.to_vec();
        Tensor::from_op(
            out,
            Shape(vec![ids.len(), d]),
            vec![self.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                let mut gx = crate::pool::PooledBuf::zeroed(parent.numel());
                for (i, &id) in ids.iter().enumerate() {
                    let src = &g[i * d..(i + 1) * d];
                    let dst = &mut gx[id * d..(id + 1) * d];
                    for (dv, &sv) in dst.iter_mut().zip(src) {
                        *dv += sv;
                    }
                }
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
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], [2, 3]);
        let y = x.softmax();
        let d = y.to_vec();
        let s0: f32 = d[0..3].iter().sum();
        let s1: f32 = d[3..6].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6 && (s1 - 1.0).abs() < 1e-6);
        assert!((d[3] - 1.0 / 3.0).abs() < 1e-6);
        assert!(d[2] > d[1] && d[1] > d[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], [1, 2]);
        let y = x.softmax().to_vec();
        assert!(y.iter().all(|v| v.is_finite()));
        assert!((y[0] + y[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_gradcheck() {
        let xv = vec![0.2f32, -0.4, 0.9];
        let weights = [1.0f32, 2.0, 3.0]; // project output to scalar
        let f = |xv: &[f32]| -> f32 {
            let x = Tensor::from_vec(xv.to_vec(), [1, 3]);
            let y = x.softmax();
            y.to_vec().iter().zip(&weights).map(|(&a, &w)| a * w).sum()
        };
        let x = Tensor::param(xv.clone(), [1, 3]);
        let y = x.softmax();
        y.mul(&Tensor::from_vec(weights.to_vec(), [1, 3]))
            .sum()
            .backward();
        let ga = x.grad().unwrap();
        let h = 1e-3;
        for i in 0..3 {
            let mut p = xv.clone();
            p[i] += h;
            let mut m = xv.clone();
            m[i] -= h;
            let num = (f(&p) - f(&m)) / (2.0 * h);
            assert!((ga[i] - num).abs() < 1e-3, "{} vs {}", ga[i], num);
        }
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], [1, 3]);
        let a = x.log_softmax().to_vec();
        let b: Vec<f32> = x.softmax().to_vec().iter().map(|v| v.ln()).collect();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        // Uniform logits over C classes: loss = ln(C).
        let x = Tensor::param(vec![0.0; 6], [2, 3]);
        let loss = x.cross_entropy_logits(&[0, 2], None);
        assert!((loss.item() - 3.0f32.ln()).abs() < 1e-5);
        loss.backward();
        let g = x.grad().unwrap();
        // grad = (softmax - onehot)/N
        assert!((g[0] - (1.0 / 3.0 - 1.0) / 2.0).abs() < 1e-6);
        assert!((g[1] - (1.0 / 3.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_ignore_index() {
        let x = Tensor::param(vec![0.0; 6], [2, 3]);
        // Second row ignored: loss over first row only.
        let loss = x.cross_entropy_logits(&[0, 1], Some(1));
        assert!((loss.item() - 3.0f32.ln()).abs() < 1e-5);
        loss.backward();
        let g = x.grad().unwrap();
        assert!(g[3..6].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let x = Tensor::from_vec(vec![20.0, 0.0, 0.0], [1, 3]);
        let loss = x.cross_entropy_logits(&[0], None);
        assert!(loss.item() < 1e-6);
    }

    #[test]
    fn index_select0_gather_scatter() {
        let w = Tensor::param(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        let e = w.index_select0(&[2, 0, 2]);
        assert_eq!(e.dims(), &[3, 2]);
        assert_eq!(e.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        e.sum().backward();
        // Row 2 selected twice → grad 2; row 0 once; row 1 never.
        assert_eq!(w.grad().unwrap(), vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
        // Leading axes flatten into rows: (3, 1, 2) gathers as (3, 2).
        let h = Tensor::param(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 1, 2]);
        let e = h.index_select0(&[1, 2]);
        assert_eq!(e.dims(), &[2, 2]);
        assert_eq!(e.to_vec(), vec![3.0, 4.0, 5.0, 6.0]);
        e.sum().backward();
        assert_eq!(h.grad().unwrap(), vec![0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn custom_op_roundtrip() {
        // Define y = 2x via the public custom-op API and check gradients.
        let x = Tensor::param(vec![1.0, 2.0], [2]);
        let data: Vec<f32> = x.data().iter().map(|v| v * 2.0).collect();
        let xc = x.clone();
        let y = Tensor::custom(data, [2], vec![x.clone()], move |out| {
            let g = out.grad().expect("grad present");
            let gx: Vec<f32> = g.iter().map(|v| v * 2.0).collect();
            if xc.requires_grad() {
                xc.accumulate_grad(&gx);
            }
        });
        y.sum().backward();
        assert_eq!(x.grad().unwrap(), vec![2.0, 2.0]);
    }
}
