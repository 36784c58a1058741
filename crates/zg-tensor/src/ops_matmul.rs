//! Batched matrix multiplication with broadcastable leading (batch)
//! dimensions, plus the row-major GEMM dispatch used throughout.
//!
//! Inference and training share one numerics: exact f32. Two kernels
//! serve [`gemm`]:
//!
//! * [`gemm_naive`] — the original scalar triple loops, kept as the
//!   bit-exact reference (the oracle) and as the small-matrix fallback.
//! * [`crate::gemm_simd`] — the fast path, the cache-blocked kernel in
//!   [`crate::simd`]: an AVX2 microkernel behind a runtime CPUID check,
//!   with a portable microkernel on other hosts, and a row-partitioned
//!   multi-threaded dispatch for large products.
//!
//! The SIMD kernel loads the destination tile into its accumulators
//! before the k-loop and adds products in ascending-k order, which is
//! exactly the float-operation order of the naive `ikj`/`kij` loops — so
//! for every call site in this workspace (all of which either start from
//! a zero `c` or accumulate through the `tb = false` variants) it is
//! **bit-identical** to the naive kernel, and the threaded dispatch is
//! bit-identical to serial because each thread computes a disjoint set
//! of output rows with the same kernel.
//!
//! Every GEMM is counted on the calling thread's trace stream
//! (`gemm.dispatch.{naive,simd,simd_threaded}` plus a `gemm.mnk`
//! sample), including the per-batch GEMMs that
//! [`Tensor::matmul`] farms out to worker threads, so the counts do not
//! depend on the core count.

use std::cell::Cell;

use crate::shape::{Shape, StridedIter};
use crate::simd::{MR, NR};
use crate::tensor::Tensor;

/// Which GEMM kernel [`gemm`] dispatches to. Thread-local; defaults to
/// [`default_gemm_kernel`] ([`GemmKernel::Auto`] unless overridden by
/// the `ZG_GEMM_KERNEL` env var). Parity tests pin [`GemmKernel::Naive`]
/// to run the oracle, and the gate benchmarks time the fast path
/// against it on the same build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Original scalar triple loops, always (the reference oracle).
    Naive,
    /// Cache-blocked SIMD kernel ([`crate::gemm_simd`]), single-threaded:
    /// the AVX2 microkernel when the CPU has it, else its bit-identical
    /// portable microkernel.
    Simd,
    /// The SIMD kernel above the naive crossover; large products
    /// additionally fan output rows across `available_parallelism`
    /// threads.
    Auto,
}

/// The process-wide default kernel: `ZG_GEMM_KERNEL` ∈
/// `naive|simd|auto` when set (read once), else [`GemmKernel::Auto`]. CI
/// uses the env override to force every test through a specific kernel.
pub fn default_gemm_kernel() -> GemmKernel {
    use std::sync::OnceLock;
    static DEFAULT: OnceLock<GemmKernel> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("ZG_GEMM_KERNEL").as_deref() {
        Ok("naive") => GemmKernel::Naive,
        Ok("simd") => GemmKernel::Simd,
        _ => GemmKernel::Auto,
    })
}

thread_local! {
    static GEMM_KERNEL: Cell<GemmKernel> = Cell::new(default_gemm_kernel());
}

/// Select the kernel used by [`gemm`] on this thread; returns the
/// previous selection so callers can restore it.
pub fn set_gemm_kernel(kernel: GemmKernel) -> GemmKernel {
    GEMM_KERNEL.with(|c| c.replace(kernel))
}

/// The kernel [`gemm`] currently dispatches to on this thread.
pub fn gemm_kernel() -> GemmKernel {
    GEMM_KERNEL.with(Cell::get)
}

/// Below this `m·n·k` the packing overhead dominates and the naive
/// loops win. Measured with `examples/gemm_crossover.rs`: naive wins
/// through 6³, the winner flips between runs at 8³–12³, and SIMD wins
/// from 16³ up — so the floor sits at 16³.
const SIMD_MIN_FLOPS: usize = 16 * 16 * 16;
/// Minimum `m·n·k` before the row-threaded dispatch is worth the
/// thread-spawn cost (~10 µs per scoped thread).
const THREADED_MIN_FLOPS: usize = 128 * 128 * 128;

/// `c += op(a) · op(b)` for row-major matrices.
///
/// Logical dimensions are always `(m, k) · (k, n) -> (m, n)`; the `ta`/`tb`
/// flags say the physical buffer is stored transposed. Dispatches to the
/// kernel selected by [`set_gemm_kernel`]: the SIMD kernel (with
/// row-threading for large products under [`GemmKernel::Auto`]), falling
/// back to the naive loops for small products where packing costs more
/// than it saves.
#[allow(clippy::too_many_arguments)]
pub fn gemm(ta: bool, tb: bool, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    // Resolve the dispatch first so tracing sees the actual kernel used,
    // not just the thread-local selection.
    let dispatch = Dispatch::resolve(gemm_kernel(), m, n, k);
    dispatch.record(m * n * k, 1);
    match dispatch {
        Dispatch::Naive => gemm_naive(ta, tb, m, n, k, a, b, c),
        Dispatch::Simd => crate::simd::gemm_simd(ta, tb, m, n, k, a, b, c),
        Dispatch::SimdThreaded(threads) => {
            crate::simd::gemm_simd_with_threads(ta, tb, m, n, k, a, b, c, threads)
        }
    }
}

/// The kernel one [`gemm`] call actually runs.
enum Dispatch {
    Naive,
    Simd,
    SimdThreaded(usize),
}

impl Dispatch {
    fn resolve(kernel: GemmKernel, m: usize, n: usize, k: usize) -> Dispatch {
        let flops = m * n * k;
        match kernel {
            GemmKernel::Naive => Dispatch::Naive,
            _ if flops < SIMD_MIN_FLOPS || m < MR / 2 || n < NR / 2 => Dispatch::Naive,
            GemmKernel::Simd => Dispatch::Simd,
            GemmKernel::Auto if flops >= THREADED_MIN_FLOPS && available_threads() > 1 => {
                Dispatch::SimdThreaded(available_threads())
            }
            GemmKernel::Auto => Dispatch::Simd,
        }
    }

    /// Count `calls` GEMMs of `flops` each on this thread's trace stream.
    fn record(&self, flops: usize, calls: usize) {
        if !zg_trace::enabled() {
            return;
        }
        let name = match self {
            Dispatch::Naive => "gemm.dispatch.naive",
            Dispatch::Simd => "gemm.dispatch.simd",
            Dispatch::SimdThreaded(_) => "gemm.dispatch.simd_threaded",
        };
        zg_trace::counter_add(name, calls as f64);
        for _ in 0..calls {
            zg_trace::hist_record("gemm.mnk", flops as f64);
        }
    }
}

/// The machine's available parallelism (cached).
pub fn available_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Original scalar GEMM (reference kernel). Loop orders are chosen per
/// transpose case for contiguous inner loops.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive(
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    match (ta, tb) {
        (false, false) => {
            // ikj: stream rows of b.
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let crow = &mut c[i * n..(i + 1) * n];
                for (kk, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += aik * bv;
                    }
                }
            }
        }
        (false, true) => {
            // b physically (n, k): dot products of contiguous rows.
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let crow = &mut c[i * n..(i + 1) * n];
                for (j, cv) in crow.iter_mut().enumerate() {
                    let brow = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&av, &bv) in arow.iter().zip(brow) {
                        acc += av * bv;
                    }
                    *cv += acc;
                }
            }
        }
        (true, false) => {
            // a physically (k, m): kij with axpy rows.
            for kk in 0..k {
                let arow = &a[kk * m..(kk + 1) * m];
                let brow = &b[kk * n..(kk + 1) * n];
                for (i, &aki) in arow.iter().enumerate() {
                    if aki == 0.0 {
                        continue;
                    }
                    let crow = &mut c[i * n..(i + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += aki * bv;
                    }
                }
            }
        }
        (true, true) => {
            // Rare path: fall back to index arithmetic.
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a[kk * m + i] * b[j * k + kk];
                    }
                    c[i * n + j] += acc;
                }
            }
        }
    }
}

/// Split a shape into (batch dims, rows, cols) for matmul.
fn split_matrix(shape: &Shape) -> (&[usize], usize, usize) {
    let dims = shape.dims();
    assert!(
        dims.len() >= 2,
        "matmul operand must have rank >= 2, got {shape}"
    );
    let (batch, mat) = dims.split_at(dims.len() - 2);
    (batch, mat[0], mat[1])
}

/// Per-batch flat chunk offsets for both operands and the output.
struct BatchPlan {
    batch: Shape,
    a_offsets: Vec<usize>,
    b_offsets: Vec<usize>,
}

fn batch_plan(a_shape: &Shape, b_shape: &Shape) -> BatchPlan {
    let (ab, m, k) = split_matrix(a_shape);
    let (bb, _, n) = split_matrix(b_shape);
    let ab = Shape::new(ab);
    let bb = Shape::new(bb);
    let batch = ab
        .broadcast(&bb)
        // INVARIANT: non-broadcastable batch dims are an unrecoverable
        // caller bug; panicking with both shapes is the documented contract.
        .unwrap_or_else(|| panic!("matmul batch dims {ab} and {bb} do not broadcast"));
    // Batch strides measured in matrix chunks, then scaled to element offsets.
    let sa = ab.broadcast_strides(&batch);
    let sb = bb.broadcast_strides(&batch);
    let a_offsets: Vec<usize> = StridedIter::new(batch.dims(), &sa)
        .map(|o| o * m * k)
        .collect();
    let b_offsets: Vec<usize> = StridedIter::new(batch.dims(), &sb)
        .map(|o| o * k * n)
        .collect();
    BatchPlan {
        batch,
        a_offsets,
        b_offsets,
    }
}

/// Forward batched matmul into `out`. Large batched products fan the
/// *batch* axis across threads (each batch writes a disjoint `m·n`
/// chunk of `out`, and the per-batch kernel runs serially inside the
/// worker, so results are bit-identical to the serial loop).
fn batched_matmul_forward(
    plan: &BatchPlan,
    m: usize,
    n: usize,
    k: usize,
    ad: &[f32],
    bd: &[f32],
    out: &mut [f32],
) {
    let nbatch = plan.a_offsets.len();
    let per_batch = |ao: usize, bo: usize, chunk: &mut [f32]| {
        gemm(
            false,
            false,
            m,
            n,
            k,
            &ad[ao..ao + m * k],
            &bd[bo..bo + k * n],
            chunk,
        );
    };
    let threads = available_threads();
    let parallel = gemm_kernel() == GemmKernel::Auto
        && threads > 1
        && nbatch > 1
        && nbatch * m * n * k >= THREADED_MIN_FLOPS;
    if !parallel {
        for (bi, (&ao, &bo)) in plan.a_offsets.iter().zip(&plan.b_offsets).enumerate() {
            per_batch(ao, bo, &mut out[bi * m * n..(bi + 1) * m * n]);
        }
        return;
    }
    // Fresh worker threads carry no trace stream, so the GEMMs they run
    // are counted here, on the caller's.
    Dispatch::resolve(GemmKernel::Simd, m, n, k).record(m * n * k, nbatch);
    let chunk_batches = nbatch.div_ceil(threads.min(nbatch));
    std::thread::scope(|s| {
        let mut rest = out;
        let mut b0 = 0;
        while b0 < nbatch {
            let take = chunk_batches.min(nbatch - b0);
            let (chunk, tail) = rest.split_at_mut(take * m * n);
            rest = tail;
            let aoffs = &plan.a_offsets[b0..b0 + take];
            let boffs = &plan.b_offsets[b0..b0 + take];
            s.spawn(move || {
                // Inside a worker, force the serial kernel to avoid
                // nested thread spawns.
                let prev = set_gemm_kernel(GemmKernel::Simd);
                for (ci, (&ao, &bo)) in aoffs.iter().zip(boffs).enumerate() {
                    per_batch(ao, bo, &mut chunk[ci * m * n..(ci + 1) * m * n]);
                }
                set_gemm_kernel(prev);
            });
            b0 += take;
        }
    });
}

impl Tensor {
    /// Matrix product. Last two dims multiply `(…, m, k) · (…, k, n) ->
    /// (…, m, n)`; leading dims broadcast NumPy-style.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (_, m, k) = split_matrix(self.shape());
        let (_, k2, n) = split_matrix(other.shape());
        assert_eq!(
            k,
            k2,
            "matmul inner dims differ: {} vs {}",
            self.shape(),
            other.shape()
        );
        let plan = batch_plan(self.shape(), other.shape());
        let nbatch = plan.batch.numel();
        let mut out = crate::pool::take_zeroed(nbatch * m * n);
        {
            let ad = self.data();
            let bd = other.data();
            batched_matmul_forward(&plan, m, n, k, &ad, &bd, &mut out);
        }
        let mut out_dims = plan.batch.dims().to_vec();
        out_dims.push(m);
        out_dims.push(n);

        let a = self.clone();
        let b = other.clone();
        Tensor::from_op(
            out,
            Shape(out_dims),
            vec![self.clone(), other.clone()],
            Box::new(move |outt| {
                let g = outt.out_grad();
                let g: &[f32] = &g;
                let plan = batch_plan(a.shape(), b.shape());
                let ad = a.data();
                let bd = b.data();
                // Both gradient GEMMs below go through `gemm()` and so
                // follow the thread's kernel selection (Auto → SIMD /
                // threaded for large products); zeroed scratch because
                // broadcast batches accumulate at repeated offsets.
                //
                // Fast path: a gradient GEMM whose result would be discarded
                // (the parent doesn't require grad — e.g. frozen base weights
                // under LoRA) is skipped entirely. Skipping discarded work
                // cannot change any value that survives.
                let fast = crate::fastpath::op_fast_paths();
                let mut ga =
                    (!fast || a.requires_grad()).then(|| crate::pool::PooledBuf::zeroed(a.numel()));
                let mut gb =
                    (!fast || b.requires_grad()).then(|| crate::pool::PooledBuf::zeroed(b.numel()));
                for (bi, (&ao, &bo)) in plan.a_offsets.iter().zip(&plan.b_offsets).enumerate() {
                    let gchunk = &g[bi * m * n..(bi + 1) * m * n];
                    // dA = dY · Bᵀ  (broadcast batches accumulate at the
                    // same offset, which performs the required reduction).
                    if let Some(ga) = ga.as_mut() {
                        gemm(
                            false,
                            true,
                            m,
                            k,
                            n,
                            gchunk,
                            &bd[bo..bo + k * n],
                            &mut ga[ao..ao + m * k],
                        );
                    }
                    // dB = Aᵀ · dY
                    if let Some(gb) = gb.as_mut() {
                        gemm(
                            true,
                            false,
                            k,
                            n,
                            m,
                            &ad[ao..ao + m * k],
                            gchunk,
                            &mut gb[bo..bo + k * n],
                        );
                    }
                }
                drop(ad);
                drop(bd);
                if let (true, Some(ga)) = (a.requires_grad(), ga.as_ref()) {
                    a.accumulate_grad(ga);
                }
                if let (true, Some(gb)) = (b.requires_grad(), gb.as_ref()) {
                    b.accumulate_grad(gb);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_nn() {
        // (2,3)·(3,2)
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = [0.0; 4];
        gemm(false, false, 2, 2, 3, &a, &b, &mut c);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_transpose_variants_agree() {
        // Random-ish small matrices; all four variants must agree with NN.
        let m = 3;
        let n = 4;
        let k = 5;
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut c_ref = vec![0.0; m * n];
        gemm(false, false, m, n, k, &a, &b, &mut c_ref);

        // Physically transpose a -> at (k,m) and b -> bt (n,k).
        let mut at = vec![0.0; m * k];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut bt = vec![0.0; k * n];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        for (ta, tb, pa, pb) in [
            (true, false, &at, &b),
            (false, true, &a, &bt),
            (true, true, &at, &bt),
        ] {
            let mut c = vec![0.0; m * n];
            gemm(ta, tb, m, n, k, pa, pb, &mut c);
            for (x, y) in c.iter().zip(&c_ref) {
                assert!((x - y).abs() < 1e-5, "({ta},{tb}) mismatch");
            }
        }
    }

    /// Deterministic pseudo-random matrix for kernel comparisons.
    fn mat(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn kernel_knob_round_trips() {
        // The thread default honors ZG_GEMM_KERNEL (CI forces kernels
        // through it), so compare against the resolved default rather
        // than a hard-coded Auto.
        let default = default_gemm_kernel();
        assert_eq!(gemm_kernel(), default);
        let prev = set_gemm_kernel(GemmKernel::Naive);
        assert_eq!(prev, default);
        assert_eq!(gemm_kernel(), GemmKernel::Naive);
        set_gemm_kernel(prev);
        assert_eq!(gemm_kernel(), default);
    }

    #[test]
    fn backward_grad_gemms_obey_kernel_and_match_naive_oracle() {
        // Audit: the dA/dB gradient GEMMs inside the matmul backward
        // closure dispatch through `gemm()` (so they obey the thread's
        // kernel selection) rather than hard-coding `gemm_naive`. Pin the
        // SIMD kernel, use a product large enough to clear
        // SIMD_MIN_FLOPS, and require bit-identical gradients vs the
        // naive oracle (dA is a c=0 (false,true) product, dB a c=0
        // (true,false) product — both bit-exact cases).
        let (m, k, n) = (24, 20, 24);
        let av = mat(11, m * k);
        let bv = mat(12, k * n);
        let run = |kernel: GemmKernel| -> (Vec<f32>, Vec<f32>) {
            let prev = set_gemm_kernel(kernel);
            let a = Tensor::param(av.clone(), [m, k]);
            let b = Tensor::param(bv.clone(), [k, n]);
            a.matmul(&b).sum().backward();
            set_gemm_kernel(prev);
            (a.grad().unwrap(), b.grad().unwrap())
        };
        let (ga_naive, gb_naive) = run(GemmKernel::Naive);
        let (ga_simd, gb_simd) = run(GemmKernel::Simd);
        assert_eq!(ga_naive, ga_simd, "dA must be bit-identical simd vs naive");
        assert_eq!(gb_naive, gb_simd, "dB must be bit-identical simd vs naive");
    }

    #[test]
    fn batched_matmul_worker_gemms_reach_the_trace() {
        // A batched product large enough for the batch-threaded branch on
        // any multi-core host: every per-batch GEMM must be counted on the
        // caller's stream, once, whichever thread ran it. Auto is pinned so
        // a forced ZG_GEMM_KERNEL default still takes that branch.
        let (batch, m, n, k) = (8, 64, 64, 64);
        assert!(batch * m * n * k >= THREADED_MIN_FLOPS);
        let a = Tensor::from_vec(mat(21, batch * m * k), [batch, m, k]);
        let b = Tensor::from_vec(mat(22, batch * k * n), [batch, k, n]);
        let prev = set_gemm_kernel(GemmKernel::Auto);
        let tracer = zg_trace::Tracer::new();
        {
            let _stream = tracer.install("caller");
            a.matmul(&b);
        }
        set_gemm_kernel(prev);
        let trace = tracer.finish();
        let dispatched: f64 = trace
            .counters()
            .iter()
            .filter(|(name, _)| name.starts_with("gemm.dispatch."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(dispatched, batch as f64, "{:?}", trace.counters());
        let mnk = &trace.hists()["gemm.mnk"];
        assert_eq!(mnk.n, batch as u64);
        assert_eq!(mnk.sum, (batch * m * n * k) as f64);
    }

    #[test]
    fn matmul_2d_forward_backward() {
        let a = Tensor::param(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::param(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
        c.sum().backward();
        // dA = 1·Bᵀ summed: rows of ones times Bᵀ
        assert_eq!(a.grad().unwrap(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().unwrap(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_batched_equal_batches() {
        // (2,2,3)·(2,3,1)
        let a = Tensor::param((0..12).map(|x| x as f32).collect(), [2, 2, 3]);
        let b = Tensor::param(vec![1.0; 6], [2, 3, 1]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2, 1]);
        assert_eq!(c.to_vec(), vec![3.0, 12.0, 21.0, 30.0]);
    }

    #[test]
    fn matmul_broadcast_weight() {
        // (2,2,3)·(3,2): shared weight across the batch.
        let a = Tensor::param(vec![1.0; 12], [2, 2, 3]);
        let w = Tensor::param(vec![0.5; 6], [3, 2]);
        let c = a.matmul(&w);
        assert_eq!(c.dims(), &[2, 2, 2]);
        assert!(c.to_vec().iter().all(|&v| (v - 1.5).abs() < 1e-6));
        c.sum().backward();
        // Each weight element sees all 4 rows of ones.
        assert_eq!(w.grad().unwrap(), vec![4.0; 6]);
    }

    #[test]
    fn matmul_gradcheck_numeric() {
        // Finite-difference check on a 2x3 · 3x2 product.
        let av: Vec<f32> = vec![0.3, -0.5, 0.8, 1.1, -0.2, 0.4];
        let bv: Vec<f32> = vec![0.7, 0.1, -0.3, 0.9, 0.2, -0.6];
        let f = |av: &[f32], bv: &[f32]| -> f32 {
            let a = Tensor::from_vec(av.to_vec(), [2, 3]);
            let b = Tensor::from_vec(bv.to_vec(), [3, 2]);
            a.matmul(&b).sum().item()
        };
        let a = Tensor::param(av.clone(), [2, 3]);
        let b = Tensor::param(bv.clone(), [3, 2]);
        a.matmul(&b).sum().backward();
        let ga = a.grad().unwrap();
        let h = 1e-2;
        for i in 0..av.len() {
            let mut ap = av.clone();
            ap[i] += h;
            let mut am = av.clone();
            am[i] -= h;
            let num = (f(&ap, &bv) - f(&am, &bv)) / (2.0 * h);
            assert!((ga[i] - num).abs() < 1e-2, "a[{i}]: {} vs {num}", ga[i]);
        }
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        a.matmul(&b);
    }
}
