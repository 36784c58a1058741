//! Explicit-SIMD f32 GEMM: cache-blocked packed panels with an 8-lane
//! register-resident microkernel.
//!
//! Structure (BLIS-style, specialized to row-major `c += op(a)·op(b)`):
//!
//! * the `k` dimension is cut into `KC`-deep blocks processed in
//!   **ascending** order, each accumulating into `c`;
//! * per block, all `NR`-wide column panels of `op(b)` are packed once
//!   (layout `[p][j]`, zero-padded at the right edge) and reused across
//!   every row band — the panel set for one block fits in L1/L2;
//! * each `MR`-row band packs its `op(a)` panel (layout `[p][i]`) once
//!   and sweeps all B panels, so packing cost is `O(mk + kn)` against
//!   `O(mnk)` kernel work.
//!
//! The microkernel holds the full `MR`×`NR` accumulator tile in eight
//! 8-lane vector registers, seeds it from the destination tile, and adds
//! `a[p][i]·b[p][j]` products with **separate multiply and add** (never
//! FMA) in ascending-`p` order. Every output element therefore sees the
//! float-operation sequence `c[i][j] + x₀ + x₁ + …` with ascending-`k`
//! products. Lane parallelism runs across output *columns*, which are
//! independent accumulators — no reassociation.
//!
//! That is the naive kernel's order whenever it adds products into `c`
//! one at a time, so the SIMD kernel is **bit-identical** to
//! [`crate::gemm_naive`] from a zero `c` under every transpose flag, and
//! into a nonzero `c` when `tb = false`. With `tb = true` the naive loops
//! sum the products in a register and add that sum to `c` once, which
//! rounds differently when `c ≠ 0` (agreement within tolerance). Every
//! call site in this workspace is one of the bit-identical cases.
//!
//! Three microkernels compute that per-element sequence:
//!
//! * `mk8x8_avx2` — AVX2 intrinsics for full 8×8 tiles, behind a runtime
//!   CPUID check on x86-64;
//! * `mk8x8` — the portable full-tile path, for hosts without AVX2;
//! * `mk_edge` — partial tiles at the right and bottom edges, on every
//!   host.
//!
//! The AVX2 and portable paths are bit-identical for every shape,
//! transpose flag, and initial `c`, so results do not depend on which
//! path ran.

use crate::pool;

/// Microkernel tile height (output rows per packed A panel).
pub(crate) const MR: usize = 8;
/// Microkernel tile width (output cols per packed B panel).
pub(crate) const NR: usize = 8;
/// Depth of one cache block: an 8-row A panel (`KC·MR` floats) and an
/// 8-column B panel (`KC·NR` floats) are 8 KiB each — both L1-resident.
const KC: usize = 256;

/// Whether the AVX2 microkernel is available on this machine (cached
/// runtime CPUID check; `false` on non-x86-64 targets).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Packed B panels for every `KC` block of the `k` dimension, shared
/// read-only across worker threads.
pub(crate) struct PackedB {
    buf: Vec<f32>,
    /// `(p0, kc, offset)` per block, ascending `p0`.
    blocks: Vec<(usize, usize, usize)>,
    n_panels: usize,
}

impl PackedB {
    /// Pack all `NR`-wide column panels of `op(b)` for every `KC`-deep
    /// block. Panel `jp` of block `bi` starts at
    /// `blocks[bi].2 + jp·kc·NR` with layout `[p][j]`, zero-padded on the
    /// right edge.
    pub(crate) fn pack(tb: bool, b: &[f32], k: usize, n: usize) -> PackedB {
        let n_panels = n.div_ceil(NR);
        let n_blocks = k.div_ceil(KC);
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut total = 0;
        for bi in 0..n_blocks {
            let p0 = bi * KC;
            let kc = KC.min(k - p0);
            blocks.push((p0, kc, total));
            total += n_panels * kc * NR;
        }
        let mut buf = pool::take_scratch(total);
        for &(p0, kc, off) in &blocks {
            for jp in 0..n_panels {
                let col0 = jp * NR;
                let nr = NR.min(n - col0);
                let panel = &mut buf[off + jp * kc * NR..off + (jp + 1) * kc * NR];
                if nr < NR {
                    panel.fill(0.0);
                }
                if tb {
                    // b physically (n, k): column j of op(b) is row j of b.
                    for jj in 0..nr {
                        let src = &b[(col0 + jj) * k + p0..(col0 + jj) * k + p0 + kc];
                        for (p, &v) in src.iter().enumerate() {
                            panel[p * NR + jj] = v;
                        }
                    }
                } else {
                    for (p, chunk) in panel.chunks_exact_mut(NR).enumerate() {
                        let r = p0 + p;
                        chunk[..nr].copy_from_slice(&b[r * n + col0..r * n + col0 + nr]);
                    }
                }
            }
        }
        PackedB {
            buf,
            blocks,
            n_panels,
        }
    }

    /// Return the backing buffer to the pool.
    pub(crate) fn recycle(self) {
        pool::recycle(self.buf);
    }
}

/// Pack `mr` rows of `op(a)` (rows `row0..row0+mr`, depth `p0..p0+kc`)
/// into `ap` with layout `[p][i]`, zero-padded to `MR` rows.
#[allow(clippy::too_many_arguments)]
fn pack_a_panel(
    ta: bool,
    a: &[f32],
    m: usize,
    k: usize,
    row0: usize,
    mr: usize,
    p0: usize,
    kc: usize,
    ap: &mut [f32],
) {
    debug_assert!(ap.len() >= kc * MR);
    let ap = &mut ap[..kc * MR];
    if mr < MR {
        ap.fill(0.0);
    }
    if ta {
        // a physically (k, m): row i of op(a) is column i of a.
        for (p, chunk) in ap.chunks_exact_mut(MR).enumerate() {
            let r = p0 + p;
            chunk[..mr].copy_from_slice(&a[r * m + row0..r * m + row0 + mr]);
        }
    } else {
        for i in 0..mr {
            let src = &a[(row0 + i) * k + p0..(row0 + i) * k + p0 + kc];
            for (p, &v) in src.iter().enumerate() {
                ap[p * MR + i] = v;
            }
        }
    }
}

/// AVX2 8×8 microkernel: eight 8-lane accumulators seeded from the
/// destination rows, one multiply + one add per product (no FMA),
/// ascending-`p` — the scalar kernels' exact float-operation order per
/// output element. Only called for full `MR`×`NR` tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: callers check `simd_available()` (AVX2 present) before calling
// and guarantee `ap` holds `kc·MR` packed floats, `bp` holds `kc·NR`,
// and `c` addresses a full 8×8 tile with row stride `ldc` inside the
// output buffer; unaligned load/store intrinsics are used throughout, so
// no alignment requirement beyond f32.
unsafe fn mk8x8_avx2(kc: usize, ap: *const f32, bp: *const f32, c: *mut f32, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc0 = _mm256_loadu_ps(c);
    let mut acc1 = _mm256_loadu_ps(c.add(ldc));
    let mut acc2 = _mm256_loadu_ps(c.add(2 * ldc));
    let mut acc3 = _mm256_loadu_ps(c.add(3 * ldc));
    let mut acc4 = _mm256_loadu_ps(c.add(4 * ldc));
    let mut acc5 = _mm256_loadu_ps(c.add(5 * ldc));
    let mut acc6 = _mm256_loadu_ps(c.add(6 * ldc));
    let mut acc7 = _mm256_loadu_ps(c.add(7 * ldc));
    for p in 0..kc {
        let bv = _mm256_loadu_ps(bp.add(p * NR));
        let ab = ap.add(p * MR);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(&*ab), bv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(&*ab.add(1)), bv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(&*ab.add(2)), bv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(&*ab.add(3)), bv));
        acc4 = _mm256_add_ps(acc4, _mm256_mul_ps(_mm256_broadcast_ss(&*ab.add(4)), bv));
        acc5 = _mm256_add_ps(acc5, _mm256_mul_ps(_mm256_broadcast_ss(&*ab.add(5)), bv));
        acc6 = _mm256_add_ps(acc6, _mm256_mul_ps(_mm256_broadcast_ss(&*ab.add(6)), bv));
        acc7 = _mm256_add_ps(acc7, _mm256_mul_ps(_mm256_broadcast_ss(&*ab.add(7)), bv));
    }
    _mm256_storeu_ps(c, acc0);
    _mm256_storeu_ps(c.add(ldc), acc1);
    _mm256_storeu_ps(c.add(2 * ldc), acc2);
    _mm256_storeu_ps(c.add(3 * ldc), acc3);
    _mm256_storeu_ps(c.add(4 * ldc), acc4);
    _mm256_storeu_ps(c.add(5 * ldc), acc5);
    _mm256_storeu_ps(c.add(6 * ldc), acc6);
    _mm256_storeu_ps(c.add(7 * ldc), acc7);
}

/// Portable 8×8 microkernel for full tiles on hosts without AVX2: the
/// tile's accumulators seeded from `c`, then per output element the
/// identical ascending-`p` multiply-then-add sequence as [`mk8x8_avx2`].
/// Fixed loop bounds let LLVM unroll and vectorize the body.
#[inline]
fn mk8x8(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[i * ldc..i * ldc + NR]);
    }
    for p in 0..kc {
        let av = &ap[p * MR..p * MR + MR];
        let bv = &bp[p * NR..p * NR + NR];
        for i in 0..MR {
            let aa = av[i];
            for (accv, &bb) in acc[i].iter_mut().zip(bv) {
                *accv += aa * bb;
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// Portable microkernel for edge tiles (`mr < MR` or `nr < NR`): per
/// output element, the identical seeded ascending-`p` multiply-then-add
/// sequence as the full-tile kernels.
fn mk_edge(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    for i in 0..mr {
        let mut acc = [0.0f32; NR];
        acc[..nr].copy_from_slice(&c[i * ldc..i * ldc + nr]);
        for p in 0..kc {
            let aa = ap[p * MR + i];
            let bv = &bp[p * NR..p * NR + NR];
            for (accv, &bb) in acc.iter_mut().zip(bv) {
                *accv += aa * bb;
            }
        }
        c[i * ldc..i * ldc + nr].copy_from_slice(&acc[..nr]);
    }
}

/// SIMD GEMM over `nrows` output rows starting at global row `row_start`,
/// against pre-packed B blocks. `c_chunk` holds exactly those rows
/// (chunk-local row 0 = global `row_start`). Blocks accumulate into `c`
/// in ascending-`k` order, preserving the per-element float sequence.
/// Full tiles run the AVX2 microkernel when `avx2` is set and the CPU has
/// it, else the portable one.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn gemm_simd_rows(
    ta: bool,
    a: &[f32],
    bp: &PackedB,
    c_chunk: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    row_start: usize,
    nrows: usize,
    avx2: bool,
) {
    debug_assert_eq!(c_chunk.len(), nrows * n);
    #[cfg(target_arch = "x86_64")]
    let avx2 = avx2 && simd_available();
    let mut ap = pool::take_scratch(KC * MR);
    for &(p0, kc, off) in &bp.blocks {
        let mut band = 0;
        while band < nrows {
            let mr = MR.min(nrows - band);
            pack_a_panel(ta, a, m, k, row_start + band, mr, p0, kc, &mut ap);
            for jp in 0..bp.n_panels {
                let col0 = jp * NR;
                let nr = NR.min(n - col0);
                let panel = &bp.buf[off + jp * kc * NR..off + (jp + 1) * kc * NR];
                let tile = &mut c_chunk[band * n + col0..];
                if mr < MR || nr < NR {
                    mk_edge(kc, &ap, panel, tile, n, mr, nr);
                    continue;
                }
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    // SAFETY: `ap` holds `kc·MR` packed floats, `panel`
                    // holds `kc·NR`, and the full 8×8 destination tile at
                    // rows `band..band+8`, cols `col0..col0+8` lies inside
                    // `c_chunk` (`mr == MR`, `nr == NR` checked above);
                    // `mk8x8_avx2` requires AVX2, checked at runtime.
                    unsafe {
                        mk8x8_avx2(kc, ap.as_ptr(), panel.as_ptr(), tile.as_mut_ptr(), n);
                    }
                    continue;
                }
                mk8x8(kc, &ap, panel, tile, n);
            }
            band += MR;
        }
    }
    pool::recycle(ap);
}

/// Single-threaded SIMD GEMM (`c += op(a)·op(b)`), any shape. Bit-exact
/// vs [`crate::gemm_naive`] under the accumulation contract in the module
/// docs.
#[allow(clippy::too_many_arguments)]
pub fn gemm_simd(
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm_simd_with_threads(ta, tb, m, n, k, a, b, c, 1);
}

/// SIMD GEMM with output rows partitioned across `threads` scoped worker
/// threads. Every worker runs the identical kernel over a disjoint,
/// contiguous, `MR`-aligned row range of `c` against the same packed B,
/// so the result is bit-identical to `threads = 1` for every count.
#[allow(clippy::too_many_arguments)]
pub fn gemm_simd_with_threads(
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    gemm_simd_path(ta, tb, m, n, k, a, b, c, threads, true);
}

/// [`gemm_simd_with_threads`] with the full-tile path chosen by `avx2`:
/// the AVX2 microkernel when set (and the CPU has it), else the portable
/// one.
#[allow(clippy::too_many_arguments)]
fn gemm_simd_path(
    ta: bool,
    tb: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
    avx2: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let bp = PackedB::pack(tb, b, k, n);
    let bands = m.div_ceil(MR);
    let threads = threads.clamp(1, bands.max(1));
    if threads == 1 {
        gemm_simd_rows(ta, a, &bp, c, m, n, k, 0, m, avx2);
        bp.recycle();
        return;
    }
    let rows_per = bands.div_ceil(threads) * MR;
    let bp_ref = &bp;
    std::thread::scope(|s| {
        let mut rest = c;
        let mut row0 = 0;
        while row0 < m {
            let take = rows_per.min(m - row0);
            let (chunk, tail) = rest.split_at_mut(take * n);
            rest = tail;
            let r0 = row0;
            s.spawn(move || {
                gemm_simd_rows(ta, a, bp_ref, chunk, m, n, k, r0, take, avx2);
            });
            row0 += take;
        }
    });
    bp.recycle();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops_matmul::gemm_naive;

    fn mat(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn simd_bit_exact_vs_naive_from_zero() {
        for (m, n, k) in [
            (8, 8, 8),
            (16, 24, 32),
            (64, 64, 64),
            (13, 7, 9),
            (1, 9, 4),
            (37, 29, 300), // multiple KC blocks
            (128, 768, 64),
        ] {
            let a = mat(m as u64 ^ 1, m * k);
            let b = mat(n as u64 ^ 2, k * n);
            let mut c0 = vec![0.0; m * n];
            let mut c1 = vec![0.0; m * n];
            gemm_naive(false, false, m, n, k, &a, &b, &mut c0);
            gemm_simd(false, false, m, n, k, &a, &b, &mut c1);
            assert_eq!(c0, c1, "({m},{n},{k}) simd must be bit-exact vs naive");
        }
    }

    #[test]
    fn simd_accumulates_into_nonzero_c() {
        // The sequential (ta=false/true, tb=false) naive loops add one
        // product at a time into c; the c-seeded accumulators reproduce
        // that order exactly even when c starts non-zero.
        let (m, n, k) = (10, 12, 5);
        let b = mat(4, k * n);
        let seed = mat(5, m * n);
        for ta in [false, true] {
            let a = mat(3, m * k);
            let mut c0 = seed.clone();
            let mut c1 = seed.clone();
            gemm_naive(ta, false, m, n, k, &a, &b, &mut c0);
            gemm_simd(ta, false, m, n, k, &a, &b, &mut c1);
            assert_eq!(c0, c1, "ta={ta}: accumulation order must match naive");
        }
    }

    #[test]
    fn portable_path_bit_identical_to_avx2() {
        // Strongest contract: the two full-tile paths agree bitwise for
        // every transpose pair even when accumulating into non-zero c,
        // across KC=256 block boundaries. 16x24 is all full tiles; 21x19
        // adds edge rows and columns.
        if !simd_available() {
            eprintln!("no AVX2 on this host: only the portable path exists");
            return;
        }
        for (m, n) in [(16, 24), (21, 19)] {
            for k in [255, 256, 257, 513] {
                let a = mat(3, m * k);
                let b = mat(4, k * n);
                let seed = mat(5, m * n);
                for ta in [false, true] {
                    for tb in [false, true] {
                        let mut c0 = seed.clone();
                        let mut c1 = seed.clone();
                        gemm_simd_path(ta, tb, m, n, k, &a, &b, &mut c0, 1, false);
                        gemm_simd_path(ta, tb, m, n, k, &a, &b, &mut c1, 1, true);
                        assert_eq!(c0, c1, "({m},{n},{k}) ({ta},{tb}) portable vs avx2");
                    }
                }
            }
        }
    }

    #[test]
    fn simd_threaded_bit_identical_to_serial() {
        let (m, n, k) = (37, 29, 23);
        let a = mat(7, m * k);
        let b = mat(8, k * n);
        let mut c1 = vec![0.0; m * n];
        gemm_simd_with_threads(false, false, m, n, k, &a, &b, &mut c1, 1);
        for threads in [2, 3, 5, 8] {
            let mut ct = vec![0.0; m * n];
            gemm_simd_with_threads(false, false, m, n, k, &a, &b, &mut ct, threads);
            assert_eq!(c1, ct, "threads={threads} must be bit-identical");
        }
    }
}
