//! Property tests pinning the SIMD GEMM kernel to the naive reference
//! over random shapes — including odd, non-tile- and non-lane-multiple
//! `m, n, k` — and all four transpose variants.
//!
//! Contract under test:
//!
//! * every variant agrees with the naive kernel within a relative
//!   tolerance for arbitrary shapes and a non-zero initial `c`;
//! * the `tb = false` variants (sequential accumulation in the naive
//!   loops) and *all* variants starting from `c = 0` are **bit-exact**,
//!   because the SIMD kernel seeds its accumulator tiles from `c` and
//!   adds products in the same ascending-`k` order;
//! * the row-threaded dispatch is bit-identical to serial for every
//!   worker count (each worker owns a disjoint MR-aligned row range).
//!
//! That the SIMD kernel's AVX2 and portable full-tile paths agree bit for
//! bit is pinned by the unit tests in `src/simd.rs`, which can pick the
//! path.

use proptest::prelude::*;
use zg_tensor::{gemm_naive, gemm_simd, gemm_simd_with_threads};

/// Max |x-y| scaled by magnitude over a result pair.
fn max_rel_err(x: &[f32], y: &[f32]) -> f32 {
    x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - b).abs() / a.abs().max(b.abs()).max(1.0))
        .fold(0.0, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simd_matches_naive_with_accumulation(
        m in 1..40usize,
        n in 1..40usize,
        k in 1..40usize,
        ta in any::<bool>(),
        tb in any::<bool>(),
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.3).cos()).collect();
        let seed_c: Vec<f32> = (0..m * n).map(|i| (i as f32 * 0.11).tan().clamp(-3.0, 3.0)).collect();
        let mut c0 = seed_c.clone();
        let mut c1 = seed_c;
        gemm_naive(ta, tb, m, n, k, &a, &b, &mut c0);
        gemm_simd(ta, tb, m, n, k, &a, &b, &mut c1);
        if !tb {
            // Sequential naive accumulation: bit-exact even into non-zero c.
            prop_assert_eq!(&c0, &c1);
        } else {
            // Register-accumulated naive variants round differently when
            // c != 0 (c + Σ vs ((c+x₀)+x₁)…): tolerance-based.
            prop_assert!(
                max_rel_err(&c0, &c1) < 1e-5,
                "rel err {} too large for ({}, {})",
                max_rel_err(&c0, &c1), ta, tb
            );
        }
    }

    #[test]
    fn tile_aligned_shapes_exact_all_variants(
        bands in 1usize..5,
        panels in 1usize..5,
        kmul in 1usize..6,
        ta in any::<bool>(),
        tb in any::<bool>(),
    ) {
        // Multiples of the 8×8 tile: no edge tiles, no padding in play.
        let (m, n, k) = (bands * 8, panels * 8, kmul * 4);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 5 % 19) as f32 - 9.0) * 0.5).collect();
        let mut c0 = vec![0.0f32; m * n];
        let mut c1 = vec![0.0f32; m * n];
        gemm_naive(ta, tb, m, n, k, &a, &b, &mut c0);
        gemm_simd(ta, tb, m, n, k, &a, &b, &mut c1);
        prop_assert_eq!(&c0, &c1);
    }

    #[test]
    fn simd_matches_naive_from_zero_all_variants(
        m in 1..40usize,
        n in 1..40usize,
        k in 1..40usize,
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32 + seed as f32) * 0.53).sin())
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i as f32 * 1.19) + seed as f32).cos())
            .collect();
        let mut c0 = vec![0.0f32; m * n];
        let mut c1 = vec![0.0f32; m * n];
        gemm_naive(ta, tb, m, n, k, &a, &b, &mut c0);
        gemm_simd(ta, tb, m, n, k, &a, &b, &mut c1);
        prop_assert_eq!(&c0, &c1);
    }

    #[test]
    fn simd_threaded_bit_identical_to_serial(
        m in 1..48usize,
        n in 1..48usize,
        k in 1..48usize,
        threads in 2usize..9,
        ta in any::<bool>(),
        tb in any::<bool>(),
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.77).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.41).cos()).collect();
        let mut serial = vec![0.0f32; m * n];
        let mut par = vec![0.0f32; m * n];
        gemm_simd_with_threads(ta, tb, m, n, k, &a, &b, &mut serial, 1);
        gemm_simd_with_threads(ta, tb, m, n, k, &a, &b, &mut par, threads);
        prop_assert_eq!(&serial, &par);
    }
}
