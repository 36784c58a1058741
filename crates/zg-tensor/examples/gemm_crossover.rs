//! Measures the naive/SIMD crossover on small square GEMMs to validate
//! the `Auto` dispatch threshold (`SIMD_MIN_FLOPS` in `ops_matmul.rs`).
//! Run with:
//!
//! ```text
//! cargo run --release -p zg-tensor --example gemm_crossover
//! ```

use std::time::Instant;

use zg_tensor::{gemm_naive, gemm_simd, simd_available};

fn mat(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn time_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.05 / once) as usize).clamp(1, 100_000);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

fn main() {
    println!("avx2: {}", simd_available());
    println!("{:>5} {:>12} {:>12}  winner", "dim", "naive ns", "simd ns");
    for dim in [4usize, 6, 8, 12, 16, 20, 24, 32, 48, 64, 96] {
        let (m, n, k) = (dim, dim, dim);
        let a = mat(1, m * k);
        let b = mat(2, k * n);
        let mut c = vec![0.0f32; m * n];
        let t_naive = time_call(|| {
            c.iter_mut().for_each(|v| *v = 0.0);
            gemm_naive(false, false, m, n, k, &a, &b, &mut c);
        });
        let t_simd = time_call(|| {
            c.iter_mut().for_each(|v| *v = 0.0);
            gemm_simd(false, false, m, n, k, &a, &b, &mut c);
        });
        let winner = if t_simd <= t_naive { "simd" } else { "naive" };
        println!(
            "{dim:>5} {:>12.0} {:>12.0}  {winner}",
            t_naive * 1e9,
            t_simd * 1e9
        );
    }
}
