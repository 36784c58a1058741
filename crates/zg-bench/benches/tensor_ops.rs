//! Microbenchmarks of the autograd engine: matmul, elementwise chains,
//! softmax, and a full backward sweep.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zg_tensor::{gemm_naive, gemm_simd, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let a = Tensor::randn([n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([n, n], 0.0, 1.0, &mut rng);
        group.bench_function(format!("{n}x{n}"), |bench| {
            bench.iter(|| black_box(a.matmul(&b)))
        });
    }
    // Batched with broadcast weight (the transformer linear shape).
    let x = Tensor::randn([8, 64, 64], 0.0, 1.0, &mut rng);
    let w = Tensor::randn([64, 64], 0.0, 1.0, &mut rng);
    group.bench_function("batched_8x64x64_by_64x64", |bench| {
        bench.iter(|| black_box(x.matmul(&w)))
    });
    group.finish();
}

fn bench_gemm_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("gemm_kernel");
    for &n in &[64usize, 128, 256] {
        let a: Vec<f32> = (0..n * n).map(|_| rng.gen::<f32>() - 0.5).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.gen::<f32>() - 0.5).collect();
        group.bench_function(format!("naive_{n}"), |bench| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                gemm_naive(false, false, n, n, n, &a, &b, &mut out);
                black_box(out)
            })
        });
        group.bench_function(format!("simd_{n}"), |bench| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                gemm_simd(false, false, n, n, n, &a, &b, &mut out);
                black_box(out)
            })
        });
    }
    group.finish();
}

fn bench_elementwise_and_softmax(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::randn([64, 256], 0.0, 1.0, &mut rng);
    let y = Tensor::randn([64, 256], 0.0, 1.0, &mut rng);
    c.bench_function("ewise_add_mul_silu_64x256", |b| {
        b.iter(|| black_box(x.add(&y).mul(&x).silu()))
    });
    c.bench_function("softmax_64x256", |b| b.iter(|| black_box(x.softmax())));
}

fn bench_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("forward_backward_mlp_64", |b| {
        let w1 = Tensor::randn([64, 128], 0.0, 0.1, &mut rng);
        w1.set_requires_grad(true);
        let w2 = Tensor::randn([128, 64], 0.0, 0.1, &mut rng);
        w2.set_requires_grad(true);
        let x = Tensor::randn([16, 64], 0.0, 1.0, &mut rng);
        b.iter(|| {
            let loss = x.matmul(&w1).silu().matmul(&w2).square().mean();
            loss.backward();
            w1.zero_grad();
            w2.zero_grad();
            black_box(loss.item())
        })
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_gemm_kernels,
    bench_elementwise_and_softmax,
    bench_backward
);
criterion_main!(benches);
