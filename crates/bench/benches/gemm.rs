//! Criterion benchmark of the dense GEMM kernels at the shapes the chunk
//! forward runs them at (`[chunk, d_model] x W` for the projections and the
//! two FFN matrices of the `*-7b-sim` presets, plus a short warm-suffix
//! chunk): the tiled [`Matrix::matmul_into`] beside the row kernel it must
//! equal bit for bit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use million_tensor::gemm::matmul_rows_into;
use million_tensor::init::{normal_matrix, seeded_rng};
use million_tensor::{GemmScratch, Matrix};

fn bench_gemm(c: &mut Criterion) {
    let mut rng = seeded_rng(3);
    let mut group = c.benchmark_group("gemm");
    for (m, k, n) in [
        (512usize, 256usize, 256usize),
        (512, 256, 1024),
        (512, 1024, 256),
        (16, 256, 256),
    ] {
        let a = normal_matrix(&mut rng, m, k, 0.0, 1.0);
        let b = normal_matrix(&mut rng, k, n, 0.0, 1.0);
        let shape = format!("{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("tiled", &shape), &shape, |bench, _| {
            let mut scratch = GemmScratch::serial();
            let mut out = Matrix::default();
            bench.iter(|| {
                std::hint::black_box(&a).matmul_into(&b, &mut scratch, &mut out);
                out.get(0, 0)
            })
        });
        group.bench_with_input(BenchmarkId::new("rows", &shape), &shape, |bench, _| {
            let mut out = Matrix::default();
            bench.iter(|| {
                matmul_rows_into(std::hint::black_box(&a), &b, &mut out);
                out.get(0, 0)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_gemm
}
criterion_main!(benches);
