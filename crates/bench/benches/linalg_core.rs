//! Benchmarks the dense linear-algebra kernels underlying the QP and GCV
//! paths: factorizations, solves, and products at deconvolution sizes.

use std::time::Duration;

use cellsync_linalg::{Matrix, Vector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn spd(n: usize) -> Matrix {
    let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.7).sin());
    let mut g = a.gram();
    for i in 0..n {
        g[(i, i)] += n as f64;
    }
    g.symmetrize().expect("square");
    g
}

fn bench_factorizations(c: &mut Criterion) {
    let mut group = c.benchmark_group("factorizations");
    group.measurement_time(Duration::from_secs(3));
    for &n in &[24usize, 48, 96] {
        let m = spd(n);
        let b = Vector::from_fn(n, |i| (i as f64).cos());
        group.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |bench, _| {
            bench.iter(|| black_box(m.cholesky().expect("spd").solve(&b).expect("matching dims")));
        });
        group.bench_with_input(BenchmarkId::new("lu_solve", n), &n, |bench, _| {
            bench.iter(|| black_box(m.lu().expect("nonsingular").solve(&b).expect("dims")));
        });
        group.bench_with_input(BenchmarkId::new("qr", n), &n, |bench, _| {
            bench.iter(|| black_box(m.qr().expect("non-empty")));
        });
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bench, _| {
            bench.iter(|| black_box(m.matmul(&m).expect("square")));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("eigen");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    for &n in &[24usize, 48] {
        let m = spd(n);
        group.bench_with_input(BenchmarkId::new("symmetric_eigen", n), &n, |bench, _| {
            bench.iter(|| black_box(m.symmetric_eigen().expect("symmetric")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_factorizations);
criterion_main!(benches);
