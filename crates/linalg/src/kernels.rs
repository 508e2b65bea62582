//! Inner-loop kernels shared by the dense `syrk` panels and the banded
//! factor/solve paths.
//!
//! Both kernels are update-style loops over contiguous segments: every
//! output element gets its own independent accumulation chain, so the
//! optimizer is free to vectorize across elements without changing any
//! element's rounding. The one reduction, [`dot`], keeps four
//! independent partial sums so its adds pipeline.

/// `aᵀb` over the common length, summed in four interleaved partial
/// sums (`a[4i + j]·b[4i + j]` into sum `j`), combined as
/// `(s₀ + s₁) + (s₂ + s₃)`, then the tail: a fixed order, so the result is
/// deterministic, with a rounding error bound no worse than the
/// sequential sum's.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut sums = [0.0; 4];
    let (mut ca, mut cb) = (a.chunks_exact(4), b.chunks_exact(4));
    for (x, y) in (&mut ca).zip(&mut cb) {
        for j in 0..4 {
            sums[j] += x[j] * y[j];
        }
    }
    let tail: f64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| x * y)
        .sum();
    (sums[0] + sums[1]) + (sums[2] + sums[3]) + tail
}

/// `out[k] += a * x[k]`.
#[inline]
pub(crate) fn axpy(out: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(out.len(), x.len());
    for (o, &xv) in out.iter_mut().zip(x) {
        *o += a * xv;
    }
}

/// The rank-4 `syrk` panel inner loop:
/// `out[k] += a0·b0[k] + a1·b1[k] + a2·b2[k] + a3·b3[k]`, accumulated in
/// ascending-row order inside each element.
#[inline]
pub(crate) fn panel4(out: &mut [f64], a: [f64; 4], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) {
    for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
        let mut acc = *o;
        acc += a[0] * v0;
        acc += a[1] * v1;
        acc += a[2] * v2;
        acc += a[3] * v3;
        *o = acc;
    }
}
