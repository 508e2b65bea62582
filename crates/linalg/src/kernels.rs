//! Inner-loop kernels shared by the dense `syrk` panels and the banded
//! factor/solve paths.
//!
//! Both kernels are update-style loops over contiguous segments: every
//! output element gets its own independent accumulation chain, so the
//! optimizer is free to vectorize across elements without changing any
//! element's rounding. Reductions (dot products) live elsewhere.

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
