//! Property-based tests for the linear-algebra substrate.
//!
//! These exercise algebraic invariants on randomly generated matrices:
//! factorization residuals, orthogonality, and solver consistency across
//! independent code paths (LU vs Cholesky vs QR).

use cellsync_linalg::{BandedMatrix, Matrix, SparseRowMatrix, Vector};
use proptest::prelude::*;

/// Strategy: a square matrix with entries in [-10, 10].
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("sized data"))
}

/// Strategy: a vector with entries in [-10, 10].
fn vector(n: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(-10.0..10.0f64, n).prop_map(Vector::from)
}

/// Strategy: `(n, bandwidth, band entries, rhs)` for a random symmetric
/// banded SPD system — dimensions 1..=24, bandwidth anywhere in
/// `0..n`, entries in [-3, 3] made SPD by diagonal dominance.
fn banded_spd_system() -> impl Strategy<Value = (BandedMatrix, Vector)> {
    (1usize..=24)
        .prop_flat_map(|n| (Just(n), 0..n))
        .prop_flat_map(|(n, b)| {
            (
                Just((n, b)),
                prop::collection::vec(-3.0..3.0f64, n * (b + 1)),
                prop::collection::vec(-10.0..10.0f64, n),
            )
        })
        .prop_map(|((n, b), entries, rhs)| {
            let mut m = BandedMatrix::zeros(n, b).expect("valid shape");
            let mut it = entries.into_iter();
            for i in 0..n {
                for j in i.saturating_sub(b)..=i {
                    let v = it.next().expect("sized entries");
                    m.set(i, j, v).expect("in band");
                }
            }
            // Diagonal dominance over a full band row makes it SPD.
            for i in 0..n {
                let d = m.get(i, i).abs() + 3.0 * (2 * b + 1) as f64 + 1.0;
                m.set(i, i, d).expect("diagonal");
            }
            (m, Vector::from(rhs))
        })
}

/// Strategy: a design matrix whose rows have contiguous local support of
/// width ≤ `b + 1` (the B-spline shape), plus per-row weights.
fn local_support_design() -> impl Strategy<Value = (Matrix, Vec<f64>, usize)> {
    (2usize..=16, 0usize..=5, 1usize..=24)
        .prop_flat_map(|(n, b, rows)| {
            let width = (b + 1).min(n);
            (
                Just((n, b)),
                prop::collection::vec(
                    (0usize..n, prop::collection::vec(-2.0..2.0f64, width)),
                    rows,
                ),
                prop::collection::vec(0.0..2.0f64, rows),
            )
        })
        .prop_map(|((n, b), specs, weights)| {
            let rows = specs.len();
            let mut a = Matrix::zeros(rows, n);
            for (r, (start, vals)) in specs.into_iter().enumerate() {
                let start = start.min(n - vals.len());
                for (k, v) in vals.into_iter().enumerate() {
                    a[(r, start + k)] = v;
                }
            }
            (a, weights, b)
        })
}

/// Strategy: `(n, draws, extra)` — a dimension in 1..=40 with `n²`
/// and `n` uniform draws in [-1, 1] to build a test matrix from.
fn eigen_inputs() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    (1usize..=40).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec(-1.0..1.0f64, n * n),
            prop::collection::vec(-1.0..1.0f64, n),
        )
    })
}

/// The symmetric-eigensolver input families, selected by `kind`:
/// 0 random symmetric; 1 a rotated diagonal with repeated and clustered
/// eigenvalues; 2 rank-deficient (rank ⌈n/3⌉); 3 random symmetric under
/// a 1e-8…1e8 graded diagonal scaling; 4 the zero matrix; 5 an unrotated
/// diagonal with duplicates.
fn eigen_test_matrix(kind: usize, n: usize, draws: &[f64], extra: &[f64]) -> Matrix {
    let x = Matrix::from_vec(n, n, draws.to_vec()).expect("sized draws");
    let sym = |m: &Matrix| Matrix::from_fn(n, n, |i, j| 0.5 * (m[(i, j)] + m[(j, i)]));
    let grade = |i: usize| 10f64.powf(-8.0 + 16.0 * i as f64 / (n.max(2) - 1) as f64);
    // Eigenvalues from a 3-value palette, each nudged by at most 1e-10:
    // exact repeats and tight clusters in one spectrum.
    let palette = |i: usize| [-1.0, 0.5, 2.0][((extra[i] + 1.0) * 1.5) as usize % 3];
    let nudge = |i: usize| {
        if i.is_multiple_of(2) {
            0.0
        } else {
            1e-10 * extra[i]
        }
    };
    match kind {
        0 => sym(&x),
        1 => {
            let q = x.qr().expect("square").q().clone();
            let lambda = Matrix::from_diagonal(&Vector::from_fn(n, |i| palette(i) + nudge(i)));
            sym(&q.matmul(&lambda).unwrap().matmul(&q.transpose()).unwrap())
        }
        2 => {
            let k = n.div_ceil(3);
            let y = Matrix::from_fn(n, k, |i, j| x[(i, j)]);
            sym(&y.matmul(&y.transpose()).unwrap())
        }
        3 => {
            let s = sym(&x);
            Matrix::from_fn(n, n, |i, j| grade(i) * s[(i, j)] * grade(j))
        }
        4 => Matrix::zeros(n, n),
        _ => Matrix::from_diagonal(&Vector::from_fn(n, palette)),
    }
}

/// Makes an SPD matrix from an arbitrary square one: `AᵀA + n·I`.
fn make_spd(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut g = a.gram();
    for i in 0..n {
        g[(i, i)] += n as f64;
    }
    g.symmetrize().expect("square");
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_has_small_residual(a in square_matrix(4), b in vector(4)) {
        // Skip (rare) near-singular draws by conditioning through SPD shift.
        let spd = make_spd(&a);
        let lu = spd.lu().expect("spd is nonsingular");
        let x = lu.solve(&b).expect("solve");
        let r = &spd.matvec(&x).expect("matvec") - &b;
        prop_assert!(r.norm2() <= 1e-8 * (1.0 + b.norm2()));
    }

    #[test]
    fn cholesky_and_lu_agree_on_spd(a in square_matrix(5), b in vector(5)) {
        let spd = make_spd(&a);
        let x_ch = spd.cholesky().expect("spd").solve(&b).expect("solve");
        let x_lu = spd.lu().expect("nonsingular").solve(&b).expect("solve");
        prop_assert!((&x_ch - &x_lu).norm2() <= 1e-7 * (1.0 + x_lu.norm2()));
    }

    #[test]
    fn qr_reconstructs_input(a in square_matrix(4)) {
        let qr = a.qr().expect("qr");
        let recon = qr.q().matmul(qr.r()).expect("shapes");
        prop_assert!((&recon - &a).norm_frobenius() <= 1e-9 * (1.0 + a.norm_frobenius()));
    }

    #[test]
    fn qr_q_is_orthogonal(a in square_matrix(4)) {
        let qr = a.qr().expect("qr");
        let qtq = qr.q().transpose().matmul(qr.q()).expect("shapes");
        let err = (&qtq - &Matrix::identity(4)).norm_frobenius();
        prop_assert!(err <= 1e-10);
    }

    #[test]
    fn eigen_reconstructs_symmetric(a in square_matrix(4)) {
        let spd = make_spd(&a);
        let eig = spd.symmetric_eigen().expect("symmetric");
        let v = eig.eigenvectors();
        let d = Matrix::from_diagonal(eig.eigenvalues());
        let recon = v.matmul(&d).expect("shapes").matmul(&v.transpose()).expect("shapes");
        prop_assert!((&recon - &spd).norm_frobenius() <= 1e-8 * (1.0 + spd.norm_frobenius()));
    }

    #[test]
    fn eigenvalues_of_spd_are_positive(a in square_matrix(4)) {
        let spd = make_spd(&a);
        let eig = spd.symmetric_eigen().expect("symmetric");
        prop_assert!(eig.min_eigenvalue() > 0.0);
    }

    #[test]
    fn symmetric_eigen_is_backward_stable(input in eigen_inputs(), kind in 0usize..6) {
        // ‖AV − VΛ‖_F ≤ 50·n·ε·‖A‖_F, ‖VᵀV − I‖_F ≤ 50·n·ε, ascending λ —
        // across random, repeated/clustered, rank-deficient, graded
        // (1e-8…1e8) and zero inputs.
        let (n, draws, extra) = input;
        let a = eigen_test_matrix(kind, n, &draws, &extra);
        let eig = a.symmetric_eigen().expect("finite symmetric input");
        let v = eig.eigenvectors();
        let lambda = eig.eigenvalues();
        let eps = f64::EPSILON;
        let av = a.matmul(v).expect("shapes");
        let v_lambda = Matrix::from_fn(n, n, |i, j| v[(i, j)] * lambda[j]);
        let residual = (&av - &v_lambda).norm_frobenius();
        prop_assert!(
            residual <= 50.0 * n as f64 * eps * a.norm_frobenius(),
            "kind {} n {}: ‖AV − VΛ‖ = {:e}, ‖A‖ = {:e}", kind, n, residual, a.norm_frobenius()
        );
        let vtv = v.transpose().matmul(v).expect("shapes");
        let orth = (&vtv - &Matrix::identity(n)).norm_frobenius();
        prop_assert!(orth <= 50.0 * n as f64 * eps, "kind {} n {}: ‖VᵀV − I‖ = {:e}", kind, n, orth);
        for w in lambda.as_slice().windows(2) {
            prop_assert!(w[0] <= w[1], "kind {} n {}: not ascending {:?}", kind, n, w);
        }
    }

    #[test]
    fn determinant_is_multiplicative(a in square_matrix(3), b in square_matrix(3)) {
        let spd_a = make_spd(&a);
        let spd_b = make_spd(&b);
        let det_a = spd_a.lu().expect("a").determinant();
        let det_b = spd_b.lu().expect("b").determinant();
        let det_ab = spd_a.matmul(&spd_b).expect("shapes").lu().expect("ab").determinant();
        let rel = (det_ab - det_a * det_b).abs() / (1.0 + (det_a * det_b).abs());
        prop_assert!(rel <= 1e-8);
    }

    #[test]
    fn transpose_is_involution(a in square_matrix(4)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_linear(a in square_matrix(3), x in vector(3), y in vector(3)) {
        let lhs = a.matvec(&(&x + &y)).expect("matvec");
        let rhs = &a.matvec(&x).expect("matvec") + &a.matvec(&y).expect("matvec");
        prop_assert!((&lhs - &rhs).norm2() <= 1e-9 * (1.0 + lhs.norm2()));
    }

    #[test]
    fn dot_commutes(x in vector(6), y in vector(6)) {
        let a = x.dot(&y).expect("dot");
        let b = y.dot(&x).expect("dot");
        prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()));
    }

    #[test]
    fn cauchy_schwarz(x in vector(5), y in vector(5)) {
        let d = x.dot(&y).expect("dot").abs();
        prop_assert!(d <= x.norm2() * y.norm2() + 1e-9);
    }

    #[test]
    fn norm_triangle_inequality(x in vector(5), y in vector(5)) {
        prop_assert!((&x + &y).norm2() <= x.norm2() + y.norm2() + 1e-9);
    }

    #[test]
    fn banded_cholesky_matches_dense(sys in banded_spd_system()) {
        // The O(n·b²) banded factor and solve must agree with the dense
        // reference path entry-for-entry and solution-for-solution.
        let (m, rhs) = sys;
        let dense = m.to_dense();
        let bf = m.cholesky().expect("diagonally dominant");
        let df = dense.cholesky().expect("same matrix, dense path");
        let n = m.dim();
        for i in 0..n {
            for j in i.saturating_sub(m.bandwidth())..=i {
                prop_assert!(
                    (bf.factor_entry(i, j) - df.factor()[(i, j)]).abs() <= 1e-10,
                    "L[({}, {})]: banded {} vs dense {}",
                    i, j, bf.factor_entry(i, j), df.factor()[(i, j)]
                );
            }
        }
        let xb = bf.solve(&rhs).expect("shapes");
        let xd = df.solve(&rhs).expect("shapes");
        prop_assert!((&xb - &xd).norm_inf() <= 1e-10 * (1.0 + xd.norm_inf()));
    }

    #[test]
    fn banded_gram_matches_dense(design in local_support_design()) {
        // Sparsity-aware Gram assembly over locally supported CSR rows
        // must reproduce the dense weighted_gram_into to 1e-10.
        let (a, weights, b) = design;
        let n = a.cols();
        let mut dense = Matrix::zeros(n, n);
        a.weighted_gram_into(&weights, &mut dense).expect("shapes");
        let mut from_csr = BandedMatrix::zeros(n, b.min(n - 1)).expect("valid shape");
        let csr = SparseRowMatrix::from_dense(&a).expect("finite");
        csr.weighted_gram_banded_into(Some(&weights), &mut from_csr).expect("support fits band");
        for i in 0..n {
            for j in i.saturating_sub(from_csr.bandwidth())..=i {
                prop_assert!(
                    (from_csr.get(i, j) - dense[(i, j)]).abs() <= 1e-10,
                    "G[({}, {})]: csr {} vs dense {}", i, j, from_csr.get(i, j), dense[(i, j)]
                );
            }
        }
        // Everything outside the band must be exactly zero in the dense
        // reference too (local support guarantees it).
        for i in 0..n {
            for j in 0..i.saturating_sub(from_csr.bandwidth()) {
                prop_assert!(dense[(i, j)].abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn banded_refactor_matches_fresh(sys in banded_spd_system(), shift in 0.0..5.0f64) {
        // In-place refactor of a shifted matrix equals a fresh factor —
        // the λ-sweep reuse pattern.
        let (mut m, rhs) = sys;
        let mut factor = m.cholesky().expect("spd");
        m.add_diagonal(shift);
        factor.refactor(&m).expect("still spd");
        let fresh = m.cholesky().expect("still spd");
        let xa = factor.solve(&rhs).expect("shapes");
        let xb = fresh.solve(&rhs).expect("shapes");
        prop_assert!((&xa - &xb).norm_inf() <= 1e-12 * (1.0 + xb.norm_inf()));
    }
}
