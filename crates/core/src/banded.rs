//! The banded solve path for locally supported (B-spline) bases.
//!
//! For genome-scale `basis_size` the dense engine's O(n³) factorizations
//! dominate. With the clamped B-spline basis the penalty `Ω` is banded
//! (bandwidth 3), so the normal-equation matrix splits as
//!
//! ```text
//! K = AᵀW²A + λΩ + εI = S + BᵀB,   S = λΩ + εI (banded),  B = W·A (m×n)
//! ```
//!
//! with m (the measurement count) tiny and n (the basis size) large. The
//! Woodbury identity turns every K-solve into banded S-solves plus an
//! m×m dense correction:
//!
//! ```text
//! K⁻¹ = S⁻¹ − S⁻¹Bᵀ·M⁻¹·BS⁻¹,     M = I_m + B·S⁻¹·Bᵀ
//! ```
//!
//! so a fit costs O(m·n·b²) instead of O(n³). The push-through identity
//! `K⁻¹Bᵀ = S⁻¹Bᵀ·M⁻¹` gives the unconstrained solution, residual, and
//! smoother trace directly from `M`:
//!
//! ```text
//! α_u = Y·(M⁻¹d)          with Y = S⁻¹Bᵀ, d = W·g
//! d − B·α_u = M⁻¹·d       (the weighted residual)
//! tr(B·K⁻¹·Bᵀ) = m − tr(M⁻¹)
//! ```
//!
//! Equality constraints `E·α = 0` (k ≤ 2 rows) are handled in range
//! space. Writing `T = K⁻¹Eᵀ` and `C = E·K⁻¹·Eᵀ`,
//!
//! ```text
//! α_c  = α_u − T·C⁻¹·(E·α_u)
//! edf  = (m − tr M⁻¹) − tr(C⁻¹·PᵀP)      with P = B·K⁻¹·Eᵀ = M⁻¹·(B·S⁻¹·Eᵀ)
//! r_c  = M⁻¹d + P·C⁻¹·(E·α_u)
//! ```
//!
//! which replicates the dense engine's nullspace-reduced GCV exactly: for
//! any orthonormal nullspace basis `Z` of `E` (`ZᵀZ = I`, as produced by
//! [`crate::solver::ReducedOperators`]),
//! `Z(ZᵀKZ)⁻¹Zᵀ = K⁻¹ − K⁻¹Eᵀ(EK⁻¹Eᵀ)⁻¹EK⁻¹`, so the banded edf/RSS are
//! the same numbers the spectral path computes — the two paths agree to
//! floating-point accumulation error, pinned at 1e-8 by the differential
//! suite. `docs/SOLVER.md` §9 derives the algebra and the cost model.
//!
//! Numerically, the raw split cancels two ~‖S⁻¹‖-sized intermediates
//! (the ridge caps ‖S⁻¹‖ at 1/ε, so ~7 digits survive at the default
//! 1e-9 ridge even though `K` itself is well conditioned — `AᵀW²A`
//! covers Ω's nullspace). Every KKT solve therefore runs a few passes
//! of iterative refinement: residuals are formed from O(1)-magnitude
//! quantities (`Kx = Sx + Bᵀ(Bx)`), and each pass contracts the error
//! by the same ~ε_mach·‖S⁻¹‖ factor, restoring dense-path accuracy.
//!
//! Positivity is resolved by convexity: if the equality-constrained
//! minimizer already satisfies the positivity grid, it is the constrained
//! optimum (all inequality multipliers zero); otherwise the engine falls
//! back to the dense active-set QP for that single fit.

use cellsync_linalg::{BandedMatrix, CholeskyDecomposition, Matrix, SparseRowMatrix, Vector};

use crate::Result;

/// Precomputed banded-path structures, built once per engine alongside
/// the dense operators (which remain the source of truth for the
/// mixture/bootstrap/fallback paths).
#[derive(Debug, Clone)]
pub(crate) struct BandedOperators {
    /// Roughness penalty `Ω` in banded storage (bandwidth 3).
    pub(crate) omega: BandedMatrix,
    /// Positivity collocation rows in sparse-row storage (≤ 4 nnz per
    /// row) with their zero right-hand side.
    pub(crate) positivity: Option<(SparseRowMatrix, Vector)>,
}

/// One Woodbury evaluation at a fixed λ: the equality-constrained
/// (positivity-unconstrained) minimizer plus the GCV ingredients.
#[derive(Debug, Clone)]
pub(crate) struct BandedSolution {
    /// The equality-constrained minimizer of the penalized criterion.
    pub(crate) alpha: Vector,
    /// Effective degrees of freedom `tr(B·K̃⁻¹·Bᵀ)` of the
    /// (equality-reduced) smoother.
    pub(crate) edf: f64,
    /// Weighted residual sum of squares `‖W(g − Aα)‖²`.
    pub(crate) rss: f64,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Iterative-refinement passes on every KKT solve. The raw Woodbury
/// apply loses ~ε_mach·‖S⁻¹‖ absolute accuracy to cancellation (the
/// ridge caps ‖S⁻¹‖ at 1/ridge, so the contraction factor is ~1e-7 per
/// pass at the default 1e-9 ridge); two passes reach dense-path
/// accuracy, the third is margin.
const REFINE_PASSES: usize = 3;

/// The factored Woodbury machinery for one λ: banded `S = λΩ + εI`,
/// the whitened design rows, the m×m capacitance factor, and (when
/// equality rows exist) the range-space blocks `K⁻¹Eᵀ` / `E·K⁻¹·Eᵀ`.
struct WoodburySolver<'a> {
    s: BandedMatrix,
    s_chol: cellsync_linalg::BandedCholesky,
    /// Rows of `B = W·A`.
    bt: Vec<Vec<f64>>,
    /// Rows of `Y = S⁻¹Bᵀ` (`yt[j] = S⁻¹bⱼ`).
    yt: Vec<Vec<f64>>,
    m_chol: CholeskyDecomposition,
    eq: Option<EqBlock<'a>>,
}

struct EqBlock<'a> {
    e: &'a Matrix,
    /// Columns of `T = K⁻¹Eᵀ` via push-through.
    kinv_et: Vec<Vec<f64>>,
    /// Factor of `C = E·K⁻¹·Eᵀ`.
    c_chol: CholeskyDecomposition,
}

impl<'a> WoodburySolver<'a> {
    fn build(
        design: &Matrix,
        weights: &[f64],
        equality: Option<&'a Matrix>,
        omega: &BandedMatrix,
        lambda: f64,
        ridge: f64,
    ) -> Result<Self> {
        let m = design.rows();
        let n = design.cols();

        // S = λΩ + εI, factored banded: O(n·b²).
        let mut s = BandedMatrix::zeros(n, omega.bandwidth())?;
        s.assign_scaled(lambda, omega)?;
        s.add_diagonal(ridge);
        let s_chol = s.cholesky()?;

        // Rows of B = W·A, and Y = S⁻¹Bᵀ row-wise: m banded solves.
        let bt: Vec<Vec<f64>> = (0..m)
            .map(|j| design.row(j).iter().map(|&a| weights[j] * a).collect())
            .collect();
        let mut yt = bt.clone();
        for row in &mut yt {
            s_chol.solve_slice_in_place(row);
        }

        // M = I + B·S⁻¹·Bᵀ (m×m, SPD). bᵢᵀS⁻¹bⱼ is symmetric exactly;
        // fill the upper triangle and mirror to keep it so in floating
        // point.
        let mut mmat = Matrix::zeros(m, m);
        for i in 0..m {
            for j in i..m {
                let v = dot(&bt[i], &yt[j]) + if i == j { 1.0 } else { 0.0 };
                mmat[(i, j)] = v;
                mmat[(j, i)] = v;
            }
        }
        let m_chol = CholeskyDecomposition::new(&mmat)?;

        let mut solver = WoodburySolver {
            s,
            s_chol,
            bt,
            yt,
            m_chol,
            eq: None,
        };
        if let Some(e) = equality {
            let k = e.rows();
            let mut kinv_et = Vec::with_capacity(k);
            for l in 0..k {
                kinv_et.push(solver.kinv_apply(e.row(l))?);
            }
            // C = E·K⁻¹·Eᵀ (k×k, SPD), symmetrized against accumulation
            // error before factoring.
            let c_raw = Matrix::from_fn(k, k, |a, b| dot(e.row(a), &kinv_et[b]));
            let c = Matrix::from_fn(k, k, |a, b| 0.5 * (c_raw[(a, b)] + c_raw[(b, a)]));
            let c_chol = CholeskyDecomposition::new(&c)?;
            solver.eq = Some(EqBlock { e, kinv_et, c_chol });
        }
        Ok(solver)
    }

    /// `K⁻¹r` through the Woodbury identity: one banded solve plus the
    /// m×m capacitance correction.
    fn kinv_apply(&self, r: &[f64]) -> Result<Vec<f64>> {
        let m = self.bt.len();
        let mut y = r.to_vec();
        self.s_chol.solve_slice_in_place(&mut y);
        let mut u = Vector::from_fn(m, |i| dot(&self.bt[i], &y));
        self.m_chol.solve_in_place(&mut u)?;
        for j in 0..m {
            let w = u[j];
            for (yi, yv) in y.iter_mut().zip(&self.yt[j]) {
                *yi -= w * yv;
            }
        }
        Ok(y)
    }

    /// One pass of the range-space KKT solve `Kα + Eᵀγ = r₁, Eα = r₂`.
    fn kkt_solve(&self, r1: &[f64], r2: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
        let mut alpha = self.kinv_apply(r1)?;
        let Some(eq) = &self.eq else {
            return Ok((alpha, Vec::new()));
        };
        let k = eq.e.rows();
        let mut gamma = Vector::from_fn(k, |l| dot(eq.e.row(l), &alpha) - r2[l]);
        eq.c_chol.solve_in_place(&mut gamma)?;
        for l in 0..k {
            let w = gamma[l];
            for (a, t) in alpha.iter_mut().zip(&eq.kinv_et[l]) {
                *a -= w * t;
            }
        }
        Ok((alpha, gamma.into_vec()))
    }

    /// `K·x` applied directly (`Sx + Bᵀ(Bx)`) — all O(1)-magnitude
    /// quantities, so the refinement residual is computed accurately.
    fn apply_k(&self, x: &[f64]) -> Result<Vec<f64>> {
        let xv = Vector::from_slice(x);
        let mut out = self.s.matvec(&xv)?.into_vec();
        for bj in &self.bt {
            let w = dot(bj, x);
            for (o, &b) in out.iter_mut().zip(bj) {
                *o += w * b;
            }
        }
        Ok(out)
    }

    /// The KKT solution of `Kα + Eᵀγ = b, Eα = 0`, polished by
    /// [`REFINE_PASSES`] rounds of iterative refinement. The refinement
    /// is what makes the split accurate: the raw Woodbury apply cancels
    /// two ~‖S⁻¹‖-sized vectors, but each pass contracts that error by
    /// the same ~ε_mach·‖S⁻¹‖ factor.
    fn solve_refined(&self, b: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
        let k = self.eq.as_ref().map_or(0, |eq| eq.e.rows());
        let (mut alpha, mut gamma) = self.kkt_solve(b, &vec![0.0; k])?;
        for _ in 0..REFINE_PASSES {
            let kx = self.apply_k(&alpha)?;
            let mut r1: Vec<f64> = b.iter().zip(&kx).map(|(bv, kv)| bv - kv).collect();
            let mut r2 = vec![0.0; k];
            if let Some(eq) = &self.eq {
                for l in 0..k {
                    let gl = gamma[l];
                    for (r, &ev) in r1.iter_mut().zip(eq.e.row(l)) {
                        *r -= gl * ev;
                    }
                    r2[l] = -dot(eq.e.row(l), &alpha);
                }
            }
            let (da, dg) = self.kkt_solve(&r1, &r2)?;
            for (a, d) in alpha.iter_mut().zip(&da) {
                *a += d;
            }
            for (g, d) in gamma.iter_mut().zip(&dg) {
                *g += d;
            }
        }
        Ok((alpha, gamma))
    }
}

/// Solves the penalized weighted least-squares problem at one λ through
/// the Woodbury factorization. `design` is the unweighted m×n design,
/// `equality` the stacked zero-rhs equality rows (if any).
pub(crate) fn evaluate(
    design: &Matrix,
    weights: &[f64],
    g: &[f64],
    equality: Option<&Matrix>,
    omega: &BandedMatrix,
    lambda: f64,
    ridge: f64,
) -> Result<BandedSolution> {
    let m = design.rows();
    let solver = WoodburySolver::build(design, weights, equality, omega, lambda, ridge)?;

    // α = P̃·Bᵀd with P̃ the equality-projected inverse and d = W·g.
    let d: Vec<f64> = (0..m).map(|i| weights[i] * g[i]).collect();
    let n = design.cols();
    let mut rhs = vec![0.0; n];
    for (bj, &dj) in solver.bt.iter().zip(&d) {
        for (r, &b) in rhs.iter_mut().zip(bj) {
            *r += dj * b;
        }
    }
    let (alpha, _) = solver.solve_refined(&rhs)?;

    // Weighted residual directly from the polished coefficients.
    let rss = solver
        .bt
        .iter()
        .zip(&d)
        .map(|(bj, &dj)| {
            let r = dj - dot(bj, &alpha);
            r * r
        })
        .sum();

    // edf = tr(B·P̃·Bᵀ) = Σⱼ bⱼᵀ·(P̃bⱼ): m refined KKT solves, each
    // O(n·(m + b)) once the factors exist.
    let mut edf = 0.0;
    for bj in &solver.bt {
        let (xj, _) = solver.solve_refined(bj)?;
        edf += dot(bj, &xj);
    }

    Ok(BandedSolution {
        alpha: Vector::from_slice(&alpha),
        edf,
        rss,
    })
}

/// The GCV score of one Woodbury evaluation — the same statistic (and
/// the same `edf/m > 0.99` saturation guard) as
/// [`crate::solver::SpectralPath::gcv_score`].
pub(crate) fn gcv_score(sol: &BandedSolution, m: usize) -> f64 {
    let mf = m as f64;
    let edf_ratio = sol.edf / mf;
    if edf_ratio > 0.99 {
        return f64::INFINITY;
    }
    let denom = 1.0 - edf_ratio;
    (sol.rss / mf) / (denom * denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small synthetic instance: random-ish dense design, banded Ω.
    fn instance(m: usize, n: usize) -> (Matrix, Vec<f64>, Vec<f64>, BandedMatrix, Matrix) {
        let design = Matrix::from_fn(m, n, |i, j| {
            0.3 + ((i * 7 + j * 13) % 11) as f64 / 11.0 + 0.05 * ((i + 2 * j) as f64).sin()
        });
        let weights: Vec<f64> = (0..m).map(|i| 1.0 + 0.1 * (i % 3) as f64).collect();
        let g: Vec<f64> = (0..m).map(|i| 2.0 + (i as f64 * 0.7).sin()).collect();
        let mut omega = BandedMatrix::zeros(n, 3).unwrap();
        for i in 0..n {
            omega.add_at(i, i, 6.0).unwrap();
            if i + 1 < n {
                omega.add_at(i, i + 1, -4.0).unwrap();
            }
            if i + 2 < n {
                omega.add_at(i, i + 2, 1.0).unwrap();
            }
        }
        let omega_dense = omega.to_dense();
        (design, weights, g, omega, omega_dense)
    }

    /// Direct dense reference: K = AᵀW²A + λΩ + εI, α = K⁻¹AᵀW²g,
    /// edf = tr(W·A·K̃⁻¹·Aᵀ·W) on the equality-reduced operator.
    fn dense_reference(
        design: &Matrix,
        weights: &[f64],
        g: &[f64],
        equality: Option<&Matrix>,
        omega_dense: &Matrix,
        lambda: f64,
        ridge: f64,
    ) -> (Vec<f64>, f64, f64) {
        let m = design.rows();
        let n = design.cols();
        let mut k = Matrix::zeros(n, n);
        design.weighted_gram_into(weights, &mut k).unwrap();
        for i in 0..n {
            for j in 0..n {
                k[(i, j)] += lambda * omega_dense[(i, j)];
            }
            k[(i, i)] += ridge;
        }
        let w2g = Vector::from_fn(m, |i| weights[i] * weights[i] * g[i]);
        let rhs = design.tr_matvec(&w2g).unwrap();
        let chol = k.cholesky().unwrap();
        let b = Matrix::from_fn(m, n, |i, j| weights[i] * design[(i, j)]);
        // Factored solves throughout (an explicit inverse would cost an
        // extra cond(K) factor of accuracy — the very thing under test).
        let mut alpha = chol.solve(&rhs).unwrap();
        let mut smoother = b
            .matmul(&chol.solve_matrix(&b.transpose()).unwrap())
            .unwrap();
        if let Some(e) = equality {
            let ket = chol.solve_matrix(&e.transpose()).unwrap();
            let c_raw = e.matmul(&ket).unwrap();
            let k_eq = e.rows();
            let c = Matrix::from_fn(k_eq, k_eq, |a, b| 0.5 * (c_raw[(a, b)] + c_raw[(b, a)]));
            let c_chol = c.cholesky().unwrap();
            let gamma = c_chol.solve(&e.matvec(&alpha).unwrap()).unwrap();
            alpha = &alpha - &ket.matvec(&gamma).unwrap();
            let p = b.matmul(&ket).unwrap();
            let corr = p
                .matmul(&c_chol.solve_matrix(&p.transpose()).unwrap())
                .unwrap();
            smoother = Matrix::from_fn(m, m, |i, j| smoother[(i, j)] - corr[(i, j)]);
        }
        let edf = (0..m).map(|i| smoother[(i, i)]).sum();
        let pred = design.matvec(&alpha).unwrap();
        let rss = (0..m)
            .map(|i| (weights[i] * (g[i] - pred[i])).powi(2))
            .sum();
        (alpha.into_vec(), edf, rss)
    }

    /// `‖Kα − b‖` for the dense mirror of K — the self-consistency
    /// check used where K is too ill-conditioned for cross-method
    /// α agreement.
    fn kkt_residual(
        design: &Matrix,
        weights: &[f64],
        g: &[f64],
        omega_dense: &Matrix,
        lambda: f64,
        ridge: f64,
        alpha: &Vector,
    ) -> (f64, f64) {
        let m = design.rows();
        let n = design.cols();
        let mut k = Matrix::zeros(n, n);
        design.weighted_gram_into(weights, &mut k).unwrap();
        for i in 0..n {
            for j in 0..n {
                k[(i, j)] += lambda * omega_dense[(i, j)];
            }
            k[(i, i)] += ridge;
        }
        let w2g = Vector::from_fn(m, |i| weights[i] * weights[i] * g[i]);
        let rhs = design.tr_matvec(&w2g).unwrap();
        let ka = k.matvec(alpha).unwrap();
        ((&ka - &rhs).norm2(), rhs.norm2())
    }

    #[test]
    fn woodbury_solution_satisfies_normal_equations() {
        // At tiny λ the ridge alone holds K's smallest eigenvalues, so
        // cross-method α comparison is meaningless (cond(K) ~ 1e9) —
        // but the refined Woodbury solve must still satisfy its own
        // normal equations to near machine precision.
        let (design, weights, g, omega, omega_dense) = instance(9, 60);
        for &lambda in &[1e-8, 1e-6, 1e-3, 1.0] {
            let sol = evaluate(&design, &weights, &g, None, &omega, lambda, 1e-9).unwrap();
            let (resid, scale) = kkt_residual(
                &design,
                &weights,
                &g,
                &omega_dense,
                lambda,
                1e-9,
                &sol.alpha,
            );
            assert!(
                resid <= 1e-10 * (1.0 + scale),
                "λ={lambda}: KKT residual {resid} vs rhs norm {scale}"
            );
        }
    }

    #[test]
    fn woodbury_matches_dense_unconstrained() {
        let (design, weights, g, omega, omega_dense) = instance(9, 60);
        for &lambda in &[1e-2, 1e-1, 1.0] {
            let sol = evaluate(&design, &weights, &g, None, &omega, lambda, 1e-9).unwrap();
            let (alpha_d, edf_d, rss_d) =
                dense_reference(&design, &weights, &g, None, &omega_dense, lambda, 1e-9);
            for (a, b) in sol.alpha.iter().zip(&alpha_d) {
                assert!((a - b).abs() < 1e-8, "λ={lambda}: α {a} vs {b}");
            }
            assert!((sol.edf - edf_d).abs() < 1e-8, "λ={lambda}: edf");
            assert!(
                (sol.rss - rss_d).abs() < 1e-8 * (1.0 + rss_d),
                "λ={lambda}: rss {} vs {}",
                sol.rss,
                rss_d
            );
        }
    }

    #[test]
    fn woodbury_matches_dense_with_equalities() {
        let (design, weights, g, omega, omega_dense) = instance(10, 48);
        let n = design.cols();
        let e = Matrix::from_fn(2, n, |r, j| match r {
            0 => 1.0 + 0.01 * j as f64,
            _ => ((j * 5) % 7) as f64 / 7.0 - 0.4,
        });
        for &lambda in &[1e-3, 3e-2, 0.5] {
            let sol = evaluate(&design, &weights, &g, Some(&e), &omega, lambda, 1e-9).unwrap();
            let (alpha_d, edf_d, rss_d) =
                dense_reference(&design, &weights, &g, Some(&e), &omega_dense, lambda, 1e-9);
            for (a, b) in sol.alpha.iter().zip(&alpha_d) {
                assert!((a - b).abs() < 1e-7, "λ={lambda}: α {a} vs {b}");
            }
            assert!((sol.edf - edf_d).abs() < 1e-7, "λ={lambda}: edf");
            assert!(
                (sol.rss - rss_d).abs() < 1e-7 * (1.0 + rss_d),
                "λ={lambda}: rss"
            );
            // The constraints hold exactly (to solve accuracy).
            let ea = e.matvec(&sol.alpha).unwrap();
            for v in ea.iter() {
                assert!(v.abs() < 1e-8, "equality residual {v}");
            }
        }
    }
}
