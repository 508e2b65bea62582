//! The banded solve path for large basis sizes.
//!
//! In the natural cubic B-spline basis the penalty `Ω` is banded
//! (bandwidth 3) and the measurement count m is tiny, so each λ of the
//! GCV scan is evaluated in the m-dimensional measurement space instead
//! of factoring the dense n×n normal matrix.
//!
//! `Ω` annihilates exactly `span{1, ξ}` (ξ the Greville coordinates of
//! the linear profile, [`cellsync_spline::SplineBasis::greville`]).
//! Pinning the two end coefficients splits
//! `α = N·c + (0, β, 0)` with `N = [ℓ₀, ℓ₁]` their linear interpolants
//! (`ℓ₁ = (ξ − ξ₀)/(ξ_{n−1} − ξ₀)`, `ℓ₀ = 1 − ℓ₁`), so `αᵀΩα = βᵀΩ_rrβ`
//! and `S = λΩ_rr + εI` on the interior is positive definite without the
//! ridge. The ridge stays in the problem exactly: its cross terms with
//! `c` join the border. With `B = W·A`, `d = W·g`, `B_r` the interior
//! columns, `U = [εN_r, E_rᵀ]` and the border `z = (c, γ)` (null
//! coordinates and the multipliers of k equality rows `Eα = 0`):
//!
//! ```text
//! M   = I + B_r S⁻¹ B_rᵀ                                     (m × m)
//! Ĝ   = [B·N, 0] − B_r S⁻¹ U                                 (m × q, q = 2 + k)
//! 𝒮   = Ĝᵀ M⁻¹ Ĝ + [[εNᵀN, (EN)ᵀ], [EN, 0]] − Uᵀ S⁻¹ U       (q × q)
//! z   = 𝒮⁻¹ Ĝᵀ M⁻¹ d,     r = M⁻¹(d − Ĝz)           (r = d − Bα)
//! edf = m − tr M⁻¹ + tr(𝒮⁻¹ Ĝᵀ M⁻² Ĝ),     β = S⁻¹(B_rᵀr − Uz)
//! ```
//!
//! With `S = LLᵀ`, one forward solve of the block `L⁻¹[B_rᵀ, U]` and its
//! Gram give every `S⁻¹` product, so a λ costs one banded factor,
//! O(n·(m + q)²) and an O(m³) Cholesky, with no coefficient vector and
//! no subtraction of `‖S⁻¹‖`-sized terms. α is assembled once, at the
//! selected λ, then polished by iterative refinement. This is the exact
//! block elimination of the dense engine's equality-reduced normal
//! equations, so both paths agree to rounding (pinned at 1e-8 by the
//! differential suite); `docs/SOLVER.md` §9 derives it.
//!
//! Positivity is resolved by convexity: if the equality-constrained
//! minimizer already satisfies the positivity grid, it is the constrained
//! optimum (all inequality multipliers zero); otherwise the engine falls
//! back to the dense active-set QP for that single fit.

use cellsync_linalg::{
    BandedCholesky, BandedMatrix, CholeskyDecomposition, LuDecomposition, Matrix, SparseRowMatrix,
    Vector,
};

use crate::{DeconvolutionConfig, Result};

/// Precomputed banded-path structures, built once per engine.
#[derive(Debug, Clone)]
pub(crate) struct BandedOperators {
    /// `Ω_rr`: the penalty on the interior coefficients `1..n−1`.
    omega_interior: BandedMatrix,
    /// Interior rows of the null basis `N = [ℓ₀, ℓ₁]`.
    null_interior: [Vec<f64>; 2],
    /// Positivity collocation rows in sparse-row storage (≤ 4 nnz per
    /// row) with their zero right-hand side.
    pub(crate) positivity: Option<(SparseRowMatrix, Vector)>,
}

impl BandedOperators {
    /// Splits the banded penalty of a natural B-spline basis with
    /// Greville coordinates `greville`.
    pub(crate) fn new(
        omega: &BandedMatrix,
        greville: &[f64],
        positivity: Option<(SparseRowMatrix, Vector)>,
    ) -> Result<Self> {
        let (n, bw) = (omega.dim(), omega.bandwidth());
        let mut omega_interior = BandedMatrix::zeros(n - 2, bw)?;
        for i in 1..n - 1 {
            for j in i.saturating_sub(bw).max(1)..=i {
                omega_interior.set(i - 1, j - 1, omega.get(i, j))?;
            }
        }
        let (lo, hi) = (greville[0], greville[n - 1]);
        let l1: Vec<f64> = greville[1..n - 1]
            .iter()
            .map(|&x| (x - lo) / (hi - lo))
            .collect();
        let l0 = l1.iter().map(|v| 1.0 - v).collect();
        Ok(BandedOperators {
            omega_interior,
            null_interior: [l0, l1],
            positivity,
        })
    }
}

/// `aᵀb`, summed in index order.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One series on the banded path: whitened design and data plus the
/// λ-independent border blocks.
pub(crate) struct BandedFit<'a> {
    ops: &'a BandedOperators,
    /// `B = W·A` (m × n).
    b: Matrix,
    /// `d = W·g`.
    d: Vector,
    /// `G = [B·N, 0]` (m × q).
    g0: Matrix,
    /// `[B_rᵀ, U]` with `U = [εN_r, E_rᵀ]`, (n − 2) × (m + q).
    block: Matrix,
    /// `D₀ = [[εNᵀN, (EN)ᵀ], [EN, 0]]`.
    d0: Matrix,
}

/// Iterative-refinement corrections [`BandedFit::solve`] may spend on
/// one α.
const MAX_POLISH: usize = 4;

/// The residual of the bordered normal equations at one `(β, z)`, with
/// the pieces a correction reuses.
struct Residual {
    /// `e = d − Bα`.
    e: Vector,
    rho_beta: Vector,
    /// `Uᵀβ`.
    u_beta: Vector,
    /// `‖(ρ_β, ρ_z)‖₂`.
    norm: f64,
}

/// The factors, residual and border solution at one λ.
pub(crate) struct Evaluation {
    s_chol: BandedCholesky,
    m_chol: CholeskyDecomposition,
    schur: LuDecomposition,
    r: Vector,
    z: Vector,
    /// Effective degrees of freedom of the (equality-reduced) smoother.
    pub(crate) edf: f64,
    /// Weighted residual sum of squares `‖W(g − Aα)‖²`.
    pub(crate) rss: f64,
}

/// `(x, −z)` stacked: `block·(x, −z) = B_rᵀx − U·z`.
fn stack(x: &Vector, z: &Vector) -> Vector {
    Vector::from_fn(x.len() + z.len(), |i| {
        x.as_slice()
            .get(i)
            .copied()
            .unwrap_or_else(|| -z[i - x.len()])
    })
}

impl<'a> BandedFit<'a> {
    /// `design` is the unweighted m×n design, `equality` the stacked
    /// zero-rhs equality rows (if any).
    pub(crate) fn new(
        ops: &'a BandedOperators,
        design: &Matrix,
        weights: &[f64],
        g: &[f64],
        equality: Option<&Matrix>,
    ) -> Self {
        let ridge = DeconvolutionConfig::RIDGE;
        let (m, n) = design.shape();
        let b = Matrix::from_fn(m, n, |i, j| weights[i] * design[(i, j)]);
        let eq: Vec<&[f64]> =
            equality.map_or(Vec::new(), |e| (0..e.rows()).map(|l| e.row(l)).collect());
        let q = 2 + eq.len();
        // `v·N` for a full-length row v: N is the identity at the ends.
        let null = &ops.null_interior;
        let times_null = |v: &[f64], a: usize| v[a * (n - 1)] + dot(&v[1..n - 1], &null[a]);
        let block = Matrix::from_fn(n - 2, m + q, |j, c| match c {
            c if c < m => b[(c, j + 1)],
            c if c < m + 2 => ridge * null[c - m][j],
            c => eq[c - m - 2][j + 1],
        });
        let d0 = Matrix::from_fn(q, q, |x, y| match (x.min(y), x.max(y)) {
            (a, c) if c < 2 => ridge * (f64::from(u8::from(a == c)) + dot(&null[a], &null[c])),
            (a, l) if a < 2 => times_null(eq[l - 2], a),
            _ => 0.0,
        });
        BandedFit {
            ops,
            g0: Matrix::from_fn(
                m,
                q,
                |i, a| if a < 2 { times_null(b.row(i), a) } else { 0.0 },
            ),
            d: Vector::from_fn(m, |i| weights[i] * g[i]),
            b,
            block,
            d0,
        }
    }

    /// Factors everything at one λ and solves for the residual, the
    /// border unknowns and the edf.
    pub(crate) fn evaluate(&self, lambda: f64) -> Result<Evaluation> {
        let (m, q) = (self.b.rows(), self.d0.rows());
        let mut s = BandedMatrix::zeros(self.block.rows(), self.ops.omega_interior.bandwidth())?;
        s.assign_scaled(lambda, &self.ops.omega_interior)?;
        s.add_diagonal(DeconvolutionConfig::RIDGE);
        let s_chol = s.cholesky()?;
        // Y = L⁻¹[B_rᵀ, U]; its Gram holds B_rS⁻¹B_rᵀ, B_rS⁻¹U and UᵀS⁻¹U.
        let mut y = self.block.clone();
        s_chol.forward_solve_block(y.as_mut_slice(), m + q);
        let gram = y.gram();

        let mmat = Matrix::from_fn(m, m, |i, j| gram[(i, j)] + f64::from(u8::from(i == j)));
        let m_chol = CholeskyDecomposition::new(&mmat)?;
        let ghat = Matrix::from_fn(m, q, |i, a| self.g0[(i, a)] - gram[(i, m + a)]);
        let v = m_chol.solve_matrix(&ghat)?;
        let raw = ghat.transpose().matmul(&v)?;
        let schur = Matrix::from_fn(q, q, |a, c| {
            0.5 * (raw[(a, c)] + raw[(c, a)]) + self.d0[(a, c)] - gram[(m + a, m + c)]
        })
        .lu()?;

        let w = m_chol.solve(&self.d)?;
        let z = schur.solve(&ghat.tr_matvec(&w)?)?;
        let r = &w - &v.matvec(&z)?;
        // tr M⁻¹ = ‖L_M⁻¹‖²_F, one unit forward solve per column.
        let mut tr_minv = 0.0;
        for i in 0..m {
            let mut e = Vector::from_fn(m, |j| f64::from(u8::from(i == j)));
            m_chol.forward_solve_in_place(&mut e)?;
            tr_minv += dot(e.as_slice(), e.as_slice());
        }
        let vtv = v.transpose().matmul(&v)?;
        let edf = m as f64 - tr_minv + schur.solve_matrix(&vtv)?.trace()?;
        Ok(Evaluation {
            s_chol,
            m_chol,
            schur,
            rss: dot(r.as_slice(), r.as_slice()),
            r,
            z,
            edf,
        })
    }

    /// The GCV score at one λ — the same statistic (and the same
    /// `edf/m > 0.99` saturation guard) as
    /// [`crate::solver::SpectralPath::gcv_score`].
    pub(crate) fn gcv_score(&self, lambda: f64) -> Result<f64> {
        let ev = self.evaluate(lambda)?;
        let mf = self.b.rows() as f64;
        let edf_ratio = ev.edf / mf;
        if edf_ratio > 0.99 {
            return Ok(f64::INFINITY);
        }
        let denom = 1.0 - edf_ratio;
        Ok((ev.rss / mf) / (denom * denom))
    }

    /// The equality-constrained (positivity-unconstrained) minimizer at
    /// `lambda`: `β = S⁻¹(B_rᵀr − Uz)`, polished by iterative refinement,
    /// then `α = N·c + (0, β, 0)`.
    ///
    /// One correction reaches rounding level unless λ is tiny against
    /// the ridge. There the Woodbury correction is itself only a few
    /// digits accurate and the refinement contracts slowly and not
    /// monotonically, so up to [`MAX_POLISH`] corrections run (stopping
    /// once the residual is at rounding level) and the iterate with the
    /// smallest residual is kept.
    pub(crate) fn solve(&self, lambda: f64) -> Result<Vector> {
        let ev = self.evaluate(lambda)?;
        let mut beta = self.block.matvec(&stack(&ev.r, &ev.z))?;
        ev.s_chol.solve_in_place(&mut beta)?;
        let mut z = ev.z.clone();
        let mut res = self.residual(lambda, &beta, &z)?;
        let floor = 1e-14
            * (self
                .block
                .matvec(&stack(&self.d, &Vector::zeros(z.len())))?
                .norm2()
                + self.g0.tr_matvec(&self.d)?.norm2());
        let mut best = (res.norm, self.assemble(&beta, &z));
        for _ in 0..MAX_POLISH {
            if res.norm <= floor {
                break;
            }
            (beta, z) = self.correct(&ev, &res, &beta, &z)?;
            res = self.residual(lambda, &beta, &z)?;
            if res.norm < best.0 {
                best = (res.norm, self.assemble(&beta, &z));
            }
        }
        Ok(best.1)
    }

    fn assemble(&self, beta: &Vector, z: &Vector) -> Vector {
        let n = beta.len() + 2;
        let [l0, l1] = &self.ops.null_interior;
        Vector::from_fn(n, |j| match j {
            0 => z[0],
            j if j == n - 1 => z[1],
            j => beta[j - 1] + z[0] * l0[j - 1] + z[1] * l1[j - 1],
        })
    }

    /// The residual of the bordered normal equations
    /// `[[K_r, W], [Wᵀ, D]]·(β, z) = (B_rᵀd, Gᵀd)` at `(β, z)`, with
    /// `K_r = S + B_rᵀB_r`, `W = U + B_rᵀG` and `D = D₀ + GᵀG`:
    /// `ρ_β = B_rᵀe − Uz − Sβ` and `ρ_z = Gᵀe − Uᵀβ − D₀z`, formed from
    /// `e = d − Bα`. At small λ, `S⁻¹B_rᵀ` amplifies the rounding of `r`
    /// into β; this residual is accurate, and the same factors solve for
    /// the correction ([`BandedFit::correct`]).
    fn residual(&self, lambda: f64, beta: &Vector, z: &Vector) -> Result<Residual> {
        let m = self.b.rows();
        let e = &self.d - &self.b.matvec(&self.assemble(beta, z))?;
        let s_beta = self.ops.omega_interior.matvec(beta)?;
        let rho_beta = &self.block.matvec(&stack(&e, z))?
            - &(&s_beta.scaled(lambda) + &beta.scaled(DeconvolutionConfig::RIDGE));
        // blockᵀ·β = (B_r·β, Uᵀ·β).
        let blk_beta = self.block.tr_matvec(beta)?;
        let u_beta = Vector::from_fn(z.len(), |a| blk_beta[m + a]);
        let rho_z = &(&self.g0.tr_matvec(&e)? - &self.d0.matvec(z)?) - &u_beta;
        let norm = (dot(rho_beta.as_slice(), rho_beta.as_slice())
            + dot(rho_z.as_slice(), rho_z.as_slice()))
        .sqrt();
        Ok(Residual {
            e,
            rho_beta,
            u_beta,
            norm,
        })
    }

    /// One step of iterative refinement: `δz = 𝒮⁻¹(ρ_z − Wᵀ·K_r⁻¹ρ_β)`
    /// and `δβ = K_r⁻¹(ρ_β − W·δz)`, returning `(β + δβ, z + δz)`.
    fn correct(
        &self,
        ev: &Evaluation,
        res: &Residual,
        beta: &Vector,
        z: &Vector,
    ) -> Result<(Vector, Vector)> {
        let m = self.b.rows();
        let t = self.kr_solve(ev, &res.rho_beta)?;
        // blockᵀ·t = (B_r·t, Uᵀ·t); ρ_z − Wᵀt is formed from e − B_r·t,
        // which keeps the cancellation inside one residual.
        let blk_t = self.block.tr_matvec(&t)?;
        let e_t = Vector::from_fn(m, |i| res.e[i] - blk_t[i]);
        let rho_z = &(&self.g0.tr_matvec(&e_t)? - &self.d0.matvec(z)?)
            - &Vector::from_fn(z.len(), |a| res.u_beta[a] + blk_t[m + a]);
        let dz = ev.schur.solve(&rho_z)?;
        let v = &res.rho_beta + &self.block.matvec(&stack(&-&self.g0.matvec(&dz)?, &dz))?;
        Ok((beta + &self.kr_solve(ev, &v)?, z + &dz))
    }

    /// `K_r⁻¹v = S⁻¹(v − B_rᵀ·M⁻¹·B_r·S⁻¹v)` (Woodbury). The subtraction
    /// cancels at small λ, so it only ever solves for a correction.
    fn kr_solve(&self, ev: &Evaluation, v: &Vector) -> Result<Vector> {
        let m = self.b.rows();
        let t = ev.s_chol.solve(v)?;
        let bt = self.block.tr_matvec(&t)?;
        let p = ev.m_chol.solve(&Vector::from_fn(m, |i| bt[i]))?;
        let zeros = Vector::zeros(self.d0.rows());
        let mut out = v - &self.block.matvec(&stack(&p, &zeros))?;
        ev.s_chol.solve_in_place(&mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsync_spline::SplineBasis;

    /// A small synthetic instance: random-ish dense design and the
    /// natural B-spline penalty with its exact null space.
    fn instance(m: usize, n: usize) -> (Matrix, Vec<f64>, Vec<f64>, BandedOperators, Matrix) {
        let design = Matrix::from_fn(m, n, |i, j| {
            0.3 + ((i * 7 + j * 13) % 11) as f64 / 11.0 + 0.05 * ((i + 2 * j) as f64).sin()
        });
        let weights: Vec<f64> = (0..m).map(|i| 1.0 + 0.1 * (i % 3) as f64).collect();
        let g: Vec<f64> = (0..m).map(|i| 2.0 + (i as f64 * 0.7).sin()).collect();
        let basis = SplineBasis::uniform(n, 0.0, 1.0).unwrap();
        let omega = basis.penalty();
        let ops = BandedOperators::new(&omega, &basis.greville(), None).unwrap();
        (design, weights, g, ops, omega.to_dense())
    }

    /// The equality-constrained minimizer, edf and RSS at one λ.
    fn evaluate(
        ops: &BandedOperators,
        design: &Matrix,
        weights: &[f64],
        g: &[f64],
        equality: Option<&Matrix>,
        lambda: f64,
    ) -> (Vector, f64, f64) {
        let fit = BandedFit::new(ops, design, weights, g, equality);
        let ev = fit.evaluate(lambda).unwrap();
        (fit.solve(lambda).unwrap(), ev.edf, ev.rss)
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
        // but the polished solve must still satisfy the normal equations
        // to near machine precision.
        let (design, weights, g, ops, omega_dense) = instance(9, 60);
        for &lambda in &[1e-8, 1e-6, 1e-3, 1.0] {
            let (alpha, _, _) = evaluate(&ops, &design, &weights, &g, None, lambda);
            let (resid, scale) =
                kkt_residual(&design, &weights, &g, &omega_dense, lambda, 1e-9, &alpha);
            assert!(
                resid <= 1e-10 * (1.0 + scale),
                "λ={lambda}: KKT residual {resid} vs rhs norm {scale}"
            );
        }
    }

    #[test]
    fn woodbury_matches_dense_unconstrained() {
        let (design, weights, g, ops, omega_dense) = instance(9, 60);
        for &lambda in &[1e-2, 1e-1, 1.0] {
            let (alpha, edf, rss) = evaluate(&ops, &design, &weights, &g, None, lambda);
            let (alpha_d, edf_d, rss_d) =
                dense_reference(&design, &weights, &g, None, &omega_dense, lambda, 1e-9);
            for (a, b) in alpha.iter().zip(&alpha_d) {
                assert!((a - b).abs() < 1e-8, "λ={lambda}: α {a} vs {b}");
            }
            assert!((edf - edf_d).abs() < 1e-8, "λ={lambda}: edf");
            assert!(
                (rss - rss_d).abs() < 1e-8 * (1.0 + rss_d),
                "λ={lambda}: rss {} vs {}",
                rss,
                rss_d
            );
        }
    }

    #[test]
    fn woodbury_matches_dense_with_equalities() {
        let (design, weights, g, ops, omega_dense) = instance(10, 48);
        let n = design.cols();
        let e = Matrix::from_fn(2, n, |r, j| match r {
            0 => 1.0 + 0.01 * j as f64,
            _ => ((j * 5) % 7) as f64 / 7.0 - 0.4,
        });
        for &lambda in &[1e-3, 3e-2, 0.5] {
            let (alpha, edf, rss) = evaluate(&ops, &design, &weights, &g, Some(&e), lambda);
            let (alpha_d, edf_d, rss_d) =
                dense_reference(&design, &weights, &g, Some(&e), &omega_dense, lambda, 1e-9);
            for (a, b) in alpha.iter().zip(&alpha_d) {
                assert!((a - b).abs() < 1e-7, "λ={lambda}: α {a} vs {b}");
            }
            assert!((edf - edf_d).abs() < 1e-7, "λ={lambda}: edf");
            assert!(
                (rss - rss_d).abs() < 1e-7 * (1.0 + rss_d),
                "λ={lambda}: rss"
            );
            // The constraints hold exactly (to solve accuracy).
            let ea = e.matvec(&alpha).unwrap();
            for v in ea.iter() {
                assert!(v.abs() < 1e-8, "equality residual {v}");
            }
        }
    }
}
