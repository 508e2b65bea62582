//! The one λ scan and the one fixed-λ minimizer of paper eq. 5, at every
//! basis size and for mixtures.
//!
//! `Ω` annihilates exactly `span{1, ξ}` (ξ the Greville coordinates of
//! the linear profile, [`cellsync_spline::SplineBasis::greville`]).
//! Pinning each block's two end coefficients splits
//! `α = N·c + (0, β, 0)` with `N = [ℓ₀, ℓ₁]` their linear interpolants
//! (`ℓ₁ = (ξ − ξ₀)/(ξ_{n−1} − ξ₀)`, `ℓ₀ = 1 − ℓ₁`), so `αᵀΩα = βᵀΩ_rrβ`
//! with `Ω_rr` the positive definite interior block. A K-component
//! mixture stacks K such blocks: `Ω_rr = blockdiag(Ω_rrᵏ)` and `c` holds
//! 2K end coefficients. The criterion is
//!
//! ```text
//! ‖W(g − Aα)‖² + λ̄·βᵀΩ_rrβ + ε·cᵀ(NᵀN)c,   λ̄ = max(λ, ε),  Eα = 0
//! ```
//!
//! The ridge ε ([`DeconvolutionConfig::RIDGE`]) acts on the null
//! coordinates only, so `S = λ̄Ω_rr` and λ factors out of every interior
//! product. With `B = W·A`, `d = W·g`, `B_r` the interior columns, the
//! border `z = (c, γ)` (null coordinates and the multipliers of k
//! equality rows) and `U = [0, E_rᵀ]`, block elimination gives
//!
//! ```text
//! M   = I + B_r S⁻¹ B_rᵀ = V·diag(1/s)·Vᵀ,   s = λ̄/(λ̄ + γ)      (m × m)
//! Ĝ   = [B·N, 0] − B_r S⁻¹ U                                    (m × q)
//! 𝒮   = Ĝᵀ M⁻¹ Ĝ + [[εNᵀN, (EN)ᵀ], [EN, 0]] − Uᵀ S⁻¹ U          (q × q)
//! z   = 𝒮⁻¹ Ĝᵀ M⁻¹ d,     r = M⁻¹(d − Ĝz)           (r = d − Bα)
//! edf = m − tr M⁻¹ + tr(𝒮⁻¹ Ĝᵀ M⁻² Ĝ),     β = S⁻¹(B_rᵀr − Uz)
//! ```
//!
//! where `VΓVᵀ = W·K₀·W` and `K₀ = A_rΩ_rr⁻¹A_rᵀ = RᵀR`
//! (`L⁻¹[A_rᵀ, E_rᵀ] = Q·[[R, f], [0, f₂]]`, `Ω_rr = LLᵀ`). Scaling the
//! multiplier columns by `−λ̄` turns `Ĝ` into `W·C₀` with the
//! λ-independent border `C₀ = [A·N, A_rΩ_rr⁻¹E_rᵀ] = [A·N, Rᵀf]`, and
//! `Uᵀ S⁻¹ U` into `λ̄·J₀` with `J₀ = E_rΩ_rr⁻¹E_rᵀ = fᵀf + f₂ᵀf₂`. So
//! the engine factors `Ω_rr` (banded) once and forms `R`, `A·N`, `f` and
//! `f₂ᵀf₂` once ([`Frame`]); a series eigendecomposes its `m × m` matrix
//! `W·K₀·W` once (on its small side: a symmetric eigendecomposition of
//! `R·W²·Rᵀ` refined by one-sided Jacobi on the rows of `R·W`, so the
//! small eigenvalues do not inherit the squared conditioning of the
//! formed product) and projects its data and border onto `V`
//! ([`Spectrum`], the engine's own for unit weights); and every
//! λ then costs O(m·q² + q³) ([`Frame::gcv_score`]). The multiplier
//! block of `𝒮`, `Σ sᵢC̃ᵢC̃ᵢᵀ − λ̄J₀`, is formed as the equal
//! `−λ̄(Σ sᵢf̂ᵢf̂ᵢᵀ + J_rest)` (`W·Rᵀf` has coordinates `σᵢf̂ᵢ` in the
//! basis), because its two O(λ̄) terms cancel to O(λ̄²/γ).
//!
//! The minimizer at the selected λ comes from the same eigenbasis in
//! closed form ([`Frame::minimizer`]): with `B = R·W = Σ σᵢuᵢvᵢᵀ`,
//! `tᵢ = vᵢᵀd − C̃ᵢ·z` the data less the border and `z = (c, z′)` the
//! scaled border solution,
//!
//! ```text
//! β = L⁻ᵀ(Q₁·Σᵢ uᵢσᵢtᵢ/(λ̄ + γᵢ) + L⁻¹E_rᵀz′),   α = N·c + (0, β, 0)
//! ```
//!
//! over the eigen rows only. Nothing is divided by λ̄
//! (`σ/(λ̄ + σ²) ≤ 1/(2√λ̄)`), so no refinement follows; one projection
//! in the `Ω_rr` metric removes the rounding the multipliers carry into
//! `E·α`. `docs/SOLVER.md` derives all of it.

use cellsync_linalg::{
    BandedCholesky, BandedMatrix, CholeskyDecomposition, LuDecomposition, Matrix, QrDecomposition,
    SymmetricEigen, Vector,
};

use crate::{DeconvError, DeconvolutionConfig, Result};

pub(crate) use cellsync_linalg::dot;

/// The smoothing weight the criterion applies: `λ̄ = max(λ, ε)`, which
/// keeps `Fixed(0)` and a λ = 0 override well posed.
pub(crate) fn floored(lambda: f64) -> f64 {
    lambda.max(DeconvolutionConfig::RIDGE)
}

/// The engine's λ-independent frame: the factor of the interior
/// penalty, the null basis, the measurement-space operators `R`,
/// `A·N`, `f`, `E·N` and `f₂ᵀf₂`, and what the minimizer lifts through
/// (`Q₁`, `L⁻¹E_rᵀ`, the factor of `J₀`), built once per engine.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// Coefficients per block.
    n: usize,
    /// Number of blocks K (1 for a single population).
    blocks: usize,
    /// Number of equality rows k.
    k: usize,
    /// Banded Cholesky factor `L` of `Ω_rr = blockdiag(Ω_rrᵏ)` over the
    /// `K(n − 2)` interior coefficients.
    omega_chol: BandedCholesky,
    /// `ℓ₀`, `ℓ₁` over one block's interior.
    null_interior: [Vec<f64>; 2],
    /// `NᵀN` of one block.
    null_gram: [[f64; 2]; 2],
    /// `R` (`rows × m` row-major, `rows = min(K(n − 2), m)`), the
    /// triangular factor of `L⁻¹A_rᵀ = QR`, so that
    /// `K₀ = A_rΩ_rr⁻¹A_rᵀ = RᵀR` without ever forming `K₀`.
    root: Vec<f64>,
    /// Rows of `R`.
    rows: usize,
    /// `A·N`, the null columns of `C₀` (`m × 2K` row-major).
    border: Vec<f64>,
    /// `f = Q₁ᵀL⁻¹E_rᵀ` (`rows × k` row-major): `A_rΩ_rr⁻¹E_rᵀ = Rᵀf`.
    eq_root: Vec<f64>,
    /// `f₂ᵀf₂ = J₀ − fᵀf`, the part of `J₀` the data cannot see
    /// (`k × k` row-major; zero when `K(n − 2) ≤ m`).
    eq_rest: Vec<f64>,
    /// `E·N`, `k × 2K` row-major.
    en: Vec<f64>,
    /// `Q₁` of `L⁻¹A_rᵀ = Q₁R` (`K(n − 2) × rows` row-major).
    q1: Vec<f64>,
    /// `F = L⁻¹E_rᵀ` (`K(n − 2) × k` row-major).
    eq_white: Vec<f64>,
    /// The Cholesky factor of `J₀ = FᵀF = E_rΩ_rr⁻¹E_rᵀ`; `None`
    /// without equality rows.
    j0: Option<CholeskyDecomposition>,
    /// The spectrum of unit weights, shared by every unit-weight series.
    pub(crate) unit: Spectrum,
}

/// The eigenbasis of one weight vector. `W·K₀·W = BᵀB` with
/// `B = R·W = U·diag(σ)·V` has rank `r ≤ min(K(n − 2), m)`:
/// `W·K₀·W = Vᵀdiag(γ)V` (`γ = σ²`) over the `r` rows of `V`
/// (eigenvectors with `γ > 0`), completed to an orthonormal basis of ℝᵐ
/// by `m − r` null vectors (`γ = 0`, `s = 1`): the trailing columns of
/// the Householder `Q` of `Vᵀ = QR`, kept as its reflectors. Every vector
/// `x` the scan reads is held in that basis. A σ-weighted series rebuilds
/// it in place ([`Spectrum::rebuild`]), reusing every buffer, so a genome
/// of weighted series allocates nothing per gene for it; the [`Default`]
/// value is empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct Spectrum {
    /// Measurement count m and border size q.
    m: usize,
    q: usize,
    /// `γ` per basis vector: the `r` eigenvalues, then `m − r` zeros.
    gamma: Vec<f64>,
    /// `V`, `r × m` row-major.
    vt: Vec<f64>,
    /// The Householder reflectors of `Vᵀ = QR` (`m × r` column-major, as
    /// [`QrDecomposition::factor_in_place`] leaves them) and their
    /// scales; empty at full rank.
    reflectors: Vec<f64>,
    tau: Vec<f64>,
    /// The projected border `C₀` in the basis, `m × q` row-major,
    /// followed by `Σ C̃ᵢC̃ᵢᵀ` over the null rows (where `s = 1` at every
    /// λ) as a packed lower triangle.
    border: Vec<f64>,
    /// `(f̂ᵢ, uᵢ)` per eigen row (`r × (k + rows)`): `f̂ = Uᵀf`, so the
    /// multiplier columns of the border are `σᵢf̂ᵢ` there and zero on the
    /// null rows, and `uᵢ` the left singular vector of `B` the minimizer
    /// lifts through.
    left: Vec<f64>,
    /// `J_rest = f₂ᵀf₂ + Σ f̂ᵢf̂ᵢᵀ` over the rows dropped as null (`k × k`).
    rest: Vec<f64>,
    /// Rank r: the eigen rows before the null rows.
    rank: usize,
    /// `B = R·W`, then `U₀ᵀB` orthogonalized in place (`rows × m`).
    b: Vec<f64>,
    /// `BBᵀ`, then its eigenvectors (`rows × rows`).
    gram: Vec<f64>,
    /// Eigensolver and Jacobi scratch (`rows`).
    work: Vec<f64>,
    /// One border column on its way into the basis (`m + r`).
    column: Vec<f64>,
}

/// Per-λ scratch of the scan and the minimizer: shrink factors, the
/// residual in the eigenbasis, the factored `q × q` border system and
/// the minimizer's vectors.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanScratch {
    /// `s = λ̄/(λ̄ + γ)`.
    s: Vec<f64>,
    /// `Vᵀr = s ⊙ (Vᵀd − Vᵀ·W·C₀·z′)`.
    resid: Vec<f64>,
    /// LU factors of the scaled border system `𝒮′`.
    schur: Vec<f64>,
    /// Row pivots of `schur`.
    pivots: Vec<usize>,
    /// `C₀ᵀW·M⁻²·W·C₀`.
    q2: Vec<f64>,
    /// The scaled border solution `z′` (multipliers times `−1/λ̄`).
    z: Vec<f64>,
    /// Column scratch of the edf trace.
    x: Vec<f64>,
    /// `y = Σ uᵢσᵢtᵢ/(λ̄ + γᵢ)` (rows).
    y: Vec<f64>,
    /// `β`, built as `η = Q₁y + L⁻¹E_rᵀz′` (`K(n − 2)`).
    beta: Vec<f64>,
    /// The equality projection: `E·α`, then `J₀⁻¹E·α` (k).
    eq: Vector,
    /// The projection step `L⁻ᵀ·L⁻¹E_rᵀ·J₀⁻¹E·α` (`K(n − 2)`).
    step: Vec<f64>,
}

/// One series on a [`Frame`]: the problem's equality rows, the fit's
/// weights and data, and its spectrum with the projected data
/// `Vᵀ·W·g`. A k-fold training fold is the fit with zero weight on its
/// held-out rows.
pub(crate) struct Series<'a> {
    pub(crate) equality: Option<&'a Matrix>,
    pub(crate) weights: &'a [f64],
    pub(crate) g: &'a [f64],
    pub(crate) spectrum: &'a Spectrum,
    pub(crate) proj: &'a [f64],
}

impl Frame {
    /// Builds the frame of `design` (`m × Kn`, K blocks of the basis with
    /// Greville abscissae `greville`), the banded penalty `omega`
    /// (`blockdiag(Ωₖ)`) and the stacked equality rows.
    pub(crate) fn new(
        design: &Matrix,
        omega: &BandedMatrix,
        equality: Option<&Matrix>,
        greville: &[f64],
    ) -> Result<Self> {
        let (m, total) = design.shape();
        let n = greville.len();
        let (blocks, nr) = (total / n, n - 2);
        let interior = blocks * nr;
        let bw = omega.bandwidth().min(interior - 1);
        let coef = |p: usize| (p / nr) * n + 1 + p % nr;
        let mut omega_rr = BandedMatrix::zeros(interior, bw)?;
        for p in 0..interior {
            for p2 in p.saturating_sub(bw)..=p {
                let v = omega.get(coef(p), coef(p2));
                if v != 0.0 {
                    omega_rr.set(p, p2, v)?;
                }
            }
        }
        let omega_chol = omega_rr.cholesky()?;
        let (lo, hi) = (greville[0], greville[n - 1]);
        let l1: Vec<f64> = greville[1..n - 1]
            .iter()
            .map(|&x| (x - lo) / (hi - lo))
            .collect();
        let l0: Vec<f64> = l1.iter().map(|v| 1.0 - v).collect();
        let off = dot(&l0, &l1);
        let null_gram = [[1.0 + dot(&l0, &l0), off], [off, 1.0 + dot(&l1, &l1)]];

        // L⁻¹[A_rᵀ, E_rᵀ], then (column-major) its Householder QR over
        // the first m columns, in place: R, f and f₂ in one pass.
        let eq: Vec<&[f64]> =
            equality.map_or(Vec::new(), |e| (0..e.rows()).map(|l| e.row(l)).collect());
        let k = eq.len();
        let cols = m + k;
        let mut y = vec![0.0; interior * cols];
        for (p, row) in y.chunks_exact_mut(cols).enumerate() {
            let j = coef(p);
            for (i, v) in row[..m].iter_mut().enumerate() {
                *v = design[(i, j)];
            }
            for (v, e) in row[m..].iter_mut().zip(&eq) {
                *v = e[j];
            }
        }
        omega_chol.forward_solve_block(&mut y, cols);
        let eq_white: Vec<f64> = y
            .chunks_exact(cols)
            .flat_map(|r| &r[m..])
            .copied()
            .collect();
        let mut packed: Vec<f64> = (0..interior * cols)
            .map(|x| y[(x % interior) * cols + x / interior])
            .collect();
        drop(y);
        let rows = interior.min(m);
        let mut tau = vec![0.0; rows];
        QrDecomposition::factor_in_place(&mut packed, interior, m, &mut tau);
        // Q₁ column by column: Q·eⱼ through the reflectors.
        let mut q1 = vec![0.0; interior * rows];
        let mut column = vec![0.0; interior];
        for j in 0..rows {
            column.fill(0.0);
            column[j] = 1.0;
            QrDecomposition::apply_q_in_place(&packed, &tau, &mut column);
            for (out, &v) in q1.chunks_exact_mut(rows).zip(&column) {
                out[j] = v;
            }
        }
        let j0 = (k > 0)
            .then(|| {
                let col = |l: usize| eq_white.iter().skip(l).step_by(k);
                let j0 = Matrix::from_fn(k, k, |a, b| col(a).zip(col(b)).map(|(x, y)| x * y).sum());
                CholeskyDecomposition::new(&j0).map_err(|_| {
                    DeconvError::NumericalBreakdown(
                        "equality rows are not independent on the interior coefficients",
                    )
                })
            })
            .transpose()?;
        let at = |i: usize, j: usize| packed[j * interior + i];
        let root = (0..rows * m)
            .map(|x| {
                if x % m >= x / m {
                    at(x / m, x % m)
                } else {
                    0.0
                }
            })
            .collect();
        let eq_root = (0..rows * k).map(|x| at(x / k, m + x % k)).collect();
        let eq_rest = (0..k * k)
            .map(|x| {
                (rows..interior)
                    .map(|i| at(i, m + x / k) * at(i, m + x % k))
                    .sum()
            })
            .collect();

        let null_interior = [l0, l1];
        let mut border = Vec::with_capacity(m * 2 * blocks);
        for i in 0..m {
            push_null_t(&null_interior, design.row(i), &mut border);
        }
        let mut en = Vec::with_capacity(k * 2 * blocks);
        for e in &eq {
            push_null_t(&null_interior, e, &mut en);
        }
        let mut frame = Frame {
            n,
            blocks,
            k,
            omega_chol,
            null_interior,
            null_gram,
            root,
            rows,
            border,
            eq_root,
            eq_rest,
            en,
            q1,
            eq_white,
            j0,
            unit: Spectrum::default(),
        };
        let mut unit = Spectrum::default();
        unit.rebuild(&frame, &vec![1.0; m])?;
        unit.keep_basis_only();
        frame.unit = unit;
        Ok(frame)
    }

    /// Border size `q = 2K + k`.
    fn q(&self) -> usize {
        2 * self.blocks + self.k
    }

    /// Writes `α = N·c + (0, β, 0)` into `alpha`, block by block.
    fn assemble(&self, beta: &[f64], c: &[f64], alpha: &mut [f64]) {
        let (n, nr) = (self.n, self.n - 2);
        let [l0, l1] = &self.null_interior;
        for ((block, beta), c) in alpha
            .chunks_exact_mut(n)
            .zip(beta.chunks_exact(nr))
            .zip(c.chunks_exact(2))
        {
            block[0] = c[0];
            block[n - 1] = c[1];
            for (j, &b) in beta.iter().enumerate() {
                block[1 + j] = b + c[0] * l0[j] + c[1] * l1[j];
            }
        }
    }

    /// `h[a][b] += scale·εNᵀN` on every block's end coefficients: the
    /// null-coordinate ridge of the dense Hessian.
    pub(crate) fn add_null_ridge(&self, h: &mut Matrix, scale: f64) {
        let (n, eps) = (self.n, DeconvolutionConfig::RIDGE);
        for b in 0..self.blocks {
            let ends = [b * n, b * n + n - 1];
            for (x, &i) in ends.iter().enumerate() {
                for (y, &j) in ends.iter().enumerate() {
                    h[(i, j)] += scale * eps * self.null_gram[x][y];
                }
            }
        }
    }

    /// Evaluates the scan at one λ: leaves the shrink factors, the
    /// residual in the eigenbasis and the factored border system in
    /// `scan`, and returns `(RSS, edf)` of the equality-constrained
    /// smoother.
    pub(crate) fn evaluate(
        &self,
        series: &Series<'_>,
        lambda: f64,
        scan: &mut ScanScratch,
    ) -> Result<(f64, f64)> {
        let lb = floored(lambda);
        let sp = series.spectrum;
        let (m, q, nk) = (sp.gamma.len(), self.q(), 2 * self.blocks);
        let ScanScratch {
            s,
            resid,
            schur,
            pivots,
            q2,
            z,
            x,
            ..
        } = scan;
        s.resize(m, 0.0);
        resid.resize(m, 0.0);
        x.resize(q, 0.0);
        pivots.resize(q, 0);
        // Lower triangles, packed: the null rows' λ-independent sums
        // (s = 1) to start from, then the eigen rows s-weighted.
        let (rows_part, null_sums) = sp.border.split_at(m * q);
        schur.clear();
        schur.extend_from_slice(null_sums);
        q2.clear();
        q2.extend_from_slice(null_sums);
        z.clear();
        z.extend_from_slice(&series.proj[m..]);

        let rank = sp.rank;
        let mut trace_s = (m - rank) as f64;
        s[rank..].fill(1.0);
        for (si, &g) in s.iter_mut().zip(&sp.gamma).take(rank) {
            *si = lb / (lb + g);
        }
        for ((row, &si), &di) in rows_part
            .chunks_exact(q)
            .zip(s.iter())
            .zip(series.proj)
            .take(rank)
        {
            trace_s += si;
            let s2 = si * si;
            let mut packed = schur.iter_mut().zip(q2.iter_mut());
            for (a, &ra) in row.iter().enumerate() {
                let (sa, s2a) = (si * ra, s2 * ra);
                z[a] += sa * di;
                for (&rb, (sv, qv)) in row[..=a].iter().zip(packed.by_ref()) {
                    *sv += sa * rb;
                    *qv += s2a * rb;
                }
            }
        }
        unpack(schur, q);
        unpack(q2, q);
        // The multipliers' block −λ̄(Σ sᵢf̂ᵢf̂ᵢᵀ + J_rest), formed directly:
        // the rows' Σ sᵢC̃ᵢC̃ᵢᵀ less λ̄J₀ cancels to it from O(λ̄) terms.
        let k = self.k;
        for l in 0..k {
            for l2 in 0..k {
                let mut v = sp.rest[l * k + l2];
                for (f, &si) in sp.left.chunks_exact(k + self.rows).zip(s.iter()) {
                    v += si * f[l] * f[l2];
                }
                schur[(nk + l) * q + nk + l2] = -lb * v;
            }
        }
        // The rest of the λ-dependent border: εNᵀN per block and −λ̄(EN).
        for b in 0..self.blocks {
            for xi in 0..2 {
                for yi in 0..2 {
                    schur[(2 * b + xi) * q + 2 * b + yi] +=
                        DeconvolutionConfig::RIDGE * self.null_gram[xi][yi];
                }
            }
        }
        for l in 0..k {
            for a in 0..nk {
                let v = lb * self.en[l * nk + a];
                schur[(nk + l) * q + a] -= v;
                schur[a * q + nk + l] -= v;
            }
        }
        LuDecomposition::factor_in_place(schur, q, pivots).map_err(|_| {
            DeconvError::NumericalBreakdown("border system of the λ scan is singular")
        })?;
        LuDecomposition::solve_in_place(schur, q, pivots, z);

        let mut rss = 0.0;
        for (i, row) in rows_part.chunks_exact(q).enumerate() {
            let r = s[i] * (series.proj[i] - dot(row, z));
            resid[i] = r;
            rss += r * r;
        }
        let mut trace = 0.0;
        for a in 0..q {
            for (b, xb) in x.iter_mut().enumerate() {
                *xb = q2[b * q + a];
            }
            LuDecomposition::solve_in_place(schur, q, pivots, x);
            trace += x[a];
        }
        Ok((rss, m as f64 - trace_s + trace))
    }

    /// The GCV score at one λ,
    /// `GCV(λ) = (RSS/m) / (1 − edf/m)²`. λ values whose effective
    /// degrees of freedom exceed 99 % of the data score `+∞` (GCV is
    /// degenerate once the smoother saturates), so the scan picks the best
    /// non-interpolating fit.
    pub(crate) fn gcv_score(
        &self,
        series: &Series<'_>,
        lambda: f64,
        scan: &mut ScanScratch,
    ) -> Result<f64> {
        let (rss, edf) = self.evaluate(series, lambda, scan)?;
        let mf = series.weights.len() as f64;
        let edf_ratio = edf / mf;
        if edf_ratio > 0.99 {
            return Ok(f64::INFINITY);
        }
        let denom = 1.0 - edf_ratio;
        Ok((rss / mf) / (denom * denom))
    }

    /// The equality-constrained (positivity-unconstrained) minimizer at
    /// `lambda`, in closed form from the scan's border solution
    /// `z = (c, z′)`: `β = L⁻ᵀ(Q₁y + L⁻¹E_rᵀz′)` with
    /// `y = Σ uᵢσᵢtᵢ/(λ̄ + γᵢ)` over the eigen rows, `tᵢ = vᵢᵀd − C̃ᵢ·z`,
    /// and `α = N·c + (0, β, 0)`. `z′` grows like 1/λ̄ and carries its
    /// rounding into `E·α`, so one projection in the `Ω_rr` metric,
    /// `β ← β − L⁻ᵀ·L⁻¹E_rᵀ·J₀⁻¹·E·α`, restores the equalities. Leaves the
    /// scan's factors at `lambda` in `scan`; allocates only α.
    pub(crate) fn minimizer(
        &self,
        series: &Series<'_>,
        lambda: f64,
        scan: &mut ScanScratch,
    ) -> Result<Vector> {
        self.evaluate(series, lambda, scan)?;
        let lb = floored(lambda);
        let sp = series.spectrum;
        let (q, k, nk, rows) = (self.q(), self.k, 2 * self.blocks, self.rows);
        let ScanScratch {
            z,
            y,
            beta,
            eq,
            step,
            ..
        } = scan;
        let (c, z_eq) = z.split_at(nk);
        y.clear();
        y.resize(rows, 0.0);
        for ((row, left), (&g, &d)) in sp
            .border
            .chunks_exact(q)
            .zip(sp.left.chunks_exact(k + rows))
            .zip(sp.gamma.iter().zip(series.proj))
            .take(sp.rank)
        {
            let weight = g.sqrt() * (d - dot(row, z)) / (lb + g);
            for (v, &u) in y.iter_mut().zip(&left[k..]) {
                *v += weight * u;
            }
        }
        beta.clear();
        beta.extend(self.q1.chunks_exact(rows).map(|q1| dot(q1, y)));
        for (b, f) in beta.iter_mut().zip(self.eq_white.chunks_exact(k.max(1))) {
            *b += dot(f, z_eq);
        }
        self.omega_chol.backward_solve_slice_in_place(beta);
        let mut alpha = Vector::zeros(self.n * self.blocks);
        self.assemble(beta, c, alpha.as_mut_slice());
        if let (Some(e), Some(j0)) = (series.equality, &self.j0) {
            if eq.len() != k {
                *eq = Vector::zeros(k);
            }
            for (l, v) in eq.as_mut_slice().iter_mut().enumerate() {
                *v = dot(e.row(l), alpha.as_slice());
            }
            j0.solve_in_place(eq)?;
            step.clear();
            step.extend(self.eq_white.chunks_exact(k).map(|f| dot(f, eq.as_slice())));
            self.omega_chol.backward_solve_slice_in_place(step);
            for (b, s) in beta.iter_mut().zip(step.iter()) {
                *b -= s;
            }
            self.assemble(beta, c, alpha.as_mut_slice());
        }
        Ok(alpha)
    }
}

impl Spectrum {
    /// Decomposes `W·K₀·W = BᵀB`, `B = R·W`, on its small side and
    /// projects the frame's border onto the eigenbasis, reusing every
    /// buffer. A symmetric eigendecomposition of `BBᵀ` (`U₀`) makes the
    /// rows of `U₀ᵀB` orthogonal to `ε_mach·‖B‖²`; one-sided Jacobi on
    /// them ([`SymmetricEigen::orthogonalize_rows`], carrying `U₀ᵀf` and
    /// `U₀ᵀ` along into `f̂ = Uᵀf` and `Uᵀ`) finishes in a sweep or two,
    /// and the rows become `σᵢ·vᵢ`, so each eigenvalue `γᵢ = σᵢ²` is
    /// accurate to `ε_mach·σ_max·σᵢ` rather than the `ε_mach·σ_max²` of a
    /// decomposition of the formed product. Rows at rounding level are
    /// null space. The result is bit-identical whatever the spectrum held
    /// before.
    pub(crate) fn rebuild(&mut self, frame: &Frame, weights: &[f64]) -> Result<()> {
        let (m, q, rows, k) = (weights.len(), frame.q(), frame.rows, frame.k);
        let (nk, width) = (q - k, k + rows);
        (self.m, self.q) = (m, q);
        self.b.clear();
        self.b.extend(
            frame
                .root
                .chunks_exact(m)
                .flat_map(|r| r.iter().zip(weights).map(|(x, w)| x * w)),
        );
        // BBᵀ's lower triangle: all the eigensolver reads.
        self.gram.clear();
        self.gram.resize(rows * rows, 0.0);
        for (i, bi) in self.b.chunks_exact(m).enumerate() {
            for (j, bj) in self.b.chunks_exact(m).take(i + 1).enumerate() {
                self.gram[i * rows + j] = dot(bi, bj);
            }
        }
        self.gamma.resize(rows, 0.0);
        self.work.resize(rows, 0.0);
        SymmetricEigen::decompose_in_place(rows, &mut self.gram, &mut self.gamma, &mut self.work)?;
        // U₀ᵀB, U₀ᵀf and U₀ᵀ: row i combines the rows by eigenvector i.
        self.vt.clear();
        self.vt.resize(rows * m, 0.0);
        self.left.clear();
        self.left.resize(rows * width, 0.0);
        for (i, out) in self.vt.chunks_exact_mut(m).enumerate() {
            for (r, b) in self.b.chunks_exact(m).enumerate() {
                let u = self.gram[r * rows + i];
                for (o, &x) in out.iter_mut().zip(b) {
                    *o += u * x;
                }
            }
        }
        for (i, out) in self.left.chunks_exact_mut(width).enumerate() {
            let (f, u) = out.split_at_mut(k);
            for (l, out) in f.iter_mut().enumerate() {
                for r in 0..rows {
                    *out += self.gram[r * rows + i] * frame.eq_root[r * k + l];
                }
            }
            for (r, out) in u.iter_mut().enumerate() {
                *out = self.gram[r * rows + i];
            }
        }
        std::mem::swap(&mut self.b, &mut self.vt);
        let negligible = (f64::EPSILON * f64::EPSILON) * dot(&self.b, &self.b);
        SymmetricEigen::orthogonalize_rows(
            &mut self.b,
            rows,
            m,
            &mut self.left,
            width,
            &mut self.work,
            negligible,
        )
        .map_err(|_| {
            DeconvError::NumericalBreakdown(
                "Jacobi eigendecomposition of the λ scan did not converge",
            )
        })?;
        // Keep the eigen rows (normalized, with their f̂ and u); a row at
        // rounding level is null space and its f̂ joins J_rest.
        self.gamma.clear();
        self.vt.clear();
        self.rest.clear();
        self.rest.extend_from_slice(&frame.eq_rest);
        let mut rank = 0;
        for (i, row) in self.b.chunks_exact(m).enumerate() {
            let g = dot(row, row);
            if g > negligible {
                self.gamma.push(g);
                let sigma = g.sqrt();
                self.vt.extend(row.iter().map(|x| x / sigma));
                self.left
                    .copy_within(i * width..(i + 1) * width, rank * width);
                rank += 1;
            } else {
                let f = &self.left[i * width..i * width + k];
                for (x, v) in self.rest.iter_mut().enumerate() {
                    *v += f[x / k] * f[x % k];
                }
            }
        }
        self.left.truncate(rank * width);
        self.rank = rank;
        // Householder reflectors of Vᵀ = QR: Q's trailing m − r columns
        // are the null vectors.
        self.reflectors.clear();
        self.tau.clear();
        if rank < m {
            // V row-major is Vᵀ column-major.
            self.reflectors.extend_from_slice(&self.vt);
            self.tau.resize(rank, 0.0);
            QrDecomposition::factor_in_place(&mut self.reflectors, m, rank, &mut self.tau);
        }
        self.gamma.resize(m, 0.0);
        // The border in the basis: the null columns through the basis,
        // the multiplier columns as σᵢf̂ᵢ on the eigen rows.
        self.border.clear();
        self.border.resize(m * q + q * (q + 1) / 2, 0.0);
        let mut column = std::mem::take(&mut self.column);
        for a in 0..nk {
            column.clear();
            column.extend(
                weights
                    .iter()
                    .zip(frame.border.chunks_exact(nk))
                    .map(|(w, c)| w * c[a]),
            );
            self.hold(&mut column);
            for (out, &h) in self.border.chunks_exact_mut(q).zip(&column) {
                out[a] = h;
            }
        }
        self.column = column;
        for ((out, f), &g) in self
            .border
            .chunks_exact_mut(q)
            .zip(self.left.chunks_exact(width))
            .zip(&self.gamma)
        {
            let sigma = g.sqrt();
            for (o, &x) in out[nk..].iter_mut().zip(&f[..k]) {
                *o = sigma * x;
            }
        }
        let (rows_part, sums) = self.border.split_at_mut(m * q);
        for row in rows_part.chunks_exact(q).skip(rank) {
            let mut packed = sums.iter_mut();
            for (a, &ra) in row.iter().enumerate() {
                for (&rb, v) in row[..=a].iter().zip(packed.by_ref()) {
                    *v += ra * rb;
                }
            }
        }
        Ok(())
    }

    /// Frees the decomposition's scratch and trims every buffer: the
    /// engine's unit-weight spectrum keeps only what the scan and the
    /// minimizer read.
    fn keep_basis_only(&mut self) {
        for scratch in [
            &mut self.b,
            &mut self.gram,
            &mut self.work,
            &mut self.column,
        ] {
            *scratch = Vec::new();
        }
        for kept in [
            &mut self.gamma,
            &mut self.vt,
            &mut self.reflectors,
            &mut self.tau,
            &mut self.border,
            &mut self.left,
            &mut self.rest,
        ] {
            kept.shrink_to_fit();
        }
    }

    /// Replaces the m-vector `x` at the front of `buf` by its coordinates
    /// in the basis: `V·x`, then the trailing `m − r` entries of `Qᵀx`.
    /// Allocates nothing once `buf` has room for `m + r` entries.
    fn hold(&self, buf: &mut Vec<f64>) {
        let (m, rank) = (self.m, self.rank);
        for v in self.vt.chunks_exact(m) {
            let c = dot(v, &buf[..m]);
            buf.push(c);
        }
        if rank < m {
            QrDecomposition::apply_qt_in_place(&self.reflectors, &self.tau, &mut buf[..m]);
        }
        buf.copy_within(m..m + rank, 0);
        buf.truncate(m);
    }

    /// The once-per-series projection of the data: `W·g` in the basis,
    /// followed by its λ-independent null-row sums `Σ C̃ᵢ·d̃ᵢ` (q).
    /// Allocates nothing once `proj` has room for `m + max(r, q)`.
    pub(crate) fn project(&self, weights: &[f64], g: &[f64], proj: &mut Vec<f64>) {
        let (m, q) = (self.m, self.q);
        proj.clear();
        proj.extend(weights.iter().zip(g).map(|(w, g)| w * g));
        self.hold(proj);
        proj.resize(m + q, 0.0);
        let (coords, rhs) = proj.split_at_mut(m);
        for (row, &d) in self
            .border
            .chunks_exact(q)
            .zip(coords.iter())
            .skip(self.rank)
        {
            for (r, &c) in rhs.iter_mut().zip(row) {
                *r += c * d;
            }
        }
    }
}

/// Expands the packed lower triangle at the front of `a` into the full
/// symmetric row-major `q × q` matrix, in place.
fn unpack(a: &mut Vec<f64>, q: usize) {
    a.resize(q * q, 0.0);
    for i in (0..q).rev() {
        let start = i * (i + 1) / 2;
        for j in (0..=i).rev() {
            a[i * q + j] = a[start + j];
        }
    }
    for i in 0..q {
        for j in 0..i {
            a[j * q + i] = a[i * q + j];
        }
    }
}

/// Appends `Nᵀh` for a full-length `h` (the blocks' `N = [ℓ₀, ℓ₁]`,
/// the identity at each block's ends) to `out`.
fn push_null_t(null_interior: &[Vec<f64>; 2], h: &[f64], out: &mut Vec<f64>) {
    let n = null_interior[0].len() + 2;
    for block in h.chunks_exact(n) {
        for (a, l) in null_interior.iter().enumerate() {
            out.push(block[a * (n - 1)] + dot(l, &block[1..n - 1]));
        }
    }
}

/// Test-only references of the criterion: a synthetic problem family and
/// the dense hat-matrix GCV scorer, which share no code with the scan.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::operators::FitOperators;
    use cellsync_spline::SplineBasis;

    impl Frame {
        /// Coefficient index of interior position `p`.
        fn coef(&self, p: usize) -> usize {
            let nr = self.n - 2;
            (p / nr) * self.n + 1 + p % nr
        }

        /// Interior coefficient count `K(n − 2)`.
        fn interior(&self) -> usize {
            self.blocks * (self.n - 2)
        }
    }

    /// `K` stacked blocks of a `basis`-function problem measured at `m`
    /// times: a smooth synthetic kernel integrated against the natural
    /// B-splines (a different width per block), `k` equality rows per
    /// block, and data from a smooth truth with a deterministic 5 %
    /// perturbation. Returns the operators (GCV selection) and the data.
    pub(crate) fn synthetic_operators(
        m: usize,
        basis: usize,
        blocks: usize,
        k: usize,
    ) -> (FitOperators, Vec<f64>) {
        let spline = SplineBasis::uniform(basis, 0.0, 1.0).unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(basis)
            .build()
            .unwrap();
        let grid: Vec<f64> = (0..240).map(|p| (p as f64 + 0.5) / 240.0).collect();
        let psi = spline.collocation_matrix(&grid).unwrap();
        let (omega, kn) = (spline.penalty(), blocks * basis);
        let bw = omega.bandwidth();
        let mut design = Matrix::zeros(m, kn);
        let mut block_omega = BandedMatrix::zeros(kn, bw).unwrap();
        let mut e = Matrix::zeros(blocks * k, kn);
        for b in 0..blocks {
            let width = 0.08 + 0.03 * b as f64;
            for i in 0..m {
                let t = 0.05 + 0.9 * i as f64 / (m - 1) as f64;
                for j in 0..basis {
                    design[(i, b * basis + j)] = grid
                        .iter()
                        .enumerate()
                        .map(|(p, &phi)| {
                            (-(phi - t).powi(2) / (2.0 * width * width)).exp() * psi[(p, j)]
                        })
                        .sum::<f64>()
                        / grid.len() as f64;
                }
            }
            for i in 0..basis {
                for j in i.saturating_sub(bw)..=i {
                    block_omega
                        .set(b * basis + i, b * basis + j, omega.get(i, j))
                        .unwrap();
                }
            }
            for l in 0..k {
                for j in 0..basis {
                    e[(b * k + l, b * basis + j)] = match l {
                        0 => 1.0 + 0.3 * (j as f64 / basis as f64),
                        _ => ((j * 5 + b) % 7) as f64 / 7.0 - 0.4,
                    };
                }
            }
        }
        let equality = (k > 0).then(|| (e, Vector::zeros(blocks * k)));
        let ops = FitOperators::new(
            design,
            block_omega,
            &spline.greville(),
            equality,
            None,
            &config,
        )
        .unwrap();
        let xi = spline.greville();
        let alpha = Vector::from_fn(ops.dim(), |j| {
            let x = xi[j % basis];
            2.0 + (2.0 * std::f64::consts::PI * (x + 0.2 * (j / basis) as f64)).sin()
        });
        let g = ops
            .design
            .matvec(&alpha)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.0 + 0.05 * (7.3 * i as f64).sin()))
            .collect();
        (ops, g)
    }

    /// The frame coordinates `α = T·(β, c)`: interior unit vectors, then
    /// each block's two null columns.
    fn coordinates(frame: &Frame) -> Matrix {
        let (n, nr, kn) = (frame.n, frame.n - 2, frame.n * frame.blocks);
        let interior = frame.blocks * nr;
        Matrix::from_fn(kn, kn, |row, col| {
            if col < interior {
                return f64::from(u8::from(row == frame.coef(col)));
            }
            let (b, a) = ((col - interior) / 2, (col - interior) % 2);
            if row / n != b {
                return 0.0;
            }
            match row % n {
                0 => f64::from(u8::from(a == 0)),
                j if j == n - 1 => f64::from(u8::from(a == 1)),
                j => frame.null_interior[a][j - 1],
            }
        })
    }

    /// The dense GCV score of the criterion at `lambda`, from the
    /// Householder QR of a stacked least-squares system — the normal
    /// equations are never formed, so wide σ ratios do not square its
    /// conditioning. With equality rows, the primal system
    /// `[W·A·T; √λ̄·[Lᵀ, 0]; √ε·[0, L_Gᵀ]]·Z` (`Ω_rr = LLᵀ`,
    /// `NᵀN = L_GL_Gᵀ`, `Z` an orthonormal basis of `null(E·T)`), whose
    /// hat matrix's trace is `‖Q₁‖²_F` over the data rows. Without them,
    /// the `(Kn + m) × m` dual system `[Yᵀ; I]` with `Y = W·A·T·L_P⁻ᵀ`
    /// (`L_P = blockdiag(√λ̄·L, √ε·L_G)` per block): its `R` gives
    /// `I + YYᵀ = RᵀR`, the hat matrix is `I − R⁻¹R⁻ᵀ`, and the cost stays
    /// O(n·m²) per λ at genome-scale n.
    pub(crate) fn dense_gcv(ops: &FitOperators, weights: &[f64], g: &[f64], lambda: f64) -> f64 {
        let m = ops.design.rows();
        let (rss, edf) = match &ops.equality {
            Some((e, _)) => primal(ops, e, weights, g, lambda),
            None => dual(ops, weights, g, lambda),
        };
        let edf_ratio = edf / m as f64;
        if edf_ratio > 0.99 {
            return f64::INFINITY;
        }
        let denom = 1.0 - edf_ratio;
        (rss / m as f64) / (denom * denom)
    }

    /// `L_G` of one block's `NᵀN`, as `[l₀₀, l₁₀, l₁₁]`.
    fn null_factor(frame: &Frame) -> [f64; 3] {
        let [[g00, g01], [_, g11]] = frame.null_gram;
        [g00.sqrt(), g01 / g00.sqrt(), (g11 - g01 * g01 / g00).sqrt()]
    }

    /// `(RSS, edf)` from the dual system (no equality rows).
    fn dual(ops: &FitOperators, weights: &[f64], g: &[f64], lambda: f64) -> (f64, f64) {
        let frame = &ops.frame;
        let (m, kn) = ops.design.shape();
        let interior = frame.interior();
        let at = ops.design.matmul(&coordinates(frame)).unwrap();
        let mut yt = vec![0.0; kn * m];
        for (p, row) in yt.chunks_exact_mut(m).enumerate() {
            for (i, v) in row.iter_mut().enumerate() {
                *v = weights[i] * at[(i, p)];
            }
        }
        let (interior_rows, null_rows) = yt.split_at_mut(interior * m);
        frame.omega_chol.forward_solve_block(interior_rows, m);
        let root_l = floored(lambda).sqrt();
        for v in interior_rows.iter_mut() {
            *v /= root_l;
        }
        let lg = null_factor(frame);
        let root_e = DeconvolutionConfig::RIDGE.sqrt();
        for pair in null_rows.chunks_exact_mut(2 * m) {
            let (r0, r1) = pair.split_at_mut(m);
            for (a, b) in r0.iter_mut().zip(r1.iter_mut()) {
                *a /= lg[0];
                *b = (*b - lg[1] * *a) / lg[2];
                *a /= root_e;
                *b /= root_e;
            }
        }
        let stack = Matrix::from_fn(kn + m, m, |r, c| {
            if r < kn {
                yt[r * m + c]
            } else {
                f64::from(u8::from(r - kn == c))
            }
        });
        let qr = stack.qr().unwrap();
        let r = Matrix::from_fn(m, m, |i, j| qr.r()[(i, j)]);
        // R⁻¹ by back substitution, column by column.
        let back = |x: &mut [f64]| {
            for i in (0..m).rev() {
                let s: f64 = (i + 1..m).map(|j| r[(i, j)] * x[j]).sum();
                x[i] = (x[i] - s) / r[(i, i)];
            }
        };
        let mut trace_inv = 0.0;
        for c in 0..m {
            let mut x: Vec<f64> = (0..m).map(|i| f64::from(u8::from(i == c))).collect();
            back(&mut x);
            trace_inv += dot(&x, &x);
        }
        // Residual (I + YYᵀ)⁻¹·W·g = R⁻¹R⁻ᵀ·W·g.
        let mut u: Vec<f64> = (0..m).map(|i| weights[i] * g[i]).collect();
        for i in 0..m {
            let s: f64 = (0..i).map(|j| r[(j, i)] * u[j]).sum();
            u[i] = (u[i] - s) / r[(i, i)];
        }
        back(&mut u);
        (dot(&u, &u), m as f64 - trace_inv)
    }

    /// `(RSS, edf)` from the primal system with equality rows `e`.
    fn primal(
        ops: &FitOperators,
        e: &Matrix,
        weights: &[f64],
        g: &[f64],
        lambda: f64,
    ) -> (f64, f64) {
        let frame = &ops.frame;
        let (m, kn) = ops.design.shape();
        let interior = frame.interior();
        let t = coordinates(frame);
        let at = ops.design.matmul(&t).unwrap();
        let l = frame.omega_chol.to_dense_factor();
        let lg = null_factor(frame);
        let (root_l, root_e) = (floored(lambda).sqrt(), DeconvolutionConfig::RIDGE.sqrt());
        let x = Matrix::from_fn(m + kn, kn, |row, col| match row {
            r if r < m => weights[r] * at[(r, col)],
            r if r < m + interior => {
                let p = r - m;
                if col < interior {
                    root_l * l[(col, p)]
                } else {
                    0.0
                }
            }
            r => {
                let (b, a) = ((r - m - interior) / 2, (r - m - interior) % 2);
                let (c0, c1) = (interior + 2 * b, interior + 2 * b + 1);
                // Rows of L_Gᵀ = [[l₀₀, l₁₀], [0, l₁₁]].
                match (a, col) {
                    (0, c) if c == c0 => root_e * lg[0],
                    (0, c) if c == c1 => root_e * lg[1],
                    (1, c) if c == c1 => root_e * lg[2],
                    _ => 0.0,
                }
            }
        });
        let et = e.matmul(&t).unwrap();
        let k = e.rows();
        let q_e = et.transpose().qr().unwrap();
        let z = Matrix::from_fn(kn, kn - k, |i, j| q_e.q()[(i, k + j)]);
        let stacked = x.matmul(&z).unwrap();
        let rhs = Vector::from_fn(m + kn, |i| if i < m { weights[i] * g[i] } else { 0.0 });
        let qr = stacked.qr().unwrap();
        let y = qr.solve_least_squares(&rhs).unwrap();
        let pred = at.matvec(&z.matvec(&y).unwrap()).unwrap();
        let rss: f64 = (0..m)
            .map(|i| (weights[i] * (g[i] - pred[i])).powi(2))
            .sum();
        let q = qr.q();
        let trace: f64 = (0..m)
            .flat_map(|i| (0..z.cols()).map(move |j| q[(i, j)] * q[(i, j)]))
            .sum();
        (rss, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsync_spline::SplineBasis;

    /// A small synthetic instance: random-ish dense design, the natural
    /// B-spline penalty and its Greville abscissae.
    fn instance(m: usize, n: usize) -> (Matrix, Vec<f64>, Vec<f64>, SplineBasis) {
        let design = Matrix::from_fn(m, n, |i, j| {
            0.3 + ((i * 7 + j * 13) % 11) as f64 / 11.0 + 0.05 * ((i + 2 * j) as f64).sin()
        });
        let weights: Vec<f64> = (0..m).map(|i| 1.0 + 0.1 * (i % 3) as f64).collect();
        let g: Vec<f64> = (0..m).map(|i| 2.0 + (i as f64 * 0.7).sin()).collect();
        (
            design,
            weights,
            g,
            SplineBasis::uniform(n, 0.0, 1.0).unwrap(),
        )
    }

    /// The frame's equality-constrained minimizer, edf and RSS at one λ.
    fn evaluate(
        basis: &SplineBasis,
        design: &Matrix,
        weights: &[f64],
        g: &[f64],
        equality: Option<&Matrix>,
        lambda: f64,
    ) -> (Vector, f64, f64) {
        let frame = Frame::new(design, &basis.penalty(), equality, &basis.greville()).unwrap();
        let mut spectrum = Spectrum::default();
        spectrum.rebuild(&frame, weights).unwrap();
        let mut proj = Vec::new();
        spectrum.project(weights, g, &mut proj);
        let series = Series {
            equality,
            weights,
            g,
            spectrum: &spectrum,
            proj: &proj,
        };
        let mut scan = ScanScratch::default();
        let (rss, edf) = frame.evaluate(&series, lambda, &mut scan).unwrap();
        let alpha = frame.minimizer(&series, lambda, &mut scan).unwrap();
        (alpha, edf, rss)
    }

    /// The dense normal matrix of the criterion,
    /// `K = AᵀW²A + λ̄Ω + ε·R` with `R` holding `NᵀN` on the two end
    /// coefficients, and its right-hand side `AᵀW²g`.
    fn normal_equations(
        basis: &SplineBasis,
        design: &Matrix,
        weights: &[f64],
        g: &[f64],
        lambda: f64,
    ) -> (Matrix, Vector) {
        let (m, n) = design.shape();
        let omega = basis.penalty_matrix();
        let mut k = Matrix::zeros(n, n);
        design.weighted_gram_into(weights, &mut k).unwrap();
        for i in 0..n {
            for j in 0..n {
                k[(i, j)] += lambda.max(1e-9) * omega[(i, j)];
            }
        }
        let xi = basis.greville();
        let l1: Vec<f64> = xi
            .iter()
            .map(|x| (x - xi[0]) / (xi[n - 1] - xi[0]))
            .collect();
        let l0: Vec<f64> = l1.iter().map(|v| 1.0 - v).collect();
        let ends = [0, n - 1];
        for (a, la) in [&l0, &l1].into_iter().enumerate() {
            for (b, lb) in [&l0, &l1].into_iter().enumerate() {
                k[(ends[a], ends[b])] += 1e-9 * dot(la, lb);
            }
        }
        let w2g = Vector::from_fn(m, |i| weights[i] * weights[i] * g[i]);
        (k, design.tr_matvec(&w2g).unwrap())
    }

    /// Direct dense reference: `α = K⁻¹AᵀW²g` and
    /// `edf = tr(W·A·K⁻¹·Aᵀ·W)`, both corrected onto `Eα = 0`.
    fn dense_reference(
        basis: &SplineBasis,
        design: &Matrix,
        weights: &[f64],
        g: &[f64],
        equality: Option<&Matrix>,
        lambda: f64,
    ) -> (Vec<f64>, f64, f64) {
        let (m, n) = design.shape();
        let (k, rhs) = normal_equations(basis, design, weights, g, lambda);
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

    #[test]
    fn woodbury_solution_satisfies_normal_equations() {
        // At tiny λ the normal matrix is ill-conditioned (cond(K) ~ 1e9),
        // so cross-method α comparison is meaningless — but the minimizer
        // must still satisfy the normal equations to near machine
        // precision, down to the floor λ̄ = ε and at fine bases.
        for n in [60, 80, 128] {
            let (design, weights, g, basis) = instance(9, n);
            for &lambda in &[0.0, 1e-8, 1e-6, 1e-3, 1.0] {
                let (alpha, _, _) = evaluate(&basis, &design, &weights, &g, None, lambda);
                let (k, rhs) = normal_equations(&basis, &design, &weights, &g, lambda);
                let resid = (&k.matvec(&alpha).unwrap() - &rhs).norm2();
                let scale = rhs.norm2();
                assert!(
                    resid <= 1e-10 * (1.0 + scale),
                    "n={n}, λ={lambda}: KKT residual {resid} vs rhs norm {scale}"
                );
            }
        }
    }

    #[test]
    fn woodbury_matches_dense_unconstrained() {
        let (design, weights, g, basis) = instance(9, 60);
        for &lambda in &[1e-2, 1e-1, 1.0] {
            let (alpha, edf, rss) = evaluate(&basis, &design, &weights, &g, None, lambda);
            let (alpha_d, edf_d, rss_d) =
                dense_reference(&basis, &design, &weights, &g, None, lambda);
            for (a, b) in alpha.iter().zip(&alpha_d) {
                assert!((a - b).abs() < 1e-8, "λ={lambda}: α {a} vs {b}");
            }
            assert!(
                (edf - edf_d).abs() < 1e-8,
                "λ={lambda}: edf {edf} vs {edf_d}"
            );
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
        let (design, weights, g, basis) = instance(10, 48);
        let n = design.cols();
        let e = Matrix::from_fn(2, n, |r, j| match r {
            0 => 1.0 + 0.01 * j as f64,
            _ => ((j * 5) % 7) as f64 / 7.0 - 0.4,
        });
        for &lambda in &[1e-3, 3e-2, 0.5] {
            let (alpha, edf, rss) = evaluate(&basis, &design, &weights, &g, Some(&e), lambda);
            let (alpha_d, edf_d, rss_d) =
                dense_reference(&basis, &design, &weights, &g, Some(&e), lambda);
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
