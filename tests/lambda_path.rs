//! λ-path solver suite: the measurement-space (factor-once) GCV selector
//! must reproduce the dense (factor-per-λ) algorithm, and its scores must
//! be bit-identical across thread counts and gene order.
//!
//! The dense reference implemented here is the textbook algorithm: per
//! λ, assemble the criterion's normal matrix `K = BᵀB + λ̄Ω + ε·R`
//! (`λ̄ = max(λ, ε)`, `R` holding `NᵀN` on the two end coefficients),
//! Cholesky-factor it, solve for the smoother coefficients, and take the
//! influence trace via `n` more triangular solves — followed by the
//! identical 5 %-threshold grid selection and golden-section refinement.
//! The production path computes the same quantities from one
//! eigendecomposition in measurement space; see `docs/SOLVER.md`.

use std::sync::OnceLock;

use cellsync::{DeconvolutionConfig, Deconvolver, ForwardModel, LambdaSelection, PhaseProfile};
use cellsync_bench::figure2_truth;
use cellsync_linalg::{Matrix, Vector};
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, PhaseKernel, Population,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Debug-friendly rendition of the accuracy harness's paper anchor: a
/// 2000-cell synchronized culture observed at 13 uniform times over one
/// 150-minute cycle.
fn anchor_kernel() -> &'static PhaseKernel {
    static KERNEL: OnceLock<PhaseKernel> = OnceLock::new();
    KERNEL.get_or_init(|| {
        let params = CellCycleParams::caulobacter().expect("valid defaults");
        let mut rng = StdRng::seed_from_u64(42);
        let pop =
            Population::synchronized(2_000, &params, InitialCondition::UniformSwarmer, &mut rng)
                .expect("non-empty")
                .simulate_until(150.0)
                .expect("finite horizon");
        let times: Vec<f64> = (0..13).map(|i| 150.0 * i as f64 / 12.0).collect();
        KernelEstimator::new(64)
            .expect("bins")
            .estimate(&pop, &times)
            .expect("valid protocol")
    })
}

fn anchor_config(points: usize) -> DeconvolutionConfig {
    DeconvolutionConfig::builder()
        .basis_size(18)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 1.0,
            points,
        })
        .build()
        .expect("valid config")
}

/// The dense GCV score: factor `K(λ) = BᵀB + λ̄Ω + ridge` from scratch.
fn dense_gcv_score(b: &Matrix, y: &Vector, omega: &Matrix, ridge: &Matrix, lambda: f64) -> f64 {
    let m = b.rows() as f64;
    let n = b.cols();
    let mut k = b.gram();
    for i in 0..n {
        for j in 0..n {
            k[(i, j)] += lambda.max(DeconvolutionConfig::RIDGE) * omega[(i, j)] + ridge[(i, j)];
        }
    }
    k.symmetrize().expect("square");
    let chol = k.cholesky().expect("spd for positive lambda");
    let bty = b.tr_matvec(y).expect("shapes agree");
    let alpha = chol.solve(&bty).expect("matching dims");
    let fitted = b.matvec(&alpha).expect("shapes agree");
    let rss = (&fitted - y).norm2().powi(2);
    let btb = b.gram();
    let x = chol.solve_matrix(&btb).expect("matching dims");
    let trace: f64 = (0..x.rows()).map(|i| x[(i, i)]).sum();
    let edf_ratio = trace / m;
    if edf_ratio > 0.99 {
        return f64::INFINITY;
    }
    let denom = 1.0 - edf_ratio;
    (rss / m) / (denom * denom)
}

/// The dense λ selection: grid scan, largest-λ-within-5 %-of-min
/// threshold, golden-section refinement between the grid neighbours.
fn dense_gcv_lambda(engine: &Deconvolver, g: &[f64], sigmas: Option<&[f64]>) -> f64 {
    let basis = engine.basis();
    let design = engine
        .forward()
        .design_matrix(basis)
        .expect("engine-validated protocol");
    let omega = basis.penalty_matrix();
    // ε·NᵀN on the end coefficients, N = [ℓ₀, ℓ₁] the linear
    // interpolants of the ends at the Greville abscissae.
    let n = basis.len();
    let xi = basis.greville();
    let l1: Vec<f64> = xi
        .iter()
        .map(|x| (x - xi[0]) / (xi[n - 1] - xi[0]))
        .collect();
    let null = [l1.iter().map(|v| 1.0 - v).collect::<Vec<_>>(), l1];
    let mut ridge = Matrix::zeros(n, n);
    for (a, la) in null.iter().enumerate() {
        for (c, lc) in null.iter().enumerate() {
            let ntn: f64 = la.iter().zip(lc).map(|(x, y)| x * y).sum();
            ridge[(a * (n - 1), c * (n - 1))] = DeconvolutionConfig::RIDGE * ntn;
        }
    }
    let m = g.len();
    let weights: Vec<f64> = match sigmas {
        None => vec![1.0; m],
        Some(s) => s.iter().map(|v| 1.0 / v).collect(),
    };
    let b = Matrix::from_fn(m, basis.len(), |r, c| weights[r] * design[(r, c)]);
    let y = Vector::from_fn(m, |i| weights[i] * g[i]);

    let grid = engine.config().lambda().lambda_grid();
    let scores: Vec<(f64, f64)> = grid
        .iter()
        .map(|&l| (l, dense_gcv_score(&b, &y, &omega, &ridge, l)))
        .collect();
    let s_min = scores.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    let threshold = s_min + 0.05 * s_min.abs() + f64::MIN_POSITIVE;
    let (best_idx, best) = scores
        .iter()
        .cloned()
        .enumerate()
        .rfind(|(_, (_, s))| *s <= threshold)
        .expect("the minimizer itself passes the threshold");
    if best_idx > 0 && best_idx + 1 < scores.len() {
        let lo = scores[best_idx - 1].0.log10();
        let hi = scores[best_idx + 1].0.log10();
        match cellsync_opt::golden_section(
            |log_l| dense_gcv_score(&b, &y, &omega, &ridge, 10f64.powf(log_l)),
            lo,
            hi,
            1e-3,
            60,
        ) {
            Ok((log_l, score)) if score <= best.1 => 10f64.powf(log_l),
            _ => best.0,
        }
    } else {
        best.0
    }
}

#[test]
fn spectral_lambda_matches_dense_path_on_paper_anchor() {
    // The fig. 2 Lotka–Volterra truth through the paper protocol, clean
    // data — the accuracy harness's anchor cell at debug-friendly size.
    let kernel = anchor_kernel().clone();
    let (x1, _, _) = figure2_truth().expect("figure 2 truth");
    let engine = Deconvolver::new(kernel, anchor_config(13)).expect("valid engine");
    let g = engine.forward().predict(&x1).expect("predicts");

    let fit = engine.fit(&g, None).expect("fits");
    let dense = dense_gcv_lambda(&engine, &g, None);
    let rel = (fit.lambda() - dense).abs() / dense.abs().max(f64::MIN_POSITIVE);
    assert!(
        rel <= 1e-8,
        "spectral λ {} vs dense λ {} (rel {rel:e})",
        fit.lambda(),
        dense
    );
}

#[test]
fn spectral_lambda_matches_dense_path_on_noisy_weighted_anchor() {
    // Deterministically perturbed, heteroscedastic variant: pushes the
    // GCV minimum into the grid interior so the golden-section
    // refinement runs, and exercises the weighted (per-fit) spectral
    // decomposition.
    let kernel = anchor_kernel().clone();
    let (x1, _, _) = figure2_truth().expect("figure 2 truth");
    let engine = Deconvolver::new(kernel, anchor_config(11)).expect("valid engine");
    let clean = engine.forward().predict(&x1).expect("predicts");
    let g: Vec<f64> = clean
        .iter()
        .enumerate()
        .map(|(i, v)| v + 0.06 * (i as f64 * 2.3).sin())
        .collect();
    let sigmas: Vec<f64> = (0..g.len()).map(|i| 0.05 + 0.005 * i as f64).collect();

    let fit = engine.fit(&g, Some(&sigmas)).expect("fits");
    let dense = dense_gcv_lambda(&engine, &g, Some(&sigmas));
    let rel = (fit.lambda() - dense).abs() / dense.abs().max(f64::MIN_POSITIVE);
    assert!(
        rel <= 1e-8,
        "spectral λ {} vs dense λ {} (rel {rel:e})",
        fit.lambda(),
        dense
    );
}

/// A small synthetic gene panel: Gaussian bumps at generated peak phases.
fn gene_panel(peaks: &[f64], forward: &ForwardModel) -> Vec<Vec<f64>> {
    peaks
        .iter()
        .map(|&peak| {
            let truth = PhaseProfile::from_fn(200, move |phi| {
                let d = (phi - peak).abs().min(1.0 - (phi - peak).abs());
                2.5 * (-(d * d) / 0.03).exp() + 0.5
            })
            .expect("valid profile");
            forward.predict(&truth).expect("predicts")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// λ-path scores (the full `(λ, GCV)` scan, including any refined
    /// point) are bit-identical across pool widths {1, 2, 4} and under
    /// permutation of the gene order.
    #[test]
    fn lambda_path_scores_thread_and_order_invariant(
        peaks in prop::collection::vec(0.05f64..0.95, 3..6),
    ) {
        let kernel = anchor_kernel().clone();
        let config = DeconvolutionConfig::builder()
            .basis_size(12)
            .positivity(true)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -8.0,
                log10_max: 1.0,
                points: 7,
            })
            .build()
            .expect("valid config");
        let engine = Deconvolver::new(kernel, config).expect("valid engine");
        let series = gene_panel(&peaks, engine.forward());
        let input: Vec<(&[f64], Option<&[f64]>)> =
            series.iter().map(|g| (g.as_slice(), None)).collect();

        let reference = engine.clone().with_threads(1).fit_many(&input).expect("fits");
        for threads in [2usize, 4] {
            let results = engine
                .clone()
                .with_threads(threads)
                .fit_many(&input)
                .expect("fits");
            for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    got.selection_scores(),
                    want.selection_scores(),
                    "gene {} scores diverged at {} threads", i, threads
                );
                prop_assert_eq!(got.alpha(), want.alpha(), "gene {} alpha, {} threads", i, threads);
                prop_assert!(got.lambda() == want.lambda(), "gene {} lambda, {} threads", i, threads);
            }
        }

        // Gene-order permutation (reversal), re-aligned by position.
        let reversed: Vec<(&[f64], Option<&[f64]>)> =
            input.iter().rev().copied().collect();
        let rev = engine.with_threads(2).fit_many(&reversed).expect("fits");
        for (i, got) in rev.iter().enumerate() {
            let want = &reference[input.len() - 1 - i];
            prop_assert_eq!(
                got.selection_scores(),
                want.selection_scores(),
                "permuted gene {} scores diverged", i
            );
            prop_assert_eq!(got.alpha(), want.alpha(), "permuted gene {} alpha", i);
        }
    }
}
