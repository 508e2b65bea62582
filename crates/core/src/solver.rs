//! The per-thread scratch behind [`crate::Deconvolver`] fits.
//!
//! Every engine selects λ by one measurement-space scan and solves by
//! one fixed-λ minimizer ([`crate::banded`]); [`FitWorkspace`] carries
//! what a fit rebuilds per series — the weights, a σ-weighted series'
//! own spectrum and projected data, the per-λ scan scratch and the QP
//! workspace — so that [`crate::Deconvolver::fit_many`] can hand each
//! worker one via [`cellsync_runtime::Pool::par_map_with`]. See
//! `docs/SOLVER.md` for the derivation.

use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::QpWorkspace;

use crate::banded::{ScanScratch, Spectrum};

/// Reusable per-thread scratch for [`crate::Deconvolver`] fits.
///
/// One workspace serves any number of sequential fits on engines of any
/// size (buffers re-size lazily); [`crate::Deconvolver::fit_many`] builds
/// one per pool worker. Fit results are independent of the workspace's
/// history — every fit fully re-initializes the state it reads — which is
/// what keeps batch results bit-identical at any thread count.
#[derive(Debug, Clone, Default)]
pub struct FitWorkspace {
    /// Per-measurement weights `1/σ`.
    pub(crate) weights: Vec<f64>,
    /// A σ-weighted series' own spectrum, rebuilt in place for every
    /// weighted fit (unit-weight fits use the engine's).
    pub(crate) spectrum: Spectrum,
    /// The series' data projected onto its spectrum (m).
    pub(crate) proj: Vec<f64>,
    /// Per-λ scratch of the scan.
    pub(crate) scan: ScanScratch,
    /// Scratch of the fixed-λ solve, shared by the fit and every k-fold
    /// fold.
    pub(crate) solve: SolveScratch,
}

/// Scratch of the engine's one fixed-λ solve: the QP workspace and the
/// QP it assembles when positivity binds. A separate struct so a solve
/// can borrow it next to the workspace's weights, and so each bootstrap
/// worker can carry one without a whole [`FitWorkspace`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SolveScratch {
    /// Active-set QP scratch (buffers only; no row hint is set).
    pub(crate) qp: QpWorkspace,
    /// Assembled QP Hessian (n × n).
    pub(crate) h: Matrix,
    /// Assembled QP linear term (n).
    pub(crate) c: Vector,
    /// `W²·g` (m) of the linear term.
    pub(crate) w2g: Vector,
}

impl FitWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        FitWorkspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::reference::{dense_gcv, synthetic_operators};
    use crate::operators::FitOperators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Counts the calling thread's heap allocations, so a test can pin a
    /// path as allocation-free while other tests run on other threads.
    #[allow(unsafe_code)]
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
        }

        struct Counting;

        // SAFETY: every call is forwarded unchanged to the system
        // allocator; the thread-local counter neither allocates nor drops.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
                System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;

        /// Allocations (and reallocations) made by this thread so far.
        pub(super) fn allocations() -> usize {
            ALLOCATIONS.with(Cell::get)
        }
    }

    /// A seeded σ vector spanning `decades` decades; at 6 decades it
    /// pins σ_max/σ_min = 1e6 exactly.
    fn sigma_weights(m: usize, seed: u64, decades: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sigmas: Vec<f64> = (0..m)
            .map(|_| 10f64.powf(decades * (rng.gen::<f64>() - 0.5)))
            .collect();
        if decades == 6.0 {
            sigmas[seed as usize % m] = 1e-3;
            sigmas[(seed as usize + 3) % m] = 1e3;
        }
        sigmas.iter().map(|s| 1.0 / s).collect()
    }

    /// The scan's score at `lambda` for one weight vector.
    fn scan_score(ops: &FitOperators, weights: &[f64], g: &[f64], lambda: f64) -> f64 {
        let mut ws = FitWorkspace::new();
        ws.spectrum.rebuild(&ops.frame, weights).unwrap();
        let series = ops.series(weights, g, &ws.spectrum, &mut ws.proj);
        ops.frame.gcv_score(&series, lambda, &mut ws.scan).unwrap()
    }

    /// `|scan − dense| ≤ tol·|dense|`, or both saturated. Both scorers
    /// inherit the conditioning of the weighted design, which grows like
    /// (σ_max/σ_min)² over the nonzero weights, so `tol` is ε times that,
    /// and `floor` for mild ratios.
    fn assert_close(scan: f64, dense: f64, weights: &[f64], floor: f64, case: &str) {
        let live = weights.iter().filter(|&&w| w > 0.0);
        let ratio = live.clone().fold(0.0, |a: f64, &w| a.max(w))
            / live.fold(f64::INFINITY, |a: f64, &w| a.min(w));
        let tol = (f64::EPSILON * ratio * ratio).max(floor);
        assert!(
            (scan - dense).abs() <= tol * dense.abs().max(1e-300)
                || (scan.is_infinite() && dense.is_infinite()),
            "{case}: scan {scan} vs dense {dense} (rel {:e})",
            (scan - dense).abs() / dense.abs()
        );
    }

    #[test]
    fn spectral_gcv_matches_dense_reference() {
        // The measurement-space scan against the dense hat-matrix scorer
        // of the same criterion (a QR of the stacked least-squares
        // system), over basis sizes, equality rows, weights (unit, σ
        // ratios up to 1e6, a k-fold fold's zeros) and λ down to the
        // floor.
        let lambdas = [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2];
        for basis in [4, 18, 64, 128] {
            for k in 0..=2 {
                let (ops, g) = synthetic_operators(16, basis, 1, k);
                let mut fold = vec![1.0; 16];
                for v in [2, 7, 11] {
                    fold[v] = 0.0;
                }
                let weight_sets = [
                    ("unit", vec![1.0; 16]),
                    ("σ 1e2", sigma_weights(16, 1, 2.0)),
                    ("σ 1e6", sigma_weights(16, 4, 6.0)),
                    ("fold", fold),
                ];
                for (name, weights) in &weight_sets {
                    for lambda in lambdas {
                        let case = format!("basis {basis}, k {k}, {name}, λ {lambda:e}");
                        let scan = scan_score(&ops, weights, &g, lambda);
                        let dense = dense_gcv(&ops, weights, &g, lambda);
                        assert_close(scan, dense, weights, 1e-9, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_weighted_scans_allocate_nothing() {
        // Once a workspace has seen a set of series, scanning them again —
        // rebuilding each σ-weighted spectrum, projecting the data and
        // scoring every grid λ — allocates nothing: a genome of weighted
        // genes costs no allocation per gene in the scan. The fixed-λ
        // solve of a feasible series then allocates only the α it returns.
        for (basis, k) in [(18, 0), (18, 2), (128, 1)] {
            let (ops, g) = synthetic_operators(16, basis, 1, k);
            let mut fold = sigma_weights(16, 5, 2.0);
            fold[3] = 0.0;
            let weight_sets = [sigma_weights(16, 1, 2.0), sigma_weights(16, 4, 6.0), fold];
            let mut ws = FitWorkspace::new();
            let scan_all = |ws: &mut FitWorkspace| {
                let FitWorkspace {
                    spectrum,
                    proj,
                    scan,
                    ..
                } = ws;
                let unit = ops.series(&ops.unit_weights, &g, &ops.frame.unit, proj);
                for &l in &ops.lambda_grid {
                    ops.frame.gcv_score(&unit, l, scan).unwrap();
                }
                for weights in &weight_sets {
                    spectrum.rebuild(&ops.frame, weights).unwrap();
                    let series = ops.series(weights, &g, spectrum, proj);
                    for &l in &ops.lambda_grid {
                        ops.frame.gcv_score(&series, l, scan).unwrap();
                    }
                }
            };
            let solve_all = |ws: &mut FitWorkspace| {
                let FitWorkspace {
                    spectrum,
                    proj,
                    scan,
                    solve,
                    ..
                } = ws;
                for weights in &weight_sets {
                    spectrum.rebuild(&ops.frame, weights).unwrap();
                    let series = ops.series(weights, &g, spectrum, proj);
                    for l in [0.0, 1e-4, 1.0] {
                        ops.solve_at(scan, solve, &series, l, None).unwrap();
                    }
                }
            };
            scan_all(&mut ws);
            solve_all(&mut ws);
            let before = counting::allocations();
            scan_all(&mut ws);
            let made = counting::allocations() - before;
            assert_eq!(made, 0, "basis {basis}, k {k}: {made} allocations");
            let before = counting::allocations();
            solve_all(&mut ws);
            let made = counting::allocations() - before;
            let solves = 3 * weight_sets.len();
            assert_eq!(
                made, solves,
                "basis {basis}, k {k}: {made} allocations in {solves} feasible solves"
            );
        }
    }

    #[test]
    fn stacked_scan_matches_dense_reference() {
        // K ∈ {2, 3} stacked blocks, with and without per-block equality
        // rows: the mixture engine's scan on the same scorer. One case is
        // held to 5e-9 instead of 1e-9: three basis-4 blocks with two
        // equality rows each (every block's interior pinned by its
        // equalities), unit weights, λ at the floor. There the scan is
        // the less stable scorer: perturbing the weights by 2e-16 moves
        // its score by 2–4e-9 and the dense one by 1e-14.
        for (basis, blocks) in [(4, 2), (4, 3), (18, 2), (18, 3)] {
            for k in [0, 2] {
                let (ops, g) = synthetic_operators(16, basis, blocks, k);
                for (name, weights) in [("unit", vec![1.0; 16]), ("σ", sigma_weights(16, 2, 3.0))]
                {
                    for lambda in [0.0, 1e-8, 1e-4, 1.0, 1e2] {
                        let case =
                            format!("basis {basis}, K {blocks}, k {k}, {name}, λ {lambda:e}");
                        let scan = scan_score(&ops, &weights, &g, lambda);
                        let dense = dense_gcv(&ops, &weights, &g, lambda);
                        let pinned = (basis, blocks, k, name, lambda) == (4, 3, 2, "unit", 0.0);
                        let floor = if pinned { 5e-9 } else { 1e-9 };
                        assert_close(scan, dense, &weights, floor, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn nullspace_reduction_annihilates_equalities() {
        // The frame's minimizer honors the equality rows exactly (to
        // solve accuracy) at every λ, the floor included.
        for basis in [4, 18, 128] {
            let (ops, g) = synthetic_operators(16, basis, 1, 2);
            let (e, _) = ops.equality.as_ref().unwrap();
            let weights = sigma_weights(16, 3, 2.0);
            let mut ws = FitWorkspace::new();
            ws.spectrum.rebuild(&ops.frame, &weights).unwrap();
            let series = ops.series(&weights, &g, &ws.spectrum, &mut ws.proj);
            for lambda in [0.0, 1e-6, 1e-2, 1e2] {
                let alpha = ops.frame.minimizer(&series, lambda, &mut ws.scan).unwrap();
                let ea = e.matvec(&alpha).unwrap();
                let scale = e.norm_inf() * (1.0 + alpha.norm_inf());
                assert!(
                    ea.norm_inf() <= 1e-10 * scale,
                    "basis {basis}, λ {lambda:e}: E·α = {ea}"
                );
            }
        }
    }

    #[test]
    fn trace_decreases_with_lambda() {
        // The effective degrees of freedom shrink monotonically as λ
        // grows: each shrink factor λ̄/(λ̄ + γ) rises with λ.
        for k in [0, 2] {
            let (ops, g) = synthetic_operators(16, 18, 1, k);
            let mut ws = FitWorkspace::new();
            let series = ops.series(&ops.unit_weights, &g, &ops.frame.unit, &mut ws.proj);
            let mut previous = f64::INFINITY;
            for lambda in [0.0, 1e-9, 1e-6, 1e-3, 1.0, 1e3] {
                let (_, edf) = ops.frame.evaluate(&series, lambda, &mut ws.scan).unwrap();
                assert!(
                    edf <= previous + 1e-12,
                    "k {k}: edf rose to {edf} at λ = {lambda}"
                );
                previous = edf;
            }
        }
    }
}
