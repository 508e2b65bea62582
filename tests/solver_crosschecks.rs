//! Cross-checks between independent solver implementations on real
//! deconvolution problems: the design-matrix path against direct
//! convolution, and the committed QP corpus
//! (`tests/fixtures/qp_corpus/`) replayed through both QP backends with
//! independent KKT verification.

use std::path::PathBuf;

use cellsync::{DeconvolutionConfig, Deconvolver, ForwardModel, LambdaSelection, PhaseProfile};
use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::{IpmWorkspace, OptError, QpBackend, QpInstance, QpProblem, QpWorkspace};
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, PhaseKernel, Population,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn kernel(seed: u64) -> PhaseKernel {
    let params = CellCycleParams::caulobacter().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::synchronized(3000, &params, InitialCondition::UniformSwarmer, &mut rng)
        .unwrap()
        .simulate_until(150.0)
        .unwrap();
    let times: Vec<f64> = (0..14).map(|i| 150.0 * i as f64 / 13.0).collect();
    KernelEstimator::new(50)
        .unwrap()
        .estimate(&pop, &times)
        .unwrap()
}

#[test]
fn design_matrix_path_equals_direct_convolution() {
    // Deconvolver's predicted() (design-matrix product) must match the
    // kernel's direct convolution of the fitted profile.
    let k = kernel(3);
    let truth = PhaseProfile::from_fn(150, |phi| 2.0 + phi).unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let config = DeconvolutionConfig::builder()
        .basis_size(10)
        .lambda(1e-5)
        .build()
        .unwrap();
    let deconv = Deconvolver::new(k.clone(), config).unwrap();
    let result = deconv.fit(&g, None).unwrap();
    let direct = ForwardModel::new(k)
        .predict_fn(|phi| {
            deconv
                .basis()
                .eval_combination(result.alpha(), phi)
                .expect("lengths match")
        })
        .unwrap();
    for (p, d) in result.predicted().iter().zip(&direct) {
        assert!((p - d).abs() < 1e-9, "{p} vs {d}");
    }
}

#[test]
fn weighted_and_unweighted_fits_agree_for_uniform_sigmas() {
    // Constant sigmas rescale the cost uniformly; with fixed λ the
    // minimizer changes only through the λ·Ω balance — verify the
    // documented equivalence: sigmas = c with λ' = λ/c² reproduces the
    // unweighted fit.
    let k = kernel(4);
    let truth = PhaseProfile::from_fn(150, |phi| 1.0 + (3.0 * phi).sin().abs()).unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let sigma = 2.0;
    let lambda = 1e-4;

    let unweighted = Deconvolver::new(
        k.clone(),
        DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(lambda)
            .build()
            .unwrap(),
    )
    .unwrap()
    .fit(&g, None)
    .unwrap();

    let weighted = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(lambda / (sigma * sigma))
            .build()
            .unwrap(),
    )
    .unwrap()
    .fit(&g, Some(&vec![sigma; g.len()]))
    .unwrap();

    for (a, b) in unweighted.alpha().iter().zip(weighted.alpha()) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}

// ---------------------------------------------------------------------------
// QP corpus: two independent backends on every committed instance.
// ---------------------------------------------------------------------------

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/qp_corpus")
}

/// Loads every committed `.qp` instance — the main corpus plus any
/// pinned proptest counterexamples under `regressions/` — sorted by file
/// name. Panics with the offending path on any parse failure — a
/// corrupt corpus file is a repo bug, not a test condition.
fn load_corpus() -> Vec<(String, QpInstance)> {
    let dir = corpus_dir();
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .chain(
            std::fs::read_dir(dir.join("regressions"))
                .unwrap_or_else(|e| panic!("regressions dir under {}: {e}", dir.display())),
        )
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "qp"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let instance =
                QpInstance::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path.display().to_string(), instance)
        })
        .collect()
}

/// The instance's problem for a "cold" solve: no workspace-level row hint
/// is set. The instance's starting point is a record only; neither
/// backend reads one.
fn cold_problem(inst: &QpInstance) -> QpProblem<'_> {
    inst.problem().expect("valid corpus instance")
}

/// Independent KKT verification: trusts neither backend. Checks primal
/// feasibility directly, then recovers Lagrange multipliers for the
/// active rows by a spectral pseudo-solve of the constraint Gram matrix
/// (robust to the corpus's deliberately duplicated/dependent rows) and
/// checks stationarity and dual signs.
fn verify_kkt(name: &str, inst: &QpInstance, x: &Vector) {
    let n = inst.dim();
    let scale_x = 1.0 + x.norm_inf();

    if let Some((e_mat, e_rhs)) = inst.equalities() {
        let resid = &e_mat.matvec(x).expect("shapes") - e_rhs;
        assert!(
            resid.norm_inf() <= 1e-8 * scale_x,
            "{name}: equality residual {:e}",
            resid.norm_inf()
        );
    }

    // Active rows: all equalities plus inequalities at their bound.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut n_eq_rows = 0usize;
    if let Some((e_mat, _)) = inst.equalities() {
        for r in 0..e_mat.rows() {
            rows.push(e_mat.row(r).to_vec());
        }
        n_eq_rows = rows.len();
    }
    if let Some((a_mat, b_rhs)) = inst.inequalities() {
        let ax = a_mat.matvec(x).expect("shapes");
        for r in 0..a_mat.rows() {
            let slack = ax[r] - b_rhs[r];
            assert!(
                slack >= -1e-8 * (scale_x + b_rhs[r].abs()),
                "{name}: inequality {r} violated by {:e}",
                -slack
            );
            if slack <= 1e-7 * (scale_x + b_rhs[r].abs()) {
                rows.push(a_mat.row(r).to_vec());
            }
        }
    }

    let grad = &inst.hessian().matvec(x).expect("shapes") + inst.linear();
    let scale_g = 1.0 + inst.hessian().norm_inf() * x.norm_inf() + inst.linear().norm_inf();
    if rows.is_empty() {
        assert!(
            grad.norm_inf() <= 1e-6 * scale_g,
            "{name}: unconstrained gradient {:e}",
            grad.norm_inf()
        );
        return;
    }

    // Minimum-norm multipliers: λ = (C·Cᵀ)⁺·C·g, with the pseudo-inverse
    // taken spectrally so dependent rows (duplicates, sums) are handled.
    let t = rows.len();
    let c_mat = Matrix::from_fn(t, n, |i, j| rows[i][j]);
    let gram = c_mat.matmul(&c_mat.transpose()).expect("shapes");
    let eig = gram.symmetric_eigen().expect("symmetric");
    let lambda_max = eig
        .eigenvalues()
        .iter()
        .fold(0.0f64, |acc, &l| acc.max(l.abs()));
    let cutoff = lambda_max.max(1e-300) * 1e-12;
    let cg = c_mat.matvec(&grad).expect("shapes");
    let vt_cg = eig.eigenvectors().tr_matvec(&cg).expect("shapes");
    let shrunk = Vector::from_fn(t, |i| {
        let l = eig.eigenvalues()[i];
        if l > cutoff {
            vt_cg[i] / l
        } else {
            0.0
        }
    });
    let lam = eig.eigenvectors().matvec(&shrunk).expect("shapes");

    // Stationarity: g = Cᵀλ.
    let resid = &grad - &c_mat.tr_matvec(&lam).expect("shapes");
    assert!(
        resid.norm_inf() <= 1e-6 * scale_g,
        "{name}: stationarity residual {:e} (scale {scale_g:e})",
        resid.norm_inf()
    );
    // Dual feasibility on the inequality multipliers. Minimum-norm
    // multipliers of dependent active rows can redistribute mass, so the
    // sign check is deliberately looser than the stationarity check.
    let lam_scale = 1.0 + lam.norm_inf();
    for i in n_eq_rows..t {
        assert!(
            lam[i] >= -1e-5 * lam_scale,
            "{name}: negative inequality multiplier {:e}",
            lam[i]
        );
    }
}

fn assert_solutions_agree(
    name: &str,
    what: &str,
    a: &cellsync_opt::QpSolution,
    b: &cellsync_opt::QpSolution,
) {
    let scale = 1.0 + a.x.norm_inf().max(b.x.norm_inf());
    let dx = (&a.x - &b.x).norm_inf();
    assert!(
        dx <= 1e-8 * scale,
        "{name} [{what}]: |Δx|∞ = {dx:e} (scale {scale:e})\n  a = {}\n  b = {}",
        a.x,
        b.x
    );
    let dobj = (a.objective - b.objective).abs();
    assert!(
        dobj <= 1e-8 * (1.0 + a.objective.abs()),
        "{name} [{what}]: Δobjective = {dobj:e} ({} vs {})",
        a.objective,
        b.objective
    );
}

#[test]
fn qp_corpus_is_complete_and_canonical() {
    let corpus = load_corpus();
    assert!(
        corpus.len() >= 20,
        "corpus has {} instances, expected >= 20",
        corpus.len()
    );
    let harvested = corpus
        .iter()
        .filter(|(_, inst)| inst.name().starts_with("harvest-"))
        .count();
    assert!(
        harvested >= 4,
        "corpus has {harvested} harvested instances, expected >= 4"
    );
    for (path, inst) in &corpus {
        let on_disk = std::fs::read_to_string(path).expect("readable");
        assert_eq!(
            inst.to_text(),
            on_disk,
            "{path}: committed file is not in canonical form (regenerate with \
             QP_CORPUS_REGEN=1)"
        );
        let stem = PathBuf::from(path);
        let stem = stem
            .file_stem()
            .expect("file name")
            .to_string_lossy()
            .to_string();
        assert_eq!(
            inst.name(),
            stem,
            "{path}: instance name must match file stem"
        );
    }
}

#[test]
fn qp_corpus_backends_agree() {
    let corpus = load_corpus();
    assert!(corpus.len() >= 20, "run with the committed corpus");
    let mut ipm = IpmWorkspace::new();
    for (path, inst) in &corpus {
        let name = inst.name();
        let cold = cold_problem(inst);
        let ipm_sol = ipm
            .solve_qp(&cold)
            .unwrap_or_else(|e| panic!("{path}: ipm failed: {e}"));
        let as_cold = QpWorkspace::new()
            .solve_qp(&cold)
            .unwrap_or_else(|e| panic!("{path}: active-set (cold) failed: {e}"));
        assert_solutions_agree(name, "ipm vs active-set cold", &ipm_sol, &as_cold);
        verify_kkt(name, inst, &ipm_sol.x);
        verify_kkt(name, inst, &as_cold.x);

        // Hinted replay: instances with a warm start carry an active
        // hint; the solve hinted with it must land on the same point as
        // both cold solves.
        if let Some(start) = inst.start() {
            let warm = inst.problem().expect("valid instance");
            let mut active = QpWorkspace::new();
            active.set_warm_start(start.clone(), inst.active().to_vec());
            let as_warm = active
                .solve_qp(&warm)
                .unwrap_or_else(|e| panic!("{path}: active-set (warm) failed: {e}"));
            assert_solutions_agree(name, "warm vs cold", &as_warm, &as_cold);
            verify_kkt(name, inst, &as_warm.x);
        }
    }
}

#[test]
fn qp_backends_reject_degenerate_inputs_identically() {
    let mut ipm = IpmWorkspace::new();
    let mut active = QpWorkspace::new();

    // Non-PD Hessian: structured NotConvex from both, never a panic.
    let h_indef = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
    let c = Vector::zeros(2);
    let problem = QpProblem::new(&h_indef, &c).unwrap();
    for (name, err) in [
        ("active-set", active.solve_qp(&problem).unwrap_err()),
        ("ipm", ipm.solve_qp(&problem).unwrap_err()),
    ] {
        assert!(matches!(err, OptError::NotConvex(_)), "{name}: {err}");
    }

    // Inconsistent (rank-deficient) equality system: Infeasible from both.
    let h = Matrix::identity(2);
    let e_mat = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]).unwrap();
    let e_rhs = Vector::from_slice(&[1.0, 3.0]);
    let problem = QpProblem::new(&h, &c)
        .unwrap()
        .with_equalities(&e_mat, &e_rhs)
        .unwrap();
    for (name, err) in [
        ("active-set", active.solve_qp(&problem).unwrap_err()),
        ("ipm", ipm.solve_qp(&problem).unwrap_err()),
    ] {
        assert!(matches!(err, OptError::Infeasible(_)), "{name}: {err}");
    }

    // Equality/inequality conflict (x₀ = −1 vs x ≥ 0): both report a
    // structured error in bounded time rather than spinning. The dual
    // active set proves it: the violated row is implied by the equality.
    let e_mat = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
    let e_rhs = Vector::from_slice(&[-1.0]);
    let ineq = Matrix::identity(2);
    let zero = Vector::zeros(2);
    let problem = QpProblem::new(&h, &c)
        .unwrap()
        .with_equalities(&e_mat, &e_rhs)
        .unwrap()
        .with_inequalities(&ineq, &zero)
        .unwrap();
    let err = active.solve_qp(&problem).unwrap_err();
    assert!(matches!(err, OptError::Infeasible(_)), "active-set: {err}");
    let err = ipm.solve_qp(&problem).unwrap_err();
    assert!(
        matches!(
            err,
            OptError::Infeasible(_) | OptError::IterationLimit { .. }
        ),
        "ipm: {err}"
    );

    // Duplicated and linearly dependent inequality rows: legal input,
    // both backends must solve (the dual active set never adds a row its
    // working set already implies, the interior-point method never forms
    // a working set at all).
    let c2 = Vector::from_slice(&[1.0, -2.0]);
    let a_dup = Matrix::from_rows(&[
        &[1.0, 0.0],
        &[1.0, 0.0],
        &[0.0, 1.0],
        &[1.0, 1.0], // = row0 + row2
    ])
    .unwrap();
    let b_dup = Vector::zeros(4);
    let problem = QpProblem::new(&h, &c2)
        .unwrap()
        .with_inequalities(&a_dup, &b_dup)
        .unwrap();
    let sol_as = QpWorkspace::new()
        .solve_qp(&problem)
        .expect("active-set handles duplicates");
    let sol_ipm = ipm.solve_qp(&problem).expect("ipm handles duplicates");
    assert_solutions_agree(
        "degenerate-dup-rows",
        "ipm vs active-set",
        &sol_ipm,
        &sol_as,
    );

    // A hint is advisory: its point is not read, and its rows enter
    // first only while violated.
    let mut active = QpWorkspace::new();
    active.set_warm_start(Vector::from_slice(&[-5.0, -5.0]), vec![0, 1]);
    let sol_hinted = active
        .solve_qp(&problem)
        .expect("infeasible hint is ignored");
    assert_solutions_agree(
        "degenerate-bad-hint",
        "hinted vs clean",
        &sol_hinted,
        &sol_as,
    );
}

// ---------------------------------------------------------------------------
// Corpus generation (run manually: QP_CORPUS_REGEN=1 cargo test -q
// --test solver_crosschecks regenerate_qp_corpus -- --ignored).
// ---------------------------------------------------------------------------

/// xorshift64* — deterministic, libm-free pseudo-random stream so the
/// generator reproduces the committed corpus bit-for-bit on any platform.
struct Xorshift(u64);

impl Xorshift {
    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

fn random_spd(n: usize, rng: &mut Xorshift, shift: f64) -> Matrix {
    let a = Matrix::from_fn(n, n, |_, _| rng.next_f64());
    let mut g = a.gram();
    for i in 0..n {
        g[(i, i)] += shift;
    }
    g.symmetrize().expect("square");
    g
}

fn random_vector(n: usize, rng: &mut Xorshift, scale: f64) -> Vector {
    Vector::from_fn(n, |_| rng.next_f64() * scale)
}

/// A smooth rational-kernel design (Cauchy-like, so its Gram matrix is
/// genuinely near-singular without touching libm): rows are measurement
/// times, columns phase nodes.
fn nearsing_hessian(
    n: usize,
    m: usize,
    width: f64,
    ridge: f64,
    rng: &mut Xorshift,
) -> (Matrix, Vector) {
    let design = Matrix::from_fn(m, n, |r, c| {
        let t = r as f64 / (m - 1) as f64;
        let phi = c as f64 / (n - 1) as f64;
        let d = (phi - t) / width;
        1.0 / (1.0 + d * d)
    });
    // Oscillating truth with negative lobes: the positivity bounds bind
    // at the optimum (as in a real deconvolution fit), which pins the
    // near-null directions of the ill-conditioned Gram. A strictly
    // interior optimum on a cond ~ 1e9 Hessian is only numerically
    // determined to ~cond·ε and no two solvers would agree to 1e-8.
    let truth = Vector::from_fn(n, |i| {
        let phi = i as f64 / (n - 1) as f64;
        (2.0 * std::f64::consts::PI * phi).sin() * (1.0 + 0.5 * rng.next_f64()) - 0.3
    });
    let data = design.matvec(&truth).expect("shapes");
    let mut h = design.gram().scaled(2.0);
    for i in 0..n {
        h[(i, i)] += 2.0 * ridge;
    }
    h.symmetrize().expect("square");
    let c = -&design.tr_matvec(&data).expect("shapes").scaled(2.0);
    (h, c)
}

fn synthetic_instances() -> Vec<QpInstance> {
    let mut out = Vec::new();

    // --- clean ---
    out.push(
        QpInstance::new(
            "clean-nw164-2",
            Matrix::identity(2).scaled(2.0),
            Vector::from_slice(&[-2.0, -5.0]),
        )
        .unwrap()
        .with_origin("Nocedal & Wright example 16.4; solution (1.4, 1.7)")
        .unwrap()
        .with_inequalities(
            Matrix::from_rows(&[
                &[1.0, -2.0],
                &[-1.0, -2.0],
                &[-1.0, 2.0],
                &[1.0, 0.0],
                &[0.0, 1.0],
            ])
            .unwrap(),
            Vector::from_slice(&[-2.0, -6.0, -2.0, 0.0, 0.0]),
        )
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "clean-box-4",
            Matrix::from_fn(4, 4, |i, j| if i == j { 2.0 * (i + 1) as f64 } else { 0.0 }),
            Vector::from_slice(&[-2.0, -4.0, 6.0, -16.0]),
        )
        .unwrap()
        .with_origin("separable box QP; solution (1, 1, 0, 2)")
        .unwrap()
        .with_inequalities(Matrix::identity(4), Vector::zeros(4))
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "clean-simplex-3",
            Matrix::identity(3).scaled(2.0),
            Vector::from_slice(&[-1.0, -2.0, -3.0]),
        )
        .unwrap()
        .with_origin("projection onto the probability simplex")
        .unwrap()
        .with_equalities(
            Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap(),
            Vector::from_slice(&[1.0]),
        )
        .unwrap()
        .with_inequalities(Matrix::identity(3), Vector::zeros(3))
        .unwrap(),
    );
    let mut rng = Xorshift(0x5EED_0001);
    out.push(
        QpInstance::new(
            "clean-eq-only-4",
            random_spd(4, &mut rng, 4.0),
            random_vector(4, &mut rng, 3.0),
        )
        .unwrap()
        .with_origin("equality-constrained only: linear KKT system")
        .unwrap()
        .with_equalities(
            Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap(),
            Vector::from_slice(&[1.0]),
        )
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "clean-unconstrained-3",
            random_spd(3, &mut rng, 3.0),
            random_vector(3, &mut rng, 2.0),
        )
        .unwrap()
        .with_origin("unconstrained: exercises the m = 0 fast path")
        .unwrap(),
    );
    let n = 5;
    let a_half = Matrix::from_fn(7, n, |_, _| rng.next_f64());
    let interior = Vector::from_fn(n, |_| 0.3);
    let slacked = a_half.matvec(&interior).expect("shapes");
    let b_half = Vector::from_fn(7, |i| slacked[i] - 0.5);
    out.push(
        QpInstance::new(
            "clean-halfspace-5",
            random_spd(n, &mut rng, 5.0),
            random_vector(n, &mut rng, 4.0),
        )
        .unwrap()
        .with_origin("general half-space constraints with a fat interior")
        .unwrap()
        .with_inequalities(a_half, b_half)
        .unwrap(),
    );

    // --- warm-started ---
    let mut rng = Xorshift(0x5EED_0002);
    out.push(
        QpInstance::new(
            "warm-simplex-5",
            random_spd(5, &mut rng, 5.0),
            random_vector(5, &mut rng, 3.0),
        )
        .unwrap()
        .with_origin("simplex projection with an interior warm start")
        .unwrap()
        .with_equalities(
            Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0, 1.0]]).unwrap(),
            Vector::from_slice(&[1.0]),
        )
        .unwrap()
        .with_inequalities(Matrix::identity(5), Vector::zeros(5))
        .unwrap()
        .with_start(Vector::from_slice(&[0.25, 0.25, 0.25, 0.125, 0.125]))
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "warm-box-6",
            random_spd(6, &mut rng, 6.0),
            Vector::from_slice(&[4.0, -2.0, 3.0, -5.0, -1.0, 2.0]),
        )
        .unwrap()
        .with_origin("box QP warm-started on a face with an active-set hint")
        .unwrap()
        .with_inequalities(Matrix::identity(6), Vector::zeros(6))
        .unwrap()
        .with_start(Vector::from_slice(&[0.0, 1.0, 0.0, 2.0, 0.5, 0.0]))
        .unwrap()
        .with_active(vec![0, 2, 5])
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "warm-vertex-4",
            random_spd(4, &mut rng, 4.0),
            random_vector(4, &mut rng, 3.0),
        )
        .unwrap()
        .with_origin("warm start exactly on a constraint vertex")
        .unwrap()
        .with_inequalities(
            Matrix::from_rows(&[
                &[1.0, 0.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0, 0.0],
                &[1.0, 1.0, 1.0, 1.0],
                &[0.0, 0.0, 1.0, 0.0],
            ])
            .unwrap(),
            Vector::from_slice(&[0.0, 0.0, 1.0, 0.0]),
        )
        .unwrap()
        .with_start(Vector::from_slice(&[0.0, 0.0, 1.0, 0.0]))
        .unwrap()
        .with_active(vec![0, 1, 2])
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "warm-interior-4",
            random_spd(4, &mut rng, 4.0),
            random_vector(4, &mut rng, 2.0),
        )
        .unwrap()
        .with_origin("warm start strictly inside the feasible region")
        .unwrap()
        .with_inequalities(Matrix::identity(4), Vector::zeros(4))
        .unwrap()
        .with_start(Vector::from_slice(&[1.0, 1.0, 1.0, 1.0]))
        .unwrap(),
    );

    // --- rank-deficient constraint blocks ---
    let mut rng = Xorshift(0x5EED_0003);
    out.push(
        QpInstance::new(
            "rankdef-dup-ineq-4",
            random_spd(4, &mut rng, 4.0),
            random_vector(4, &mut rng, 3.0),
        )
        .unwrap()
        .with_origin("duplicated inequality rows (working-set parking on the active-set path)")
        .unwrap()
        .with_inequalities(
            Matrix::from_rows(&[
                &[1.0, 0.0, 0.0, 0.0],
                &[1.0, 0.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0, 0.0],
                &[0.0, 0.0, 1.0, 0.0],
                &[0.0, 0.0, 1.0, 0.0],
                &[0.0, 0.0, 0.0, 1.0],
            ])
            .unwrap(),
            Vector::zeros(6),
        )
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "rankdef-sumrow-5",
            random_spd(5, &mut rng, 5.0),
            random_vector(5, &mut rng, 4.0),
        )
        .unwrap()
        .with_origin("inequality block contains the sum of two other rows")
        .unwrap()
        .with_inequalities(
            Matrix::from_rows(&[
                &[1.0, 0.0, 0.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0, 0.0, 0.0],
                &[1.0, 1.0, 0.0, 0.0, 0.0],
                &[0.0, 0.0, 1.0, 0.0, 0.0],
                &[0.0, 0.0, 0.0, 1.0, 1.0],
            ])
            .unwrap(),
            Vector::zeros(5),
        )
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "rankdef-dup-eq-3",
            random_spd(3, &mut rng, 3.0),
            random_vector(3, &mut rng, 2.0),
        )
        .unwrap()
        .with_origin(
            "duplicated consistent equality rows; start supplied because the \
                      active-set phase-1 rejects singular equality Gram systems",
        )
        .unwrap()
        .with_equalities(
            Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]]).unwrap(),
            Vector::from_slice(&[1.5, 3.0]),
        )
        .unwrap()
        .with_inequalities(Matrix::identity(3), Vector::zeros(3))
        .unwrap()
        .with_start(Vector::from_slice(&[0.5, 0.5, 0.5]))
        .unwrap(),
    );
    out.push(
        QpInstance::new(
            "rankdef-wide-eq-4",
            random_spd(4, &mut rng, 4.0),
            random_vector(4, &mut rng, 2.0),
        )
        .unwrap()
        .with_origin("three equality rows of rank two (third = first + second), consistent")
        .unwrap()
        .with_equalities(
            Matrix::from_rows(&[
                &[1.0, 0.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0, 0.0],
                &[1.0, 1.0, 0.0, 0.0],
            ])
            .unwrap(),
            Vector::from_slice(&[0.25, 0.25, 0.5]),
        )
        .unwrap()
        .with_inequalities(Matrix::identity(4), Vector::zeros(4))
        .unwrap()
        .with_start(Vector::from_slice(&[0.25, 0.25, 0.25, 0.25]))
        .unwrap(),
    );

    // --- near-singular Hessians (the deconvolution regime) ---
    let mut rng = Xorshift(0x5EED_0004);
    let (h, c) = nearsing_hessian(10, 9, 0.18, 1e-9, &mut rng);
    out.push(
        QpInstance::new("nearsing-gram-10", h, c)
            .unwrap()
            .with_origin("smooth rational-kernel Gram + 1e-9 ridge, cond ~ 1e9")
            .unwrap()
            .with_inequalities(Matrix::identity(10), Vector::zeros(10))
            .unwrap(),
    );
    let (h, c) = nearsing_hessian(12, 10, 0.25, 1e-9, &mut rng);
    out.push(
        QpInstance::new("nearsing-gram-eq-12", h, c)
            .unwrap()
            .with_origin("near-singular Gram with a conservation-style sum equality")
            .unwrap()
            .with_equalities(
                Matrix::from_fn(1, 12, |_, _| 1.0),
                Vector::from_slice(&[12.0]),
            )
            .unwrap()
            .with_inequalities(Matrix::identity(12), Vector::zeros(12))
            .unwrap(),
    );
    let hilbert = {
        let mut h = Matrix::from_fn(8, 8, |i, j| 1.0 / (i + j + 1) as f64);
        for i in 0..8 {
            h[(i, i)] += 8.0 * 1e-9;
        }
        h.symmetrize().expect("square");
        h
    };
    out.push(
        QpInstance::new(
            "nearsing-hilbert-8",
            hilbert,
            random_vector(8, &mut rng, 1.0),
        )
        .unwrap()
        .with_origin("ridged Hilbert matrix, cond ~ 1e8")
        .unwrap()
        .with_inequalities(Matrix::identity(8), Vector::zeros(8))
        .unwrap(),
    );
    let (h, c) = nearsing_hessian(9, 14, 0.12, 1e-8, &mut rng);
    out.push(
        QpInstance::new("nearsing-halfspace-9", h, c)
            .unwrap()
            .with_origin("near-singular Gram with mixed box and sum half-spaces")
            .unwrap()
            .with_inequalities(
                {
                    let mut rows: Vec<Vec<f64>> = (0..9)
                        .map(|i| (0..9).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
                        .collect();
                    rows.push(vec![1.0; 9]);
                    Matrix::from_fn(10, 9, |i, j| rows[i][j])
                },
                Vector::from_fn(10, |i| if i == 9 { 2.0 } else { 0.0 }),
            )
            .unwrap()
            // The origin violates the sum ≥ 2 half-space and the
            // active-set backend has no inequality phase-1.
            .with_start(Vector::from_fn(9, |_| 0.5))
            .unwrap(),
    );

    out
}

fn harvested_instances() -> Vec<QpInstance> {
    let mut out = Vec::new();

    // 1. GCV-selected λ, positivity only — the paper's default fit shape.
    let k = kernel(11);
    let truth =
        PhaseProfile::from_fn(200, |phi| 1.5 + (2.0 * std::f64::consts::PI * phi).cos()).unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let deconv = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(10)
            .build()
            .unwrap(),
    )
    .unwrap();
    out.push(deconv.harvest_qp(&g, None, "harvest-gcv-pos-10").unwrap());

    // 2. Fixed λ with the RNA-conservation equality row.
    let k = kernel(12);
    let truth = PhaseProfile::from_fn(200, |phi| 2.0 + phi * (1.0 - phi)).unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let deconv = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(8)
            .conservation(true)
            .lambda(1e-4)
            .build()
            .unwrap(),
    )
    .unwrap();
    out.push(deconv.harvest_qp(&g, None, "harvest-fixed-cons-8").unwrap());

    // 3. Heteroscedastic weights (σ growing along the series).
    let k = kernel(13);
    let truth = PhaseProfile::from_fn(200, |phi| 1.0 + (3.0 * phi).sin().abs()).unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let sigmas: Vec<f64> = (0..g.len()).map(|i| 0.5 + 0.1 * i as f64).collect();
    let deconv = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(12)
            .lambda(1e-5)
            .build()
            .unwrap(),
    )
    .unwrap();
    out.push(
        deconv
            .harvest_qp(&g, Some(&sigmas), "harvest-weighted-12")
            .unwrap(),
    );

    // 4. Both division equalities (conservation + rate continuity).
    let k = kernel(14);
    let truth = PhaseProfile::from_fn(200, |phi| {
        1.2 + 0.8 * (2.0 * std::f64::consts::PI * phi).sin()
    })
    .unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let deconv = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(9)
            .conservation(true)
            .rate_continuity(true)
            .lambda(3e-4)
            .build()
            .unwrap(),
    )
    .unwrap();
    out.push(deconv.harvest_qp(&g, None, "harvest-div-eqs-9").unwrap());

    // 5. Light smoothing on a rich basis: the most ill-conditioned shape
    // a production fit produces.
    let k = kernel(15);
    let truth = PhaseProfile::from_fn(200, |phi| 1.0 + 2.0 * phi).unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let deconv = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(14)
            .lambda(1e-7)
            .build()
            .unwrap(),
    )
    .unwrap();
    out.push(deconv.harvest_qp(&g, None, "harvest-lowreg-14").unwrap());

    // 6–8. Genome-scale shapes: the QP the positivity fallback solves
    // at production basis sizes.
    // `harvest_qp` densifies after the fit, so the committed instances
    // exercise both backends at n ≥ 128.

    // 6. GCV-selected λ, positivity only, at the banded threshold.
    // Deterministic noise keeps the GCV minimum in the grid interior —
    // noise-free series drive λ to the floor and leave the reassembled
    // Hessian numerically indefinite at n = 128.
    let k = kernel(16);
    let truth = PhaseProfile::from_fn(200, |phi| {
        (1.8 * (2.0 * std::f64::consts::PI * phi).sin() - 0.4).max(0.0)
    })
    .unwrap();
    let g: Vec<f64> = ForwardModel::new(k.clone())
        .predict(&truth)
        .unwrap()
        .iter()
        .enumerate()
        .map(|(i, v)| v + 0.05 * (i as f64 * 1.9).sin())
        .collect();
    let deconv = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(128)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -5.0,
                log10_max: 0.0,
                points: 7,
            })
            .build()
            .unwrap(),
    )
    .unwrap();
    out.push(
        deconv
            .harvest_qp(&g, None, "harvest-banded-gcv-128")
            .unwrap(),
    );

    // 7. Fixed λ with the conservation equality through the banded
    // equality (range-space) block.
    let k = kernel(17);
    let truth =
        PhaseProfile::from_fn(200, |phi| (2.5 * (0.5 - (phi - 0.4).abs())).max(0.0)).unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let deconv = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(144)
            .conservation(true)
            .lambda(1e-4)
            .build()
            .unwrap(),
    )
    .unwrap();
    out.push(
        deconv
            .harvest_qp(&g, None, "harvest-banded-cons-144")
            .unwrap(),
    );

    // 8. Heteroscedastic weights on the richest committed basis.
    let k = kernel(18);
    let truth = PhaseProfile::from_fn(200, |phi| {
        ((4.0 * std::f64::consts::PI * phi).cos() * 1.2 - 0.2).max(0.0)
    })
    .unwrap();
    let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
    let sigmas: Vec<f64> = (0..g.len()).map(|i| 0.4 + 0.08 * i as f64).collect();
    let deconv = Deconvolver::new(
        k,
        DeconvolutionConfig::builder()
            .basis_size(160)
            .lambda(1e-5)
            .build()
            .unwrap(),
    )
    .unwrap();
    out.push(
        deconv
            .harvest_qp(&g, Some(&sigmas), "harvest-banded-weighted-160")
            .unwrap(),
    );

    out
}

/// Regenerates the committed corpus. Ignored by default: run once with
/// `QP_CORPUS_REGEN=1 cargo test --test solver_crosschecks -- --ignored
/// regenerate_qp_corpus` and commit the result. The generator is fully
/// deterministic (xorshift streams + seeded population sims).
#[test]
#[ignore = "writes tests/fixtures/qp_corpus; run explicitly with QP_CORPUS_REGEN=1"]
fn regenerate_qp_corpus() {
    if std::env::var("QP_CORPUS_REGEN").is_err() {
        eprintln!("QP_CORPUS_REGEN not set; refusing to rewrite the committed corpus");
        return;
    }
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let mut instances = synthetic_instances();
    instances.extend(harvested_instances());
    let mut ipm = IpmWorkspace::new();
    for inst in &instances {
        // Refuse to commit an instance the differential suite would
        // reject: both backends must solve it cold, in agreement.
        let cold = cold_problem(inst);
        let a = ipm
            .solve_qp(&cold)
            .unwrap_or_else(|e| panic!("{}: ipm: {e}", inst.name()));
        let b = QpWorkspace::new()
            .solve_qp(&cold)
            .unwrap_or_else(|e| panic!("{}: active-set: {e}", inst.name()));
        eprintln!(
            "{}: ipm obj {:.15e} ({} it), active-set obj {:.15e} ({} it)",
            inst.name(),
            a.objective,
            a.iterations,
            b.objective,
            b.iterations
        );
        assert_solutions_agree(inst.name(), "regen sanity", &a, &b);
        let text = inst.to_text();
        assert_eq!(
            QpInstance::parse(&text).expect("round trip").to_text(),
            text,
            "{}: writer is not canonical",
            inst.name()
        );
        std::fs::write(dir.join(format!("{}.qp", inst.name())), text).expect("write instance");
    }
    eprintln!(
        "wrote {} corpus instances to {}",
        instances.len(),
        dir.display()
    );
}
