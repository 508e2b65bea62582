//! # cellsync — in silico synchronization of cellular populations
//!
//! A Rust implementation of the expression-data deconvolution method of
//! Eisenberg, Ash & Siegal-Gaskins, *"In Silico Synchronization of Cellular
//! Populations Through Expression Data Deconvolution"* (2011), building on
//! Siegal-Gaskins, Ash & Crosson (*PLoS Comput Biol* 2009).
//!
//! ## The problem
//!
//! Population-level expression measurements average over cells at different
//! cell-cycle phases (*asynchronous variability*). The measured
//! concentration is an integral transform of the true synchronous
//! single-cell profile `f(φ)`:
//!
//! ```text
//! G(t) = ∫ Q(φ, t) · f(φ) dφ                            (paper eq. 3)
//! ```
//!
//! where the kernel `Q(φ, t)` — the fraction of total population volume at
//! phase φ at time t — comes from an agent-based *Caulobacter* population
//! model (the [`cellsync_popsim`] crate). Deconvolution inverts this
//! transform from a handful of noisy measurements by representing `f` as a
//! natural cubic spline (eq. 4) and minimizing the regularized weighted
//! least-squares cost (eq. 5)
//!
//! ```text
//! C(λ) = Σₘ (G(tₘ) − Ĝ(tₘ))²/σₘ² + λ∫f''(φ)²dφ
//! ```
//!
//! subject to positivity, RNA conservation across division, and — new in
//! the 2011 paper — continuity of the transcript production rate across
//! division (eqs. 12–19), with the smooth cell-volume model of eq. 11.
//!
//! ## Crate layout
//!
//! * [`PhaseProfile`] — a phase-indexed expression profile on `φ ∈ [0, 1]`.
//! * [`ForwardModel`] — applies eq. 3: profile → population series; also
//!   builds the spline design matrix `A[m,i] = ∫Q(φ,tₘ)ψᵢ(φ)dφ`.
//! * [`constraints`] — the equality-constraint functionals of §2.3 / §3.2.
//! * [`DeconvolutionConfig`] / [`Deconvolver`] — the constrained QP fit
//!   with GCV or k-fold cross-validated λ. The engine factors the
//!   penalty's interior block once (banded) and moves the λ scan into
//!   measurement space, so each λ of the GCV path costs a shrinkage of
//!   the m eigenvalues of one series instead of a factorization
//!   (`docs/SOLVER.md` derives the trick).
//! * [`FitWorkspace`] — reusable per-thread fit scratch: buffers, a
//!   weighted series' eigenbasis, and the QP workspace that
//!   [`Deconvolver::fit_many`] / [`Deconvolver::fit_bootstrap`] hand to
//!   each pool worker.
//! * [`synthetic`] — ground-truth generators (ftsZ-like profile, LV
//!   oscillator profiles) and the simulated-experiment harness used by the
//!   Fig. 2/3/5 reproductions.
//! * [`paramfit`] — the §5 application: estimating single-cell ODE
//!   parameters from deconvolved vs raw population data.
//! * [`scenario`] — the accuracy harness's scenario space: noise ×
//!   desynchronization × sampling × kernel-mismatch specifications run
//!   end to end and scored (NRMSE, phase error, band coverage), plus
//!   the K-component mixture cells (balanced, rare-fraction,
//!   unknown-component compositions).
//! * [`mixture`] — K-component mixture fits: the engine's λ rule and
//!   constrained QP on the stacked design of K reference kernels,
//!   returning per-component profiles and estimated mixing fractions.
//!
//! ## Quickstart
//!
//! ```
//! use cellsync::{Deconvolver, DeconvolutionConfig, ForwardModel, PhaseProfile};
//! use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), cellsync::DeconvError> {
//! // 1. Simulate the population asynchrony and estimate the kernel.
//! let params = CellCycleParams::caulobacter()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let pop = Population::synchronized(
//!     2_000, &params, InitialCondition::UniformSwarmer, &mut rng,
//! )?.simulate_until(150.0)?;
//! let times: Vec<f64> = (0..=10).map(|i| i as f64 * 15.0).collect();
//! let kernel = KernelEstimator::new(64)?.estimate(&pop, &times)?;
//!
//! // 2. Forward-convolve a known synchronous profile into population data.
//! let truth = PhaseProfile::from_fn(200, |phi| 1.0 + (std::f64::consts::PI * phi).sin())?;
//! let forward = ForwardModel::new(kernel.clone());
//! let population_series = forward.predict(&truth)?;
//!
//! // 3. Deconvolve it back.
//! let config = DeconvolutionConfig::builder()
//!     .basis_size(12)
//!     .lambda(1e-4)
//!     .build()?;
//! let result = Deconvolver::new(kernel, config)?.fit(&population_series, None)?;
//! let recovered = result.profile(200)?;
//! assert!(truth.rmse(&recovered)? < 0.2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod banded;
mod config;
pub mod constraints;
mod deconvolve;
#[cfg(test)]
mod differential;
mod error;
mod forward;
pub mod mixture;
mod operators;
pub mod paramfit;
mod profile;
mod request;
pub mod scenario;
pub mod session;
mod solver;
pub mod synthetic;

pub use cellsync_runtime::CancelToken;
pub use config::{DeconvolutionConfig, DeconvolutionConfigBuilder, LambdaSelection};
pub use deconvolve::{BootstrapBand, DeconvolutionResult, Deconvolver};
pub use error::DeconvError;
pub use forward::ForwardModel;
pub use profile::{PhaseProfile, ProfileFeatures};
pub use request::{BootstrapSpec, FitRequest, FitResponse};
pub use solver::FitWorkspace;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, DeconvError>;
