//! The owned request/response surface of the fit API.
//!
//! [`FitRequest`] bundles everything one deconvolution job needs — the
//! series, optional per-measurement sigmas, an optional λ override, and
//! optional bootstrap options — into a single owned value that can be
//! built programmatically, decoded off a wire, queued, and batched.
//! [`crate::Deconvolver::fit_request`] is the one entry point every other
//! fit method (`fit`, `fit_with`, `fit_many`, `fit_bootstrap`) delegates
//! to, so input validation lives in exactly one place
//! (`Deconvolver::validate_request`).

use crate::{BootstrapBand, CancelToken, DeconvolutionResult};

/// Bootstrap options riding on a [`FitRequest`]: how many replicates,
/// the band's phase-grid resolution, and the RNG seed.
///
/// The engine accepts `1 ≤ replicates ≤` [`BootstrapSpec::MAX_REPLICATES`]
/// and `2 ≤ grid ≤` [`BootstrapSpec::MAX_GRID`]. The caps bound the
/// replicate profiles a band holds (at most 10⁷ values, 80 MB), so a
/// request cannot make the engine ask for an allocation the process
/// cannot survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapSpec {
    replicates: usize,
    grid: usize,
    seed: u64,
}

impl BootstrapSpec {
    /// The largest accepted replicate count.
    pub const MAX_REPLICATES: usize = 10_000;

    /// The largest accepted phase-grid resolution.
    pub const MAX_GRID: usize = 1_000;

    /// Builds a bootstrap spec. Values are validated by the engine at
    /// fit time ([`crate::Deconvolver::fit_request`]): the limits above,
    /// and the request must carry sigmas.
    pub fn new(replicates: usize, grid: usize, seed: u64) -> Self {
        BootstrapSpec {
            replicates,
            grid,
            seed,
        }
    }

    /// Number of bootstrap replicates.
    pub fn replicates(&self) -> usize {
        self.replicates
    }

    /// Phase-grid resolution of the returned band.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Seed of the replicate noise streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// One deconvolution job, owned: the measurements plus every per-request
/// option. The config-family half of the job (kernel, basis, constraint
/// set, λ-selection strategy) lives in the engine — requests carry only
/// what varies per series, which is what makes same-engine requests
/// batchable ([`crate::Deconvolver::fit_many`]) and cacheable
/// ([`crate::session::EngineCache`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FitRequest {
    series: Vec<f64>,
    sigmas: Option<Vec<f64>>,
    lambda_override: Option<f64>,
    bootstrap: Option<BootstrapSpec>,
    cancel: Option<CancelToken>,
}

impl FitRequest {
    /// Starts a request from population measurements `G(t_m)`.
    pub fn new(series: Vec<f64>) -> Self {
        FitRequest {
            series,
            sigmas: None,
            lambda_override: None,
            bootstrap: None,
            cancel: None,
        }
    }

    /// Attaches per-measurement standard deviations σₘ (same length as
    /// the series; validated at fit time).
    #[must_use]
    pub fn with_sigmas(mut self, sigmas: Vec<f64>) -> Self {
        self.sigmas = Some(sigmas);
        self
    }

    /// Forces the smoothing parameter to `lambda`, skipping the engine's
    /// λ selection for this request only (the engine's precomputed
    /// structures are still reused).
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda_override = Some(lambda);
        self
    }

    /// Requests a parametric-bootstrap uncertainty band alongside the
    /// point fit (requires sigmas).
    #[must_use]
    pub fn with_bootstrap(mut self, spec: BootstrapSpec) -> Self {
        self.bootstrap = Some(spec);
        self
    }

    /// Attaches a cooperative cancellation token (typically deadline-
    /// backed). The engine polls it between λ-grid points, bootstrap
    /// replicates, and QP outer iterations; once it fires, the fit
    /// returns [`crate::DeconvError::DeadlineExceeded`] at the next poll.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The cancellation token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The measurements.
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// The per-measurement standard deviations, if any.
    pub fn sigmas(&self) -> Option<&[f64]> {
        self.sigmas.as_deref()
    }

    /// The λ override, if any.
    pub fn lambda_override(&self) -> Option<f64> {
        self.lambda_override
    }

    /// The bootstrap options, if any.
    pub fn bootstrap(&self) -> Option<&BootstrapSpec> {
        self.bootstrap.as_ref()
    }
}

/// The outcome of a [`FitRequest`]: the point fit, plus the bootstrap
/// band when the request asked for one.
#[derive(Debug, Clone)]
pub struct FitResponse {
    result: DeconvolutionResult,
    band: Option<BootstrapBand>,
}

impl FitResponse {
    pub(crate) fn new(result: DeconvolutionResult, band: Option<BootstrapBand>) -> Self {
        FitResponse { result, band }
    }

    /// The point fit.
    pub fn result(&self) -> &DeconvolutionResult {
        &self.result
    }

    /// The bootstrap band, when requested.
    pub fn band(&self) -> Option<&BootstrapBand> {
        self.band.as_ref()
    }

    /// Consumes the response into `(point fit, optional band)`.
    pub fn into_parts(self) -> (DeconvolutionResult, Option<BootstrapBand>) {
        (self.result, self.band)
    }

    /// Consumes the response into the point fit, discarding any band.
    pub fn into_result(self) -> DeconvolutionResult {
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accessors_round_trip() {
        let req = FitRequest::new(vec![1.0, 2.0])
            .with_sigmas(vec![0.1, 0.2])
            .with_lambda(1e-3)
            .with_bootstrap(BootstrapSpec::new(30, 50, 7));
        assert_eq!(req.series(), &[1.0, 2.0]);
        assert_eq!(req.sigmas(), Some(&[0.1, 0.2][..]));
        assert_eq!(req.lambda_override(), Some(1e-3));
        let b = req.bootstrap().unwrap();
        assert_eq!((b.replicates(), b.grid(), b.seed()), (30, 50, 7));
    }

    #[test]
    fn defaults_are_empty() {
        let req = FitRequest::new(vec![1.0]);
        assert!(req.sigmas().is_none());
        assert!(req.lambda_override().is_none());
        assert!(req.bootstrap().is_none());
    }
}
