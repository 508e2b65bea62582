//! Reconstruction-quality metrics.
//!
//! EXPERIMENTS.md reports every figure reproduction as paper-vs-measured;
//! these metrics quantify how closely a deconvolved profile matches the
//! known synchronous truth (root-mean-square error, correlation, and
//! relative error of recovered parameters).

use crate::{Result, StatsError};

fn check_pair(a: &[f64], b: &[f64]) -> Result<()> {
    if a.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(())
}

/// Root-mean-square error between paired samples.
///
/// # Errors
///
/// [`StatsError::EmptySample`] / [`StatsError::LengthMismatch`].
///
/// # Example
///
/// ```
/// use cellsync_stats::metrics::rmse;
/// assert_eq!(rmse(&[0.0, 0.0], &[3.0, 4.0])?, (12.5f64).sqrt());
/// # Ok::<(), cellsync_stats::StatsError>(())
/// ```
pub fn rmse(truth: &[f64], estimate: &[f64]) -> Result<f64> {
    check_pair(truth, estimate)?;
    let ss: f64 = truth
        .iter()
        .zip(estimate)
        .map(|(t, e)| (t - e).powi(2))
        .sum();
    Ok((ss / truth.len() as f64).sqrt())
}

/// RMSE normalized by the range of the truth (NRMSE), dimensionless.
///
/// # Errors
///
/// Propagates [`rmse`] errors; [`StatsError::InvalidParameter`] when the
/// truth is constant (zero range).
pub fn nrmse(truth: &[f64], estimate: &[f64]) -> Result<f64> {
    let r = rmse(truth, estimate)?;
    let lo = truth.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = truth.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = hi - lo;
    if range <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "truth range",
            value: range,
        });
    }
    Ok(r / range)
}

/// Pearson correlation coefficient.
///
/// # Errors
///
/// [`StatsError::EmptySample`] / [`StatsError::LengthMismatch`];
/// [`StatsError::InvalidParameter`] when either sample is constant.
///
/// # Example
///
/// ```
/// use cellsync_stats::metrics::pearson;
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0])?;
/// assert!((r - 1.0).abs() < 1e-12);
/// # Ok::<(), cellsync_stats::StatsError>(())
/// ```
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64> {
    check_pair(a, b)?;
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va == 0.0 || vb == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "variance",
            value: 0.0,
        });
    }
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

/// Relative error `|est − truth| / |truth|` of a scalar quantity
/// (used for parameter-recovery comparisons, paper §5).
///
/// # Errors
///
/// [`StatsError::InvalidParameter`] when `truth == 0`.
pub fn relative_error(truth: f64, estimate: f64) -> Result<f64> {
    if truth == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "truth",
            value: 0.0,
        });
    }
    Ok((estimate - truth).abs() / truth.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_known() {
        let t = [1.0, 2.0, 3.0];
        let e = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&t, &e).unwrap(), 0.0);
        let e2 = [2.0, 3.0, 4.0];
        assert_eq!(rmse(&t, &e2).unwrap(), 1.0);
    }

    #[test]
    fn nrmse_scales_by_range() {
        let t = [0.0, 10.0];
        let e = [1.0, 10.0];
        assert!((nrmse(&t, &e).unwrap() - (0.5f64).sqrt() / 10.0).abs() < 1e-12);
        assert!(nrmse(&[5.0, 5.0], &[5.0, 5.0]).is_err());
    }

    #[test]
    fn pearson_known() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error(2.0, 3.0).unwrap(), 0.5);
        assert!(relative_error(0.0, 1.0).is_err());
    }

    #[test]
    fn mismatches_rejected() {
        assert!(rmse(&[1.0], &[1.0, 2.0]).is_err());
        assert!(rmse(&[], &[]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
    }
}
