//! Descriptive statistics over slices of `f64`.

use crate::{Result, StatsError};

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] for empty input.
///
/// # Example
///
/// ```
/// use cellsync_stats::describe::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0])?, 2.0);
/// # Ok::<(), cellsync_stats::StatsError>(())
/// ```
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`).
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] for empty input.
pub fn variance(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64)
}

/// Empirical quantile by linear interpolation of order statistics
/// (type-7 / NumPy default).
///
/// # Errors
///
/// * [`StatsError::EmptySample`] for empty input.
/// * [`StatsError::InvalidProbability`] for `p` outside `[0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidProbability(p));
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in quantile input"));
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Ok(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median (50 % quantile).
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] for empty input.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert_eq!(variance(&xs).unwrap(), 4.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]).unwrap(), 3.0);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&xs, 0.5).unwrap(), 5.0);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0], 1.5).is_err());
    }
}
