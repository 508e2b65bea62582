//! K-fold cross-validation index splitting.
//!
//! The smoothing parameter λ of the deconvolution cost (paper eq. 5) "may be
//! selected via cross validation" (Craven & Wahba 1978). The deconvolver in
//! `cellsync` refits the spline on `k − 1` folds of the population
//! measurements and scores the held-out fold; this module produces the
//! deterministic, seeded fold assignments.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Result, StatsError};

/// One train/validation split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Indices used for fitting.
    pub train: Vec<usize>,
    /// Indices held out for scoring.
    pub validation: Vec<usize>,
}

/// Splits `n` sample indices into `k` folds.
///
/// Indices are shuffled with the supplied RNG, then dealt round-robin so
/// fold sizes differ by at most one. Every index appears in exactly one
/// validation set.
///
/// # Errors
///
/// Returns [`StatsError::InvalidFolds`] when `k < 2` or `k > n`.
///
/// # Example
///
/// ```
/// use cellsync_stats::crossval::k_fold;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), cellsync_stats::StatsError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let folds = k_fold(10, 5, &mut rng)?;
/// assert_eq!(folds.len(), 5);
/// for f in &folds {
///     assert_eq!(f.validation.len(), 2);
///     assert_eq!(f.train.len(), 8);
/// }
/// # Ok(())
/// # }
/// ```
pub fn k_fold<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Result<Vec<Fold>> {
    if k < 2 || k > n {
        return Err(StatsError::InvalidFolds {
            folds: k,
            samples: n,
        });
    }
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(rng);
    let mut assignments = vec![0usize; n];
    for (pos, &idx) in indices.iter().enumerate() {
        assignments[idx] = pos % k;
    }
    let mut folds = Vec::with_capacity(k);
    for fold_id in 0..k {
        let mut train = Vec::with_capacity(n - n / k);
        let mut validation = Vec::with_capacity(n / k + 1);
        for (idx, &a) in assignments.iter().enumerate() {
            if a == fold_id {
                validation.push(idx);
            } else {
                train.push(idx);
            }
        }
        folds.push(Fold { train, validation });
    }
    Ok(folds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partition_is_exact() {
        let mut rng = StdRng::seed_from_u64(42);
        let folds = k_fold(17, 4, &mut rng).unwrap();
        assert_eq!(folds.len(), 4);
        let mut seen = [0usize; 17];
        for f in &folds {
            for &i in &f.validation {
                seen[i] += 1;
            }
            // train + validation = all indices
            let mut all: Vec<usize> = f.train.iter().chain(&f.validation).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..17).collect::<Vec<_>>());
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn fold_sizes_balanced() {
        let mut rng = StdRng::seed_from_u64(7);
        let folds = k_fold(10, 3, &mut rng).unwrap();
        let sizes: Vec<usize> = folds.iter().map(|f| f.validation.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = k_fold(12, 3, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = k_fold(12, 3, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = k_fold(20, 4, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = k_fold(20, 4, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn invalid_configurations() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(k_fold(5, 1, &mut rng).is_err());
        assert!(k_fold(3, 4, &mut rng).is_err());
    }
}
