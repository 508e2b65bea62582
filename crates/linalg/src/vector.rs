//! Dense vectors of `f64` with the arithmetic needed by the deconvolution
//! pipeline.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::{LinalgError, Result};

/// A dense column vector of `f64` values.
///
/// `Vector` is a thin, validated wrapper around `Vec<f64>` providing the dot
/// products, norms and element-wise arithmetic used throughout the workspace.
///
/// # Example
///
/// ```
/// use cellsync_linalg::Vector;
///
/// let v = Vector::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm2(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` copies of `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector by evaluating `f` at `0..len`.
    pub fn from_fn<F: FnMut(usize) -> f64>(len: usize, f: F) -> Self {
        Vector {
            data: (0..len).map(f).collect(),
        }
    }

    /// Creates a vector of `n` points spaced evenly over `[start, end]`
    /// (inclusive on both ends).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] when `n < 2` or the bounds
    /// are not finite.
    pub fn linspace(start: f64, end: f64, n: usize) -> Result<Self> {
        if n < 2 {
            return Err(LinalgError::InvalidArgument("linspace requires n >= 2"));
        }
        if !start.is_finite() || !end.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "linspace bounds must be finite",
            ));
        }
        let step = (end - start) / (n - 1) as f64;
        Ok(Vector::from_fn(n, |i| {
            if i == n - 1 {
                end
            } else {
                start + step * i as f64
            }
        }))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A borrowed view of the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                left: (self.len(), 1),
                right: (other.len(), 1),
                op: "dot",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        // Scaled accumulation avoids overflow for large entries.
        let maxabs = self.norm_inf();
        if maxabs == 0.0 || !maxabs.is_finite() {
            return maxabs;
        }
        let mut sum = 0.0;
        for &x in &self.data {
            let r = x / maxabs;
            sum += r * r;
        }
        maxabs * sum.sqrt()
    }

    /// Maximum absolute value (infinity norm); `0.0` for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean; `0.0` for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Smallest element; `None` for the empty vector.
    pub fn min(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::min)
    }

    /// Largest element; `None` for the empty vector.
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::max)
    }

    /// Element-wise map producing a new vector.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> Vector {
        Vector {
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Scales the vector in place.
    pub fn scale_in_place(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, factor: f64) -> Vector {
        self.map(|x| x * factor)
    }

    /// `self + factor * other`, the BLAS `axpy` kernel.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when lengths differ.
    pub fn axpy(&self, factor: f64, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                left: (self.len(), 1),
                right: (other.len(), 1),
                op: "axpy",
            });
        }
        Ok(Vector::from_fn(self.len(), |i| {
            self.data[i] + factor * other.data[i]
        }))
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;

    /// # Panics
    ///
    /// Panics when the lengths differ; use [`Vector::axpy`] for a fallible
    /// alternative.
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector add: length mismatch");
        Vector::from_fn(self.len(), |i| self[i] + rhs[i])
    }
}

impl Sub for &Vector {
    type Output = Vector;

    /// # Panics
    ///
    /// Panics when the lengths differ.
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector sub: length mismatch");
        Vector::from_fn(self.len(), |i| self[i] - rhs[i])
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.map(|x| -x)
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl AddAssign<&Vector> for Vector {
    /// # Panics
    ///
    /// Panics when the lengths differ.
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector add_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    /// # Panics
    ///
    /// Panics when the lengths differ.
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector sub_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        assert_eq!(Vector::zeros(3).len(), 3);
        assert_eq!(Vector::filled(2, 7.0).as_slice(), &[7.0, 7.0]);
        assert!(Vector::zeros(0).is_empty());
        let v = Vector::from_fn(4, |i| i as f64);
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn linspace_endpoints_exact() {
        let v = Vector::linspace(0.0, 1.0, 11).unwrap();
        assert_eq!(v.len(), 11);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[10], 1.0);
        assert!((v[5] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn linspace_rejects_bad_input() {
        assert!(Vector::linspace(0.0, 1.0, 1).is_err());
        assert!(Vector::linspace(f64::NAN, 1.0, 5).is_err());
        assert!(Vector::linspace(0.0, f64::INFINITY, 5).is_err());
    }

    #[test]
    fn dot_and_mismatch() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn norms() {
        let v = Vector::from_slice(&[3.0, -4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(3).norm2(), 0.0);
    }

    #[test]
    fn norm2_avoids_overflow() {
        let v = Vector::from_slice(&[1e200, 1e200]);
        assert!((v.norm2() - 2.0_f64.sqrt() * 1e200).abs() < 1e186);
    }

    #[test]
    fn statistics() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.sum(), 10.0);
        assert_eq!(v.mean(), 2.5);
        assert_eq!(v.min(), Some(1.0));
        assert_eq!(v.max(), Some(4.0));
        assert_eq!(Vector::zeros(0).min(), None);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a;
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn axpy_matches_manual() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[10.0, 20.0]);
        let c = a.axpy(0.5, &b).unwrap();
        assert_eq!(c.as_slice(), &[6.0, 12.0]);
        assert!(a.axpy(1.0, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn finite_detection() {
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!Vector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!Vector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn display_roundtrip_format() {
        let v = Vector::from_slice(&[1.0]);
        assert_eq!(format!("{v}"), "[1.000000]");
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
