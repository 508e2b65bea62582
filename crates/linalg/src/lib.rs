//! Dense linear algebra substrate for the `cellsync` workspace.
//!
//! The deconvolution method of Eisenberg, Ash & Siegal-Gaskins (2011) reduces
//! to a sequence of dense linear-algebra problems: assembling Gram matrices
//! for the spline roughness penalty, solving the KKT systems of an active-set
//! quadratic program, and evaluating the influence-matrix trace used by
//! generalized cross validation. None of the approved external crates provide
//! these primitives, so this crate implements them from scratch:
//!
//! * [`Matrix`] / [`Vector`] — row-major dense storage with the usual
//!   arithmetic, products, and norms.
//! * [`LuDecomposition`] — LU with partial pivoting: solves, determinant,
//!   inverse.
//! * [`CholeskyDecomposition`] — for symmetric positive definite systems.
//! * [`QrDecomposition`] — Householder QR: least squares and orthonormal
//!   bases (used by the null-space active-set QP in `cellsync-opt`).
//! * [`SymmetricEigen`] — Householder tridiagonalization plus implicit-shift
//!   QL eigendecomposition of symmetric matrices (used for influence
//!   traces and diagnostics).
//!
//! The factorizations expose in-place entry points
//! ([`CholeskyDecomposition::refactor`] / [`CholeskyDecomposition::solve_in_place`],
//! [`QrDecomposition::refactor`], and over raw row-major buffers
//! [`LuDecomposition::factor_in_place`], [`QrDecomposition::factor_in_place`],
//! [`SymmetricEigen::decompose_in_place`] and the one-sided Jacobi
//! refinement [`SymmetricEigen::orthogonalize_rows`])
//! and the [`Matrix`] product kernels have
//! `_into` variants ([`Matrix::gram_into`], [`Matrix::weighted_gram_into`],
//! [`Matrix::matvec_into`], [`Matrix::tr_matvec_into`]) that write into
//! caller-provided buffers, so per-λ / per-replicate hot loops run without
//! allocating.
//! * [`BandedMatrix`] / [`BandedCholesky`] — symmetric band storage
//!   (LAPACK-style packed rows) with an O(n·b²) Cholesky factor/solve; the
//!   genome-scale path for the spline penalty at large basis sizes.
//! * [`SparseRowMatrix`] — compressed sparse rows for collocation constraint
//!   blocks, with a banded Gram assembly that exploits local support.
//!
//! The hot inner loops (rank-4 `syrk` panels, banded factor/solve updates)
//! share two update-style scalar kernels (see `kernels`).
//!
//! # Example
//!
//! ```
//! use cellsync_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), cellsync_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.cholesky()?.solve(&b)?;
//! let r = &a.matvec(&x)? - &b;
//! assert!(r.norm2() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod banded;
mod cholesky;
mod eigen;
mod error;
mod kernels;
mod lu;
mod matrix;
mod qr;
mod sparse;
mod vector;

pub use banded::{BandedCholesky, BandedMatrix};
pub use cholesky::CholeskyDecomposition;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use kernels::dot;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use qr::QrDecomposition;
pub use sparse::SparseRowMatrix;
pub use vector::Vector;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
