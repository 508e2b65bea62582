//! Ordinary differential equation substrate for the `cellsync` workspace.
//!
//! The validation experiments of Eisenberg et al. (2011, §4.1) use the
//! classical Lotka–Volterra system as a "biological oscillator" whose
//! 150-minute-period solution plays the role of the true synchronous
//! single-cell expression. This crate provides the integrators and model
//! library needed to generate those trajectories (and the single-cell models
//! used in the §5 parameter-estimation application):
//!
//! * [`OdeSystem`] — the right-hand-side trait implemented by all models.
//! * [`solver`] — fixed-step classic RK4 and the adaptive
//!   Dormand–Prince 5(4) pair, all producing a dense [`Trajectory`].
//! * [`models`] — Lotka–Volterra, Goodwin, and a damped
//!   linear oscillator with a closed-form solution for validation.
//! * [`period`] — oscillation-period estimation by refined peak detection,
//!   plus exact time-rescaling of Lotka–Volterra parameters to hit a target
//!   period (the paper "chose parameter values which yield a 150 minute
//!   period oscillation").
//!
//! # Example
//!
//! ```
//! use cellsync_ode::models::LotkaVolterra;
//! use cellsync_ode::solver::Rk4;
//!
//! # fn main() -> Result<(), cellsync_ode::OdeError> {
//! let lv = LotkaVolterra::new(1.0, 1.0, 1.0, 1.0)?;
//! let traj = Rk4::new(0.01)?.integrate(&lv, &[1.5, 1.0], 0.0, 10.0)?;
//! assert!(traj.len() > 100);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
pub mod models;
pub mod period;
pub mod solver;
mod system;
mod trajectory;

pub use error::OdeError;
pub use system::OdeSystem;
pub use trajectory::Trajectory;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, OdeError>;
