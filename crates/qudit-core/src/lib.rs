//! # qudit-core
//!
//! Foundational math for the qutrits reproduction workspace: a minimal
//! complex-number type, dense complex matrices, state vectors over registers
//! of `d`-level qudits, a library of qubit/qutrit/qudit gate matrices, and
//! `O(d^N)` random state generation, plus the bounded-LRU cache ([`lru`])
//! that every memo layer of the workspace is built on.
//!
//! This crate corresponds to the mathematical substrate that the paper's
//! Cirq extension relies on (state vectors, gate matrices, random states); the
//! circuit IR lives in `qudit-circuit`, the state-vector simulator in
//! `qudit-sim`, and the noise models in `qudit-noise`.
//!
//! ## Example
//!
//! ```
//! use qudit_core::{gates, StateVector};
//!
//! // Build the |1>-controlled X+1 gate of the paper's Figure 4 and check it
//! // is unitary.
//! let gate = gates::controlled_matrix(3, 1, &gates::qutrit::x_plus_1());
//! assert!(gate.is_unitary(1e-12));
//!
//! // Represent the |11> qutrit state.
//! let psi = StateVector::from_basis_state(3, &[1, 1])?;
//! assert_eq!(psi.num_qudits(), 2);
//! # Ok::<(), qudit_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod complex;
mod eig;
mod error;
pub mod gates;
pub mod lru;
mod matrix;
mod random;
#[cfg(feature = "serde")]
mod serde_impls;
mod statevec;

pub use complex::Complex;
pub use eig::{eig_hermitian, eig_unitary};
pub use error::{CoreError, CoreResult};
pub use matrix::CMatrix;
pub use random::{complex_gaussian, random_basis_state, random_qubit_subspace_state, random_state};
pub use statevec::StateVector;

/// The qutrit dimension (`d = 3`), re-exported for convenience.
pub const QUTRIT: usize = 3;

/// The qubit dimension (`d = 2`), re-exported for convenience.
pub const QUBIT: usize = 2;
