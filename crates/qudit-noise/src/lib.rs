//! # qudit-noise
//!
//! Realistic noise modelling for qudit circuits, reproducing Sections 6.1, 7
//! and Appendix A of the paper: symmetric depolarizing gate errors for
//! arbitrary qudit dimension, amplitude-damping (T1) idle errors, the
//! superconducting (Table 2) and trapped-ion (Table 3) parameter sets, and
//! two simulation engines over one shared noise program:
//!
//! * [`TrajectorySimulator`], a quantum-trajectory Monte Carlo simulator
//!   (Algorithm 1) that *estimates* the mean fidelity of a circuit under a
//!   noise model, and
//! * [`DensityNoiseSimulator`], an exact density-matrix simulator that
//!   computes the same fidelity as ground truth for small registers, with
//!   every channel applied as its superoperator instead of sampled.
//!
//! Both are built one way — from a circuit's [`SharedNoiseArtifacts`]
//! with `from_artifacts_with` — and run one way, with `run`.
//! [`CrossValidation`] is the bound the trajectory estimate must land
//! within around the exact value; the `qudit-api` executor, the
//! integration tests and the `crossval` bench binary apply it on a fixed
//! seed set so engine drift fails the build. Jobs normally reach both
//! engines through `qudit_api::Executor`.
//!
//! ## Example
//!
//! ```
//! use qudit_circuit::passes::{self, PassLevel};
//! use qudit_circuit::{Circuit, Control, Gate};
//! use qudit_noise::{
//!     models, CancelToken, Precision, SharedNoiseArtifacts, TrajectoryConfig,
//!     TrajectorySimulator,
//! };
//! use qudit_sim::Simulator;
//!
//! // Figure 4's Toffoli-via-qutrits under the SC+T1+GATES noise model.
//! let mut c = Circuit::new(3, 3);
//! c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])?;
//! c.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])?;
//! c.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])?;
//!
//! // The physical pass level charges the Di & Wei-lowered circuit.
//! let artifacts = SharedNoiseArtifacts::from_ir(&passes::compile(&c, PassLevel::Physical))?;
//! let model = models::sc_t1_gates();
//! let sim = TrajectorySimulator::from_artifacts_with(&artifacts, &model, &Simulator::new())?;
//! let config = TrajectoryConfig { trials: 40, ..TrajectoryConfig::default() };
//! let estimate = sim.run(&config, &Precision::FixedTrials, &CancelToken::never(), None)?;
//! assert!(estimate.mean > 0.9);
//! # Ok::<(), Box<dyn std::error::Error + Send + Sync>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod artifacts;
mod backend;
mod cancel;
mod channels;
mod damping;
mod depolarizing;
mod error;
mod exact;
mod kraus;
pub mod models;
#[cfg(feature = "serde")]
mod serde_impls;
mod trajectory;

pub use artifacts::{NoiseArtifactStats, SharedNoiseArtifacts};
pub use backend::{BackendKind, CrossValidation};
pub use cancel::CancelToken;
pub use channels::{
    crosstalk_channel, crosstalk_unitary, leakage_channel, overrotation_channel,
    overrotation_unitary, two_qudit_leakage_channel, two_qudit_overrotation_channel,
};
pub use damping::{idle_damping_channel, lambda_m, qubit_damping, qutrit_damping};
pub use depolarizing::{
    qutrit_two_qudit_reliability_ratio, single_qudit_depolarizing,
    single_qudit_no_error_probability, two_qudit_depolarizing, two_qudit_no_error_probability,
};
pub use error::{NoiseError, NoiseResult};
pub use exact::DensityNoiseSimulator;
pub use kraus::{Channel, CompiledChannel};
pub use models::NoiseModel;
pub use trajectory::{
    FidelityEstimate, InputState, Precision, TrajectoryConfig, TrajectorySimulator, Welford,
};
