//! # qudit-api
//!
//! The public entry point of the qutrits workspace: a builder-validated job
//! description, a compiling/caching executor, batch execution, and a JSON
//! wire format — the façade every consumer (examples, bench binaries,
//! verification helpers, a future server front end) goes through instead of
//! wiring simulators together by hand.
//!
//! * [`JobSpec`] — one validated description of a run: circuit + compiler
//!   [`PassLevel`] + [`BackendKind`] + optional
//!   [`NoiseModel`] + trials/seed + input (or an explicit basis-state
//!   sweep). Constructed through [`JobSpec::builder`]; invalid combinations
//!   are rejected with a typed [`ApiError`] at build time, not mid-run.
//! * [`Executor`] — compiles once per structurally distinct (circuit,
//!   level) pair and runs jobs; [`Executor::run_batch`] fans a slice of
//!   jobs out across rayon workers with results bit-identical to running
//!   them sequentially.
//! * [`ExecutionResult`] — the typed outcome: output states for noise-free
//!   jobs, a [`FidelityEstimate`] with
//!   binomial error bar for noisy jobs, plus the compiled circuit's
//!   [`ResourceReport`].
//! * Wire format — [`JobSpec`] and [`ExecutionResult`] round-trip through
//!   JSON ([`JobSpec::to_json`] / [`JobSpec::from_json`]), so jobs can be
//!   shipped to a service, queued, or checked in as golden files.
//!
//! ## Example
//!
//! ```
//! use qudit_api::{Executor, JobSpec};
//! use qudit_circuit::{Circuit, Control, Gate};
//! use qudit_noise::models;
//!
//! // The paper's Figure 4 Toffoli-via-qutrits under the SC noise model.
//! let mut circuit = Circuit::new(3, 3);
//! circuit.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])?;
//! circuit.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])?;
//! circuit.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])?;
//!
//! let job = JobSpec::builder(circuit)
//!     .noise(models::sc())
//!     .trials(40)
//!     .seed(2019)
//!     .build()?;
//!
//! let executor = Executor::new();
//! let estimate = executor.run(&job)?.fidelity()?.clone();
//! assert!(estimate.mean > 0.9);
//!
//! // The same job as JSON — the wire format a server front end consumes.
//! let wire = job.to_json();
//! assert_eq!(JobSpec::from_json(&wire)?, job);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cli;
mod error;
mod executor;
mod result;
mod spec;

pub use cli::CliArgs;
pub use error::{ApiError, ApiResult};
pub use executor::{CompiledStateJob, Executor, ResultCacheStats};
pub use result::{ExecutionResult, Outcome, OutputState};
pub use spec::{JobSpec, JobSpecBuilder, DENSITY_MAX_ENTRIES};

// Re-export the vocabulary types a façade caller needs, so consumers can
// depend on `qudit-api` alone.
pub use qudit_circuit::{Circuit, PassLevel, ResourceReport, RoutedCosts, Topology, TopologyKind};
pub use qudit_core::lru::CacheStats;
pub use qudit_noise::{
    BackendKind, CancelToken, CrossValidation, FidelityEstimate, InputState, NoiseArtifactStats,
    NoiseModel, Precision,
};

/// The parameterized algorithm library (`qudit-algos`): QFT, adders, a
/// multiplier, phase estimation and GHZ/W preparation — every generator
/// returns a [`Circuit`] ready for [`JobSpec::builder`].
pub use qudit_algos as algos;
