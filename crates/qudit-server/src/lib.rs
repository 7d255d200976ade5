//! # qudit-server
//!
//! The fault-tolerant HTTP service front end of the qutrits workspace: it
//! accepts [`JobSpec`](qudit_api::JobSpec) JSON on `POST /v1/jobs`, runs it
//! through the `qudit-api` [`Executor`](qudit_api::Executor), and returns
//! [`ExecutionResult`](qudit_api::ExecutionResult) JSON — wrapped in four
//! robustness layers:
//!
//! 1. **Bounded queue with backpressure** — submissions beyond
//!    [`ServerConfig::queue_depth`] are refused immediately with a typed
//!    `429 overloaded` error. Load-shedding, not collapse.
//! 2. **Per-job deadlines with cooperative cancellation** — each job gets a
//!    [`CancelToken`](qudit_noise::CancelToken) (from the `X-Deadline-Ms`
//!    header, clamped to [`ServerConfig::max_deadline`]) that the
//!    trajectory-trial and density-frame loops check, so an expired job
//!    stops burning cores mid-simulation and answers `504
//!    deadline_exceeded`.
//! 3. **Panic isolation** — every job runs under `catch_unwind`; a
//!    poisoned job answers `500 internal_panic` while the worker pool and
//!    the executor's compile cache keep serving.
//! 4. **Graceful degradation and shutdown** — `GET /healthz` and
//!    `GET /readyz` report queue depth/capacity, job counters and the
//!    compile- and result-cache counters;
//!    [`Server::shutdown`] stops accepting, drains in-flight jobs under
//!    [`ServerConfig::drain_deadline`], cancels leftovers, and joins every
//!    thread.
//!
//! Below the application layer, the vendored `tiny_http` shim already
//! answers protocol faults (malformed heads `400`, slow-loris `408`,
//! oversized bodies `413`, oversized heads `431`) without involving any of
//! this crate's code. The full failure taxonomy lives in [`ServerError`].
//!
//! The fault-injection harness (`bench --bin chaos`), the load generator
//! (`bench --bin loadgen`), and this crate's integration tests drive a real
//! server through every failure class and assert it keeps answering clean
//! requests correctly afterwards.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod error;
mod queue;
mod server;
mod worker;

pub use config::ServerConfig;
pub use error::ServerError;
pub use queue::{Job, JobOutcome, JobQueue, SubmitError};
pub use server::{Server, ShutdownReport, DEADLINE_GRACE};
