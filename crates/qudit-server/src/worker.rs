//! The simulation worker loop: panic isolation around every job.

use crate::queue::JobOutcome;
use crate::server::ServerState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// Consumes the queue until it closes and drains. Every job runs under
/// `catch_unwind`, so one poisoned job maps to a typed `internal_panic`
/// outcome while the worker thread — and the shared executor with its
/// caches — keeps serving (every executor cache is a `qudit_core::lru::Lru`,
/// whose lock recovers from poisoning; the poison-regression test in
/// `qudit-core` pins that).
pub(crate) fn run(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        state.active.fetch_add(1, Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if job.chaos_panic {
                panic!("chaos hook: deliberate job panic");
            }
            state.executor.run_with(&job.spec, &job.cancel)
        }));
        let outcome = match outcome {
            Ok(result) => JobOutcome::Done(result),
            Err(payload) => {
                state.panicked.fetch_add(1, Ordering::Relaxed);
                JobOutcome::Panicked(panic_message(payload))
            }
        };
        state.completed.fetch_add(1, Ordering::Relaxed);
        // Send may fail if the handler already timed out and dropped the
        // receiver; the job is done either way.
        let _ = job.reply.send(outcome);
        state.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
