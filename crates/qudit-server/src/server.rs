//! The server proper: HTTP routing, deadline plumbing, backpressure,
//! health endpoints, and graceful drain.

use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::queue::{Job, JobOutcome, JobQueue, SubmitError};
use crate::worker;
use futures::channel::oneshot;
use futures::executor::block_on_deadline;
use qudit_api::{Executor, JobSpec};
use qudit_noise::CancelToken;
use serde::Value;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra wall-clock a connection handler waits past a job's deadline for
/// the worker's cancellation to land before answering `504` itself. The
/// cooperative checks fire every trial/frame, so in practice cancellation
/// lands within microseconds of the deadline; the grace only bounds the
/// pathological case.
pub const DEADLINE_GRACE: Duration = Duration::from_secs(1);

/// Shared server state: the compute stack plus every robustness mechanism.
pub(crate) struct ServerState {
    pub(crate) config: ServerConfig,
    pub(crate) executor: Executor,
    pub(crate) queue: JobQueue,
    http: tiny_http::Server,
    /// Set at shutdown: new jobs are refused while in-flight work drains.
    draining: AtomicBool,
    /// Jobs popped by a worker and not yet answered.
    pub(crate) active: AtomicUsize,
    /// Jobs accepted into the queue over the server's lifetime.
    pub(crate) accepted: AtomicUsize,
    /// Jobs answered (success or typed error) over the lifetime.
    pub(crate) completed: AtomicUsize,
    /// Jobs that panicked and were isolated.
    pub(crate) panicked: AtomicUsize,
    /// Cancel tokens of accepted-but-unanswered jobs, for shutdown.
    inflight: Mutex<HashMap<u64, CancelToken>>,
    next_job: AtomicU64,
}

impl ServerState {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn register(&self, token: &CancelToken) -> u64 {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, token.clone());
        id
    }

    fn unregister(&self, id: u64) {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id);
    }

    fn cancel_inflight(&self) {
        for token in self
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            token.cancel();
        }
    }
}

/// Outcome of a graceful shutdown.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// Whether all in-flight jobs finished inside the drain deadline
    /// (`false` means leftovers were cancelled).
    pub drained: bool,
    /// Jobs answered over the server's lifetime.
    pub jobs_completed: usize,
    /// Jobs that panicked and were isolated over the lifetime.
    pub jobs_panicked: usize,
}

/// A running service instance. Dropping without
/// [`shutdown`](Server::shutdown) aborts non-gracefully (threads are
/// detached); call `shutdown` to drain.
pub struct Server {
    state: Arc<ServerState>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the worker pool and connection threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let limits = tiny_http::Limits {
            read_timeout: config.read_timeout,
            write_timeout: config.read_timeout,
            max_body_bytes: config.max_body_bytes,
            ..tiny_http::Limits::default()
        };
        let http = tiny_http::Server::http_with_limits(&config.addr[..], limits)?;
        let queue = JobQueue::new(config.queue_depth);
        let state = Arc::new(ServerState {
            executor: Executor::new(),
            queue,
            http,
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            accepted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            inflight: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            config,
        });
        let mut threads = Vec::new();
        for i in 0..state.config.workers.max(1) {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qudit-worker-{i}"))
                    .spawn(move || worker::run(&state))?,
            );
        }
        for i in 0..state.config.http_threads.max(1) {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qudit-http-{i}"))
                    .spawn(move || http_loop(&state))?,
            );
        }
        Ok(Server { state, threads })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.http.server_addr()
    }

    /// Current queue depth (pending, not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.state.queue.len()
    }

    /// Configured queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.state.queue.capacity()
    }

    /// Jobs answered so far.
    pub fn jobs_completed(&self) -> usize {
        self.state.completed.load(Ordering::Relaxed)
    }

    /// Jobs that panicked and were isolated so far.
    pub fn jobs_panicked(&self) -> usize {
        self.state.panicked.load(Ordering::Relaxed)
    }

    /// Graceful SIGTERM-style shutdown: stop accepting, drain in-flight
    /// jobs under the configured drain deadline, cancel whatever is left,
    /// then join every thread.
    pub fn shutdown(self) -> ShutdownReport {
        let state = &self.state;
        state.draining.store(true, Ordering::SeqCst);

        // Drain: queued work plus jobs currently on a worker.
        let deadline = Instant::now() + state.config.drain_deadline;
        while (!state.queue.is_empty() || state.active.load(Ordering::SeqCst) > 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = state.queue.is_empty() && state.active.load(Ordering::SeqCst) == 0;

        // Past the deadline: cooperative cancellation stops the leftovers;
        // closing the queue lets workers run the (now cancelled) backlog
        // down — every accepted job still gets its typed reply.
        state.cancel_inflight();
        state.queue.close();
        for _ in 0..state.config.http_threads.max(1) {
            state.http.unblock();
        }
        for handle in self.threads {
            let _ = handle.join();
        }
        ShutdownReport {
            drained,
            jobs_completed: self.state.completed.load(Ordering::Relaxed),
            jobs_panicked: self.state.panicked.load(Ordering::Relaxed),
        }
    }
}

/// One connection thread: accept, route, respond, repeat until closed.
fn http_loop(state: &ServerState) {
    loop {
        match state.http.recv() {
            Ok(Some(request)) => handle(state, request),
            Ok(None) => return, // closed
            Err(_) => {
                if state.is_draining() {
                    return;
                }
                // Transient accept error; keep serving.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Routes one request. Mid-response disconnects surface as respond errors
/// and are deliberately ignored — the client is gone, the server is fine.
fn handle(state: &ServerState, request: tiny_http::Request) {
    let path = request.url().split('?').next().unwrap_or("").to_string();
    match (request.method(), path.as_str()) {
        (tiny_http::Method::Get, "/healthz") => {
            let _ = request.respond(json_response(200, &health_body(state, "ok")));
        }
        (tiny_http::Method::Get, "/readyz") => {
            if state.is_draining() {
                let _ = request.respond(json_response(503, &health_body(state, "draining")));
            } else {
                let _ = request.respond(json_response(200, &health_body(state, "ready")));
            }
        }
        (tiny_http::Method::Post, "/v1/jobs") => handle_job(state, request),
        (_, "/healthz" | "/readyz" | "/v1/jobs") => {
            let _ = request.respond(ServerError::MethodNotAllowed.to_response());
        }
        _ => {
            let _ = request.respond(ServerError::NotFound.to_response());
        }
    }
}

/// The job endpoint: parse → deadline → bounded submit → bounded wait.
fn handle_job(state: &ServerState, request: tiny_http::Request) {
    if state.is_draining() {
        let _ = request.respond(ServerError::Draining.to_response());
        return;
    }

    // Per-job deadline: the X-Deadline-Ms header, clamped to the
    // configured maximum; absent, the default applies.
    let deadline_header = request.header("X-Deadline-Ms").map(str::to_string);
    let deadline = match deadline_header {
        None => state.config.default_deadline,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) if ms > 0 => Duration::from_millis(ms).min(state.config.max_deadline),
            _ => {
                let _ = request.respond(
                    ServerError::BadRequest {
                        reason: format!("X-Deadline-Ms must be a positive integer, got {raw:?}"),
                    }
                    .to_response(),
                );
                return;
            }
        },
    };

    let body = match std::str::from_utf8(request.body()) {
        Ok(text) => text,
        Err(_) => {
            let _ = request.respond(
                ServerError::BadRequest {
                    reason: "request body is not valid UTF-8".to_string(),
                }
                .to_response(),
            );
            return;
        }
    };
    let spec = match JobSpec::from_json(body) {
        Ok(spec) => spec,
        Err(e) => {
            let _ = request.respond(ServerError::from(e).to_response());
            return;
        }
    };

    let chaos_panic =
        state.config.chaos_hooks && request.header("X-Chaos").is_some_and(|v| v == "panic");

    // A cached result answers right here: no queue slot, no worker, no
    // simulation cost — determinism makes the cached payload bit-identical
    // to re-running the spec. The executor's probe counts the hit; a miss
    // charges nothing (the queued run pays it). Chaos jobs always take the
    // queue path — their point is to panic a worker.
    if !chaos_panic {
        if let Some(result) = state.executor.cached_result(&spec) {
            state.completed.fetch_add(1, Ordering::Relaxed);
            let _ = request.respond(json_response(200, &result.to_json()));
            return;
        }
    }

    let expires = Instant::now() + deadline;
    let cancel = CancelToken::with_deadline(expires);
    let job_id = state.register(&cancel);
    let (reply, result) = oneshot::channel();
    let job = Job {
        spec,
        cancel,
        chaos_panic,
        reply,
    };
    match state.queue.submit(job) {
        Ok(()) => {}
        Err(SubmitError::Full(_job)) => {
            state.unregister(job_id);
            let _ = request.respond(
                ServerError::Overloaded {
                    depth: state.queue.len(),
                    capacity: state.queue.capacity(),
                }
                .to_response(),
            );
            return;
        }
        Err(SubmitError::Closed(_job)) => {
            state.unregister(job_id);
            let _ = request.respond(ServerError::Draining.to_response());
            return;
        }
    }
    state.accepted.fetch_add(1, Ordering::Relaxed);

    // Bounded wait: the worker answers well inside deadline + grace
    // (cooperative cancellation); the timeout here only guards against a
    // wedged worker, so a connection can never hang past its deadline.
    let response = match block_on_deadline(result, expires + DEADLINE_GRACE) {
        None | Some(Err(oneshot::Canceled)) => ServerError::DeadlineExceeded.to_response(),
        Some(Ok(JobOutcome::Panicked(message))) => {
            ServerError::InternalPanic { message }.to_response()
        }
        Some(Ok(JobOutcome::Done(Err(e)))) => ServerError::from(e).to_response(),
        Some(Ok(JobOutcome::Done(Ok(result)))) => json_response(200, &result.to_json()),
    };
    state.unregister(job_id);
    let _ = request.respond(response);
}

fn json_response(status: u16, body: &str) -> tiny_http::Response {
    tiny_http::Response::from_string(body)
        .with_status_code(status)
        .with_header("Content-Type", "application/json")
}

/// The health/readiness body: status plus live queue, job and cache
/// counters.
fn health_body(state: &ServerState, status: &str) -> String {
    let body = Value::object(vec![
        ("status", Value::Str(status.to_string())),
        ("draining", Value::Bool(state.is_draining())),
        (
            "queue",
            Value::object(vec![
                ("depth", Value::UInt(state.queue.len() as u64)),
                ("capacity", Value::UInt(state.queue.capacity() as u64)),
                (
                    "active",
                    Value::UInt(state.active.load(Ordering::Relaxed) as u64),
                ),
            ]),
        ),
        (
            "jobs",
            Value::object(vec![
                (
                    "accepted",
                    Value::UInt(state.accepted.load(Ordering::Relaxed) as u64),
                ),
                (
                    "completed",
                    Value::UInt(state.completed.load(Ordering::Relaxed) as u64),
                ),
                (
                    "panicked",
                    Value::UInt(state.panicked.load(Ordering::Relaxed) as u64),
                ),
                (
                    "deduped_simulations",
                    Value::UInt(state.executor.jobs_simulated() as u64),
                ),
            ]),
        ),
        ("compile_cache", {
            let stats = state.executor.compile_cache_stats();
            Value::object(vec![
                ("hits", Value::UInt(stats.hits as u64)),
                ("misses", Value::UInt(stats.misses as u64)),
                ("evictions", Value::UInt(stats.evictions as u64)),
                ("entries", Value::UInt(stats.entries as u64)),
                ("capacity", Value::UInt(stats.capacity as u64)),
            ])
        }),
        ("result_cache", {
            let stats = state.executor.result_cache_stats();
            Value::object(vec![
                ("hits", Value::UInt(stats.hits as u64)),
                ("misses", Value::UInt(stats.misses as u64)),
                ("trials_saved", Value::UInt(stats.trials_saved as u64)),
                ("evictions", Value::UInt(stats.evictions as u64)),
                ("entries", Value::UInt(stats.entries as u64)),
                ("capacity", Value::UInt(stats.capacity as u64)),
            ])
        }),
    ]);
    serde::json::to_string(&body)
}
