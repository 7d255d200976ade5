//! Fault-injection battery below the JSON layer: protocol abuse,
//! dropped connections, overload, deadline timing, and graceful
//! shutdown. After every fault the same server must keep answering.

mod common;

use common::{
    assert_clean_request_works, clean_job_json, error_kind, get, heavy_job_json, post_job,
};
use qudit_server::{Server, ServerConfig, DEADLINE_GRACE};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tiny_http::client;

fn quick_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .expect("server start")
}

fn send_bytes(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let resp = client::send_raw(addr, bytes, Duration::from_secs(10)).expect("send_raw");
    (
        resp.status,
        String::from_utf8_lossy(&resp.body).into_owned(),
    )
}

#[test]
fn protocol_faults_get_protocol_errors_and_the_server_survives() {
    let server = quick_server();
    let addr = server.addr();

    // Slow-loris: an incomplete request head that never finishes. The
    // read timeout must reclaim the connection with 408.
    let (status, _) = send_bytes(addr, b"POST /v1/jobs HTT");
    assert_eq!(status, 408, "slow-loris head");
    assert_clean_request_works(addr);

    // Declared body larger than the limit: refused up front with 413,
    // without reading the body.
    let huge = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\nx",
        64 * 1024 * 1024
    );
    let (status, _) = send_bytes(addr, huge.as_bytes());
    assert_eq!(status, 413, "oversized declared body");
    assert_clean_request_works(addr);

    // POST with no Content-Length at all.
    let (status, _) = send_bytes(
        addr,
        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 411, "missing Content-Length");
    assert_clean_request_works(addr);

    // A header block past the 16 KB head limit.
    let mut big_head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n".to_vec();
    for i in 0..2048 {
        big_head.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(16)).as_bytes());
    }
    big_head.extend_from_slice(b"\r\n");
    let (status, _) = send_bytes(addr, &big_head);
    assert_eq!(status, 431, "oversized header block");
    assert_clean_request_works(addr);

    // Truncated body: fewer bytes than declared, then a half-close.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"cir")
        .expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let resp = tiny_http::client::read_from(&mut stream).expect("response");
    assert_eq!(resp.status, 400, "truncated body");
    assert_clean_request_works(addr);

    server.shutdown();
}

#[test]
fn a_client_that_disconnects_mid_job_does_not_wedge_the_server() {
    let server = quick_server();
    let addr = server.addr();

    // Fire a full, valid job and slam the connection before the response
    // can be written. The worker still runs the job; the failed write is
    // swallowed.
    let body = clean_job_json();
    let request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    client::send_and_abandon(addr, request.as_bytes(), Duration::from_secs(5)).expect("abandon");

    // Give the server a moment to trip over the dead socket, then prove
    // it still answers.
    std::thread::sleep(Duration::from_millis(300));
    assert_clean_request_works(addr);
    server.shutdown();
}

#[test]
fn overload_returns_typed_backpressure_and_recovers() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();
    let heavy = heavy_job_json();

    // Occupy the single worker...
    let h1 = {
        let heavy = heavy.clone();
        std::thread::spawn(move || post_job(addr, &heavy, &[("X-Deadline-Ms", "1500")]))
    };
    std::thread::sleep(Duration::from_millis(300));
    // ...fill the single queue slot...
    let h2 = {
        let heavy = heavy.clone();
        std::thread::spawn(move || post_job(addr, &heavy, &[("X-Deadline-Ms", "1500")]))
    };
    std::thread::sleep(Duration::from_millis(200));

    // ...and the next job must bounce with typed backpressure, not hang.
    let (status, body) = post_job(addr, &clean_job_json(), &[]);
    assert_eq!(status, 429, "expected overload, body={body}");
    assert_eq!(error_kind(&body), "overloaded");

    // The two heavy jobs die at their deadlines.
    for handle in [h1, h2] {
        let (status, body) = handle.join().expect("join");
        assert_eq!(status, 504, "heavy job should hit its deadline: {body}");
    }

    // Capacity is back: the same server answers correctly again.
    assert_clean_request_works(addr);
    server.shutdown();
}

#[test]
fn an_expired_deadline_is_enforced_server_side_within_the_grace_window() {
    let server = quick_server();
    let addr = server.addr();

    let deadline = Duration::from_millis(300);
    let start = Instant::now();
    let (status, body) = post_job(addr, &heavy_job_json(), &[("X-Deadline-Ms", "300")]);
    let elapsed = start.elapsed();

    assert_eq!(status, 504, "body={body}");
    assert_eq!(error_kind(&body), "deadline_exceeded");
    // The response must come from cooperative cancellation near the
    // deadline — not from a wedged worker discovered much later. Allow
    // the handler's grace window plus scheduling slack.
    assert!(
        elapsed < deadline + DEADLINE_GRACE + Duration::from_secs(2),
        "deadline response took {elapsed:?}"
    );

    // The worker actually freed itself: a clean job completes promptly.
    let start = Instant::now();
    assert_clean_request_works(addr);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "worker still busy after cancellation"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_deadline: Duration::from_secs(60),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();

    // A real job is in flight when shutdown begins.
    let inflight = std::thread::spawn(move || post_job(addr, &clean_job_json(), &[]));
    std::thread::sleep(Duration::from_millis(150));

    let report = server.shutdown();
    assert!(report.drained, "shutdown should finish the in-flight job");
    assert!(report.jobs_completed >= 1);
    assert_eq!(report.jobs_panicked, 0);

    // The in-flight client got its real answer, not an error.
    let (status, body) = inflight.join().expect("join");
    assert_eq!(status, 200, "drained job response: {body}");

    // And the listener is gone: new connections are refused.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        client::get(addr, "/healthz", Duration::from_secs(2)).is_err(),
        "listener should be closed after shutdown"
    );
}

#[test]
fn draining_server_refuses_new_jobs_but_reports_health() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();

    // Hold the worker with a heavy job so the drain window stays open.
    let inflight = {
        let heavy = heavy_job_json();
        std::thread::spawn(move || post_job(addr, &heavy, &[("X-Deadline-Ms", "10000")]))
    };
    std::thread::sleep(Duration::from_millis(300));

    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(300));

    // Mid-drain: health stays observable, readiness flips, new jobs are
    // refused with the typed drain error.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "healthz during drain: {body}");
    assert!(body.contains("\"draining\":true"), "body={body}");
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status, 503, "readyz must flip during drain");
    let (status, body) = post_job(addr, &clean_job_json(), &[]);
    assert_eq!(status, 503, "new jobs refused during drain: {body}");
    assert_eq!(error_kind(&body), "draining");

    // The drain deadline expires, the heavy job is cancelled, and both
    // the client and the shutdown report see a consistent story.
    let (status, body) = inflight.join().expect("join");
    assert_eq!(status, 504, "cancelled in-flight job: {body}");
    let report = shutdown.join().expect("join");
    assert!(!report.drained, "the heavy job cannot drain in time");
}

#[test]
fn health_endpoints_report_queue_and_job_counters() {
    let server = quick_server();
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = serde::json::parse(&body).expect("healthz JSON");
    assert_eq!(health.get("status").unwrap().as_str().unwrap(), "ok");
    let queue = health.get("queue").expect("queue block");
    assert_eq!(
        queue.get("capacity").unwrap().as_usize().unwrap(),
        server.queue_capacity()
    );
    let cache = health.get("result_cache").expect("result_cache block");
    assert_eq!(cache.get("hits").unwrap().as_usize().unwrap(), 0);
    assert_eq!(cache.get("evictions").unwrap().as_usize().unwrap(), 0);
    assert!(cache.get("capacity").unwrap().as_usize().unwrap() > 0);
    let compile = health.get("compile_cache").expect("compile_cache block");
    for counter in ["hits", "misses", "evictions", "entries"] {
        assert_eq!(compile.get(counter).unwrap().as_usize().unwrap(), 0);
    }
    assert!(compile.get("capacity").unwrap().as_usize().unwrap() > 0);

    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200, "readyz when idle: {body}");

    // Counters move when work happens.
    assert_clean_request_works(addr);
    let (_, body) = get(addr, "/healthz");
    let health = serde::json::parse(&body).expect("healthz JSON");
    let jobs = health.get("jobs").expect("jobs block");
    assert!(jobs.get("completed").unwrap().as_usize().unwrap() >= 1);
    let compile = health.get("compile_cache").expect("compile_cache block");
    assert!(compile.get("misses").unwrap().as_usize().unwrap() >= 1);
    assert!(compile.get("entries").unwrap().as_usize().unwrap() >= 1);
    let cache = health.get("result_cache").expect("result_cache block");
    assert!(cache.get("misses").unwrap().as_usize().unwrap() >= 1);
    server.shutdown();
}

#[test]
fn repeated_jobs_are_answered_from_the_result_cache() {
    let server = quick_server();
    let addr = server.addr();
    let job = clean_job_json();

    // First submission simulates; the repeat must answer from the cache —
    // bit-identical body, a hit on the counter, and no new simulation.
    let (status, first) = post_job(addr, &job, &[]);
    assert_eq!(status, 200, "first submission: {first}");
    let (status, second) = post_job(addr, &job, &[]);
    assert_eq!(status, 200, "cached submission: {second}");
    assert_eq!(first, second, "a cache hit must be bit-identical");

    let (_, body) = get(addr, "/healthz");
    let health = serde::json::parse(&body).expect("healthz JSON");
    let cache = health.get("result_cache").expect("result_cache block");
    assert!(
        cache.get("hits").unwrap().as_usize().unwrap() >= 1,
        "{body}"
    );
    assert_eq!(cache.get("entries").unwrap().as_usize().unwrap(), 1);
    // The hit never reached the compile cache: one miss from the first run.
    let compile = health.get("compile_cache").expect("compile_cache block");
    assert_eq!(compile.get("misses").unwrap().as_usize().unwrap(), 1);
    assert_eq!(compile.get("hits").unwrap().as_usize().unwrap(), 0);
    let jobs = health.get("jobs").expect("jobs block");
    // Only the first submission entered the queue; the hit skipped it.
    assert_eq!(jobs.get("accepted").unwrap().as_usize().unwrap(), 1);
    assert_eq!(jobs.get("completed").unwrap().as_usize().unwrap(), 2);
    assert_eq!(
        jobs.get("deduped_simulations").unwrap().as_usize().unwrap(),
        1
    );
    server.shutdown();
}
