//! The `serve` binary as a child process, the closed-loop HTTP client,
//! and the `/proc` readings taken from outside the program.

use crate::host::TICKS_PER_S;
use crate::stats::Completion;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiny_http::client::{self, ClientResponse};

/// Per-request client timeout; far above any healthy latency.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for {pid}"))
}

/// `utime + stime` of `pid` in seconds.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) / TICKS_PER_S),
        _ => Err(format!("unparsable /proc/{pid}/stat")),
    }
}

/// Sockets in TIME_WAIT (state `06`) over `/proc/net/tcp` and `tcp6`.
pub fn tcp_time_wait() -> usize {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|text| {
            text.lines()
                .skip(1)
                .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                .count()
        })
        .sum()
}

/// A running `serve` child on an ephemeral port.
pub struct ServeChild {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl ServeChild {
    /// Starts `serve --addr 127.0.0.1:0` and waits for its
    /// `listening on <addr>` line.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(crate::machine::SERVE_ARGS)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServeChild { child, stdin, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("serve did not report its address: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.pid())
    }

    pub fn cpu_seconds(&self) -> Result<f64, String> {
        cpu_seconds(&self.pid())
    }

    /// Graceful drain: `shutdown` on stdin, then wait (killing it after
    /// 20 s as a last resort).
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("serve did not drain within 20 s".to_string());
                }
            }
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.stop();
        }
    }
}

/// `POST /v1/jobs`.
pub fn post_job(addr: SocketAddr, body: &str) -> std::io::Result<ClientResponse> {
    client::post(addr, "/v1/jobs", body.as_bytes(), &[], REQUEST_TIMEOUT)
}

/// `GET /healthz`, parsed.
pub fn healthz(addr: SocketAddr) -> Result<serde::Value, String> {
    let resp = client::get(addr, "/healthz", REQUEST_TIMEOUT).map_err(|e| e.to_string())?;
    serde::json::parse(&String::from_utf8_lossy(&resp.body)).map_err(|e| e.to_string())
}

/// A number at `path` inside a `/healthz` body.
pub fn health_num(health: &serde::Value, path: &[&str]) -> f64 {
    let mut v = Some(health);
    for key in path {
        v = v.and_then(|v| v.get(key));
    }
    v.and_then(|v| v.as_f64().ok()).unwrap_or(0.0)
}

/// One closed-loop client: supplies bodies and checks answers.
pub trait Client: Send {
    /// The next request body, or `None` to stop early.
    fn next(&mut self) -> Option<Arc<str>>;
    /// Checks a `200` answer to the last body and returns the state
    /// evolutions it answered; `Err` marks it wrong.
    fn verify(&mut self, body: &[u8]) -> Result<usize, String>;
}

/// What a closed loop observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub completions: Vec<Completion>,
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    pub elapsed_s: f64,
}

impl LoopStats {
    fn merge(&mut self, other: LoopStats) {
        self.completions.extend(other.completions);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Runs one thread per client, each sending a request, waiting for its
/// answer and checking it, until `until` passes or every client has sent
/// `max_per_client` requests. Failed, refused and wrong answers all count
/// as failures. Completion times are taken from `origin`.
pub fn closed_loop<C: Client + 'static>(
    addr: SocketAddr,
    clients: Vec<C>,
    origin: Instant,
    until: Option<Instant>,
    max_per_client: usize,
) -> LoopStats {
    let start = origin;
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = clients
        .into_iter()
        .map(|mut c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stats = LoopStats::default();
                while stats.attempted < max_per_client
                    && !stop.load(Ordering::Relaxed)
                    && until.is_none_or(|u| Instant::now() < u)
                {
                    let Some(body) = c.next() else { break };
                    let t = Instant::now();
                    let resp = post_job(addr, &body);
                    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                    let end_s = start.elapsed().as_secs_f64();
                    stats.attempted += 1;
                    let outcome = match resp {
                        Ok(r) if r.status == 200 => c.verify(&r.body),
                        Ok(r) => Err(format!(
                            "status {}: {}",
                            r.status,
                            String::from_utf8_lossy(&r.body)
                        )),
                        Err(e) => Err(format!("transport: {e}")),
                    };
                    let evolutions = outcome.unwrap_or_else(|e| {
                        stats.failed += 1;
                        stats.first_failure.get_or_insert(e);
                        0
                    });
                    stats.completions.push(Completion {
                        end_s,
                        latency_ms,
                        jobs: 1,
                        evolutions,
                    });
                }
                stats
            })
        })
        .collect();
    let mut total = LoopStats::default();
    for h in handles {
        match h.join() {
            Ok(stats) => total.merge(stats),
            Err(_) => {
                stop.store(true, Ordering::Relaxed);
                total.failed += 1;
                total
                    .first_failure
                    .get_or_insert("client thread panicked".into());
            }
        }
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}
