//! The end-to-end runs (`--trace 0`): the four workloads as a user sees
//! them.

use crate::host::{StealCurve, StealSampler};
use crate::inputs::{self, Expect, HotStream, NeuronStream, Request};
use crate::serve::{self, closed_loop, Client, LoopStats, ServeChild};
use crate::stats::Completion;
use qudit_api::{ExecutionResult, Executor, JobSpec};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `serve_hot` warm-up requests (all clients together).
const HOT_WARMUP: usize = 2000;
/// `serve_neuron` warm-up requests: enough to fill the 512-entry result
/// cache and start evicting.
const NEURON_WARMUP: usize = 600;
/// `wide_replay` warm-up jobs: past the 512-entry result cache.
const WIDE_WARMUP: usize = 600;
/// Every `WIDE_FULL_CHECK`-th `wide_replay` output is checked amplitude
/// by amplitude; the rest by their expected basis probability.
const WIDE_FULL_CHECK: usize = 16;
/// Fixed seed of the untimed `fig11_noisy` exact cross-check.
const CROSSVAL_SEED: u64 = 2019;
/// Trials per bar in the exact cross-check: a quarter of the timed bars',
/// since the exact leg evolves one density matrix per trial's input draw
/// and the qutrit bars' legs dominate the first run of a build (about
/// 50 s on two busy cores at this count).
const CROSSVAL_TRIALS: usize = 64;

/// Everything one end-to-end run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    /// The measured window's answered calls.
    pub completions: Vec<Completion>,
    pub peak_rss_mb: f64,
    /// CPU seconds the program spent in the measured window.
    pub cpu_s: f64,
    /// Host steal over the measured window.
    pub steal: StealCurve,
    pub setup_s: Vec<f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(error);
    }

    fn absorb(&mut self, stats: &LoopStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        if self.first_failure.is_none() {
            self.first_failure = stats.first_failure.clone();
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn hash_of(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// Parses a served answer and checks it; returns its state evolutions.
pub fn check_body(body: &[u8], expect: &Expect) -> Result<usize, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 result".to_string())?;
    let result = ExecutionResult::from_json(text).map_err(|e| format!("result JSON: {e}"))?;
    expect.check(&result)?;
    Ok(expect.evolutions())
}

// ---------------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------------

/// A Zipf client over the hot set. A body is parsed and checked the first
/// time its spec is answered; later answers must be byte-identical to it.
struct HotClient {
    set: Arc<Vec<Request>>,
    stream: HotStream,
    last: usize,
    verified: HashMap<usize, u64>,
}

impl HotClient {
    fn new(set: &Arc<Vec<Request>>, seed: u64, tag: u64) -> Self {
        HotClient {
            set: Arc::clone(set),
            stream: HotStream::new(seed, tag),
            last: 0,
            verified: HashMap::new(),
        }
    }
}

impl Client for HotClient {
    fn next(&mut self) -> Option<Arc<str>> {
        self.last = self.stream.next_rank();
        Some(Arc::clone(&self.set[self.last].body))
    }

    fn verify(&mut self, body: &[u8]) -> Result<usize, String> {
        let expect = &self.set[self.last].expect;
        let h = hash_of(body);
        if self.verified.get(&self.last) == Some(&h) {
            return Ok(expect.evolutions());
        }
        let evolutions = check_body(body, expect)?;
        self.verified.insert(self.last, h);
        Ok(evolutions)
    }
}

// ---------------------------------------------------------------------------
// serve_neuron
// ---------------------------------------------------------------------------

/// A client over a shared pool of pre-built neuron jobs. When the pool
/// runs dry it builds further jobs itself from its own stream.
struct NeuronClient {
    pool: Arc<Mutex<VecDeque<Request>>>,
    spare: NeuronStream,
    last: Option<Arc<Expect>>,
    built_inline: Arc<AtomicUsize>,
}

impl Client for NeuronClient {
    fn next(&mut self) -> Option<Arc<str>> {
        let popped = self.pool.lock().expect("pool").pop_front();
        let request = popped.unwrap_or_else(|| {
            self.built_inline.fetch_add(1, Ordering::Relaxed);
            self.spare.next().expect("endless stream")
        });
        self.last = Some(request.expect);
        Some(request.body)
    }

    fn verify(&mut self, body: &[u8]) -> Result<usize, String> {
        check_body(body, self.last.as_ref().expect("a request was sent"))
    }
}

// ---------------------------------------------------------------------------
// Served workloads
// ---------------------------------------------------------------------------

/// Starts the server [`SETUPS`] times, each time timing the start plus
/// `warm_up` until the caches are in steady state. Every server but the
/// last is drained again; the last is returned with its warm-up stats.
fn served_setups(
    bin: &Path,
    out: &mut Outcome,
    mut warm_up: impl FnMut(SocketAddr, usize) -> LoopStats,
) -> Result<(ServeChild, LoopStats), String> {
    let mut last = None;
    for k in 0..SETUPS {
        if let Some((child, _)) = last.take() {
            ServeChild::shutdown(child)?;
        }
        let start = Instant::now();
        let child = ServeChild::spawn(bin)?;
        let stats = warm_up(child.addr, k);
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.absorb(&stats);
        last = Some((child, stats));
    }
    Ok(last.expect("at least one set-up"))
}

pub fn serve_hot(bin: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let set = Arc::new(inputs::hot_set(seed));
    let clients = nproc();
    let mut out = Outcome::default();
    let (child, _) = served_setups(bin, &mut out, |addr, k| {
        let warm: Vec<HotClient> = (0..clients)
            .map(|i| HotClient::new(&set, seed, (100 + k * clients + i) as u64))
            .collect();
        closed_loop(
            addr,
            warm,
            Instant::now(),
            None,
            HOT_WARMUP.div_ceil(clients),
        )
    })?;
    let measured: Vec<HotClient> = (0..clients)
        .map(|i| HotClient::new(&set, seed, i as u64))
        .collect();
    out.cpu_s = -child.cpu_seconds()?;
    let origin = Instant::now();
    let steal = StealSampler::start(origin);
    let until = origin + Duration::from_secs_f64(seconds);
    let stats = closed_loop(child.addr, measured, origin, Some(until), usize::MAX);
    out.steal = steal.finish();
    finish_served(out, stats, child)
}

pub fn serve_neuron(bin: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let clients = nproc();
    let mut stream = NeuronStream::new(seed, 0);
    let inline = Arc::new(AtomicUsize::new(0));
    let make = |pool: VecDeque<Request>, base: u64| -> Vec<NeuronClient> {
        let pool = Arc::new(Mutex::new(pool));
        (0..clients)
            .map(|i| NeuronClient {
                pool: Arc::clone(&pool),
                spare: NeuronStream::new(seed, base + i as u64),
                last: None,
                built_inline: Arc::clone(&inline),
            })
            .collect()
    };
    let mut out = Outcome::default();
    // The warm-up bodies are built before each timed set-up starts.
    let mut pools: Vec<VecDeque<Request>> = (0..SETUPS)
        .map(|_| stream.by_ref().take(NEURON_WARMUP).collect())
        .collect();
    let (child, warm) = served_setups(bin, &mut out, |addr, k| {
        let pool = std::mem::take(&mut pools[k]);
        closed_loop(
            addr,
            make(pool, 100 + (k * clients) as u64),
            Instant::now(),
            None,
            NEURON_WARMUP.div_ceil(clients),
        )
    })?;
    // Pre-build what the measured window should need (1.5× the warm-up
    // rate), so building bodies does not compete with the server.
    let warm_rate = warm.attempted as f64 / warm.elapsed_s.max(1e-9);
    let wanted = ((warm_rate * seconds * 1.5) as usize).clamp(1000, 50_000);
    let pool = stream.by_ref().take(wanted).collect();
    inline.store(0, Ordering::Relaxed);
    out.cpu_s = -child.cpu_seconds()?;
    let origin = Instant::now();
    let steal = StealSampler::start(origin);
    let until = origin + Duration::from_secs_f64(seconds);
    let stats = closed_loop(child.addr, make(pool, 10), origin, Some(until), usize::MAX);
    out.steal = steal.finish();
    let inline_built = inline.load(Ordering::Relaxed);
    let mut out = finish_served(out, stats, child)?;
    out.notes.push(format!(
        "neuron bodies: {wanted} pre-built, {inline_built} built by the clients"
    ));
    Ok(out)
}

fn finish_served(mut out: Outcome, stats: LoopStats, child: ServeChild) -> Result<Outcome, String> {
    // Read the program's peak RSS and CPU time at the end, while it is
    // alive.
    out.peak_rss_mb = child.peak_rss_mb()?;
    out.cpu_s += child.cpu_seconds()?;
    child.shutdown()?;
    out.absorb(&stats);
    out.completions = stats.completions;
    Ok(out)
}

// ---------------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------------

fn check_all(
    out: &mut Outcome,
    results: &[qudit_api::ApiResult<ExecutionResult>],
    expect: &Expect,
) {
    for r in results {
        out.attempted += 1;
        match r {
            Ok(result) => {
                if let Err(e) = expect.check(result) {
                    out.fail(e);
                }
            }
            Err(e) => out.fail(e.to_string()),
        }
    }
}

/// Checks every density-feasible Figure 11 bar (at [`CROSSVAL_TRIALS`]
/// trials) against the exact backend at 3σ with
/// `Executor::cross_validate`, at a fixed seed, on an executor of its
/// own, on every core. Returns one line per bar: `label<TAB>ok`
/// or `label<TAB>FAIL reason`.
///
/// The check is a pure function of the program and [`CROSSVAL_SEED`], so
/// its lines are kept in `out_dir` under the hash of the running
/// executable and reused by later runs of the same build: the qutrit
/// bars' exact legs take tens of seconds each.
fn exact_cross_check(out_dir: &Path) -> Result<(Vec<String>, bool), String> {
    let exe = std::fs::read("/proc/self/exe").map_err(|e| format!("read own executable: {e}"))?;
    let cache = out_dir.join(format!("crossval-{:016x}.tsv", hash_of(&exe)));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        return Ok((text.lines().map(str::to_string).collect(), true));
    }
    let exact = Executor::new();
    let cases = inputs::fig11_crossval_specs(CROSSVAL_SEED, CROSSVAL_TRIALS);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let lines = Mutex::new(vec![String::new(); cases.len()]);
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((label, spec)) = cases.get(i) else {
                    break;
                };
                let verdict = match exact.cross_validate(spec, 3.0) {
                    Ok(cv) if cv.within_bounds() => "ok".to_string(),
                    Ok(cv) => format!(
                        "FAIL trajectory {} vs exact {} beyond {}",
                        cv.estimate.mean, cv.exact, cv.tolerance
                    ),
                    Err(e) => format!("FAIL {e}"),
                };
                lines.lock().expect("lines")[i] = format!("{label}\t{verdict}");
            });
        }
    });
    let lines = lines.into_inner().expect("lines");
    std::fs::write(&cache, lines.join("\n") + "\n")
        .map_err(|e| format!("write {}: {e}", cache.display()))?;
    Ok((lines, false))
}

pub fn fig11_noisy(seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let expect = Expect::Fidelity {
        trials: inputs::FIG11_TRIALS,
    };

    let mut exec = None;
    for k in 0..SETUPS {
        let specs = inputs::fig11_sweep(seed, k as u64);
        drop(exec.take());
        let start = Instant::now();
        let e = Executor::new();
        let results = e.run_batch(&specs);
        out.setup_s.push(start.elapsed().as_secs_f64());
        check_all(&mut out, &results, &expect);
        exec = Some(e);
    }
    let exec = exec.expect("set up");
    out.cpu_s = -serve::cpu_seconds("self")?;
    let origin = Instant::now();
    let steal = StealSampler::start(origin);
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut sweep = 1000u64;
    while Instant::now() < deadline {
        let specs = inputs::fig11_sweep(seed, sweep);
        sweep += 1;
        let t = Instant::now();
        let results = exec.run_batch(&specs);
        let dt = t.elapsed().as_secs_f64();
        out.completions.push(Completion {
            end_s: origin.elapsed().as_secs_f64(),
            latency_ms: dt * 1e3,
            jobs: specs.len(),
            evolutions: specs.iter().map(JobSpec::trials).sum(),
        });
        check_all(&mut out, &results, &expect);
    }
    out.steal = steal.finish();
    out.cpu_s += serve::cpu_seconds("self")?;
    out.peak_rss_mb = serve::peak_rss_mb("self")?;
    drop(exec);

    // Untimed, and after the peak RSS is read: the exact cross-check.
    let (lines, reused) = exact_cross_check(out_dir)?;
    for line in &lines {
        out.attempted += 1;
        if !line.ends_with("\tok") {
            out.fail(format!("exact cross-check: {line}"));
        }
    }
    out.notes.push(format!(
        "fig11 exact cross-check: {} bars at 3 sigma, {CROSSVAL_TRIALS} trials each{}",
        lines.len(),
        if reused {
            " (reused from an earlier run of this build)"
        } else {
            ""
        }
    ));
    Ok(out)
}

fn check_wide(result: &ExecutionResult, expected: &[usize], full: bool) -> Result<(), String> {
    let states = result.states().map_err(|e| e.to_string())?;
    let [state] = states else {
        return Err(format!("{} output states, expected 1", states.len()));
    };
    let p = state.probability(expected).map_err(|e| e.to_string())?;
    if (p - 1.0).abs() > 1e-9 {
        return Err(format!("P({expected:?}) = {p}, expected 1"));
    }
    if full {
        let total: f64 = state.probabilities().iter().sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(format!("norm² {total}, expected 1"));
        }
    }
    Ok(())
}

pub fn wide_replay(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let jobs = inputs::wide_jobs(seed);
    let mut out = Outcome::default();
    let run = |exec: &Executor, i: usize, out: &mut Outcome| -> f64 {
        let (spec, expected) = &jobs[i % jobs.len()];
        let t = Instant::now();
        let result = exec.run(spec);
        let dt = t.elapsed().as_secs_f64();
        out.attempted += 1;
        match result
            .map_err(|e| e.to_string())
            .and_then(|r| check_wide(&r, expected, i.is_multiple_of(WIDE_FULL_CHECK)))
        {
            Ok(()) => {}
            Err(e) => out.fail(e),
        }
        dt
    };
    let mut exec = None;
    for _ in 0..SETUPS {
        // One executor alive at a time: each holds ~0.5 GB of results.
        drop(exec.take());
        let start = Instant::now();
        let e = Executor::new();
        for i in 0..WIDE_WARMUP {
            run(&e, i, &mut out);
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
        exec = Some(e);
    }
    let exec = exec.expect("set up");
    out.cpu_s = -serve::cpu_seconds("self")?;
    let origin = Instant::now();
    let steal = StealSampler::start(origin);
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut i = WIDE_WARMUP;
    while Instant::now() < deadline {
        let dt = run(&exec, i, &mut out);
        i += 1;
        out.completions.push(Completion {
            end_s: origin.elapsed().as_secs_f64(),
            latency_ms: dt * 1e3,
            jobs: 1,
            evolutions: 1,
        });
    }
    out.steal = steal.finish();
    out.cpu_s += serve::cpu_seconds("self")?;
    out.peak_rss_mb = serve::peak_rss_mb("self")?;
    Ok(out)
}
