//! The traced run (`--trace 1`): the same seeded inputs, with each
//! layer's public function called and timed from outside, in the order
//! the server and the `Executor` call them.
//!
//! Phases, all against one in-process `Executor` and one `serve` child:
//!
//! 1. untraced warm-up of both, as in the end-to-end set-up;
//! 2. sequential traced requests: per request, spans for parse, cache
//!    key, cache probe, the executor run (on a miss), serialisation, a
//!    replica of the run's internals (passes, plan build, replay, noise
//!    artifacts, trials) and the served request;
//! 3. a closed-loop burst against the server, sampling `/healthz`;
//! 4. probes of the rayon shim.

use crate::e2e::{check_body, nproc};
use crate::inputs::{self, Expect, HotStream, NeuronStream, Request};
use crate::serve::{self, closed_loop, Client, ServeChild};
use crate::stats::Samples;
use crate::trace::{self, Tracer};
use qudit_api::{Executor, InputState, JobSpec, NoiseModel, PassLevel};
use qudit_circuit::passes::{
    compile_with_topology, CancellationPass, CircuitIr, DecompositionPass, FusionPass, Pass,
    RepackPass, SpecializePass,
};
use qudit_circuit::Circuit;
use qudit_core::StateVector;
use qudit_noise::{SharedNoiseArtifacts, TrajectorySimulator};
use qudit_sim::{CompiledCircuit, Simulator};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in report order.
pub const METRICS: [(&str, &str); 26] = [
    ("api.spec_parse_us", "us"),
    ("api.cache_key_us", "us"),
    ("api.cache_probe_us", "us"),
    ("api.result_serialize_us", "us"),
    ("http.residual_us", "us"),
    ("server.cpu_us_per_request", "us"),
    ("server.queue_depth_mean", "count"),
    ("server.result_cache_hit_frac", "fraction"),
    ("passes.compile_us", "us"),
    ("passes.cancel_us", "us"),
    ("passes.decompose_us", "us"),
    ("passes.fuse_us", "us"),
    ("passes.repack_us", "us"),
    ("passes.specialize_us", "us"),
    ("passes.rounds", "count"),
    ("passes.ops_out", "count"),
    ("sim.plan_build_us", "us"),
    ("sim.replay_us", "us"),
    ("sim.replay_seq_us", "us"),
    ("sim.bytes_moved", "B_computed"),
    ("noise.trial_us", "us"),
    ("noise.artifacts_build_us", "us"),
    ("noise.artifacts_shared_frac", "fraction"),
    ("rayon.dispatch_us", "us"),
    ("rayon.par_efficiency", "fraction"),
    ("trace.overhead_us", "us"),
];

/// The standard passes: `Pass::name`, span name, metric name.
const PASSES: [(&str, &str, &str); 5] = [
    ("cancel", "passes.cancel", "passes.cancel_us"),
    ("decompose", "passes.decompose", "passes.decompose_us"),
    ("fuse", "passes.fuse", "passes.fuse_us"),
    ("repack", "passes.repack", "passes.repack_us"),
    ("specialize", "passes.specialize", "passes.specialize_us"),
];

/// Requests always replicated layer by layer, hit or miss, so every
/// workload reports every layer.
const ALWAYS_REPLICATE: usize = 8;
/// Trials per replica.
const REPLICA_TRIALS: u64 = 2;
/// Cap on sequential traced requests.
const MAX_TRACED: usize = 400;
/// `/healthz` sampling interval during the burst.
const HEALTH_EVERY: Duration = Duration::from_millis(20);

/// Everything the traced run produced.
pub struct Report {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    pub table: Vec<String>,
    pub spans_json: String,
    pub notes: Vec<String>,
}

/// The workload's request stream for the traced run.
fn stream(workload: &str, seed: u64, tag: u64) -> Box<dyn FnMut() -> Request + Send> {
    match workload {
        "serve_hot" => {
            let set = Arc::new(inputs::hot_set(seed));
            let mut ranks = HotStream::new(seed, tag);
            Box::new(move || set[ranks.next_rank()].clone())
        }
        "serve_neuron" => {
            let mut s = NeuronStream::new(seed, tag);
            Box::new(move || s.next().expect("endless stream"))
        }
        "fig11_noisy" => {
            let expect = Arc::new(Expect::Fidelity {
                trials: inputs::FIG11_TRIALS,
            });
            let mut sweep = 2000 + tag * 1_000_000;
            let mut pending: Vec<JobSpec> = Vec::new();
            Box::new(move || {
                if pending.is_empty() {
                    pending = inputs::fig11_sweep(seed, sweep);
                    pending.reverse();
                    sweep += 1;
                }
                let spec = pending.pop().expect("refilled");
                Request {
                    body: spec.to_json().into(),
                    expect: Arc::clone(&expect),
                }
            })
        }
        _ => {
            let jobs: Vec<Request> = inputs::wide_jobs(seed)
                .into_iter()
                .map(|(spec, out)| Request {
                    body: spec.to_json().into(),
                    expect: Arc::new(Expect::Basis(vec![out])),
                })
                .collect();
            // Streams start a third of the cycle apart, so burst clients
            // do not answer each other's jobs from the result cache.
            let mut i = (tag as usize * jobs.len() / 3) % jobs.len();
            Box::new(move || {
                i += 1;
                jobs[i % jobs.len()].clone()
            })
        }
    }
}

/// Untraced warm-up for each workload: requests through the executor,
/// and how many of them also go to the server (a `wide_replay` answer is
/// a 1 MB body, so the server only gets a few).
fn warmup_len(workload: &str) -> (usize, usize) {
    match workload {
        "serve_hot" => (2000, 2000),
        "serve_neuron" => (600, 600),
        "fig11_noisy" => (16, 16),
        _ => (600, 32),
    }
}

/// A burst client over a traced stream, checking every answer.
struct StreamClient {
    next: Box<dyn FnMut() -> Request + Send>,
    last: Option<Arc<Expect>>,
}

impl Client for StreamClient {
    fn next(&mut self) -> Option<Arc<str>> {
        let r = (self.next)();
        self.last = Some(r.expect);
        Some(r.body)
    }

    fn verify(&mut self, body: &[u8]) -> Result<usize, String> {
        check_body(body, self.last.as_ref().expect("a request was sent"))
    }
}

/// A noise model with every rate at zero: the trial loop with nothing to
/// sample, for timing the noise layer on noise-free workloads.
fn silent_model() -> NoiseModel {
    NoiseModel {
        name: "SILENT".to_string(),
        p1: 0.0,
        p2: 0.0,
        t1: None,
        gate_time_1q: 100e-9,
        gate_time_2q: 300e-9,
        leak_rate: None,
        overrotation: None,
        crosstalk: None,
    }
}

/// The standard pipeline of `level` (no topology), as
/// `PassManager::standard` builds it.
fn standard_passes(level: PassLevel) -> Vec<Box<dyn Pass>> {
    let fuse = |across_moments| Box::new(FusionPass { across_moments }) as Box<dyn Pass>;
    match level {
        PassLevel::NoisePreserving => vec![fuse(false), Box::new(SpecializePass)],
        PassLevel::Physical => vec![
            Box::new(DecompositionPass),
            fuse(false),
            Box::new(RepackPass),
            Box::new(SpecializePass),
        ],
        PassLevel::PhysicalIdeal => vec![
            Box::new(DecompositionPass),
            Box::new(CancellationPass),
            fuse(true),
            Box::new(RepackPass),
            Box::new(SpecializePass),
        ],
        PassLevel::Ideal => vec![
            Box::new(CancellationPass),
            fuse(true),
            Box::new(RepackPass),
            Box::new(SpecializePass),
        ],
    }
}

fn pass_span(name: &str) -> &'static str {
    PASSES
        .iter()
        .find(|(pass, _, _)| *pass == name)
        .map_or("passes.other", |(_, span, _)| span)
}

/// The pass pipeline through `Pass::run`, one span per invocation, to a
/// fixpoint as `PassManager::compile` runs it. Passes the level does not
/// run are timed once each on the input circuit, so every workload
/// reports every pass. Returns (rounds, ops out).
fn traced_pipeline(t: &mut Tracer, circuit: &Circuit, level: PassLevel) -> (usize, usize) {
    let passes = standard_passes(level);
    let mut ir = CircuitIr::new(circuit);
    let mut round = 0;
    loop {
        round += 1;
        let mut changed = false;
        for pass in passes.iter().filter(|p| !p.is_analysis()) {
            let stats = t.span(pass_span(pass.name()), || pass.run(&mut ir));
            changed |= stats.changed();
        }
        if !changed {
            break;
        }
    }
    for pass in passes.iter().filter(|p| p.is_analysis()) {
        t.span(pass_span(pass.name()), || pass.run(&mut ir));
    }
    let ops_out = ir.circuit().len();
    let all: Vec<Box<dyn Pass>> = standard_passes(PassLevel::PhysicalIdeal);
    for pass in all
        .iter()
        .filter(|p| !passes.iter().any(|q| q.name() == p.name()))
    {
        let mut probe = CircuitIr::new(circuit);
        t.span(pass_span(pass.name()), || pass.run(&mut probe));
    }
    (round, ops_out)
}

/// The first basis input of a spec (its sweep's first entry, its basis
/// input, or |0…0⟩ for distribution inputs).
fn first_input(spec: &JobSpec) -> Vec<usize> {
    if let Some(first) = spec.sweep().first() {
        return first.clone();
    }
    match spec.input() {
        InputState::Basis(digits) => digits.clone(),
        InputState::AllOnes => vec![1; spec.circuit().width()],
        InputState::RandomQubitSubspace => vec![0; spec.circuit().width()],
    }
}

/// Per-replica values that are not span durations.
#[derive(Default)]
struct ReplicaCounts {
    rounds: Vec<f64>,
    ops_out: Vec<f64>,
    bytes_moved: Vec<f64>,
}

/// Replays the internals of `Executor::run` for `spec` through their
/// public entry points, one span each.
fn replica(
    t: &mut Tracer,
    exec: &Executor,
    spec: &JobSpec,
    counts: &mut ReplicaCounts,
    request: u64,
) -> Result<(), String> {
    let circuit = spec.circuit();
    let level = spec.level();
    let ir = t.span("passes.compile", || {
        compile_with_topology(circuit, level, spec.topology())
    });
    let pipeline = t.enter("passes.pipeline");
    let (rounds, ops_out) = traced_pipeline(t, circuit, level);
    t.exit(pipeline);
    counts.rounds.push(rounds as f64);
    counts.ops_out.push(ops_out as f64);

    t.span("sim.plan_build", || CompiledCircuit::compile_ir(&ir));
    let job = exec.compile_statevector(circuit, level);
    let digits = first_input(spec);
    let state = StateVector::from_basis_state(circuit.dim(), &digits).map_err(|e| e.to_string())?;
    let par = t.span("sim.replay", || job.run(state.clone()));
    let seq = t.span("sim.replay_seq", || job.run_sequential(state));
    par.and(seq).map_err(|e| e.to_string())?;
    let amps = (circuit.dim() as f64).powi(circuit.width() as i32);
    counts
        .bytes_moved
        .push(2.0 * 16.0 * amps * job.op_count() as f64);

    // The noise layer: the spec's own model, or a silent one on the
    // physically lowered circuit for noise-free specs.
    let silent = silent_model();
    let (model, noise_ir, input) = match spec.noise() {
        Some(model) => (model, None, spec.input().clone()),
        None => (
            &silent,
            Some(compile_with_topology(circuit, PassLevel::Physical, None)),
            InputState::Basis(digits),
        ),
    };
    let noise_ir = noise_ir.as_ref().unwrap_or(&ir);
    let sim = t.span("noise.artifacts_build", || {
        SharedNoiseArtifacts::from_ir(noise_ir).and_then(|artifacts| {
            TrajectorySimulator::from_artifacts_with(&artifacts, model, &Simulator::new())
        })
    });
    let sim = sim.map_err(|e| e.to_string())?;
    for k in 0..REPLICA_TRIALS {
        let f = t.span("noise.trial", || sim.run_trial(&input, request * 131 + k));
        let f = f.map_err(|e| e.to_string())?;
        if !(-1e-9..=1.0 + 1e-9).contains(&f) {
            return Err(format!("trial fidelity {f} outside [0, 1]"));
        }
    }
    Ok(())
}

/// Summed span durations (µs) per request, for spans named `name`.
fn per_request_sums(tracer: &Tracer, name: &str) -> Samples {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tracer.spans().iter().filter(|s| s.name == name) {
        *sums.entry(s.request).or_default() += s.duration_ns() as f64 / 1e3;
    }
    Samples::new(sums.into_values().collect())
}

/// The ROADMAP layer table for the three serving bodies (Figure 4,
/// `qft(3,3)`, `qft_adder(3,2)`): median µs of each step over `reps`.
fn roadmap_table(reps: usize) -> Vec<String> {
    let median = |f: &mut dyn FnMut()| median_us(reps, f);
    let mut rows = vec![
        "| body | from_json us | to_json us | run warm, no result cache us | run result-cache hit us | result to_json us |".to_string(),
        "|---|---:|---:|---:|---:|---:|".to_string(),
    ];
    for (label, body) in ["fig4", "QFT", "adder"]
        .iter()
        .zip(bench::serve_support::mixed_job_jsons())
    {
        let spec = JobSpec::from_json(&body).expect("serving body parses");
        let uncached = Executor::with_result_cache(0);
        let cached = Executor::new();
        let result = uncached.run(&spec).expect("serving body runs");
        cached.run(&spec).expect("serving body runs");
        let cols = [
            median(&mut || drop(std::hint::black_box(JobSpec::from_json(&body)))),
            median(&mut || drop(std::hint::black_box(spec.to_json()))),
            median(&mut || drop(std::hint::black_box(uncached.run(&spec)))),
            median(&mut || drop(std::hint::black_box(cached.run(&spec)))),
            median(&mut || drop(std::hint::black_box(result.to_json()))),
        ];
        rows.push(format!(
            "| {label} ({} B) | {:.1} | {:.1} | {:.2} | {:.1} | {:.1} |",
            body.len(),
            cols[0],
            cols[1],
            cols[2],
            cols[3],
            cols[4]
        ));
    }
    rows
}

/// Median µs of `reps` calls of `f`.
fn median_us(reps: usize, f: &mut dyn FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Samples::new(times).median()
}

/// Parallel efficiency `T_seq / (nproc · T_par)` of `work` over `n`
/// items: once in a plain loop, once through `into_par_iter`.
fn par_efficiency(n: usize, work: &(dyn Fn(usize) + Sync)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        work(i);
    }
    let seq = t.elapsed().as_secs_f64();
    let t = Instant::now();
    (0..n).into_par_iter().for_each(work);
    let par = t.elapsed().as_secs_f64();
    seq / (nproc() as f64 * par.max(1e-12))
}

pub fn run(workload: &str, bin: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut first_failure: Option<String> = None;
    let mut fail = |e: String, failed: &mut usize| {
        *failed += 1;
        first_failure.get_or_insert(e);
    };

    let exec = Executor::new();
    let child = ServeChild::spawn(bin)?;
    let mut next = stream(workload, seed, 0);

    // 1. Warm-up, untraced: the same requests through the executor
    //    (probe, then run on a miss) and the server.
    let (warm, warm_served) = warmup_len(workload);
    for k in 0..warm {
        let r = next();
        let spec = JobSpec::from_json(&r.body).map_err(|e| e.to_string())?;
        if exec.cached_result(&spec).is_none() {
            exec.run(&spec).map_err(|e| e.to_string())?;
        }
        if k >= warm_served {
            continue;
        }
        let resp = serve::post_job(child.addr, &r.body).map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!("warm-up answered {}", resp.status));
        }
    }

    // 2. Sequential traced requests.
    let mut t = Tracer::new();
    let mut counts = ReplicaCounts::default();
    let mut residuals = Vec::new();
    let mut spans_per_request = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.5);
    let mut id = 0u64;
    while (id as usize) < MAX_TRACED && (id < 2 || Instant::now() < deadline) {
        let r = next();
        t.set_request(id);
        let before = t.spans().len();
        let root = t.enter("request");
        let mut in_process = 0u64;
        let parse = t.enter("api.spec_parse");
        let spec = JobSpec::from_json(&r.body);
        in_process += t.exit(parse);
        let spec = spec.map_err(|e| e.to_string())?;
        t.span("api.cache_key", || spec.to_json());
        let probe = t.enter("api.cache_probe");
        let hit = exec.cached_result(&spec);
        in_process += t.exit(probe);
        let miss = hit.is_none();
        let result = match hit {
            Some(result) => Ok(result),
            None => {
                let run = t.enter("executor.run");
                let result = exec.run(&spec);
                in_process += t.exit(run);
                result
            }
        };
        attempted += 1;
        match result {
            Ok(result) => {
                if let Err(e) = r.expect.check(&result) {
                    fail(e, &mut failed);
                }
                let ser = t.enter("api.result_serialize");
                std::hint::black_box(result.to_json());
                in_process += t.exit(ser);
            }
            Err(e) => fail(e.to_string(), &mut failed),
        }
        if miss || (id as usize) < ALWAYS_REPLICATE {
            let layers = t.enter("layers");
            let replayed = replica(&mut t, &exec, &spec, &mut counts, id);
            t.exit(layers);
            if let Err(e) = replayed {
                fail(e, &mut failed);
            }
        }
        let served = t.enter("http.served");
        let resp = serve::post_job(child.addr, &r.body);
        let served_ns = t.exit(served);
        attempted += 1;
        match resp {
            Ok(resp) if resp.status == 200 => {
                if let Err(e) = check_body(&resp.body, &r.expect) {
                    fail(e, &mut failed);
                }
            }
            Ok(resp) => fail(format!("served status {}", resp.status), &mut failed),
            Err(e) => fail(format!("transport: {e}"), &mut failed),
        }
        t.exit(root);
        residuals.push((served_ns as f64 - in_process as f64) / 1e3);
        spans_per_request.push((t.spans().len() - before) as f64);
        id += 1;
    }

    // 3. Closed-loop burst against the server, sampling /healthz.
    let h0 = serve::healthz(child.addr)?;
    let cpu0 = child.cpu_seconds()?;
    let done = Arc::new(AtomicBool::new(false));
    let depths = Arc::new(Mutex::new(Vec::new()));
    let poller = {
        let (done, depths, addr) = (Arc::clone(&done), Arc::clone(&depths), child.addr);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if let Ok(h) = serve::healthz(addr) {
                    let depth = serve::health_num(&h, &["queue", "depth"]);
                    depths.lock().expect("depths").push(depth);
                }
                std::thread::sleep(HEALTH_EVERY);
            }
        })
    };
    let clients: Vec<StreamClient> = (0..nproc())
        .map(|i| StreamClient {
            next: stream(workload, seed, 1 + i as u64),
            last: None,
        })
        .collect();
    let origin = Instant::now();
    let until = origin + Duration::from_secs_f64(seconds * 0.25);
    let burst = closed_loop(child.addr, clients, origin, Some(until), usize::MAX);
    done.store(true, Ordering::Relaxed);
    let _ = poller.join();
    let cpu1 = child.cpu_seconds()?;
    let h1 = serve::healthz(child.addr)?;
    child.shutdown()?;
    attempted += burst.attempted;
    failed += burst.failed;
    if let Some(e) = burst.first_failure.clone() {
        first_failure.get_or_insert(e);
    }
    let delta = |path: &[&str]| serve::health_num(&h1, path) - serve::health_num(&h0, path);
    let (hits, misses) = (
        delta(&["result_cache", "hits"]),
        delta(&["result_cache", "misses"]),
    );

    // 4. Probes.
    let dispatch = median_us(500, &mut || {
        (0..nproc()).into_par_iter().for_each(|i| {
            std::hint::black_box(i);
        })
    });
    let first = JobSpec::from_json(&next().body).map_err(|e| e.to_string())?;
    let efficiency = match first.noise() {
        // Noisy: the trial fan-out of one job.
        Some(model) => {
            let ir = compile_with_topology(first.circuit(), first.level(), None);
            let artifacts = SharedNoiseArtifacts::from_ir(&ir).map_err(|e| e.to_string())?;
            let sim =
                TrajectorySimulator::from_artifacts_with(&artifacts, model, &Simulator::new())
                    .map_err(|e| e.to_string())?;
            let input = first.input().clone();
            par_efficiency(inputs::FIG11_TRIALS, &|i| {
                std::hint::black_box(sim.run_trial(&input, i as u64).ok());
            })
        }
        // Noise-free: the kernel fan-out of one replay.
        None => {
            let job = exec.compile_statevector(first.circuit(), first.level());
            let state = StateVector::from_basis_state(first.circuit().dim(), &first_input(&first))
                .map_err(|e| e.to_string())?;
            let seq = median_us(20, &mut || {
                std::hint::black_box(job.run_sequential(state.clone()).ok());
            });
            let par = median_us(20, &mut || {
                std::hint::black_box(job.run(state.clone()).ok());
            });
            seq / (nproc() as f64 * par.max(1e-6))
        }
    };
    let artifacts = exec.noise_artifact_stats();
    let shared_frac = if artifacts.sites_built + artifacts.sites_shared == 0 {
        0.0
    } else {
        artifacts.sites_shared as f64 / (artifacts.sites_built + artifacts.sites_shared) as f64
    };
    let table = if workload == "serve_hot" {
        roadmap_table(200)
    } else {
        Vec::new()
    };

    let by_name = trace::durations_us(t.spans());
    let med = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |v| Samples::new(v.clone()).median())
    };
    let overhead_us =
        trace::overhead_ns_per_span() * Samples::new(spans_per_request).median() / 1e3;
    let mut metrics: HashMap<&str, f64> = HashMap::new();
    metrics.insert("api.spec_parse_us", med("api.spec_parse"));
    metrics.insert("api.cache_key_us", med("api.cache_key"));
    metrics.insert("api.cache_probe_us", med("api.cache_probe"));
    metrics.insert("api.result_serialize_us", med("api.result_serialize"));
    metrics.insert("http.residual_us", Samples::new(residuals).median());
    metrics.insert(
        "server.cpu_us_per_request",
        (cpu1 - cpu0) * 1e6 / burst.attempted.max(1) as f64,
    );
    metrics.insert(
        "server.queue_depth_mean",
        Samples::new(depths.lock().expect("depths").clone()).mean(),
    );
    metrics.insert(
        "server.result_cache_hit_frac",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    metrics.insert("passes.compile_us", med("passes.compile"));
    for (_, span, metric) in PASSES {
        metrics.insert(metric, per_request_sums(&t, span).median());
    }
    metrics.insert("passes.rounds", Samples::new(counts.rounds).median());
    metrics.insert("passes.ops_out", Samples::new(counts.ops_out).median());
    metrics.insert("sim.plan_build_us", med("sim.plan_build"));
    metrics.insert("sim.replay_us", med("sim.replay"));
    metrics.insert("sim.replay_seq_us", med("sim.replay_seq"));
    metrics.insert("sim.bytes_moved", Samples::new(counts.bytes_moved).median());
    metrics.insert("noise.trial_us", med("noise.trial"));
    metrics.insert("noise.artifacts_build_us", med("noise.artifacts_build"));
    metrics.insert("noise.artifacts_shared_frac", shared_frac);
    metrics.insert("rayon.dispatch_us", dispatch);
    metrics.insert("rayon.par_efficiency", efficiency);
    metrics.insert("trace.overhead_us", overhead_us);

    let notes = vec![
        format!(
            "traced {id} sequential requests, {} burst requests; result cache {hits} hits / {misses} misses in the burst",
            burst.attempted
        ),
        format!(
            "trace overhead {:.3} us per request (included in the span durations)",
            overhead_us
        ),
    ];
    Ok(Report {
        metrics: METRICS
            .iter()
            .map(|&(name, unit)| (name, unit, metrics[name]))
            .collect(),
        attempted,
        failed,
        first_failure,
        table,
        spans_json: t.to_json(),
        notes,
    })
}
