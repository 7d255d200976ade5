//! `qbench`: the repository benchmark.
//!
//! ```text
//! qbench --workload <serve_hot|serve_neuron|fig11_noisy|wide_replay>
//!        --seed <n> --seconds <s> --trace <0|1> --serve-bin <path>
//!        [--out-dir <dir>]
//! ```
//!
//! `--trace 0` runs the workload end to end and reports the end-to-end
//! metrics; `--trace 1` runs the traced per-layer pass over the same
//! seeded inputs. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the machine and
//! configuration go to the line before it and, with the spans of a
//! traced run, to a record in `--out-dir`. Exits 1 on any wrong answer
//! or failed request, 2 on bad usage.

mod e2e;
mod host;
mod inputs;
mod layers;
mod machine;
mod rng;
mod serve;
mod stats;
mod trace;

use stats::Samples;
use std::fmt::Write as _;
use std::path::PathBuf;

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_neuron", "fig11_noisy", "wide_replay"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    out_dir: PathBuf,
}

fn usage(message: &str) -> ! {
    eprintln!("qbench: {message}");
    eprintln!(
        "usage: qbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --serve-bin <path> [--out-dir <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out_dir = PathBuf::from("qbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed takes a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        serve_bin: serve_bin.unwrap_or_else(|| usage("--serve-bin is required")),
        out_dir,
    }
}

/// One metric as the result line prints it.
fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        attempted.max(1)
    )
}

fn end_to_end(args: &Args) -> Result<(String, Vec<String>, bool, usize, usize), String> {
    let seconds = args.seconds as f64;
    let out = match args.workload.as_str() {
        "serve_hot" => e2e::serve_hot(&args.serve_bin, args.seed, seconds)?,
        "serve_neuron" => e2e::serve_neuron(&args.serve_bin, args.seed, seconds)?,
        "fig11_noisy" => e2e::fig11_noisy(args.seed, seconds, &args.out_dir)?,
        _ => e2e::wide_replay(args.seed, seconds)?,
    };
    if out.completions.is_empty() {
        return Err("the measured window answered nothing".to_string());
    }
    let s = stats::summarise(out.completions, &out.steal, e2e::nproc());
    let mut m = String::from("{");
    metric(&mut m, "jobs_per_s", s.jobs_per_s, "1/s");
    metric(&mut m, "trials_per_s", s.evolutions_per_s, "1/s");
    metric(&mut m, "latency_p50_ms", s.p50_ms, "ms");
    metric(&mut m, "latency_p99_ms", s.p99_ms, "ms");
    let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    metric(&mut m, "success_frac", success, "fraction");
    metric(&mut m, "peak_rss_mb", out.peak_rss_mb, "MiB");
    metric(
        &mut m,
        "setup_s",
        Samples::new(out.setup_s.clone()).median(),
        "s",
    );
    m.push('}');
    let mut notes = out.notes;
    notes.push(format!(
        "{} samples in {} slices; medians over the {} least-stolen slices; latency_p99_ms reports quantile {:.4} of a slice (at least {} samples above it)",
        s.samples,
        s.slices,
        s.quiet_slices,
        s.tail_quantile,
        stats::TAIL_SUPPORT
    ));
    notes.push(format!(
        "program CPU per call: {:.2} us",
        out.cpu_s * 1e6 / s.samples as f64
    ));
    notes.push(format!(
        "host steal in the window: {:.2} CPU-s; share per slice: {}",
        out.steal.total(),
        joined(&s.slice_steal)
    ));
    notes.push(format!("calls/s per slice: {}", joined(&s.slice_rates)));
    notes.push(format!("tail ms per slice: {}", joined(&s.slice_p99_ms)));
    notes.push(format!("set-ups (s): {}", joined(&out.setup_s)));
    if let Some(e) = &out.first_failure {
        notes.push(format!("first failure: {e}"));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    Ok((m, notes, correct, out.attempted, out.failed))
}

fn main() {
    let args = parse_args();
    let time_wait = serve::tcp_time_wait();
    let config = machine::record(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        time_wait,
    );
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("qbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let record_path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));

    let outcome = if args.trace {
        layers::run(
            &args.workload,
            &args.serve_bin,
            args.seed,
            args.seconds as f64,
        )
        .map(|r| {
            let mut m = String::from("{");
            for (name, unit, value) in &r.metrics {
                metric(&mut m, name, *value, unit);
            }
            m.push('}');
            let mut notes = r.notes;
            notes.extend(r.table.iter().cloned());
            if let Some(e) = &r.first_failure {
                notes.push(format!("first failure: {e}"));
            }
            let correct = r.failed == 0 && r.attempted > 0;
            let extra = format!(
                ",\"roadmap_table\":{},\"spans\":{}",
                json_strings(&r.table),
                r.spans_json
            );
            (m, notes, correct, r.attempted, r.failed, extra)
        })
    } else {
        end_to_end(&args).map(|(m, notes, correct, a, f)| (m, notes, correct, a, f, String::new()))
    };

    match outcome {
        Ok((metrics, notes, correct, attempted, failed, extra)) => {
            for note in &notes {
                println!("# {note}");
            }
            println!("{config}");
            let line = result_line(correct, attempted, failed, &metrics);
            let record = format!(
                "{{\"config\":{config},\"result\":{line},\"notes\":{}{extra}}}\n",
                json_strings(&notes)
            );
            if let Err(e) = std::fs::write(&record_path, record) {
                eprintln!("qbench: cannot write {}: {e}", record_path.display());
                std::process::exit(1);
            }
            println!("{line}");
            if !correct {
                eprintln!("qbench: wrong or failed outputs ({failed} of {attempted})");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("qbench: {e}");
            std::process::exit(1);
        }
    }
}

fn joined(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(","))
}
