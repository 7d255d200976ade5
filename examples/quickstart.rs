//! Quickstart for the public `qudit-api` façade: build the paper's
//! ancilla-free Generalized Toffoli, verify it through an executor job,
//! estimate its noisy fidelity, compare construction costs, and round-trip
//! the job through the JSON wire format.
//!
//! Run with: `cargo run --release --example quickstart`

use qutrits::api::{BackendKind, Executor, InputState, JobSpec};
use qutrits::circuit::Schedule;
use qutrits::noise::models;
use qutrits::toffoli::baselines::{qubit_no_ancilla, qubit_one_dirty_ancilla};
use qutrits::toffoli::gen_toffoli::n_controlled_x;
use qutrits::toffoli::verify::verify_n_controlled_x_backend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_controls = 7;
    let executor = Executor::new();

    // 1. Build the qutrit-tree Generalized Toffoli: 7 controls, 1 target,
    //    no ancilla.
    let qutrit = n_controlled_x(n_controls)?;
    println!(
        "QUTRIT construction: width {} (controls + target only), {} operations",
        qutrit.width(),
        qutrit.len()
    );

    // 2. Verify it on every classical input (the paper's verification
    //    procedure), routed through the façade: the sweep runs as one
    //    compile-once executor job.
    match verify_n_controlled_x_backend(
        &executor,
        BackendKind::Trajectory,
        &qutrit,
        n_controls,
        n_controls,
    )? {
        None => println!(
            "verified: matches the {n_controls}-controlled NOT on all 2^{} inputs",
            n_controls + 1
        ),
        Some(cex) => println!("VERIFICATION FAILED: {cex:?}"),
    }

    // 3. Estimate the noisy fidelity under the paper's SC model — a noisy
    //    JobSpec; the executor compiles the Di & Wei lowering once.
    let job = JobSpec::builder(qutrit.clone())
        .noise(models::sc())
        .trials(20)
        .seed(2019)
        .input(InputState::RandomQubitSubspace)
        .build()?;
    let result = executor.run(&job)?;
    let estimate = result.fidelity()?;
    println!(
        "fidelity under {}: {:.2}% ± {:.2}% (binomial bound ±{:.2}%)",
        models::sc().name,
        100.0 * estimate.mean,
        100.0 * estimate.two_sigma(),
        100.0 * 2.0 * estimate.binomial_sigma(),
    );

    // 4. The job's resource report is the paper's count columns, measured
    //    on the compiled circuit; compare against the qubit-only baselines.
    println!();
    println!(
        "{:<15} {:>8} {:>12} {:>12} {:>10}",
        "construction", "width", "2-qudit", "1-qudit", "depth"
    );
    for (name, circuit) in [
        ("QUTRIT", qutrit.clone()),
        ("QUBIT", qubit_no_ancilla(n_controls, 2)?),
        ("QUBIT+ANCILLA", qubit_one_dirty_ancilla(n_controls, 2)?),
    ] {
        let report = qutrits::circuit::ResourceReport::measure(&circuit);
        println!(
            "{:<15} {:>8} {:>12} {:>12} {:>10}",
            name,
            report.physical.width,
            report.two_qudit_gates(),
            report.physical.one_qudit_gates,
            report.depth()
        );
    }

    // 5. The wire format: the same job as JSON, ready for a queue or a
    //    service front end — and back, revalidated.
    let wire = job.to_json();
    let restored = JobSpec::from_json(&wire)?;
    assert_eq!(restored, job);
    println!();
    println!(
        "job round-trips through {} bytes of JSON (circuit + model + config)",
        wire.len()
    );

    println!(
        "logical tree depth of the qutrit construction: {} moments",
        Schedule::asap(&qutrit).depth()
    );
    Ok(())
}
