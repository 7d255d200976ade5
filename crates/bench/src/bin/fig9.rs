//! Regenerates Figure 9: exact circuit depth versus number of controls for
//! the QUBIT, QUBIT+ANCILLA and QUTRIT constructions.
//!
//! Two series are printed for each construction: the paper's analytic model
//! (the ~633N / ~76N / ~38·log₂N fits) and the depth measured from our own
//! constructions under the Di & Wei expansion of multi-qudit gates (see
//! DESIGN.md for the QUBIT substitution note).
//!
//! Usage: `cargo run --release -p bench --bin fig9 [-- --max 200 --step 25]`

use bench::{benchmark_circuit, verify_constructions_on};
use qudit_api::{BackendKind, CliArgs, Executor};
use qudit_circuit::ResourceReport;
use qutrit_toffoli::cost::{paper_depth_model, Construction};

fn main() {
    let args = CliArgs::from_env();
    let max: usize = args.flag_or("--max", 200).expect("--max");
    let step: usize = args.flag_or("--step", 25).expect("--step");
    let measure_cap: usize = args.flag_or("--measure-cap", 200).expect("--measure-cap");
    let backend = args.backend_or(BackendKind::Trajectory).expect("--backend");

    // The depths below are structural, but the constructions they measure
    // are first re-verified end-to-end through the selected backend.
    match verify_constructions_on(&Executor::new(), backend, 3) {
        Ok(()) => println!("(constructions verified on the {} backend)", backend.name()),
        Err(e) => {
            eprintln!("construction verification failed: {e}");
            std::process::exit(1);
        }
    }

    println!("Figure 9: circuit depth for the N-controlled Generalized Toffoli");
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "N",
        "QUBIT(model)",
        "QUBIT(meas)",
        "+ANC(model)",
        "+ANC(meas)",
        "QUTRIT(model)",
        "QUTRIT(meas)"
    );
    let mut n = step;
    while n <= max {
        let mut row = format!("{n:>6}");
        for construction in [
            Construction::Qubit,
            Construction::QubitAncilla,
            Construction::Qutrit,
        ] {
            let model = paper_depth_model(construction, n);
            let measured = if n <= measure_cap {
                let c = benchmark_circuit(construction, n);
                // Measured on the *physically lowered* circuit (Di & Wei
                // blocks in the IR).
                ResourceReport::measure(&c).depth().to_string()
            } else {
                "-".to_string()
            };
            row.push_str(&format!(" {model:>14.0} {measured:>14}"));
        }
        println!("{row}");
        n += step;
    }
    println!();
    println!("model: paper's fitted constants (~633N, ~76N, ~38·log2 N)");
    println!("meas:  physical depth measured on the lowered (Di & Wei) circuits");
}
