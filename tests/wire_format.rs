//! Wire-format suite for the `qudit-api` façade: property-based round-trip
//! tests (`Circuit` / `NoiseModel` / `JobSpec` → JSON → back, equal — with
//! every float bit-exact), plus golden serialized Figure 4 Toffoli jobs and
//! a golden noise-free sweep result checked into `tests/golden/` so the wire
//! format cannot drift silently.
//!
//! Regenerate the golden files after an *intentional* format change with:
//! `UPDATE_GOLDEN=1 cargo test --test wire_format`

use proptest::prelude::*;
use qudit_api::{BackendKind, ExecutionResult, Executor, InputState, JobSpec, PassLevel, Topology};
use qudit_circuit::{Circuit, Control, Gate};
use qudit_core::{complex_gaussian, CMatrix, Complex};
use qudit_noise::{models, NoiseModel};
use qutrit_toffoli::gen_toffoli::n_controlled_x;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Haar-ish random unitary via modified Gram–Schmidt on a Gaussian
/// matrix (same construction as the pass-pipeline suite) — exercises
/// irrational float entries, where only shortest-roundtrip rendering
/// survives a JSON trip bit-exactly.
fn random_unitary(n: usize, rng: &mut StdRng) -> CMatrix {
    let mut cols: Vec<Vec<Complex>> = (0..n)
        .map(|_| (0..n).map(|_| complex_gaussian(rng)).collect())
        .collect();
    for i in 0..n {
        let (done, rest) = cols.split_at_mut(i);
        let col = &mut rest[0];
        for prev in done.iter() {
            let proj: Complex = prev
                .iter()
                .zip(col.iter())
                .map(|(a, b)| a.conj() * *b)
                .sum();
            for (x, y) in col.iter_mut().zip(prev.iter()) {
                *x -= proj * *y;
            }
        }
        let norm: f64 = col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!(norm > 1e-9, "degenerate random matrix");
        for z in col.iter_mut() {
            *z = z.scale(1.0 / norm);
        }
    }
    let mut m = CMatrix::zeros(n, n);
    for (c, col) in cols.iter().enumerate() {
        for (r, z) in col.iter().enumerate() {
            m.set(r, c, *z);
        }
    }
    m
}

/// A random circuit mixing classical, diagonal and dense gates with and
/// without controls.
fn random_circuit(dim: usize, width: usize, ops: usize, rng: &mut StdRng) -> Circuit {
    let mut circuit = Circuit::new(dim, width);
    for _ in 0..ops {
        let target = rng.gen_range(0..width);
        let gate = match rng.gen_range(0..5) {
            0 => Gate::increment(dim),
            1 => Gate::clock(dim),
            2 => Gate::h(dim),
            3 => Gate::from_matrix("U", dim, random_unitary(dim, rng)).unwrap(),
            _ => Gate::x(dim),
        };
        if width > 1 && rng.gen_bool(0.5) {
            let mut control = rng.gen_range(0..width);
            while control == target {
                control = rng.gen_range(0..width);
            }
            circuit
                .push_controlled(
                    gate,
                    &[Control::new(control, rng.gen_range(0..dim))],
                    &[target],
                )
                .unwrap();
        } else {
            circuit.push_gate(gate, &[target]).unwrap();
        }
    }
    circuit
}

/// A random model whose optional channels are valid for dimension `dim`
/// (leakage needs a |2⟩ level, so it is only drawn when `dim ≥ 3`).
fn random_model(rng: &mut StdRng, dim: usize) -> NoiseModel {
    NoiseModel {
        name: format!("RANDOM-{}", rng.gen_range(0..1000)),
        p1: rng.gen_range(0.0..1e-3),
        p2: rng.gen_range(0.0..1e-3),
        t1: if rng.gen_bool(0.5) {
            Some(rng.gen_range(1e-5..1e-1))
        } else {
            None
        },
        gate_time_1q: rng.gen_range(1e-9..1e-6),
        gate_time_2q: rng.gen_range(1e-9..1e-6),
        leak_rate: if dim >= 3 && rng.gen_bool(0.5) {
            Some(rng.gen_range(0.0..1e-3))
        } else {
            None
        },
        overrotation: if rng.gen_bool(0.5) {
            Some(rng.gen_range(0.0..0.1))
        } else {
            None
        },
        crosstalk: if rng.gen_bool(0.5) {
            Some(rng.gen_range(0.0..1e5))
        } else {
            None
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Circuits round-trip through JSON with every matrix entry bit-exact.
    #[test]
    fn circuit_round_trips_through_json(seed in 0u64..1_000_000, dim in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(1..4);
        let ops = rng.gen_range(1..8);
        let circuit = random_circuit(dim, width, ops, &mut rng);
        let back: Circuit = serde::json::from_str(&serde::json::to_string(&circuit))
            .expect("round trip");
        prop_assert_eq!(&back, &circuit);
    }

    /// Noise models round-trip (random parameters, optional T1).
    #[test]
    fn noise_model_round_trips_through_json(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(&mut rng, 3);
        let back: NoiseModel = serde::json::from_str(&serde::json::to_string(&model))
            .expect("round trip");
        prop_assert_eq!(&back, &model);
    }

    /// Whole job specs — circuit + level + backend + model + config —
    /// round-trip and re-validate.
    #[test]
    fn job_spec_round_trips_through_json(seed in 0u64..1_000_000, dim in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(1..4);
        let circuit = random_circuit(dim, width, rng.gen_range(1..6), &mut rng);
        let mut builder = JobSpec::builder(circuit)
            .trials(rng.gen_range(1..500))
            .seed(rng.gen_range(0..u64::MAX));
        if rng.gen_bool(0.5) {
            builder = builder
                .noise(random_model(&mut rng, dim))
                .level(if rng.gen_bool(0.5) {
                    PassLevel::Physical
                } else {
                    PassLevel::NoisePreserving
                });
        } else if rng.gen_bool(0.5) {
            let sweep: Vec<Vec<usize>> = (0..rng.gen_range(1..4))
                .map(|_| (0..width).map(|_| rng.gen_range(0..dim)).collect())
                .collect();
            builder = builder.sweep(sweep);
        }
        if rng.gen_bool(0.3) {
            builder = builder.backend(BackendKind::DensityMatrix);
        }
        if rng.gen_bool(0.4) {
            let topology = match rng.gen_range(0..3) {
                0 => Topology::all_to_all(width).unwrap(),
                1 => Topology::linear(width).unwrap(),
                _ => Topology::ring(width).unwrap(),
            };
            builder = builder.topology(topology);
        }
        let spec = builder.build().expect("valid random spec");
        let back = JobSpec::from_json(&spec.to_json()).expect("round trip");
        prop_assert_eq!(&back, &spec);
        // Pretty output parses to the same spec.
        let back = JobSpec::from_json(&spec.to_json_pretty()).expect("pretty round trip");
        prop_assert_eq!(&back, &spec);
    }
}

/// The golden job: the paper's Figure 4 Toffoli under SC+T1+GATES on the
/// exact backend — the canonical wire payload a service front end would
/// submit.
fn fig4_job() -> JobSpec {
    JobSpec::builder(n_controlled_x(2).expect("fig4 construction"))
        .backend(BackendKind::DensityMatrix)
        .noise(models::sc_t1_gates())
        .trials(400)
        .seed(2019)
        .input(InputState::AllOnes)
        .build()
        .expect("valid golden spec")
}

#[test]
fn golden_fig4_toffoli_job_matches_the_checked_in_wire_format() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig4_toffoli_job.json"
    );
    let spec = fig4_job();
    let rendered = spec.to_json_pretty();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run `UPDATE_GOLDEN=1 cargo test --test wire_format` once");
    // Byte-exact: the serializer is deterministic, so any diff is a real
    // wire-format change and must be intentional.
    assert_eq!(
        golden, rendered,
        "wire format drifted from tests/golden/fig4_toffoli_job.json"
    );
    // And the checked-in payload deserializes back to the same job.
    assert_eq!(JobSpec::from_json(&golden).unwrap(), spec);
    // The topology field is strictly additive: the pre-routing golden
    // payload has no such key, and parses with none attached.
    assert!(!golden.contains("topology"));
    assert!(JobSpec::from_json(&golden).unwrap().topology().is_none());
}

#[test]
fn golden_routed_fig4_job_matches_the_checked_in_wire_format() {
    // The routed variant of the golden job: same circuit and model, routed
    // for a 3-site line — pins the topology field's wire layout.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig4_toffoli_routed_job.json"
    );
    let spec = JobSpec::builder(n_controlled_x(2).expect("fig4 construction"))
        .backend(BackendKind::DensityMatrix)
        .noise(models::sc_t1_gates())
        .trials(400)
        .seed(2019)
        .input(InputState::AllOnes)
        .topology(Topology::linear(3).expect("3-site line"))
        .build()
        .expect("valid routed golden spec");
    let rendered = spec.to_json_pretty();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run `UPDATE_GOLDEN=1 cargo test --test wire_format` once");
    assert_eq!(
        golden, rendered,
        "wire format drifted from tests/golden/fig4_toffoli_routed_job.json"
    );
    assert_eq!(JobSpec::from_json(&golden).unwrap(), spec);
}

#[test]
fn golden_fig4_sweep_result_matches_the_checked_in_wire_format() {
    // A noise-free result payload: the fig4 Toffoli evolved over a
    // two-input basis sweep — pins the `states` outcome's byte layout.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig4_sweep_result.json"
    );
    let spec = JobSpec::builder(n_controlled_x(2).expect("fig4 construction"))
        .sweep(vec![vec![1, 1, 0], vec![0, 1, 1]])
        .build()
        .expect("valid sweep spec");
    let result = Executor::new().run(&spec).expect("noise-free sweep runs");
    let rendered = result.to_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run `UPDATE_GOLDEN=1 cargo test --test wire_format` once");
    assert_eq!(
        golden, rendered,
        "wire format drifted from tests/golden/fig4_sweep_result.json"
    );
    assert_eq!(ExecutionResult::from_json(&golden).unwrap(), result);
}
