//! Cross-crate integration tests for the noise stack and the experiment
//! harness: the channels are physical, the noise-model tables match the
//! paper, and the Figure 11 fidelity ordering (QUTRIT ≫ QUBIT) holds on a
//! reduced-size instance.
//!
//! The fidelity-ordering tests run on the exact density-matrix backend, so
//! they are *deterministic*: they compare ground-truth values, not Monte
//! Carlo samples. (Their predecessors asserted on trajectory means and had
//! to be widened to ~100 trials to stop being coin flips under RNG-stream
//! changes.)

use qudit_api::{BackendKind, Executor, JobSpec};
use qudit_circuit::passes::{self, PassLevel};
use qudit_circuit::Circuit;
use qudit_noise::{
    lambda_m, models, qutrit_two_qudit_reliability_ratio, CancelToken, DensityNoiseSimulator,
    InputState, NoiseModel, Precision, SharedNoiseArtifacts, TrajectoryConfig, TrajectorySimulator,
};
use qudit_sim::kernel::SimdLevel;
use qudit_sim::Simulator;
use qutrit_toffoli::baselines::{qubit_no_ancilla, qubit_one_dirty_ancilla};
use qutrit_toffoli::cost::{paper_depth_model, paper_two_qudit_gate_model, Construction};
use qutrit_toffoli::gen_toffoli::n_controlled_x;

/// The exact-backend fidelity of `circuit` under `model` on the all-|1⟩
/// input, at the default physical accounting.
fn exact_all_ones(executor: &Executor, circuit: Circuit, model: &NoiseModel, seed: u64) -> f64 {
    let spec = JobSpec::builder(circuit)
        .noise(model.clone())
        .backend(BackendKind::DensityMatrix)
        .trials(1)
        .seed(seed)
        .input(InputState::AllOnes)
        .build()
        .unwrap();
    executor.run(&spec).unwrap().fidelity().unwrap().mean
}

/// The noise artifacts of `circuit` at the physical accounting, built the
/// way the executor builds them.
fn physical_artifacts(circuit: &Circuit) -> SharedNoiseArtifacts {
    SharedNoiseArtifacts::from_ir(&passes::compile(circuit, PassLevel::Physical)).unwrap()
}

#[test]
fn all_paper_noise_models_produce_valid_channels() {
    for model in models::all_models() {
        for d in [2usize, 3] {
            model
                .single_qudit_gate_error(d)
                .unwrap()
                .validate()
                .unwrap();
            model.two_qudit_gate_error(d).unwrap().validate().unwrap();
        }
    }
}

#[test]
fn qutrit_gates_are_less_reliable_per_operation_but_fewer_are_needed() {
    // Section 7.1.1: two-qutrit gates are (1-80p2)/(1-15p2) times less
    // reliable than two-qubit gates...
    let p2 = models::sc().p2;
    let per_gate_ratio = qutrit_two_qudit_reliability_ratio(p2);
    assert!(per_gate_ratio < 1.0);
    // ...but the construction needs ~66x fewer of them (Figure 10), which is
    // why the qutrit circuit wins overall.
    let n = 100;
    let gate_ratio = paper_two_qudit_gate_model(Construction::Qubit, n)
        / paper_two_qudit_gate_model(Construction::Qutrit, n);
    assert!(gate_ratio > 60.0);
}

#[test]
fn idle_error_probability_increases_with_duration_and_level() {
    let t1 = 1e-3;
    assert!(lambda_m(1, 300e-9, t1) > lambda_m(1, 100e-9, t1));
    assert!(lambda_m(2, 300e-9, t1) > lambda_m(1, 300e-9, t1));
}

#[test]
fn figure11_ordering_holds_exactly_at_reduced_size() {
    // A 4-control instance is enough to see the qualitative ordering of
    // Figure 11: QUTRIT > QUBIT+ANCILLA > QUBIT under the SC model. The
    // exact density-matrix backend makes the comparison deterministic: the
    // three numbers are ground truth (~0.9037, ~0.8720, ~0.8692 on the
    // all-|1⟩ input), not Monte Carlo samples, so no trial count or RNG
    // stream can flip the assertion.
    let n = 4;
    let model = models::sc();
    let executor = Executor::new();

    let qutrit = exact_all_ones(&executor, n_controlled_x(n).unwrap(), &model, 7);
    let qubit = exact_all_ones(&executor, qubit_no_ancilla(n, 2).unwrap(), &model, 7);
    let ancilla = exact_all_ones(&executor, qubit_one_dirty_ancilla(n, 2).unwrap(), &model, 7);

    assert!(
        qutrit > ancilla && ancilla > qubit,
        "expected QUTRIT ({qutrit:.4}) > QUBIT+ANCILLA ({ancilla:.4}) > QUBIT ({qubit:.4})"
    );
    assert!(
        qutrit > 0.85,
        "qutrit fidelity should stay high: {qutrit:.4}"
    );
}

#[test]
fn trapped_ion_qutrit_models_favour_the_dressed_qutrit_exactly() {
    // Exact backend: DRESSED_QUTRIT's better two-qudit error rate must give
    // a strictly higher ground-truth fidelity than BARE_QUTRIT — no
    // tolerance band needed once sampling noise is out of the comparison.
    let n = 4;
    let circuit = n_controlled_x(n).unwrap();
    let executor = Executor::new();
    let bare = exact_all_ones(&executor, circuit.clone(), &models::bare_qutrit(), 3);
    let dressed = exact_all_ones(&executor, circuit, &models::dressed_qutrit(), 3);
    assert!(
        dressed > bare,
        "dressed ({dressed:.6}) must beat bare ({bare:.6}) exactly"
    );
    assert!(dressed > 0.99);
}

#[test]
fn figure9_and_figure10_models_have_the_paper_shape() {
    // Figure 9: depth ordering and the log-vs-linear gap widens with N.
    let gap_at_50 =
        paper_depth_model(Construction::Qubit, 50) / paper_depth_model(Construction::Qutrit, 50);
    let gap_at_200 =
        paper_depth_model(Construction::Qubit, 200) / paper_depth_model(Construction::Qutrit, 200);
    assert!(gap_at_200 > gap_at_50);
    // Figure 10: all three series are linear, so their ratios are constant.
    let r1 = paper_two_qudit_gate_model(Construction::QubitAncilla, 50)
        / paper_two_qudit_gate_model(Construction::Qutrit, 50);
    let r2 = paper_two_qudit_gate_model(Construction::QubitAncilla, 200)
        / paper_two_qudit_gate_model(Construction::Qutrit, 200);
    assert!((r1 - r2).abs() < 1e-9);
    assert!((r1 - 8.0).abs() < 1.0, "the paper quotes an 8x gap");
}

#[test]
fn trajectory_trial_streams_are_pinned_bit_for_bit() {
    // The sum of the per-trial fidelity stream of four Figure 11 bars at 3
    // controls, 64 random qubit-subspace trials and a fixed seed, pinned to
    // the bit. Any change to the trial loop (branch sampling, kernel
    // scratch, input draws, ideal-state reuse) that shifts a single draw or
    // rounding step moves these sums. The dense run kernels round
    // differently with and without FMA, so the qubit bars carry one value
    // per SIMD level.
    let avx2 = qudit_sim::kernel::simd_level() == SimdLevel::Avx2;
    let cases = [
        (
            "QUBIT/SC",
            qubit_no_ancilla(3, 2).unwrap(),
            models::sc(),
            if avx2 {
                0x404e_9638_9abf_741f_u64
            } else {
                0x404e_9638_9abf_741e
            },
        ),
        (
            "QUBIT+ANCILLA/SC+T1",
            qubit_one_dirty_ancilla(3, 2).unwrap(),
            models::sc_t1(),
            0x404f_123d_1029_11ad,
        ),
        (
            "QUTRIT/SC+T1+GATES",
            n_controlled_x(3).unwrap(),
            models::sc_t1_gates(),
            0x404f_ffff_e843_86d6,
        ),
        (
            "QUTRIT/DRESSED_QUTRIT",
            n_controlled_x(3).unwrap(),
            models::dressed_qutrit(),
            0x4050_0000_0000_0001,
        ),
    ];
    let config = TrajectoryConfig {
        trials: 64,
        seed: 1111,
        input: InputState::RandomQubitSubspace,
    };
    for (label, circuit, model, expected) in cases {
        let artifacts = physical_artifacts(&circuit);
        let sim = TrajectorySimulator::from_artifacts_with(&artifacts, &model, &Simulator::new())
            .unwrap();
        let mut stream = Vec::new();
        let estimate = sim
            .run(
                &config,
                &Precision::FixedTrials,
                &CancelToken::never(),
                Some(&mut stream),
            )
            .unwrap();
        assert_eq!(estimate.trials, 64);
        let sum: f64 = stream.iter().sum();
        assert_eq!(
            sum.to_bits(),
            expected,
            "{label}: stream sum {sum} ({:#018x})",
            sum.to_bits()
        );
    }
}

#[test]
fn executor_runs_match_the_artifact_path_bit_for_bit() {
    // The executor and the per-layer probes reach the engines two ways:
    // `Executor::run` on a spec, and `from_artifacts_with(..).run(..)` over
    // artifacts compiled by hand. Both must give the same estimate to the
    // bit, on each backend, at fixed and adaptive precision.
    let circuit = n_controlled_x(2).unwrap();
    let model = models::sc_t1_gates();
    let artifacts = physical_artifacts(&circuit);
    let planner = Simulator::new();
    let never = CancelToken::never();
    let config = TrajectoryConfig {
        trials: 64,
        seed: 2019,
        input: InputState::RandomQubitSubspace,
    };
    let adaptive = Precision::TargetSigma {
        sigma: 0.03,
        min_trials: 8,
        max_trials: 512,
    };
    let executor = Executor::new();
    for backend in [BackendKind::Trajectory, BackendKind::DensityMatrix] {
        for precision in [Precision::FixedTrials, adaptive] {
            let spec = JobSpec::builder(circuit.clone())
                .noise(model.clone())
                .backend(backend)
                .trials(config.trials)
                .seed(config.seed)
                .input(config.input.clone())
                .precision(precision)
                .build()
                .unwrap();
            let via_executor = *executor.run(&spec).unwrap().fidelity().unwrap();
            let direct = match backend {
                BackendKind::Trajectory => {
                    TrajectorySimulator::from_artifacts_with(&artifacts, &model, &planner)
                        .unwrap()
                        .run(&config, &precision, &never, None)
                }
                BackendKind::DensityMatrix => {
                    DensityNoiseSimulator::from_artifacts_with(&artifacts, &model, &planner)
                        .unwrap()
                        .run(&config, &precision, &never)
                }
            }
            .unwrap();
            let label = format!("{} {precision:?}", backend.name());
            assert_eq!(via_executor.trials, direct.trials, "{label}");
            assert_eq!(
                via_executor.mean.to_bits(),
                direct.mean.to_bits(),
                "{label}"
            );
            assert_eq!(
                via_executor.std_error.to_bits(),
                direct.std_error.to_bits(),
                "{label}"
            );
        }
    }
}
