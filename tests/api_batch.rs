//! Batch-execution determinism: [`Executor::run_batch`] must produce
//! results **bit-identical** to running the same specs sequentially through
//! [`Executor::run`] — across all 7 paper noise models, both accounting
//! levels, and noise-free sweeps — even though the batch fans out across
//! rayon workers and shares one structure-keyed compile cache.

use qudit_api::{BackendKind, Executor, InputState, JobSpec, Outcome, PassLevel};
use qudit_circuit::Circuit;
use qudit_noise::models;
use qutrit_toffoli::gen_toffoli::n_controlled_x;

fn fig4_toffoli() -> Circuit {
    n_controlled_x(2).unwrap()
}

/// Strict bit-level equality for outcomes (f64 `==` would also pass for
/// `-0.0 == 0.0`; the determinism claim is stronger).
fn assert_bit_identical(a: &Outcome, b: &Outcome) {
    match (a, b) {
        (Outcome::Fidelity(x), Outcome::Fidelity(y)) => {
            assert_eq!(x.mean.to_bits(), y.mean.to_bits());
            assert_eq!(x.std_error.to_bits(), y.std_error.to_bits());
            assert_eq!(x.trials, y.trials);
        }
        (Outcome::States(xs), Outcome::States(ys)) => {
            assert_eq!(xs.len(), ys.len());
            for (x, y) in xs.iter().zip(ys.iter()) {
                let (px, py) = (x.probabilities(), y.probabilities());
                assert_eq!(px.len(), py.len());
                for (a, b) in px.iter().zip(&py) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                match (x.pure(), y.pure()) {
                    (Some(sx), Some(sy)) => {
                        for (za, zb) in sx.amplitudes().iter().zip(sy.amplitudes()) {
                            assert_eq!(za.re.to_bits(), zb.re.to_bits());
                            assert_eq!(za.im.to_bits(), zb.im.to_bits());
                        }
                    }
                    (None, None) => {}
                    _ => panic!("output representations differ"),
                }
            }
        }
        _ => panic!("outcome kinds differ"),
    }
}

#[test]
fn batch_fidelities_are_bit_identical_to_sequential_across_all_models() {
    // Every paper noise model × both backends on the fig4 Toffoli, plus a
    // logical-accounting job and a wider trajectory-only case, all in one
    // batch.
    let mut specs: Vec<JobSpec> = Vec::new();
    for model in models::all_models() {
        for backend in [BackendKind::Trajectory, BackendKind::DensityMatrix] {
            specs.push(
                JobSpec::builder(fig4_toffoli())
                    .backend(backend)
                    .noise(model.clone())
                    .trials(25)
                    .seed(2019)
                    .input(InputState::AllOnes)
                    .build()
                    .unwrap(),
            );
        }
    }
    specs.push(
        JobSpec::builder(fig4_toffoli())
            .noise(models::sc())
            .level(PassLevel::NoisePreserving)
            .trials(25)
            .seed(7)
            .build()
            .unwrap(),
    );
    specs.push(
        JobSpec::builder(n_controlled_x(4).unwrap())
            .noise(models::sc_t1_gates())
            .trials(10)
            .seed(11)
            .build()
            .unwrap(),
    );

    // Sequential reference on a fresh executor; batch on another fresh one
    // (so neither run sees the other's cache).
    let sequential: Vec<_> = {
        let executor = Executor::new();
        specs.iter().map(|s| executor.run(s).unwrap()).collect()
    };
    let batch = Executor::new().run_batch(&specs);

    assert_eq!(batch.len(), sequential.len());
    for (b, s) in batch.into_iter().zip(&sequential) {
        let b = b.unwrap();
        assert_eq!(b.backend, s.backend);
        assert_eq!(b.resources, s.resources);
        assert_bit_identical(&b.outcome, &s.outcome);
    }
}

#[test]
fn batch_sweeps_are_bit_identical_to_sequential() {
    let sweep: Vec<Vec<usize>> = (0..8)
        .map(|v: usize| (0..3).map(|i| (v >> i) & 1).collect())
        .collect();
    let specs: Vec<JobSpec> = [BackendKind::Trajectory, BackendKind::DensityMatrix]
        .into_iter()
        .map(|backend| {
            JobSpec::builder(fig4_toffoli())
                .backend(backend)
                .sweep(sweep.clone())
                .build()
                .unwrap()
        })
        .collect();
    let executor = Executor::new();
    let sequential: Vec<_> = specs.iter().map(|s| executor.run(s).unwrap()).collect();
    let batch = executor.run_batch(&specs);
    for (b, s) in batch.into_iter().zip(&sequential) {
        assert_bit_identical(&b.unwrap().outcome, &s.outcome);
    }
}

#[test]
fn batch_shares_one_compilation_per_distinct_circuit_and_level() {
    // 7 models × 1 circuit at one level: one compilation. The wider case
    // adds a second.
    let mut specs: Vec<JobSpec> = models::all_models()
        .into_iter()
        .map(|model| {
            JobSpec::builder(fig4_toffoli())
                .noise(model)
                .trials(2)
                .build()
                .unwrap()
        })
        .collect();
    specs.push(
        JobSpec::builder(n_controlled_x(3).unwrap())
            .noise(models::sc())
            .trials(2)
            .build()
            .unwrap(),
    );
    let executor = Executor::new();
    for result in executor.run_batch(&specs) {
        result.unwrap();
    }
    assert_eq!(executor.cached_compilations(), 2);
}

#[test]
fn batch_surfaces_per_job_errors_without_poisoning_the_rest() {
    // A model that is unphysical at d = 3 (p2 too large for the 80-channel
    // qutrit depolarizing) must fail its own job only.
    let bad = qudit_noise::NoiseModel {
        name: "TOO-NOISY".to_string(),
        p1: 0.0,
        p2: 0.9,
        t1: None,
        gate_time_1q: 1e-7,
        gate_time_2q: 3e-7,
        leak_rate: None,
        overrotation: None,
        crosstalk: None,
    };
    let specs = vec![
        JobSpec::builder(fig4_toffoli())
            .noise(models::sc())
            .trials(2)
            .build()
            .unwrap(),
        JobSpec::builder(fig4_toffoli())
            .noise(bad)
            .trials(2)
            .build()
            .unwrap(),
    ];
    let results = Executor::new().run_batch(&specs);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
}

#[test]
fn batch_deduplicates_identical_specs_and_stays_bit_identical() {
    // Three distinct specs, each submitted more than once and out of
    // order. The batch must simulate each distinct spec exactly once,
    // fan the shared result out to every duplicate slot, and stay
    // bit-identical to a non-deduplicating sequential run.
    let distinct: Vec<JobSpec> = [models::sc(), models::sc_t1(), models::bare_qutrit()]
        .into_iter()
        .map(|model| {
            JobSpec::builder(fig4_toffoli())
                .noise(model)
                .trials(8)
                .build()
                .unwrap()
        })
        .collect();
    let specs: Vec<JobSpec> = [0usize, 1, 0, 2, 1, 0]
        .into_iter()
        .map(|i| distinct[i].clone())
        .collect();

    let executor = Executor::new();
    let before = executor.jobs_simulated();
    let batch = executor.run_batch(&specs);
    assert_eq!(
        executor.jobs_simulated() - before,
        3,
        "6 submitted, 3 distinct: dedup must simulate each spec once"
    );

    let fresh = Executor::new();
    for (spec, result) in specs.iter().zip(&batch) {
        let sequential = fresh.run(spec).unwrap();
        assert_bit_identical(&result.as_ref().unwrap().outcome, &sequential.outcome);
    }
}

#[test]
fn batch_dedup_merges_only_specs_with_the_same_wire_form() {
    // Result caching off: every merge below is batch dedup's own doing.
    let noisy = |model: qudit_noise::NoiseModel, seed: u64| {
        JobSpec::builder(fig4_toffoli())
            .noise(model)
            .trials(4)
            .seed(seed)
            .input(InputState::AllOnes)
            .build()
            .unwrap()
    };
    let renamed = qudit_noise::NoiseModel {
        name: "SC (renamed)".to_string(),
        ..models::sc()
    };
    let simulated = |specs: &[JobSpec]| {
        let executor = Executor::with_result_cache(0);
        for result in executor.run_batch(specs) {
            result.unwrap();
        }
        executor.jobs_simulated()
    };
    // Same everything but the seed: two simulations.
    assert_eq!(
        simulated(&[noisy(models::sc(), 1), noisy(models::sc(), 2)]),
        2
    );
    // Same physics, different model name: the wire forms differ, so the
    // results are not merged.
    assert_eq!(simulated(&[noisy(models::sc(), 1), noisy(renamed, 1)]), 2);
    // Independently rebuilt identical specs (fresh circuit, fresh model,
    // fresh sweep each time): one simulation, shared by every slot.
    let sweep = || {
        JobSpec::builder(fig4_toffoli())
            .sweep(vec![vec![1, 1, 0], vec![0, 1, 1]])
            .build()
            .unwrap()
    };
    assert_eq!(
        simulated(&[noisy(models::sc(), 1), noisy(models::sc(), 1)]),
        1
    );
    let executor = Executor::with_result_cache(0);
    let batch = executor.run_batch(&[sweep(), sweep(), sweep()]);
    assert_eq!(executor.jobs_simulated(), 1);
    let first = batch[0].as_ref().unwrap();
    for result in &batch[1..] {
        assert_bit_identical(&result.as_ref().unwrap().outcome, &first.outcome);
    }
}
