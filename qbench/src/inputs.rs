//! Seeded workload inputs and their references.
//!
//! Every input is a pure function of the workload seed. Every reference
//! is computed without the simulator: classical truth tables, the QFT's
//! flat amplitude profile, the neuron's closed-form activation, and
//! per-trial bounds for noisy estimates.

use crate::rng::{SplitMix, Zipf};
use qudit_api::{BackendKind, ExecutionResult, InputState, JobSpec, OutputState};
use qudit_circuit::{Circuit, Control, Gate};
use qutrit_toffoli::neuron::{neuron_circuit, SignVector};
use std::collections::HashSet;
use std::sync::Arc;

/// Distinct specs in the `serve_hot` universe.
pub const HOT_SPECS: usize = 1000;
/// Zipf exponent of the `serve_hot` request stream.
pub const HOT_ZIPF: f64 = 1.1;
/// Data qubits of the `serve_neuron` perceptron (2^4 = 16 signs).
pub const NEURON_QUBITS: usize = 4;
/// Controls of the Figure 11 circuits in `fig11_noisy`.
pub const FIG11_CONTROLS: usize = 4;
/// Trials per Figure 11 bar in `fig11_noisy`.
pub const FIG11_TRIALS: usize = 256;
/// Controls of the `wide_replay` Generalized Toffoli (10 qutrits).
pub const WIDE_CONTROLS: usize = 9;

const TOL: f64 = 1e-9;

/// What a correct result looks like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// One basis state per output, each with probability 1.
    Basis(Vec<Vec<usize>>),
    /// `states` outputs, every basis probability equal to `1 / d^n`.
    Flat { states: usize, amps: usize },
    /// Probability `p` that qudit `qubit` reads |1⟩.
    Activation { qubit: usize, p: f64 },
    /// A fidelity estimate over exactly `trials` trials.
    Fidelity { trials: usize },
}

impl Expect {
    /// State evolutions the job answers: its trials when noisy, one per
    /// evolved input when noise-free.
    pub fn evolutions(&self) -> usize {
        match self {
            Expect::Basis(states) => states.len(),
            Expect::Flat { states, .. } => *states,
            Expect::Activation { .. } => 1,
            Expect::Fidelity { trials } => *trials,
        }
    }

    /// Checks `result` against the reference.
    pub fn check(&self, result: &ExecutionResult) -> Result<(), String> {
        match self {
            Expect::Fidelity { trials } => {
                let f = result.fidelity().map_err(|e| e.to_string())?;
                if f.trials != *trials {
                    return Err(format!("ran {} trials, asked for {trials}", f.trials));
                }
                if !(-TOL..=1.0 + TOL).contains(&f.mean) || !f.std_error.is_finite() {
                    return Err(format!(
                        "fidelity {} ± {} out of range",
                        f.mean, f.std_error
                    ));
                }
                Ok(())
            }
            Expect::Basis(expected) => {
                let states = states_of(result, expected.len())?;
                for (state, digits) in states.iter().zip(expected) {
                    let p = state.probability(digits).map_err(|e| e.to_string())?;
                    if (p - 1.0).abs() > TOL {
                        return Err(format!("P({digits:?}) = {p}, expected 1"));
                    }
                }
                Ok(())
            }
            Expect::Flat { states, amps } => {
                let want = 1.0 / *amps as f64;
                for state in states_of(result, *states)? {
                    let probs = state.probabilities();
                    if probs.len() != *amps {
                        return Err(format!("{} amplitudes, expected {amps}", probs.len()));
                    }
                    if let Some(p) = probs.iter().find(|p| (**p - want).abs() > TOL) {
                        return Err(format!("|amp|² = {p}, expected {want}"));
                    }
                }
                Ok(())
            }
            Expect::Activation { qubit, p } => {
                let state = &states_of(result, 1)?[0];
                let got = marginal_one(state, *qubit)?;
                if (got - p).abs() > TOL {
                    return Err(format!("activation {got}, expected {p}"));
                }
                Ok(())
            }
        }
    }
}

fn states_of(result: &ExecutionResult, count: usize) -> Result<&[OutputState], String> {
    let states = result.states().map_err(|e| e.to_string())?;
    if states.len() != count {
        return Err(format!("{} output states, expected {count}", states.len()));
    }
    Ok(states)
}

/// `P(qudit q reads 1)`, summed over every basis state of the other
/// qudits through [`OutputState::probability`].
fn marginal_one(state: &OutputState, q: usize) -> Result<f64, String> {
    let (dim, width) = match state {
        OutputState::Pure(psi) => (psi.dim(), psi.num_qudits()),
        OutputState::Populations { dim, width, .. } => (*dim, *width),
    };
    let mut digits = vec![0usize; width];
    let mut total = 0.0;
    for index in 0..dim.pow(width as u32) {
        let mut rest = index;
        for d in digits.iter_mut().rev() {
            *d = rest % dim;
            rest /= dim;
        }
        if digits[q] == 1 {
            total += state.probability(&digits).map_err(|e| e.to_string())?;
        }
    }
    Ok(total)
}

/// One request: the wire body and the reference its answer must meet.
#[derive(Clone, Debug)]
pub struct Request {
    pub body: Arc<str>,
    pub expect: Arc<Expect>,
}

impl Request {
    fn new(spec: &JobSpec, expect: Expect) -> Self {
        Request {
            body: spec.to_json().into(),
            expect: Arc::new(expect),
        }
    }
}

// ---------------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------------

/// The paper's Figure 4 Toffoli: controls on |1⟩ and |2⟩ with the middle
/// qutrit as temporary storage.
pub fn fig4_circuit() -> Circuit {
    let mut c = Circuit::new(3, 3);
    c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])
        .expect("fig4 op");
    c.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])
        .expect("fig4 op");
    c.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])
        .expect("fig4 op");
    c
}

fn digits_of(mut value: usize, dim: usize, width: usize) -> Vec<usize> {
    let mut digits = vec![0; width];
    for d in digits.iter_mut().rev() {
        *d = value % dim;
        value /= dim;
    }
    digits
}

/// `k` distinct basis inputs drawn from `dim^width` states, not yet in
/// `used` (which records the ordered tuple).
fn fresh_inputs(
    rng: &mut SplitMix,
    used: &mut HashSet<Vec<usize>>,
    states: usize,
    k: usize,
) -> Vec<usize> {
    loop {
        let mut pick: Vec<usize> = Vec::with_capacity(k);
        while pick.len() < k {
            let s = rng.below(states);
            if !pick.contains(&s) {
                pick.push(s);
            }
        }
        if used.insert(pick.clone()) {
            return pick;
        }
    }
}

/// The `serve_hot` universe: [`HOT_SPECS`] noise-free specs, rank `r`
/// being a Figure 4 Toffoli (3 qubit-subspace inputs), a `qft(3,3)`
/// (2 inputs) or a `qft_adder(3,2)` (2 inputs) for `r mod 3 = 0, 1, 2`.
/// The seed picks the inputs; the shape of each rank is fixed, so every
/// seed sees the same mix of circuits at every popularity.
pub fn hot_set(seed: u64) -> Vec<Request> {
    let mut rng = SplitMix::derive(seed, 0x407);
    let fig4 = fig4_circuit();
    let qft = qudit_algos::qft(3, 3).expect("qft(3,3)");
    let adder = qudit_algos::qft_adder(3, 2).expect("qft_adder(3,2)");
    let mut used: [HashSet<Vec<usize>>; 3] = Default::default();
    (0..HOT_SPECS)
        .map(|rank| {
            let shape = rank % 3;
            let (circuit, dim_states, width, k, qubit_only) = match shape {
                0 => (&fig4, 8, 3, 3, true),
                1 => (&qft, 27, 3, 2, false),
                _ => (&adder, 81, 4, 2, false),
            };
            let picks = fresh_inputs(&mut rng, &mut used[shape], dim_states, k);
            let inputs: Vec<Vec<usize>> = picks
                .iter()
                .map(|&s| digits_of(s, if qubit_only { 2 } else { 3 }, width))
                .collect();
            let expect = match shape {
                0 => Expect::Basis(
                    inputs
                        .iter()
                        .map(|d| vec![d[0], d[1], d[2] ^ (d[0] & d[1])])
                        .collect(),
                ),
                1 => Expect::Flat {
                    states: k,
                    amps: 27,
                },
                _ => Expect::Basis(inputs.iter().map(|d| adder_output(d)).collect()),
            };
            let spec = JobSpec::builder(circuit.clone())
                .sweep(inputs)
                .build()
                .expect("hot spec");
            Request::new(&spec, expect)
        })
        .collect()
}

/// The Draper adder's truth table on base-3 digits: `|a, b⟩ → |a, a+b mod 9⟩`.
fn adder_output(d: &[usize]) -> Vec<usize> {
    let a = d[0] * 3 + d[1];
    let b = d[2] * 3 + d[3];
    let s = (a + b) % 9;
    vec![d[0], d[1], s / 3, s % 3]
}

/// A Zipf(1.1) stream of ranks into the hot set.
pub struct HotStream {
    zipf: Arc<Zipf>,
    rng: SplitMix,
}

impl HotStream {
    /// Stream `tag` of `seed` (clients and warm-ups use distinct tags).
    pub fn new(seed: u64, tag: u64) -> Self {
        HotStream {
            zipf: Arc::new(Zipf::new(HOT_SPECS, HOT_ZIPF)),
            rng: SplitMix::derive(seed, 0x2000 + tag),
        }
    }

    pub fn next_rank(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

// ---------------------------------------------------------------------------
// serve_neuron
// ---------------------------------------------------------------------------

/// A stream of distinct quantum-neuron jobs: fresh random weight and
/// input sign vectors for every request, noise-free, default level, from
/// |0…0⟩. Distinct across the whole stream, so every request misses both
/// caches.
pub struct NeuronStream {
    rng: SplitMix,
    seen: HashSet<(u32, u32)>,
}

impl NeuronStream {
    pub fn new(seed: u64, tag: u64) -> Self {
        NeuronStream {
            rng: SplitMix::derive(seed, 0x3000 + tag),
            seen: HashSet::new(),
        }
    }
}

impl Iterator for NeuronStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let m = 1usize << NEURON_QUBITS;
        let (w, i) = loop {
            let bits = self.rng.next_u64();
            let w = (bits & 0xFFFF) as u32;
            let i = ((bits >> 16) & 0xFFFF) as u32;
            if self.seen.insert((w, i)) {
                break (w, i);
            }
        };
        let signs = |v: u32| (0..m).map(|b| v >> b & 1 == 1).collect::<Vec<bool>>();
        let weights = SignVector::new(NEURON_QUBITS, signs(w)).expect("16 signs");
        let inputs = SignVector::new(NEURON_QUBITS, signs(i)).expect("16 signs");
        let p = weights.normalized_inner_product(&inputs).powi(2);
        let circuit = neuron_circuit(&weights, &inputs).expect("neuron circuit");
        let spec = JobSpec::builder(circuit)
            .input(InputState::Basis(vec![0; NEURON_QUBITS + 1]))
            .build()
            .expect("neuron spec");
        Some(Request::new(
            &spec,
            Expect::Activation {
                qubit: NEURON_QUBITS,
                p,
            },
        ))
    }
}

// ---------------------------------------------------------------------------
// fig11_noisy
// ---------------------------------------------------------------------------

/// The 16 Figure 11 bars of sweep `sweep` (trajectory backend, random
/// qubit-subspace inputs, [`FIG11_TRIALS`] trials), each with a fresh seed
/// so no sweep is answered from the result cache.
pub fn fig11_sweep(seed: u64, sweep: u64) -> Vec<JobSpec> {
    fig11_bars(seed, sweep, FIG11_TRIALS)
        .into_iter()
        .map(|(_, spec)| spec)
        .collect()
}

/// The Figure 11 bars as (label, spec) pairs at `trials` trials.
fn fig11_bars(seed: u64, sweep: u64, trials: usize) -> Vec<(String, JobSpec)> {
    let mut rng = SplitMix::derive(seed, 0x4000_0000 + sweep);
    bench::figure11_pairs()
        .iter()
        .map(|(construction, model)| {
            let spec = bench::figure11_job(
                BackendKind::Trajectory,
                *construction,
                model,
                FIG11_CONTROLS,
                trials,
                rng.next_u64(),
            )
            .expect("figure 11 job");
            (format!("{}/{}", construction.name(), model.name), spec)
        })
        .collect()
}

/// The density-feasible bars at `trials` trials, for the exact
/// cross-check.
pub fn fig11_crossval_specs(seed: u64, trials: usize) -> Vec<(String, JobSpec)> {
    fig11_bars(seed, 0, trials)
        .into_iter()
        .filter(|(_, spec)| {
            let dim = spec.circuit().dim() as u128;
            dim.checked_pow(2 * spec.circuit().width() as u32)
                .is_some_and(|entries| entries <= qudit_api::DENSITY_MAX_ENTRIES)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// wide_replay
// ---------------------------------------------------------------------------

/// The `wide_replay` jobs: noise-free `n_controlled_x(9)` on each of the
/// 1 024 qubit-subspace basis inputs, in a seeded order (replayed
/// cyclically). Expected output: the target qutrit flipped iff every
/// control is |1⟩.
pub fn wide_jobs(seed: u64) -> Vec<(JobSpec, Vec<usize>)> {
    let width = WIDE_CONTROLS + 1;
    let circuit = qutrit_toffoli::gen_toffoli::n_controlled_x(WIDE_CONTROLS).expect("nCX(9)");
    SplitMix::derive(seed, 0x5000)
        .permutation(1 << width)
        .into_iter()
        .map(|s| {
            let input = digits_of(s, 2, width);
            let mut output = input.clone();
            if input[..WIDE_CONTROLS].iter().all(|&c| c == 1) {
                output[WIDE_CONTROLS] ^= 1;
            }
            let spec = JobSpec::builder(circuit.clone())
                .input(InputState::Basis(input))
                .build()
                .expect("wide spec");
            (spec, output)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_api::Executor;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let bodies = |seed| {
            hot_set(seed)
                .iter()
                .map(|r| r.body.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(1), bodies(1));
        assert_ne!(bodies(1), bodies(2));

        let ranks = |seed| {
            let mut s = HotStream::new(seed, 0);
            (0..64).map(|_| s.next_rank()).collect::<Vec<_>>()
        };
        assert_eq!(ranks(5), ranks(5));
        assert_ne!(ranks(5), ranks(6));

        let neurons = |seed| {
            NeuronStream::new(seed, 0)
                .take(4)
                .map(|r| r.body)
                .collect::<Vec<_>>()
        };
        assert_eq!(neurons(9), neurons(9));
        assert_ne!(neurons(9), neurons(10));

        let sweep = |seed, s| {
            fig11_sweep(seed, s)
                .iter()
                .map(JobSpec::to_json)
                .collect::<Vec<_>>()
        };
        assert_eq!(sweep(3, 1), sweep(3, 1));
        assert_ne!(sweep(3, 1), sweep(4, 1));
        assert_ne!(sweep(3, 1), sweep(3, 2));

        let wide = |seed| {
            wide_jobs(seed)
                .into_iter()
                .map(|(_, out)| out)
                .collect::<Vec<_>>()
        };
        assert_eq!(wide(8), wide(8));
        assert_ne!(wide(8), wide(12));
    }

    #[test]
    fn hot_set_is_distinct_and_shaped_by_rank() {
        let set = hot_set(42);
        assert_eq!(set.len(), HOT_SPECS);
        let distinct: HashSet<&str> = set.iter().map(|r| &*r.body).collect();
        assert_eq!(distinct.len(), HOT_SPECS);
        assert!(matches!(
            *set[1].expect,
            Expect::Flat {
                states: 2,
                amps: 27
            }
        ));
        assert_eq!(set[0].expect.evolutions(), 3);
    }

    #[test]
    fn references_accept_correct_results_and_reject_wrong_ones() {
        let exec = Executor::new();
        for request in hot_set(1).iter().take(6) {
            let spec = JobSpec::from_json(&request.body).unwrap();
            let result = exec.run(&spec).unwrap();
            request.expect.check(&result).unwrap();
        }
        let neuron = NeuronStream::new(1, 0).next().unwrap();
        let result = exec
            .run(&JobSpec::from_json(&neuron.body).unwrap())
            .unwrap();
        neuron.expect.check(&result).unwrap();
        let wrong = match &*neuron.expect {
            Expect::Activation { qubit, p } => Expect::Activation {
                qubit: *qubit,
                p: p + 0.01,
            },
            _ => unreachable!(),
        };
        assert!(wrong.check(&result).is_err());
        assert!(Expect::Fidelity { trials: 1 }.check(&result).is_err());
    }

    #[test]
    fn adder_truth_table() {
        assert_eq!(adder_output(&[0, 1, 0, 2]), vec![0, 1, 1, 0]);
        assert_eq!(adder_output(&[2, 2, 0, 1]), vec![2, 2, 0, 0]);
    }
}
