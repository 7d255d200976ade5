//! Random state generation.
//!
//! The paper (Section 6.2) points out that drawing a Haar-random state by
//! generating a full `d^N × d^N` unitary and truncating a column is
//! needlessly expensive; the first column can be computed directly in
//! `O(d^N)` space and time. Sampling i.i.d. complex Gaussians and normalising
//! produces exactly the distribution of the first column of a Haar-random
//! unitary, which is what we do here.

use crate::complex::Complex;
use crate::error::CoreResult;
use crate::statevec::StateVector;
use rand::Rng;

/// Draws a standard complex Gaussian (mean 0, unit variance per component)
/// via the Box–Muller transform — the building block for Haar-distributed
/// states and unitaries (i.i.d. Gaussian entries, then normalise).
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R) -> Complex {
    // Box–Muller: two uniforms → two independent normals.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    Complex::new(r * theta.cos(), r * theta.sin())
}

/// Generates a Haar-distributed random pure state of `num_qudits` qudits of
/// dimension `dim`, in `O(dim^num_qudits)` time and space.
///
/// # Errors
///
/// Returns an error if `dim < 2`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let psi = qudit_core::random_state(3, 4, &mut rng)?;
/// assert!((psi.norm() - 1.0).abs() < 1e-9);
/// # Ok::<(), qudit_core::CoreError>(())
/// ```
pub fn random_state<R: Rng + ?Sized>(
    dim: usize,
    num_qudits: usize,
    rng: &mut R,
) -> CoreResult<StateVector> {
    let mut sv = StateVector::zero_state(dim, num_qudits)?;
    for amp in sv.amplitudes_mut() {
        *amp = complex_gaussian(rng);
    }
    sv.renormalize();
    Ok(sv)
}

/// Generates a random computational basis state (uniformly among the `d^N`
/// basis states). Useful for sampling classical inputs during verification.
///
/// # Errors
///
/// Returns an error if `dim < 2`.
pub fn random_basis_state<R: Rng + ?Sized>(
    dim: usize,
    num_qudits: usize,
    rng: &mut R,
) -> CoreResult<StateVector> {
    let digits: Vec<usize> = (0..num_qudits).map(|_| rng.gen_range(0..dim)).collect();
    StateVector::from_basis_state(dim, &digits)
}

/// Generates a random state restricted to the qubit (`|0⟩`,`|1⟩`) subspace of
/// each qudit. The paper's circuits take qubit inputs even though the qudits
/// are three-level, so noise benchmarks draw inputs from this distribution.
///
/// # Errors
///
/// Returns an error if `dim < 2`.
pub fn random_qubit_subspace_state<R: Rng + ?Sized>(
    dim: usize,
    num_qudits: usize,
    rng: &mut R,
) -> CoreResult<StateVector> {
    let mut sv = StateVector::zero_state(dim, num_qudits)?;
    for (idx, amp) in sv.amplitudes_mut().iter_mut().enumerate() {
        if in_qubit_subspace(dim, idx) {
            *amp = complex_gaussian(rng);
        }
    }
    sv.renormalize();
    Ok(sv)
}

/// Whether every base-`dim` digit of the flat basis index is 0 or 1.
fn in_qubit_subspace(dim: usize, mut index: usize) -> bool {
    while index > 0 {
        if index % dim >= 2 {
            return false;
        }
        index /= dim;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_state_is_normalised() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let sv = random_state(3, 3, &mut rng).unwrap();
            assert!((sv.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn random_state_is_reproducible_with_seed() {
        let a = random_state(3, 2, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = random_state(3, 2, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_states() {
        let a = random_state(3, 2, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = random_state(3, 2, &mut StdRng::seed_from_u64(2)).unwrap();
        assert!(a.fidelity(&b) < 0.999);
    }

    #[test]
    fn basis_state_sampling_yields_valid_states() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let sv = random_basis_state(3, 4, &mut rng).unwrap();
            let probs = sv.probabilities();
            let max: f64 = probs.iter().cloned().fold(0.0, f64::max);
            assert!((max - 1.0).abs() < 1e-12, "should be a pure basis state");
        }
    }

    #[test]
    fn qubit_subspace_state_has_no_two_amplitude() {
        let mut rng = StdRng::seed_from_u64(9);
        let sv = random_qubit_subspace_state(3, 3, &mut rng).unwrap();
        for idx in 0..sv.len() {
            let digits = StateVector::decode_index(3, 3, idx);
            if digits.contains(&2) {
                assert!(sv.amplitudes()[idx].abs() < 1e-12);
            }
        }
        assert!((sv.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qubit_subspace_draw_is_bit_identical_to_the_digit_vector_scan() {
        // The draw order is part of every seeded trajectory result: the
        // arithmetic digit check must consume the RNG exactly like the
        // original per-amplitude `decode_index` scan.
        fn digit_vector_scan(dim: usize, n: usize, rng: &mut StdRng) -> StateVector {
            let mut sv = StateVector::zero_state(dim, n).unwrap();
            for (idx, amp) in sv.amplitudes_mut().iter_mut().enumerate() {
                let digits = StateVector::decode_index(dim, n, idx);
                *amp = if digits.iter().all(|&d| d < 2) {
                    complex_gaussian(rng)
                } else {
                    Complex::ZERO
                };
            }
            sv.renormalize();
            sv
        }
        for dim in [2usize, 3] {
            for n in 1..=6 {
                let seed = (dim * 100 + n) as u64;
                let mut rng_new = StdRng::seed_from_u64(seed);
                let mut rng_old = StdRng::seed_from_u64(seed);
                for _ in 0..3 {
                    let new = random_qubit_subspace_state(dim, n, &mut rng_new).unwrap();
                    let old = digit_vector_scan(dim, n, &mut rng_old);
                    for (a, b) in new.amplitudes().iter().zip(old.amplitudes()) {
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "d = {dim}, n = {n}");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "d = {dim}, n = {n}");
                    }
                }
                let next = |rng: &mut StdRng| rng.gen_range(0..u64::MAX);
                assert_eq!(next(&mut rng_new), next(&mut rng_old), "stream position");
            }
        }
    }

    #[test]
    fn mean_amplitude_magnitude_is_uniformish() {
        // For a Haar-random state of dimension D, E[|amp|^2] = 1/D.
        let mut rng = StdRng::seed_from_u64(17);
        let d_total = 27usize;
        let trials = 200;
        let mut acc = vec![0.0f64; d_total];
        for _ in 0..trials {
            let sv = random_state(3, 3, &mut rng).unwrap();
            for (i, a) in sv.amplitudes().iter().enumerate() {
                acc[i] += a.norm_sqr();
            }
        }
        for v in acc {
            let mean = v / trials as f64;
            assert!((mean - 1.0 / d_total as f64).abs() < 0.02);
        }
    }
}
