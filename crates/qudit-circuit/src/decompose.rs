//! Physical lowering of multiply-controlled operations (Di & Wei).
//!
//! The paper's noise accounting assumes every three-input gate is executed
//! as the Di & Wei decomposition: **6 two-qudit gates and 7 single-qudit
//! gates, 6 two-qudit layers deep**. This module synthesises that
//! realisation *exactly* (as a unitary identity, for any qudit dimension
//! and any control levels), so the compiler can lower `≥ 3`-qudit
//! operations in the IR instead of the noise backends charging synthetic
//! error sites per high-arity operation.
//!
//! ## Construction
//!
//! For a doubly-controlled gate `C_a^{la} C_b^{lb}(U)` the block is built
//! from the group-commutator identity. Diagonalise the phase-normalised
//! target `U₀ = e^{-iφ}·U` (with `φ = arg(det U)/d`, so `det U₀ = 1`) as
//! `U₀ = Q·D·Q†`, and telescope `D = S·Λ·S⁻¹·Λ⁻¹` where `S` is the cyclic
//! shift `|k⟩ → |k+1⟩` and `Λ` is diagonal (`λ₀ = 1`, `λⱼ = λⱼ₋₁/dⱼ` —
//! consistent around the cycle precisely because `det U₀ = 1`). Then, with
//! every gate below acting on the target qudit `t`,
//!
//! ```text
//!   C_b(Λ⁻¹) · C_a(S⁻¹) · C_b(Λ) · C_a(S)   (first applied on the right)
//! ```
//!
//! multiplies to `D` exactly when both controls are active and to the
//! identity in every other branch (the `a`-gates alone telescope to `I`,
//! as do the `b`-gates alone). Conjugating the chain by the single-qudit
//! gates `Q†`/`Q` turns `D` into `U₀`, and the residual global phase
//! `e^{iφ}` — which no arrangement of `(a,t)/(b,t)` gates can produce,
//! since each branch determinant is forced to 1 — is restored by two
//! controlled-phase gates on the `(a, b)` pair. Identity padding gates
//! bring the single-qudit count to the 7 sites the paper's accounting
//! charges (3 on `a`, 2 on `b`, 2 on `t`), giving a block of exactly
//! **6 two-qudit + 7 single-qudit gates whose ASAP schedule has 6
//! two-qudit layers** — the paper's numbers, realised by a concrete
//! circuit that [`crate::ResourceReport`] counts.
//!
//! Operations with more than two controls (they only arise from degenerate
//! all-`|2⟩` control subtrees) are lowered by the same commutator identity
//! recursively: split off one control, recurse on the rest. Each level
//! emits up to three factors with one control fewer, so `m` controls lower
//! to at most 14·3^(m−2) − 1 operations; lowering stops at
//! [`MAX_LOWERED_CONTROLS`]. Multi-target operations of
//! arity ≥ 3 are not supported (none of the paper's constructions produce
//! one).

use crate::error::{CircuitError, CircuitResult};
use crate::gate::Gate;
use crate::operation::{Control, Operation};
use qudit_core::{eig_unitary, CMatrix, Complex};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Tolerance for the spectral decomposition of target gates.
const DECOMP_TOL: f64 = 1e-11;

/// The number of two-qudit gates a lowered doubly-controlled block
/// contains — the paper's Di & Wei count.
pub const DI_WEI_TWO_QUDIT_GATES: usize = 6;

/// The number of single-qudit gates a lowered doubly-controlled block
/// contains — the paper's Di & Wei count.
pub const DI_WEI_ONE_QUDIT_GATES: usize = 7;

/// The most controls an operation may carry and still be lowered: eight
/// controls lower to 10 205 operations, and every further control
/// triples that.
pub const MAX_LOWERED_CONTROLS: usize = 8;

/// The most operations [`decompose_operation`] turns `op` into: 14·3^(m−2)
/// − 1 for a single-target op with `2 ≤ m ≤` [`MAX_LOWERED_CONTROLS`]
/// controls (the Di & Wei block of 13 at `m = 2`, then `f(m) = 3·f(m−1) +
/// 2`, with equality whenever every recursion level needs its phase
/// correction), and 1 for every op that passes through or is refused.
pub(crate) fn lowered_op_bound(op: &Operation) -> usize {
    let controls = op.controls().len();
    if op.arity() <= 2 || op.targets().len() != 1 || controls > MAX_LOWERED_CONTROLS {
        return 1;
    }
    14 * 3usize.pow(controls as u32 - 2) - 1
}

/// Spectral data shared by the two- and many-control lowerings.
struct Spectral {
    /// Eigenvector basis of the target gate.
    q: CMatrix,
    /// `Λ` of the telescoped commutator (diagonal entries).
    lambda: Vec<Complex>,
    /// The residual global phase `φ = arg(det U)/d`.
    phi: f64,
}

fn spectral(gate: &Gate) -> CircuitResult<Spectral> {
    let dim = gate.dim();
    let (evals, q) = eig_unitary(gate.matrix(), DECOMP_TOL).ok_or_else(|| {
        CircuitError::UnsupportedOperation {
            reason: format!("gate {} is not unitary enough to diagonalise", gate.name()),
        }
    })?;
    let det = evals.iter().fold(Complex::ONE, |acc, &lambda| acc * lambda);
    let phi = det.arg() / dim as f64;
    let back = Complex::cis(-phi);
    // det(U₀) = 1, so λ telescopes consistently around the cycle.
    let mut lambda = vec![Complex::ONE; dim];
    for j in 1..dim {
        let d0 = evals[j] * back;
        lambda[j] = lambda[j - 1] * d0.conj();
    }
    Ok(Spectral { q, lambda, phi })
}

/// The cyclic shift matrix `S |k⟩ = |k+1 mod d⟩`.
fn shift(dim: usize) -> CMatrix {
    let mut m = CMatrix::zeros(dim, dim);
    for k in 0..dim {
        m.set((k + 1) % dim, k, Complex::ONE);
    }
    m
}

/// A single-qudit phase gate `diag(1, …, e^{iφ} at `level`, …, 1)`.
fn phase_gate(dim: usize, level: usize, phi: f64) -> Gate {
    let mut diag = vec![Complex::ONE; dim];
    diag[level] = Complex::cis(phi);
    Gate::new("DWph", dim, 1, CMatrix::diagonal(&diag)).expect("diagonal is square")
}

/// The identity padding gate.
fn pad_gate(dim: usize) -> Gate {
    Gate::new("DWpad", dim, 1, CMatrix::identity(dim)).expect("identity is square")
}

fn single(gate: Gate, qudit: usize) -> Operation {
    Operation::uncontrolled(gate, vec![qudit]).expect("one fresh target cannot collide")
}

fn controlled(gate: Gate, control: Control, target: usize) -> Operation {
    Operation::new(gate, vec![control], vec![target])
        .expect("control and target are distinct by construction")
}

/// Lowers a doubly-controlled single-target operation into the padded
/// Di & Wei block: 6 two-qudit gates (pair multiset `{ab, ab, bt, at, bt,
/// at}`) and 7 single-qudit gates (3 on `a`, 2 on `b`, 2 on `t`), exactly
/// 6 two-qudit layers deep.
fn lower_two_controls(op: &Operation) -> CircuitResult<Vec<Operation>> {
    let dim = op.gate().dim();
    let a = op.controls()[0];
    let b = op.controls()[1];
    let t = op.targets()[0];
    let sp = spectral(op.gate())?;

    let s = shift(dim);
    let lam = CMatrix::diagonal(&sp.lambda);
    let q_gate = Gate::new("DWq", dim, 1, sp.q.clone()).expect("square");
    let lam_gate = Gate::new("DWl", dim, 1, lam.clone()).expect("square");
    let s_gate = Gate::new("DWs", dim, 1, s.clone()).expect("square");
    let half_phase = phase_gate(dim, b.level, sp.phi / 2.0);
    let pad = pad_gate(dim);

    Ok(vec![
        // Global-phase restoration, first so the block's two-qudit layers
        // open on the (a, b) pair the later gates never revisit.
        controlled(half_phase.clone(), a, b.qudit),
        controlled(half_phase, a, b.qudit),
        // Q† … Q conjugation of the commutator chain on the target.
        single(q_gate.inverse(), t),
        controlled(lam_gate.inverse(), b, t),
        single(pad.clone(), a.qudit),
        controlled(s_gate.inverse(), a, t),
        single(pad.clone(), b.qudit),
        controlled(lam_gate, b, t),
        single(pad.clone(), a.qudit),
        controlled(s_gate, a, t),
        single(q_gate, t),
        single(pad.clone(), a.qudit),
        single(pad, b.qudit),
    ])
}

/// Lowers an operation with `m ≥ 3` controls by one commutator level:
/// `C_{c₀}C_R(U) = C_{c₀}(B⁻¹)·C_R(A⁻¹)·C_{c₀}(B)·C_R(A)·phase`, each
/// factor of arity `m` (recursed on) or 2.
fn lower_many_controls(op: &Operation) -> CircuitResult<Vec<Operation>> {
    let dim = op.gate().dim();
    let t = op.targets()[0];
    let first = op.controls()[0];
    let rest: Vec<Control> = op.controls()[1..].to_vec();
    let sp = spectral(op.gate())?;

    let lam = CMatrix::diagonal(&sp.lambda);
    let qdag = sp.q.adjoint();
    // A = Q Λ⁻¹ Q†, B = Q S⁻¹ Q† (conjugation kept inside the gates: the
    // recursion re-diagonalises them anyway).
    let a_mat = &(&sp.q * &lam.adjoint()) * &qdag;
    let b_mat = &(&sp.q * &shift(dim).adjoint()) * &qdag;
    let a_gate = Gate::new("DWa", dim, 1, a_mat).expect("square");
    let b_gate = Gate::new("DWb", dim, 1, b_mat).expect("square");

    let mut ops = vec![
        Operation::new(a_gate.clone(), rest.clone(), vec![t])?,
        controlled(b_gate.clone(), first, t),
        Operation::new(a_gate.inverse(), rest.clone(), vec![t])?,
        controlled(b_gate.inverse(), first, t),
    ];
    // The phase correction rides on the control register: e^{iφ} when
    // every control is active — an (m−1)-controlled phase, recursed on.
    // Compared against a tolerance, not zero: for a det-1 gate the
    // eigenvalue product carries ~1e-16 rounding noise, and an exact-zero
    // test would emit a whole spurious correction block for it.
    let phase = sp.phi;
    if phase.abs() > DECOMP_TOL {
        let (last, others) = rest.split_last().expect("m ≥ 3 controls");
        let mut phase_controls = vec![first];
        phase_controls.extend(others.iter().copied());
        ops.push(Operation::new(
            phase_gate(dim, last.level, phase),
            phase_controls,
            vec![last.qudit],
        )?);
    }
    Ok(ops)
}

/// Lowers one operation into an equivalent sequence of arity ≤ 2
/// operations. Operations already of arity ≤ 2 pass through unchanged.
///
/// # Errors
///
/// Returns [`CircuitError::UnsupportedOperation`] for multi-target
/// operations of arity ≥ 3 (no paper construction produces one), for
/// operations with more than [`MAX_LOWERED_CONTROLS`] controls, and for
/// gates whose matrix cannot be diagonalised as a unitary.
pub fn decompose_operation(op: &Operation) -> CircuitResult<Vec<Operation>> {
    if op.arity() <= 2 {
        return Ok(vec![op.clone()]);
    }
    if op.targets().len() != 1 {
        return Err(CircuitError::UnsupportedOperation {
            reason: format!(
                "cannot lower a {}-target operation of arity {}",
                op.targets().len(),
                op.arity()
            ),
        });
    }
    let controls = op.controls().len();
    if controls > MAX_LOWERED_CONTROLS {
        return Err(CircuitError::UnsupportedOperation {
            reason: format!(
                "cannot lower a {controls}-controlled operation \
                 (at most {MAX_LOWERED_CONTROLS} controls are lowered)"
            ),
        });
    }
    if controls == 2 {
        return lower_two_controls(op);
    }
    let mut out = Vec::new();
    for factor in lower_many_controls(op)? {
        out.extend(decompose_operation(&factor)?);
    }
    Ok(out)
}

/// The qudits of each operation of the padded Di & Wei block on the
/// qudits `(a, b, t) = (0, 1, 2)`, in emission order, taken once from
/// [`lower_two_controls`]: the layout depends on neither the gate nor the
/// control levels.
fn block_layout() -> &'static [Vec<usize>] {
    static LAYOUT: OnceLock<Vec<Vec<usize>>> = OnceLock::new();
    LAYOUT.get_or_init(|| {
        let controls = vec![Control::on_one(0), Control::on_one(1)];
        let op = Operation::new(Gate::x(2), controls, vec![2]).expect("distinct qudits");
        let block = lower_two_controls(&op).expect("X diagonalises");
        block.iter().map(Operation::qudits).collect()
    })
}

/// The qudits of each operation [`decompose_operation`] turns `ops` into,
/// in emission order and in [`Operation::qudits`] order (controls first),
/// with the range of lowered positions of every input operation: what
/// counting the lowered list needs. A doubly-controlled operation takes
/// the [`block_layout`] when its gate diagonalises (the one way its
/// lowering can fail; checked once per distinct matrix), so its gates are
/// never built; every other operation is lowered, and one that cannot be
/// stays itself.
pub(crate) fn lowered_supports<'a>(
    ops: impl IntoIterator<Item = &'a Operation>,
) -> (Vec<Vec<usize>>, Vec<(usize, usize)>) {
    let mut diagonalises = HashMap::new();
    let mut supports: Vec<Vec<usize>> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for op in ops {
        let start = supports.len();
        let (controls, targets) = (op.controls(), op.targets());
        if controls.len() == 2 && targets.len() == 1 {
            let matrix = op.gate().matrix().as_slice().iter();
            let key: Vec<(u64, u64)> = matrix.map(|z| (z.re.to_bits(), z.im.to_bits())).collect();
            let lowerable = *diagonalises
                .entry(key)
                .or_insert_with(|| spectral(op.gate()).is_ok());
            if lowerable {
                let qudits = [controls[0].qudit, controls[1].qudit, targets[0]];
                let relabel = |support: &Vec<usize>| support.iter().map(|&q| qudits[q]).collect();
                supports.extend(block_layout().iter().map(relabel));
            } else {
                supports.push(op.qudits());
            }
        } else {
            match decompose_operation(op) {
                Ok(seq) => supports.extend(seq.iter().map(Operation::qudits)),
                Err(_) => supports.push(op.qudits()),
            }
        }
        ranges.push((start, supports.len()));
    }
    (supports, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::gates::controlled_matrix_multi;

    /// The full register unitary of an op sequence over `width` qudits —
    /// small widths only (test oracle).
    fn sequence_matrix(ops: &[Operation], dim: usize, width: usize) -> CMatrix {
        let n = dim.pow(width as u32);
        let mut total = CMatrix::identity(n);
        for op in ops {
            let mut local = op.full_matrix();
            // Embed into the full register: build the permutation of qudits
            // (op qudits in their order, then the rest).
            let qudits = op.qudits();
            let mut order: Vec<usize> = qudits.clone();
            for q in 0..width {
                if !qudits.contains(&q) {
                    order.push(q);
                }
            }
            let pad = width - qudits.len();
            for _ in 0..pad {
                local = local.kron(&CMatrix::identity(dim));
            }
            // Permute register axes: full[i] with digits in `order` space.
            let mut perm = vec![0usize; n];
            for (idx, slot) in perm.iter_mut().enumerate() {
                // digits of idx in circuit order (q0 most significant).
                let mut digits = vec![0usize; width];
                let mut rem = idx;
                for d_slot in (0..width).rev() {
                    digits[d_slot] = rem % dim;
                    rem /= dim;
                }
                let mut reordered = 0usize;
                for &q in &order {
                    reordered = reordered * dim + digits[q];
                }
                *slot = reordered;
            }
            let p = {
                let mut m = CMatrix::zeros(n, n);
                for (i, &j) in perm.iter().enumerate() {
                    m.set(j, i, Complex::ONE);
                }
                m
            };
            let embedded = &(&p.adjoint() * &local) * &p;
            total = &embedded * &total;
        }
        total
    }

    fn assert_lowering_exact(op: &Operation, dim: usize, width: usize) {
        let lowered = decompose_operation(op).expect("lowering");
        assert!(lowered.iter().all(|o| o.arity() <= 2));
        let want = sequence_matrix(std::slice::from_ref(op), dim, width);
        let got = sequence_matrix(&lowered, dim, width);
        assert!(
            got.approx_eq(&want, 1e-9),
            "lowering of {op} drifted: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn two_controlled_increment_lowers_exactly() {
        for dim in [2usize, 3, 4] {
            let op = Operation::new(
                Gate::increment(dim),
                vec![Control::on_one(0), Control::new(1, dim - 1)],
                vec![2],
            )
            .unwrap();
            assert_lowering_exact(&op, dim, 3);
        }
    }

    #[test]
    fn two_controlled_swap_levels_lowers_exactly() {
        // X02 has determinant −1: exercises the phase-correction pair.
        let op = Operation::new(
            Gate::swap_levels(3, 0, 2),
            vec![Control::on_two(0), Control::on_zero(1)],
            vec![2],
        )
        .unwrap();
        assert_lowering_exact(&op, 3, 3);
    }

    #[test]
    fn two_controlled_dense_gate_lowers_exactly() {
        let op = Operation::new(
            Gate::fourier(3),
            vec![Control::on_one(0), Control::on_two(1)],
            vec![2],
        )
        .unwrap();
        assert_lowering_exact(&op, 3, 3);
    }

    #[test]
    fn block_has_di_wei_counts_and_six_two_qudit_layers() {
        let op = Operation::new(
            Gate::increment(3),
            vec![Control::on_one(0), Control::on_two(1)],
            vec![2],
        )
        .unwrap();
        let lowered = decompose_operation(&op).unwrap();
        let two_q = lowered.iter().filter(|o| o.arity() == 2).count();
        let one_q = lowered.iter().filter(|o| o.arity() == 1).count();
        assert_eq!(two_q, DI_WEI_TWO_QUDIT_GATES);
        assert_eq!(one_q, DI_WEI_ONE_QUDIT_GATES);
        // Pair multiset {01, 01, 12, 02, 12, 02}; singles {0×3, 1×2, 2×2}.
        let mut pairs: Vec<Vec<usize>> = lowered
            .iter()
            .filter(|o| o.arity() == 2)
            .map(|o| o.qudits())
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                vec![0, 1],
                vec![0, 1],
                vec![0, 2],
                vec![0, 2],
                vec![1, 2],
                vec![1, 2]
            ]
        );
        // ASAP layers containing a two-qudit gate: exactly 6.
        let mut circuit = crate::circuit::Circuit::new(3, 3);
        for o in &lowered {
            circuit.push(o.clone()).unwrap();
        }
        let schedule = crate::schedule::Schedule::asap(&circuit);
        let layers = schedule
            .moments()
            .iter()
            .filter(|m| m.max_arity() >= 2)
            .count();
        assert_eq!(layers, 6);
    }

    #[test]
    fn three_controlled_gate_lowers_recursively_and_exactly() {
        let op = Operation::new(
            Gate::x(2),
            vec![Control::on_one(0), Control::on_one(1), Control::on_one(2)],
            vec![3],
        )
        .unwrap();
        assert_lowering_exact(&op, 2, 4);
    }

    #[test]
    fn det_one_recursive_lowering_emits_no_spurious_phase_block() {
        // increment(3) is a 3-cycle (det exactly 1): the recursion must not
        // let ~1e-16 rounding in arg(det) grow a full extra phase-correction
        // block. Expected: 4 commutator factors — two arity-3 (13 ops each)
        // and two arity-2 — and nothing else.
        let op = Operation::new(
            Gate::increment(3),
            vec![Control::on_one(0), Control::on_one(1), Control::on_one(2)],
            vec![3],
        )
        .unwrap();
        let lowered = decompose_operation(&op).unwrap();
        assert_eq!(lowered.len(), 2 * 13 + 2, "no spurious phase block");
        assert_eq!(lowered.iter().filter(|o| o.arity() == 2).count(), 14);
        assert_lowering_exact(&op, 3, 4);
    }

    #[test]
    fn multi_target_high_arity_is_rejected() {
        let op = Operation::new(Gate::swap(3), vec![Control::on_one(0)], vec![1, 2]).unwrap();
        assert!(matches!(
            decompose_operation(&op),
            Err(CircuitError::UnsupportedOperation { .. })
        ));
    }

    fn controlled_on_ones(gate: Gate, controls: usize) -> Operation {
        Operation::new(
            gate,
            (0..controls).map(Control::on_one).collect(),
            vec![controls],
        )
        .unwrap()
    }

    #[test]
    fn lowered_op_count_meets_the_closed_form_bound() {
        for m in 2..=MAX_LOWERED_CONTROLS {
            let x = controlled_on_ones(Gate::x(2), m);
            let bound = lowered_op_bound(&x);
            assert_eq!(
                decompose_operation(&x).unwrap().len(),
                bound,
                "dim-2 X, {m} controls"
            );
            let inc = controlled_on_ones(Gate::increment(3), m);
            assert_eq!(lowered_op_bound(&inc), bound);
            let lowered = decompose_operation(&inc).unwrap().len();
            assert!(lowered <= bound, "increment(3) with {m} controls");
        }
        assert_eq!(lowered_op_bound(&controlled_on_ones(Gate::x(2), 2)), 13);
        assert_eq!(lowered_op_bound(&controlled_on_ones(Gate::x(2), 8)), 10_205);
        // One control more is refused before any eigendecomposition, and
        // so stays one operation.
        let over = controlled_on_ones(Gate::x(2), MAX_LOWERED_CONTROLS + 1);
        assert_eq!(lowered_op_bound(&over), 1);
        assert!(matches!(
            decompose_operation(&over),
            Err(CircuitError::UnsupportedOperation { .. })
        ));
    }

    #[test]
    fn lowered_supports_match_the_emitted_operations() {
        let x3 =
            |controls: Vec<Control>, target| Operation::new(Gate::x(3), controls, vec![target]);
        let ops = [
            x3(vec![Control::on_one(2), Control::on_two(0)], 1).unwrap(),
            // The same gate again, on other qudits and levels.
            x3(vec![Control::on_two(1), Control::on_one(3)], 0).unwrap(),
            Operation::new(
                Gate::increment(3),
                vec![Control::on_one(3), Control::on_one(1), Control::on_two(0)],
                vec![2],
            )
            .unwrap(),
            controlled_on_ones(Gate::x(2), 4),
            controlled_on_ones(Gate::x(2), MAX_LOWERED_CONTROLS + 1),
            Operation::new(Gate::swap(3), vec![Control::on_one(0)], vec![1, 2]).unwrap(),
            x3(vec![Control::on_one(0)], 1).unwrap(),
        ];
        let mut emitted: Vec<Vec<usize>> = Vec::new();
        let mut ranges = Vec::new();
        for op in &ops {
            let start = emitted.len();
            match decompose_operation(op) {
                Ok(seq) => emitted.extend(seq.iter().map(Operation::qudits)),
                Err(_) => emitted.push(op.qudits()),
            }
            ranges.push((start, emitted.len()));
        }
        assert_eq!(lowered_supports(&ops), (emitted, ranges));
    }

    #[test]
    fn low_arity_ops_pass_through() {
        let op = Operation::new(Gate::x(3), vec![Control::on_one(0)], vec![1]).unwrap();
        assert_eq!(decompose_operation(&op).unwrap(), vec![op]);
    }

    #[test]
    fn full_matrix_against_controlled_matrix_multi() {
        // Cross-check the test oracle itself on a plain controlled op.
        let op = Operation::new(
            Gate::increment(3),
            vec![Control::on_one(0), Control::on_two(1)],
            vec![2],
        )
        .unwrap();
        let spec: Vec<(usize, usize)> = vec![(3, 1), (3, 2)];
        let want = controlled_matrix_multi(&spec, Gate::increment(3).matrix());
        let got = sequence_matrix(std::slice::from_ref(&op), 3, 3);
        assert!(got.approx_eq(&want, 1e-12));
    }
}
