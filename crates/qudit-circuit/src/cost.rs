//! Circuit cost counting.
//!
//! The paper evaluates constructions by two costs (Section 2): the circuit
//! *depth* (critical path length, i.e. number of moments) and the gate
//! counts, in particular the number of two-qudit gates (Figure 10).
//! [`CircuitCosts`] holds those counts for one operation list under one
//! counting rule; [`crate::ResourceReport`] applies the rule to a circuit
//! (its logical column) and to that circuit's Di & Wei lowering (its
//! physical column), so the physical numbers are always counted on
//! operations that exist rather than inferred from per-arity constants.

use crate::schedule::{FrameSchedule, Schedule};

/// A summary of one operation list's resource costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitCosts {
    /// Register width (number of qudits).
    pub width: usize,
    /// Total operation count.
    pub total_ops: usize,
    /// Number of single-qudit operations.
    pub one_qudit_gates: usize,
    /// Number of operations touching two or more qudits.
    pub two_qudit_gates: usize,
    /// Number of operations touching three or more qudits. In a lowered
    /// list these are the operations the decomposition could not lower.
    pub three_plus_qudit_ops: usize,
    /// Number of moments of the as-early-as-possible schedule.
    pub logical_depth: usize,
    /// The frame depth when the list carries a frame partition (a lowered
    /// circuit; see [`FrameSchedule::physical_depth`]), the ASAP depth
    /// otherwise.
    pub physical_depth: usize,
}

impl CircuitCosts {
    /// Counts a list of operations on `width` qudits, each given as the
    /// qudits it touches: one-qudit ops are those of arity 1, two-qudit ops
    /// those of arity ≥ 2 and `three_plus_qudit_ops` those of arity ≥ 3.
    /// `frames`, when given, is the list's frame partition and sets the
    /// physical depth.
    pub(crate) fn count(
        width: usize,
        supports: &[Vec<usize>],
        frames: Option<&FrameSchedule>,
    ) -> CircuitCosts {
        let (logical_depth, _) = Schedule::asap_layers(width, supports);
        let arity_at_least = |k: usize| supports.iter().filter(|q| q.len() >= k).count();
        CircuitCosts {
            width,
            total_ops: supports.len(),
            one_qudit_gates: supports.iter().filter(|q| q.len() == 1).count(),
            two_qudit_gates: arity_at_least(2),
            three_plus_qudit_ops: arity_at_least(3),
            logical_depth,
            physical_depth: frames.map_or(logical_depth, FrameSchedule::physical_depth),
        }
    }
}
