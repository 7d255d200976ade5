//! Hand-written `serde` implementations for the circuit IR — the circuit
//! layer of the workspace's JSON wire format.
//!
//! Deserialization always goes back through the validating constructors
//! ([`Gate::new`], [`Operation::new`], [`Circuit::push`]), so a parsed
//! circuit satisfies exactly the invariants a programmatically built one
//! does: matrix shapes match the target count, qudit indices are in range
//! and distinct, control levels fit the dimension.

use crate::circuit::Circuit;
use crate::cost::CircuitCosts;
use crate::gate::Gate;
use crate::operation::{Control, Operation};
use crate::passes::{KernelCounts, PassLevel, ResourceReport, RoutedCosts};
use crate::topology::{Topology, TopologyKind};
use serde::{Deserialize, Error, Serialize, Value};

impl Serialize for Gate {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("name", self.name().to_value()),
            ("dim", self.dim().to_value()),
            ("targets", self.num_targets().to_value()),
            ("matrix", self.matrix().to_value()),
        ])
    }
}

impl Deserialize for Gate {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let name = String::from_value(value.field("name")?)?;
        let dim = value.field("dim")?.as_usize()?;
        let targets = value.field("targets")?.as_usize()?;
        let matrix = qudit_core::CMatrix::from_value(value.field("matrix")?)?;
        Gate::new(name, dim, targets, matrix).map_err(|e| Error::custom(e.to_string()))
    }
}

impl Serialize for Control {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("qudit", self.qudit.to_value()),
            ("level", self.level.to_value()),
        ])
    }
}

impl Deserialize for Control {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Control::new(
            value.field("qudit")?.as_usize()?,
            value.field("level")?.as_usize()?,
        ))
    }
}

impl Serialize for Operation {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("gate", self.gate().to_value()),
            ("controls", self.controls().to_value()),
            ("targets", self.targets().to_value()),
        ])
    }
}

impl Deserialize for Operation {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let gate = Gate::from_value(value.field("gate")?)?;
        let controls = Vec::<Control>::from_value(value.field("controls")?)?;
        let targets = Vec::<usize>::from_value(value.field("targets")?)?;
        Operation::new(gate, controls, targets).map_err(|e| Error::custom(e.to_string()))
    }
}

impl Serialize for Circuit {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("dim", self.dim().to_value()),
            ("width", self.width().to_value()),
            ("operations", self.operations().to_value()),
        ])
    }
}

impl Deserialize for Circuit {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let dim = value.field("dim")?.as_usize()?;
        let width = value.field("width")?.as_usize()?;
        if dim < 2 {
            return Err(Error::custom(format!("qudit dimension {dim} is below 2")));
        }
        let mut circuit = Circuit::new(dim, width);
        for op in value.field("operations")?.as_array()? {
            let op = Operation::from_value(op)?;
            circuit.push(op).map_err(|e| Error::custom(e.to_string()))?;
        }
        Ok(circuit)
    }
}

impl Serialize for PassLevel {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for PassLevel {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let name = value.as_str()?;
        PassLevel::from_flag(name)
            .ok_or_else(|| Error::custom(format!("unknown pass level {name:?}")))
    }
}

impl Serialize for CircuitCosts {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("width", self.width.to_value()),
            ("total_ops", self.total_ops.to_value()),
            ("one_qudit_gates", self.one_qudit_gates.to_value()),
            ("two_qudit_gates", self.two_qudit_gates.to_value()),
            ("three_plus_qudit_ops", self.three_plus_qudit_ops.to_value()),
            ("logical_depth", self.logical_depth.to_value()),
            ("physical_depth", self.physical_depth.to_value()),
        ])
    }
}

impl Deserialize for CircuitCosts {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(CircuitCosts {
            width: value.field("width")?.as_usize()?,
            total_ops: value.field("total_ops")?.as_usize()?,
            one_qudit_gates: value.field("one_qudit_gates")?.as_usize()?,
            two_qudit_gates: value.field("two_qudit_gates")?.as_usize()?,
            three_plus_qudit_ops: value.field("three_plus_qudit_ops")?.as_usize()?,
            logical_depth: value.field("logical_depth")?.as_usize()?,
            physical_depth: value.field("physical_depth")?.as_usize()?,
        })
    }
}

impl Serialize for KernelCounts {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("identity", self.identity.to_value()),
            ("permutation", self.permutation.to_value()),
            ("diagonal", self.diagonal.to_value()),
            ("dense", self.dense.to_value()),
        ])
    }
}

impl Deserialize for KernelCounts {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(KernelCounts {
            identity: value.field("identity")?.as_usize()?,
            permutation: value.field("permutation")?.as_usize()?,
            diagonal: value.field("diagonal")?.as_usize()?,
            dense: value.field("dense")?.as_usize()?,
        })
    }
}

impl Serialize for RoutedCosts {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("inserted_swaps", self.inserted_swaps.to_value()),
            (
                "routed_two_qudit_gates",
                self.routed_two_qudit_gates.to_value(),
            ),
            ("routed_depth", self.routed_depth.to_value()),
        ])
    }
}

impl Deserialize for RoutedCosts {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(RoutedCosts {
            inserted_swaps: value.field("inserted_swaps")?.as_usize()?,
            routed_two_qudit_gates: value.field("routed_two_qudit_gates")?.as_usize()?,
            routed_depth: value.field("routed_depth")?.as_usize()?,
        })
    }
}

impl Serialize for ResourceReport {
    fn to_value(&self) -> Value {
        // The `routed` column is emitted only when present, so reports from
        // topology-free jobs keep their pre-routing byte layout.
        let mut fields = vec![
            ("logical", self.logical.to_value()),
            ("physical", self.physical.to_value()),
            ("kernels", self.kernels.to_value()),
        ];
        if let Some(routed) = &self.routed {
            fields.push(("routed", routed.to_value()));
        }
        Value::object(fields)
    }
}

impl Deserialize for ResourceReport {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(ResourceReport {
            logical: CircuitCosts::from_value(value.field("logical")?)?,
            physical: CircuitCosts::from_value(value.field("physical")?)?,
            kernels: KernelCounts::from_value(value.field("kernels")?)?,
            routed: value
                .get("routed")
                .map(RoutedCosts::from_value)
                .transpose()?,
        })
    }
}

/// Largest site count accepted from the wire. Deserialization materialises
/// adjacency lists, so untrusted payloads must not be able to request
/// arbitrarily large graphs (simulable registers are far smaller anyway).
const MAX_WIRE_SITES: usize = 1024;

impl Serialize for Topology {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(&str, Value)> =
            vec![("kind", Value::Str(self.kind().name().to_string()))];
        match self.kind() {
            TopologyKind::Grid { rows, cols } => {
                fields.push(("rows", rows.to_value()));
                fields.push(("cols", cols.to_value()));
            }
            TopologyKind::HeavyHex { cells } => {
                fields.push(("cells", cells.to_value()));
            }
            _ => fields.push(("sites", self.sites().to_value())),
        }
        if !self.site_quality().is_empty() {
            fields.push(("site_quality", self.site_quality().to_value()));
        }
        if !self.edge_quality().is_empty() {
            fields.push(("edge_quality", self.edge_quality().to_value()));
        }
        Value::object(fields)
    }
}

impl Deserialize for Topology {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let kind = value.field("kind")?.as_str()?;
        let bounded = |n: usize, what: &str| -> Result<usize, Error> {
            if n > MAX_WIRE_SITES {
                return Err(Error::custom(format!(
                    "topology {what} {n} exceeds the wire limit {MAX_WIRE_SITES}"
                )));
            }
            Ok(n)
        };
        let circuit_err = |e: crate::CircuitError| Error::custom(e.to_string());
        let base = match kind {
            "all-to-all" => {
                Topology::all_to_all(bounded(value.field("sites")?.as_usize()?, "site count")?)
            }
            "linear" => Topology::linear(bounded(value.field("sites")?.as_usize()?, "site count")?),
            "ring" => Topology::ring(bounded(value.field("sites")?.as_usize()?, "site count")?),
            "grid" => {
                let rows = bounded(value.field("rows")?.as_usize()?, "row count")?;
                let cols = bounded(value.field("cols")?.as_usize()?, "column count")?;
                bounded(rows.saturating_mul(cols), "site count")?;
                Topology::grid(rows, cols)
            }
            "heavy-hex" => {
                let cells = bounded(value.field("cells")?.as_usize()?, "cell count")?;
                bounded(
                    12usize.saturating_add(cells.saturating_sub(1).saturating_mul(9)),
                    "site count",
                )?;
                Topology::heavy_hex(cells)
            }
            other => return Err(Error::custom(format!("unknown topology kind {other:?}"))),
        }
        .map_err(circuit_err)?;
        let base = match value.get("site_quality") {
            Some(q) => base
                .with_site_quality(Vec::<f64>::from_value(q)?)
                .map_err(circuit_err)?,
            None => base,
        };
        match value.get("edge_quality") {
            Some(q) => base
                .with_edge_quality(Vec::<f64>::from_value(q)?)
                .map_err(circuit_err),
            None => Ok(base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    fn toffoli_fig4() -> Circuit {
        let mut c = Circuit::new(3, 3);
        c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])
            .unwrap();
        c.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c
    }

    #[test]
    fn circuit_round_trips() {
        let c = toffoli_fig4();
        let back: Circuit = json::from_str(&json::to_string(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn topology_round_trips_every_family() {
        for t in [
            Topology::all_to_all(4).unwrap(),
            Topology::linear(5).unwrap(),
            Topology::ring(6).unwrap(),
            Topology::grid(2, 3).unwrap(),
            Topology::heavy_hex(2).unwrap(),
            Topology::linear(3)
                .unwrap()
                .with_site_quality(vec![1.0, 2.5, 1.0])
                .unwrap(),
            Topology::linear(3)
                .unwrap()
                .with_edge_quality(vec![1.5, 1.0])
                .unwrap(),
            Topology::ring(4)
                .unwrap()
                .with_site_quality(vec![1.0, 1.0, 3.0, 1.0])
                .unwrap()
                .with_edge_quality(vec![1.0, 2.0, 1.0, 1.0])
                .unwrap(),
        ] {
            let back: Topology = json::from_str(&json::to_string(&t)).unwrap();
            assert_eq!(back, t, "{t}");
        }
    }

    #[test]
    fn topology_deserialization_rejects_bad_payloads() {
        for bad in [
            r#"{"kind":"moebius","sites":4}"#,
            r#"{"kind":"linear","sites":0}"#,
            r#"{"kind":"linear","sites":1000000000}"#,
            r#"{"kind":"grid","rows":100000,"cols":100000}"#,
            r#"{"kind":"heavy-hex","cells":100000000}"#,
            r#"{"kind":"linear","sites":3,"site_quality":[1.0,-1.0,1.0]}"#,
            r#"{"kind":"linear","sites":3,"site_quality":[1.0]}"#,
            // Hostile edge-quality payloads: wrong count, non-positive,
            // non-finite, and a non-numeric element.
            r#"{"kind":"linear","sites":3,"edge_quality":[1.0]}"#,
            r#"{"kind":"linear","sites":3,"edge_quality":[1.0,0.0]}"#,
            r#"{"kind":"linear","sites":3,"edge_quality":[1.0,-3.0]}"#,
            r#"{"kind":"linear","sites":3,"edge_quality":[1e999,1.0]}"#,
            r#"{"kind":"linear","sites":3,"edge_quality":[1.0,"bad"]}"#,
        ] {
            assert!(json::from_str::<Topology>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn deserialization_revalidates_indices() {
        let mut value = match toffoli_fig4().to_value() {
            Value::Object(fields) => fields,
            _ => unreachable!(),
        };
        // Shrink the register below the ops' indices: push must reject.
        for (k, v) in value.iter_mut() {
            if k == "width" {
                *v = Value::UInt(1);
            }
        }
        let text = json::to_string(&CircuitValue(Value::Object(value)));
        assert!(json::from_str::<Circuit>(&text).is_err());
    }

    #[test]
    fn pass_level_round_trips() {
        for level in [
            PassLevel::NoisePreserving,
            PassLevel::Physical,
            PassLevel::PhysicalIdeal,
            PassLevel::Ideal,
        ] {
            let back: PassLevel = json::from_str(&json::to_string(&level)).unwrap();
            assert_eq!(back, level);
        }
        assert!(json::from_str::<PassLevel>("\"turbo\"").is_err());
    }

    #[test]
    fn resource_report_round_trips() {
        let report = ResourceReport::measure(&toffoli_fig4());
        let back: ResourceReport = json::from_str(&json::to_string(&report)).unwrap();
        assert_eq!(back, report);
    }

    struct CircuitValue(Value);
    impl Serialize for CircuitValue {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
}
