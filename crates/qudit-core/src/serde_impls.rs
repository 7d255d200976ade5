//! Hand-written `serde` implementations for the core math types — the
//! bottom layer of the workspace's JSON wire format (the long-stubbed
//! `serde` feature of this crate).
//!
//! Representations:
//!
//! * [`Complex`] — a two-element array `[re, im]` (compact: amplitude lists
//!   dominate serialized payloads).
//! * [`CMatrix`] — `{"rows", "cols", "data"}` with row-major data; shape is
//!   re-validated on deserialization.
//! * [`StateVector`] — `{"dim", "qudits", "amplitudes"}`; deserialization
//!   goes through [`StateVector::from_amplitudes`], so shape and
//!   normalisation are re-validated.
//!
//! Floats use the shim's shortest-roundtrip rendering, so every value
//! round-trips bit-for-bit.

use crate::complex::Complex;
use crate::matrix::CMatrix;
use crate::statevec::StateVector;
use serde::{Deserialize, Error, Serialize, Value};

impl Serialize for Complex {
    fn to_value(&self) -> Value {
        Value::Array(vec![Value::Float(self.re), Value::Float(self.im)])
    }
}

impl Deserialize for Complex {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let parts = value.as_array()?;
        if parts.len() != 2 {
            return Err(Error::custom(format!(
                "complex number needs [re, im], got {} element(s)",
                parts.len()
            )));
        }
        Ok(Complex::new(parts[0].as_f64()?, parts[1].as_f64()?))
    }
}

impl Serialize for CMatrix {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("rows", self.rows().to_value()),
            ("cols", self.cols().to_value()),
            ("data", self.as_slice().to_value()),
        ])
    }
}

impl Deserialize for CMatrix {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let rows = value.field("rows")?.as_usize()?;
        let cols = value.field("cols")?.as_usize()?;
        let data = Vec::<Complex>::from_value(value.field("data")?)?;
        CMatrix::from_vec(rows, cols, data).map_err(|e| Error::custom(e.to_string()))
    }
}

impl Serialize for StateVector {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("dim", self.dim().to_value()),
            ("qudits", self.num_qudits().to_value()),
            ("amplitudes", self.amplitudes().to_value()),
        ])
    }
}

impl Deserialize for StateVector {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let dim = value.field("dim")?.as_usize()?;
        let qudits = value.field("qudits")?.as_usize()?;
        let amps = Vec::<Complex>::from_value(value.field("amplitudes")?)?;
        StateVector::from_amplitudes(dim, qudits, amps).map_err(|e| Error::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    #[test]
    fn complex_round_trips() {
        let z = Complex::new(0.1, -2.5e-7);
        let back: Complex = json::from_str(&json::to_string(&z)).unwrap();
        assert_eq!(back.re.to_bits(), z.re.to_bits());
        assert_eq!(back.im.to_bits(), z.im.to_bits());
    }

    #[test]
    fn matrix_round_trips_and_validates_shape() {
        let m = crate::gates::qudit::fourier(3);
        let back: CMatrix = json::from_str(&json::to_string(&m)).unwrap();
        assert_eq!(back, m);
        // 2x2 shape with 3 entries must be rejected.
        let bad = r#"{"rows":2,"cols":2,"data":[[1.0,0.0],[0.0,0.0],[0.0,0.0]]}"#;
        assert!(json::from_str::<CMatrix>(bad).is_err());
    }

    #[test]
    fn state_vector_round_trips_and_revalidates() {
        let psi = StateVector::from_basis_state(3, &[1, 2, 0]).unwrap();
        let back: StateVector = json::from_str(&json::to_string(&psi)).unwrap();
        assert_eq!(back.amplitudes(), psi.amplitudes());
        assert_eq!(back.dim(), 3);
        // An unnormalised amplitude list must be rejected.
        let bad = r#"{"dim":2,"qudits":1,"amplitudes":[[2.0,0.0],[0.0,0.0]]}"#;
        assert!(json::from_str::<StateVector>(bad).is_err());
    }
}
