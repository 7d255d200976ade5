//! Hand-written `serde` implementations for the noise layer of the JSON
//! wire format: noise models, backend selectors, input-state
//! distributions, and fidelity estimates.

use crate::backend::BackendKind;
use crate::models::NoiseModel;
use crate::trajectory::{FidelityEstimate, InputState, Precision};
use serde::{Deserialize, Error, Serialize, Value};

impl Serialize for NoiseModel {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name", self.name.to_value()),
            ("p1", self.p1.to_value()),
            ("p2", self.p2.to_value()),
            ("t1", self.t1.to_value()),
            ("gate_time_1q", self.gate_time_1q.to_value()),
            ("gate_time_2q", self.gate_time_2q.to_value()),
        ];
        // Only-when-Some: a model without the optional channels keeps its
        // pre-extension byte layout, so golden files and older clients are
        // untouched by the fields' existence.
        if let Some(p) = self.leak_rate {
            fields.push(("leak_rate", p.to_value()));
        }
        if let Some(eps) = self.overrotation {
            fields.push(("overrotation", eps.to_value()));
        }
        if let Some(zeta) = self.crosstalk {
            fields.push(("crosstalk", zeta.to_value()));
        }
        Value::object(fields)
    }
}

impl Deserialize for NoiseModel {
    fn from_value(value: &Value) -> Result<Self, Error> {
        // The optional channels are absent on pre-extension payloads: those
        // parse to `None` and run bit-identically to what they always did.
        let optional = |name: &str| -> Result<Option<f64>, Error> {
            value.get(name).map(|v| v.as_f64()).transpose()
        };
        Ok(NoiseModel {
            name: String::from_value(value.field("name")?)?,
            p1: value.field("p1")?.as_f64()?,
            p2: value.field("p2")?.as_f64()?,
            t1: Option::<f64>::from_value(value.field("t1")?)?,
            gate_time_1q: value.field("gate_time_1q")?.as_f64()?,
            gate_time_2q: value.field("gate_time_2q")?.as_f64()?,
            leak_rate: optional("leak_rate")?,
            overrotation: optional("overrotation")?,
            crosstalk: optional("crosstalk")?,
        })
    }
}

impl Serialize for BackendKind {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for BackendKind {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let name = value.as_str()?;
        BackendKind::from_flag(name)
            .ok_or_else(|| Error::custom(format!("unknown backend {name:?}")))
    }
}

impl Serialize for InputState {
    fn to_value(&self) -> Value {
        match self {
            InputState::RandomQubitSubspace => {
                Value::object(vec![("kind", "random-qubit-subspace".to_value())])
            }
            InputState::AllOnes => Value::object(vec![("kind", "all-ones".to_value())]),
            InputState::Basis(digits) => Value::object(vec![
                ("kind", "basis".to_value()),
                ("digits", digits.to_value()),
            ]),
        }
    }
}

impl Deserialize for InputState {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value.field("kind")?.as_str()? {
            "random-qubit-subspace" => Ok(InputState::RandomQubitSubspace),
            "all-ones" => Ok(InputState::AllOnes),
            "basis" => Ok(InputState::Basis(Vec::<usize>::from_value(
                value.field("digits")?,
            )?)),
            other => Err(Error::custom(format!("unknown input state kind {other:?}"))),
        }
    }
}

impl Serialize for Precision {
    fn to_value(&self) -> Value {
        match self {
            Precision::FixedTrials => Value::object(vec![("kind", "fixed".to_value())]),
            Precision::TargetSigma {
                sigma,
                min_trials,
                max_trials,
            } => Value::object(vec![
                ("kind", "target-sigma".to_value()),
                ("sigma", sigma.to_value()),
                ("min_trials", min_trials.to_value()),
                ("max_trials", max_trials.to_value()),
            ]),
        }
    }
}

impl Deserialize for Precision {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value.field("kind")?.as_str()? {
            "fixed" => Ok(Precision::FixedTrials),
            "target-sigma" => Ok(Precision::TargetSigma {
                sigma: value.field("sigma")?.as_f64()?,
                min_trials: value.field("min_trials")?.as_usize()?,
                max_trials: value.field("max_trials")?.as_usize()?,
            }),
            other => Err(Error::custom(format!("unknown precision kind {other:?}"))),
        }
    }
}

impl Serialize for FidelityEstimate {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("mean", self.mean.to_value()),
            ("std_error", self.std_error.to_value()),
            ("trials", self.trials.to_value()),
        ])
    }
}

impl Deserialize for FidelityEstimate {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(FidelityEstimate {
            mean: value.field("mean")?.as_f64()?,
            std_error: value.field("std_error")?.as_f64()?,
            trials: value.field("trials")?.as_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use serde::json;

    #[test]
    fn every_paper_model_round_trips() {
        for model in models::all_models() {
            let back: NoiseModel = json::from_str(&json::to_string(&model)).unwrap();
            assert_eq!(back, model);
        }
    }

    #[test]
    fn optional_channel_fields_round_trip_and_stay_absent_otherwise() {
        // A plain model's wire form carries none of the new keys — the
        // pre-extension byte layout is preserved exactly.
        let plain = models::sc();
        let json = json::to_string(&plain);
        for key in ["leak_rate", "overrotation", "crosstalk"] {
            assert!(!json.contains(key), "unexpected {key} in {json}");
        }
        let back: NoiseModel = json::from_str(&json).unwrap();
        assert_eq!(back, plain);
        // An extended model round-trips all three fields.
        let extended = models::sc()
            .with_leakage(1e-3)
            .with_overrotation(0.02)
            .with_crosstalk(2e4);
        let back: NoiseModel = json::from_str(&json::to_string(&extended)).unwrap();
        assert_eq!(back, extended);
        assert_eq!(back.leak_rate, Some(1e-3));
        assert_eq!(back.overrotation, Some(0.02));
        assert_eq!(back.crosstalk, Some(2e4));
    }

    #[test]
    fn backend_kind_round_trips() {
        for kind in [BackendKind::Trajectory, BackendKind::DensityMatrix] {
            let back: BackendKind = json::from_str(&json::to_string(&kind)).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn input_state_round_trips() {
        for input in [
            InputState::RandomQubitSubspace,
            InputState::AllOnes,
            InputState::Basis(vec![1, 0, 2]),
        ] {
            let back: InputState = json::from_str(&json::to_string(&input)).unwrap();
            assert_eq!(back, input);
        }
    }

    #[test]
    fn precision_round_trips() {
        for precision in [
            Precision::FixedTrials,
            Precision::TargetSigma {
                sigma: 5e-3,
                min_trials: 32,
                max_trials: 4096,
            },
        ] {
            let back: Precision = json::from_str(&json::to_string(&precision)).unwrap();
            assert_eq!(back, precision);
        }
    }

    #[test]
    fn fidelity_estimate_round_trips_bit_exact() {
        let est = FidelityEstimate {
            mean: 0.903_712_345_678_9,
            std_error: 1.25e-3,
            trials: 400,
        };
        let back: FidelityEstimate = json::from_str(&json::to_string(&est)).unwrap();
        assert_eq!(back.mean.to_bits(), est.mean.to_bits());
        assert_eq!(back.std_error.to_bits(), est.std_error.to_bits());
        assert_eq!(back.trials, est.trials);
    }
}
