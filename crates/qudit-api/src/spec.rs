//! The validated job description and its JSON wire format.

use crate::cli::CliArgs;
use crate::error::{ApiError, ApiResult};
use qudit_circuit::{Circuit, PassLevel, Topology, TopologyKind};
use qudit_noise::{BackendKind, InputState, NoiseModel, Precision};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::hash::{Hash, Hasher};

/// The largest density matrix a job may allocate per run: `3^14` entries
/// (7 qutrits, ~76 MB). Beyond this, random-input averaging fans one ρ out
/// per rayon worker and a laptop run degrades into swapping or an OOM kill,
/// so [`JobSpec::builder`] rejects the spec with a typed error instead.
pub const DENSITY_MAX_ENTRIES: u128 = 4_782_969; // 3^14

/// One validated description of a simulation job.
///
/// A spec is either **noisy** (a [`NoiseModel`] is attached: the job
/// estimates the mean fidelity over `trials` seeded runs of the configured
/// input distribution) or **noise-free** (no model: the job evolves the
/// configured input — or each basis state of an explicit `sweep` — and
/// returns the output states).
///
/// Construct through [`JobSpec::builder`] (or [`JobSpec::from_cli_args`] /
/// [`JobSpec::from_json`], which funnel into the same validation), so every
/// spec that exists is runnable: bad level/noise combinations, out-of-range
/// basis digits and infeasible density-matrix widths are rejected with a
/// typed [`ApiError`] instead of panicking mid-run.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    circuit: Circuit,
    level: PassLevel,
    backend: BackendKind,
    noise: Option<NoiseModel>,
    trials: usize,
    seed: u64,
    input: InputState,
    sweep: Vec<Vec<usize>>,
    precision: Precision,
    topology: Option<Topology>,
}

impl JobSpec {
    /// Starts building a spec for `circuit` with the defaults: trajectory
    /// backend, 100 trials, seed 2019, random-qubit-subspace inputs, no
    /// noise, and a pass level resolved at build time (`Physical` for noisy
    /// jobs, `Ideal` for noise-free ones).
    pub fn builder(circuit: Circuit) -> JobSpecBuilder {
        JobSpecBuilder {
            circuit,
            level: None,
            backend: BackendKind::Trajectory,
            noise: None,
            trials: 100,
            seed: 2019,
            input: InputState::RandomQubitSubspace,
            sweep: Vec::new(),
            precision: Precision::FixedTrials,
            topology: None,
        }
    }

    /// Builds a spec from `circuit`, an optional noise model, and the
    /// shared CLI surface: `--backend`, `--level`, `--trials <n>` and
    /// `--seed <n>` — the one helper every bench binary parses its job
    /// through (replacing the per-binary flag-parsing copies).
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Spec`] on an unparsable flag or an invalid
    /// resulting spec.
    pub fn from_cli_args(
        circuit: Circuit,
        noise: Option<NoiseModel>,
        args: &CliArgs,
    ) -> ApiResult<JobSpec> {
        let mut builder = JobSpec::builder(circuit);
        if let Some(model) = noise {
            builder = builder.noise(model);
        }
        builder.cli(args)?.build()
    }

    /// The circuit to run.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The compiler pass level the job compiles at.
    pub fn level(&self) -> PassLevel {
        self.level
    }

    /// The simulation backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The noise model, if this is a fidelity job.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// Number of Monte Carlo trials (noisy jobs).
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Base RNG seed; trial `i` uses `seed + i`.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The input-state distribution.
    pub fn input(&self) -> &InputState {
        &self.input
    }

    /// The explicit basis-state sweep (noise-free jobs); empty when the
    /// single configured input runs instead.
    pub fn sweep(&self) -> &[Vec<usize>] {
        &self.sweep
    }

    /// How many trials a noisy run executes: the fixed [`JobSpec::trials`]
    /// count (the default), or adaptive early stopping toward a target
    /// error bar.
    pub fn precision(&self) -> &Precision {
        &self.precision
    }

    /// The hardware connectivity the job is routed for; `None` means
    /// all-to-all (no routing pass runs).
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// Feeds `state` exactly what [`JobSpec::to_json`] writes, in the same
    /// order, in one streaming pass that builds no string or value tree:
    /// per operation the gate name, dim, target count, matrix shape and raw
    /// entry bits (`-0.0` stays distinct from `0.0`, as on the wire), the
    /// controls and the targets; then level, backend, the whole noise model,
    /// trials, seed, input, sweep, precision and topology. Variable-length
    /// fields are length-prefixed and optional or enumerated ones tagged, so
    /// specs whose wire forms differ feed different byte streams and equal
    /// wire forms feed equal streams (non-finite floats aside, which the wire
    /// collapses to `null`) — the executor's result-cache and batch-dedup
    /// key.
    pub(crate) fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let circuit = &self.circuit;
        state.write_usize(circuit.dim());
        state.write_usize(circuit.width());
        state.write_usize(circuit.len());
        for op in circuit.iter() {
            let gate = op.gate();
            gate.name().hash(state);
            state.write_usize(gate.dim());
            state.write_usize(gate.num_targets());
            let matrix = gate.matrix();
            state.write_usize(matrix.rows());
            state.write_usize(matrix.cols());
            for z in matrix.as_slice() {
                write_f64(state, z.re);
                write_f64(state, z.im);
            }
            state.write_usize(op.controls().len());
            for control in op.controls() {
                state.write_usize(control.qudit);
                state.write_usize(control.level);
            }
            op.targets().hash(state);
        }
        self.level.name().hash(state);
        self.backend.name().hash(state);
        match &self.noise {
            None => state.write_u8(0),
            Some(model) => {
                state.write_u8(1);
                model.name.hash(state);
                write_f64(state, model.p1);
                write_f64(state, model.p2);
                write_opt_f64(state, model.t1);
                write_f64(state, model.gate_time_1q);
                write_f64(state, model.gate_time_2q);
                write_opt_f64(state, model.leak_rate);
                write_opt_f64(state, model.overrotation);
                write_opt_f64(state, model.crosstalk);
            }
        }
        state.write_usize(self.trials);
        state.write_u64(self.seed);
        match &self.input {
            InputState::RandomQubitSubspace => state.write_u8(0),
            InputState::AllOnes => state.write_u8(1),
            InputState::Basis(digits) => {
                state.write_u8(2);
                digits.hash(state);
            }
        }
        self.sweep.hash(state);
        match self.precision {
            Precision::FixedTrials => state.write_u8(0),
            Precision::TargetSigma {
                sigma,
                min_trials,
                max_trials,
            } => {
                state.write_u8(1);
                write_f64(state, sigma);
                state.write_usize(min_trials);
                state.write_usize(max_trials);
            }
        }
        match &self.topology {
            None => state.write_u8(0),
            Some(topology) => {
                state.write_u8(1);
                topology.kind().name().hash(state);
                match topology.kind() {
                    TopologyKind::Grid { rows, cols } => {
                        state.write_usize(rows);
                        state.write_usize(cols);
                    }
                    TopologyKind::HeavyHex { cells } => state.write_usize(cells),
                    _ => state.write_usize(topology.sites()),
                }
                for quality in [topology.site_quality(), topology.edge_quality()] {
                    state.write_usize(quality.len());
                    for &q in quality {
                        write_f64(state, q);
                    }
                }
            }
        }
    }

    /// Serializes the spec to compact JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Serializes the spec to human-readable JSON (deterministic output —
    /// suitable for golden files).
    pub fn to_json_pretty(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a spec from JSON, running the full builder validation — a
    /// deserialized spec satisfies exactly the invariants a
    /// programmatically built one does.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Wire`] on malformed JSON or a payload of the
    /// wrong shape, and [`ApiError::Spec`] on a well-formed but invalid
    /// job description (so a server front end can distinguish a malformed
    /// request from a fixable one).
    pub fn from_json(text: &str) -> ApiResult<JobSpec> {
        let value = serde::json::parse(text).map_err(ApiError::from)?;
        JobSpec::from_wire_value(&value)
    }

    /// Rebuilds a spec from a parsed wire value: field/shape failures are
    /// [`ApiError::Wire`], builder validation failures keep their own typed
    /// variant.
    fn from_wire_value(value: &Value) -> ApiResult<JobSpec> {
        let circuit = Circuit::from_value(value.field("circuit")?)?;
        let mut builder = JobSpec::builder(circuit)
            .level(PassLevel::from_value(value.field("level")?)?)
            .backend(BackendKind::from_value(value.field("backend")?)?)
            .trials(value.field("trials")?.as_usize()?)
            .seed(value.field("seed")?.as_u64()?)
            .input(InputState::from_value(value.field("input")?)?)
            .sweep(Vec::<Vec<usize>>::from_value(value.field("sweep")?)?);
        if let Some(model) = Option::<NoiseModel>::from_value(value.field("noise")?)? {
            builder = builder.noise(model);
        }
        // Absent on pre-precision payloads: those parse as FixedTrials and
        // run bit-identically to what they always did.
        if let Some(precision) = value.get("precision") {
            builder = builder.precision(Precision::from_value(precision)?);
        }
        // Absent on pre-routing payloads (and on every unrouted job): those
        // compile all-to-all and run bit-identically to what they always did.
        if let Some(topology) = value.get("topology") {
            builder = builder.topology(Topology::from_value(topology)?);
        }
        builder.build()
    }
}

/// Feeds a float's raw bit pattern: no `-0.0` normalization, since the
/// wire form keeps the sign of zero.
fn write_f64<H: Hasher>(state: &mut H, x: f64) {
    state.write_u64(x.to_bits());
}

/// Feeds a tagged optional float (`None` and `Some` never share a stream).
fn write_opt_f64<H: Hasher>(state: &mut H, x: Option<f64>) {
    match x {
        None => state.write_u8(0),
        Some(x) => {
            state.write_u8(1);
            write_f64(state, x);
        }
    }
}

/// Builder for [`JobSpec`] — see [`JobSpec::builder`].
#[derive(Clone, Debug)]
pub struct JobSpecBuilder {
    circuit: Circuit,
    level: Option<PassLevel>,
    backend: BackendKind,
    noise: Option<NoiseModel>,
    trials: usize,
    seed: u64,
    input: InputState,
    sweep: Vec<Vec<usize>>,
    precision: Precision,
    topology: Option<Topology>,
}

impl JobSpecBuilder {
    /// Sets the compiler pass level. When not set, noisy jobs default to
    /// [`PassLevel::Physical`] and noise-free jobs to [`PassLevel::Ideal`].
    pub fn level(mut self, level: PassLevel) -> Self {
        self.level = Some(level);
        self
    }

    /// Selects the simulation backend.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a noise model, turning the job into a fidelity estimate.
    pub fn noise(mut self, model: NoiseModel) -> Self {
        self.noise = Some(model);
        self
    }

    /// Sets the Monte Carlo trial count.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the input-state distribution.
    pub fn input(mut self, input: InputState) -> Self {
        self.input = input;
        self
    }

    /// Sets an explicit basis-state sweep: the job evolves every listed
    /// basis state through one circuit compilation (noise-free jobs only —
    /// this is what exhaustive verification runs on).
    pub fn sweep(mut self, states: Vec<Vec<usize>>) -> Self {
        self.sweep = states;
        self
    }

    /// Selects how many trials a noisy run executes: the fixed
    /// [`JobSpecBuilder::trials`] count (the default) or adaptive early
    /// stopping toward a target error bar, with [`JobSpec::trials`] ignored
    /// in favour of the precision's own bounds.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Routes the job for a hardware connectivity graph: the compiler maps
    /// the circuit's qudits onto the topology's sites and inserts
    /// qudit-SWAPs so every two-qudit interaction acts on adjacent sites.
    /// When not set, the job compiles for all-to-all connectivity and no
    /// routing pass runs.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Applies the shared CLI overrides (`--backend`, `--level`,
    /// `--trials`, `--seed`) on top of whatever the builder holds.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Spec`] on an unparsable flag value.
    pub fn cli(mut self, args: &CliArgs) -> ApiResult<Self> {
        self.backend = args.backend_or(self.backend)?;
        if let Some(level) = args.level()? {
            self.level = Some(level);
        }
        self.trials = args.flag_or("--trials", self.trials)?;
        self.seed = args.flag_or("--seed", self.seed)?;
        Ok(self)
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Spec`] when:
    ///
    /// * a noise model is attached at an optimizing pass level (`Ideal` /
    ///   `PhysicalIdeal` change which errors would be charged);
    /// * `trials` is zero;
    /// * a basis input or sweep entry has the wrong width or digits `>=
    ///   dim`;
    /// * a sweep is combined with a noise model;
    /// * an adaptive [`Precision::TargetSigma`] has a non-finite or
    ///   non-positive `sigma`, `min_trials` of zero, `min_trials >
    ///   max_trials`, or is attached to a noise-free job (nothing is
    ///   sampled, so there is no error bar to drive);
    /// * a noise model's optional channels are invalid for the circuit's
    ///   dimension (e.g. leakage on a `d = 2` circuit, or a non-finite
    ///   rate);
    /// * a topology's site count differs from the circuit's width;
    /// * the density-matrix backend would need more than
    ///   [`DENSITY_MAX_ENTRIES`] entries for this circuit.
    pub fn build(self) -> ApiResult<JobSpec> {
        let level = self.level.unwrap_or(if self.noise.is_some() {
            PassLevel::Physical
        } else {
            PassLevel::Ideal
        });
        if self.noise.is_some() && !level.supports_noise() {
            return Err(ApiError::spec(format!(
                "pass level {:?} optimizes across error sites; noisy jobs support \
                 \"physical\" and \"noise-preserving\" (logical) only",
                level.name()
            )));
        }
        if self.trials == 0 {
            return Err(ApiError::spec("trials must be at least 1"));
        }
        if self.noise.is_some() && !self.sweep.is_empty() {
            return Err(ApiError::spec(
                "an explicit basis sweep applies to noise-free jobs only; noisy jobs \
                 draw inputs from the configured distribution",
            ));
        }
        if let Precision::TargetSigma {
            sigma,
            min_trials,
            max_trials,
        } = self.precision
        {
            if self.noise.is_none() {
                return Err(ApiError::spec(
                    "adaptive precision applies to noisy jobs only; a noise-free job \
                     evolves states exactly and has no error bar to drive",
                ));
            }
            if !sigma.is_finite() || sigma <= 0.0 {
                return Err(ApiError::spec(format!(
                    "target sigma must be a finite positive number, got {sigma}"
                )));
            }
            if min_trials == 0 {
                return Err(ApiError::spec("min_trials must be at least 1"));
            }
            if min_trials > max_trials {
                return Err(ApiError::spec(format!(
                    "min_trials {min_trials} exceeds max_trials {max_trials}"
                )));
            }
        }
        let dim = self.circuit.dim();
        let width = self.circuit.width();
        if let Some(model) = &self.noise {
            model
                .validate_channels(dim)
                .map_err(|e| ApiError::spec(format!("invalid noise channel: {e}")))?;
        }
        if let Some(topology) = &self.topology {
            if topology.sites() != width {
                return Err(ApiError::spec(format!(
                    "topology {topology} has {} site(s), but the circuit has width {width}",
                    topology.sites()
                )));
            }
        }
        let check_digits = |what: &str, digits: &[usize]| -> ApiResult<()> {
            if digits.len() != width {
                return Err(ApiError::spec(format!(
                    "{what} has {} digit(s), but the circuit has width {width}",
                    digits.len()
                )));
            }
            if let Some(&bad) = digits.iter().find(|&&d| d >= dim) {
                return Err(ApiError::spec(format!(
                    "{what} contains digit {bad}, which exceeds dimension {dim}"
                )));
            }
            Ok(())
        };
        if let InputState::Basis(digits) = &self.input {
            check_digits("the basis input", digits)?;
        }
        for digits in &self.sweep {
            check_digits("a sweep entry", digits)?;
        }
        if self.backend == BackendKind::DensityMatrix {
            // checked_pow: an overflowing width is by definition infeasible,
            // and wrapping must not let it sneak past the threshold.
            let entries = (dim as u128).checked_pow(2 * width as u32);
            if entries.is_none_or(|e| e > DENSITY_MAX_ENTRIES) {
                return Err(ApiError::spec(format!(
                    "the density-matrix backend would need {} entries (~{} MB) for this \
                     {width}-qudit d={dim} circuit; reduce the width (≤ 7 qutrits is \
                     feasible) or use the trajectory backend",
                    entries.map_or("> u128::MAX".to_string(), |e| e.to_string()),
                    entries.map_or("huge".to_string(), |e| (e.saturating_mul(16)
                        / (1024 * 1024))
                        .to_string()),
                )));
            }
        }
        Ok(JobSpec {
            circuit: self.circuit,
            level,
            backend: self.backend,
            noise: self.noise,
            trials: self.trials,
            seed: self.seed,
            input: self.input,
            sweep: self.sweep,
            precision: self.precision,
            topology: self.topology,
        })
    }
}

impl Serialize for JobSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("circuit", self.circuit.to_value()),
            ("level", self.level.to_value()),
            ("backend", self.backend.to_value()),
            ("noise", self.noise.to_value()),
            ("trials", self.trials.to_value()),
            ("seed", self.seed.to_value()),
            ("input", self.input.to_value()),
            ("sweep", self.sweep.to_value()),
            ("precision", self.precision.to_value()),
        ];
        // Only-when-Some: unrouted specs keep their pre-routing byte layout,
        // so golden files and older clients are untouched by the field's
        // existence.
        if let Some(topology) = &self.topology {
            fields.push(("topology", topology.to_value()));
        }
        Value::object(fields)
    }
}

impl Deserialize for JobSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        JobSpec::from_wire_value(value).map_err(|e| SerdeError::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{Control, Gate};
    use qudit_noise::models;

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
    fn defaults_resolve_by_noise_presence() {
        let noisefree = JobSpec::builder(toffoli_fig4()).build().unwrap();
        assert_eq!(noisefree.level(), PassLevel::Ideal);
        let noisy = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .build()
            .unwrap();
        assert_eq!(noisy.level(), PassLevel::Physical);
    }

    #[test]
    fn noisy_jobs_reject_optimizing_levels() {
        for level in [PassLevel::Ideal, PassLevel::PhysicalIdeal] {
            let err = JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .level(level)
                .build()
                .unwrap_err();
            assert!(matches!(err, ApiError::Spec { .. }), "{err}");
        }
        // The logical ablation level is allowed.
        JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .level(PassLevel::NoisePreserving)
            .build()
            .unwrap();
    }

    #[test]
    fn invalid_noise_channels_are_rejected_at_build_time() {
        // Leakage needs a |2⟩ level: invalid on a qubit circuit.
        let mut qubit_circuit = Circuit::new(2, 1);
        qubit_circuit.push_gate(Gate::x(2), &[0]).unwrap();
        let err = JobSpec::builder(qubit_circuit)
            .noise(models::sc().with_leakage(1e-4))
            .build()
            .unwrap_err();
        assert!(matches!(err, ApiError::Spec { .. }), "{err}");
        // Non-finite rates are rejected regardless of dimension.
        let err = JobSpec::builder(toffoli_fig4())
            .noise(models::sc().with_crosstalk(f64::NAN))
            .build()
            .unwrap_err();
        assert!(matches!(err, ApiError::Spec { .. }), "{err}");
        // Valid channels on a qutrit circuit build fine.
        JobSpec::builder(toffoli_fig4())
            .noise(models::sc().with_leakage(1e-4).with_overrotation(0.01))
            .build()
            .unwrap();
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(JobSpec::builder(toffoli_fig4()).trials(0).build().is_err());
        assert!(JobSpec::builder(toffoli_fig4())
            .input(InputState::Basis(vec![1, 1]))
            .build()
            .is_err());
        assert!(JobSpec::builder(toffoli_fig4())
            .input(InputState::Basis(vec![1, 1, 3]))
            .build()
            .is_err());
        assert!(JobSpec::builder(toffoli_fig4())
            .sweep(vec![vec![0, 0, 0], vec![0, 3, 0]])
            .build()
            .is_err());
        assert!(JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .sweep(vec![vec![0, 0, 0]])
            .build()
            .is_err());
    }

    #[test]
    fn density_backend_rejects_infeasible_widths() {
        // 8 qutrits → 3^16 ≈ 43M entries (~690 MB per ρ): refuse loudly.
        let circuit = Circuit::new(3, 8);
        let err = JobSpec::builder(circuit)
            .backend(BackendKind::DensityMatrix)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("density-matrix"), "{err}");
        // 7 qutrits is within the documented bound.
        JobSpec::builder(Circuit::new(3, 7))
            .backend(BackendKind::DensityMatrix)
            .build()
            .unwrap();
    }

    #[test]
    fn cli_overrides_apply() {
        let args = CliArgs::new(
            [
                "--backend",
                "density",
                "--trials",
                "7",
                "--seed",
                "42",
                "--level",
                "logical",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        let spec = JobSpec::from_cli_args(toffoli_fig4(), Some(models::sc()), &args).unwrap();
        assert_eq!(spec.backend(), BackendKind::DensityMatrix);
        assert_eq!(spec.trials(), 7);
        assert_eq!(spec.seed(), 42);
        assert_eq!(spec.level(), PassLevel::NoisePreserving);
    }

    #[test]
    fn target_sigma_is_validated() {
        let adaptive = |sigma, min_trials, max_trials| Precision::TargetSigma {
            sigma,
            min_trials,
            max_trials,
        };
        // Valid on a noisy job.
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .precision(adaptive(5e-3, 16, 4096))
            .build()
            .unwrap();
        assert_eq!(*spec.precision(), adaptive(5e-3, 16, 4096));
        // Rejected on a noise-free job and on malformed bounds.
        for builder in [
            JobSpec::builder(toffoli_fig4()).precision(adaptive(5e-3, 16, 4096)),
            JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .precision(adaptive(0.0, 16, 4096)),
            JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .precision(adaptive(f64::NAN, 16, 4096)),
            JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .precision(adaptive(5e-3, 0, 4096)),
            JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .precision(adaptive(5e-3, 64, 16)),
        ] {
            let err = builder.build().unwrap_err();
            assert!(matches!(err, ApiError::Spec { .. }), "{err}");
        }
    }

    #[test]
    fn wire_payload_without_precision_parses_as_fixed_trials() {
        // A pre-precision payload — exactly what an old client or golden
        // file sends. Strip the new field from a current serialization.
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .trials(24)
            .build()
            .unwrap();
        let json = spec
            .to_json()
            .replace(",\"precision\":{\"kind\":\"fixed\"}", "");
        assert!(!json.contains("precision"), "field not stripped: {json}");
        let back = JobSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(*back.precision(), Precision::FixedTrials);
    }

    #[test]
    fn topology_must_match_the_circuit_width() {
        let err = JobSpec::builder(toffoli_fig4())
            .topology(Topology::linear(5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, ApiError::Spec { .. }), "{err}");
        let spec = JobSpec::builder(toffoli_fig4())
            .topology(Topology::ring(3).unwrap())
            .build()
            .unwrap();
        assert_eq!(spec.topology().unwrap().sites(), 3);
    }

    #[test]
    fn topology_round_trips_and_unrouted_specs_omit_the_field() {
        let routed = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .topology(Topology::linear(3).unwrap())
            .build()
            .unwrap();
        let back = JobSpec::from_json(&routed.to_json()).unwrap();
        assert_eq!(back, routed);
        assert_eq!(back.topology(), Some(&Topology::linear(3).unwrap()));
        // An unrouted spec's wire form has no topology key at all — the
        // pre-routing byte layout (golden files, cache keys) is preserved.
        let unrouted = JobSpec::builder(toffoli_fig4()).build().unwrap();
        assert!(!unrouted.to_json().contains("topology"));
        assert_eq!(JobSpec::from_json(&unrouted.to_json()).unwrap(), unrouted);
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc_t1_gates())
            .trials(40)
            .seed(7)
            .input(InputState::AllOnes)
            .precision(Precision::TargetSigma {
                sigma: 5e-3,
                min_trials: 8,
                max_trials: 512,
            })
            .build()
            .unwrap();
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let back = JobSpec::from_json(&spec.to_json_pretty()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn json_deserialization_revalidates_with_typed_errors() {
        // A wire-level spec with zero trials must be rejected even though
        // the JSON itself is well-formed — and as a *spec* error, so a
        // server can tell it apart from a malformed payload.
        let spec = JobSpec::builder(toffoli_fig4()).build().unwrap();
        let tampered = spec.to_json().replace("\"trials\":100", "\"trials\":0");
        assert!(matches!(
            JobSpec::from_json(&tampered).unwrap_err(),
            ApiError::Spec { .. }
        ));
        // Whereas truncated JSON is a wire error.
        assert!(matches!(
            JobSpec::from_json("{\"circuit\":").unwrap_err(),
            ApiError::Wire { .. }
        ));
    }
}
