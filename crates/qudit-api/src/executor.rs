//! The executor: compile-once job running with batch fan-out.

use crate::error::{ApiError, ApiResult};
use crate::result::{ExecutionResult, Outcome, OutputState};
use crate::spec::JobSpec;
use qudit_circuit::passes::{self, CompiledIr, PassLevel};
use qudit_circuit::{Circuit, Gate, Operation, RoutingSummary, Topology};
use qudit_core::lru::{CacheStats, Lru};
use qudit_core::{random_qubit_subspace_state, StateVector};
use qudit_noise::{
    BackendKind, CancelToken, CrossValidation, DensityNoiseSimulator, InputState,
    NoiseArtifactStats, SharedNoiseArtifacts, TrajectoryConfig, TrajectorySimulator,
};
use qudit_sim::{CompiledCircuit, CompiledDensityCircuit, DensityMatrix, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Structural fingerprint of a circuit: dimension, width, and per operation
/// the gate matrix's bit patterns plus its controls and targets. Two
/// circuits built by independent constructor calls share a key iff they are
/// structurally identical — the same idea as the simulator's plan cache,
/// lifted to job level (negative zero normalised for the same reason).
/// One operation's structural fingerprint: matrix bits, controls, targets.
type OpKey = (Vec<u64>, Vec<(usize, usize)>, Vec<usize>);

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CircuitKey {
    dim: usize,
    width: usize,
    ops: Vec<OpKey>,
}

impl CircuitKey {
    fn of(circuit: &Circuit) -> CircuitKey {
        let bit = |x: f64| if x == 0.0 { 0 } else { x.to_bits() };
        CircuitKey {
            dim: circuit.dim(),
            width: circuit.width(),
            ops: circuit
                .iter()
                .map(|op| {
                    (
                        op.gate()
                            .matrix()
                            .as_slice()
                            .iter()
                            .flat_map(|z| [bit(z.re), bit(z.im)])
                            .collect(),
                        op.control_pairs(),
                        op.targets().to_vec(),
                    )
                })
                .collect(),
        }
    }
}

/// Everything cached for one structurally distinct (circuit, level) pair:
/// the pass-pipeline output (the expensive part — for `Physical` levels it
/// includes the Di & Wei eigendecompositions) plus lazily built kernel
/// plans per backend. Every field is a `OnceLock` so the work happens
/// *outside* the compile cache's lock: the lock is only held for the cheap
/// get-or-insert of the (empty) entry, and concurrent jobs needing the same
/// entry block on its `OnceLock`, not on the whole cache.
#[derive(Default)]
struct CacheEntry {
    ir: OnceLock<Arc<CompiledIr>>,
    statevector: OnceLock<Arc<CompiledCircuit>>,
    density: OnceLock<Arc<CompiledDensityCircuit>>,
    /// Model-independent noise artifacts (program + replay circuits) with
    /// model-keyed site caches inside — see [`SharedNoiseArtifacts`].
    noise: OnceLock<Arc<SharedNoiseArtifacts>>,
}

impl CacheEntry {
    fn ir(
        &self,
        circuit: &Circuit,
        level: PassLevel,
        topology: Option<&Topology>,
    ) -> Arc<CompiledIr> {
        Arc::clone(
            self.ir
                .get_or_init(|| Arc::new(passes::compile_with_topology(circuit, level, topology))),
        )
    }

    fn statevector(&self, ir: &CompiledIr) -> Arc<CompiledCircuit> {
        Arc::clone(
            self.statevector
                .get_or_init(|| Arc::new(CompiledCircuit::compile_ir(ir))),
        )
    }

    fn density(&self, ir: &CompiledIr) -> Arc<CompiledDensityCircuit> {
        Arc::clone(
            self.density
                .get_or_init(|| Arc::new(CompiledDensityCircuit::compile_ir(ir))),
        )
    }

    /// The entry's shared noise artifacts, building them on first use.
    /// Fallible construction doesn't fit `get_or_init` directly, so build
    /// outside and let the first successful build win — a concurrent
    /// duplicate is benign (same inputs, and the loser's work is dropped).
    fn noise(&self, ir: &CompiledIr) -> ApiResult<Arc<SharedNoiseArtifacts>> {
        if let Some(artifacts) = self.noise.get() {
            return Ok(Arc::clone(artifacts));
        }
        let built = Arc::new(SharedNoiseArtifacts::from_ir(ir)?);
        Ok(Arc::clone(self.noise.get_or_init(|| built)))
    }
}

/// Compilation-cache key: one entry per (pass level, device topology,
/// structural circuit identity) triple — routed and unrouted compilations
/// of the same circuit are distinct entries.
type CompileKey = (PassLevel, Option<Topology>, CircuitKey);

/// The single runtime entry point: runs [`JobSpec`]s, compiling each
/// structurally distinct (circuit, pass level) pair exactly once.
///
/// The cache keys on circuit *structure* (gate matrix bits + controls +
/// targets), so jobs built from independent constructor calls — the normal
/// shape of a parameter sweep, where every job rebuilds "the" fig4 Toffoli
/// — share one compilation: the pass pipeline per (circuit, level), the
/// noise-free kernel plan sets per entry, and the per-gate state-vector
/// plans of noisy jobs through one shared [`Simulator`] plan cache.
/// Model-shaped artifacts are memoized too: each entry carries a
/// [`SharedNoiseArtifacts`] holding the noise program and compiled replay
/// circuits (model-independent, built once) plus the per-site channel and
/// superoperator plan sets keyed by the model's physics parameters — a
/// sweep over seeds or trial counts under one model compiles its channels
/// once. [`Executor::noise_artifact_stats`] reports the build/share
/// counters.
///
/// Every cache here is one bounded LRU ([`Lru`]) that drops its
/// least-recently-used entries at capacity: the compile cache holds 256
/// (circuit, level, topology) entries ([`Executor::compile_cache_stats`]),
/// the plan cache 1024 plans, and each entry's site caches 32 models per
/// backend.
///
/// [`Executor::run_batch`] fans jobs out across rayon workers. Every job is
/// deterministic given its spec (all randomness is seeded from
/// [`JobSpec::seed`]), so batch results are **bit-identical** to running
/// the same specs sequentially — the batch determinism test pins this.
///
/// On top of the compilation cache sits a bounded LRU **result cache**
/// keyed on a 128-bit fingerprint of everything the spec's wire form
/// carries (the same key batch dedup uses): repeated service traffic — the
/// Zipf-shaped request mix the `zipf` bench models — skips the whole
/// simulation, not just the compile. Determinism makes this sound: a cache
/// hit is bit-identical to re-running the spec, which the cache tests pin.
/// Hits share the cached output payload rather than copying it, and the
/// cache is bounded by a fixed 64 MiB of payload as well as by entry
/// count.
pub struct Executor {
    cache: Lru<CompileKey, Arc<CacheEntry>>,
    /// Shared per-gate plan cache for the simulators noisy jobs construct.
    planner: Simulator,
    /// Jobs actually simulated (batch dedup and the result cache share
    /// results, so this can be smaller than the number of specs submitted)
    /// — observability for the dedup tests and the server's metrics.
    simulated: AtomicUsize,
    /// Finished results keyed on [`Executor::result_key`], weighed by
    /// their held payload bytes (capacity 0 disables result caching).
    results: Lru<u128, ExecutionResult>,
    /// Monte Carlo trials the result-cache hits avoided re-running.
    trials_saved: AtomicUsize,
    /// Per-executor SipHash keys of the two fingerprint halves: random, so
    /// a client cannot precompute specs that collide in the cache.
    key_state: [RandomState; 2],
}

impl Default for Executor {
    fn default() -> Self {
        Executor::with_result_cache(RESULT_CACHE_CAP)
    }
}

/// Job-cache capacity: distinct (circuit, level) pairs held at once. A
/// batch sweep over the paper's constructions needs a few dozen; the cap
/// bounds growth when a long-lived executor sees an unbounded stream of
/// distinct circuits; past it the least recently used entry gives way.
const JOB_CACHE_CAP: usize = 256;

/// Default result-cache capacity: finished results held at once. Sized for
/// a service working set (the Zipf bench's hot set is ~50 specs) while
/// bounding memory — fidelity results are tiny, but noise-free state
/// payloads can reach `16 B × 3^width` each.
const RESULT_CACHE_CAP: usize = 512;

/// Result-cache byte budget: the payload bytes (see
/// `ExecutionResult::held_bytes`) all held results may take together. The
/// entry cap alone would let 512 wide noise-free results hold gigabytes
/// (`16 B × 3^12` is 8.5 MB per state); under this budget the
/// least-recently-used entries give way first, and a result larger than
/// the whole budget is returned but never stored.
const RESULT_CACHE_MAX_BYTES: usize = 64 << 20;

/// Two independently keyed SipHash streams fed the same bytes — the
/// 128-bit result-cache key.
struct Fingerprint128([DefaultHasher; 2]);

impl Hasher for Fingerprint128 {
    fn write(&mut self, bytes: &[u8]) {
        self.0[0].write(bytes);
        self.0[1].write(bytes);
    }

    fn finish(&self) -> u64 {
        self.0[0].finish()
    }
}

/// A snapshot of the executor's result-cache counters — the service
/// metrics `/healthz` surfaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to a simulation.
    pub misses: usize,
    /// Monte Carlo trials the hits avoided re-running (the dominant cost
    /// a hit saves; noise-free hits save a replay but add nothing here).
    pub trials_saved: usize,
    /// Results dropped to make room under the entry or byte bound.
    pub evictions: usize,
    /// Results currently held.
    pub entries: usize,
    /// The configured bound.
    pub capacity: usize,
}

impl Executor {
    /// Creates an executor with an empty compilation cache and the default
    /// result-cache capacity.
    pub fn new() -> Self {
        Executor::default()
    }

    /// Creates an executor whose result cache holds at most `capacity`
    /// finished results, within the fixed 64 MiB payload budget (0 disables
    /// result caching; compilation caching is unaffected).
    pub fn with_result_cache(capacity: usize) -> Self {
        Executor {
            cache: Lru::new(JOB_CACHE_CAP),
            planner: Simulator::default(),
            simulated: AtomicUsize::new(0),
            results: Lru::weighted(
                capacity,
                RESULT_CACHE_MAX_BYTES,
                ExecutionResult::held_bytes,
            ),
            trials_saved: AtomicUsize::new(0),
            key_state: [RandomState::new(), RandomState::new()],
        }
    }

    /// The result-cache key of `spec`: a 128-bit fingerprint of exactly
    /// what its wire form carries, under this executor's random SipHash
    /// keys. Specs with the same wire form — however they were built —
    /// share a key; any field that changes the wire form changes the key
    /// (up to a 2⁻¹²⁸-scale collision chance no client can steer).
    fn result_key(&self, spec: &JobSpec) -> u128 {
        let mut state = Fingerprint128([
            self.key_state[0].build_hasher(),
            self.key_state[1].build_hasher(),
        ]);
        spec.fingerprint(&mut state);
        let [lo, hi] = state.0.map(|h| h.finish());
        (u128::from(hi) << 64) | u128::from(lo)
    }

    /// The number of distinct (circuit, level) compilations currently
    /// cached.
    pub fn cached_compilations(&self) -> usize {
        self.cache.stats().entries
    }

    /// A snapshot of the compile-cache counters: hits, misses, LRU
    /// evictions, entries held and the entry bound.
    pub fn compile_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The number of jobs this executor has actually simulated. Batch
    /// dedup and the result cache share one simulation across structurally
    /// identical specs, so this counts real work, not submissions.
    pub fn jobs_simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Aggregated noise-artifact counters over every cached entry: how many
    /// per-site channel/superoperator sets were compiled versus answered
    /// from the model-keyed cache. A seed sweep under one model should show
    /// `sites_shared` growing while `sites_built` stays put.
    pub fn noise_artifact_stats(&self) -> NoiseArtifactStats {
        self.cache
            .values()
            .iter()
            .filter_map(|entry| entry.noise.get())
            .fold(NoiseArtifactStats::default(), |acc, artifacts| {
                acc.merge(artifacts.stats())
            })
    }

    /// A snapshot of the result-cache counters.
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        let stats = self.results.stats();
        ResultCacheStats {
            hits: stats.hits,
            misses: stats.misses,
            trials_saved: self.trials_saved.load(Ordering::Relaxed),
            evictions: stats.evictions,
            entries: stats.entries,
            capacity: stats.capacity,
        }
    }

    /// Probes the result cache for a finished run of `spec` without
    /// simulating anything — the server's pre-queue check, keyed like every
    /// run on the spec's 128-bit fingerprint. A hit counts toward the
    /// hit/trials-saved metrics (the caller is serving it) and shares the
    /// cached payload; a miss counts nothing — the miss is charged when the
    /// actual run happens, so a front end that probes first and queues on
    /// miss does not double-count.
    pub fn cached_result(&self, spec: &JobSpec) -> Option<ExecutionResult> {
        if self.results.capacity() == 0 {
            return None;
        }
        self.count_saved_trials(self.results.probe(&self.result_key(spec)))
    }

    /// Adds a result-cache hit's trials to the trials-saved counter and
    /// passes the lookup through.
    fn count_saved_trials(&self, hit: Option<ExecutionResult>) -> Option<ExecutionResult> {
        if let Some(trials) = hit.as_ref().and_then(ExecutionResult::trials_run) {
            self.trials_saved.fetch_add(trials, Ordering::Relaxed);
        }
        hit
    }

    /// Get-or-inserts the cache entry and ensures its IR is compiled. Only
    /// the entry lookup holds the cache lock; the pass pipeline itself runs
    /// under the entry's own `OnceLock`, so distinct circuits compile
    /// concurrently and cache readers never wait on a compile.
    fn entry(
        &self,
        circuit: &Circuit,
        level: PassLevel,
        topology: Option<&Topology>,
    ) -> (Arc<CacheEntry>, Arc<CompiledIr>) {
        let key = (level, topology.cloned(), CircuitKey::of(circuit));
        // First insert wins, so concurrent jobs on a new circuit share one
        // entry and its `OnceLock`s.
        let entry = match self.cache.get(&key) {
            Some(entry) => entry,
            None => self.cache.insert(key, Arc::default()),
        };
        let ir = entry.ir(circuit, level, topology);
        (entry, ir)
    }

    /// Runs one job.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ApiError`] if the circuit cannot be lowered for a
    /// noisy job, the noise model is unphysical for the circuit's
    /// dimension, or an input is invalid — never a panic.
    pub fn run(&self, spec: &JobSpec) -> ApiResult<ExecutionResult> {
        self.run_with(spec, &CancelToken::never())
    }

    /// Runs one job under a [`CancelToken`]: the simulation loops check the
    /// token between trials/frames, so an expired deadline (or a server
    /// shutdown) stops the job mid-run with [`ApiError::DeadlineExceeded`]
    /// instead of burning cores on a result nobody will read.
    ///
    /// # Errors
    ///
    /// [`ApiError::DeadlineExceeded`] once the token trips; otherwise the
    /// same conditions as [`Executor::run`].
    pub fn run_with(&self, spec: &JobSpec, cancel: &CancelToken) -> ApiResult<ExecutionResult> {
        let key = (self.results.capacity() > 0).then(|| self.result_key(spec));
        self.run_keyed(spec, key, cancel)
    }

    /// [`Executor::run_with`] given the spec's result key, or `None` when
    /// result caching is off.
    fn run_keyed(
        &self,
        spec: &JobSpec,
        key: Option<u128>,
        cancel: &CancelToken,
    ) -> ApiResult<ExecutionResult> {
        cancel.check().map_err(ApiError::from)?;
        let Some(key) = key else {
            return self.run_uncached(spec, cancel);
        };
        if let Some(result) = self.count_saved_trials(self.results.get(&key)) {
            return Ok(result);
        }
        let result = self.run_uncached(spec, cancel)?;
        Ok(self.results.insert(key, result))
    }

    /// The simulation path behind [`Executor::run_with`], bypassing the
    /// result cache (the compilation cache still applies).
    fn run_uncached(&self, spec: &JobSpec, cancel: &CancelToken) -> ApiResult<ExecutionResult> {
        let (entry, ir) = self.entry(spec.circuit(), spec.level(), spec.topology());
        let resources = ir.report().post;
        // A routed job compiles to the *physical* circuit: inputs must be
        // embedded through the initial placement, and noise-free outputs
        // un-embedded through the final mapping, so callers keep logical
        // qudit labels end to end. The identity summary (all-to-all or an
        // already-routable circuit) skips both.
        let routing = ir.routing().filter(|summary| !summary.is_identity());
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let outcome = match spec.noise() {
            Some(model) => {
                let config = TrajectoryConfig {
                    trials: spec.trials(),
                    seed: spec.seed(),
                    input: routed_input(spec.input(), routing),
                };
                let artifacts = entry.noise(&ir)?;
                let estimate = match spec.backend() {
                    BackendKind::Trajectory => {
                        TrajectorySimulator::from_artifacts_with(&artifacts, model, &self.planner)?
                            .run(&config, spec.precision(), cancel, None)?
                    }
                    BackendKind::DensityMatrix => DensityNoiseSimulator::from_artifacts_with(
                        &artifacts,
                        model,
                        &self.planner,
                    )?
                    .run(&config, spec.precision(), cancel)?,
                };
                Outcome::Fidelity(estimate)
            }
            None => {
                let mut inputs = self.job_inputs(spec)?;
                if let Some(summary) = routing {
                    for input in &mut inputs {
                        *input = input.permute_qudits(&summary.placement)?;
                    }
                }
                // Undoing the final mapping returns outputs in logical
                // qudit order, so routed and unrouted runs of the same job
                // are directly comparable.
                let unembed = routing.map(|summary| invert(&summary.final_mapping));
                let outputs: Vec<OutputState> = match spec.backend() {
                    BackendKind::Trajectory => {
                        let compiled = entry.statevector(&ir);
                        inputs
                            .into_iter()
                            .map(|input| {
                                let mut out = compiled.run(input);
                                if let Some(map) = &unembed {
                                    out = out
                                        .permute_qudits(map)
                                        .expect("a routing mapping is a permutation");
                                }
                                OutputState::Pure(out)
                            })
                            .collect()
                    }
                    BackendKind::DensityMatrix => {
                        let compiled = entry.density(&ir);
                        inputs
                            .into_iter()
                            .map(|input| {
                                let mut rho = compiled.run(DensityMatrix::from_pure(&input));
                                if let Some(map) = &unembed {
                                    permute_density(&mut rho, map, spec.circuit().dim());
                                }
                                OutputState::Populations {
                                    dim: rho.dim(),
                                    width: rho.num_qudits(),
                                    probabilities: rho.diagonal(),
                                }
                            })
                            .collect()
                    }
                };
                Outcome::States(outputs.into())
            }
        };
        Ok(ExecutionResult {
            backend: spec.backend(),
            resources,
            outcome,
        })
    }

    /// Runs a batch of jobs, fanning out across rayon workers.
    ///
    /// Jobs sharing a structurally identical circuit and level compile
    /// once — each entry's `OnceLock` makes the first worker to need it
    /// compile while the rest wait on that entry only, so *distinct*
    /// circuits compile concurrently. Going further, **structurally
    /// identical specs share one simulation**: every job is deterministic
    /// given its spec (all randomness is seeded from [`JobSpec::seed`]), so
    /// duplicate specs — the normal shape of repeated service traffic —
    /// are simulated once, found by the result cache's fingerprint (so
    /// dedup holds with the result cache off too), and every duplicate's
    /// slot shares that one result's payload.
    /// Results are returned in spec order and are bit-identical to calling
    /// [`Executor::run`] on each spec in sequence — the batch determinism
    /// and dedup tests pin this.
    pub fn run_batch(&self, specs: &[JobSpec]) -> Vec<ApiResult<ExecutionResult>> {
        self.run_batch_with(specs, &CancelToken::never())
    }

    /// [`Executor::run_batch`] under a shared [`CancelToken`] — one expired
    /// deadline cancels the whole batch's remaining work.
    pub fn run_batch_with(
        &self,
        specs: &[JobSpec],
        cancel: &CancelToken,
    ) -> Vec<ApiResult<ExecutionResult>> {
        // Dedup key: the result-cache fingerprint covers everything that
        // can influence a result (circuit structure, level, backend, model,
        // trials, seed, input, sweep, precision, topology).
        let mut first_of: HashMap<u128, usize> = HashMap::new();
        let mut unique: Vec<(usize, u128)> = Vec::new();
        let canonical: Vec<usize> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let key = self.result_key(spec);
                *first_of.entry(key).or_insert_with(|| {
                    unique.push((i, key));
                    unique.len() - 1
                })
            })
            .collect();
        let cached = self.results.capacity() > 0;
        let results: Vec<ApiResult<ExecutionResult>> = (0..unique.len())
            .into_par_iter()
            .map(|u| {
                let (i, key) = unique[u];
                self.run_keyed(&specs[i], cached.then_some(key), cancel)
            })
            .collect();
        canonical.into_iter().map(|u| results[u].clone()).collect()
    }

    /// Cross-validates a noisy job: runs it on the exact density-matrix
    /// backend and on the trajectory backend (same circuit compilation,
    /// same seeded inputs) and wraps both in the standard confidence bound
    /// — the 3σ gate CI runs on a fixed seed set.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Spec`] for noise-free specs or when the exact
    /// leg would be density-infeasible, and any error either leg produces.
    pub fn cross_validate(&self, spec: &JobSpec, sigmas: f64) -> ApiResult<CrossValidation> {
        if spec.noise().is_none() {
            return Err(ApiError::spec(
                "cross-validation needs a noisy job (attach a noise model)",
            ));
        }
        let leg = |backend: BackendKind| -> ApiResult<JobSpec> {
            let mut builder = JobSpec::builder(spec.circuit().clone())
                .level(spec.level())
                .backend(backend)
                .noise(spec.noise().expect("checked above").clone())
                .trials(spec.trials())
                .seed(spec.seed())
                .input(spec.input().clone());
            // Both legs must route identically for the comparison to hold.
            if let Some(topology) = spec.topology() {
                builder = builder.topology(topology.clone());
            }
            builder.build()
        };
        let exact_spec = leg(BackendKind::DensityMatrix)?;
        let trajectory_spec = leg(BackendKind::Trajectory)?;
        let exact = *self.run(&exact_spec)?.fidelity()?;
        let estimate = *self.run(&trajectory_spec)?.fidelity()?;
        Ok(CrossValidation::from_runs(exact, estimate, sigmas))
    }

    /// Compiles a circuit for repeated noise-free state-vector replay — the
    /// façade's handle for perf harnesses and amplitude-level verification,
    /// which need to drive the compiled kernels directly without
    /// constructing simulator types themselves.
    pub fn compile_statevector(&self, circuit: &Circuit, level: PassLevel) -> CompiledStateJob {
        let (entry, ir) = self.entry(circuit, level, None);
        CompiledStateJob {
            compiled: entry.statevector(&ir),
            ir,
        }
    }

    /// The inputs of a noise-free job: the explicit sweep's basis states,
    /// or the single configured input (seeded for the random distribution).
    fn job_inputs(&self, spec: &JobSpec) -> ApiResult<Vec<StateVector>> {
        let dim = spec.circuit().dim();
        let width = spec.circuit().width();
        if !spec.sweep().is_empty() {
            return spec
                .sweep()
                .iter()
                .map(|digits| StateVector::from_basis_state(dim, digits).map_err(ApiError::from))
                .collect();
        }
        let input = match spec.input() {
            InputState::RandomQubitSubspace => {
                let mut rng = StdRng::seed_from_u64(spec.seed());
                random_qubit_subspace_state(dim, width, &mut rng)?
            }
            InputState::AllOnes => StateVector::from_basis_state(dim, &vec![1usize; width])?,
            InputState::Basis(digits) => StateVector::from_basis_state(dim, digits)?,
        };
        Ok(vec![input])
    }
}

/// The input distribution seen by the routed (physical) circuit: an
/// explicit basis state is relabeled onto the placement's sites, so logical
/// qudit `q` starts in its requested digit wherever it was placed. The
/// all-ones and random-qubit-subspace distributions are site-symmetric —
/// every noisy run compares against the ideal evolution of the *same*
/// routed circuit on the *same* input, so relabeling them changes nothing.
fn routed_input(input: &InputState, routing: Option<&RoutingSummary>) -> InputState {
    match (routing, input) {
        (Some(summary), InputState::Basis(digits)) => {
            let mut physical = vec![0usize; digits.len()];
            for (q, &digit) in digits.iter().enumerate() {
                physical[summary.placement[q]] = digit;
            }
            InputState::Basis(physical)
        }
        _ => input.clone(),
    }
}

/// The inverse of a permutation given as `map[q] = target position`.
fn invert(map: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; map.len()];
    for (q, &site) in map.iter().enumerate() {
        inv[site] = q;
    }
    inv
}

/// Applies the qudit permutation `map` (qudit `q` moves to position
/// `map[q]`) to a density matrix by decomposing it into SWAP
/// transpositions — the density backend has no native relabel, and a
/// handful of two-qudit SWAPs is noise next to the `O(d^2n)` evolution the
/// caller just paid for.
fn permute_density(rho: &mut DensityMatrix, map: &[usize], dim: usize) {
    let inv = invert(map);
    let mut location: Vec<usize> = (0..map.len()).collect();
    let mut holds: Vec<usize> = (0..map.len()).collect();
    for target in 0..map.len() {
        let wanted = inv[target];
        let current = location[wanted];
        if current != target {
            let op = Operation::new(Gate::swap(dim), Vec::new(), vec![target, current])
                .expect("SWAP on two distinct qudits is a valid operation");
            rho.apply_operation(&op);
            let displaced = holds[target];
            holds[target] = wanted;
            holds[current] = displaced;
            location[wanted] = target;
            location[displaced] = current;
        }
    }
}

/// A circuit compiled for noise-free state-vector replay through the
/// façade — see [`Executor::compile_statevector`].
pub struct CompiledStateJob {
    compiled: Arc<CompiledCircuit>,
    ir: Arc<CompiledIr>,
}

impl CompiledStateJob {
    /// Evolves `input` through the compiled circuit, parallelizing across
    /// rayon workers when a plan's work estimate clears the threshold.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Noise`] (a state-shape mismatch) if the input's
    /// dimension or width does not match the circuit.
    pub fn run(&self, input: StateVector) -> ApiResult<StateVector> {
        self.check_shape(&input)?;
        Ok(self.compiled.run(input))
    }

    /// Evolves `input` strictly on the calling thread — the baseline the
    /// perf snapshot's sequential column measures, and the right choice
    /// when the caller already saturates the cores (one job per worker).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledStateJob::run`].
    pub fn run_sequential(&self, input: StateVector) -> ApiResult<StateVector> {
        self.check_shape(&input)?;
        Ok(self.compiled.run_sequential(input))
    }

    fn check_shape(&self, input: &StateVector) -> ApiResult<()> {
        if input.dim() != self.compiled.dim() || input.num_qudits() != self.compiled.width() {
            return Err(ApiError::Noise(
                qudit_noise::NoiseError::StateShapeMismatch {
                    expected_dim: self.compiled.dim(),
                    expected_width: self.compiled.width(),
                    actual_dim: input.dim(),
                    actual_width: input.num_qudits(),
                },
            ));
        }
        Ok(())
    }

    /// The number of kernel invocations one replay performs (the post-pass
    /// operation count).
    pub fn op_count(&self) -> usize {
        self.ir.circuit().len()
    }

    /// Resources of the compiled (post-pass) circuit.
    pub fn resources(&self) -> qudit_circuit::ResourceReport {
        self.ir.report().post
    }

    /// The cache-blocked replay segmentation as `(op count, chunk amps)`
    /// pairs — chunk = 0 for op-at-a-time stretches. Diagnostic, surfaced
    /// for the kernel microbench so it can report blocking without
    /// reaching below the façade.
    pub fn replay_segments(&self) -> Vec<(usize, usize)> {
        self.compiled.replay_segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{Control, Gate};
    use qudit_core::{CMatrix, Complex};
    use qudit_noise::{models, NoiseModel};

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
    fn noise_free_jobs_agree_across_backends() {
        let executor = Executor::new();
        for backend in [BackendKind::Trajectory, BackendKind::DensityMatrix] {
            let spec = JobSpec::builder(toffoli_fig4())
                .backend(backend)
                .input(InputState::Basis(vec![1, 1, 0]))
                .build()
                .unwrap();
            let result = executor.run(&spec).unwrap();
            let out = &result.states().unwrap()[0];
            assert!((out.probability(&[1, 1, 1]).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn structurally_equal_circuits_compile_once() {
        let executor = Executor::new();
        for seed in 0..5u64 {
            // Each iteration rebuilds "the" Toffoli from scratch.
            let spec = JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .trials(2)
                .seed(seed)
                .build()
                .unwrap();
            executor.run(&spec).unwrap();
        }
        assert_eq!(executor.cached_compilations(), 1);
    }

    #[test]
    fn noisy_job_produces_a_fidelity_with_error_bars() {
        let executor = Executor::new();
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc_t1_gates())
            .backend(BackendKind::DensityMatrix)
            .input(InputState::AllOnes)
            .build()
            .unwrap();
        let result = executor.run(&spec).unwrap();
        let est = result.fidelity().unwrap();
        assert!(est.mean > 0.9 && est.mean < 1.0);
        assert!(est.binomial_sigma() >= 0.0);
        // The resource report describes the lowered circuit.
        assert_eq!(result.resources.two_qudit_gates(), 3);
    }

    #[test]
    fn operations_over_the_lowering_bound_are_tallied_or_refused() {
        // Nine controls exceed `MAX_LOWERED_CONTROLS`: the op is left
        // unlowered instead of expanding into ~3·10⁴ gates. Noise-free it
        // still simulates and is tallied as unlowered; a noisy job is
        // refused with a typed error.
        let controls = qudit_circuit::decompose::MAX_LOWERED_CONTROLS + 1;
        let mut c = Circuit::new(2, controls + 1);
        let on_one: Vec<Control> = (0..controls).map(Control::on_one).collect();
        c.push_controlled(Gate::x(2), &on_one, &[controls]).unwrap();
        let executor = Executor::new();
        for level in [PassLevel::Ideal, PassLevel::Physical] {
            let spec = JobSpec::builder(c.clone()).level(level).build().unwrap();
            let result = executor.run(&spec).unwrap();
            assert_eq!(result.resources.physical.three_plus_qudit_ops, 1);
        }
        let noisy = JobSpec::builder(c)
            .noise(models::sc())
            .backend(BackendKind::Trajectory)
            .trials(4)
            .build()
            .unwrap();
        assert!(executor.run(&noisy).is_err());
    }

    #[test]
    fn ideal_jobs_over_the_lowering_budget_are_counted_unlowered() {
        // 200 eight-controlled X ops would lower to about 2·10⁶ gates just
        // for the report: over budget, the physical column leaves them
        // unlowered and tallies them instead.
        let mut c = Circuit::new(2, 9);
        for i in 0..200 {
            let target = 8 - i % 2;
            let controls: Vec<Control> = (0..9)
                .filter(|&q| q != target)
                .map(Control::on_one)
                .collect();
            c.push_controlled(Gate::x(2), &controls, &[target]).unwrap();
        }
        let spec = JobSpec::builder(c).level(PassLevel::Ideal).build().unwrap();
        let resources = Executor::new().run(&spec).unwrap().resources;
        assert_eq!(resources.physical.three_plus_qudit_ops, 200);
        assert_eq!(resources.physical, resources.logical);
    }

    #[test]
    fn logical_ablation_routes_through_the_level_knob() {
        // A genuine 3-qutrit op: the logical level must be more optimistic.
        let mut c = Circuit::new(3, 3);
        for _ in 0..4 {
            c.push_controlled(
                Gate::increment(3),
                &[Control::on_one(0), Control::on_two(1)],
                &[2],
            )
            .unwrap();
        }
        let executor = Executor::new();
        let base = JobSpec::builder(c.clone())
            .noise(models::sc())
            .backend(BackendKind::DensityMatrix)
            .input(InputState::AllOnes)
            .build()
            .unwrap();
        let logical = JobSpec::builder(c)
            .noise(models::sc())
            .backend(BackendKind::DensityMatrix)
            .level(PassLevel::NoisePreserving)
            .input(InputState::AllOnes)
            .build()
            .unwrap();
        let physical = executor.run(&base).unwrap().fidelity().unwrap().mean;
        let optimistic = executor.run(&logical).unwrap().fidelity().unwrap().mean;
        assert!(
            optimistic > physical,
            "logical {optimistic} must beat physical {physical}"
        );
    }

    #[test]
    fn sweep_returns_one_output_per_input() {
        let executor = Executor::new();
        let sweep = vec![vec![0, 0, 0], vec![1, 1, 0], vec![1, 1, 1]];
        let spec = JobSpec::builder(toffoli_fig4())
            .sweep(sweep.clone())
            .build()
            .unwrap();
        let result = executor.run(&spec).unwrap();
        let states = result.states().unwrap();
        assert_eq!(states.len(), 3);
        assert!((states[1].probability(&[1, 1, 1]).unwrap() - 1.0).abs() < 1e-12);
        assert!((states[2].probability(&[1, 1, 0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_validation_passes_on_the_fig4_toffoli() {
        let executor = Executor::new();
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc_t1_gates())
            .trials(200)
            .input(InputState::AllOnes)
            .build()
            .unwrap();
        let cv = executor.cross_validate(&spec, 3.0).unwrap();
        assert!(
            cv.within_bounds(),
            "trajectory {} vs exact {} exceeds bound {}",
            cv.estimate.mean,
            cv.exact,
            cv.tolerance
        );
    }

    #[test]
    fn batch_dedup_simulates_identical_specs_once() {
        let executor = Executor::new();
        let make = |seed: u64| {
            JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .trials(4)
                .seed(seed)
                .input(InputState::AllOnes)
                .build()
                .unwrap()
        };
        // Six submissions, three structurally distinct specs.
        let specs = vec![make(1), make(2), make(1), make(3), make(2), make(1)];
        let before = executor.jobs_simulated();
        let deduped = executor.run_batch(&specs);
        assert_eq!(executor.jobs_simulated() - before, 3);

        // Bit-identical to the non-deduped path (fresh executor, one run
        // per spec, in order).
        let plain = Executor::new();
        for (spec, got) in specs.iter().zip(&deduped) {
            let expected = plain.run(spec).unwrap();
            assert_eq!(got.as_ref().unwrap(), &expected);
        }
        // Duplicates really share: slots 0, 2 and 5 are the same spec.
        assert_eq!(deduped[0], deduped[2]);
        assert_eq!(deduped[0], deduped[5]);
    }

    #[test]
    fn seed_sweep_shares_noise_artifacts_across_runs() {
        // Result caching off so every spec really simulates; each run still
        // finds the entry's channel compilations already built.
        let executor = Executor::with_result_cache(0);
        let make = |seed: u64| {
            JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .trials(2)
                .seed(seed)
                .build()
                .unwrap()
        };
        for seed in 0..4 {
            executor.run(&make(seed)).unwrap();
        }
        let stats = executor.noise_artifact_stats();
        assert_eq!(stats.sites_built, 1, "one model, one site compilation");
        assert_eq!(stats.sites_shared, 3, "later seeds reuse it");

        // A different model on the same entry builds its own set once.
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc_t1_gates())
            .trials(2)
            .build()
            .unwrap();
        executor.run(&spec).unwrap();
        executor.run(&spec).unwrap();
        let stats = executor.noise_artifact_stats();
        assert_eq!((stats.sites_built, stats.sites_shared), (2, 4));
    }

    #[test]
    fn noise_site_caches_stay_bounded_and_rebuild_evicted_models() {
        // Result caching off, so every run reaches the entry's site caches.
        let executor = Executor::with_result_cache(0);
        let spec = |backend: BackendKind, i: usize| {
            let mut model = models::sc();
            model.p1 *= 1.0 + i as f64 / 64.0;
            JobSpec::builder(toffoli_fig4())
                .noise(model)
                .backend(backend)
                .trials(2)
                .build()
                .unwrap()
        };
        let artifacts = || {
            let entries = executor.cache.values();
            assert_eq!(entries.len(), 1, "one circuit, one compile entry");
            Arc::clone(entries[0].noise.get().unwrap())
        };
        let built = || executor.noise_artifact_stats().sites_built;
        for backend in [BackendKind::Trajectory, BackendKind::DensityMatrix] {
            let first = executor.run(&spec(backend, 0)).unwrap();
            let cap = artifacts().site_cache_stats(backend).capacity;
            for i in 1..3 * cap {
                let before = built();
                executor.run(&spec(backend, i)).unwrap();
                assert_eq!(built(), before + 1, "a new model builds one site set");
                let held = artifacts().site_cache_stats(backend).entries;
                assert!(held <= cap, "{held} site sets held, cap {cap}");
            }
            // The first model was evicted long ago: it rebuilds, and the
            // rebuilt sites reproduce its first run to the bit.
            let before = built();
            let again = executor.run(&spec(backend, 0)).unwrap();
            assert_eq!(built(), before + 1);
            let (a, b) = (first.fidelity().unwrap(), again.fidelity().unwrap());
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
            assert_eq!(a.trials, b.trials);
        }
    }

    #[test]
    fn compile_cache_keeps_its_hot_set_at_capacity() {
        let executor = Executor::new();
        let circuit = |i: usize| {
            let mut c = Circuit::new(3, 1);
            c.push_gate(Gate::x_pow(3, (i + 1) as f64 * 1e-3), &[0])
                .unwrap();
            c
        };
        let compile = |i: usize| executor.compile_statevector(&circuit(i), PassLevel::Physical);
        for i in 0..JOB_CACHE_CAP {
            compile(i);
        }
        // Touch the first circuit, so it is not the LRU victim of the next.
        compile(0);
        compile(JOB_CACHE_CAP);
        assert_eq!(executor.cached_compilations(), JOB_CACHE_CAP);
        let before = executor.compile_cache_stats();
        compile(0);
        let after = executor.compile_cache_stats();
        assert_eq!(executor.cached_compilations(), JOB_CACHE_CAP);
        assert_eq!(
            (after.hits, after.misses),
            (before.hits + 1, before.misses),
            "the touched circuit must still hit"
        );
        assert_eq!(after.evictions, 1);
    }

    #[test]
    fn result_cache_hit_is_bit_identical_and_skips_simulation() {
        let executor = Executor::new();
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .trials(8)
            .build()
            .unwrap();
        let miss = executor.run(&spec).unwrap();
        let after_miss = executor.jobs_simulated();
        let hit = executor.run(&spec).unwrap();
        // No new simulation, and the payload is bit-identical (PartialEq
        // on f64 fields is exact equality).
        assert_eq!(executor.jobs_simulated(), after_miss);
        assert_eq!(hit, miss);
        assert_eq!(
            hit.fidelity().unwrap().mean.to_bits(),
            miss.fidelity().unwrap().mean.to_bits()
        );
        let stats = executor.result_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.trials_saved, 8);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cached_result_probe_counts_hits_but_not_misses() {
        let executor = Executor::new();
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .trials(4)
            .build()
            .unwrap();
        assert!(executor.cached_result(&spec).is_none());
        // A probe miss charges nothing — the queued run pays the miss.
        assert_eq!(executor.result_cache_stats().misses, 0);
        let ran = executor.run(&spec).unwrap();
        let probed = executor.cached_result(&spec).unwrap();
        assert_eq!(probed, ran);
        let stats = executor.result_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn zero_capacity_disables_the_result_cache() {
        let executor = Executor::with_result_cache(0);
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .trials(4)
            .build()
            .unwrap();
        executor.run(&spec).unwrap();
        executor.run(&spec).unwrap();
        assert_eq!(executor.jobs_simulated(), 2);
        assert_eq!(
            executor.result_cache_stats(),
            ResultCacheStats {
                capacity: 0,
                ..ResultCacheStats::default()
            }
        );
        assert!(executor.cached_result(&spec).is_none());
    }

    #[test]
    fn result_cache_evicts_least_recently_used_at_capacity() {
        let executor = Executor::with_result_cache(2);
        let make = |seed: u64| {
            JobSpec::builder(toffoli_fig4())
                .noise(models::sc())
                .trials(2)
                .seed(seed)
                .input(InputState::AllOnes)
                .build()
                .unwrap()
        };
        executor.run(&make(1)).unwrap();
        executor.run(&make(2)).unwrap();
        // Touch seed 1 so seed 2 is the LRU victim when seed 3 arrives.
        executor.run(&make(1)).unwrap();
        executor.run(&make(3)).unwrap();
        assert_eq!(executor.result_cache_stats().entries, 2);
        assert!(executor.cached_result(&make(1)).is_some());
        assert!(executor.cached_result(&make(2)).is_none());
        assert!(executor.cached_result(&make(3)).is_some());
    }

    #[test]
    fn adaptive_precision_runs_fewer_trials_than_the_fixed_budget() {
        let executor = Executor::new();
        let base = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .trials(2048)
            .build()
            .unwrap();
        let adaptive = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .trials(2048)
            .precision(qudit_noise::Precision::TargetSigma {
                sigma: 0.02,
                min_trials: 8,
                max_trials: 2048,
            })
            .build()
            .unwrap();
        let fixed = executor.run(&base).unwrap();
        let early = executor.run(&adaptive).unwrap();
        let trials = early.trials_run().unwrap();
        assert!(trials < 2048, "adaptive ran the whole budget ({trials})");
        assert!(early.fidelity().unwrap().conservative_sigma() <= 0.02);
        assert_eq!(fixed.trials_run(), Some(2048));
        // Distinct result keys: the two specs must not collide in the cache.
        assert_ne!(fixed, early);
    }

    #[test]
    fn expired_deadline_maps_to_deadline_exceeded() {
        let executor = Executor::new();
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc())
            .trials(50_000)
            .build()
            .unwrap();
        let token = qudit_noise::CancelToken::new();
        token.cancel();
        assert_eq!(
            executor.run_with(&spec, &token),
            Err(ApiError::DeadlineExceeded)
        );
    }

    /// A star-interaction circuit: qudit 0 talks to every other qudit —
    /// unroutable without SWAPs on any bounded-degree topology.
    fn star_circuit(width: usize) -> Circuit {
        let mut c = Circuit::new(3, width);
        for q in 1..width {
            c.push_controlled(Gate::x(3), &[Control::on_one(0)], &[q])
                .unwrap();
        }
        c
    }

    #[test]
    fn routed_noise_free_job_matches_the_unrouted_outputs() {
        // |10000⟩ through the star circuit flips every other qudit to |1⟩;
        // routed on a line (which needs SWAPs) the un-embedded output must
        // land on the same logical basis labels, for both backends.
        let executor = Executor::new();
        for backend in [BackendKind::Trajectory, BackendKind::DensityMatrix] {
            let spec = |topology: Option<Topology>| {
                let mut builder = JobSpec::builder(star_circuit(5))
                    .backend(backend)
                    .input(InputState::Basis(vec![1, 0, 0, 0, 0]));
                if let Some(t) = topology {
                    builder = builder.topology(t);
                }
                builder.build().unwrap()
            };
            let base = executor.run(&spec(None)).unwrap();
            let routed = executor
                .run(&spec(Some(Topology::linear(5).unwrap())))
                .unwrap();
            assert!(routed.resources.routed.unwrap().inserted_swaps > 0);
            assert!(base.resources.routed.is_none());
            let want = &base.states().unwrap()[0];
            let got = &routed.states().unwrap()[0];
            for digits in [vec![1usize, 1, 1, 1, 1], vec![0usize; 5]] {
                assert!(
                    (want.probability(&digits).unwrap() - got.probability(&digits).unwrap()).abs()
                        < 1e-12,
                    "{backend:?} disagrees on {digits:?}"
                );
            }
        }
    }

    #[test]
    fn routed_and_unrouted_jobs_get_distinct_compilations() {
        let executor = Executor::new();
        let base = JobSpec::builder(star_circuit(4)).build().unwrap();
        let routed = JobSpec::builder(star_circuit(4))
            .topology(Topology::ring(4).unwrap())
            .build()
            .unwrap();
        executor.run(&base).unwrap();
        executor.run(&routed).unwrap();
        assert_eq!(executor.cached_compilations(), 2);
        // Distinct result keys keep them apart in the result cache too.
        assert_ne!(executor.result_key(&base), executor.result_key(&routed));
    }

    #[test]
    fn routed_noisy_job_runs_and_reports_routed_costs() {
        let executor = Executor::new();
        let spec = JobSpec::builder(star_circuit(4))
            .noise(models::sc())
            .trials(8)
            .input(InputState::Basis(vec![1, 1, 0, 0]))
            .topology(Topology::linear(4).unwrap())
            .build()
            .unwrap();
        let result = executor.run(&spec).unwrap();
        let est = result.fidelity().unwrap();
        assert!(est.mean > 0.0 && est.mean <= 1.0);
        let routed = result.resources.routed.unwrap();
        assert!(routed.inserted_swaps > 0);
        assert!(routed.routed_two_qudit_gates > 3);
    }

    #[test]
    fn cross_validation_carries_the_topology_into_both_legs() {
        let executor = Executor::new();
        let spec = JobSpec::builder(toffoli_fig4())
            .noise(models::sc_t1_gates())
            .trials(100)
            .input(InputState::AllOnes)
            .topology(Topology::linear(3).unwrap())
            .build()
            .unwrap();
        let cv = executor.cross_validate(&spec, 3.0).unwrap();
        assert!(
            cv.within_bounds(),
            "trajectory {} vs exact {} exceeds bound {}",
            cv.estimate.mean,
            cv.exact,
            cv.tolerance
        );
    }

    #[test]
    fn compiled_state_job_rejects_bad_shapes() {
        let executor = Executor::new();
        let job = executor.compile_statevector(&toffoli_fig4(), PassLevel::Ideal);
        assert!(job.op_count() >= 1);
        let bad = StateVector::from_basis_state(3, &[1, 1]).unwrap();
        assert!(job.run(bad).is_err());
        let good = StateVector::from_basis_state(3, &[1, 1, 0]).unwrap();
        let out = job.run(good).unwrap();
        assert!((out.probability(&[1, 1, 1]).unwrap() - 1.0).abs() < 1e-12);
    }

    /// The fig4 Toffoli with its first gate, first control and second
    /// target swappable — the circuit-side variations of the key tests.
    fn fig4_with(first: Gate, first_control: Control, second_target: usize) -> Circuit {
        let mut c = Circuit::new(3, 3);
        c.push_controlled(first, &[first_control], &[1]).unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_two(1)], &[second_target])
            .unwrap();
        c.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c
    }

    /// `Gate::increment(3)` with its matrix entries transformed by `f` and
    /// its name replaced.
    fn increment_variant(name: &str, f: impl Fn(usize, Complex) -> Complex) -> Gate {
        let base = Gate::increment(3);
        let data = base
            .matrix()
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &z)| f(i, z))
            .collect();
        Gate::new(name, 3, 1, CMatrix::from_vec(3, 3, data).unwrap()).unwrap()
    }

    #[test]
    fn result_key_changes_with_every_wire_field() {
        use qudit_noise::Precision;
        let executor = Executor::new();
        let same_gate = || increment_variant(Gate::increment(3).name(), |_, z| z);
        let fig4 = || fig4_with(same_gate(), Control::on_one(0), 2);
        let model = || {
            models::sc_t1_gates()
                .with_leakage(1e-4)
                .with_overrotation(0.01)
                .with_crosstalk(1e3)
        };
        let noisy = |circuit: Circuit, model: NoiseModel| {
            JobSpec::builder(circuit)
                .noise(model)
                .trials(8)
                .seed(5)
                .input(InputState::AllOnes)
        };
        let base_noisy = noisy(fig4(), model()).build().unwrap();
        let sweep = || JobSpec::builder(fig4()).sweep(vec![vec![1, 1, 0], vec![0, 1, 1]]);
        let base_sweep = sweep().build().unwrap();
        // The rebuilt circuit is the constructor's: a shared starting point.
        assert_eq!(
            executor.result_key(&base_noisy),
            executor.result_key(&noisy(toffoli_fig4(), model()).build().unwrap())
        );

        let entries = Gate::increment(3).matrix().as_slice().to_vec();
        let zero = entries.iter().position(|z| z.re.to_bits() == 0).unwrap();
        let one = entries.iter().position(|z| z.re == 1.0).unwrap();
        let circuits = [
            fig4_with(
                increment_variant("X+1", |i, z| if i == one { z * 0.5 } else { z }),
                Control::on_one(0),
                2,
            ),
            fig4_with(
                increment_variant("X+1", |i, z| {
                    if i == zero {
                        Complex::new(-0.0, z.im)
                    } else {
                        z
                    }
                }),
                Control::on_one(0),
                2,
            ),
            fig4_with(increment_variant("X+1'", |_, z| z), Control::on_one(0), 2),
            fig4_with(same_gate(), Control::on_two(0), 2),
            fig4_with(same_gate(), Control::on_one(0), 0),
        ];
        let models = [
            NoiseModel {
                name: "renamed".to_string(),
                ..model()
            },
            NoiseModel {
                p1: model().p1 * 2.0,
                ..model()
            },
            NoiseModel {
                p2: model().p2 * 2.0,
                ..model()
            },
            NoiseModel {
                t1: model().t1.map(|t| t * 2.0),
                ..model()
            },
            NoiseModel {
                t1: None,
                ..model()
            },
            NoiseModel {
                gate_time_1q: model().gate_time_1q * 2.0,
                ..model()
            },
            NoiseModel {
                gate_time_2q: model().gate_time_2q * 2.0,
                ..model()
            },
            model().with_leakage(2e-4),
            NoiseModel {
                leak_rate: None,
                ..model()
            },
            model().with_overrotation(0.02),
            model().with_crosstalk(2e3),
        ];
        let mut variants: Vec<JobSpec> = Vec::new();
        for circuit in &circuits {
            variants.push(noisy(circuit.clone(), model()).build().unwrap());
            variants.push(
                JobSpec::builder(circuit.clone())
                    .sweep(vec![vec![1, 1, 0], vec![0, 1, 1]])
                    .build()
                    .unwrap(),
            );
        }
        for m in models {
            variants.push(noisy(fig4(), m).build().unwrap());
        }
        for builder in [
            noisy(fig4(), model()).level(PassLevel::NoisePreserving),
            noisy(fig4(), model()).backend(BackendKind::DensityMatrix),
            noisy(fig4(), model()).trials(9),
            noisy(fig4(), model()).seed(6),
            noisy(fig4(), model()).input(InputState::RandomQubitSubspace),
            noisy(fig4(), model()).input(InputState::Basis(vec![1, 1, 0])),
            noisy(fig4(), model()).input(InputState::Basis(vec![1, 0, 1])),
            noisy(fig4(), model()).precision(Precision::TargetSigma {
                sigma: 0.01,
                min_trials: 4,
                max_trials: 8,
            }),
            noisy(fig4(), model()).topology(Topology::linear(3).unwrap()),
            noisy(fig4(), model()).topology(Topology::ring(3).unwrap()),
            noisy(fig4(), model()).topology(
                Topology::linear(3)
                    .unwrap()
                    .with_site_quality(vec![1.0, 2.0, 1.0])
                    .unwrap(),
            ),
            sweep().level(PassLevel::Physical),
            sweep().backend(BackendKind::DensityMatrix),
            sweep().sweep(vec![vec![1, 1, 0], vec![0, 1, 2]]),
            sweep().sweep(vec![vec![1, 1, 0]]),
            sweep().sweep(Vec::new()),
            sweep().topology(Topology::linear(3).unwrap()),
        ] {
            variants.push(builder.build().unwrap());
        }

        // Every variant differs from its base in both the wire form and
        // the key, and no two of the variants or bases collide.
        let mut keys = std::collections::HashSet::new();
        let mut wires = std::collections::HashSet::new();
        for spec in [&base_noisy, &base_sweep].into_iter().chain(&variants) {
            assert!(keys.insert(executor.result_key(spec)), "{}", spec.to_json());
            assert!(wires.insert(spec.to_json()), "{}", spec.to_json());
        }
    }

    #[test]
    fn result_key_is_stable_across_a_wire_round_trip() {
        // Specs built by another crate arrive here as wire text, exactly as
        // a server receives them.
        let mut wires = bench::serve_support::mixed_job_jsons();
        for (construction, model) in bench::figure11_pairs() {
            for backend in [BackendKind::Trajectory, BackendKind::DensityMatrix] {
                for controls in [2, 4] {
                    if let Ok(spec) =
                        bench::figure11_job(backend, construction, &model, controls, 256, 7)
                    {
                        wires.push(spec.to_json());
                    }
                }
            }
        }
        assert!(wires.len() > 3 + 32, "the Figure 11 sweep is missing");
        let executor = Executor::new();
        for wire in wires {
            let spec = JobSpec::from_json(&wire).unwrap();
            let again = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(
                executor.result_key(&again),
                executor.result_key(&spec),
                "{wire}"
            );
        }
    }

    #[test]
    fn result_keys_are_seeded_per_executor() {
        let spec = JobSpec::builder(toffoli_fig4()).build().unwrap();
        let (a, b) = (Executor::new(), Executor::new());
        assert_eq!(a.result_key(&spec), a.result_key(&spec));
        assert_ne!(a.result_key(&spec), b.result_key(&spec));
        // The two halves come from independently keyed streams.
        let key = a.result_key(&spec);
        assert_ne!(key >> 64, key & u128::from(u64::MAX));
    }

    #[test]
    fn wide_results_stay_within_the_byte_budget_and_hit_bit_identically() {
        // 11 qutrits: 2.8 MB per state, six states (17 MB) per result, so
        // six distinct results overrun the 64 MiB budget.
        let mut c = Circuit::new(3, 11);
        c.push_controlled(Gate::x(3), &[Control::on_one(0)], &[10])
            .unwrap();
        let make = |first: usize| {
            JobSpec::builder(c.clone())
                .sweep(
                    (0..6)
                        .map(|i| StateVector::decode_index(3, 11, 6 * first + i))
                        .collect(),
                )
                .build()
                .unwrap()
        };
        let executor = Executor::new();
        for first in 0..6 {
            executor.run(&make(first)).unwrap();
            let held = executor.results.stats().weight;
            assert!(held <= RESULT_CACHE_MAX_BYTES, "{held} bytes held");
            assert!(executor.result_cache_stats().entries >= 1);
        }
        assert!(executor.result_cache_stats().entries < 6);
        assert!(executor.cached_result(&make(0)).is_none());
        let simulated = executor.jobs_simulated();
        let hit = executor.run(&make(5)).unwrap();
        assert_eq!(executor.jobs_simulated(), simulated, "must be a hit");
        let fresh = Executor::with_result_cache(0).run(&make(5)).unwrap();
        let (hit, fresh) = (hit.states().unwrap(), fresh.states().unwrap());
        assert_eq!(hit.len(), fresh.len());
        for (a, b) in hit.iter().zip(fresh) {
            let (a, b) = (a.pure().unwrap(), b.pure().unwrap());
            assert!(
                a.amplitudes()
                    .iter()
                    .zip(b.amplitudes())
                    .all(|(x, y)| x.re.to_bits() == y.re.to_bits()
                        && x.im.to_bits() == y.im.to_bits())
            );
        }
    }
}
