//! # nni-scenario
//!
//! The topology-agnostic experiment layer: declare *what* to run —
//! any topology, any class partition, differentiation on any set of links,
//! per-path and background traffic, the measurement window — as a
//! [`Scenario`], compile it into a runnable [`Experiment`], and execute
//! batches through an [`Executor`].
//!
//! * [`spec`] — [`Scenario`], [`ScenarioBuilder`], validation (including
//!   mixed congestion-control fleets and per-link [`QueueOverride`]s).
//! * [`experiment`] — the compiled [`Experiment`] and its
//!   [`ExperimentOutcome`]. Acquisition and inference are decoupled:
//!   [`Experiment::simulate`] yields a serializable
//!   [`MeasurementSet`] (experiments are [`MeasurementSource`]s), and
//!   [`Experiment::run`] is the thin fused composition.
//! * [`infer`](mod@infer) — the inference half: [`infer()`]/[`infer_scored`]
//!   run Algorithm 1/2 over *any* measurement set (live, decoded from an
//!   on-disk [`Corpus`], or cached in a [`MeasurementCache`]) under an
//!   [`InferenceConfig`].
//! * [`stream`](mod@stream) — online inference: [`StreamingInference`]
//!   re-clusters on every closed interval over the same Algorithm 2
//!   engine (`nni_measure::SlidingCounts`) that [`infer()`] folds a whole
//!   log through, so its verdicts converge bit-identically to batch (the
//!   streaming guarantee, gated by `tests/streaming_convergence.rs` in
//!   `nni-live`).
//! * [`executor`] — [`SerialExecutor`] and [`ShardedExecutor`]: independent
//!   runs fan out across scoped threads with deterministic, input-order
//!   results. Identical scenarios produce bit-identical outcomes on either
//!   executor.
//! * [`proto`] — the worker wire protocol: a complete [`Scenario`] codec
//!   plus the checksummed job/result frames exchanged with `nni-worker`
//!   subprocesses.
//! * [`process`] — [`ProcessExecutor`]: the same batch contract fanned
//!   across worker *subprocesses*, with job timeouts, crash-respawn under
//!   exponential backoff, bounded retries, and quarantine of jobs that
//!   exhaust their budget ([`BatchOutcome`]) — the third leg of the
//!   serial/sharded/process identity gate.
//! * [`fault`] — [`FaultPlan`]: deterministic, seeded fault injection
//!   (hangs, crashes, torn frames, bit flips, poison jobs) shipped to
//!   workers through [`FAULT_PLAN_ENV`]; the chaos harness behind
//!   `tests/chaos.rs`.
//! * [`sweep`] — [`SweepSet`]: a named experiment family over one axis
//!   (seeds, policer rates, differentiation placements, CC fleets — and the
//!   inference-side axes [`SweepSet::decision_thresholds`] /
//!   [`SweepSet::cluster_configs`], which [`SweepSet::run_reinfer`] serves
//!   from one simulation per distinct measurement) that compiles into a
//!   batch and runs through any executor with one call.
//! * [`library`] — ready-made scenarios: the paper's topology A (Table 2)
//!   and topology B (§6.4) setups plus variants beyond Table 2
//!   (dual policers, asymmetric-RTT and mixed-CC neutral controls,
//!   buffer-depth variants, a policer-rate sweep).
//! * [`generate`] — [`ScenarioGen`]: seeded random-but-valid scenarios
//!   across every axis, powering the randomized invariant suite.
//! * [`audit`] — structural traffic-model audits
//!   ([`assert_demand_exceeds_policed_rate`]).
//! * [`baselines`] — adapters that feed the *same* scenario and run to the
//!   related-work baselines (boolean/loss tomography, Glasnost, NetPolice).
//!
//! ## Quick start
//!
//! ```
//! use nni_scenario::{library, Executor, ShardedExecutor, seed_sweep};
//!
//! // A Table 2 policing experiment on topology A …
//! let scenario = library::topology_a_scenario(library::ExperimentParams {
//!     mechanism: library::Mechanism::Policing(0.2),
//!     duration_s: 15.0,
//!     ..library::ExperimentParams::default()
//! });
//! // … fanned over seeds across worker threads, results in seed order.
//! let outcomes = ShardedExecutor::new(2).execute(&seed_sweep(&scenario, &[1, 2]));
//! assert_eq!(outcomes.len(), 2);
//! ```
//!
//! Sweeps are first-class: the same fan-out as a [`SweepSet`] keeps the
//! tick labels attached to the outcomes.
//!
//! ```
//! use nni_scenario::{library, SweepSet, SerialExecutor};
//!
//! let scenario = library::topology_a_scenario(library::ExperimentParams {
//!     duration_s: 4.0,
//!     ..library::ExperimentParams::default()
//! });
//! let set = SweepSet::over_seeds("seed sweep", &scenario, &[1, 2]);
//! let outcomes = set.run(&SerialExecutor);
//! assert_eq!(outcomes[1].tick, "seed 2");
//! ```

pub mod audit;
pub mod baselines;
pub mod executor;
pub mod experiment;
pub mod fault;
pub mod generate;
pub mod infer;
pub mod library;
mod memo;
pub mod process;
pub mod proto;
pub mod spec;
pub mod stream;
pub mod sweep;

pub use audit::{assert_demand_exceeds_policed_rate, policed_demand_report, DEMAND_MARGIN};
pub use executor::{compile_all, seed_sweep, Executor, SerialExecutor, ShardedExecutor};
pub use experiment::{simulation_count, Experiment, ExperimentOutcome};
pub use fault::{job_token, Fault, FaultPlan, FaultPlanParseError, FAULT_PLAN_ENV};
pub use generate::{GenConfig, LibraryTopologies, ScenarioGen, TopologySource};
pub use infer::{infer, infer_scored, InferenceConfig, InferenceOutcome};
pub use process::{
    default_worker_bin, BatchOutcome, ProcessError, ProcessExecutor, ProcessStats, Quarantined,
    WorkerFailure, WorkerTransport, DEFAULT_CONNECT_TIMEOUT_MS, DEFAULT_JOB_TIMEOUT_MS,
    DEFAULT_MAX_ATTEMPTS, WORKER_BIN_ENV,
};
pub use proto::{
    decode_scenario, encode_scenario, read_job, read_result, result_frame_bytes, write_job,
    write_result, JOB_MAGIC, RESULT_MAGIC,
};
pub use spec::{
    BackgroundTraffic, Expectation, MeasurementConfig, QueueOverride, Scenario, ScenarioBuilder,
    ScenarioError, DEFAULT_NORMALIZE_SALT,
};
pub use stream::StreamingInference;
pub use sweep::{reinfer_sets, run_sets, ReinferOutcome, SweepMember, SweepOutcome, SweepSet};
// The traffic description scenarios carry, defined once in the emulator.
pub use nni_emu::TrafficProfile;
// The dataset seam's types, re-exported so consumers of the experiment
// surface need only this crate.
pub use nni_measure::{
    Corpus, CorpusEntry, MeasurementCache, MeasurementSet, MeasurementSource, Provenance, SetKey,
    SourceError,
};
