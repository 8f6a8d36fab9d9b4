//! # nni-bench
//!
//! Experiment regenerators for every table and figure of the paper's
//! evaluation (§6). Everything runs on the `nni-scenario` API: the sweeps
//! here are
//! [`SweepSet`]s, and any
//! [`Executor`](nni_scenario::Executor) — serial or sharded — runs them
//! (whole sweeps batch through [`nni_scenario::run_sets`] in one call).
//!
//! Binaries (`cargo run -p nni-bench --release --bin <name>`):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `exp_fig8` | Table 2 + Figure 8(a–i): nine experiment sets on topology A |
//! | `exp_fig10` | Table 3 + Figure 10(a, b) + FN/FP/granularity on topology B |
//! | `exp_fig11` | Figure 11: queue occupancy of neutral `l13` vs policing `l14` |
//! | `exp_theory` | Figures 1–6: observability / identifiability worked examples |
//! | `exp_robustness` | §6.5 sweep: loss thresholds × measurement intervals |
//! | `exp_baselines` | Ablation: Algorithm 1 vs boolean/loss tomography vs Glasnost vs NetPolice |
//! | `exp_sweeps` | Beyond-Table-2 sweep sets: topology-B policer-rate sweep, CC-fleet mix, mixed-CC neutral seeds, a cached decision-threshold re-inference sweep |
//! | `exp_corpus` | Record / replay / re-infer on-disk measurement corpora (the `MeasurementSet` seam as a CLI) |
//!
//! The sweep binaries accept `--executor serial|sharded` and `--workers N`;
//! sharded runs are guaranteed to produce results identical to serial runs,
//! seed for seed (see `nni_scenario::executor`).

pub mod cli;
pub mod expsets;
pub mod table;
pub mod topob;

pub use cli::{ExpArgs, ExpCaps};
pub use expsets::table2_sets;
// Re-exported so harness code keeps one import path for the experiment
// surface; the types live in `nni-scenario`.
pub use nni_scenario::library::{
    topology_a_classes, topology_a_paths, ExperimentParams, Mechanism,
};
pub use nni_scenario::{ExperimentOutcome, SweepSet};
pub use table::Table;
pub use topob::{run_topology_b, TopologyBOutcome, TopologyBParams};
