//! # netneutrality
//!
//! A Rust reproduction of **"Network Neutrality Inference"** (Zhiyong Zhang,
//! Ovidiu Mara, Katerina Argyraki — SIGCOMM 2014): detect and localize
//! traffic differentiation from external (end-to-end) observations only.
//!
//! Where classic network tomography *assumes* the network is neutral and
//! forms **solvable** systems `y = A(Θ)·x` to infer link properties, this
//! library hunts for **unsolvable** systems: if observations taken from
//! different vantage points cannot be explained by any per-link performance
//! assignment, some link is treating traffic from different paths
//! differently — and carefully chosen "network slices" localize the
//! violation to specific link sequences.
//!
//! ## Crates
//!
//! | Facade module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `nni-core` | Equivalent neutral networks (§3.2), Theorem 1 observability, slices + System 4 (§4), Algorithm 1 (§5), metrics |
//! | [`topology`] | `nni-topology` | The graph model `G = (V, L, P)` and every paper topology |
//! | [`measure`] | `nni-measure` | Algorithm 2: normalization, loss thresholds, pathset performance numbers |
//! | [`emu`] | `nni-emu` | Deterministic packet-level emulator: drop-tail queues, policers, shapers, NewReno/CUBIC TCP |
//! | [`scenario`] | `nni-scenario` | Topology-agnostic Scenario API: declarative experiments, serial / sharded / process executors, baseline adapters |
//! | [`topogen`] | `nni-topogen` | Seeded ISP-like topology generation (access/aggregation/core tiers), noise models, video/web traffic shapes |
//! | [`service`] | `nni-service` | Distributed execution: `nni-worker` subprocesses, the `nni-serviced` spool daemon, `nni-servicectl` |
//! | [`live`] | `nni-live` | Online inference: `nni-live` tails a growing corpus, re-clustering per closed interval with multi-vantage merge |
//! | [`tomography`] | `nni-tomography` | Related-work baselines (boolean tomography, loss tomography, Glasnost-style) |
//! | [`stats`] | `nni-stats` | Two-cluster classification, five-number summaries, Pareto/exponential samplers |
//! | [`linalg`] | `nni-linalg` | Rank / RREF / least squares for the solvability tests |
//!
//! ## Quickstart
//!
//! ```
//! use netneutrality::core::{
//!     identify, Classes, Config, EquivalentNetwork, ExactOracle, LinkPerf, NetworkPerf,
//! };
//! use netneutrality::topology::library::figure5;
//!
//! // Figure 5 of the paper: shared link l1 congests class-2 traffic with
//! // probability 0.5 while class-1 rides free.
//! let t = figure5();
//! let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
//! let l1 = t.topology.link_by_name("l1").unwrap();
//! let perf = NetworkPerf::congestion_free(&t.topology, 2)
//!     .with_link(l1, LinkPerf::per_class(vec![0.0, (2.0_f64).ln()]));
//!
//! // Exact-mode oracle (ground truth) and Algorithm 1.
//! let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
//! let result = identify(&t.topology, &oracle, Config::exact());
//! assert!(result.network_is_nonneutral());
//! assert!(result.nonneutral[0].contains(l1));
//!
//! // Every analyzed slice explains itself: its pair estimates of x_τ and
//! // their spread, the unsolvability.
//! let v = result.verdicts().find(|v| v.tau.contains(l1)).unwrap();
//! assert!(v.nonneutral);
//! assert_eq!(v.estimates.len(), v.pairs.len());
//! assert!((v.unsolvability - (2.0_f64).ln()).abs() < 1e-9);
//! ```
//!
//! See `examples/` for end-to-end scenarios with the packet-level emulator,
//! and `crates/bench/src/bin/` for the regenerators of every table and
//! figure of the paper.

pub use nni_core as core;
pub use nni_emu as emu;
pub use nni_linalg as linalg;
pub use nni_live as live;
pub use nni_measure as measure;
pub use nni_scenario as scenario;
pub use nni_service as service;
pub use nni_stats as stats;
pub use nni_tomography as tomography;
pub use nni_topogen as topogen;
pub use nni_topology as topology;
