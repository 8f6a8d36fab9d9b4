//! # nni-core
//!
//! The primary contribution of *Network Neutrality Inference* (Zhang, Mara,
//! Argyraki — SIGCOMM 2014): detecting and localizing traffic
//! differentiation from external observations by hunting for **unsolvable**
//! systems of equations, where classic tomography hunts for solvable ones.
//!
//! Map from paper to module:
//!
//! | Paper | Module |
//! |---|---|
//! | §2.3 performance classes | [`class`] |
//! | §2.3 performance numbers / metric | [`perf`] |
//! | §2.3 generalized routing matrix, System 3 | [`routing`] |
//! | §3.2 equivalent neutral network `G⁺` | [`equivalent`] |
//! | §3.3 Theorem 1 (observability) | [`observability`] |
//! | §4.1 network slices, System 4 | [`slice`](mod@slice) |
//! | §4.2 Lemmas 2–3 (identifiability) | [`identifiability`] |
//! | §5 Algorithm 1 + redundancy removal | [`algorithm`] |
//! | §5 FN / FP / granularity metrics | [`metrics`] |
//! | observation sources (oracle vs measured) | [`obs`] |
//! | joint loss+delay feature definitions (beyond the paper) | [`features`] |
//!
//! ## Quick start
//!
//! ```
//! use nni_core::{Classes, Config, EquivalentNetwork, ExactOracle, identify,
//!                LinkPerf, NetworkPerf};
//! use nni_topology::library::figure5;
//!
//! // Figure 5 of the paper: link l1 congests class-2 traffic w.p. 0.5.
//! let t = figure5();
//! let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
//! let l1 = t.topology.link_by_name("l1").unwrap();
//! let perf = NetworkPerf::congestion_free(&t.topology, 2)
//!     .with_link(l1, LinkPerf::per_class(vec![0.0, (2.0_f64).ln()]));
//!
//! let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
//! let result = identify(&t.topology, &oracle, Config::exact());
//! assert!(result.network_is_nonneutral());
//! ```

pub mod algorithm;
pub mod class;
pub mod equivalent;
pub mod features;
pub mod fnv;
pub mod identifiability;
pub mod metrics;
pub mod obs;
pub mod observability;
pub mod perf;
pub mod routing;
pub mod slice;

pub use algorithm::{
    identify, identify_scores, remove_redundant, Config, DecisionMode, IdentifyPlan,
    InferenceResult, SliceScores, SliceVerdict,
};
pub use class::{ClassError, Classes};
pub use equivalent::{EquivalentNetwork, VirtualLink, VirtualRole};
pub use features::DelayFeature;
pub use fnv::Fnv;
pub use identifiability::{lemma3_condition, seq_nonneutral, seq_top_class, system4_unsolvable};
pub use metrics::{evaluate, Quality};
pub use obs::{ExactOracle, Observations};
pub use observability::{theorem1, unsolvable_over_power_set, ObservabilityReport};
pub use perf::{perf_from_prob, prob_from_perf, LinkPerf, NetworkPerf};
pub use routing::{neutral_predictions, routing_matrix};
pub use slice::{enumerate_slices, normalization_group, slice_for, Slice};
