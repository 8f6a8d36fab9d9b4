//! The topology B experiment (§6.4, Figures 9–11, Table 3), on the
//! [`Scenario`] API.
//!
//! The network wiring, traffic, and policer placement live in
//! [`nni_scenario::library::topology_b_scenario`]; this module derives the
//! figure-specific views (per-link per-class congestion, class-tagged pair
//! estimates, queue traces) from the generic [`ExperimentOutcome`].

use nni_core::{InferenceResult, Quality};
use nni_emu::QueueTrace;
use nni_scenario::library::topology_b_scenario;
pub use nni_scenario::library::TopologyBParams;
use nni_scenario::{ExperimentOutcome, Scenario};
use nni_topology::library::PaperTopology;
use nni_topology::PathId;

/// Per-pair estimate annotated with the pair's class membership (the basis
/// of Figure 10(b)'s paired boxplots).
#[derive(Debug, Clone)]
pub struct TaggedEstimate {
    /// The pair.
    pub pair: (PathId, PathId),
    /// Estimate of `x_τ`.
    pub estimate: f64,
    /// `Some(n)` when both paths are in class `n`; `None` for mixed pairs
    /// (which by Equation 20 estimate the top class's number).
    pub pure_class: Option<usize>,
}

/// Outcome of the topology B experiment.
pub struct TopologyBOutcome {
    /// The topology (for link naming in reports).
    pub paper: PaperTopology,
    /// Ground-truth per-link per-class congestion probabilities (Fig 10a).
    pub link_congestion: Vec<[f64; 2]>,
    /// Inference result.
    pub inference: InferenceResult,
    /// Per-slice estimates tagged by pair class (Fig 10b).
    pub tagged_estimates: Vec<(nni_topology::LinkSeq, Vec<TaggedEstimate>, bool)>,
    /// Quality metrics vs the ground-truth policers.
    pub quality: Quality,
    /// Queue traces of `l13` (neutral) and `l14` (policer) — Figure 11.
    pub trace_l13: QueueTrace,
    /// See `trace_l13`.
    pub trace_l14: QueueTrace,
    /// Raw simulation report.
    pub report: nni_emu::SimReport,
}

/// Runs the topology B experiment end to end.
pub fn run_topology_b(p: TopologyBParams) -> TopologyBOutcome {
    let scenario = topology_b_scenario(p);
    let outcome = scenario.run();
    derive_outcome(&scenario, outcome)
}

/// Derives the Figure 10/11 views from a generic topology-B outcome. Works
/// for any scenario over the topology-B graph (e.g. the library's
/// dual-policer variant).
pub fn derive_outcome(scenario: &Scenario, out: ExperimentOutcome) -> TopologyBOutcome {
    let paper = PaperTopology {
        topology: scenario.topology.clone(),
        classes: scenario.classes.clone(),
        nonneutral_links: scenario.expectation.nonneutral_links.clone(),
    };
    let g = &paper.topology;
    let thr = scenario.measurement.loss_threshold;

    // Figure 10(a): ground-truth congestion probability per link per class.
    let link_congestion: Vec<[f64; 2]> = g
        .link_ids()
        .map(|l| {
            [
                out.report.link_truth.congestion_probability(l, 0, thr),
                out.report.link_truth.congestion_probability(l, 1, thr),
            ]
        })
        .collect();

    // Figure 10(b): tag each slice's per-pair estimates by pair class.
    let c1 = &paper.classes[0];
    let c2 = &paper.classes[1];
    let tagged_estimates: Vec<_> = out
        .inference
        .verdicts()
        .map(|v| {
            let tags: Vec<TaggedEstimate> = v
                .pairs
                .iter()
                .zip(v.estimates)
                .map(|(&[a, b], &estimate)| {
                    let pure_class = if c1.contains(&a) && c1.contains(&b) {
                        Some(0)
                    } else if c2.contains(&a) && c2.contains(&b) {
                        Some(1)
                    } else {
                        None
                    };
                    TaggedEstimate {
                        pair: (a, b),
                        estimate,
                        pure_class,
                    }
                })
                .collect();
            (v.tau.clone(), tags, v.nonneutral)
        })
        .collect();

    let trace_of = |name: &str| out.report.queue_traces[paper.link_named(name).index()].clone();
    TopologyBOutcome {
        link_congestion,
        tagged_estimates,
        quality: out.quality,
        trace_l13: trace_of("l13"),
        trace_l14: trace_of("l14"),
        inference: out.inference,
        report: out.report,
        paper,
    }
}
