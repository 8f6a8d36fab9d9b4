//! Observability of neutrality violations (§3).
//!
//! **Definition 1**: a violation is *observable* when some set of pathsets
//! makes System 3 unsolvable. **Theorem 1**: this happens iff the equivalent
//! neutral network contains a virtual link distinguishable from every
//! original link (with a non-zero performance delta so the unsolvability is
//! actually excited — the theorem's proof uses `x(n) − x(n*) ≠ 0`).
//!
//! Two independent deciders are provided:
//!
//! * [`theorem1`] — the structural condition (fast, no linear algebra);
//! * [`unsolvable_over_power_set`] — the brute-force oracle that literally
//!   searches for an unsolvable System 3 over `Θ = P*` (exponential, used to
//!   cross-validate the theorem on the paper's examples and in property
//!   tests).

use crate::class::Classes;
use crate::equivalent::EquivalentNetwork;
use crate::perf::NetworkPerf;
use crate::routing::routing_matrix;
use nni_linalg::is_solvable;
use nni_topology::{power_set, LinkId, Topology};

/// Why (or why not) a violation is observable.
#[derive(Debug, Clone)]
pub struct ObservabilityReport {
    /// Verdict of Theorem 1.
    pub observable: bool,
    /// The witnesses: regulation virtual links (origin link, regulated
    /// class) that are distinguishable from every original link.
    pub witnesses: Vec<(LinkId, usize)>,
}

/// Decides observability via the structural condition of Theorem 1.
pub fn theorem1(topology: &Topology, classes: &Classes, perf: &NetworkPerf) -> ObservabilityReport {
    let eq = EquivalentNetwork::build(topology, classes, perf);
    let mut witnesses = Vec::new();
    for v in eq.active_regulations() {
        // Distinguishable from *every* link of L: Paths(l+) != Paths(l) ∀ l.
        let masked = topology
            .link_ids()
            .any(|l| topology.paths_through(l) == v.paths.as_slice());
        if !masked {
            let class = match v.role {
                crate::equivalent::VirtualRole::Regulation { class } => class,
                _ => unreachable!("active_regulations yields regulations only"),
            };
            witnesses.push((v.origin, class));
        }
    }
    ObservabilityReport {
        observable: !witnesses.is_empty(),
        witnesses,
    }
}

/// Brute-force oracle: builds System 3 over the full power set `P*` with the
/// ground-truth observations `y = A⁺(P*) x⁺` and reports whether it is
/// unsolvable (Lemma 1 / Definition 1). Exponential in `|P|`.
pub fn unsolvable_over_power_set(
    topology: &Topology,
    classes: &Classes,
    perf: &NetworkPerf,
) -> bool {
    let n = topology.path_count();
    assert!(n <= 14, "power-set oracle limited to small path counts");
    let pathsets = power_set(n);
    let eq = EquivalentNetwork::build(topology, classes, perf);
    let y: Vec<f64> = pathsets.iter().map(|t| eq.pathset_perf(t)).collect();
    !is_solvable(&routing_matrix(topology, &pathsets), &y, 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::LinkPerf;
    use nni_linalg::rank_default;
    use nni_topology::library::{figure1, figure2, figure4, figure5, PaperTopology};

    fn two_class_truth(t: &PaperTopology, deltas: &[(&str, f64, f64)]) -> (Classes, NetworkPerf) {
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let mut perf = NetworkPerf::congestion_free(&t.topology, 2);
        for &(name, x1, x2) in deltas {
            let l = t.topology.link_by_name(name).unwrap();
            perf = perf.with_link(l, LinkPerf::per_class(vec![x1, x2]));
        }
        (classes, perf)
    }

    /// Lemma 4's premise: every pair of links is distinguishable.
    fn pairwise_distinguishable(t: &Topology) -> bool {
        let n = t.link_count();
        (0..n).all(|i| (i + 1..n).all(|j| t.distinguishable(LinkId(i), LinkId(j))))
    }

    #[test]
    fn figure1_violation_is_observable() {
        let t = figure1();
        let (classes, perf) = two_class_truth(&t, &[("l1", 0.0, 0.5)]);
        let r = theorem1(&t.topology, &classes, &perf);
        assert!(r.observable);
        // Witness: l1's regulation of class 2, {p2} ∩ Paths(l1) = {p2} —
        // traversed by p2 alone, but no original link is traversed by p2
        // alone (l1: {p1,p2}, l2: {p1}, l3: {p2,p3}, l4: {p3}).
        assert_eq!(
            r.witnesses,
            vec![(t.topology.link_by_name("l1").unwrap(), 1)]
        );
        assert!(unsolvable_over_power_set(&t.topology, &classes, &perf));
    }

    #[test]
    fn figure2_violation_is_not_observable() {
        // §3.3 non-observable: l1+(2) is indistinguishable from l3.
        let t = figure2();
        let (classes, perf) = two_class_truth(&t, &[("l1", 0.0, 0.5)]);
        let r = theorem1(&t.topology, &classes, &perf);
        assert!(!r.observable);
        assert!(!unsolvable_over_power_set(&t.topology, &classes, &perf));
    }

    #[test]
    fn figure4_violation_is_observable() {
        let t = figure4();
        let (classes, perf) = two_class_truth(&t, &[("l1", 0.0, 0.4), ("l2", 0.1, 0.3)]);
        let r = theorem1(&t.topology, &classes, &perf);
        assert!(r.observable);
        assert!(unsolvable_over_power_set(&t.topology, &classes, &perf));
    }

    #[test]
    fn figure5_violation_is_observable() {
        let t = figure5();
        let (classes, perf) = two_class_truth(&t, &[("l1", 0.0, (2.0_f64).ln())]);
        let r = theorem1(&t.topology, &classes, &perf);
        assert!(r.observable, "observable violation #2 of §3.3");
        assert!(unsolvable_over_power_set(&t.topology, &classes, &perf));
    }

    #[test]
    fn neutral_network_never_observable() {
        for t in [figure1(), figure2(), figure4(), figure5()] {
            let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
            let perf = NetworkPerf::neutral(&vec![0.1; t.topology.link_count()], classes.count());
            assert!(!theorem1(&t.topology, &classes, &perf).observable);
            assert!(!unsolvable_over_power_set(&t.topology, &classes, &perf));
        }
    }

    #[test]
    fn zero_delta_regulation_is_not_a_witness() {
        // l1 "non-neutral" with x(2) == x(1): behaviourally neutral, so no
        // witness and no unsolvable system even though the structure would
        // allow one.
        let t = figure5();
        let (classes, perf) = two_class_truth(&t, &[("l1", 0.2, 0.2)]);
        assert!(!theorem1(&t.topology, &classes, &perf).observable);
        assert!(!unsolvable_over_power_set(&t.topology, &classes, &perf));
    }

    #[test]
    fn lemma4_full_column_rank_when_distinguishable() {
        // Figure 1: all four links pairwise distinguishable → A(P*) has full
        // column rank.
        let t = figure1();
        assert!(pairwise_distinguishable(&t.topology));
        let pathsets = nni_topology::power_set(t.topology.path_count());
        let a = routing_matrix(&t.topology, &pathsets);
        assert_eq!(rank_default(&a), t.topology.link_count());
    }

    #[test]
    fn lemma4_rank_deficient_when_indistinguishable() {
        // Figure 4's original network: l1 and l2 are indistinguishable?
        // Paths(l1) = {p1..p4}, Paths(l2) = {p1,p2,p3} — distinguishable.
        // Build an artificial case: a 2-link chain traversed by one path.
        let mut b = nni_topology::TopologyBuilder::new();
        let h0 = b.host("h0");
        let r = b.relay("r");
        let h1 = b.host("h1");
        let l0 = b.link("l0", h0, r).unwrap();
        let l1 = b.link("l1", r, h1).unwrap();
        b.path("p0", vec![l0, l1]).unwrap();
        let t = b.build();
        assert!(!pairwise_distinguishable(&t));
        let a = routing_matrix(&t, &nni_topology::power_set(1));
        assert!(rank_default(&a) < t.link_count());
    }
}
