//! Identifiability of non-neutral link sequences (§4.2).
//!
//! * **Lemma 2** — if System 4 for `τ` has no solution, `τ` is non-neutral.
//! * **Definition 2** — a non-neutral `τ` is *identifiable* when System 4 is
//!   unsolvable.
//! * **Lemma 3** — a sufficient structural condition: `τ` (non-neutral, top
//!   class `c_{n*}`) is identifiable when `Θ_τ` contains a path pair entirely
//!   inside some lower-priority class `c_n` and another pair not entirely
//!   inside `c_n`.

use crate::class::Classes;
use crate::obs::Observations;
use crate::perf::NetworkPerf;
use crate::slice::{normalization_group, Slice};
use nni_linalg::is_solvable;
use nni_topology::Topology;

/// Whether System 4 for this slice is unsolvable given exact observations —
/// by Lemma 2 this certifies that `τ` is non-neutral, and by Definition 2
/// that it is identifiable.
pub fn system4_unsolvable(
    topology: &Topology,
    slice: &Slice,
    obs: &impl Observations,
    tol: f64,
) -> bool {
    let group = normalization_group(topology, slice.tau());
    let y = obs.observe_all(&group, slice.theta());
    !is_solvable(&slice.routing_matrix(), &y, tol)
}

/// Lemma 3's sufficient condition, checked structurally.
///
/// `top_class` is the top-priority class `n*` of `τ` (from ground truth);
/// the condition needs a lower-priority class `c_n` (`n != n*`), one pair
/// `σ_i ⊆ c_n`, and one pair `σ_j ⊄ c_n`.
pub fn lemma3_condition(slice: &Slice, classes: &Classes, top_class: usize) -> bool {
    if slice.pair_count() < 2 {
        return false;
    }
    for n in 0..classes.count() {
        if n == top_class {
            continue;
        }
        let members = classes.members(n);
        let inside = |pair: &[nni_topology::PathId; 2]| pair.iter().all(|p| members.contains(p));
        let has_inside = slice.pairs().iter().any(inside);
        let has_outside = slice.pairs().iter().any(|p| !inside(p));
        if has_inside && has_outside {
            return true;
        }
    }
    false
}

/// Ground-truth helper: the top-priority class of a link sequence — the
/// class with the smallest summed performance number over `τ`'s links
/// (Equation 1).
pub fn seq_top_class(perf: &NetworkPerf, tau: &nni_topology::LinkSeq) -> usize {
    let mut best = 0;
    let mut best_x = f64::INFINITY;
    for n in 0..perf.class_count() {
        let x = perf.seq_perf(tau.links(), n);
        if x < best_x {
            best_x = x;
            best = n;
        }
    }
    best
}

/// Ground truth: is the link sequence non-neutral (contains a non-neutral
/// link, §2.3 "definition of network neutrality")?
pub fn seq_nonneutral(perf: &NetworkPerf, tau: &nni_topology::LinkSeq) -> bool {
    tau.links().iter().any(|&l| !perf.link(l).is_neutral())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Classes;
    use crate::equivalent::EquivalentNetwork;
    use crate::obs::ExactOracle;
    use crate::perf::LinkPerf;
    use crate::slice::slice_for;
    use nni_topology::library::{figure4, figure5};
    use nni_topology::LinkSeq;

    fn figure4_truth() -> (nni_topology::PaperTopology, Classes, NetworkPerf) {
        let t = figure4();
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let l2 = t.topology.link_by_name("l2").unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(l1, LinkPerf::per_class(vec![0.0, 0.4]))
            .with_link(l2, LinkPerf::per_class(vec![0.0, 0.2]));
        (t, classes, perf)
    }

    #[test]
    fn lemma3_holds_for_l1_in_figure4() {
        // §4.2: {p2,p4} is entirely in c2 while {p1,p4} is not → ⟨l1⟩
        // identifiable.
        let (t, classes, perf) = figure4_truth();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let s = slice_for(&t.topology, &LinkSeq::single(l1)).unwrap();
        let top = seq_top_class(&perf, s.tau());
        assert_eq!(top, 0);
        assert!(lemma3_condition(&s, &classes, top));
    }

    #[test]
    fn lemma3_implies_unsolvable_system4() {
        let (t, classes, perf) = figure4_truth();
        let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
        let l1 = t.topology.link_by_name("l1").unwrap();
        let s = slice_for(&t.topology, &LinkSeq::single(l1)).unwrap();
        assert!(system4_unsolvable(&t.topology, &s, &oracle, 1e-9));
    }

    #[test]
    fn neutral_tau_always_solvable() {
        // Lemma 2 contrapositive: a fully neutral network's System 4 must be
        // solvable for every slice.
        let t = figure4();
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let perf = NetworkPerf::neutral(&[0.1, 0.2, 0.3, 0.1, 0.05, 0.2], 2);
        let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
        for s in crate::slice::enumerate_slices(&t.topology) {
            assert!(
                !system4_unsolvable(&t.topology, &s, &oracle, 1e-9),
                "neutral slice {} flagged unsolvable",
                s.tau()
            );
        }
    }

    #[test]
    fn figure5_slice_unsolvable() {
        let t = figure5();
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(l1, LinkPerf::per_class(vec![0.0, (2.0_f64).ln()]));
        let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
        let s = slice_for(&t.topology, &LinkSeq::single(l1)).unwrap();
        assert!(lemma3_condition(&s, &classes, 0));
        assert!(system4_unsolvable(&t.topology, &s, &oracle, 1e-9));
    }

    #[test]
    fn lemma3_fails_with_single_pair() {
        let (t, classes, _perf) = figure4_truth();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let s = slice_for(&t.topology, &LinkSeq::single(l1)).unwrap();
        let reduced = Slice::new(s.tau().clone(), vec![s.pairs()[0]]);
        assert!(!lemma3_condition(&reduced, &classes, 0));
    }

    #[test]
    fn seq_helpers() {
        let (t, _classes, perf) = figure4_truth();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let l3 = t.topology.link_by_name("l3").unwrap();
        assert!(seq_nonneutral(&perf, &LinkSeq::single(l1)));
        assert!(!seq_nonneutral(&perf, &LinkSeq::single(l3)));
        assert_eq!(seq_top_class(&perf, &LinkSeq::single(l1)), 0);
    }
}
