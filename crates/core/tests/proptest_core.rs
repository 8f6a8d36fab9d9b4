//! Property-based tests for the inference core.

use nni_core::{
    enumerate_slices, identify, remove_redundant, routing_matrix, theorem1,
    unsolvable_over_power_set, Classes, Config, EquivalentNetwork, ExactOracle, LinkPerf,
    NetworkPerf, Observations,
};
use nni_topology::library::{dumbbell, parking_lot};
use nni_topology::{LinkId, LinkSeq, PathSet};
use proptest::prelude::*;

/// Strategy: a dumbbell topology with 1–4 paths per class.
fn dumbbell_strategy() -> impl Strategy<Value = nni_topology::PaperTopology> {
    (1usize..=4, 1usize..=4).prop_map(|(a, b)| dumbbell(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A neutral network never yields an unsolvable slice system (Lemma 2's
    /// contrapositive), whatever the topology and link numbers.
    #[test]
    fn neutral_networks_are_never_accused(
        t in dumbbell_strategy(),
        seed_xs in prop::collection::vec(0.0..0.5f64, 17..=24),
    ) {
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let xs = &seed_xs[..t.topology.link_count()];
        let perf = NetworkPerf::neutral(xs, classes.count());
        let oracle = ExactOracle::new(
            EquivalentNetwork::build(&t.topology, &classes, &perf));
        let result = identify(&t.topology, &oracle, Config::exact());
        prop_assert!(result.nonneutral.is_empty());
        // And the whole network is unobservably neutral.
        prop_assert!(!theorem1(&t.topology, &classes, &perf).observable);
    }

    /// Theorem 1 agrees with the brute-force power-set oracle on dumbbells
    /// with an arbitrary differentiated shared link.
    #[test]
    fn theorem1_agrees_with_brute_force(
        n1 in 1usize..=2,
        n2 in 1usize..=2,
        x1 in 0.0..0.3f64,
        delta in 0.01..0.5f64,
    ) {
        let t = dumbbell(n1, n2);
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let shared = t.nonneutral_links[0];
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(shared, LinkPerf::per_class(vec![x1, x1 + delta]));
        let th = theorem1(&t.topology, &classes, &perf).observable;
        let brute = unsolvable_over_power_set(&t.topology, &classes, &perf);
        prop_assert_eq!(th, brute);
    }

    /// The exact oracle is additive over the equivalent network: the routing
    /// matrix product reproduces pathset_perf for arbitrary pathsets.
    #[test]
    fn oracle_matches_routing_product(
        t in dumbbell_strategy(),
        x1 in 0.0..0.3f64,
        delta in 0.0..0.5f64,
    ) {
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let shared = t.nonneutral_links[0];
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(shared, LinkPerf::per_class(vec![x1, x1 + delta]));
        let eq = EquivalentNetwork::build(&t.topology, &classes, &perf);
        let pathsets: Vec<PathSet> =
            t.topology.path_ids().map(PathSet::single).collect();
        let a = eq.routing_matrix(&pathsets);
        let y = a.matvec(&eq.perf_vector());
        for (i, p) in pathsets.iter().enumerate() {
            prop_assert!((eq.pathset_perf(p) - y[i]).abs() < 1e-9);
        }
    }

    /// Slice enumeration is complete and sound: every pair of paths with a
    /// shared link lands in exactly one slice, keyed by the shared set.
    #[test]
    fn slices_partition_path_pairs(segments in 2usize..=8) {
        let t = parking_lot(segments);
        let slices = enumerate_slices(&t.topology);
        let paths = t.topology.paths();
        let mut pair_count = 0usize;
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                let shared = paths[i].shared_links(&paths[j]);
                if shared.is_empty() {
                    continue;
                }
                pair_count += 1;
                let hosting: Vec<_> = slices
                    .iter()
                    .filter(|s| {
                        s.pairs.contains(&[paths[i].id(), paths[j].id()])
                    })
                    .collect();
                prop_assert_eq!(hosting.len(), 1, "pair must be in exactly one slice");
                prop_assert_eq!(&hosting[0].tau, &shared);
            }
        }
        let total: usize = slices.iter().map(|s| s.pair_count()).sum();
        prop_assert_eq!(total, pair_count);
    }

    /// Redundancy removal returns a subset and never removes a sequence that
    /// is not covered by the union of its classified subsets.
    #[test]
    fn redundancy_removal_is_sound(
        seq_bits in prop::collection::vec(1u8..=7, 1..6),
        neutral_bits in prop::collection::vec(1u8..=7, 0..4),
    ) {
        let to_seq = |bits: u8| {
            LinkSeq::new(
                (0..3).filter(|b| bits & (1 << b) != 0).map(LinkId).collect())
        };
        let nonneutral: Vec<LinkSeq> = seq_bits.iter().map(|&b| to_seq(b)).collect();
        let neutral: Vec<LinkSeq> = neutral_bits.iter().map(|&b| to_seq(b)).collect();
        let kept = remove_redundant(&nonneutral, &neutral);
        // Subset property.
        for k in &kept {
            prop_assert!(nonneutral.contains(k));
        }
        // Every removed sequence is genuinely covered.
        for tau in &nonneutral {
            if kept.contains(tau) {
                continue;
            }
            let candidates: Vec<&LinkSeq> = nonneutral
                .iter()
                .filter(|t| *t != tau && t.is_subset_of(tau))
                .chain(neutral.iter().filter(|t| t.is_subset_of(tau)))
                .collect();
            let mut union = LinkSeq::new(vec![]);
            for c in &candidates {
                union = union.union(c);
            }
            prop_assert_eq!(&union, tau, "removed sequence must be covered");
            prop_assert!(candidates.iter().any(|c| nonneutral.contains(c)));
        }
    }

    /// The routing matrix of singleton pathsets has exactly one 1 per
    /// link-of-path, and pathset rows are unions of singleton rows.
    #[test]
    fn routing_matrix_row_structure(t in dumbbell_strategy()) {
        let g = &t.topology;
        let singles: Vec<PathSet> = g.path_ids().map(PathSet::single).collect();
        let a = routing_matrix(g, &singles);
        for (i, p) in g.paths().iter().enumerate() {
            let ones: usize = (0..g.link_count())
                .filter(|&k| a[(i, k)] == 1.0)
                .count();
            prop_assert_eq!(ones, p.links().len());
        }
    }

    /// Observation sources are consistent: observe_all equals per-pathset
    /// queries.
    #[test]
    fn observe_all_matches_pointwise(t in dumbbell_strategy(), delta in 0.0..0.4f64) {
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let shared = t.nonneutral_links[0];
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(shared, LinkPerf::per_class(vec![0.0, delta]));
        let oracle = ExactOracle::new(
            EquivalentNetwork::build(&t.topology, &classes, &perf));
        let pathsets: Vec<PathSet> = t.topology.path_ids().map(PathSet::single).collect();
        let group: Vec<_> = t.topology.path_ids().collect();
        let all = oracle.observe_all(&group, &pathsets);
        for (i, p) in pathsets.iter().enumerate() {
            prop_assert_eq!(all[i], oracle.pathset_perf(&group, p));
        }
    }
}
