//! Property-based tests for the inference core.

use nni_core::{
    enumerate_slices, identify, identify_scores, remove_redundant, routing_matrix, theorem1,
    unsolvable_over_power_set, Classes, Config, DecisionMode, EquivalentNetwork, ExactOracle, Fnv,
    IdentifyPlan, InferenceResult, LinkPerf, NetworkPerf, Observations,
};
use nni_linalg::{analyze, default_tolerance};
use nni_stats::{two_means, SeparationGuard};
use nni_topology::library::{dumbbell, figure4, figure5, parking_lot, topology_b};
use nni_topology::{LinkId, LinkSeq, PathId, PathSet};
use proptest::prelude::*;

/// Strategy: a dumbbell topology with 1–4 paths per class.
fn dumbbell_strategy() -> impl Strategy<Value = nni_topology::PaperTopology> {
    (1usize..=4, 1usize..=4).prop_map(|(a, b)| dumbbell(a, b))
}

/// Reference model of redundancy removal: the original candidate-list
/// definition, one `LinkSeq` union per candidate.
fn remove_redundant_reference(nonneutral: &[LinkSeq], neutral: &[LinkSeq]) -> Vec<LinkSeq> {
    nonneutral
        .iter()
        .filter(|tau| {
            let candidates: Vec<&LinkSeq> = nonneutral
                .iter()
                .filter(|t| *t != *tau && t.is_subset_of(tau))
                .chain(neutral.iter().filter(|t| t.is_subset_of(tau)))
                .collect();
            let has_nonneutral = candidates.iter().any(|t| nonneutral.contains(t));
            if !has_nonneutral {
                return true;
            }
            let mut union = LinkSeq::new(Vec::new());
            for c in &candidates {
                union = union.union(c);
            }
            union != **tau
        })
        .cloned()
        .collect()
}

/// The reference decision half's per-pair estimate.
#[derive(Debug, Clone, PartialEq)]
struct RefPairEstimate {
    pair: (PathId, PathId),
    estimate: f64,
}

/// The reference decision half's analysis of one slice.
#[derive(Debug, Clone, PartialEq)]
struct RefVerdict {
    tau: LinkSeq,
    estimates: Vec<RefPairEstimate>,
    unsolvability: f64,
    nonneutral: bool,
}

/// The reference decision half's result: every slice's verdict and the
/// three sequence lists, each owned.
#[derive(Debug, Clone, PartialEq)]
struct RefResult {
    verdicts: Vec<RefVerdict>,
    nonneutral_raw: Vec<LinkSeq>,
    nonneutral: Vec<LinkSeq>,
    neutral: Vec<LinkSeq>,
}

impl RefResult {
    /// FNV-1a over every field in order, as `InferenceResult::fingerprint`
    /// is defined: each count, id and flag as its u64's 8 little-endian
    /// bytes, each f64 as its bit pattern's, folded one canonical
    /// `Fnv::byte` step at a time (no word shortcut).
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        let word = |h: &mut Fnv, w: u64| w.to_le_bytes().into_iter().for_each(|b| h.byte(b));
        let seq = |h: &mut Fnv, s: &LinkSeq| {
            word(h, s.len() as u64);
            for &l in s.links() {
                word(h, l.index() as u64);
            }
        };
        word(&mut h, self.verdicts.len() as u64);
        for v in &self.verdicts {
            seq(&mut h, &v.tau);
            word(&mut h, v.estimates.len() as u64);
            for e in &v.estimates {
                word(&mut h, e.pair.0.index() as u64);
                word(&mut h, e.pair.1.index() as u64);
                word(&mut h, e.estimate.to_bits());
            }
            word(&mut h, v.unsolvability.to_bits());
            word(&mut h, v.nonneutral as u64);
        }
        for list in [&self.nonneutral_raw, &self.nonneutral, &self.neutral] {
            word(&mut h, list.len() as u64);
            for s in list {
                seq(&mut h, s);
            }
        }
        h.0
    }

    /// Whether `got`'s views hold exactly these fields, f64s compared by
    /// `==`.
    fn matches(&self, got: &InferenceResult) -> bool {
        got.verdicts().len() == self.verdicts.len()
            && got.verdicts().zip(&self.verdicts).all(|(g, w)| {
                *g.tau == w.tau
                    && g.pairs.len() == w.estimates.len()
                    && g.pairs
                        .iter()
                        .zip(g.estimates)
                        .zip(&w.estimates)
                        .all(|((&[a, b], &e), want)| (a, b) == want.pair && e == want.estimate)
                    && g.unsolvability == w.unsolvability
                    && g.nonneutral == w.nonneutral
            })
            && got.nonneutral_raw().eq(&self.nonneutral_raw)
            && got.nonneutral == self.nonneutral
            && got.neutral().eq(&self.neutral)
    }
}

/// Reference model of Algorithm 1's decision half: two passes per slice
/// (estimates, then their spread) and the median |estimate| taken by a
/// full sort for every slice, whether or not it can decide.
fn identify_scores_reference(plan: &IdentifyPlan, ys: &[Vec<f64>], cfg: Config) -> RefResult {
    let mut verdicts: Vec<RefVerdict> = Vec::new();
    for (s, y) in plan.slices().iter().zip(ys) {
        let pair_estimates = s.pair_estimates(y);
        let max = pair_estimates
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = pair_estimates.iter().cloned().fold(f64::INFINITY, f64::min);
        let nonneutral = match cfg.mode {
            DecisionMode::Exact { tol } => {
                let a = s.routing_matrix();
                let tol = tol.max(default_tolerance(&a.augment_col(y)));
                !analyze(&a, y, tol).is_consistent()
            }
            DecisionMode::Clustered { .. } => false,
        };
        verdicts.push(RefVerdict {
            tau: s.tau().clone(),
            estimates: s
                .pairs()
                .iter()
                .zip(pair_estimates)
                .map(|(&[a, b], estimate)| RefPairEstimate {
                    pair: (a, b),
                    estimate,
                })
                .collect(),
            unsolvability: (max - min).max(0.0),
            nonneutral,
        });
    }
    if let DecisionMode::Clustered {
        guard,
        abs_threshold,
        rel_margin,
    } = cfg.mode
    {
        let scores: Vec<f64> = verdicts.iter().map(|v| v.unsolvability).collect();
        let clusters = two_means(&scores, guard);
        for (v, &high) in verdicts.iter_mut().zip(&clusters.high) {
            let mut mags: Vec<f64> = v.estimates.iter().map(|e| e.estimate.abs()).collect();
            mags.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
            let median = if mags.is_empty() {
                0.0
            } else {
                mags[mags.len() / 2]
            };
            let floor = abs_threshold.max(rel_margin * median);
            v.nonneutral = high || v.unsolvability > floor;
        }
    }
    let pick = |nonneutral: bool| -> Vec<LinkSeq> {
        verdicts
            .iter()
            .filter(|v| v.nonneutral == nonneutral)
            .map(|v| v.tau.clone())
            .collect()
    };
    let (nonneutral_raw, neutral) = (pick(true), pick(false));
    let nonneutral = remove_redundant_reference(&nonneutral_raw, &neutral);
    RefResult {
        verdicts,
        nonneutral_raw,
        nonneutral,
        neutral,
    }
}

/// SplitMix64: a seeded stream for observation vectors too long to draw
/// value by value.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
                        s.pairs().contains(&[paths[i].id(), paths[j].id()])
                    })
                    .collect();
                prop_assert_eq!(hosting.len(), 1, "pair must be in exactly one slice");
                prop_assert_eq!(hosting[0].tau(), &shared);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Redundancy removal equals its reference model on lists that hold
    /// duplicates, entries present in both lists, empty sequences and
    /// empty lists, over link ids 0..=200 that span four 64-bit words.
    #[test]
    fn redundancy_removal_matches_reference(
        aligned in prop::collection::vec((0usize..=3, prop::sample::select(vec![0, 8])), 0..=6),
        scattered in prop::collection::vec(0usize..=200, 0..=2),
        pool_bits in prop::collection::vec(0u8..=255, 1..=8),
        nonneutral_at in prop::collection::vec(0usize..8, 0..=10),
        neutral_at in prop::collection::vec(0usize..8, 0..=10),
    ) {
        // A small pool of subsets of a few links, so subsets, covers and
        // repeats are common. Most links share their bit position with a
        // link in another word, so a wrong word index changes the answer.
        let universe: Vec<usize> =
            aligned.iter().map(|&(w, b)| w * 64 + b).chain(scattered).collect();
        let pool: Vec<LinkSeq> = pool_bits
            .iter()
            .map(|&bits| {
                LinkSeq::new(
                    universe
                        .iter()
                        .enumerate()
                        .filter(|&(b, _)| bits >> b & 1 == 1)
                        .map(|(_, &l)| LinkId(l))
                        .collect(),
                )
            })
            .collect();
        let nonneutral: Vec<LinkSeq> =
            nonneutral_at.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        let neutral: Vec<LinkSeq> =
            neutral_at.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        prop_assert_eq!(
            remove_redundant(&nonneutral, &neutral),
            remove_redundant_reference(&nonneutral, &neutral)
        );
    }

    /// The one-pass decision half equals the always-median reference on
    /// library plans, bit for bit. Observations are multiples of 1/16 in
    /// [-0.25, 1], so estimates are exact, ties are common, and some are
    /// negative; `abs_threshold` is often exactly one slice's spread.
    #[test]
    fn identify_scores_matches_reference(
        topology in 0usize..3,
        min_pairs in 1usize..=2,
        seed in 0u64..u64::MAX,
        mode_draw in 0u32..20,
        guard_off in prop::bool::ANY,
        at_spread in (prop::bool::ANY, 0usize..1000),
        abs_threshold in 0.0..0.8f64,
        rel_margin in prop::sample::select(vec![0.0, 0.5, 1.0, 1.5, 4.0]),
    ) {
        let t = [figure4, figure5, topology_b][topology]();
        let plan = IdentifyPlan::new(&t.topology, &Config { min_pairs, ..Config::exact() });
        let mut state = seed;
        let ys: Vec<Vec<f64>> = plan
            .slices()
            .iter()
            .map(|s| {
                (0..s.pathset_count())
                    .map(|_| (splitmix(&mut state) % 21) as f64 / 16.0 - 0.25)
                    .collect()
            })
            .collect();
        let abs_threshold = match at_spread {
            (true, i) => {
                let i = i % plan.slices().len();
                plan.slices()[i].unsolvability(&ys[i])
            }
            (false, _) => abs_threshold,
        };
        let mode = if mode_draw < 3 {
            DecisionMode::Exact { tol: 1e-9 }
        } else {
            DecisionMode::Clustered {
                guard: if guard_off { SeparationGuard::off() } else { SeparationGuard::default() },
                abs_threshold,
                rel_margin,
            }
        };
        let cfg = Config { min_pairs, mode };
        let got = identify_scores(&plan, &ys, cfg);
        let want = identify_scores_reference(&plan, &ys, cfg);
        prop_assert_eq!(got.fingerprint(), want.fingerprint());
        prop_assert!(want.matches(&got), "{:?} != {:?}", got, want);
    }
}
