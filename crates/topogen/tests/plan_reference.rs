//! The slice plan at ISP scale against the pairwise reference.
//!
//! `enumerate_slices` groups path pairs by the AND of per-path link bitsets
//! (`⌈L/64⌉` words per path). The generated `isp_200link` hierarchy has 240
//! links (four words) and 1056 paths, so it reaches the multi-word masks
//! that the parking-lot topologies of the core proptests never do. The
//! reference here is the plain definition: every pair's `shared_links`
//! grouped in a `BTreeMap` keyed by `τ`, `Paths(τ)` as the paths that
//! traverse every link of `τ`, and `Θ_τ` as one `PathSet` per pathset with
//! pair estimates found by `binary_search`.

use std::collections::BTreeMap;

use nni_core::{enumerate_slices, Config, IdentifyPlan, Slice};
use nni_topogen::{generate, IspParams};
use nni_topology::{LinkSeq, PathId, PathSet, Topology};

/// Every `τ` with its path pairs in `(i, j)` enumeration order.
fn reference_slices(topology: &Topology) -> BTreeMap<LinkSeq, Vec<[PathId; 2]>> {
    let paths = topology.paths();
    let mut groups: BTreeMap<LinkSeq, Vec<[PathId; 2]>> = BTreeMap::new();
    for i in 0..paths.len() {
        for j in i + 1..paths.len() {
            let shared = paths[i].shared_links(&paths[j]);
            if !shared.is_empty() {
                groups
                    .entry(shared)
                    .or_default()
                    .push([paths[i].id(), paths[j].id()]);
            }
        }
    }
    groups
}

/// `Θ_τ` of a slice with these pairs: the sorted distinct paths as
/// singletons, then the pairs, and the sorted paths themselves.
fn reference_theta(pairs: &[[PathId; 2]]) -> (Vec<PathId>, Vec<PathSet>) {
    let mut paths: Vec<PathId> = pairs.iter().flatten().copied().collect();
    paths.sort();
    paths.dedup();
    let mut theta: Vec<PathSet> = paths.iter().map(|&p| PathSet::single(p)).collect();
    theta.extend(pairs.iter().map(|&[a, b]| PathSet::pair(a, b)));
    (paths, theta)
}

/// Equation 14 per pair, `y_i + y_j − y_ij`, with `i` and `j` found by
/// `binary_search` in the sorted paths.
fn reference_estimates(paths: &[PathId], pairs: &[[PathId; 2]], y: &[f64]) -> Vec<f64> {
    let idx = |p: &PathId| paths.binary_search(p).expect("pairs reference known paths");
    pairs
        .iter()
        .enumerate()
        .map(|(k, [a, b])| y[idx(a)] + y[idx(b)] - y[paths.len() + k])
        .collect()
}

/// `Paths(τ)` in id order.
fn reference_group(topology: &Topology, tau: &LinkSeq) -> Vec<PathId> {
    topology
        .path_ids()
        .filter(|&p| tau.links().iter().all(|&l| topology.path(p).traverses(l)))
        .collect()
}

/// Checks the slices of `topology`, and its plans at `min_pairs` 1 and 2,
/// against the reference.
fn plan_matches_the_pairwise_reference(topology: &Topology, seed: u64) {
    let reference = reference_slices(topology);

    let slices = enumerate_slices(topology);
    assert_eq!(slices.len(), reference.len(), "seed {seed}");
    for (slice, (tau, pairs)) in slices.iter().zip(&reference) {
        assert_eq!(slice.tau(), tau, "τ order, seed {seed}");
        assert_eq!(slice.pairs(), pairs, "pair order of {tau:?}, seed {seed}");
    }

    for min_pairs in [1, 2] {
        let cfg = Config {
            min_pairs,
            ..Config::clustered()
        };
        plan_matches(topology, &reference, &cfg, seed);
    }
}

/// Checks the plan under `cfg` against the reference slices.
fn plan_matches(
    topology: &Topology,
    reference: &BTreeMap<LinkSeq, Vec<[PathId; 2]>>,
    cfg: &Config,
    seed: u64,
) {
    let plan = IdentifyPlan::new(topology, cfg);
    let kept: Vec<_> = reference
        .iter()
        .filter(|(_, pairs)| pairs.len() >= cfg.min_pairs)
        .collect();
    assert_eq!(plan.slices().len(), kept.len(), "seed {seed}");
    for (i, (slice, (tau, pairs))) in plan.slices().iter().zip(kept).enumerate() {
        let want = Slice::new(tau.clone(), pairs.clone());
        assert_eq!(slice.tau(), want.tau(), "seed {seed}");
        assert_eq!(slice.pairs(), want.pairs(), "seed {seed}");
        assert_eq!(slice.paths(), want.paths(), "seed {seed}");
        let (paths, theta) = reference_theta(pairs);
        assert_eq!(slice.paths(), paths, "seed {seed}");
        assert_eq!(slice.pathset_count(), theta.len(), "seed {seed}");
        assert_eq!(slice.theta().count(), theta.len(), "seed {seed}");
        for (k, (got, want)) in slice.theta().zip(&theta).enumerate() {
            assert_eq!(got, want.paths(), "Θ row {k} of {tau:?}, seed {seed}");
        }
        let y: Vec<f64> = (0..theta.len()).map(|k| (k as f64 + 2.0).ln()).collect();
        assert_eq!(
            slice.pair_estimates(&y),
            reference_estimates(&paths, pairs, &y),
            "seed {seed}"
        );
        assert_eq!(plan.group(i), reference_group(topology, tau), "seed {seed}");
    }
}

#[test]
fn isp_plan_matches_the_pairwise_reference() {
    let params = IspParams::isp_200link();
    for seed in [3, 17] {
        let topology = generate(&params, seed).topology;
        assert_eq!(topology.link_count(), 240, "four mask words");
        assert_eq!(topology.path_count(), 1056);
        plan_matches_the_pairwise_reference(&topology, seed);
    }
}

/// The smallest generated hierarchy: one mask word and six paths, whose
/// slices all hold a single pair, so only the `min_pairs` 1 plan keeps any.
#[test]
fn small_isp_plan_matches_the_pairwise_reference() {
    for seed in [1, 2, 7] {
        let topology = generate(&IspParams::small(), seed).topology;
        assert_eq!(topology.link_count(), 24, "one mask word");
        assert_eq!(topology.path_count(), 6);
        plan_matches_the_pairwise_reference(&topology, seed);
    }
}
