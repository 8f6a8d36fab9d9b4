//! Network slices and System 4 (§4.1, Appendix "Construct System 4 for σ").
//!
//! To reason about the neutrality of a link sequence `τ` we do not need the
//! whole network — only the paths that pairwise share *exactly* `τ`:
//!
//! 1. find all path pairs `{p_i, p_j}` with `Links(p_i) ∩ Links(p_j) = τ`;
//! 2. `Θ_τ` = those pairs plus their individual paths;
//! 3. the slice graph `G_τ` is a two-level logical tree: one logical link for
//!    `τ` and one logical link `δ_p` for each involved path's remaining links
//!    `Links(p) \ τ`;
//! 4. System 4 is `y = A_τ(Θ_τ) · x` over the logical links.
//!
//! The slice's key property (§4.1): once `Θ_τ` is fixed, the rest of the
//! topology is irrelevant — only the performance numbers of the paths and
//! path pairs in `Θ_τ` enter the system.

use nni_linalg::Matrix;
use nni_topology::{LinkId, LinkSeq, PathId, PathSet, Topology};
use std::collections::HashMap;

/// The slice for one candidate link sequence `τ`.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The candidate link sequence.
    pub tau: LinkSeq,
    /// Path pairs whose shared links are exactly `τ`.
    pub pairs: Vec<(PathId, PathId)>,
    /// The distinct paths participating in pairs (sorted) — the logical
    /// `δ_p` link index space.
    pub paths: Vec<PathId>,
    /// `Θ_τ`: the individual paths first (aligned with `paths`), then the
    /// pairs (aligned with `pairs`).
    pub pathsets: Vec<PathSet>,
}

impl Slice {
    /// Builds the slice for `tau` given its path pairs.
    ///
    /// # Panics
    /// Panics when `pairs` is empty (an empty `Θ_τ` means `τ` cannot be
    /// reasoned about, like `⟨l2⟩` in Figure 4).
    pub fn new(tau: LinkSeq, pairs: Vec<(PathId, PathId)>) -> Slice {
        assert!(!pairs.is_empty(), "a slice needs at least one path pair");
        let mut paths: Vec<PathId> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        paths.sort();
        paths.dedup();
        let mut pathsets: Vec<PathSet> = paths.iter().map(|&p| PathSet::single(p)).collect();
        pathsets.extend(pairs.iter().map(|&(a, b)| PathSet::pair(a, b)));
        Slice {
            tau,
            pairs,
            paths,
            pathsets,
        }
    }

    /// `|Θ_τ|` — Algorithm 1 keeps slices with at least 5 pathsets, which is
    /// equivalent to at least 2 path pairs.
    pub fn pathset_count(&self) -> usize {
        self.pathsets.len()
    }

    /// Number of path pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The routing matrix `A_τ(Θ_τ)` of the slice graph.
    ///
    /// Column 0 is the logical link `τ`; column `1 + i` is the logical link
    /// `δ_{p}` for `self.paths[i]`. Row order matches `self.pathsets`.
    pub fn routing_matrix(&self) -> Matrix {
        let cols = 1 + self.paths.len();
        let mut a = Matrix::zeros(self.pathsets.len(), cols);
        let col_of = |p: PathId| -> usize {
            1 + self
                .paths
                .binary_search(&p)
                .expect("pathsets reference known paths")
        };
        for (i, theta) in self.pathsets.iter().enumerate() {
            a[(i, 0)] = 1.0; // every pathset crosses τ by construction
            for &p in theta.paths() {
                a[(i, col_of(p))] = 1.0;
            }
        }
        a
    }

    /// Per-pair estimate of `x_τ` from an observation vector `y` aligned with
    /// `self.pathsets`: the unique solution of the pair's 3-equation
    /// sub-system is `x_τ = y_i + y_j − y_{ij}` (Appendix, Equation 14).
    pub fn pair_estimates(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(
            y.len(),
            self.pathsets.len(),
            "observation vector misaligned"
        );
        let idx_of = |p: PathId| -> usize {
            self.paths
                .binary_search(&p)
                .expect("pairs reference known paths")
        };
        self.pairs
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| {
                let yi = y[idx_of(a)];
                let yj = y[idx_of(b)];
                let yij = y[self.paths.len() + k];
                yi + yj - yij
            })
            .collect()
    }

    /// The paper's §6.2 unsolvability: the spread (max − min) of the
    /// per-pair estimates of `x_τ`.
    pub fn unsolvability(&self, y: &[f64]) -> f64 {
        spread(&self.pair_estimates(y))
    }
}

/// The spread (max − min, floored at zero) of a slice's pair estimates —
/// its unsolvability.
pub(crate) fn spread(estimates: &[f64]) -> f64 {
    let max = estimates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = estimates.iter().cloned().fold(f64::INFINITY, f64::min);
    (max - min).max(0.0)
}

/// Enumerates every candidate slice of the network: path pairs are grouped
/// by their shared link set (Algorithm 1, lines 2–8). Pairs sharing nothing
/// are skipped. Slices are returned sorted by `τ` for determinism, each
/// with its pairs in `(i, j)` enumeration order.
///
/// Each path's links are a bitset of `⌈L/64⌉` words, so a pair's shared
/// links are the AND of two bitsets, and pairs group under those words.
pub fn enumerate_slices(topology: &Topology) -> Vec<Slice> {
    let paths = topology.paths();
    let words = topology.link_count().div_ceil(64);
    let mut masks = vec![0u64; paths.len() * words];
    for (mask, path) in masks.chunks_exact_mut(words).zip(paths) {
        for l in path.links() {
            mask[l.index() / 64] |= 1 << (l.index() % 64);
        }
    }
    let mask = |i: usize| &masks[i * words..(i + 1) * words];
    let mut groups: HashMap<Vec<u64>, Vec<(PathId, PathId)>> = HashMap::new();
    let mut shared = vec![0u64; words];
    for i in 0..paths.len() {
        for j in i + 1..paths.len() {
            for ((s, a), b) in shared.iter_mut().zip(mask(i)).zip(mask(j)) {
                *s = a & b;
            }
            if shared.iter().all(|&w| w == 0) {
                continue;
            }
            let pair = (paths[i].id(), paths[j].id());
            match groups.get_mut(shared.as_slice()) {
                Some(pairs) => pairs.push(pair),
                None => {
                    groups.insert(shared.clone(), vec![pair]);
                }
            }
        }
    }
    let mut slices: Vec<Slice> = groups
        .into_iter()
        .map(|(shared, pairs)| {
            let links = (0..words * 64)
                .filter(|&l| shared[l / 64] >> (l % 64) & 1 == 1)
                .map(LinkId)
                .collect();
            Slice::new(LinkSeq::new(links), pairs)
        })
        .collect();
    slices.sort_by(|a, b| a.tau.cmp(&b.tau));
    slices
}

/// The slice for a specific `τ`, if any path pair shares exactly `τ`.
pub fn slice_for(topology: &Topology, tau: &LinkSeq) -> Option<Slice> {
    enumerate_slices(topology)
        .into_iter()
        .find(|s| &s.tau == tau)
}

/// `Paths(τ)` — the normalization group for Algorithm 2 (§6.2): every path
/// that traverses *all* links of `τ`.
pub fn normalization_group(topology: &Topology, tau: &LinkSeq) -> Vec<PathId> {
    topology.paths_through_all(tau.links())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_topology::library::{figure4, figure5, topology_b};

    #[test]
    fn figure4_slices_match_section_5_example() {
        // §5: Σ̃ = {⟨l1⟩, ⟨l1,l2⟩}; ⟨l2⟩ has no pairs.
        let t = figure4();
        let g = &t.topology;
        let l1 = g.link_by_name("l1").unwrap();
        let l2 = g.link_by_name("l2").unwrap();
        let slices = enumerate_slices(g);
        let taus: Vec<&LinkSeq> = slices.iter().map(|s| &s.tau).collect();
        assert_eq!(slices.len(), 2);
        assert!(taus.contains(&&LinkSeq::single(l1)));
        assert!(taus.contains(&&LinkSeq::new(vec![l1, l2])));
        assert!(slice_for(g, &LinkSeq::single(l2)).is_none());

        // ⟨l1⟩ has the pairs {p1,p4}, {p2,p4}, {p3,p4} (paths 0-indexed).
        let s1 = slice_for(g, &LinkSeq::single(l1)).unwrap();
        assert_eq!(s1.pair_count(), 3);
        assert!(s1.pairs.iter().all(|&(_, b)| b == PathId(3)));
        // Θ_⟨l1⟩ = 4 singletons + 3 pairs = 7 pathsets (§4.1).
        assert_eq!(s1.pathset_count(), 7);

        // ⟨l1,l2⟩ has the pairs among {p1,p2,p3}.
        let s12 = slice_for(g, &LinkSeq::new(vec![l1, l2])).unwrap();
        assert_eq!(s12.pair_count(), 3);
        assert_eq!(s12.pathset_count(), 6);
    }

    #[test]
    fn figure6_system_structure() {
        // Figure 6(b): System 4 for τ = ⟨l1⟩ of the Figure-4-like network has
        // 7 equations over 1 + 4 logical links; each singleton row has two
        // ones, each pair row three.
        let t = figure4();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let s = slice_for(&t.topology, &LinkSeq::single(l1)).unwrap();
        let a = s.routing_matrix();
        assert_eq!(a.rows(), 7);
        assert_eq!(a.cols(), 5);
        for i in 0..4 {
            let ones: f64 = a.row(i).iter().sum();
            assert_eq!(ones, 2.0, "singleton row {i}");
        }
        for i in 4..7 {
            let ones: f64 = a.row(i).iter().sum();
            assert_eq!(ones, 3.0, "pair row {i}");
        }
        // Every row crosses τ.
        for i in 0..7 {
            assert_eq!(a[(i, 0)], 1.0);
        }
    }

    #[test]
    fn pair_estimates_recover_consistent_tau() {
        // Neutral ground truth: x_τ = 0.2, deltas 0.1/0.3/0.05/0.15 — every
        // pair estimate must equal x_τ exactly.
        let t = figure5();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let s = slice_for(&t.topology, &LinkSeq::single(l1)).unwrap();
        let x_tau = 0.2;
        let deltas = [0.1, 0.3, 0.05];
        let mut y = Vec::new();
        for (i, _) in s.paths.iter().enumerate() {
            y.push(x_tau + deltas[i]);
        }
        for &(a, b) in &s.pairs {
            let ia = s.paths.binary_search(&a).unwrap();
            let ib = s.paths.binary_search(&b).unwrap();
            y.push(x_tau + deltas[ia] + deltas[ib]);
        }
        let est = s.pair_estimates(&y);
        for e in est {
            assert!((e - x_tau).abs() < 1e-12);
        }
        assert!(s.unsolvability(&y) < 1e-12);
    }

    #[test]
    fn unsolvability_positive_for_inconsistent_y() {
        let t = figure5();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let s = slice_for(&t.topology, &LinkSeq::single(l1)).unwrap();
        // Figure 5 ground truth: y{p1}=0, y{p2}=y{p3}=ln2, y{p1,p2}=ln2,
        // y{p1,p3}=ln2, y{p2,p3}=ln2.
        let ln2 = (2.0_f64).ln();
        // paths sorted = [p0, p1, p2]; pairs = [(0,1),(0,2),(1,2)].
        let y = vec![0.0, ln2, ln2, ln2, ln2, ln2];
        let est = s.pair_estimates(&y);
        // (p1,p2): 0 + ln2 - ln2 = 0; (p2,p3): ln2 + ln2 - ln2 = ln2.
        assert!((est[0] - 0.0).abs() < 1e-12);
        assert!((est[2] - ln2).abs() < 1e-12);
        assert!((s.unsolvability(&y) - ln2).abs() < 1e-12);
    }

    #[test]
    fn normalization_group_is_paths_of_tau() {
        let t = figure4();
        let g = &t.topology;
        let l1 = g.link_by_name("l1").unwrap();
        let group = normalization_group(g, &LinkSeq::single(l1));
        assert_eq!(group.len(), 4, "all four paths traverse l1");
    }

    #[test]
    fn topology_b_has_rich_slice_population() {
        let t = topology_b();
        let slices = enumerate_slices(&t.topology);
        let analyzable: Vec<&Slice> = slices.iter().filter(|s| s.pair_count() >= 2).collect();
        assert!(
            analyzable.len() >= 12,
            "expected a rich population, got {}",
            analyzable.len()
        );
        // Every policer participates in at least one analyzable slice.
        for &pol in &t.nonneutral_links {
            assert!(
                analyzable.iter().any(|s| s.tau.contains(pol)),
                "policer {pol} not covered"
            );
        }
    }

    #[test]
    fn slices_are_deterministically_ordered() {
        let t = topology_b();
        let a = enumerate_slices(&t.topology);
        let b = enumerate_slices(&t.topology);
        let taus_a: Vec<&LinkSeq> = a.iter().map(|s| &s.tau).collect();
        let taus_b: Vec<&LinkSeq> = b.iter().map(|s| &s.tau).collect();
        assert_eq!(taus_a, taus_b);
        let mut sorted = taus_a.clone();
        sorted.sort();
        assert_eq!(taus_a, sorted, "slices sorted by τ");
    }

    #[test]
    #[should_panic(expected = "at least one path pair")]
    fn empty_slice_rejected() {
        Slice::new(LinkSeq::single(LinkId(0)), vec![]);
    }
}
