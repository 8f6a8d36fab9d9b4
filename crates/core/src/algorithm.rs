//! Algorithm 1: identification of non-neutral link sequences (§5), plus the
//! redundancy-removal post-pass and the two solvability deciders of §6.2.
//!
//! ```text
//! 1. group all path pairs by their shared link set τ            (slices)
//! 2. keep slices with |Θ_τ| >= 5  (== at least 2 path pairs)
//! 3. decide, per slice, whether System 4 "has a solution":
//!      exact mode     — Rouché–Capelli rank test (noise-free oracles)
//!      clustered mode — per-pair estimates x_τ = y_i + y_j − y_ij; the
//!                       slice's unsolvability is their max−min spread;
//!                       2-means over all slices' unsolvability; high
//!                       cluster = unsolvable (§6.2)
//! 4. Σ_n̄ = unsolvable slices; remove redundant sequences        (§5)
//! ```

use crate::obs::Observations;
use crate::slice::{slices_of, LinkPaths, Slice};
use nni_linalg::is_solvable;
use nni_stats::{two_means, SeparationGuard};
use nni_topology::{LinkSeq, PathId, Topology};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::sync::Arc;

/// How to decide whether a slice's System 4 "has a solution".
#[derive(Debug, Clone, Copy)]
pub enum DecisionMode {
    /// Exact consistency test with an absolute tolerance — for noise-free
    /// (oracle) observations.
    Exact {
        /// Entries below this are treated as zero.
        tol: f64,
    },
    /// The paper's measurement-mode rule: two-cluster the unsolvability
    /// scores, high cluster = unsolvable.
    ///
    /// Clustering needs a population; topology A produces a *single* slice
    /// (every path pair shares exactly `⟨l5⟩`), yet the paper still decides
    /// it correctly in every experiment. `abs_threshold` supplies the
    /// missing rule: a slice whose unsolvability exceeds it is unsolvable
    /// regardless of the clustering outcome (subject to the relative
    /// margin below). The default (0.04 ≈ a 4% disagreement between
    /// congestion-free probability estimates) is far above sampling noise —
    /// in a neutral network the normalized per-interval indicators of paths
    /// sharing a queue are strongly correlated, so pair estimates agree to
    /// well under that — and below the differentiation signal of the
    /// policing/shaping experiments.
    Clustered {
        /// Minimum-separation rule (see `nni-stats`).
        guard: SeparationGuard,
        /// Absolute unsolvability above which a slice is non-neutral even
        /// when clustering collapses.
        abs_threshold: f64,
        /// Relative margin: the spread must also exceed `rel_margin` times
        /// the median |estimate| of the slice. A heavily congested *neutral*
        /// sequence yields pair estimates that are all large and agree to
        /// within proportional sampling noise (spread ≪ median); a
        /// differentiating sequence yields a structured split (pairs inside
        /// the throttled class high, the rest near zero), so its spread is
        /// comparable to or larger than the median. This is the
        /// scale-awareness that cross-system clustering provides in the
        /// paper's multi-slice experiments, applied within a slice.
        rel_margin: f64,
    },
}

/// Algorithm configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Minimum number of path pairs per slice (the paper's `|Θ_τ| >= 5`
    /// equals 2 pairs).
    pub min_pairs: usize,
    /// Solvability decider.
    pub mode: DecisionMode,
}

impl Config {
    /// Exact mode with the default tolerance.
    pub fn exact() -> Config {
        Config {
            min_pairs: 2,
            mode: DecisionMode::Exact { tol: 1e-9 },
        }
    }

    /// Clustered (measurement) mode with the default separation guard and
    /// absolute threshold.
    pub fn clustered() -> Config {
        Config {
            min_pairs: 2,
            mode: DecisionMode::Clustered {
                guard: SeparationGuard::default(),
                abs_threshold: 0.04,
                rel_margin: 1.0,
            },
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::clustered()
    }
}

/// The analysis of one slice: a view into an [`InferenceResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceVerdict<'a> {
    /// The candidate link sequence.
    pub tau: &'a LinkSeq,
    /// The slice's path pairs, each with its two members sorted.
    pub pairs: &'a [[PathId; 2]],
    /// Each pair's estimate `x_τ = y_i + y_j − y_{ij}`, aligned with
    /// `pairs` (reported, e.g., by Figure 10(b)).
    pub estimates: &'a [f64],
    /// Unsolvability score (max − min of the estimates).
    pub unsolvability: f64,
    /// Final verdict: `true` = System 4 has no solution = non-neutral.
    pub nonneutral: bool,
}

/// Output of Algorithm 1 (+ redundancy removal).
///
/// The per-slice numbers sit in flat arrays in plan order, and the slices
/// themselves (`τ` and pairs) are the plan's, shared rather than copied:
/// [`verdicts`](InferenceResult::verdicts),
/// [`nonneutral_raw`](InferenceResult::nonneutral_raw) and
/// [`neutral`](InferenceResult::neutral) are views over them.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    slices: Arc<[Slice]>,
    /// Every slice's pair estimates, end to end in plan order.
    estimates: Vec<f64>,
    /// Each slice's unsolvability.
    unsolvability: Vec<f64>,
    /// Each slice's verdict: `true` = non-neutral.
    flags: Vec<bool>,
    /// `Σ_n̄` after redundancy removal — the algorithm's answer.
    pub nonneutral: Vec<LinkSeq>,
}

impl InferenceResult {
    /// Whether any non-neutral link sequence was identified.
    pub fn network_is_nonneutral(&self) -> bool {
        !self.nonneutral.is_empty()
    }

    /// Every analyzed slice with its verdict, in the deterministic plan
    /// order.
    pub fn verdicts(&self) -> impl ExactSizeIterator<Item = SliceVerdict<'_>> + '_ {
        self.slices.iter().enumerate().map(|(i, s)| SliceVerdict {
            tau: s.tau(),
            pairs: s.pairs(),
            estimates: &self.estimates[s.pair_span()],
            unsolvability: self.unsolvability[i],
            nonneutral: self.flags[i],
        })
    }

    /// The `τ` of the slices with verdict `flag`, in plan order.
    fn taus(&self, flag: bool) -> impl Iterator<Item = &LinkSeq> + '_ {
        self.slices
            .iter()
            .zip(&self.flags)
            .filter(move |&(_, &f)| f == flag)
            .map(|(s, _)| s.tau())
    }

    /// `Σ_n̄` before redundancy removal.
    pub fn nonneutral_raw(&self) -> impl Iterator<Item = &LinkSeq> + '_ {
        self.taus(true)
    }

    /// Sequences classified neutral (`Σ_n` in the paper's notation).
    pub fn neutral(&self) -> impl Iterator<Item = &LinkSeq> + '_ {
        self.taus(false)
    }

    /// FNV-1a over every value — slice verdicts (estimates and scores as
    /// f64 bit patterns) and all three sequence lists. Two results
    /// fingerprint equal iff they are equal value by value with every f64
    /// compared by its bit pattern (up to hash collisions). That is not
    /// `PartialEq`: `-0.0` and `0.0` compare equal but fingerprint apart
    /// (`perf_from_counts` returns `-0.0` when every informative interval
    /// is congestion-free), and a NaN fingerprints equal to itself. The
    /// golden-corpus gate pins these values across codec versions.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fnv::Fnv::new();
        let seq = |h: &mut crate::fnv::Fnv, s: &LinkSeq| {
            h.word(s.len() as u64);
            for &l in s.links() {
                h.word(l.index() as u64);
            }
        };
        h.word(self.slices.len() as u64);
        for v in self.verdicts() {
            seq(&mut h, v.tau);
            h.word(v.estimates.len() as u64);
            for (&[a, b], &e) in v.pairs.iter().zip(v.estimates) {
                h.word(a.index() as u64);
                h.word(b.index() as u64);
                h.f64(e);
            }
            h.f64(v.unsolvability);
            h.word(v.nonneutral as u64);
        }
        let raw = self.flags.iter().filter(|&&f| f).count();
        h.word(raw as u64);
        self.nonneutral_raw().for_each(|s| seq(&mut h, s));
        h.word(self.nonneutral.len() as u64);
        self.nonneutral.iter().for_each(|s| seq(&mut h, s));
        h.word((self.flags.len() - raw) as u64);
        self.neutral().for_each(|s| seq(&mut h, s));
        h.0
    }
}

/// Equal verdicts (`τ`, pairs, estimates, unsolvability, flag) and an
/// equal answer, every f64 compared by `==`. The two sequence lists before
/// redundancy removal follow from the verdicts.
impl PartialEq for InferenceResult {
    fn eq(&self, other: &InferenceResult) -> bool {
        let same_slices = Arc::ptr_eq(&self.slices, &other.slices)
            || (self.slices.len() == other.slices.len()
                && self
                    .slices
                    .iter()
                    .zip(other.slices.iter())
                    .all(|(a, b)| a.tau() == b.tau() && a.pairs() == b.pairs()));
        same_slices
            && self.estimates == other.estimates
            && self.unsolvability == other.unsolvability
            && self.flags == other.flags
            && self.nonneutral == other.nonneutral
    }
}

/// The per-topology precompute of Algorithm 1: the analyzable slices and
/// their normalization groups, derived once and reused across repeated
/// identifications over the same topology — the structure an incremental
/// (per-interval) re-identification must not re-derive on every arrival.
///
/// A plan depends only on the topology and `cfg.min_pairs`; observation
/// vectors vary per call, so [`identify`] (through an [`Observations`]
/// source) and [`identify_scores`] (caller-supplied `y` vectors) both
/// consume one. Its slices are shared (one [`Arc`]) with every
/// [`SliceScores`] and [`InferenceResult`] built over it.
///
/// Each `Paths(τ)` is the AND of the per-link path bitsets of `τ`'s links,
/// read off as path ids in order: the same list as
/// [`normalization_group`](crate::normalization_group), which stays the
/// reference definition, without a sorted-list search per link.
#[derive(Debug, Clone)]
pub struct IdentifyPlan {
    slices: Arc<[Slice]>,
    /// Every slice's normalization group, end to end.
    group_paths: Vec<PathId>,
    /// Slice `i`'s group is `group_paths[group_ends[i]..group_ends[i + 1]]`.
    group_ends: Vec<usize>,
}

impl IdentifyPlan {
    /// Enumerates and filters the slices of `topology` and precomputes each
    /// slice's normalization group `Paths(τ)` from link bitsets.
    pub fn new(topology: &Topology, cfg: &Config) -> IdentifyPlan {
        let link_paths = LinkPaths::new(topology);
        let slices = slices_of(topology, &link_paths, cfg.min_pairs);
        // What `SliceScores` and `InferenceResult` index their per-pair
        // arrays by.
        assert!(
            slices
                .iter()
                .try_fold(0, |end, s| (s.pair_span().start == end)
                    .then(|| s.pair_span().end))
                .is_some(),
            "a plan's slices lay their pairs end to end"
        );
        let (mut group_paths, mut all) = (Vec::new(), Vec::new());
        let mut group_ends = Vec::with_capacity(slices.len() + 1);
        group_ends.push(0);
        for s in &slices {
            link_paths.through_all(s.tau(), &mut all, &mut group_paths);
            group_ends.push(group_paths.len());
        }
        IdentifyPlan {
            slices: slices.into(),
            group_paths,
            group_ends,
        }
    }

    /// The analyzable slices, in the deterministic `τ` order
    /// [`identify`] walks them.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// The normalization group of slice `i` (aligned with [`slices`]).
    ///
    /// [`slices`]: IdentifyPlan::slices
    pub fn group(&self, i: usize) -> &[PathId] {
        &self.group_paths[self.group_ends[i]..self.group_ends[i + 1]]
    }

    /// Queries `obs` for every slice's observation vector, in plan order —
    /// the acquisition half of [`identify`].
    pub fn observe(&self, obs: &impl Observations) -> Vec<Vec<f64>> {
        self.slices
            .iter()
            .enumerate()
            .map(|(i, s)| obs.observe_all(self.group(i), s.theta()))
            .collect()
    }
}

/// Runs Algorithm 1 against an observation source.
pub fn identify(topology: &Topology, obs: &impl Observations, cfg: Config) -> InferenceResult {
    let plan = IdentifyPlan::new(topology, &cfg);
    identify_scores(&plan, &plan.observe(obs), cfg)
}

/// The decision half of Algorithm 1 over caller-supplied observation
/// vectors `ys` (one per plan slice, aligned with
/// [`IdentifyPlan::slices`]): every slice is scored
/// ([`SliceScores::score`]), then [`SliceScores::decide`] runs.
///
/// This is the seam measured inference enters: the Algorithm 2 engine
/// maintains the counts behind `ys` — folded over a whole log for batch
/// inference, one closed interval at a time for streaming — and every
/// emitted verdict is the same pure function of `(ys, cfg)`. An engine
/// that keeps a [`SliceScores`] current itself, rescoring only the slices
/// whose counts moved, reaches the same result through the same two
/// functions.
pub fn identify_scores(plan: &IdentifyPlan, ys: &[Vec<f64>], cfg: Config) -> InferenceResult {
    assert_eq!(
        ys.len(),
        plan.slices.len(),
        "one observation vector per plan slice"
    );
    let mut scores = SliceScores::new(plan, cfg.mode);
    for (i, y) in ys.iter().enumerate() {
        scores.score(i, y);
    }
    // The buffer is not needed afterwards: its arrays move into the
    // result instead of being copied.
    let (flags, nonneutral) = scores.decision();
    InferenceResult {
        slices: scores.slices,
        estimates: scores.estimates,
        unsolvability: scores.unsolvability,
        flags,
        nonneutral,
    }
}

/// Algorithm 1's per-slice scores over one plan's slices, in plan order:
/// each pair's estimate, each slice's unsolvability (their spread) and
/// whether any estimate is NaN, plus, in exact mode, each slice's rank
/// test. [`decide`](SliceScores::decide) turns them into an
/// [`InferenceResult`].
///
/// A new (or [`rebase`](SliceScores::rebase)d) buffer holds what a slice
/// with no informative interval scores: its `y` is all `+0.0`
/// (`perf_from_counts(_, 0)`), so every estimate, spread and flag is
/// `+0.0` or `false`, and the zero vector passes the rank test. A caller
/// that keeps the buffer current therefore needs to
/// [`score`](SliceScores::score) only the slices whose observation vector
/// changed.
#[derive(Debug, Clone)]
pub struct SliceScores {
    slices: Arc<[Slice]>,
    mode: DecisionMode,
    /// Every slice's pair estimates, end to end in plan order.
    estimates: Vec<f64>,
    unsolvability: Vec<f64>,
    /// Whether any of a slice's estimates is NaN.
    nan: Vec<bool>,
    /// Exact mode: whether a slice's System 4 failed the rank test.
    unsolvable: Vec<bool>,
}

impl SliceScores {
    /// The scores of `plan`'s slices with no informative interval, to be
    /// decided under `mode`.
    pub fn new(plan: &IdentifyPlan, mode: DecisionMode) -> SliceScores {
        let n = plan.slices.len();
        SliceScores {
            slices: Arc::clone(&plan.slices),
            mode,
            estimates: vec![0.0; plan.slices.iter().map(Slice::pair_count).sum()],
            unsolvability: vec![0.0; n],
            nan: vec![false; n],
            unsolvable: vec![false; n],
        }
    }

    /// Returns every slice to the no-informative-interval scores.
    pub fn rebase(&mut self) {
        self.estimates.fill(0.0);
        self.unsolvability.fill(0.0);
        self.nan.fill(false);
        self.unsolvable.fill(false);
    }

    /// [`rebase`](SliceScores::rebase) to be decided under `mode`.
    pub fn rearm(&mut self, mode: DecisionMode) {
        self.mode = mode;
        self.rebase();
    }

    /// Scores slice `i` from its observation vector `y` (aligned with
    /// [`Slice::theta`]): its pair estimates and their spread in one pass,
    /// whether any is NaN, and in exact mode the rank test.
    pub fn score(&mut self, i: usize, y: &[f64]) {
        let s = &self.slices[i];
        let (spread, nan) = s.score_into(y, &mut self.estimates[s.pair_span()]);
        self.unsolvability[i] = spread;
        self.nan[i] = nan;
        if let DecisionMode::Exact { tol } = self.mode {
            self.unsolvable[i] = !is_solvable(&s.routing_matrix(), y, tol);
        }
    }

    /// The decision: exact mode takes each slice's rank test; clustered
    /// mode runs 2-means over every slice's unsolvability and the floors
    /// (§6.2). Redundancy removal follows (§5).
    ///
    /// In clustered mode the median |estimate| is only selected for a
    /// slice that is not in the high cluster and whose unsolvability
    /// exceeds `abs_threshold`: the floor `max(abs_threshold, rel_margin ·
    /// median)` is at least `abs_threshold`, so the median cannot decide
    /// any other slice. A NaN estimate in a slice of two or more pairs
    /// panics either way.
    pub fn decide(&self) -> InferenceResult {
        let (flags, nonneutral) = self.decision();
        InferenceResult {
            slices: Arc::clone(&self.slices),
            estimates: self.estimates.clone(),
            unsolvability: self.unsolvability.clone(),
            flags,
            nonneutral,
        }
    }

    /// [`decide`](SliceScores::decide)'s verdict flags and answer.
    fn decision(&self) -> (Vec<bool>, Vec<LinkSeq>) {
        let flags: Vec<bool> = match self.mode {
            DecisionMode::Exact { .. } => self.unsolvable.clone(),
            DecisionMode::Clustered {
                guard,
                abs_threshold,
                rel_margin,
            } => {
                let clusters = two_means(&self.unsolvability, guard);
                // The median |estimate| by selection, in one reused buffer:
                // the element a full sort would put at `len / 2`.
                let mut mags: Vec<f64> = Vec::new();
                let per_slice = self.slices.iter().zip(&clusters.high);
                per_slice
                    .zip(self.unsolvability.iter().zip(&self.nan))
                    .map(|((s, &high), (&u, &has_nan))| {
                        let estimates = &self.estimates[s.pair_span()];
                        // `!(u <= abs_threshold)`, which a NaN threshold
                        // also passes.
                        let median_decides = !high && (u > abs_threshold || abs_threshold.is_nan());
                        if !median_decides {
                            // Selecting among two or more estimates compares
                            // every one.
                            assert!(!(has_nan && estimates.len() >= 2), "finite estimates");
                            return high;
                        }
                        mags.clear();
                        mags.extend(estimates.iter().map(|e| e.abs()));
                        let mid = mags.len() / 2;
                        let median = *mags
                            .select_nth_unstable_by(mid, |a, b| {
                                a.partial_cmp(b).expect("finite estimates")
                            })
                            .1;
                        u > abs_threshold.max(rel_margin * median)
                    })
                    .collect()
            }
        };
        let taus = |flag: bool| -> Vec<&LinkSeq> {
            self.slices
                .iter()
                .zip(&flags)
                .filter(|&(_, &f)| f == flag)
                .map(|(s, _)| s.tau())
                .collect()
        };
        let nonneutral = remove_redundant(&taus(true), &taus(false));
        (flags, nonneutral)
    }
}

/// Redundancy removal (§5): `τ ∈ Σ_n̄` is redundant iff there exists a set of
/// *other* classified sequences `{τ_i} ⊆ Σ_n̄ ∪ Σ_n`, at least one of them
/// non-neutral, whose union equals `τ`.
///
/// Because all candidate `τ_i` must be subsets of `τ`, the union of *all*
/// subset-candidates is the maximal reachable union; the existential check
/// reduces to comparing that union with `τ` and checking that some
/// non-neutral candidate exists. Candidates from `nonneutral` exclude every
/// entry equal to `τ`; candidates from `neutral` do not, and a neutral
/// entry equal to some non-neutral one counts as non-neutral. The kept
/// sequences are returned in input order, duplicates included.
///
/// Every sequence is a bitset of `⌈L/64⌉` words plus the OR of those words,
/// so most non-subsets are rejected by one AND, and the union is an OR
/// into one reused bitset.
pub fn remove_redundant<S: Borrow<LinkSeq>>(nonneutral: &[S], neutral: &[S]) -> Vec<LinkSeq> {
    // A neutral verdict: nothing to test, and no masks worth building.
    if nonneutral.is_empty() {
        return Vec::new();
    }
    let all = || nonneutral.iter().chain(neutral).map(Borrow::borrow);
    let links = all()
        .filter_map(|s| s.links().last())
        .map(|l| l.index() + 1)
        .max()
        .unwrap_or(0);
    let words = links.div_ceil(64).max(1);
    let mut masks = vec![0u64; (nonneutral.len() + neutral.len()) * words];
    let mut folds = Vec::with_capacity(nonneutral.len() + neutral.len());
    for (mask, s) in masks.chunks_exact_mut(words).zip(all()) {
        for l in s.links() {
            mask[l.index() / 64] |= 1 << (l.index() % 64);
        }
        folds.push(mask.iter().fold(0, |f, w| f | w));
    }
    let mask = |i: usize| &masks[i * words..(i + 1) * words];
    let subset = |i: usize, j: usize| {
        folds[i] & !folds[j] == 0 && mask(i).iter().zip(mask(j)).all(|(a, b)| a & !b == 0)
    };
    // Whether each candidate counts as non-neutral: every `nonneutral`
    // entry, and each `neutral` entry equal to one of them.
    let bad: HashSet<&LinkSeq> = nonneutral.iter().map(Borrow::borrow).collect();
    let counts: Vec<bool> = all().map(|t| bad.contains(t)).collect();
    let n = nonneutral.len();
    let mut union = vec![0u64; words];
    nonneutral
        .iter()
        .enumerate()
        .filter(|&(i, _)| {
            union.fill(0);
            let mut has_nonneutral = false;
            for c in (0..counts.len()).filter(|&c| subset(c, i)) {
                if c < n && mask(c) == mask(i) {
                    continue; // τ itself, or a duplicate of it
                }
                has_nonneutral |= counts[c];
                for (u, w) in union.iter_mut().zip(mask(c)) {
                    *u |= w;
                }
            }
            // Keep unless some non-neutral candidate helps cover τ fully.
            !has_nonneutral || union != mask(i)
        })
        .map(|(_, tau)| tau.borrow().clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Classes;
    use crate::equivalent::EquivalentNetwork;
    use crate::obs::ExactOracle;
    use crate::perf::{LinkPerf, NetworkPerf};
    use nni_topology::library::{figure4, figure5, topology_b};
    use nni_topology::LinkId;

    fn oracle_for(t: &nni_topology::PaperTopology, perf: &NetworkPerf) -> ExactOracle {
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, perf))
    }

    #[test]
    fn figure4_example_from_section_5() {
        // Both l1 and l2 non-neutral: the algorithm must return
        // Σ = {⟨l1⟩, ⟨l1,l2⟩}, FN 0, granularity 1.5.
        let t = figure4();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let l2 = t.topology.link_by_name("l2").unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(l1, LinkPerf::per_class(vec![0.0, 0.4]))
            .with_link(l2, LinkPerf::per_class(vec![0.0, 0.2]));
        let oracle = oracle_for(&t, &perf);
        let r = identify(&t.topology, &oracle, Config::exact());
        assert!(r.network_is_nonneutral());
        let mut got = r.nonneutral.clone();
        got.sort();
        let mut want = vec![LinkSeq::single(l1), LinkSeq::new(vec![l1, l2])];
        want.sort();
        assert_eq!(got, want);
        let granularity: f64 = got.iter().map(|s| s.len() as f64).sum::<f64>() / 2.0;
        assert!((granularity - 1.5).abs() < 1e-12);
    }

    #[test]
    fn neutral_network_yields_empty_result_exact() {
        let t = figure4();
        let perf = NetworkPerf::neutral(&[0.1, 0.2, 0.05, 0.0, 0.3, 0.15], 2);
        let oracle = oracle_for(&t, &perf);
        let r = identify(&t.topology, &oracle, Config::exact());
        assert!(!r.network_is_nonneutral());
        assert_eq!(r.nonneutral_raw().count(), 0);
    }

    #[test]
    fn neutral_network_yields_empty_result_clustered() {
        // The separation guard must keep a noise-free neutral network from
        // splitting into two clusters.
        let t = figure4();
        let perf = NetworkPerf::neutral(&[0.1, 0.2, 0.05, 0.0, 0.3, 0.15], 2);
        let oracle = oracle_for(&t, &perf);
        let r = identify(&t.topology, &oracle, Config::clustered());
        assert!(!r.network_is_nonneutral());
    }

    #[test]
    fn clustered_mode_flags_figure5() {
        let t = figure5();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(l1, LinkPerf::per_class(vec![0.0, (2.0_f64).ln()]));
        let oracle = oracle_for(&t, &perf);
        let r = identify(&t.topology, &oracle, Config::clustered());
        assert!(r.network_is_nonneutral());
        assert_eq!(r.nonneutral, vec![LinkSeq::single(l1)]);
    }

    #[test]
    fn topology_b_exact_mode_identifies_all_policers() {
        let t = topology_b();
        let mut perf = NetworkPerf::congestion_free(&t.topology, 2);
        for &l in &t.nonneutral_links {
            perf = perf.with_link(l, LinkPerf::per_class(vec![0.001, 0.05]));
        }
        let oracle = oracle_for(&t, &perf);
        let r = identify(&t.topology, &oracle, Config::exact());
        for &pol in &t.nonneutral_links {
            assert!(
                r.nonneutral.iter().any(|s| s.contains(pol)),
                "policer {pol} missed"
            );
        }
        // Zero false positives: every identified sequence contains a policer.
        for s in &r.nonneutral {
            assert!(
                t.nonneutral_links.iter().any(|&pol| s.contains(pol)),
                "sequence {s} wrongly identified"
            );
        }
    }

    #[test]
    #[should_panic(expected = "finite estimates")]
    fn nan_estimate_panics_without_a_median() {
        // Figure 5's one slice has three pairs. With `y{p0}` NaN and a
        // threshold no spread reaches, the median cannot decide it, but a
        // NaN among two or more estimates still panics, as it did when
        // every slice took its median.
        let t = figure5();
        let plan = IdentifyPlan::new(&t.topology, &Config::exact());
        let mut y = vec![0.0; plan.slices()[0].pathset_count()];
        y[0] = f64::NAN;
        let cfg = Config {
            min_pairs: 2,
            mode: DecisionMode::Clustered {
                guard: SeparationGuard::default(),
                abs_threshold: 1e9,
                rel_margin: 1.0,
            },
        };
        identify_scores(&plan, &[y], cfg);
    }

    #[test]
    fn nan_estimate_in_a_one_pair_slice_is_neutral() {
        let t = topology_b();
        let cfg = Config {
            min_pairs: 1,
            ..Config::clustered()
        };
        let plan = IdentifyPlan::new(&t.topology, &cfg);
        let lone = plan
            .slices()
            .iter()
            .position(|s| s.pair_count() == 1)
            .expect("topology B has a one-pair slice");
        let mut ys: Vec<Vec<f64>> = plan
            .slices()
            .iter()
            .map(|s| vec![0.0; s.pathset_count()])
            .collect();
        ys[lone][0] = f64::NAN;
        let r = identify_scores(&plan, &ys, cfg);
        let v = r.verdicts().nth(lone).expect("the one-pair slice");
        assert!(v.estimates[0].is_nan());
        assert!(!v.nonneutral);
    }

    #[test]
    fn redundancy_removal_paper_example() {
        // Σ_n̄ = {⟨1,2⟩, ⟨2,3⟩, ⟨1,2,3⟩}: the long one is redundant.
        let s12 = LinkSeq::new(vec![LinkId(1), LinkId(2)]);
        let s23 = LinkSeq::new(vec![LinkId(2), LinkId(3)]);
        let s123 = LinkSeq::new(vec![LinkId(1), LinkId(2), LinkId(3)]);
        let kept = remove_redundant(&[s12.clone(), s23.clone(), s123], &[]);
        assert_eq!(kept, vec![s12, s23]);
    }

    #[test]
    fn redundancy_removal_needs_nonneutral_member() {
        // ⟨1,2⟩ non-neutral; ⟨1⟩ and ⟨2⟩ both classified *neutral*: the union
        // covers τ but contains no non-neutral member, so τ is kept.
        let s12 = LinkSeq::new(vec![LinkId(1), LinkId(2)]);
        let s1 = LinkSeq::single(LinkId(1));
        let s2 = LinkSeq::single(LinkId(2));
        let kept = remove_redundant(std::slice::from_ref(&s12), &[s1, s2]);
        assert_eq!(kept, vec![s12]);
    }

    #[test]
    fn redundancy_removal_mixed_cover() {
        // §6.4 discussion: had ⟨18,14⟩ been classified non-neutral, the long
        // ⟨18,14,6,3⟩ would be discarded thanks to neutral ⟨6,3⟩.
        let long = LinkSeq::new(vec![LinkId(18), LinkId(14), LinkId(6), LinkId(3)]);
        let s1814 = LinkSeq::new(vec![LinkId(18), LinkId(14)]);
        let s63 = LinkSeq::new(vec![LinkId(6), LinkId(3)]);
        let kept = remove_redundant(&[long.clone(), s1814.clone()], &[s63]);
        assert_eq!(kept, vec![s1814]);
    }

    #[test]
    fn verdicts_report_estimates() {
        let t = figure5();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(l1, LinkPerf::per_class(vec![0.0, (2.0_f64).ln()]));
        let oracle = oracle_for(&t, &perf);
        let r = identify(&t.topology, &oracle, Config::exact());
        let v = r.verdicts().next().expect("figure 5 has one slice");
        assert_eq!(v.estimates.len(), 3);
        assert!((v.unsolvability - (2.0_f64).ln()).abs() < 1e-9);
    }
}
