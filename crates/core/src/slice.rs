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
//!
//! `Θ_τ` is fully determined by the pairs, so a [`Slice`] holds no
//! `PathSet`s: [`Slice::theta`] lends each pathset's member list out of the
//! slice's paths and pairs. Algorithm 2 (`nni-measure`'s `SlidingCounts`)
//! and every [`Observations`](crate::Observations) source take those lists
//! as they are, so a plan of ~100k pathsets is built, observed and dropped
//! without a heap allocation per pathset.
//!
//! The slices of one enumeration are flat, too: their pairs, pair rows and
//! paths sit end to end in three arrays they share, and each slice holds
//! its `τ` and two ranges into them. A plan of ~1k slices is then three
//! arrays and ~1k link sequences.

use nni_linalg::Matrix;
use nni_topology::{LinkId, LinkSeq, PathId, Topology};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// The arrays the slices of one enumeration share, each slice's entries
/// contiguous and in slice order.
#[derive(Debug, Default)]
struct SliceStore {
    /// Every slice's pairs, each with its two members sorted.
    pairs: Vec<[PathId; 2]>,
    /// Each pair's two indices into its slice's paths, aligned with
    /// `pairs`.
    rows: Vec<[u32; 2]>,
    /// Every slice's distinct participating paths, sorted within a slice.
    paths: Vec<PathId>,
}

impl SliceStore {
    /// Appends the paths and pair rows of the pairs at `pairs` (members
    /// already distinct and sorted) and returns the range of those paths.
    /// `bits` (a bitset over every path id, all zero and left all zero)
    /// and `row_of` (an entry per path id) are scratch space that
    /// [`slices_of`] reuses across its slices.
    fn index(&mut self, pairs: Range<usize>, bits: &mut [u64], row_of: &mut [u32]) -> Range<usize> {
        let pairs = &self.pairs[pairs];
        // The participating paths as a bitset over path ids: the slice's
        // paths are its set bits in order.
        for p in pairs.iter().flatten() {
            bits[p.index() / 64] |= 1 << (p.index() % 64);
        }
        let start = self.paths.len();
        for (w, word) in bits.iter_mut().enumerate() {
            for b in set_bits(std::mem::take(word)) {
                row_of[w * 64 + b] = (self.paths.len() - start) as u32;
                self.paths.push(PathId(w * 64 + b));
            }
        }
        self.rows.extend(
            pairs
                .iter()
                .map(|&[a, b]| [row_of[a.index()], row_of[b.index()]]),
        );
        start..self.paths.len()
    }
}

/// The slice for one candidate link sequence `τ`.
#[derive(Clone)]
pub struct Slice {
    tau: LinkSeq,
    store: Arc<SliceStore>,
    /// This slice's entries of the store's `pairs` and `rows`.
    pairs: Range<usize>,
    /// This slice's entries of the store's `paths`.
    paths: Range<usize>,
}

impl std::fmt::Debug for Slice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slice")
            .field("tau", &self.tau)
            .field("pairs", &self.pairs())
            .field("paths", &self.paths())
            .finish()
    }
}

impl Slice {
    /// Builds the slice for `tau` given its path pairs, sorting each pair's
    /// two members.
    ///
    /// # Panics
    /// Panics when `pairs` is empty (an empty `Θ_τ` means `τ` cannot be
    /// reasoned about, like `⟨l2⟩` in Figure 4), or when a pair repeats a
    /// path.
    pub fn new(tau: LinkSeq, mut pairs: Vec<[PathId; 2]>) -> Slice {
        assert!(!pairs.is_empty(), "a slice needs at least one path pair");
        for pair in &mut pairs {
            assert_ne!(pair[0], pair[1], "a pair needs two distinct paths");
            pair.sort();
        }
        let n = pairs.len();
        let top = pairs.iter().map(|&[_, b]| b.index()).max().unwrap_or(0);
        let mut store = SliceStore {
            pairs,
            ..SliceStore::default()
        };
        let mut bits = vec![0u64; (top + 1).div_ceil(64)];
        let paths = store.index(0..n, &mut bits, &mut vec![0; top + 1]);
        Slice {
            tau,
            store: Arc::new(store),
            pairs: 0..n,
            paths,
        }
    }

    /// The candidate link sequence.
    pub fn tau(&self) -> &LinkSeq {
        &self.tau
    }

    /// Path pairs whose shared links are exactly `τ`, each with its two
    /// members sorted.
    pub fn pairs(&self) -> &[[PathId; 2]] {
        &self.store.pairs[self.pairs.clone()]
    }

    /// The distinct paths participating in pairs (sorted) — the logical
    /// `δ_p` link index space.
    pub fn paths(&self) -> &[PathId] {
        &self.store.paths[self.paths.clone()]
    }

    /// Each pair's two indices into [`paths`](Slice::paths), in
    /// [`pairs`](Slice::pairs) order.
    fn rows(&self) -> &[[u32; 2]] {
        &self.store.rows[self.pairs.clone()]
    }

    /// `Θ_τ` as member lists: each path of [`paths`](Slice::paths) as a
    /// singleton, then each pair of [`pairs`](Slice::pairs). This is the
    /// row order of [`routing_matrix`](Slice::routing_matrix) and of every
    /// observation vector `y`.
    pub fn theta(&self) -> impl Iterator<Item = &[PathId]> {
        let singles = self.paths().iter().map(std::slice::from_ref);
        singles.chain(self.pairs().iter().map(|pair| &pair[..]))
    }

    /// `|Θ_τ|` — Algorithm 1 keeps slices with at least 5 pathsets, which is
    /// equivalent to at least 2 path pairs.
    pub fn pathset_count(&self) -> usize {
        self.paths.len() + self.pairs.len()
    }

    /// Number of path pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The routing matrix `A_τ(Θ_τ)` of the slice graph.
    ///
    /// Column 0 is the logical link `τ`; column `1 + i` is the logical link
    /// `δ_{p}` for `self.paths()[i]`. Row order matches
    /// [`theta`](Slice::theta).
    pub fn routing_matrix(&self) -> Matrix {
        let singles = self.paths.len();
        let mut a = Matrix::zeros(self.pathset_count(), 1 + singles);
        for i in 0..self.pathset_count() {
            a[(i, 0)] = 1.0; // every pathset crosses τ by construction
        }
        for i in 0..singles {
            a[(i, 1 + i)] = 1.0;
        }
        for (k, rows) in self.rows().iter().enumerate() {
            for &r in rows {
                a[(singles + k, 1 + r as usize)] = 1.0;
            }
        }
        a
    }

    /// Per-pair estimate of `x_τ` from an observation vector `y` aligned with
    /// [`theta`](Slice::theta): the unique solution of the pair's 3-equation
    /// sub-system is `x_τ = y_i + y_j − y_{ij}` (Appendix, Equation 14).
    pub fn pair_estimates(&self, y: &[f64]) -> Vec<f64> {
        self.estimate_iter(y).collect()
    }

    /// The paper's §6.2 unsolvability: the spread (max − min) of the
    /// per-pair estimates of `x_τ`.
    pub fn unsolvability(&self, y: &[f64]) -> f64 {
        spread(&self.pair_estimates(y))
    }

    /// [`pair_estimates`](Slice::pair_estimates) written into `out` (one
    /// entry per pair) in one pass that also folds the running max and min:
    /// returns their [`unsolvability`](Slice::unsolvability) and whether
    /// any estimate is NaN.
    pub(crate) fn score_into(&self, y: &[f64], out: &mut [f64]) -> (f64, bool) {
        let (mut max, mut min, mut nan) = (f64::NEG_INFINITY, f64::INFINITY, false);
        for (slot, estimate) in out.iter_mut().zip(self.estimate_iter(y)) {
            max = max.max(estimate);
            min = min.min(estimate);
            nan |= estimate.is_nan();
            *slot = estimate;
        }
        ((max - min).max(0.0), nan)
    }

    /// This slice's entries of its store's pairs. The slices of one
    /// enumeration lay their pairs end to end in slice order from 0, so in
    /// a plan this is also the slice's run of every per-pair array kept in
    /// plan order.
    pub(crate) fn pair_span(&self) -> Range<usize> {
        self.pairs.clone()
    }

    /// Each pair's `y_i + y_j − y_{ij}`, in [`pairs`](Slice::pairs) order.
    fn estimate_iter<'a>(&'a self, y: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        assert_eq!(
            y.len(),
            self.pathset_count(),
            "observation vector misaligned"
        );
        let (singles, pairs) = y.split_at(self.paths.len());
        self.rows()
            .iter()
            .zip(pairs)
            .map(|(&[i, j], yij)| singles[i as usize] + singles[j as usize] - yij)
    }
}

/// The spread (max − min, floored at zero) of a slice's pair estimates —
/// its unsolvability.
fn spread(estimates: &[f64]) -> f64 {
    let max = estimates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = estimates.iter().cloned().fold(f64::INFINITY, f64::min);
    (max - min).max(0.0)
}

/// The indices of the set bits of `word`, in increasing order.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Hashes a link mask a word at a time (the FxHash step), in place of
/// SipHash, which cost most of a lookup. Colliding masks could only slow
/// the grouping, never change it: equal hashes still compare the masks.
#[derive(Default)]
struct MaskHasher(u64);

impl Hasher for MaskHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Whole words first: a mask's bytes are all whole words, and
        // `chunks_exact` lets them load without a copy per word.
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Each link's paths as a bitset of `⌈P/64⌉` words: bit `i` of link `l`'s
/// row is set when path `i` traverses `l`.
pub(crate) struct LinkPaths {
    paths: usize,
    words: usize,
    rows: Vec<u64>,
}

impl LinkPaths {
    pub(crate) fn new(topology: &Topology) -> LinkPaths {
        let words = topology.path_count().div_ceil(64);
        let mut rows = vec![0u64; topology.link_count() * words];
        for (i, path) in topology.paths().iter().enumerate() {
            for l in path.links() {
                rows[l.index() * words + i / 64] |= 1 << (i % 64);
            }
        }
        LinkPaths {
            paths: topology.path_count(),
            words,
            rows,
        }
    }

    fn row(&self, l: LinkId) -> &[u64] {
        &self.rows[l.index() * self.words..(l.index() + 1) * self.words]
    }

    /// Appends `Paths(τ)`, the AND of the rows of `τ`'s links, to `out`:
    /// the [`normalization_group`] of `tau`, without a search per link.
    /// `all` is scratch space.
    pub(crate) fn through_all(&self, tau: &LinkSeq, all: &mut Vec<u64>, out: &mut Vec<PathId>) {
        all.clear();
        all.resize(self.words, u64::MAX);
        if let Some(last) = all.last_mut() {
            *last >>= self.words * 64 - self.paths;
        }
        for &l in tau.links() {
            for (a, r) in all.iter_mut().zip(self.row(l)) {
                *a &= r;
            }
        }
        for (w, &word) in all.iter().enumerate() {
            out.extend(set_bits(word).map(|b| PathId(w * 64 + b)));
        }
    }
}

/// Enumerates every candidate slice of the network: path pairs are grouped
/// by their shared link set (Algorithm 1, lines 2–8). Pairs sharing nothing
/// are skipped. Slices are returned sorted by `τ` for determinism, each
/// with its pairs in `(i, j)` enumeration order.
pub fn enumerate_slices(topology: &Topology) -> Vec<Slice> {
    slices_of(topology, &LinkPaths::new(topology), 1)
}

/// The slices of at least `min_pairs` pairs, as [`enumerate_slices`]
/// orders them, over the link rows `on_link` of `topology`.
///
/// The OR of path `i`'s link rows, above bit `i`, is exactly the paths
/// `j > i` that share a link with it (its partners), so pairs that share
/// nothing are never visited. The partners are then split by their shared
/// links with `i` a word at a time, not a pair at a time: starting from one
/// class, each link `l` of `i` splits every class into the members on `l`
/// and the rest, and marks `l` shared for the members on it. What is left
/// is one class per distinct shared set, each a bitset of partners, and
/// each looked up once by its shared-link mask of `⌈L/64⌉` words.
/// The pairs are then placed by one counting sort: each kept group's pairs
/// land at its offset in the `τ` order, in one array that every slice
/// shares, with each class's partners in increasing order.
pub(crate) fn slices_of(topology: &Topology, on_link: &LinkPaths, min_pairs: usize) -> Vec<Slice> {
    let paths = topology.paths();
    let words = topology.link_count().div_ceil(64);
    let mut index: HashMap<Vec<u64>, u32, BuildHasherDefault<MaskHasher>> = HashMap::default();
    // Each group's pair count.
    let mut sizes: Vec<usize> = Vec::new();
    // Path `i`'s partner words: the indices of the nonzero words of its
    // partner bitset, `cols[col_starts[i]..col_starts[i + 1]]`.
    let mut cols: Vec<u32> = Vec::new();
    let mut col_starts: Vec<usize> = Vec::with_capacity(paths.len() + 1);
    // One run per (path `i`, shared set): its group, `i`, its pair count,
    // and its partners as `i`'s partner words, at `run_words[offset..]`.
    let mut runs: Vec<[u32; 4]> = Vec::new();
    let mut run_words: Vec<u64> = Vec::new();
    // Scratch: the partner bitset, the classes (each `width` partner
    // words), each class's shared-link mask (`words` each), and one link
    // row's partner words.
    let mut partners = vec![0u64; on_link.words];
    let (mut classes, mut shared, mut row) = (Vec::new(), Vec::new(), Vec::new());
    for (i, path) in paths.iter().enumerate() {
        col_starts.push(cols.len());
        partners.fill(0);
        for &l in path.links() {
            for (p, r) in partners.iter_mut().zip(on_link.row(l)) {
                *p |= r;
            }
        }
        // Keep only `j > i`.
        partners[..i / 64].fill(0);
        partners[i / 64] &= (u64::MAX << (i % 64)) << 1;
        let first = cols.len();
        cols.extend((0..on_link.words as u32).filter(|&w| partners[w as usize] != 0));
        let cols_i = &cols[first..];
        let width = cols_i.len();
        if width == 0 {
            continue;
        }
        classes.clear();
        classes.extend(cols_i.iter().map(|&w| partners[w as usize]));
        shared.clear();
        shared.resize(words, 0);
        for &l in path.links() {
            row.clear();
            row.extend(cols_i.iter().map(|&w| on_link.row(l)[w as usize]));
            let (word, bit) = (l.index() / 64, 1u64 << (l.index() % 64));
            for c in 0..classes.len() / width {
                let class = c * width..(c + 1) * width;
                let (mut on, mut off) = (0, 0);
                for (m, r) in classes[class.clone()].iter().zip(&row) {
                    on |= m & r;
                    off |= m & !r;
                }
                if on == 0 {
                    continue;
                }
                let mut marked = c;
                if off != 0 {
                    // The members on `l` become a class of their own.
                    marked = classes.len() / width;
                    classes.extend_from_within(class.clone());
                    for (k, r) in row.iter().enumerate() {
                        classes[c * width + k] &= !r;
                        classes[marked * width + k] &= r;
                    }
                    shared.extend_from_within(c * words..(c + 1) * words);
                }
                shared[marked * words + word] |= bit;
            }
        }
        for (class, mask) in classes.chunks_exact(width).zip(shared.chunks_exact(words)) {
            let g = match index.get(mask) {
                Some(&g) => g,
                None => {
                    sizes.push(0);
                    index.insert(mask.to_vec(), sizes.len() as u32 - 1);
                    sizes.len() as u32 - 1
                }
            };
            let count: u32 = class.iter().map(|w| w.count_ones()).sum();
            sizes[g as usize] += count as usize;
            runs.push([g, i as u32, count, run_words.len() as u32]);
            run_words.extend_from_slice(class);
        }
    }
    col_starts.push(cols.len());
    // The kept groups in `τ` order (every `τ` is distinct), each group's
    // offset in that order, and the pairs placed at their offsets. A path's
    // index is its id.
    let mut kept: Vec<(LinkSeq, usize)> = index
        .into_iter()
        .filter(|&(_, g)| sizes[g as usize] >= min_pairs)
        .map(|(shared, g)| {
            let links = shared
                .iter()
                .enumerate()
                .flat_map(|(w, &word)| set_bits(word).map(move |b| LinkId(w * 64 + b)))
                .collect();
            (LinkSeq::new(links), g as usize)
        })
        .collect();
    kept.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    const DROPPED: usize = usize::MAX;
    let mut next = vec![DROPPED; sizes.len()];
    let mut total = 0;
    for &(_, g) in &kept {
        next[g] = total;
        total += sizes[g];
    }
    let mut store = SliceStore {
        pairs: vec![[PathId(0); 2]; total],
        rows: Vec::with_capacity(total),
        paths: Vec::new(),
    };
    for &[g, i, count, offset] in &runs {
        let at = next[g as usize];
        if at == DROPPED {
            continue;
        }
        let (i, count, offset) = (i as usize, count as usize, offset as usize);
        let cols_i = &cols[col_starts[i]..col_starts[i + 1]];
        let class = &run_words[offset..offset + cols_i.len()];
        let mut out = store.pairs[at..at + count].iter_mut();
        for (&w, &word) in cols_i.iter().zip(class) {
            for (b, pair) in set_bits(word).zip(&mut out) {
                *pair = [PathId(i), PathId(w as usize * 64 + b)];
            }
        }
        next[g as usize] = at + count;
    }
    drop((runs, run_words));
    let mut bits = vec![0u64; paths.len().div_ceil(64)];
    let mut row_of = vec![0u32; paths.len()];
    let mut spans = Vec::with_capacity(kept.len());
    let mut lo = 0;
    for &(_, g) in &kept {
        let pairs = lo..lo + sizes[g];
        lo = pairs.end;
        let paths = store.index(pairs.clone(), &mut bits, &mut row_of);
        spans.push((pairs, paths));
    }
    let store = Arc::new(store);
    kept.into_iter()
        .zip(spans)
        .map(|((tau, _), (pairs, paths))| Slice {
            tau,
            store: Arc::clone(&store),
            pairs,
            paths,
        })
        .collect()
}

/// The slice for a specific `τ`, if any path pair shares exactly `τ`.
pub fn slice_for(topology: &Topology, tau: &LinkSeq) -> Option<Slice> {
    enumerate_slices(topology)
        .into_iter()
        .find(|s| s.tau() == tau)
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
        let taus: Vec<&LinkSeq> = slices.iter().map(|s| s.tau()).collect();
        assert_eq!(slices.len(), 2);
        assert!(taus.contains(&&LinkSeq::single(l1)));
        assert!(taus.contains(&&LinkSeq::new(vec![l1, l2])));
        assert!(slice_for(g, &LinkSeq::single(l2)).is_none());

        // ⟨l1⟩ has the pairs {p1,p4}, {p2,p4}, {p3,p4} (paths 0-indexed).
        let s1 = slice_for(g, &LinkSeq::single(l1)).unwrap();
        assert_eq!(s1.pair_count(), 3);
        assert!(s1.pairs().iter().all(|&[_, b]| b == PathId(3)));
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
        for (i, _) in s.paths().iter().enumerate() {
            y.push(x_tau + deltas[i]);
        }
        for &[a, b] in s.pairs() {
            let ia = s.paths().binary_search(&a).unwrap();
            let ib = s.paths().binary_search(&b).unwrap();
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
                analyzable.iter().any(|s| s.tau().contains(pol)),
                "policer {pol} not covered"
            );
        }
    }

    #[test]
    fn slices_are_deterministically_ordered() {
        let t = topology_b();
        let a = enumerate_slices(&t.topology);
        let b = enumerate_slices(&t.topology);
        let taus_a: Vec<&LinkSeq> = a.iter().map(|s| s.tau()).collect();
        let taus_b: Vec<&LinkSeq> = b.iter().map(|s| s.tau()).collect();
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

    #[test]
    #[should_panic(expected = "distinct")]
    fn self_pair_rejected() {
        Slice::new(LinkSeq::single(LinkId(0)), vec![[PathId(2), PathId(2)]]);
    }

    #[test]
    fn reversed_pair_sorts_its_members() {
        let tau = LinkSeq::single(LinkId(0));
        let (p1, p3) = (PathId(1), PathId(3));
        let forward = Slice::new(tau.clone(), vec![[p1, p3]]);
        let reversed = Slice::new(tau, vec![[p3, p1]]);
        let theta: Vec<&[PathId]> = reversed.theta().collect();
        assert_eq!(theta, [&[p1][..], &[p3], &[p1, p3]]);
        assert_eq!(reversed.routing_matrix(), forward.routing_matrix());
    }
}
