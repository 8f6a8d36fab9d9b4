//! Pathsets — the unit of external observation.
//!
//! §2.3: a pathset is a set of paths; its performance number `y_Θ` is
//! `-ln P(Θ)` where `P(Θ)` is the probability that *all* member paths are
//! congestion-free during a time interval. Observable violation #2 (§3.3)
//! shows why multi-path pathsets matter: correlations between paths only
//! surface when they are observed *as a pair*.

use crate::ids::PathId;

/// A non-empty set of paths, stored sorted for canonical equality/hashing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathSet {
    paths: Vec<PathId>,
}

impl PathSet {
    /// Creates a pathset from any collection of paths (sorted, deduplicated).
    ///
    /// # Panics
    /// Panics when the resulting set is empty — the theory never uses `∅`.
    pub fn new(mut paths: Vec<PathId>) -> PathSet {
        paths.sort();
        paths.dedup();
        assert!(!paths.is_empty(), "pathsets are non-empty by construction");
        PathSet { paths }
    }

    /// Singleton `{p}`.
    pub fn single(p: PathId) -> PathSet {
        PathSet { paths: vec![p] }
    }

    /// Pair `{p_i, p_j}`.
    ///
    /// # Panics
    /// Panics when `a == b`.
    pub fn pair(a: PathId, b: PathId) -> PathSet {
        assert_ne!(a, b, "a pair requires two distinct paths");
        PathSet::new(vec![a, b])
    }

    /// Member paths (sorted).
    pub fn paths(&self) -> &[PathId] {
        &self.paths
    }

    /// Number of member paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Pathsets are never empty; provided for clippy-idiomatic completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Membership test.
    pub fn contains(&self, p: PathId) -> bool {
        self.paths.binary_search(&p).is_ok()
    }

    /// Renders as the paper's `{p1, p3}` notation.
    pub fn render(&self) -> String {
        let inner: Vec<String> = self.paths.iter().map(|p| p.to_string()).collect();
        format!("{{{}}}", inner.join(", "))
    }
}

impl AsRef<[PathId]> for PathSet {
    fn as_ref(&self) -> &[PathId] {
        &self.paths
    }
}

impl std::fmt::Display for PathSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl FromIterator<PathId> for PathSet {
    fn from_iter<T: IntoIterator<Item = PathId>>(iter: T) -> Self {
        PathSet::new(iter.into_iter().collect())
    }
}

/// Enumerates the full power set `P*` of `n` paths, minus the empty set.
///
/// Exponential — intended for the exact-mode oracle on the small theory
/// examples (Figures 1–5, `n <= ~12`).
pub fn power_set(n: usize) -> Vec<PathSet> {
    assert!(n <= 20, "power set of {n} paths would be excessive");
    let mut out = Vec::with_capacity((1usize << n) - 1);
    for mask in 1u32..(1u32 << n) {
        let paths: Vec<PathId> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(PathId)
            .collect();
        out.push(PathSet::new(paths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let s = PathSet::new(vec![PathId(2), PathId(0), PathId(2)]);
        assert_eq!(s.paths(), &[PathId(0), PathId(2)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pathset_panics() {
        PathSet::new(vec![]);
    }

    #[test]
    fn pair_requires_distinct() {
        let p = PathSet::pair(PathId(0), PathId(1));
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_pair_panics() {
        PathSet::pair(PathId(1), PathId(1));
    }

    #[test]
    fn canonical_equality() {
        assert_eq!(
            PathSet::new(vec![PathId(1), PathId(0)]),
            PathSet::new(vec![PathId(0), PathId(1)])
        );
    }

    #[test]
    fn subset_of_paths() {
        // {p0, p2} lies inside {p0, p1, p2} but not inside {p0, p1}.
        let s = PathSet::new(vec![PathId(0), PathId(2)]);
        assert!(s.contains(PathId(0)) && s.contains(PathId(2)));
        assert!(!s.contains(PathId(1)));
    }

    #[test]
    fn power_set_size() {
        assert_eq!(power_set(3).len(), 7);
        assert_eq!(power_set(1).len(), 1);
    }

    #[test]
    fn power_set_contains_full_set() {
        let ps = power_set(3);
        let full = PathSet::new(vec![PathId(0), PathId(1), PathId(2)]);
        assert!(ps.contains(&full));
    }

    #[test]
    fn render_matches_paper_notation() {
        let s = PathSet::new(vec![PathId(1), PathId(3)]);
        assert_eq!(s.render(), "{p1, p3}");
    }
}
