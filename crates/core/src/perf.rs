//! Performance numbers (§2.3).
//!
//! The paper's metric: time is divided into intervals; a link / link sequence
//! / path is *congestion-free* in an interval when it introduces (or
//! experiences) negligible packet loss. The performance number for class
//! `c_n` is
//!
//! ```text
//! x(n) = -ln P(cf for class n per interval)
//! ```
//!
//! so `x = 0` means always congestion-free and larger is worse. The metric is
//! additive in the sense of Equations 1 and 2, which is what makes the
//! linear-system machinery work.

use nni_topology::{LinkId, Topology};

/// Converts a congestion-free probability to a performance number.
///
/// # Panics
/// Panics when `p` is outside `(0, 1]` — a zero probability has an infinite
/// performance number and is rejected rather than silently propagated.
pub fn perf_from_prob(p: f64) -> f64 {
    assert!(
        p > 0.0 && p <= 1.0,
        "congestion-free probability must be in (0, 1]"
    );
    -p.ln()
}

/// Converts a performance number back to a congestion-free probability.
pub fn prob_from_perf(x: f64) -> f64 {
    assert!(x >= 0.0, "performance numbers are non-negative");
    (-x).exp()
}

/// Per-class performance numbers of one link: `{x(n) | n = 1..|C|}`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPerf {
    per_class: Vec<f64>,
}

impl LinkPerf {
    /// A neutral link: the same number for every class.
    pub fn neutral(x: f64, class_count: usize) -> LinkPerf {
        assert!(x >= 0.0, "performance numbers are non-negative");
        LinkPerf {
            per_class: vec![x; class_count],
        }
    }

    /// A (possibly) non-neutral link from explicit per-class numbers.
    pub fn per_class(xs: Vec<f64>) -> LinkPerf {
        assert!(!xs.is_empty(), "at least one class required");
        assert!(
            xs.iter().all(|&x| x >= 0.0),
            "performance numbers are non-negative"
        );
        LinkPerf { per_class: xs }
    }

    /// Number of classes this link knows about.
    pub fn class_count(&self) -> usize {
        self.per_class.len()
    }

    /// `x(n)`.
    pub fn for_class(&self, n: usize) -> f64 {
        self.per_class[n]
    }

    /// Whether the link is neutral: identical numbers for all classes (§2.3).
    pub fn is_neutral(&self) -> bool {
        self.per_class
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() < 1e-12)
    }

    /// The *top-priority class*: the class with the highest performance,
    /// i.e. the smallest `x` (§2.3). Ties break toward the lowest index.
    pub fn top_class(&self) -> usize {
        let mut best = 0;
        for (n, &x) in self.per_class.iter().enumerate() {
            if x < self.per_class[best] {
                best = n;
            }
        }
        best
    }
}

/// Ground-truth performance numbers of every link in a network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPerf {
    links: Vec<LinkPerf>,
    class_count: usize,
}

impl NetworkPerf {
    /// A fully neutral network where link `l` has performance `xs[l]`.
    pub fn neutral(xs: &[f64], class_count: usize) -> NetworkPerf {
        NetworkPerf {
            links: xs
                .iter()
                .map(|&x| LinkPerf::neutral(x, class_count))
                .collect(),
            class_count,
        }
    }

    /// A neutral baseline (all zeros) that callers then override per link.
    pub fn congestion_free(topology: &Topology, class_count: usize) -> NetworkPerf {
        NetworkPerf::neutral(&vec![0.0; topology.link_count()], class_count)
    }

    /// Overrides one link's performance numbers; returns `self` for chaining.
    pub fn with_link(mut self, l: LinkId, perf: LinkPerf) -> NetworkPerf {
        assert_eq!(
            perf.class_count(),
            self.class_count,
            "class count mismatch on override"
        );
        self.links[l.index()] = perf;
        self
    }

    /// Number of classes `|C|`.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Per-link accessor.
    pub fn link(&self, l: LinkId) -> &LinkPerf {
        &self.links[l.index()]
    }

    /// Ground-truth non-neutral links `L_n̄`.
    pub fn nonneutral_links(&self) -> Vec<LinkId> {
        (0..self.links.len())
            .filter(|&i| !self.links[i].is_neutral())
            .map(LinkId)
            .collect()
    }

    /// Whether the whole network is neutral.
    pub fn is_neutral(&self) -> bool {
        self.links.iter().all(LinkPerf::is_neutral)
    }

    /// Performance of link sequence `σ` for class `n` (Equation 1: the sum of
    /// member links' numbers for that class).
    pub fn seq_perf(&self, seq: &[LinkId], n: usize) -> f64 {
        seq.iter().map(|&l| self.link(l).for_class(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_prob_round_trip() {
        for p in [1.0, 0.5, 0.25, 0.9] {
            let x = perf_from_prob(p);
            assert!((prob_from_perf(x) - p).abs() < 1e-12);
        }
        assert_eq!(perf_from_prob(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn zero_probability_rejected() {
        perf_from_prob(0.0);
    }

    #[test]
    fn neutral_link_detection() {
        assert!(LinkPerf::neutral(0.3, 3).is_neutral());
        assert!(LinkPerf::per_class(vec![0.1, 0.1]).is_neutral());
        assert!(!LinkPerf::per_class(vec![0.1, 0.2]).is_neutral());
    }

    #[test]
    fn top_class_is_smallest_x() {
        // Smaller x = higher congestion-free probability = better service.
        let l = LinkPerf::per_class(vec![0.5, 0.0, 0.7]);
        assert_eq!(l.top_class(), 1);
        // Neutral link: top class is class 0 by convention.
        assert_eq!(LinkPerf::neutral(0.2, 3).top_class(), 0);
    }

    #[test]
    fn network_overrides() {
        let xs = [0.0, 0.0, 0.0];
        let net =
            NetworkPerf::neutral(&xs, 2).with_link(LinkId(1), LinkPerf::per_class(vec![0.0, 0.69]));
        assert!(net.link(LinkId(0)).is_neutral());
        assert!(!net.link(LinkId(1)).is_neutral());
        assert_eq!(net.nonneutral_links(), vec![LinkId(1)]);
        assert!(!net.is_neutral());
    }

    #[test]
    fn seq_perf_is_additive() {
        // Figure 1(a) example: sequence ⟨l1, l3⟩ has perf x1(n) + x3.
        let net = NetworkPerf::neutral(&[0.0, 0.0, 0.2, 0.0], 2)
            .with_link(LinkId(0), LinkPerf::per_class(vec![0.1, 0.4]));
        let seq = [LinkId(0), LinkId(2)];
        assert!((net.seq_perf(&seq, 0) - 0.3).abs() < 1e-12);
        assert!((net.seq_perf(&seq, 1) - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "class count mismatch")]
    fn override_class_count_checked() {
        let _ = NetworkPerf::neutral(&[0.0], 2).with_link(LinkId(0), LinkPerf::neutral(0.0, 3));
    }
}
