//! Two-cluster classification of one-dimensional "unsolvability" scores.
//!
//! §6.2 of the paper: *"Based on this unsolvability, we assign the system to
//! one of two clusters using standard clustering; we decide that the system
//! 'has a solution' when it belongs to the low-unsolvability cluster."*
//!
//! A naive 2-means always produces two clusters, even over pure noise — which
//! would misclassify half of a fully neutral network's slices as non-neutral.
//! The paper reports zero false positives across every experiment, so its
//! clustering implicitly refuses to split when the two candidate clusters are
//! not meaningfully separated. [`SeparationGuard`] makes that rule explicit
//! and tunable (the `exp_robustness` bench sweeps it).

/// Assignment of each score to the low (`false`) or high (`true`) cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoClusters {
    /// `true` entries belong to the high-value cluster.
    pub high: Vec<bool>,
    /// Centroid of the low cluster.
    pub low_centroid: f64,
    /// Centroid of the high cluster (equals `low_centroid` when degenerate).
    pub high_centroid: f64,
    /// Whether the guard collapsed everything into the low cluster.
    pub collapsed: bool,
}

/// Minimum-separation rule that prevents splitting pure noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeparationGuard {
    /// Absolute floor: centroids closer than this are one cluster.
    ///
    /// Unsolvability scores are differences of `-ln P(congestion-free)`
    /// estimates, so `0.02` ≈ a 2% disagreement in congestion-free
    /// probability — comfortably above sampling noise at ≥1200 intervals.
    pub abs_floor: f64,
    /// Relative factor: the high centroid must exceed
    /// `rel_factor * low_centroid` for the split to stand.
    pub rel_factor: f64,
}

impl Default for SeparationGuard {
    fn default() -> Self {
        SeparationGuard {
            abs_floor: 0.02,
            rel_factor: 3.0,
        }
    }
}

impl SeparationGuard {
    /// A guard that never collapses (pure 2-means, for testing).
    pub fn off() -> Self {
        SeparationGuard {
            abs_floor: 0.0,
            rel_factor: 0.0,
        }
    }

    fn permits(&self, low: f64, high: f64) -> bool {
        let gap = high - low;
        gap > self.abs_floor && high > self.rel_factor * low
    }
}

/// Exact 1-D 2-means: scores are sorted and every split point is evaluated;
/// the split minimising within-cluster sum of squares wins. With the guard,
/// insufficiently separated clusters collapse to a single (low) cluster.
///
/// Empty input yields an empty assignment; a single score is always "low".
pub fn two_means(scores: &[f64], guard: SeparationGuard) -> TwoClusters {
    let n = scores.len();
    if n == 0 {
        return TwoClusters {
            high: Vec::new(),
            low_centroid: 0.0,
            high_centroid: 0.0,
            collapsed: true,
        };
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .expect("NaN unsolvability score")
    });
    let sorted: Vec<f64> = order.iter().map(|&i| scores[i]).collect();

    // Prefix sums for O(1) within-cluster SSE at every split.
    let mut prefix = vec![0.0; n + 1];
    let mut prefix_sq = vec![0.0; n + 1];
    for (i, &s) in sorted.iter().enumerate() {
        prefix[i + 1] = prefix[i] + s;
        prefix_sq[i + 1] = prefix_sq[i] + s * s;
    }
    let sse = |a: usize, b: usize| -> f64 {
        // Sum of squared deviations of sorted[a..b].
        let k = (b - a) as f64;
        if k == 0.0 {
            return 0.0;
        }
        let s = prefix[b] - prefix[a];
        let sq = prefix_sq[b] - prefix_sq[a];
        (sq - s * s / k).max(0.0)
    };

    // Best split: low cluster = sorted[..k], high = sorted[k..], 1 <= k < n.
    let mut best_k = n; // n means "no split" (all low)
    let mut best_cost = sse(0, n);
    for k in 1..n {
        let cost = sse(0, k) + sse(k, n);
        if cost < best_cost - 1e-15 {
            best_cost = cost;
            best_k = k;
        }
    }

    if best_k == n {
        let c = prefix[n] / n as f64;
        return TwoClusters {
            high: vec![false; n],
            low_centroid: c,
            high_centroid: c,
            collapsed: true,
        };
    }

    let low_centroid = prefix[best_k] / best_k as f64;
    let high_centroid = (prefix[n] - prefix[best_k]) / (n - best_k) as f64;

    if !guard.permits(low_centroid, high_centroid) {
        let c = prefix[n] / n as f64;
        return TwoClusters {
            high: vec![false; n],
            low_centroid: c,
            high_centroid: c,
            collapsed: true,
        };
    }

    let mut high = vec![false; n];
    for (rank_pos, &orig) in order.iter().enumerate() {
        high[orig] = rank_pos >= best_k;
    }
    TwoClusters {
        high,
        low_centroid,
        high_centroid,
        collapsed: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clearly_separated_scores_split_correctly() {
        let scores = [0.001, 0.002, 0.5, 0.6, 0.003];
        let c = two_means(&scores, SeparationGuard::default());
        assert!(!c.collapsed);
        assert_eq!(c.high, vec![false, false, true, true, false]);
        assert!(c.low_centroid < 0.01);
        assert!(c.high_centroid > 0.4);
    }

    #[test]
    fn pure_noise_collapses_with_guard() {
        let scores = [0.0011, 0.0012, 0.0013, 0.0014, 0.0015];
        let c = two_means(&scores, SeparationGuard::default());
        assert!(c.collapsed, "noise-level scores must not split");
        assert_eq!(c.high.iter().filter(|&&h| h).count(), 0);
    }

    #[test]
    fn pure_noise_splits_without_guard() {
        let scores = [0.0011, 0.0012, 0.0013, 0.9014, 0.9015];
        let c = two_means(&scores, SeparationGuard::off());
        assert!(!c.collapsed);
        assert_eq!(c.high.iter().filter(|&&h| h).count(), 2);
    }

    #[test]
    fn single_score_is_low() {
        let c = two_means(&[1.0], SeparationGuard::default());
        assert_eq!(c.high, vec![false]);
        assert!(c.collapsed);
    }

    #[test]
    fn empty_input_is_empty() {
        let c = two_means(&[], SeparationGuard::default());
        assert!(c.high.is_empty());
    }

    #[test]
    fn relative_guard_blocks_proportionally_close_clusters() {
        // 0.5 vs 1.0: gap 0.5 > abs floor, but 1.0 < 3 * 0.5 so must collapse.
        let scores = [0.5, 0.5, 1.0, 1.0];
        let c = two_means(&scores, SeparationGuard::default());
        assert!(c.collapsed);
    }

    #[test]
    fn zero_low_cluster_passes_relative_guard() {
        // Low centroid ~0 means any finite high centroid passes rel_factor.
        let scores = [0.0, 0.0, 0.0, 0.25];
        let c = two_means(&scores, SeparationGuard::default());
        assert!(!c.collapsed);
        assert_eq!(c.high, vec![false, false, false, true]);
    }

    #[test]
    fn assignment_preserves_input_order() {
        let scores = [0.9, 0.0, 0.95, 0.01];
        let c = two_means(&scores, SeparationGuard::default());
        assert_eq!(c.high, vec![true, false, true, false]);
    }

    #[test]
    fn optimal_split_minimises_sse() {
        // Three tight groups; 2-means must cut at the largest gap.
        let scores = [0.0, 0.01, 0.02, 0.5, 0.51, 0.52, 0.53];
        let c = two_means(&scores, SeparationGuard::default());
        assert_eq!(c.high.iter().filter(|&&h| h).count(), 4);
    }
}
