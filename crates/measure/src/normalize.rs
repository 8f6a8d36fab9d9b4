//! Algorithm 2: computation of pathset performance numbers (§6.2, Appendix).
//!
//! Per interval `t`:
//!
//! 1. `m = min_{p ∈ Paths(τ)} |M[t][p]|` — the common packet budget;
//! 2. every path's measurement is *discounted* to `m` random packets
//!    (the retained losses follow a hypergeometric draw);
//! 3. a path is congestion-free when its retained loss fraction is below the
//!    loss threshold (Table 1: 1% default);
//! 4. a pathset is congestion-free when **all** member paths are;
//! 5. `y_Θ = -ln( fraction of intervals in which Θ was congestion-free )`.
//!
//! The normalization is the paper's defence against mistaking TCP dynamics
//! for differentiation: a neutral drop-tail queue drops *different amounts*
//! from flows of different sizes, but it produces loss *events* on all of
//! them in the same intervals; comparing similarly sized aggregates under a
//! frequency metric keeps those observations consistent (§6.5).
//!
//! [`SlidingCounts`](crate::SlidingCounts) is the one engine that runs
//! these steps for inference, batch and streaming alike. The whole-log
//! [`group_indicators`] + [`pathset_cf_counts`] pair below is the reference
//! model of the same computation, kept for the tests that check the engine
//! against it.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::record::MeasurementLog;
use nni_topology::PathId;

/// Process-wide count of per-(group, interval) indicator evaluations — the
/// unit of Algorithm 2 work. A full recompute of a `T`-interval log costs
/// `T` evaluations per group; an incremental consumer pays one per closed
/// interval. The streaming speedup gate reads this to prove the incremental
/// path does asymptotically less work, independent of wall-clock noise.
static INTERVAL_EVALS: AtomicU64 = AtomicU64::new(0);

/// Total per-(group, interval) indicator evaluations since process start
/// (monotonic; probe by delta).
///
/// The engine adds one per (distinct group, interval) it folds, whether it
/// evaluated that cell or skipped it because some group path sent nothing
/// (no common packet budget, so the cell is uninformative by definition).
/// The count is therefore the work a fold is responsible for, not the
/// indicator columns it happened to compute.
pub fn interval_eval_count() -> u64 {
    INTERVAL_EVALS.load(Ordering::Relaxed)
}

/// Adds `n` (group, interval) evaluations to [`interval_eval_count`].
pub(crate) fn count_evals(n: u64) {
    INTERVAL_EVALS.fetch_add(n, Ordering::Relaxed);
}

/// Exact hypergeometric draw: out of `total` packets of which `marked` are
/// lost, sample `draw` without replacement; returns how many lost packets
/// land in the sample.
///
/// Sequential construction over the marked packets: the probability that the
/// next marked packet falls into the remaining sample slots is
/// `remaining_draw / remaining_total`. Runs in `O(marked)` — loss counts are
/// small, packet counts large, so this is far cheaper than sampling the
/// packets themselves.
pub fn hypergeometric<R: Rng + ?Sized>(rng: &mut R, total: u64, marked: u64, draw: u64) -> u64 {
    assert!(marked <= total, "cannot mark more than total");
    assert!(draw <= total, "cannot draw more than total");
    let mut remaining_total = total;
    let mut remaining_draw = draw;
    let mut hits = 0;
    for _ in 0..marked {
        if remaining_draw == 0 {
            break;
        }
        let p = remaining_draw as f64 / remaining_total as f64;
        if rng.gen::<f64>() < p {
            hits += 1;
            remaining_draw -= 1;
        }
        remaining_total -= 1;
    }
    hits
}

/// Configuration of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct NormalizeConfig {
    /// Loss threshold below which an interval counts as congestion-free
    /// (Table 1: 1% default, 5% and 10% variants).
    pub loss_threshold: f64,
    /// RNG seed for the packet-discounting draws (deterministic runs).
    pub seed: u64,
    /// When set, the congestion-free indicator becomes the **joint
    /// loss+delay feature**: an interval is congestion-free only when the
    /// loss feature passes *and* the path's p90 one-way delay is not
    /// inflated relative to its baseline (see
    /// [`nni_core::DelayFeature`]). Ignored — i.e. pure loss-only,
    /// bit-identical to the paper's feature — when the log carries no
    /// delay grid.
    pub delay: Option<nni_core::DelayFeature>,
}

impl Default for NormalizeConfig {
    fn default() -> Self {
        NormalizeConfig {
            loss_threshold: 0.01,
            seed: 0x5eed,
            delay: None,
        }
    }
}

/// Per-interval congestion-free indicators `S[t][{p}]` for each path of a
/// normalization group, after discounting to the group's common packet
/// budget.
///
/// Intervals in which some group path sent nothing carry no information
/// (the common budget is zero) and are marked `None`.
pub fn group_indicators(
    log: &MeasurementLog,
    group: &[PathId],
    cfg: NormalizeConfig,
) -> Vec<Vec<Option<bool>>> {
    let t_max = log.interval_count();
    let baselines: Vec<Option<f64>> = group.iter().map(|&p| log.delay_baseline(p)).collect();
    let mut out = vec![Vec::with_capacity(t_max); group.len()];
    let mut col = vec![None; group.len()];
    count_evals(t_max as u64);
    for t in 0..t_max {
        indicator_column(log, group, t, cfg, &baselines, &mut col);
        for (row, &s) in out.iter_mut().zip(&col) {
            row.push(s);
        }
    }
    out
}

/// One interval's congestion-free indicators for a normalization group —
/// the column `S[t][·]` of [`group_indicators`] — written into `col` (one
/// cell per group path). `baselines` are the group paths'
/// [`MeasurementLog::delay_baseline`]s, read only when `cfg.delay` is set.
///
/// The discounting draw is seeded per `(seed, interval, path)`, so the
/// indicator of a closed interval never depends on which intervals exist
/// around it: computing columns one at a time as a stream closes them
/// yields bit-identical indicators to a batch pass over the finished log.
pub(crate) fn indicator_column(
    log: &MeasurementLog,
    group: &[PathId],
    t: usize,
    cfg: NormalizeConfig,
    baselines: &[Option<f64>],
    col: &mut [Option<bool>],
) {
    col.fill(None);
    let m = group.iter().map(|&p| log.sent(t, p)).min().unwrap_or(0);
    if m == 0 {
        return;
    }
    for (gi, &p) in group.iter().enumerate() {
        let sent = log.sent(t, p);
        let lost = log.lost(t, p).min(sent);
        let retained_lost = if sent == m {
            lost
        } else {
            // Deterministic per (seed, interval, path): independent of the
            // order in which slices query the oracle.
            let mut rng = StdRng::seed_from_u64(
                cfg.seed
                    ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (p.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
            );
            hypergeometric(&mut rng, sent, lost, m)
        };
        // Algorithm 2 line 11: congestion-free iff lost fraction below
        // the threshold of the *common* budget m.
        let mut cf = (retained_lost as f64) < cfg.loss_threshold * m as f64;
        // Joint loss+delay feature: additionally require that the path's
        // p90 delay is not inflated over its baseline. Cells without delay
        // samples carry no delay evidence and fall back to the loss half.
        if let Some(feature) = cfg.delay {
            if let (Some(stats), Some(baseline)) = (log.delay(t, p), baselines[gi]) {
                cf = cf && !feature.inflated(stats.p90_s, baseline);
            }
        }
        col[gi] = Some(cf);
    }
}

/// The congestion-free probability of a *pathset* given the group
/// indicators: the fraction of informative intervals in which all member
/// paths were congestion-free (Algorithm 2 lines 17–23).
///
/// `member_rows` indexes into `indicators` (one row per member path).
/// Returns `(cf_intervals, informative_intervals)`.
pub fn pathset_cf_counts(
    indicators: &[Vec<Option<bool>>],
    member_rows: &[usize],
) -> (usize, usize) {
    assert!(!member_rows.is_empty(), "pathsets are non-empty");
    let t_max = indicators.first().map_or(0, Vec::len);
    let mut cf = 0;
    let mut informative = 0;
    // `t` walks several indicator rows in lockstep; indexing keeps that
    // symmetric across rows.
    #[allow(clippy::needless_range_loop)]
    for t in 0..t_max {
        let states: Option<Vec<bool>> = member_rows.iter().map(|&r| indicators[r][t]).collect();
        if let Some(states) = states {
            informative += 1;
            if states.iter().all(|&s| s) {
                cf += 1;
            }
        }
    }
    (cf, informative)
}

/// Converts congestion-free counts to the performance number
/// `y = -ln P(congestion-free)`.
///
/// A pathset never observed congestion-free would have `y = ∞`; the estimate
/// is clamped by half a count (`0.5 / T`), the usual continuity correction
/// for log-of-frequency estimators. With zero informative intervals the
/// pathset is assumed congestion-free (`y = 0`) — no evidence, no accusation.
pub fn perf_from_counts(cf: usize, informative: usize) -> f64 {
    if informative == 0 {
        return 0.0;
    }
    let p = (cf as f64).max(0.5) / informative as f64;
    -p.min(1.0).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hypergeometric_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let h = hypergeometric(&mut rng, 100, 10, 30);
            assert!(h <= 10);
        }
        // Degenerate cases.
        assert_eq!(hypergeometric(&mut rng, 50, 0, 20), 0);
        assert_eq!(hypergeometric(&mut rng, 50, 50, 50), 50);
        assert_eq!(hypergeometric(&mut rng, 50, 5, 0), 0);
    }

    #[test]
    fn hypergeometric_mean_converges() {
        // E[h] = draw * marked / total = 30 * 10 / 100 = 3.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| hypergeometric(&mut rng, 100, 10, 30)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn indicators_skip_empty_intervals() {
        let mut log = MeasurementLog::new(2, 0.1);
        let (p0, p1) = (PathId(0), PathId(1));
        // Interval 0: both active, p1 heavily lossy.
        log.record_sent(0, p0, 100);
        log.record_sent(0, p1, 100);
        log.record_lost(0, p1, 50);
        // Interval 1: p1 silent.
        log.record_sent(1, p0, 100);
        let ind = group_indicators(&log, &[p0, p1], NormalizeConfig::default());
        assert_eq!(ind[0][0], Some(true));
        assert_eq!(ind[1][0], Some(false));
        assert_eq!(ind[0][1], None, "no common budget in interval 1");
        assert_eq!(ind[1][1], None);
    }

    #[test]
    fn normalization_discounts_to_common_budget() {
        // p0 sends 1000 with 500 lost (50%); p1 sends 10. The draw retains
        // ~50% of 10 packets for p0: still far above a 1% threshold.
        let mut log = MeasurementLog::new(2, 0.1);
        let (p0, p1) = (PathId(0), PathId(1));
        log.record_sent(0, p0, 1000);
        log.record_lost(0, p0, 500);
        log.record_sent(0, p1, 10);
        let ind = group_indicators(&log, &[p0, p1], NormalizeConfig::default());
        assert_eq!(
            ind[0][0],
            Some(false),
            "50% loss stays congested after discount"
        );
        assert_eq!(ind[1][0], Some(true));
    }

    #[test]
    fn indicators_deterministic_across_calls_and_group_order() {
        let mut log = MeasurementLog::new(2, 0.1);
        let (p0, p1) = (PathId(0), PathId(1));
        for t in 0..50 {
            log.record_sent(t, p0, 200);
            log.record_lost(t, p0, (t % 7) as u64);
            log.record_sent(t, p1, 100);
            log.record_lost(t, p1, (t % 3) as u64);
        }
        let cfg = NormalizeConfig::default();
        let a = group_indicators(&log, &[p0, p1], cfg);
        let b = group_indicators(&log, &[p1, p0], cfg);
        assert_eq!(a[0], b[1], "p0's indicators must not depend on group order");
        assert_eq!(a[1], b[0]);
    }

    #[test]
    fn pathset_counts_and_perf() {
        // Two paths over 4 intervals; one uninformative interval.
        let ind = vec![
            vec![Some(true), Some(true), Some(false), None],
            vec![Some(true), Some(false), Some(true), None],
        ];
        let (cf, total) = pathset_cf_counts(&ind, &[0]);
        assert_eq!((cf, total), (2, 3));
        let (cf_pair, total_pair) = pathset_cf_counts(&ind, &[0, 1]);
        assert_eq!((cf_pair, total_pair), (1, 3));
        let y = perf_from_counts(cf_pair, total_pair);
        assert!((y + (1.0f64 / 3.0).ln()).abs() < 1e-12);
    }

    /// Two lossless paths over four intervals; p1's delay balloons from
    /// 10 ms to 2 s after interval 0 while p0 stays flat.
    fn delay_inflation_log() -> MeasurementLog {
        use crate::record::DelayStats;
        let mut log = MeasurementLog::new(2, 0.1);
        let ms = |k: u64| Some(DelayStats::from_sorted_ns(&[k * 1_000_000]).unwrap());
        for t in 0..4 {
            log.record_sent(t, PathId(0), 100);
            log.record_sent(t, PathId(1), 100);
        }
        log.set_delay(vec![
            vec![ms(10), ms(10)],
            vec![ms(10), ms(2_000)],
            vec![ms(11), ms(2_100)],
            vec![ms(10), ms(2_200)],
        ]);
        log
    }

    #[test]
    fn joint_feature_flags_delay_inflation_without_loss() {
        let log = delay_inflation_log();
        let (p0, p1) = (PathId(0), PathId(1));
        let loss_only = NormalizeConfig::default();
        let ind = group_indicators(&log, &[p0, p1], loss_only);
        assert!(ind.iter().flatten().all(|s| *s == Some(true)));
        // The joint feature sees the inflation, on the inflated path only.
        let joint = NormalizeConfig {
            delay: Some(nni_core::DelayFeature::default()),
            ..loss_only
        };
        let ind = group_indicators(&log, &[p0, p1], joint);
        assert_eq!(ind[0], vec![Some(true); 4]);
        assert_eq!(
            ind[1],
            vec![Some(true), Some(false), Some(false), Some(false)]
        );
    }

    #[test]
    fn joint_feature_engine_matches_the_reference() {
        use crate::SlidingCounts;
        use nni_topology::PathSet;
        let log = delay_inflation_log();
        let (p0, p1) = (PathId(0), PathId(1));
        let group = [p0, p1];
        let sets = [
            PathSet::single(p0),
            PathSet::single(p1),
            PathSet::pair(p0, p1),
        ];
        let joint = NormalizeConfig {
            delay: Some(nni_core::DelayFeature::default()),
            ..NormalizeConfig::default()
        };
        let mut engine = SlidingCounts::new(joint, None, [(&group[..], &sets[..])]);
        engine.advance(&log, log.interval_count());
        let ind = group_indicators(&log, &group, joint);
        let y = |rows: &[usize]| {
            let (cf, informative) = pathset_cf_counts(&ind, rows);
            perf_from_counts(cf, informative)
        };
        assert_eq!(engine.ys(), vec![vec![y(&[0]), y(&[1]), y(&[0, 1])]]);
        assert!(engine.ys()[0][1] > 1.0, "p1's inflation shows");
    }

    #[test]
    fn joint_feature_without_delay_grid_is_loss_only() {
        let mut log = MeasurementLog::new(1, 0.1);
        log.record_sent(0, PathId(0), 100);
        log.record_lost(0, PathId(0), 50);
        log.record_sent(1, PathId(0), 100);
        let joint = NormalizeConfig {
            delay: Some(nni_core::DelayFeature::default()),
            ..NormalizeConfig::default()
        };
        let a = group_indicators(&log, &[PathId(0)], NormalizeConfig::default());
        let b = group_indicators(&log, &[PathId(0)], joint);
        assert_eq!(a, b, "no delay grid: the joint feature is pure loss");
    }

    #[test]
    fn perf_from_counts_edge_cases() {
        assert_eq!(perf_from_counts(0, 0), 0.0);
        assert_eq!(perf_from_counts(10, 10), 0.0);
        // Zero congestion-free intervals: clamped, finite, large.
        let y = perf_from_counts(0, 100);
        assert!(y.is_finite() && y > 5.0);
    }
}
