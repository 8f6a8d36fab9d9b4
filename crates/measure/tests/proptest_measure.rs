//! Property-based tests for Algorithm 2 (measurement processing).

use nni_measure::{
    group_indicators, hypergeometric, pathset_cf_counts, perf_from_counts, MeasurementLog,
    NormalizeConfig, SlidingCounts,
};
use nni_topology::{PathId, PathSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random measurement log for `paths` paths over `t` intervals
/// (up to 200, so the engine's folds span several 64-interval words and a
/// window above 64 wraps its ring), with a few starved paths on top.
///
/// A uniform `sent` leaves a silent cell a 1-in-500 event, so every
/// 64-interval word would carry some common packet budget. The starved runs
/// silence one path for a single interval, part of a word, or whole words
/// (starting on a word boundary or not, up to the whole log): any group
/// holding that path is uninformative there, so the engine sees chunks with
/// no informative interval, chunks with some, and window evictions of both.
fn log_strategy() -> impl Strategy<Value = MeasurementLog> {
    (2usize..=4, 5usize..=200).prop_flat_map(|(paths, intervals)| {
        let run = (
            0..paths,
            0..intervals,
            0usize..3,
            2usize..40,
            64usize..=200,
            prop::bool::ANY,
        )
            .prop_map(|(p, start, kind, part, words, aligned)| {
                let len = [1, part, words][kind];
                let start = if aligned { start / 64 * 64 } else { start };
                (p, start..start + len)
            });
        (
            prop::collection::vec((0u64..500, 0.0..0.3f64), paths * intervals),
            prop::collection::vec(run, 0..=4),
        )
            .prop_map(move |(cells, starved)| {
                let mut log = MeasurementLog::new(paths, 0.1);
                for (idx, &(sent, loss_frac)) in cells.iter().enumerate() {
                    let t = idx / paths;
                    let p = PathId(idx % paths);
                    let silent = starved
                        .iter()
                        .any(|(q, ts)| *q == p.index() && ts.contains(&t));
                    let sent = if silent { 0 } else { sent };
                    log.record_sent(t, p, sent);
                    log.record_lost(t, p, (sent as f64 * loss_frac) as u64);
                }
                log
            })
    })
}

/// Strategy: a random log over exactly `paths` paths (shared grid, so the
/// result is mergeable with any sibling from the same `paths`).
fn vantage_strategy(paths: usize) -> impl Strategy<Value = MeasurementLog> {
    (5usize..=30).prop_flat_map(move |intervals| {
        prop::collection::vec((0u64..500, 0.0..0.3f64), paths * intervals).prop_map(move |cells| {
            let mut log = MeasurementLog::new(paths, 0.1);
            for (idx, &(sent, loss_frac)) in cells.iter().enumerate() {
                let t = idx / paths;
                let p = PathId(idx % paths);
                log.record_sent(t, p, sent);
                log.record_lost(t, p, (sent as f64 * loss_frac) as u64);
            }
            log
        })
    })
}

/// Strategy: three mergeable vantage logs (same path count and interval
/// grid; interval counts may differ — merge extends the shorter).
fn vantage_logs() -> impl Strategy<Value = (MeasurementLog, MeasurementLog, MeasurementLog)> {
    (2usize..=4).prop_flat_map(|paths| {
        (
            vantage_strategy(paths),
            vantage_strategy(paths),
            vantage_strategy(paths),
        )
    })
}

/// A random non-empty selection from `pool` in random order; one member
/// may appear twice.
fn random_subset(rng: &mut StdRng, pool: &[PathId]) -> Vec<PathId> {
    let mut out: Vec<PathId> = pool.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
    out.push(pool[rng.gen_range(0..pool.len())]);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Random slices over `n` paths: shuffled groups, some with a duplicated
/// member, some repeating an earlier group in reverse order, each with a
/// few random pathsets drawn from the group.
fn random_slices(rng: &mut StdRng, n: usize) -> Vec<(Vec<PathId>, Vec<PathSet>)> {
    let all: Vec<PathId> = (0..n).map(PathId).collect();
    let mut slices: Vec<(Vec<PathId>, Vec<PathSet>)> = Vec::new();
    for _ in 0..rng.gen_range(1..=4) {
        let group: Vec<PathId> = match rng.gen_range(0..slices.len() + 2) {
            k if k < slices.len() => slices[k].0.iter().rev().copied().collect(),
            _ => random_subset(rng, &all),
        };
        let pathsets = (0..rng.gen_range(1..=4))
            .map(|_| PathSet::new(random_subset(rng, &group)))
            .collect();
        slices.push((group, pathsets));
    }
    slices
}

/// The reference model's `y` vectors for `slices` over intervals
/// `lo..hi`: `perf_from_counts(pathset_cf_counts(group_indicators(..)))`
/// with each group exactly as given (unsorted, duplicates kept).
fn reference_ys(
    log: &MeasurementLog,
    cfg: NormalizeConfig,
    slices: &[(Vec<PathId>, Vec<PathSet>)],
    lo: usize,
    hi: usize,
) -> Vec<Vec<f64>> {
    slices
        .iter()
        .map(|(group, pathsets)| {
            let ind: Vec<Vec<Option<bool>>> = group_indicators(log, group, cfg)
                .into_iter()
                .map(|row| row[lo..hi].to_vec())
                .collect();
            pathsets
                .iter()
                .map(|ps| {
                    let rows: Vec<usize> = ps
                        .paths()
                        .iter()
                        .map(|p| group.iter().position(|q| q == p).unwrap())
                        .collect();
                    let (cf, informative) = pathset_cf_counts(&ind, &rows);
                    perf_from_counts(cf, informative)
                })
                .collect()
        })
        .collect()
}

/// Splits `from..=to` into a random sequence of advance targets (repeats
/// allowed: an advance to the current watermark is a no-op). About a third
/// of the cuts snap to a multiple of 64 or one interval either side of it,
/// where the engine's packed words begin and end.
fn random_chunking(rng: &mut StdRng, from: usize, to: usize) -> Vec<usize> {
    let mut at = from;
    let mut cuts = Vec::new();
    while at < to {
        let mut next = rng.gen_range(at..=to);
        if rng.gen_bool(1.0 / 3.0) {
            next = (next / 64 * 64 + rng.gen_range(63..=65usize)).clamp(at, to);
        }
        at = next;
        cuts.push(at);
    }
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Algorithm 2 engine equals the reference model: over arbitrary
    /// logs, shuffled and duplicated groups, random pathsets, any chunking
    /// of the advances (cuts on and off 64-interval word boundaries), no
    /// window or one below, at, or above 64 intervals, and a rebase
    /// followed by a re-advance, `ys()` is `perf_from_counts(
    /// pathset_cf_counts(group_indicators(..)))` over the same interval
    /// range.
    #[test]
    fn engine_matches_the_reference_model(log in log_strategy(), knobs in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(knobs);
        let t_max = log.interval_count();
        let cfg = NormalizeConfig {
            loss_threshold: [0.01, 0.05][rng.gen_range(0..2usize)],
            seed: rng.gen_range(0..u64::MAX),
            delay: None,
        };
        let slices = random_slices(&mut rng, log.path_count());
        // No window, or one below, at, or above the engine's 64-interval
        // word; one above stays short enough to wrap in most logs.
        let window = match rng.gen_range(0..4) {
            0 => None,
            1 => Some(rng.gen_range(1..64)),
            2 => Some(64),
            _ => Some(rng.gen_range(65..=100)),
        };
        let mut engine = SlidingCounts::new(
            cfg,
            window,
            slices.iter().map(|(g, s)| (g.as_slice(), s.as_slice())),
        );
        let lo = |through: usize| window.map_or(0, |w| through.saturating_sub(w));

        prop_assert_eq!(engine.ys(), reference_ys(&log, cfg, &slices, 0, 0));
        for through in random_chunking(&mut rng, 0, t_max) {
            engine.advance(&log, through);
            prop_assert_eq!(engine.consumed(), through);
            prop_assert_eq!(
                engine.ys(),
                reference_ys(&log, cfg, &slices, lo(through), through),
                "advanced through {}", through
            );
        }

        // A rebase forgets everything; re-advancing replays from zero.
        engine.rebase();
        let stop = rng.gen_range(0..=t_max);
        for through in random_chunking(&mut rng, 0, stop) {
            engine.advance(&log, through);
        }
        prop_assert_eq!(engine.ys(), reference_ys(&log, cfg, &slices, lo(stop), stop));
    }

    /// Vantage merging is commutative: which collector reports first must
    /// not change the combined log.
    #[test]
    fn merge_is_commutative((a, b, _) in vantage_logs()) {
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    /// Vantage merging is associative across three logs: any pairing order
    /// lands on the same combined log, so a live monitor may fold vantages
    /// in arrival order.
    #[test]
    fn merge_is_associative((a, b, c) in vantage_logs()) {
        let mut ab_then_c = a.clone();
        ab_then_c.merge(&b).unwrap();
        ab_then_c.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut a_then_bc = a.clone();
        a_then_bc.merge(&bc).unwrap();
        prop_assert_eq!(ab_then_c, a_then_bc);
    }

    /// Merging an empty log (a vantage that saw nothing) changes nothing.
    #[test]
    fn merge_with_empty_is_identity((a, _, _) in vantage_logs()) {
        let mut merged = a.clone();
        merged.merge(&MeasurementLog::new(a.path_count(), a.interval_s())).unwrap();
        prop_assert_eq!(merged, a);
    }

    /// Hypergeometric draws are bounded by both the marked count and the
    /// draw size, and are deterministic per seed.
    #[test]
    fn hypergeometric_bounds_and_determinism(
        total in 1u64..10_000,
        marked_frac in 0.0..1.0f64,
        draw_frac in 0.0..1.0f64,
        seed in 0u64..1000,
    ) {
        let marked = (total as f64 * marked_frac) as u64;
        let draw = (total as f64 * draw_frac) as u64;
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let ha = hypergeometric(&mut a, total, marked, draw);
        let hb = hypergeometric(&mut b, total, marked, draw);
        prop_assert_eq!(ha, hb);
        prop_assert!(ha <= marked.min(draw));
        // Everything marked is drawn when we draw everything.
        let mut c = StdRng::seed_from_u64(seed);
        prop_assert_eq!(hypergeometric(&mut c, total, marked, total), marked);
    }

    /// Indicators are independent of the group ordering and of unrelated
    /// query order — the foundation of the engine's group deduplication.
    #[test]
    fn indicators_invariant_under_group_permutation(log in log_strategy()) {
        let n = log.path_count();
        let fwd: Vec<PathId> = (0..n).map(PathId).collect();
        let rev: Vec<PathId> = (0..n).rev().map(PathId).collect();
        let cfg = NormalizeConfig::default();
        let a = group_indicators(&log, &fwd, cfg);
        let b = group_indicators(&log, &rev, cfg);
        for (i, p) in fwd.iter().enumerate() {
            let j = rev.iter().position(|q| q == p).unwrap();
            prop_assert_eq!(&a[i], &b[j], "indicators depend on group order");
        }
    }

    /// Congestion-free counts are antitone in the pathset: adding a member
    /// path can only reduce (or keep) the joint congestion-free count —
    /// Equation 2's monotonicity at the indicator level.
    #[test]
    fn pathset_cf_counts_antitone(log in log_strategy()) {
        let n = log.path_count();
        let group: Vec<PathId> = (0..n).map(PathId).collect();
        let ind = group_indicators(&log, &group, NormalizeConfig::default());
        let (cf_single, t1) = pathset_cf_counts(&ind, &[0]);
        let all: Vec<usize> = (0..n).collect();
        let (cf_all, t2) = pathset_cf_counts(&ind, &all);
        prop_assert_eq!(t1, t2, "informative interval count is group-wide");
        prop_assert!(cf_all <= cf_single);
    }

    /// Performance numbers are non-negative, finite, and antitone in the
    /// congestion-free count.
    #[test]
    fn perf_from_counts_shape(total in 1usize..5000, cf in 0usize..5000) {
        let cf = cf.min(total);
        let y = perf_from_counts(cf, total);
        prop_assert!(y >= 0.0 && y.is_finite());
        if cf < total {
            prop_assert!(perf_from_counts(cf + 1, total) <= y);
        }
    }

    /// Raising the loss threshold can only turn congested intervals into
    /// congestion-free ones (verdict monotonicity behind the §6.5 sweep).
    #[test]
    fn threshold_monotonicity(log in log_strategy()) {
        let n = log.path_count();
        let group: Vec<PathId> = (0..n).map(PathId).collect();
        let lo = group_indicators(
            &log, &group, NormalizeConfig { loss_threshold: 0.01, seed: 9, delay: None });
        let hi = group_indicators(
            &log, &group, NormalizeConfig { loss_threshold: 0.10, seed: 9, delay: None });
        for (row_lo, row_hi) in lo.iter().zip(&hi) {
            for (a, b) in row_lo.iter().zip(row_hi) {
                match (a, b) {
                    (Some(cf_lo), Some(cf_hi)) => {
                        // congestion-free at 1% implies congestion-free at 10%
                        if *cf_lo {
                            prop_assert!(*cf_hi);
                        }
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "informative-ness must not depend on threshold"),
                }
            }
        }
    }

    /// Congestion probability is within [0, 1] and zero for loss-free logs.
    #[test]
    fn congestion_probability_range(log in log_strategy()) {
        for p in 0..log.path_count() {
            let pr = log.congestion_probability(PathId(p), 0.01);
            prop_assert!((0.0..=1.0).contains(&pr));
        }
    }
}
