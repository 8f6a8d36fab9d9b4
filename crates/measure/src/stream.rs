//! The one Algorithm 2 engine: the per-pathset counters every inference
//! path folds through ([`SlidingCounts`]).
//!
//! Batch inference folds a whole log in one call; streaming folds each
//! closed interval as it arrives. Both give the same numbers because of
//! two determinisms:
//!
//! * the discounting draw is seeded per `(seed, interval, path)` — a closed
//!   interval's indicator column never changes as later intervals arrive;
//! * the performance number is a pure function of two *integers* — the
//!   congestion-free and informative interval counts
//!   ([`perf_from_counts`]).
//!
//! So [`SlidingCounts`] folds each closed interval into per-pathset integer
//! counters exactly once, and every verdict derived from those counters is
//! bit-identical to a whole-log pass over the same closed prefix. The fold
//! works on packed masks, up to 64 intervals per word: a pathset's
//! congestion-free count grows by the popcount of its member paths' ANDed
//! congestion-free words. An optional sliding window bounds the counters to
//! the last `W` intervals by remembering those words in a `W`-bit ring per
//! group path, plus one per group for informativeness.
//!
//! The fold skips what cannot change a count. An interval in which some
//! group path sent nothing has no common packet budget, so it is
//! uninformative for every pathset of the group. Each chunk first builds
//! one "sent anything" word per registered path; a group's informative
//! word is the AND of its paths' words, its indicators are evaluated only
//! at the set bits, and a chunk whose word is zero leaves the group's
//! pathsets untouched. An advance records which groups it changed, so a
//! caller that keeps scores derived from the counters recomputes only
//! those groups' slices.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

use crate::normalize::{count_evals, indicator_column, perf_from_counts, NormalizeConfig};
use crate::record::MeasurementLog;
use nni_topology::PathId;

#[derive(Debug, Clone)]
struct SetState {
    /// This pathset's member rows into its group's `paths`. One or two
    /// members sit here (a singleton as its row twice, since `w & w = w`);
    /// a longer pathset holds `[lo | SPILL, hi]`, its rows being `lo..hi`
    /// of the group's `spill`.
    rows: [u32; 2],
    /// Congestion-free intervals counted (at most the consumed intervals:
    /// 2^32 of them are 13 years at 100 ms).
    cf: u32,
}

/// Marks a [`SetState`] whose rows live in its group's `spill`.
const SPILL: u32 = 1 << 31;

impl SetState {
    /// The intervals of a `len`-interval chunk in which every member row
    /// of this pathset is set in `words`: the popcount of their AND.
    fn and_count(&self, words: &[u64], spill: &[u32], len: usize) -> u32 {
        let all = match self.rows {
            [lo, hi] if lo & SPILL != 0 => spill[(lo & !SPILL) as usize..hi as usize]
                .iter()
                .fold(u64::MAX, |acc, &r| acc & words[r as usize]),
            [a, b] => words[a as usize] & words[b as usize],
        };
        ones(all, len) as u32
    }
}

#[derive(Debug, Clone)]
struct GroupState {
    /// Sorted, deduplicated: identical groups share one state, and the
    /// discounting draws depend only on the members, not their order.
    paths: Vec<PathId>,
    /// Each group path's row in the engine's `paths`: the activity word
    /// it reads.
    active: Vec<u32>,
    /// The member rows of every pathset of three or more members,
    /// concatenated.
    spill: Vec<u32>,
    sets: Vec<SetState>,
    /// Informative intervals counted: the same for every pathset of the
    /// group, because informativeness is a property of the whole column.
    informative: usize,
    /// Whether the last advance changed this group's counters.
    moved: bool,
    /// Windowed mode only: the last `W` intervals' bits, one row of
    /// `⌈W/64⌉` words per group path (congestion-free) plus a last row for
    /// informativeness; interval `t` sits at bit `t % W` of each row
    /// (eviction needs to know what each expiring interval contributed).
    ring: Vec<u64>,
}

/// Algorithm 2 as per-pathset congestion-free and informative interval
/// counters — the one engine behind batch inference,
/// [`MeasuredObservations`](crate::MeasuredObservations) and streaming.
///
/// Construction takes every slice's normalization group and pathsets;
/// [`advance`](SlidingCounts::advance) folds closed intervals into the
/// counters (a batch caller folds the whole log in one call, a stream one
/// interval at a time), and [`ys`](SlidingCounts::ys) is at all times
/// [`perf_from_counts`] of the accumulated integers — bit-identical to the
/// reference model ([`group_indicators`](crate::group_indicators) +
/// [`pathset_cf_counts`](crate::pathset_cf_counts)) over the consumed
/// prefix (unwindowed), or over its last `W` intervals (windowed).
///
/// Intervals are folded in chunks of up to 64 as packed bit masks: one
/// congestion-free word per group path and one informative word per group,
/// so a pathset's count grows by the popcount of its members' ANDed words.
/// The informative word comes first, and cheaply: it is the AND of the
/// group paths' "sent anything" words, which each chunk builds once per
/// path the engine holds. Only its set bits are evaluated; a chunk in which
/// the group has no common packet budget at all costs the group one AND
/// per path and leaves its pathsets untouched. A window keeps the last `W`
/// intervals of those words in a `W`-bit ring per group path (plus one per
/// group for informativeness).
///
/// The per-pathset state is 12 bytes: two member rows and the
/// congestion-free count as `u32`s. A pathset of one or two members (every
/// pathset of a slice's `Θ_τ`) needs nothing else; a longer one keeps its
/// rows in a per-group spill list and the bounds of that run in place of
/// the two rows.
#[derive(Debug, Clone)]
pub struct SlidingCounts {
    cfg: NormalizeConfig,
    window: Option<usize>,
    /// Every path some group holds, sorted: the rows of the activity words.
    paths: Vec<PathId>,
    groups: Vec<GroupState>,
    /// Per slice: its group and the range of its pathsets in that group's
    /// `sets` — the layout [`ys`](SlidingCounts::ys) returns.
    slices: Vec<(usize, Range<usize>)>,
    consumed: usize,
}

/// A row index of a registered path or pathset member, or the absence of
/// one.
const NO_ROW: u32 = u32::MAX;

impl SlidingCounts {
    /// Counters for `slices`, each a normalization group with the member
    /// lists of the pathsets measured in its context (a slice's
    /// `Slice::theta`, or any `AsRef<[PathId]>` such as `&PathSet`).
    /// Identical groups (as path sets) are evaluated once per interval.
    /// With a `window`, the counters cover only the last `window` consumed
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics on a zero window, an empty pathset, or a pathset member
    /// outside its group.
    pub fn new<'a, S>(
        cfg: NormalizeConfig,
        window: Option<usize>,
        slices: impl IntoIterator<Item = (&'a [PathId], S)>,
    ) -> SlidingCounts
    where
        S: IntoIterator,
        S::Item: AsRef<[PathId]>,
    {
        assert_ne!(window, Some(0), "window must be non-empty");
        let row_words = window.map_or(0, |w| w.div_ceil(64));
        let slices = slices.into_iter();
        // Each distinct group, keyed by its sorted, deduplicated paths: a
        // group that arrives sorted and distinct (every plan group does) is
        // its own key, borrowed, with no copy to sort. An ordered map needs
        // no hash of the paths, so no topology can make keys collide.
        let mut index: BTreeMap<Cow<'a, [PathId]>, usize> = BTreeMap::new();
        let mut groups: Vec<GroupState> = Vec::new();
        let mut layout = Vec::with_capacity(slices.size_hint().0);
        // Path id -> row in the group being registered, `NO_ROW` elsewhere:
        // filled from the group's paths before its pathsets, cleared after.
        let mut row_of: Vec<u32> = Vec::new();
        for (group, pathsets) in slices {
            let key = if group.windows(2).all(|w| w[0] < w[1]) {
                Cow::Borrowed(group)
            } else {
                let mut paths = group.to_vec();
                paths.sort_unstable();
                paths.dedup();
                Cow::Owned(paths)
            };
            let gid = *index.entry(key).or_insert_with_key(|paths| {
                // A row at or above `SPILL` would read as a spill bound.
                assert!(paths.len() <= SPILL as usize, "under 2^31 paths per group");
                groups.push(GroupState {
                    paths: paths.to_vec(),
                    active: Vec::new(),
                    spill: Vec::new(),
                    sets: Vec::new(),
                    informative: 0,
                    moved: false,
                    ring: vec![0; (paths.len() + 1) * row_words],
                });
                groups.len() - 1
            });
            let g = &mut groups[gid];
            if let Some(top) = g.paths.last() {
                row_of.resize(row_of.len().max(top.index() + 1), NO_ROW);
            }
            for (r, p) in g.paths.iter().enumerate() {
                row_of[p.index()] = r as u32;
            }
            let pathsets = pathsets.into_iter();
            let start = g.sets.len();
            g.sets.reserve(pathsets.size_hint().0);
            let (spill, sets) = (&mut g.spill, &mut g.sets);
            let row = |p: &PathId| match row_of.get(p.index()) {
                Some(&r) if r != NO_ROW => r,
                _ => panic!("pathset members must belong to the normalization group"),
            };
            pathsets.for_each(|pathset| {
                let rows = match pathset.as_ref() {
                    [] => panic!("pathsets are non-empty"),
                    [p] => [row(p); 2],
                    [p, q] => [row(p), row(q)],
                    longer => {
                        let lo = spill.len();
                        spill.extend(longer.iter().map(row));
                        let hi = u32::try_from(spill.len())
                            .ok()
                            .filter(|&hi| hi < SPILL)
                            .expect("under 2^31 spilled members per group");
                        [lo as u32 | SPILL, hi]
                    }
                };
                sets.push(SetState { rows, cf: 0 });
            });
            for p in &g.paths {
                row_of[p.index()] = NO_ROW;
            }
            layout.push((gid, start..g.sets.len()));
        }
        // The engine's paths: every group path once, in id order. `row_of`
        // is all `NO_ROW` again and spans every group path; a one-slice
        // engine must not pay for a walk over all of it.
        let mut paths = Vec::new();
        for &p in groups.iter().flat_map(|g| &g.paths) {
            if row_of[p.index()] == NO_ROW {
                row_of[p.index()] = 0;
                paths.push(p);
            }
        }
        paths.sort_unstable();
        for (r, p) in paths.iter().enumerate() {
            row_of[p.index()] = r as u32;
        }
        for g in &mut groups {
            g.active = g.paths.iter().map(|p| row_of[p.index()]).collect();
        }
        SlidingCounts {
            cfg,
            window,
            paths,
            groups,
            slices: layout,
            consumed: 0,
        }
    }

    /// Intervals consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Folds closed intervals `consumed..through` of `log` into the
    /// counters. Each interval is folded once per distinct group — the
    /// work unit [`interval_eval_count`](crate::interval_eval_count)
    /// counts, whether the group's indicators were evaluated or skipped
    /// for want of a common packet budget.
    ///
    /// It also records which groups' counters changed (see
    /// [`moved_slices`](SlidingCounts::moved_slices)): those that folded an
    /// informative chunk, or whose window evicted informative bits. Every
    /// other group's counters, and so its `y`, are as they were.
    ///
    /// # Panics
    ///
    /// Panics past the recorded log or below the consumed prefix. With a
    /// delay feature (`cfg.delay`), also panics unless this is one advance
    /// from 0 to `log.interval_count()`: the delay baselines are whole-log
    /// statistics, so a prefix fold would judge inflation against a
    /// different baseline than the final log's.
    pub fn advance(&mut self, log: &MeasurementLog, through: usize) {
        assert!(
            through <= log.interval_count(),
            "cannot advance past the recorded log"
        );
        assert!(through >= self.consumed, "the closed prefix only grows");
        if self.cfg.delay.is_some() {
            assert!(
                self.consumed == 0 && through == log.interval_count(),
                "a delay feature needs one advance over the whole log (its baselines are whole-log statistics)"
            );
        }
        count_evals((self.groups.len() * (through - self.consumed)) as u64);
        // A chunk stops at a ring word's end and at the ring's end: its
        // slots are one bit run in one word per row, and it is no longer
        // than `W`, so they hold exactly the intervals `W` before its own.
        // The first lap ends at the ring's end, so a chunk evicts all of
        // its slots (`t >= W`) or none.
        let mut chunks = Vec::new();
        let mut t = self.consumed;
        while t < through {
            let len = match self.window {
                None => (through - t).min(64),
                Some(w) => (through - t).min(w - t % w).min(64 - t % w % 64),
            };
            chunks.push(t..t + len);
            t += len;
        }
        // Bit `k` of chunk `c`'s word for engine path `r` is set when that
        // path sent anything in interval `chunks[c].start + k`.
        let n = self.paths.len();
        let mut activity = vec![0u64; chunks.len() * n];
        for (ts, words) in chunks.iter().zip(activity.chunks_exact_mut(n.max(1))) {
            for (k, t) in ts.clone().enumerate() {
                for (word, &p) in words.iter_mut().zip(&self.paths) {
                    *word |= u64::from(log.sent(t, p) > 0) << k;
                }
            }
        }
        let width = self.groups.iter().map(|g| g.paths.len()).max();
        let mut col = vec![None; width.unwrap_or(0)];
        let mut words = vec![0u64; width.unwrap_or(0)];
        let mut baselines = Vec::new();
        for g in &mut self.groups {
            g.moved = false;
            let col = &mut col[..g.paths.len()];
            let words = &mut words[..g.paths.len()];
            baselines.clear();
            for (c, ts) in chunks.iter().enumerate() {
                let len = ts.len();
                // `indicator_column`'s `m > 0` test for the whole chunk:
                // every group path sent something.
                let informative = if g.active.is_empty() {
                    0
                } else {
                    let act = &activity[c * n..(c + 1) * n];
                    g.active
                        .iter()
                        .fold(u64::MAX, |acc, &r| acc & act[r as usize])
                };
                words.fill(0);
                if informative != 0 {
                    if self.cfg.delay.is_some() && baselines.is_empty() {
                        baselines.extend(g.paths.iter().map(|&p| log.delay_baseline(p)));
                    }
                    // Bit `k` of `words[r]`: group path `r` was
                    // congestion-free in interval `ts.start + k`.
                    // `indicator_column` marks a whole column `None` (no
                    // common budget) or a whole column `Some`, so every
                    // congestion-free bit lies inside the informative word,
                    // and only its set bits need a column.
                    let mut bits = informative;
                    while bits != 0 {
                        let k = bits.trailing_zeros();
                        bits &= bits - 1;
                        let t = ts.start + k as usize;
                        indicator_column(log, &g.paths, t, self.cfg, &baselines, col);
                        for (word, &cell) in words.iter_mut().zip(col.iter()) {
                            *word |= u64::from(cell == Some(true)) << k;
                        }
                    }
                    for s in &mut g.sets {
                        s.cf += s.and_count(words, &g.spill, len);
                    }
                    g.informative += ones(informative, len);
                    g.moved = true;
                }
                if let Some(w) = self.window {
                    let t = ts.start;
                    let row_words = w.div_ceil(64);
                    let (slot, shift) = (t % w / 64, t % w % 64);
                    let run = (u64::MAX >> (64 - len)) << shift;
                    // Stores the chunk's bits in a ring row and returns the
                    // bits they overwrote.
                    let mut swap = |row: usize, fresh: u64| {
                        let cell = &mut g.ring[row * row_words + slot];
                        let old = (*cell & run) >> shift;
                        *cell = (*cell & !run) | (fresh << shift);
                        old
                    };
                    let evicted = swap(g.paths.len(), informative);
                    for (r, word) in words.iter_mut().enumerate() {
                        *word = swap(r, *word);
                    }
                    // Every evicted congestion-free bit lies inside the
                    // evicted informative word.
                    if t >= w && evicted != 0 {
                        g.moved = true;
                        g.informative -= ones(evicted, len);
                        for s in &mut g.sets {
                            s.cf -= s.and_count(words, &g.spill, len);
                        }
                    }
                }
            }
        }
        self.consumed = through;
    }

    /// The performance numbers `y = -ln P(congestion-free)` of every
    /// pathset, per slice in construction order — the layout
    /// `nni_core::identify_scores` takes.
    pub fn ys(&self) -> Vec<Vec<f64>> {
        (0..self.slices.len())
            .map(|i| {
                let mut y = Vec::new();
                self.y(i, &mut y);
                y
            })
            .collect()
    }

    /// Slice `i`'s performance numbers (its row of [`ys`](SlidingCounts::ys)),
    /// written over `y`.
    pub fn y(&self, i: usize, y: &mut Vec<f64>) {
        let (g, sets) = &self.slices[i];
        let g = &self.groups[*g];
        y.clear();
        y.extend(
            g.sets[sets.clone()]
                .iter()
                .map(|s| perf_from_counts(s.cf as usize, g.informative)),
        );
    }

    /// The slices, in construction order, whose group's counters the last
    /// [`advance`](SlidingCounts::advance) changed: only their `y` can
    /// differ from before it. None after a
    /// [`rebase`](SlidingCounts::rebase) or
    /// [`rearm`](SlidingCounts::rearm).
    pub fn moved_slices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slices.len()).filter(|&i| self.groups[self.slices[i].0].moved)
    }

    /// Forgets every consumed interval but keeps the registered structure —
    /// the exact-fallback reset used when a multi-vantage merge rewrites
    /// history (merged counts in frozen intervals changed, so the stream
    /// re-advances from zero over the merged log). The window ring keeps
    /// its stale bits: each slot is rewritten before it is next evicted.
    pub fn rebase(&mut self) {
        self.consumed = 0;
        for g in &mut self.groups {
            g.informative = 0;
            g.moved = false;
            for s in &mut g.sets {
                s.cf = 0;
            }
        }
    }

    /// [`rebase`](SlidingCounts::rebase) under a new normalization config:
    /// the counters go to zero, the registered structure (a function of the
    /// slices alone) is kept, and the next
    /// [`advance`](SlidingCounts::advance) folds from interval 0 under
    /// `cfg`. A re-armed engine folds and reports exactly what a new engine
    /// over the same slices and `cfg` would.
    ///
    /// This is what lets batch inference (`nni_scenario::infer`) keep one
    /// engine across calls: its one-entry memo holds the last topology's
    /// plan and unwindowed engine, keyed exactly by what the plan reads,
    /// and re-arms that engine on a key match instead of rebuilding it. At
    /// most one memoized plan is resident, and results do not depend on
    /// which calls came before.
    pub fn rearm(&mut self, cfg: NormalizeConfig) {
        self.cfg = cfg;
        self.rebase();
    }
}

/// The set bits of `w`, a word of a `len`-interval chunk (bits `len..`
/// clear). A one-interval chunk — every streaming advance — is 0 or 1 and
/// needs no popcount, which the baseline x86-64 target computes in
/// software.
fn ones(w: u64, len: usize) -> usize {
    if len == 1 {
        w as usize
    } else {
        w.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{group_indicators, pathset_cf_counts};
    use nni_topology::PathSet;

    fn lossy_log(t_max: usize) -> MeasurementLog {
        let mut log = MeasurementLog::new(3, 0.1);
        for t in 0..t_max {
            for p in 0..3 {
                if p == 2 && t % 7 == 3 {
                    // Starved path: uninformative interval for any group
                    // containing it.
                    continue;
                }
                log.record_sent(t, PathId(p), 200 + 50 * p as u64);
                log.record_lost(t, PathId(p), ((t * (p + 2)) % 9) as u64);
            }
            if t % 5 == 0 {
                log.record_lost(t, PathId(0), 40);
                log.record_lost(t, PathId(1), 40);
            }
        }
        // A trailing fully silent interval.
        log.record_sent(t_max, PathId(0), 0);
        log
    }

    /// The reference model's `y` for the pathset at `rows` over intervals
    /// `lo..hi` of the group indicators `ind`.
    fn reference_y(ind: &[Vec<Option<bool>>], rows: &[usize], lo: usize, hi: usize) -> f64 {
        let cut: Vec<Vec<Option<bool>>> = ind.iter().map(|row| row[lo..hi].to_vec()).collect();
        let (cf, informative) = pathset_cf_counts(&cut, rows);
        perf_from_counts(cf, informative)
    }

    #[test]
    fn incremental_counts_match_batch() {
        let log = lossy_log(40);
        let cfg = NormalizeConfig::default();
        let group = [PathId(0), PathId(1), PathId(2)];
        let sets = [
            PathSet::single(PathId(0)),
            PathSet::pair(PathId(0), PathId(1)),
            PathSet::new(vec![PathId(0), PathId(1), PathId(2)]),
        ];
        let mut inc = SlidingCounts::new(cfg, None, [(&group[..], &sets[..])]);

        let batch_ind = group_indicators(&log, &group, cfg);
        // Advance one interval at a time; at every prefix the numbers
        // match a batch recount of that prefix.
        for through in 0..=log.interval_count() {
            inc.advance(&log, through);
            let want: Vec<f64> = [&[0][..], &[0, 1], &[0, 1, 2]]
                .iter()
                .map(|rows| reference_y(&batch_ind, rows, 0, through))
                .collect();
            assert_eq!(inc.ys(), vec![want], "prefix {through}");
        }
    }

    #[test]
    fn windowed_counts_cover_last_w_intervals() {
        let log = lossy_log(50);
        let cfg = NormalizeConfig::default();
        let group = [PathId(0), PathId(1)];
        let w = 12;
        let sets = [PathSet::pair(PathId(0), PathId(1))];
        let mut inc = SlidingCounts::new(cfg, Some(w), [(&group[..], &sets[..])]);
        let ind = group_indicators(&log, &group, cfg);
        for through in 1..=log.interval_count() {
            inc.advance(&log, through);
            let lo = through.saturating_sub(w);
            assert_eq!(
                inc.ys()[0][0],
                reference_y(&ind, &[0, 1], lo, through),
                "window ending at {through}"
            );
        }
    }

    #[test]
    fn rebase_replays_merged_history() {
        let mut a = lossy_log(30);
        let mut b = MeasurementLog::new(3, 0.1);
        for t in 0..30 {
            b.record_sent(t, PathId(1), 90);
            b.record_lost(t, PathId(1), (t % 4) as u64);
        }
        let cfg = NormalizeConfig::default();
        let group = [PathId(0), PathId(1), PathId(2)];
        let sets = [PathSet::single(PathId(1))];
        let mut inc = SlidingCounts::new(cfg, None, [(&group[..], &sets[..])]);
        inc.advance(&a, a.interval_count());

        // Second vantage arrives: merged history invalidates the counters.
        a.merge(&b).unwrap();
        inc.rebase();
        assert_eq!(inc.consumed(), 0);
        inc.advance(&a, a.interval_count());

        let ind = group_indicators(&a, &group, cfg);
        assert_eq!(
            inc.ys()[0][0],
            reference_y(&ind, &[1], 0, a.interval_count())
        );
    }

    /// A re-armed engine, windowed or not, folds exactly what a new one
    /// under the new config does: a delay feature (one whole-log advance)
    /// after a loss-only stream, and a loss threshold after that.
    #[test]
    fn rearm_equals_a_fresh_engine() {
        let log = lossy_log(90);
        let group = [PathId(0), PathId(1), PathId(2)];
        let sets = [
            PathSet::single(PathId(2)),
            PathSet::pair(PathId(0), PathId(1)),
            PathSet::new(vec![PathId(0), PathId(1), PathId(2)]),
        ];
        let loss_only = NormalizeConfig::default();
        let delay = NormalizeConfig {
            delay: Some(nni_core::DelayFeature::default()),
            ..loss_only
        };
        let strict = NormalizeConfig {
            loss_threshold: 0.03,
            seed: 11,
            ..loss_only
        };
        for window in [None, Some(20)] {
            let engine = |cfg| SlidingCounts::new(cfg, window, [(&group[..], &sets[..])]);
            let mut inc = engine(loss_only);
            for through in 1..=log.interval_count() {
                inc.advance(&log, through);
            }
            for cfg in [delay, strict] {
                inc.rearm(cfg);
                assert_eq!(inc.consumed(), 0);
                let mut fresh = engine(cfg);
                inc.advance(&log, log.interval_count());
                fresh.advance(&log, log.interval_count());
                assert_eq!(inc.ys(), fresh.ys(), "{cfg:?}, window {window:?}");
            }
        }
    }

    /// A group moves when a chunk it folds is informative or its window
    /// evicts informative bits, and not otherwise.
    #[test]
    fn advance_reports_the_groups_it_moved() {
        // Paths 0 and 1 send in every interval; path 2 only in 0..4.
        let mut log = MeasurementLog::new(3, 0.1);
        for t in 0..12 {
            for p in 0..3 {
                if p < 2 || t < 4 {
                    log.record_sent(t, PathId(p), 100);
                    log.record_lost(t, PathId(p), (t % 3) as u64);
                }
            }
        }
        let busy = [PathId(0), PathId(1)];
        let quiet = [PathId(1), PathId(2)];
        let sets = [PathSet::single(PathId(1))];
        let slices = [(&busy[..], &sets[..]), (&quiet[..], &sets[..])];
        let moved = |counts: &SlidingCounts| counts.moved_slices().collect::<Vec<_>>();

        let mut all = SlidingCounts::new(NormalizeConfig::default(), None, slices);
        for through in 1..=12 {
            all.advance(&log, through);
            let want = if through <= 4 { vec![0, 1] } else { vec![0] };
            assert_eq!(moved(&all), want, "unwindowed, through {through}");
        }
        all.advance(&log, 12);
        assert_eq!(moved(&all), Vec::<usize>::new(), "an empty advance");

        // A 4-interval window: intervals 4..8 evict the informative 0..4,
        // intervals 8.. evict the uninformative 4..8.
        let mut win = SlidingCounts::new(NormalizeConfig::default(), Some(4), slices);
        for through in 1..=12 {
            win.advance(&log, through);
            let want = if through <= 8 { vec![0, 1] } else { vec![0] };
            assert_eq!(moved(&win), want, "window 4, through {through}");
        }
        win.rebase();
        assert_eq!(
            moved(&win),
            Vec::<usize>::new(),
            "nothing moved since the rebase"
        );
        // One chunk that folds nothing informative for `quiet` but evicts
        // its informative bits still moves it.
        let mut win = SlidingCounts::new(NormalizeConfig::default(), Some(4), slices);
        win.advance(&log, 4);
        win.advance(&log, 8);
        assert_eq!(moved(&win), vec![0, 1]);
        win.advance(&log, 12);
        assert_eq!(moved(&win), vec![0]);
    }

    #[test]
    fn group_registration_deduplicates() {
        let sets = [PathSet::single(PathId(0))];
        let unsorted = [PathId(1), PathId(0), PathId(1)];
        let sorted = [PathId(0), PathId(1)];
        let inc = SlidingCounts::new(
            NormalizeConfig::default(),
            None,
            [(&unsorted[..], &sets[..]), (&sorted[..], &sets[..])],
        );
        assert_eq!(inc.groups.len(), 1, "one state per distinct group");
        assert_eq!(inc.ys(), vec![vec![0.0], vec![0.0]], "one y row per slice");
    }

    #[test]
    #[should_panic(expected = "one advance over the whole log")]
    fn delay_feature_refuses_a_partial_advance() {
        let log = lossy_log(10);
        let cfg = NormalizeConfig {
            delay: Some(nni_core::DelayFeature::default()),
            ..NormalizeConfig::default()
        };
        let group = [PathId(0), PathId(1)];
        let sets = [PathSet::single(PathId(0))];
        let mut inc = SlidingCounts::new(cfg, None, [(&group[..], &sets[..])]);
        inc.advance(&log, 5);
    }

    #[test]
    #[should_panic(expected = "pathset members must belong to the normalization group")]
    fn member_above_the_group_is_rejected() {
        let group = [PathId(0), PathId(2)];
        let sets = [PathSet::pair(PathId(0), PathId(9))];
        SlidingCounts::new(NormalizeConfig::default(), None, [(&group[..], &sets[..])]);
    }

    #[test]
    #[should_panic(expected = "pathset members must belong to the normalization group")]
    fn member_between_group_paths_is_rejected() {
        // The first slice's group holds path 1; the second's does not.
        let wide = [PathId(0), PathId(1), PathId(2)];
        let narrow = [PathId(0), PathId(2)];
        let sets = [PathSet::single(PathId(1))];
        SlidingCounts::new(
            NormalizeConfig::default(),
            None,
            [(&wide[..], &sets[..]), (&narrow[..], &sets[..])],
        );
    }
}
