//! Per-interval, per-path packet accounting — the raw input of Algorithm 2.
//!
//! The emulator (or any measurement platform) records, for every measurement
//! interval `t` and path `p`, the number of packets sent `|M[t][p]|` and the
//! number of those lost `|L[t][p]|`. That is all the inference ever sees: no
//! link-level information crosses this boundary.

use nni_topology::PathId;

/// Per-(interval, path) one-way delay summary: the sample count and
/// nearest-rank percentiles of the delays of packets *sent* in that
/// interval (the same send-interval attribution the sent/lost counts use).
///
/// Percentiles are folded from integer-nanosecond samples, so they are
/// bit-deterministic across executors and platforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayStats {
    /// Number of delivered packets the percentiles summarize.
    pub count: u64,
    /// Median one-way delay in seconds.
    pub p50_s: f64,
    /// 90th-percentile one-way delay in seconds.
    pub p90_s: f64,
    /// 99th-percentile one-way delay in seconds.
    pub p99_s: f64,
}

impl DelayStats {
    /// Nearest-rank percentiles over ascending-sorted nanosecond samples.
    /// Returns `None` for an empty sample set.
    pub fn from_sorted_ns(sorted_ns: &[u64]) -> Option<DelayStats> {
        if sorted_ns.is_empty() {
            return None;
        }
        debug_assert!(sorted_ns.windows(2).all(|w| w[0] <= w[1]));
        let n = sorted_ns.len();
        let rank = |q: f64| {
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            sorted_ns[idx] as f64 / 1e9
        };
        Some(DelayStats {
            count: n as u64,
            p50_s: rank(0.50),
            p90_s: rank(0.90),
            p99_s: rank(0.99),
        })
    }
}

/// Raw measurement log: packets sent and lost per interval per path, plus
/// an optional per-cell one-way delay summary grid (recorded only when the
/// measurement platform was asked to — see `SimConfig::record_delay`).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementLog {
    interval_s: f64,
    n_paths: usize,
    /// `sent[t][p]`, `lost[t][p]`.
    sent: Vec<Vec<u64>>,
    lost: Vec<Vec<u64>>,
    /// `delay[t][p]` when delay was recorded; `None` cells are intervals
    /// with no delivered packets on that path.
    delay: Option<Vec<Vec<Option<DelayStats>>>>,
}

impl MeasurementLog {
    /// Creates an empty log for `n_paths` paths with the given measurement
    /// interval (Table 1: 100 ms default).
    pub fn new(n_paths: usize, interval_s: f64) -> MeasurementLog {
        assert!(interval_s > 0.0, "interval must be positive");
        assert!(n_paths > 0, "need at least one path");
        MeasurementLog {
            interval_s,
            n_paths,
            sent: Vec::new(),
            lost: Vec::new(),
            delay: None,
        }
    }

    /// Measurement interval in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Number of paths.
    pub fn path_count(&self) -> usize {
        self.n_paths
    }

    /// Number of recorded intervals `T`.
    pub fn interval_count(&self) -> usize {
        self.sent.len()
    }

    /// Interval index for a timestamp — the same binning rule as the
    /// emulator's cached interval index (see [`crate::interval`]): a
    /// timestamp landing exactly on `k * interval_s` goes to interval `k`
    /// in both layers.
    pub fn interval_of(&self, time_s: f64) -> usize {
        crate::interval::interval_index(time_s, self.interval_s)
    }

    fn ensure(&mut self, t: usize) {
        while self.sent.len() <= t {
            self.sent.push(vec![0; self.n_paths]);
            self.lost.push(vec![0; self.n_paths]);
            if let Some(delay) = &mut self.delay {
                delay.push(vec![None; self.n_paths]);
            }
        }
    }

    /// Appends one whole interval, `interval_count()`, from its per-path
    /// `sent` and `lost` rows. A log carrying a delay grid gains an empty
    /// delay row with it. This is how decoders and appenders add intervals;
    /// per-packet recorders use [`record_sent`](MeasurementLog::record_sent)
    /// and [`record_lost`](MeasurementLog::record_lost).
    ///
    /// # Panics
    ///
    /// Panics when a row's width is not the log's path count.
    pub fn push_interval(&mut self, sent: Vec<u64>, lost: Vec<u64>) {
        assert_eq!(sent.len(), self.n_paths, "sent row width != path count");
        assert_eq!(lost.len(), self.n_paths, "lost row width != path count");
        self.sent.push(sent);
        self.lost.push(lost);
        if let Some(delay) = &mut self.delay {
            delay.push(vec![None; self.n_paths]);
        }
    }

    /// Records `n` packets sent on `path` during interval `t`.
    pub fn record_sent(&mut self, t: usize, path: PathId, n: u64) {
        self.ensure(t);
        self.sent[t][path.index()] += n;
    }

    /// Records `n` packets lost on `path` that were sent during interval `t`.
    pub fn record_lost(&mut self, t: usize, path: PathId, n: u64) {
        self.ensure(t);
        self.lost[t][path.index()] += n;
    }

    /// `|M[t][p]|`.
    pub fn sent(&self, t: usize, path: PathId) -> u64 {
        self.sent[t][path.index()]
    }

    /// `|L[t][p]|`.
    pub fn lost(&self, t: usize, path: PathId) -> u64 {
        self.lost[t][path.index()]
    }

    /// Whether this log carries a one-way delay grid.
    pub fn has_delay(&self) -> bool {
        self.delay.is_some()
    }

    /// The delay summary of `(t, path)`, when delay was recorded and the
    /// cell saw delivered packets.
    pub fn delay(&self, t: usize, path: PathId) -> Option<DelayStats> {
        self.delay.as_ref().and_then(|d| d[t][path.index()])
    }

    /// Installs a complete delay grid (rows per interval, cells per path).
    /// Rows shorter than the log's current interval count are padded with
    /// empty cells; extra rows grow the log like `record_sent` would.
    ///
    /// # Panics
    ///
    /// Panics when a row's width is not the log's path count.
    pub fn set_delay(&mut self, mut rows: Vec<Vec<Option<DelayStats>>>) {
        for row in &rows {
            assert_eq!(row.len(), self.n_paths, "delay row width != path count");
        }
        if rows.len() > self.sent.len() {
            self.ensure(rows.len() - 1);
        }
        while rows.len() < self.sent.len() {
            rows.push(vec![None; self.n_paths]);
        }
        self.delay = Some(rows);
    }

    /// Drops the delay grid, keeping the counts.
    pub fn clear_delay(&mut self) {
        self.delay = None;
    }

    /// The path's delay baseline: its minimum per-interval p50 across the
    /// log — the least-queued view of the propagation + transmission floor
    /// that the delay feature measures inflation against. `None` when the
    /// log has no delay grid or the path never delivered a packet.
    pub fn delay_baseline(&self, path: PathId) -> Option<f64> {
        let rows = self.delay.as_ref()?;
        rows.iter()
            .filter_map(|row| row[path.index()].map(|s| s.p50_s))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Drops the first `k` intervals (warm-up: slow-start transients).
    pub fn drop_warmup(&mut self, k: usize) {
        let k = k.min(self.sent.len());
        self.sent.drain(0..k);
        self.lost.drain(0..k);
        if let Some(delay) = &mut self.delay {
            delay.drain(0..k.min(delay.len()));
        }
    }

    /// The *unnormalized* per-path congestion probability: the fraction of
    /// intervals in which the path lost more than `loss_threshold` of its
    /// packets — the quantity Figure 8 plots.
    ///
    /// Intervals with no traffic on the path are skipped.
    pub fn congestion_probability(&self, path: PathId, loss_threshold: f64) -> f64 {
        let mut active = 0usize;
        let mut congested = 0usize;
        for t in 0..self.interval_count() {
            let m = self.sent(t, path);
            if m == 0 {
                continue;
            }
            active += 1;
            if self.lost(t, path) as f64 > loss_threshold * m as f64 {
                congested += 1;
            }
        }
        if active == 0 {
            0.0
        } else {
            congested as f64 / active as f64
        }
    }

    /// Total packets sent on a path over the whole log.
    pub fn total_sent(&self, path: PathId) -> u64 {
        (0..self.interval_count()).map(|t| self.sent(t, path)).sum()
    }

    /// Total packets lost on a path over the whole log.
    pub fn total_lost(&self, path: PathId) -> u64 {
        (0..self.interval_count()).map(|t| self.lost(t, path)).sum()
    }

    /// Merges another log into this one by summing counts cell-wise — the
    /// multi-vantage aggregation primitive: several collectors observing the
    /// same paths over the same interval grid combine into one log.
    ///
    /// Both logs must use the *bit-identical* interval length and the same
    /// path count; interval counts may differ (the shorter log contributes
    /// zeros to the tail).
    pub fn merge(&mut self, other: &MeasurementLog) -> Result<(), MergeError> {
        if self.delay.is_some() || other.delay.is_some() {
            // Percentiles are order statistics: two cells' p90s cannot be
            // combined into the union's p90 without the raw samples, so a
            // cell-wise merge of delay-carrying logs would fabricate data.
            return Err(MergeError::DelayNotMergeable);
        }
        if self.interval_s.to_bits() != other.interval_s.to_bits() {
            return Err(MergeError::IntervalMismatch {
                ours: self.interval_s,
                theirs: other.interval_s,
            });
        }
        if self.n_paths != other.n_paths {
            return Err(MergeError::PathCountMismatch {
                ours: self.n_paths,
                theirs: other.n_paths,
            });
        }
        if other.sent.len() > self.sent.len() {
            self.ensure(other.sent.len() - 1);
        }
        for t in 0..other.sent.len() {
            for p in 0..self.n_paths {
                self.sent[t][p] += other.sent[t][p];
                self.lost[t][p] += other.lost[t][p];
            }
        }
        Ok(())
    }
}

/// Why two measurement logs refused to merge.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The interval lengths differ (compared bit-for-bit: logs binned on
    /// different grids cannot be summed cell-wise).
    IntervalMismatch {
        /// This log's interval.
        ours: f64,
        /// The other log's interval.
        theirs: f64,
    },
    /// The path counts differ.
    PathCountMismatch {
        /// This log's path count.
        ours: usize,
        /// The other log's path count.
        theirs: usize,
    },
    /// At least one side carries a delay grid. Delay percentiles are order
    /// statistics and cannot be summed cell-wise; multi-vantage aggregation
    /// is a loss-only operation.
    DelayNotMergeable,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::IntervalMismatch { ours, theirs } => {
                write!(f, "interval mismatch: {ours} s vs {theirs} s")
            }
            MergeError::PathCountMismatch { ours, theirs } => {
                write!(f, "path count mismatch: {ours} vs {theirs}")
            }
            MergeError::DelayNotMergeable => {
                write!(
                    f,
                    "logs carrying delay percentiles cannot be merged cell-wise"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut log = MeasurementLog::new(2, 0.1);
        log.record_sent(0, PathId(0), 10);
        log.record_sent(0, PathId(0), 5);
        log.record_lost(0, PathId(0), 2);
        assert_eq!(log.sent(0, PathId(0)), 15);
        assert_eq!(log.lost(0, PathId(0)), 2);
        assert_eq!(log.sent(0, PathId(1)), 0);
    }

    #[test]
    fn intervals_grow_on_demand() {
        let mut log = MeasurementLog::new(1, 0.1);
        log.record_sent(4, PathId(0), 1);
        assert_eq!(log.interval_count(), 5);
        assert_eq!(log.sent(2, PathId(0)), 0);
    }

    #[test]
    fn interval_of_maps_time() {
        let log = MeasurementLog::new(1, 0.1);
        assert_eq!(log.interval_of(0.0), 0);
        assert_eq!(log.interval_of(0.05), 0);
        assert_eq!(log.interval_of(0.1), 1);
        assert_eq!(log.interval_of(1.234), 12);
    }

    #[test]
    fn congestion_probability_thresholds() {
        let mut log = MeasurementLog::new(1, 0.1);
        let p = PathId(0);
        // Interval 0: 100 sent, 5 lost (5% > 1%) -> congested.
        log.record_sent(0, p, 100);
        log.record_lost(0, p, 5);
        // Interval 1: 100 sent, 0 lost -> congestion-free.
        log.record_sent(1, p, 100);
        // Interval 2: idle -> skipped.
        log.record_sent(3, p, 100);
        log.record_lost(3, p, 1); // exactly 1%: NOT above threshold
        assert!((log.congestion_probability(p, 0.01) - 1.0 / 3.0).abs() < 1e-12);
        // With a 10% threshold nothing is congested.
        assert_eq!(log.congestion_probability(p, 0.10), 0.0);
    }

    #[test]
    fn interval_of_agrees_with_the_emulator_boundary_walk() {
        // A timestamp landing exactly on a ULP-walked interval boundary
        // must bin into that interval — the regression this satellite
        // exists for: `interval_of` and the emulator's cached index now
        // share one rule (`crate::interval`), so a boundary packet can
        // never be logged into interval k by one layer and k-1 by the
        // other.
        use crate::interval::{interval_boundary_ns, interval_index_ns};
        for interval_s in [0.1, 0.05, 0.3, 1.0 / 3.0, 0.123456789] {
            let log = MeasurementLog::new(1, interval_s);
            for k in 1u64..200 {
                let boundary_ns = interval_boundary_ns(interval_s, k);
                let time_s = boundary_ns as f64 / 1e9;
                assert_eq!(
                    log.interval_of(time_s),
                    interval_index_ns(boundary_ns, interval_s),
                    "boundary {k} at interval {interval_s}"
                );
                assert_eq!(log.interval_of(time_s), k as usize);
                // One nanosecond earlier belongs to the previous interval.
                assert_eq!(
                    log.interval_of((boundary_ns - 1) as f64 / 1e9),
                    (k - 1) as usize
                );
            }
        }
    }

    #[test]
    fn merge_sums_counts_cell_wise() {
        let mut a = MeasurementLog::new(2, 0.1);
        a.record_sent(0, PathId(0), 10);
        a.record_lost(0, PathId(0), 1);
        let mut b = MeasurementLog::new(2, 0.1);
        b.record_sent(0, PathId(0), 5);
        b.record_lost(0, PathId(0), 2);
        b.record_sent(3, PathId(1), 7); // longer log grows the target
        a.merge(&b).expect("compatible logs merge");
        assert_eq!(a.sent(0, PathId(0)), 15);
        assert_eq!(a.lost(0, PathId(0)), 3);
        assert_eq!(a.interval_count(), 4);
        assert_eq!(a.sent(3, PathId(1)), 7);
        // Merging a shorter log leaves the tail untouched.
        let mut c = MeasurementLog::new(2, 0.1);
        c.record_sent(0, PathId(1), 1);
        a.merge(&c).unwrap();
        assert_eq!(a.sent(0, PathId(1)), 1);
        assert_eq!(a.interval_count(), 4);
    }

    #[test]
    fn merge_rejects_mismatched_shapes() {
        let mut a = MeasurementLog::new(2, 0.1);
        let b = MeasurementLog::new(3, 0.1);
        assert_eq!(
            a.merge(&b),
            Err(MergeError::PathCountMismatch { ours: 2, theirs: 3 })
        );
        let c = MeasurementLog::new(2, 0.2);
        assert_eq!(
            a.merge(&c),
            Err(MergeError::IntervalMismatch {
                ours: 0.1,
                theirs: 0.2
            })
        );
    }

    #[test]
    fn warmup_dropping() {
        let mut log = MeasurementLog::new(1, 0.1);
        log.record_sent(0, PathId(0), 7);
        log.record_sent(1, PathId(0), 9);
        log.drop_warmup(1);
        assert_eq!(log.interval_count(), 1);
        assert_eq!(log.sent(0, PathId(0)), 9);
        assert_eq!(log.total_sent(PathId(0)), 9);
        assert_eq!(log.total_lost(PathId(0)), 0);
    }

    #[test]
    fn delay_stats_nearest_rank() {
        assert_eq!(DelayStats::from_sorted_ns(&[]), None);
        let s = DelayStats::from_sorted_ns(&[1_000_000]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_s, 0.001);
        assert_eq!(s.p90_s, 0.001);
        assert_eq!(s.p99_s, 0.001);
        // Ten samples 1..=10 ms: p50 = 5 ms, p90 = 9 ms, p99 = 10 ms.
        let ns: Vec<u64> = (1..=10).map(|k| k * 1_000_000).collect();
        let s = DelayStats::from_sorted_ns(&ns).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.p50_s, 0.005);
        assert_eq!(s.p90_s, 0.009);
        assert_eq!(s.p99_s, 0.010);
    }

    fn stats(ms: u64) -> DelayStats {
        DelayStats::from_sorted_ns(&[ms * 1_000_000]).unwrap()
    }

    #[test]
    fn delay_grid_follows_the_log() {
        let mut log = MeasurementLog::new(2, 0.1);
        log.record_sent(0, PathId(0), 10);
        log.record_sent(2, PathId(0), 10);
        assert!(!log.has_delay());
        assert_eq!(log.delay(0, PathId(0)), None);
        log.set_delay(vec![vec![Some(stats(5)), None], vec![None, Some(stats(7))]]);
        assert!(log.has_delay());
        // The short grid was padded to the log's three intervals …
        assert_eq!(log.delay(2, PathId(0)), None);
        assert_eq!(log.delay(0, PathId(0)), Some(stats(5)));
        assert_eq!(log.delay(1, PathId(1)), Some(stats(7)));
        // … and subsequent growth extends both grids.
        log.record_sent(4, PathId(1), 1);
        assert_eq!(log.interval_count(), 5);
        assert_eq!(log.delay(4, PathId(1)), None);
        // Warm-up dropping drains delay rows in lockstep.
        log.drop_warmup(1);
        assert_eq!(log.delay(0, PathId(1)), Some(stats(7)));
        assert_eq!(log.delay_baseline(PathId(1)), Some(0.007));
        assert_eq!(log.delay_baseline(PathId(0)), None);
    }

    #[test]
    fn delay_baseline_is_min_p50() {
        let mut log = MeasurementLog::new(1, 0.1);
        log.record_sent(2, PathId(0), 1);
        log.set_delay(vec![
            vec![Some(stats(9))],
            vec![Some(stats(4))],
            vec![Some(stats(30))],
        ]);
        assert_eq!(log.delay_baseline(PathId(0)), Some(0.004));
    }

    #[test]
    fn merge_refuses_delay_grids() {
        let mut a = MeasurementLog::new(1, 0.1);
        a.record_sent(0, PathId(0), 1);
        let mut b = a.clone();
        b.set_delay(vec![vec![Some(stats(5))]]);
        assert_eq!(a.merge(&b), Err(MergeError::DelayNotMergeable));
        assert_eq!(
            b.merge(&a.clone()),
            Err(MergeError::DelayNotMergeable),
            "a delay-carrying target must refuse loss-only input too"
        );
        // Loss-only logs still merge.
        let mut c = a.clone();
        c.merge(&a).unwrap();
        assert_eq!(c.sent(0, PathId(0)), 2);
    }
}
