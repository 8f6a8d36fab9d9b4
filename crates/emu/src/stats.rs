//! Simulation statistics: the measurement log the inference consumes, the
//! per-link per-class ground truth it is evaluated against (Figure 10a), and
//! queue-occupancy traces (Figure 11).

use crate::packet::ClassLabel;
use nni_measure::MeasurementLog;
use nni_topology::LinkId;

/// Ground-truth per-link, per-class, per-interval packet accounting —
/// "directly measured by the network; our algorithm does not use them in any
/// way" (§6.4).
///
/// Each counter is one flat `[interval][link][class]` grid: cell
/// `(t, link, class)` sits at `(t * n_links + link) * n_classes + class`,
/// and recording into a new interval grows both grids by whole intervals.
/// Every accessor asserts `link < n_links` and `class < n_classes`, and
/// one that reads a single interval also `t < interval_count()`, so an
/// out-of-range index panics instead of reading a neighbouring cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTruth {
    n_links: usize,
    n_classes: usize,
    n_intervals: usize,
    /// `offered` and `dropped`, `n_intervals * n_links * n_classes` cells
    /// each.
    offered: Vec<u64>,
    dropped: Vec<u64>,
}

impl LinkTruth {
    /// Creates an empty ground-truth recorder.
    pub fn new(n_links: usize, n_classes: usize) -> LinkTruth {
        LinkTruth {
            n_links,
            n_classes,
            n_intervals: 0,
            offered: Vec::new(),
            dropped: Vec::new(),
        }
    }

    /// Rebuilds a recorder from raw cell counts (the codec's decode path).
    /// Both grids hold `n_intervals * n_links * n_classes` cells in the
    /// `[interval][link][class]` order described on the type.
    pub fn from_counts(
        n_links: usize,
        n_classes: usize,
        n_intervals: usize,
        offered: Vec<u64>,
        dropped: Vec<u64>,
    ) -> LinkTruth {
        let cells = n_intervals * n_links * n_classes;
        assert_eq!(offered.len(), cells, "offered cell count");
        assert_eq!(dropped.len(), cells, "dropped cell count");
        LinkTruth {
            n_links,
            n_classes,
            n_intervals,
            offered,
            dropped,
        }
    }

    fn ensure(&mut self, t: usize) {
        if t >= self.n_intervals {
            self.n_intervals = t + 1;
            let cells = self.n_intervals * self.n_links * self.n_classes;
            self.offered.resize(cells, 0);
            self.dropped.resize(cells, 0);
        }
    }

    /// Offset of `(link, class)` within one interval's cells.
    fn offset(&self, link: LinkId, class: ClassLabel) -> usize {
        let (l, c) = (link.index(), class as usize);
        assert!(
            l < self.n_links,
            "link {l} out of range ({} links)",
            self.n_links
        );
        assert!(
            c < self.n_classes,
            "class {c} out of range ({} classes)",
            self.n_classes
        );
        l * self.n_classes + c
    }

    /// Index of cell `(t, link, class)`.
    fn cell(&self, t: usize, link: LinkId, class: ClassLabel) -> usize {
        let offset = self.offset(link, class);
        assert!(
            t < self.n_intervals,
            "interval {t} out of range ({} recorded)",
            self.n_intervals
        );
        t * self.n_links * self.n_classes + offset
    }

    /// The `(link, class)` cell of every interval of `grid`, in order.
    fn column<'a>(
        &self,
        grid: &'a [u64],
        link: LinkId,
        class: ClassLabel,
    ) -> impl Iterator<Item = u64> + 'a {
        let offset = self.offset(link, class);
        grid.iter()
            .skip(offset)
            .step_by(self.n_links * self.n_classes)
            .copied()
    }

    /// Records a packet offered to `link`.
    pub fn record_offered(&mut self, t: usize, link: LinkId, class: ClassLabel) {
        self.ensure(t);
        let i = self.cell(t, link, class);
        self.offered[i] += 1;
    }

    /// Records a packet dropped at `link` (queue overflow, policer, or
    /// shaper buffer overflow).
    pub fn record_dropped(&mut self, t: usize, link: LinkId, class: ClassLabel) {
        self.ensure(t);
        let i = self.cell(t, link, class);
        self.dropped[i] += 1;
    }

    /// Number of recorded intervals.
    pub fn interval_count(&self) -> usize {
        self.n_intervals
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.n_classes
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.n_links
    }

    /// Packets of `class` offered to `link` during interval `t`.
    pub fn offered_at(&self, t: usize, link: LinkId, class: ClassLabel) -> u64 {
        self.offered[self.cell(t, link, class)]
    }

    /// Packets of `class` dropped at `link` during interval `t`.
    pub fn dropped_at(&self, t: usize, link: LinkId, class: ClassLabel) -> u64 {
        self.dropped[self.cell(t, link, class)]
    }

    /// Drops the first `k` intervals (aligned with the measurement warm-up).
    pub fn drop_warmup(&mut self, k: usize) {
        let k = k.min(self.n_intervals);
        let cells = k * self.n_links * self.n_classes;
        self.offered.drain(..cells);
        self.dropped.drain(..cells);
        self.n_intervals -= k;
    }

    /// The link's ground-truth congestion probability for one class: the
    /// fraction of (active) intervals in which the link dropped more than
    /// `loss_threshold` of that class's offered packets.
    pub fn congestion_probability(
        &self,
        link: LinkId,
        class: ClassLabel,
        loss_threshold: f64,
    ) -> f64 {
        let mut active = 0usize;
        let mut congested = 0usize;
        let offered = self.column(&self.offered, link, class);
        let dropped = self.column(&self.dropped, link, class);
        for (off, drop) in offered.zip(dropped) {
            if off == 0 {
                continue;
            }
            active += 1;
            if drop as f64 > loss_threshold * off as f64 {
                congested += 1;
            }
        }
        if active == 0 {
            0.0
        } else {
            congested as f64 / active as f64
        }
    }

    /// Total packets of one class offered to a link (the denominator of a
    /// NetPolice-style per-class probe loss rate).
    pub fn class_offered(&self, link: LinkId, class: ClassLabel) -> u64 {
        self.column(&self.offered, link, class).sum()
    }

    /// Total packets of one class dropped at a link.
    pub fn class_dropped(&self, link: LinkId, class: ClassLabel) -> u64 {
        self.column(&self.dropped, link, class).sum()
    }

    /// Total packets dropped at a link across classes.
    pub fn total_dropped(&self, link: LinkId) -> u64 {
        assert!(
            link.index() < self.n_links,
            "link {} out of range ({} links)",
            link.index(),
            self.n_links
        );
        (0..self.n_classes)
            .map(|c| self.class_dropped(link, c as ClassLabel))
            .sum()
    }
}

/// Queue-occupancy time series of one link (Figure 11).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueTrace {
    /// Sample timestamps (seconds).
    pub times_s: Vec<f64>,
    /// Queue occupancy at each sample (bytes, main queue + shaper lanes).
    pub bytes: Vec<u64>,
}

impl QueueTrace {
    /// Appends a sample.
    pub fn push(&mut self, time_s: f64, bytes: u64) {
        self.times_s.push(time_s);
        self.bytes.push(bytes);
    }

    /// Peak occupancy.
    pub fn max_bytes(&self) -> u64 {
        self.bytes.iter().copied().max().unwrap_or(0)
    }

    /// Mean occupancy.
    pub fn mean_bytes(&self) -> f64 {
        if self.bytes.is_empty() {
            return 0.0;
        }
        self.bytes.iter().map(|&b| b as f64).sum::<f64>() / self.bytes.len() as f64
    }
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Measured-path packet log (the only thing inference sees).
    pub log: MeasurementLog,
    /// Ground truth for evaluation.
    pub link_truth: LinkTruth,
    /// Per-link queue occupancy traces.
    pub queue_traces: Vec<QueueTrace>,
    /// Flows that ran to completion.
    pub completed_flows: usize,
    /// Total segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Segments delivered to receivers.
    pub segments_delivered: u64,
    /// Segments dropped anywhere in the network.
    pub segments_dropped: u64,
}

impl SimReport {
    /// Conservation check: every transmitted segment is delivered, dropped,
    /// or still in flight at the end of the run.
    pub fn in_flight(&self) -> u64 {
        self.segments_sent - self.segments_delivered - self.segments_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_accumulates_and_computes_probability() {
        let mut t = LinkTruth::new(2, 2);
        // Interval 0: 100 offered to link 0 class 1, 5 dropped (5% > 1%).
        for _ in 0..100 {
            t.record_offered(0, LinkId(0), 1);
        }
        for _ in 0..5 {
            t.record_dropped(0, LinkId(0), 1);
        }
        // Interval 1: clean.
        for _ in 0..100 {
            t.record_offered(1, LinkId(0), 1);
        }
        assert!((t.congestion_probability(LinkId(0), 1, 0.01) - 0.5).abs() < 1e-12);
        assert_eq!(t.congestion_probability(LinkId(0), 0, 0.01), 0.0);
        assert_eq!(t.congestion_probability(LinkId(1), 1, 0.01), 0.0);
        assert_eq!(t.total_dropped(LinkId(0)), 5);
        assert_eq!(t.class_offered(LinkId(0), 1), 200);
        assert_eq!(t.class_dropped(LinkId(0), 1), 5);
        assert_eq!(t.class_offered(LinkId(0), 0), 0);
    }

    #[test]
    fn loss_fractions_skip_idle_intervals() {
        let mut t = LinkTruth::new(1, 1);
        t.record_offered(0, LinkId(0), 0);
        t.record_dropped(0, LinkId(0), 0);
        t.ensure(2); // interval 1 idle, interval 2 idle
                     // Only the one active interval counts, and it lost everything.
        assert_eq!(t.congestion_probability(LinkId(0), 0, 0.5), 1.0);
    }

    #[test]
    fn warmup_drop() {
        let mut t = LinkTruth::new(1, 1);
        t.record_offered(0, LinkId(0), 0);
        t.record_offered(1, LinkId(0), 0);
        t.drop_warmup(1);
        assert_eq!(t.interval_count(), 1);
    }

    #[test]
    fn queue_trace_summaries() {
        let mut q = QueueTrace::default();
        q.push(0.0, 100);
        q.push(1.0, 300);
        q.push(2.0, 200);
        assert_eq!(q.max_bytes(), 300);
        assert!((q.mean_bytes() - 200.0).abs() < 1e-12);
    }
}
