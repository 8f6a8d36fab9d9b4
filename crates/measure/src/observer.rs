//! The measured implementation of [`nni_core::Observations`].
//!
//! Bridges a [`MeasurementLog`] to Algorithm 1: every slice queries the
//! performance numbers of its pathsets in the normalization context of
//! `Paths(τ)`. Each query runs Algorithm 2 through a one-slice
//! [`SlidingCounts`] folded over the whole log; nothing is cached between
//! queries.

use crate::normalize::NormalizeConfig;
use crate::record::MeasurementLog;
use crate::stream::SlidingCounts;
use nni_core::Observations;
use nni_topology::PathId;

/// Measured observation source.
pub struct MeasuredObservations<'a> {
    log: &'a MeasurementLog,
    cfg: NormalizeConfig,
}

impl<'a> MeasuredObservations<'a> {
    /// Wraps a measurement log.
    pub fn new(log: &'a MeasurementLog, cfg: NormalizeConfig) -> MeasuredObservations<'a> {
        MeasuredObservations { log, cfg }
    }
}

impl Observations for MeasuredObservations<'_> {
    fn pathset_perf(&self, group: &[PathId], pathset: impl AsRef<[PathId]>) -> f64 {
        self.observe_all(group, [pathset])[0]
    }

    fn observe_all(
        &self,
        group: &[PathId],
        pathsets: impl IntoIterator<Item = impl AsRef<[PathId]>>,
    ) -> Vec<f64> {
        let mut counts = SlidingCounts::new(self.cfg, None, [(group, pathsets)]);
        counts.advance(self.log, self.log.interval_count());
        counts.ys().pop().expect("one slice")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_topology::PathSet;

    /// Builds a log in which paths 0 and 1 congest together in 25% of
    /// intervals and path 2 never congests.
    fn correlated_log() -> MeasurementLog {
        let mut log = MeasurementLog::new(3, 0.1);
        for t in 0..400 {
            for p in 0..3 {
                log.record_sent(t, PathId(p), 500);
            }
            if t % 4 == 0 {
                log.record_lost(t, PathId(0), 50);
                log.record_lost(t, PathId(1), 50);
            }
        }
        log
    }

    #[test]
    fn singleton_perf_matches_frequency() {
        let log = correlated_log();
        let obs = MeasuredObservations::new(&log, NormalizeConfig::default());
        let group = [PathId(0), PathId(1), PathId(2)];
        let y0 = obs.pathset_perf(&group, PathSet::single(PathId(0)));
        assert!((y0 + (0.75f64).ln()).abs() < 1e-9, "y0 = {y0}");
        let y2 = obs.pathset_perf(&group, PathSet::single(PathId(2)));
        assert_eq!(y2, 0.0);
    }

    #[test]
    fn correlated_pair_shows_joint_congestion() {
        // p0 and p1 congest in the SAME intervals: y({p0,p1}) == y({p0}),
        // the §3.3 signature of shared congestion.
        let log = correlated_log();
        let obs = MeasuredObservations::new(&log, NormalizeConfig::default());
        let group = [PathId(0), PathId(1), PathId(2)];
        let y0 = obs.pathset_perf(&group, PathSet::single(PathId(0)));
        let y01 = obs.pathset_perf(&group, PathSet::pair(PathId(0), PathId(1)));
        assert!((y01 - y0).abs() < 1e-9);
        // And pairing with the clean path adds nothing.
        let y02 = obs.pathset_perf(&group, PathSet::pair(PathId(0), PathId(2)));
        assert!((y02 - y0).abs() < 1e-9);
    }

    #[test]
    fn observe_all_matches_pathset_perf() {
        let log = correlated_log();
        let obs = MeasuredObservations::new(&log, NormalizeConfig::default());
        let group = [PathId(2), PathId(0)];
        let sets = [
            PathSet::single(PathId(0)),
            PathSet::single(PathId(2)),
            PathSet::pair(PathId(0), PathId(2)),
        ];
        let each: Vec<f64> = sets.iter().map(|s| obs.pathset_perf(&group, s)).collect();
        assert_eq!(obs.observe_all(&group, &sets), each);
        assert!((each[0] + 0.75f64.ln()).abs() < 1e-9);
    }
}
