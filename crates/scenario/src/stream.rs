//! Online inference: [`StreamingInference`] re-clusters per closed
//! interval over the same Algorithm 2 engine ([`SlidingCounts`]) batch
//! [`infer`](crate::infer()) folds a whole log through.
//!
//! Why the verdicts converge *exactly* (the streaming guarantee):
//!
//! 1. a closed interval's congestion-free indicators are a deterministic
//!    function of `(seed, interval, path)` alone, so computing them on
//!    arrival equals computing them in a batch pass;
//! 2. the per-pathset state is two integers (its congestion-free interval
//!    count and its group's informative interval count) accumulated
//!    exactly once per interval — integer addition in arrival order equals
//!    a whole-log fold;
//! 3. the performance numbers and everything after them are pure functions
//!    of those integers, computed by the *same* code batch inference runs
//!    over the same [`IdentifyPlan`]: a slice's scores (pair estimates,
//!    unsolvability) by [`SliceScores::score`] from its `y`, then 2-means
//!    and redundancy removal by [`SliceScores::decide`]. A slice's scores
//!    are rescored whenever its group's counters move; a slice whose
//!    counters did not move has the `y`, and so the scores, it had.
//!
//! So at every watermark `T`, [`StreamingInference::verdict`] equals
//! `infer` over the log truncated to `T` intervals — checkable, and
//! checked by `tests/streaming_convergence.rs`.

use std::sync::Arc;

use nni_core::{DecisionMode, IdentifyPlan, InferenceResult, SliceScores};
use nni_measure::{MeasurementLog, NormalizeConfig, SlidingCounts};
use nni_topology::Topology;

use crate::infer::InferenceConfig;
use crate::memo::PLANS;

/// The Algorithm 2 engine over every slice of a plan, and the slices'
/// scores kept current with its counters: each
/// [`advance`](PlanEngine::advance) rescores only the slices whose group's
/// counters it moved. The scores start, and return on a rebase or re-arm,
/// at what a slice with no informative interval scores, which is what
/// every slice with zeroed counters has.
#[derive(Debug, Clone)]
pub(crate) struct PlanEngine {
    counts: SlidingCounts,
    scores: SliceScores,
    /// One slice's `y`, reused across rescorings.
    y: Vec<f64>,
}

impl PlanEngine {
    pub(crate) fn new(
        plan: &IdentifyPlan,
        cfg: NormalizeConfig,
        mode: DecisionMode,
        window: Option<usize>,
    ) -> PlanEngine {
        let slices = plan
            .slices()
            .iter()
            .enumerate()
            .map(|(i, s)| (plan.group(i), s.theta()));
        PlanEngine {
            counts: SlidingCounts::new(cfg, window, slices),
            scores: SliceScores::new(plan, mode),
            y: Vec::new(),
        }
    }

    /// Folds closed intervals `consumed..through` of `log` and rescores
    /// the slices whose counters moved.
    pub(crate) fn advance(&mut self, log: &MeasurementLog, through: usize) {
        let PlanEngine { counts, scores, y } = self;
        counts.advance(log, through);
        for i in counts.moved_slices() {
            counts.y(i, y);
            scores.score(i, y);
        }
    }

    /// Forgets every consumed interval.
    pub(crate) fn rebase(&mut self) {
        self.counts.rebase();
        self.scores.rebase();
    }

    /// Forgets every consumed interval; the next advance folds under `cfg`
    /// and the verdict decides under `mode`.
    pub(crate) fn rearm(&mut self, cfg: NormalizeConfig, mode: DecisionMode) {
        self.counts.rearm(cfg);
        self.scores.rearm(mode);
    }

    pub(crate) fn consumed(&self) -> usize {
        self.counts.consumed()
    }

    /// Algorithm 1's decision over the current scores.
    pub(crate) fn verdict(&self) -> InferenceResult {
        self.scores.decide()
    }
}

/// Incremental Algorithm 1 + 2 over a growing measurement log.
///
/// Construction takes the slice plan (shared with batch inference, see
/// [`new`](StreamingInference::new)) and builds a [`SlidingCounts`] over
/// every slice's normalization group and pathsets, with a [`SliceScores`]
/// beside it. Each [`advance`](StreamingInference::advance) folds newly
/// closed intervals into integer counters (one Algorithm 2 evaluation per
/// group per interval — *not* a full recompute) and rescores only the
/// slices whose group's counters moved: a group folded an informative
/// interval, or its window evicted one. Every other slice's `y` is what it
/// was, so its scores are too, and the kept scores equal scoring every
/// slice afresh; [`verdict`](StreamingInference::verdict) runs only the
/// decision over them, so it still equals batch inference. A slice never
/// observed keeps the scores of an all-zero `y`, which both paths give it.
#[derive(Debug, Clone)]
pub struct StreamingInference {
    engine: PlanEngine,
}

impl StreamingInference {
    /// Full-history streaming state: verdicts converge to batch inference
    /// over the entire log.
    ///
    /// The slice plan comes from the one-entry memo [`infer`](crate::infer())
    /// keeps, keyed exactly by what the plan reads (`min_pairs`, the link
    /// count and every path's link list): a session and batch inference
    /// over one topology share one plan, and a topology other than the
    /// held one replaces it, so at most one memoized plan is resident. The
    /// counters are this value's own, so verdicts do not depend on which
    /// calls came before. [`windowed`](StreamingInference::windowed) takes
    /// its plan the same way.
    pub fn new(topology: &Topology, seed: u64, cfg: &InferenceConfig) -> StreamingInference {
        StreamingInference::build(topology, seed, cfg, None)
    }

    /// Sliding-window variant: verdicts reflect only the last `window`
    /// closed intervals — the monitoring mode, where old evidence ages
    /// out. (Batch equivalence then holds against a window-truncated log,
    /// not the full history.)
    pub fn windowed(
        topology: &Topology,
        seed: u64,
        cfg: &InferenceConfig,
        window: usize,
    ) -> StreamingInference {
        StreamingInference::build(topology, seed, cfg, Some(window))
    }

    fn build(
        topology: &Topology,
        seed: u64,
        cfg: &InferenceConfig,
        window: Option<usize>,
    ) -> StreamingInference {
        let entry = PLANS.take(topology, &cfg.algorithm);
        let plan = Arc::clone(entry.plan());
        PLANS.put(entry);
        // Streaming inference is loss-only by design: the joint indicator's
        // delay baseline is a min over the *whole* log (and per-interval
        // percentiles are order statistics, so they cannot be folded
        // incrementally) — `SlidingCounts::advance` refuses a prefix fold
        // under a delay feature. `MergeError::DelayNotMergeable` enforces
        // the same boundary on the vantage-merge side.
        let ncfg = NormalizeConfig {
            delay: None,
            ..cfg.normalize(seed)
        };
        StreamingInference {
            engine: PlanEngine::new(&plan, ncfg, cfg.algorithm.mode, window),
        }
    }

    /// Intervals consumed so far (the verdict watermark).
    pub fn consumed(&self) -> usize {
        self.engine.consumed()
    }

    /// Folds closed intervals `consumed..through` of `log` into the
    /// counters and rescores the slices whose counters moved. `log` must
    /// be the same measurement stream across calls (same interval grid and
    /// path order); already-consumed intervals must not have changed — if
    /// they have (a multi-vantage merge),
    /// [`rebase`](StreamingInference::rebase) first.
    pub fn advance(&mut self, log: &MeasurementLog, through: usize) {
        self.engine.advance(log, through);
    }

    /// Forgets all consumed intervals, keeping the precomputed plan and
    /// counter layout — the exact fallback for history rewrites: after a
    /// [`MeasurementLog::merge`] the caller rebases and re-advances over
    /// the merged log, landing on exactly the verdict batch inference
    /// computes over it.
    pub fn rebase(&mut self) {
        self.engine.rebase();
    }

    /// The current verdict: Algorithm 1's decision over the kept scores.
    /// At watermark `T` (unwindowed) this is bit-identical to batch
    /// [`infer`](crate::infer()) over the log's first `T` intervals.
    pub fn verdict(&self) -> InferenceResult {
        self.engine.verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer;
    use crate::library::{topology_a_scenario, ExperimentParams, Mechanism};
    use nni_measure::MeasurementSet;
    use nni_topology::PathId;
    use std::ops::Range;

    fn recorded_set() -> MeasurementSet {
        let mut s = topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            duration_s: 6.0,
            ..ExperimentParams::default()
        });
        // Keep 50 post-warmup intervals (the emulator default warm-up
        // would leave only 10).
        s.measurement.warmup_s = Some(1.0);
        s.compile().simulate()
    }

    #[test]
    fn incremental_equals_batch() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        let batch = infer(&set, &cfg);
        let mut live = StreamingInference::new(&set.topology, set.provenance.seed, &cfg);
        for t in 1..=set.log.interval_count() {
            live.advance(&set.log, t);
        }
        let streamed = live.verdict();
        assert_eq!(streamed, batch);
        assert_eq!(streamed.fingerprint(), batch.fingerprint());
    }

    /// `set` with only the intervals in `keep` recorded; the others stay
    /// as silent slots, so the `(interval, path)` draw keys do not shift.
    fn with_intervals(set: &MeasurementSet, keep: Range<usize>) -> MeasurementSet {
        let n = set.log.path_count();
        let mut log = MeasurementLog::new(n, set.log.interval_s());
        for t in keep {
            for p in (0..n).map(PathId) {
                log.record_sent(t, p, set.log.sent(t, p));
                log.record_lost(t, p, set.log.lost(t, p));
            }
        }
        MeasurementSet { log, ..set.clone() }
    }

    #[test]
    fn every_prefix_verdict_is_checkable_against_batch() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        let mut live = StreamingInference::new(&set.topology, set.provenance.seed, &cfg);
        for through in 1..=set.log.interval_count() {
            live.advance(&set.log, through);
            // Batch inference over the same closed prefix.
            assert_eq!(
                live.verdict().fingerprint(),
                infer(&with_intervals(&set, 0..through), &cfg).fingerprint(),
                "verdict diverged at watermark {through}"
            );
        }
    }
    #[test]
    fn rebase_after_merge_matches_batch_over_merged_log() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        // Split the log into two "vantages" by parity of interval.
        let n = set.log.path_count();
        let mut a = MeasurementLog::new(n, set.log.interval_s());
        let mut b = MeasurementLog::new(n, set.log.interval_s());
        for t in 0..set.log.interval_count() {
            let dst = if t % 2 == 0 { &mut a } else { &mut b };
            for p in 0..n {
                dst.record_sent(t, PathId(p), set.log.sent(t, PathId(p)));
                dst.record_lost(t, PathId(p), set.log.lost(t, PathId(p)));
            }
            // Materialize the interval on the other vantage too.
            let other = if t % 2 == 0 { &mut b } else { &mut a };
            other.record_sent(t, PathId(0), 0);
        }

        let mut live = StreamingInference::new(&set.topology, set.provenance.seed, &cfg);
        live.advance(&a, a.interval_count());
        // Vantage B arrives: merged history rewrites consumed intervals.
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        live.rebase();
        live.advance(&merged, merged.interval_count());

        assert_eq!(merged, set.log, "vantage split loses nothing");
        assert_eq!(
            live.verdict().fingerprint(),
            infer(&set, &cfg).fingerprint()
        );
    }

    #[test]
    fn windowed_verdict_matches_batch_over_the_window() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        let w = 20;
        let mut live = StreamingInference::windowed(&set.topology, set.provenance.seed, &cfg, w);
        let t_max = set.log.interval_count();
        assert!(t_max > w, "need more intervals than the window");
        live.advance(&set.log, t_max);

        // The batch comparison must see the same (interval, path) RNG
        // keys, so the window is expressed as zeroed-out old intervals,
        // not a shifted log.
        let tail_set = with_intervals(&set, t_max - w..t_max);
        assert_eq!(
            live.verdict().fingerprint(),
            infer(&tail_set, &cfg).fingerprint()
        );
    }
}
