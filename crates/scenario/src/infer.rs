//! The inference half of the decoupled pipeline: run Algorithm 1/2 over any
//! [`MeasurementSet`] — live, decoded from a corpus, or cached — without
//! touching the emulator.
//!
//! [`Experiment::run`](crate::Experiment::run) is now a thin composition of
//! [`Experiment::simulate`](crate::Experiment::simulate) and [`infer`]: the
//! two halves communicate *only* through the measurement set, so
//! `infer(decode(encode(simulate())))` is bit-identical to the fused path
//! (gated by `tests/corpus_roundtrip.rs`).

use nni_core::{evaluate, Config, InferenceResult, Quality};
use nni_measure::{MeasurementSet, NormalizeConfig};

use crate::memo::PLANS;
use crate::spec::{Expectation, Scenario};

/// Everything the inference half needs beyond the measurements themselves.
///
/// Varying this over a fixed [`MeasurementSet`] is the whole point of the
/// seam: decision thresholds, clustering configs, and loss thresholds can be
/// explored without re-simulating (see
/// [`SweepSet::decision_thresholds`](crate::SweepSet::decision_thresholds)).
#[derive(Debug, Clone, Copy)]
pub struct InferenceConfig {
    /// Loss threshold for the congestion-free indicator (Table 1: 1%).
    pub loss_threshold: f64,
    /// Salt XORed with the set's seed to seed Algorithm 2's normalization
    /// draw (see [`crate::spec::DEFAULT_NORMALIZE_SALT`]).
    pub normalize_salt: u64,
    /// Algorithm 1 configuration.
    pub algorithm: Config,
    /// Delay-inflation feature for the joint loss+delay congestion-free
    /// indicator. `None` (the default) keeps inference loss-only; cells
    /// without delay statistics fall back to loss-only either way.
    pub delay: Option<nni_core::DelayFeature>,
}

impl InferenceConfig {
    /// The inference configuration a scenario carries — what the fused
    /// [`Scenario::run`] uses, extracted so re-inference sweeps start from
    /// the same point.
    pub fn of(scenario: &Scenario) -> InferenceConfig {
        InferenceConfig {
            loss_threshold: scenario.measurement.loss_threshold,
            normalize_salt: scenario.measurement.normalize_salt,
            algorithm: scenario.inference,
            delay: scenario.measurement.delay_feature,
        }
    }

    /// Algorithm 2's configuration for a set recorded under `seed`: the
    /// normalization draw is seeded from the seed XOR the config's salt.
    pub(crate) fn normalize(&self, seed: u64) -> NormalizeConfig {
        NormalizeConfig {
            loss_threshold: self.loss_threshold,
            seed: seed ^ self.normalize_salt,
            delay: self.delay,
        }
    }
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            loss_threshold: 0.01,
            normalize_salt: crate::spec::DEFAULT_NORMALIZE_SALT,
            algorithm: Config::clustered(),
            delay: None,
        }
    }
}

/// Runs Algorithm 2 + Algorithm 1 over a measurement set: the pure
/// inference half of [`Experiment::run`](crate::Experiment::run).
///
/// Algorithm 2 is one whole-log fold of the engine
/// [`StreamingInference`](crate::StreamingInference) folds per interval,
/// and, as there, only the slices whose counters the fold moved are
/// scored before the decision.
/// Deterministic in `(set, cfg)`: the normalization draw is seeded from the
/// set's provenance seed XOR the config's salt, exactly as the fused path
/// seeds it.
///
/// The slice plan and the engine's layout depend on the topology alone, so
/// a process keeps the last ones it built in a one-entry memo, shared with
/// [`StreamingInference`](crate::StreamingInference). Its key is exactly
/// what the plan reads: `cfg.algorithm.min_pairs`, the link count and every
/// path's link list. A call whose key matches re-arms the held engine
/// ([`SlidingCounts::rearm`](nni_measure::SlidingCounts::rearm)) instead of
/// building a plan; one whose key differs drops the held entry before it
/// builds, so at most one memoized plan is resident. The result is the
/// same whatever calls came before, on this thread or another: a
/// concurrent call that finds the memo in use builds its own.
pub fn infer(set: &MeasurementSet, cfg: &InferenceConfig) -> InferenceResult {
    infer_parts(&set.topology, &set.log, set.provenance.seed, cfg)
}

/// The borrowing core of [`infer`] — shared with the fused
/// [`Experiment::run`](crate::Experiment::run), which holds the pieces
/// inside a `SimReport` and must not clone a measurement set per run.
pub(crate) fn infer_parts(
    topology: &nni_topology::Topology,
    log: &nni_measure::MeasurementLog,
    seed: u64,
    cfg: &InferenceConfig,
) -> InferenceResult {
    let mut entry = PLANS.take(topology, &cfg.algorithm);
    let engine = entry.engine(cfg.normalize(seed), cfg.algorithm.mode);
    engine.advance(log, log.interval_count());
    let result = engine.verdict();
    PLANS.put(entry);
    result
}

/// One re-inference product: everything [`ExperimentOutcome`] reports except
/// the raw simulation artifacts (which a measurement set deliberately does
/// not carry).
///
/// [`ExperimentOutcome`]: crate::ExperimentOutcome
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOutcome {
    /// Per-measured-path congestion probability at the config's loss
    /// threshold, in path order.
    pub path_congestion: Vec<f64>,
    /// Algorithm 1's verdict: any non-neutral link sequence found?
    pub flagged_nonneutral: bool,
    /// Whether the verdict matches the expectation scored against.
    pub correct: bool,
    /// FN / FP / granularity against the expectation's non-neutral links.
    pub quality: Quality,
    /// The full inference result.
    pub inference: InferenceResult,
}

/// [`infer`] plus scoring against a ground-truth expectation — the complete
/// inference half of the fused pipeline.
pub fn infer_scored(
    set: &MeasurementSet,
    cfg: &InferenceConfig,
    expectation: &Expectation,
) -> InferenceOutcome {
    infer_scored_parts(
        &set.topology,
        &set.log,
        set.provenance.seed,
        cfg,
        expectation,
    )
}

/// The borrowing core of [`infer_scored`] (see [`infer_parts`]).
pub(crate) fn infer_scored_parts(
    topology: &nni_topology::Topology,
    log: &nni_measure::MeasurementLog,
    seed: u64,
    cfg: &InferenceConfig,
    expectation: &Expectation,
) -> InferenceOutcome {
    let path_congestion: Vec<f64> = topology
        .path_ids()
        .map(|p| log.congestion_probability(p, cfg.loss_threshold))
        .collect();
    let inference = infer_parts(topology, log, seed, cfg);
    let flagged_nonneutral = inference.network_is_nonneutral();
    let quality = evaluate(
        topology,
        &inference.nonneutral,
        &expectation.nonneutral_links,
    );
    InferenceOutcome {
        path_congestion,
        flagged_nonneutral,
        correct: flagged_nonneutral == expectation.expect_flagged,
        quality,
        inference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{topology_a_scenario, ExperimentParams, Mechanism};

    fn scenario() -> Scenario {
        topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            duration_s: 8.0,
            ..ExperimentParams::default()
        })
    }

    #[test]
    fn infer_matches_the_fused_path() {
        let s = scenario();
        let exp = s.compile();
        let fused = exp.run();
        let set = exp.simulate();
        let cfg = InferenceConfig::of(&s);
        assert_eq!(infer(&set, &cfg), fused.inference);
        let scored = infer_scored(&set, &cfg, &s.expectation);
        assert_eq!(scored.path_congestion, fused.path_congestion);
        assert_eq!(scored.flagged_nonneutral, fused.flagged_nonneutral);
        assert_eq!(scored.correct, fused.correct);
        assert_eq!(scored.quality, fused.quality);
    }

    #[test]
    fn inference_config_axes_change_results_without_resimulating() {
        let s = scenario();
        let set = s.compile().simulate();
        let strict = InferenceConfig {
            loss_threshold: 0.5, // absurdly lax: nothing counts as congested
            ..InferenceConfig::of(&s)
        };
        let normal = infer_scored(&set, &InferenceConfig::of(&s), &s.expectation);
        let lax = infer_scored(&set, &strict, &s.expectation);
        assert!(normal.flagged_nonneutral, "20% policing must be flagged");
        assert!(
            !lax.flagged_nonneutral,
            "a 50% loss threshold sees no congestion at all"
        );
    }
}
