//! The streaming-convergence gate: online inference must land on
//! *bit-identical* verdicts to batch inference — across the curated
//! 14-scenario identity suite AND the 24-scenario randomized invariant
//! population — and the incremental path must actually be incremental:
//! ≥3× faster than re-running a full recompute per closed interval over a
//! 60-interval window, with the advantage proven structurally by the
//! Algorithm 2 evaluation probe, not just by wall clock.
//!
//! This is the suite the dedicated `live-streaming` CI job runs.

use std::sync::Mutex;
use std::time::Instant;

use nni_core::InferenceResult;
use nni_measure::{interval_eval_count, MeasurementLog, MeasurementSet};
use nni_scenario::library::{identity_suite, topology_a_scenario, ExperimentParams, Mechanism};
use nni_scenario::{infer, InferenceConfig, Scenario, ScenarioGen, StreamingInference};
use nni_topology::PathId;

/// The Algorithm 2 evaluation probe is process-global, so every test in
/// this binary serializes on it: concurrent inference in another test
/// thread must not pollute an eval-count delta (and must not skew the
/// best-of-two timings).
static EVAL_GUARD: Mutex<()> = Mutex::new(());

fn invariant_seed() -> u64 {
    std::env::var("NNI_INVARIANT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The same population the invariants and process-identity harnesses
/// check: 16 full-generator scenarios plus 8 forced-neutral controls.
fn random_population() -> Vec<Scenario> {
    let seed = invariant_seed();
    let mut pop = ScenarioGen::new(seed).scenarios(16);
    pop.extend(ScenarioGen::neutral_only(seed.wrapping_add(0x9E37_79B9)).scenarios(8));
    pop
}

/// The final verdict of feeding `set`'s log one closed interval at a time.
fn stream_per_interval(set: &MeasurementSet, cfg: &InferenceConfig) -> InferenceResult {
    let mut live = StreamingInference::new(&set.topology, set.provenance.seed, cfg);
    for t in 1..=set.log.interval_count() {
        live.advance(&set.log, t);
    }
    live.verdict()
}

fn assert_streams_to_batch(scenario: &Scenario) {
    let set = scenario.compile().simulate();
    let cfg = InferenceConfig::of(scenario);
    let batch = infer(&set, &cfg);
    let streamed = stream_per_interval(&set, &cfg);
    assert_eq!(
        streamed.fingerprint(),
        batch.fingerprint(),
        "streaming verdict diverged from batch on {:?} (seed {})",
        scenario.name,
        set.provenance.seed,
    );
    assert_eq!(streamed, batch);
}

#[test]
fn identity_suite_streams_to_batch_fingerprints() {
    let _guard = EVAL_GUARD.lock().unwrap();
    let suite = identity_suite();
    assert_eq!(suite.len(), 14, "the curated identity suite");
    for scenario in &suite {
        assert_streams_to_batch(scenario);
    }
}

#[test]
fn randomized_population_streams_to_batch_fingerprints() {
    let _guard = EVAL_GUARD.lock().unwrap();
    let population = random_population();
    assert_eq!(population.len(), 24);
    for scenario in &population {
        assert_streams_to_batch(scenario);
    }
}

/// A policing run with exactly 60 post-warmup intervals — the window the
/// speedup gate is specified over.
fn sixty_interval_set() -> (MeasurementSet, InferenceConfig) {
    let mut s = topology_a_scenario(ExperimentParams {
        mechanism: Mechanism::Policing(0.2),
        duration_s: 7.0,
        ..ExperimentParams::default()
    });
    s.measurement.warmup_s = Some(1.0);
    let cfg = InferenceConfig::of(&s);
    let set = s.compile().simulate();
    assert_eq!(
        set.log.interval_count(),
        60,
        "the gate's 60-interval window"
    );
    (set, cfg)
}

/// Batch inference over the first `through` intervals of `set`.
fn prefix_infer(set: &MeasurementSet, through: usize, cfg: &InferenceConfig) -> u64 {
    let mut prefix = MeasurementLog::new(set.log.path_count(), set.log.interval_s());
    for t in 0..through {
        for p in 0..set.log.path_count() {
            prefix.record_sent(t, PathId(p), set.log.sent(t, PathId(p)));
            prefix.record_lost(t, PathId(p), set.log.lost(t, PathId(p)));
        }
    }
    let prefix_set = MeasurementSet {
        topology: set.topology.clone(),
        classes: set.classes.clone(),
        log: prefix,
        provenance: set.provenance.clone(),
    };
    infer(&prefix_set, cfg).fingerprint()
}

#[test]
fn incremental_recluster_is_at_least_3x_faster_than_full_recompute() {
    let _guard = EVAL_GUARD.lock().unwrap();
    let (set, cfg) = sixty_interval_set();
    let t_max = set.log.interval_count();

    // Best-of-two timings on each side: a single descheduling blip on a
    // loaded CI runner must not decide a 3×-floor assertion that actually
    // sits far above it.

    // Naive online inference: a full batch recompute at every watermark.
    let mut naive = None;
    let mut naive_elapsed = None;
    let mut naive_evals = 0;
    for _ in 0..2 {
        let evals0 = interval_eval_count();
        let t0 = Instant::now();
        let fps: Vec<u64> = (1..=t_max).map(|t| prefix_infer(&set, t, &cfg)).collect();
        let elapsed = t0.elapsed();
        naive_evals = interval_eval_count() - evals0;
        naive.get_or_insert(fps);
        naive_elapsed =
            Some(naive_elapsed.map_or(elapsed, |b: std::time::Duration| b.min(elapsed)));
    }
    let (naive, naive_elapsed) = (naive.unwrap(), naive_elapsed.unwrap());

    // Incremental: fold each interval once, re-run only the decision half.
    let mut inc = None;
    let mut inc_elapsed = None;
    let mut inc_evals = 0;
    for _ in 0..2 {
        let evals0 = interval_eval_count();
        let t0 = Instant::now();
        let mut live = StreamingInference::new(&set.topology, set.provenance.seed, &cfg);
        let fps: Vec<u64> = (1..=t_max)
            .map(|t| {
                live.advance(&set.log, t);
                live.verdict().fingerprint()
            })
            .collect();
        let elapsed = t0.elapsed();
        inc_evals = interval_eval_count() - evals0;
        inc.get_or_insert(fps);
        inc_elapsed = Some(inc_elapsed.map_or(elapsed, |b: std::time::Duration| b.min(elapsed)));
    }
    let (inc, inc_elapsed) = (inc.unwrap(), inc_elapsed.unwrap());

    // Same verdict at every watermark first — speed claims over different
    // results are void.
    assert_eq!(inc, naive, "per-watermark verdicts must agree exactly");

    // Structural proof: the naive side pays T evaluations per group at
    // watermark T (T·(T+1)/2 = 1830 per group over the window); the
    // incremental side pays exactly one per interval per group.
    assert_eq!(
        naive_evals * 2,
        inc_evals * (t_max as u64 + 1),
        "naive recompute must cost T(T+1)/2 evals per group vs T incremental"
    );

    assert!(
        inc_elapsed * 3 <= naive_elapsed,
        "incremental re-clustering must be ≥3× faster: \
         naive {naive_elapsed:?} vs incremental {inc_elapsed:?}"
    );
    println!(
        "60-interval window: naive {naive_elapsed:?} ({naive_evals} evals), \
         incremental {inc_elapsed:?} ({inc_evals} evals, {:.1}×)",
        naive_elapsed.as_secs_f64() / inc_elapsed.as_secs_f64()
    );
}
