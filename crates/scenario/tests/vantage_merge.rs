//! Multi-vantage merge at the inference level: a measurement log split
//! across three vantage collectors and merged back loses nothing — batch
//! inference, and the streaming path, land on the same verdict as over
//! the never-split log. (The algebraic merge properties — commutativity,
//! associativity, identity — are property-tested in
//! `crates/measure/tests/proptest_measure.rs`; this file checks the
//! end-to-end consequence on generated scenarios.)

use nni_measure::{MeasurementLog, MeasurementSet};
use nni_scenario::{infer, InferenceConfig, ScenarioGen, StreamingInference};
use nni_topology::PathId;
use proptest::prelude::*;

/// Splits `log` into `ways` vantage logs by interval residue: vantage `v`
/// holds every cell of intervals `t ≡ v (mod ways)` and nothing else.
fn split_vantages(log: &MeasurementLog, ways: usize) -> Vec<MeasurementLog> {
    let mut parts: Vec<MeasurementLog> = (0..ways)
        .map(|_| MeasurementLog::new(log.path_count(), log.interval_s()))
        .collect();
    for t in 0..log.interval_count() {
        let dst = &mut parts[t % ways];
        for p in 0..log.path_count() {
            dst.record_sent(t, PathId(p), log.sent(t, PathId(p)));
            dst.record_lost(t, PathId(p), log.lost(t, PathId(p)));
        }
    }
    parts
}

proptest! {
    // Each case simulates a generated scenario, so the budget is small —
    // the population sweep lives in `invariants.rs`.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Merge-then-infer equals infer-merged: the three-way vantage split
    /// reassembles the exact log, and both batch and incremental inference
    /// over the reassembly are bit-identical to inference over the
    /// original.
    #[test]
    fn merge_then_infer_equals_infer_merged(seed in 0u64..10_000) {
        let scenario = ScenarioGen::new(seed).scenarios(1).pop().unwrap();
        let cfg = InferenceConfig::of(&scenario);
        let set = scenario.compile().simulate();

        let parts = split_vantages(&set.log, 3);
        let mut merged = parts[0].clone();
        merged.merge(&parts[1]).unwrap();
        merged.merge(&parts[2]).unwrap();
        prop_assert_eq!(&merged, &set.log, "the split loses nothing");

        let merged_set = MeasurementSet { log: merged, ..set.clone() };
        let reference = infer(&set, &cfg).fingerprint();
        prop_assert_eq!(infer(&merged_set, &cfg).fingerprint(), reference);
        let seed = merged_set.provenance.seed;
        let mut live = StreamingInference::new(&merged_set.topology, seed, &cfg);
        for t in 1..=merged_set.log.interval_count() {
            live.advance(&merged_set.log, t);
        }
        prop_assert_eq!(live.verdict().fingerprint(), reference);
    }
}
