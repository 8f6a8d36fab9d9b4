//! The serialization half of the simulate/infer seam, gated two ways:
//!
//! 1. **Golden identity** — for all 14 scenarios of the shared
//!    [`identity_suite`] × 3 seeds, `infer` over a binary encode→decode
//!    round trip of the `MeasurementSet` is bit-identical to the inline
//!    (fused) `Experiment::run` inference — the measurement-set boundary
//!    loses nothing the algorithm consumes.
//! 2. **Property round trips** — randomly generated scenarios survive
//!    binary encode→decode bit-identically (`PartialEq` over every field,
//!    fingerprints included).

use proptest::prelude::*;

use nni_measure::{codec, MeasurementSet, Provenance};
use nni_scenario::library::identity_suite;
use nni_scenario::{infer, InferenceConfig, ScenarioGen};
use nni_topology::PathId;

const SEEDS: [u64; 3] = [1, 7, 42];

#[test]
fn infer_over_decoded_corpus_matches_inline_run_on_the_identity_suite() {
    let scenarios = identity_suite();
    assert_eq!(scenarios.len(), 14, "the golden population is pinned");
    for s in &scenarios {
        for &seed in &SEEDS {
            let s = s.with_seed(seed);
            let exp = s.compile();
            let fused = exp.run();
            let set = exp.package(fused.report.log.clone());

            // Binary round trip: bit-identical set…
            let decoded = codec::decode(&codec::encode(&set)).expect("decodes");
            assert_eq!(set, decoded, "`{}` seed {seed}: set round trip", s.name);
            assert_eq!(set.fingerprint(), decoded.fingerprint());

            // …and bit-identical inference through the free `infer` layer.
            let cfg = InferenceConfig::of(&s);
            let replayed = infer(&decoded, &cfg);
            assert_eq!(
                replayed, fused.inference,
                "`{}` seed {seed}: infer(decode(encode(set))) diverged from \
                 the fused Experiment::run",
                s.name
            );
            assert_eq!(replayed.fingerprint(), fused.inference.fingerprint());
        }
    }
}

/// A synthetic measurement set over a generated scenario's real topology
/// and classes, with log counts drawn from the seed — broad shape coverage
/// without paying for emulation.
fn synthetic_set(gen_seed: u64, intervals: usize) -> MeasurementSet {
    let s = ScenarioGen::new(gen_seed).scenario();
    let n_paths = s.topology.path_count();
    let mut log = nni_measure::MeasurementLog::new(n_paths.max(1), s.measurement.interval_s);
    let mut x = gen_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        // xorshift64*: cheap deterministic count stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for t in 0..intervals {
        for p in 0..n_paths {
            let sent = next() % 5_000;
            let lost = if sent == 0 {
                0
            } else {
                next() % (sent / 10 + 1)
            };
            log.record_sent(t, PathId(p), sent);
            log.record_lost(t, PathId(p), lost);
        }
    }
    MeasurementSet {
        provenance: Provenance {
            scenario: s.name.clone(),
            scenario_fingerprint: s.measurement_fingerprint(),
            seed: s.measurement.seed,
            build: nni_emu::build_fingerprint(),
        },
        topology: s.topology.clone(),
        classes: s.classes.clone(),
        log,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Synthetic sets over generated topologies: binary round trips are
    /// bit-identical for arbitrary shapes and counts.
    #[test]
    fn generated_sets_round_trip_bit_identically(
        seed in 0u64..1_000_000,
        intervals in 0usize..40,
    ) {
        let set = synthetic_set(seed, intervals);
        let decoded = codec::decode(&codec::encode(&set)).expect("decodes");
        prop_assert_eq!(&set, &decoded);
        prop_assert_eq!(set.fingerprint(), decoded.fingerprint());
    }
}

proptest! {
    // Fewer cases: each one pays for a real (short) emulation.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fully *simulated* generated scenarios (short windows) round trip and
    /// re-infer identically to the fused path — the end-to-end property on
    /// top of the synthetic-shape coverage above.
    #[test]
    fn simulated_generated_scenarios_replay_identically(seed in 0u64..1_000_000) {
        let mut s = ScenarioGen::new(seed).scenario();
        s.measurement.duration_s = 1.5;
        s.measurement.warmup_s = Some(0.25);
        let exp = s.compile();
        let fused = exp.run();
        let set = exp.package(fused.report.log.clone());
        let decoded = codec::decode(&codec::encode(&set)).expect("decodes");
        prop_assert_eq!(&set, &decoded);
        let replayed = infer(&decoded, &InferenceConfig::of(&s));
        prop_assert_eq!(replayed, fused.inference);
    }
}
