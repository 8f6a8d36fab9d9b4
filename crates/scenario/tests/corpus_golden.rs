//! Cross-version compatibility gate for the on-disk corpus format.
//!
//! `corpus/golden/` (committed at the repo root) holds 3 identity-suite
//! scenarios × 2 seeds, recorded with `exp_corpus record --dir corpus/golden
//! --take 3 --seeds 3,11 --jsonl`. This test replays those *committed bytes*
//! through the current decoder and pins, per entry:
//!
//! * the decoded `MeasurementSet` fingerprint — the codec still reads old
//!   corpora bit-for-bit (the version byte is the upgrade path: a future
//!   format bumps it and keeps this decoder);
//! * the `InferenceResult` fingerprint of `infer` over the decoded set
//!   under the default config — inference over replayed measurements stays
//!   stable across releases;
//! * the JSON-lines sidecar is byte-identical to `to_jsonl` of the decoded
//!   entry — the export format is pinned as well;
//! * re-encoding the decoded set reproduces the committed bytes — the
//!   encoder is pinned, not only the decoder.
//!
//! If an intentional codec or inference change invalidates the values, run
//! with `NNI_PRINT_CORPUS_GOLDEN=1` and paste the printed table — but think
//! first: a mismatch here means previously recorded corpora now replay
//! differently, which is exactly what this gate exists to catch.

use nni_measure::{codec, jsonl, Corpus, MeasurementSource};
use nni_scenario::{infer, InferenceConfig};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/golden")
}

/// `(scenario, seed) -> (set fingerprint, inference fingerprint)`.
///
/// Entries appear in corpus replay order: per scenario, seeds ascend
/// *numerically* (3 before 11 — the zero-padded listing fix).
const GOLDEN: [(&str, u64, u64, u64); 6] = [
    (
        "topology-a neutral",
        3,
        0xd1c8ebb96fff04a7,
        0x47f5d527547fc943,
    ),
    (
        "topology-a neutral",
        11,
        0x8c02c9bbec0988b4,
        0x47f5d527547fc943,
    ),
    (
        "topology-a policing 20%",
        3,
        0xbb949e17e3af7608,
        0x4b4f3b011e8ac86a,
    ),
    (
        "topology-a policing 20%",
        11,
        0x9adc7e95bb5ead66,
        0xb6a763b0cccd2b95,
    ),
    (
        "topology-a shaping 30%",
        3,
        0xf98ebeccded6afc8,
        0xb355d0b938ffdec6,
    ),
    (
        "topology-a shaping 30%",
        11,
        0x53b061b4b7382b9c,
        0x17bf11b09c99c9e4,
    ),
];

#[test]
fn committed_corpus_replays_to_golden_fingerprints() {
    let corpus = Corpus::open(golden_dir()).expect("golden corpus exists");
    let entries = corpus.entries().expect("golden corpus lists");
    assert_eq!(entries.len(), GOLDEN.len(), "3 scenarios × 2 seeds");

    let cfg = InferenceConfig::default();
    let mut current: Vec<(String, u64, u64, u64)> = Vec::new();
    for e in &entries {
        let set = e.acquire().expect("committed entry decodes");
        let committed = std::fs::read(e.path()).expect("committed entry reads");
        assert!(
            codec::encode(&set) == committed,
            "re-encoding {} no longer reproduces its committed bytes",
            e.path().display()
        );
        let result = infer(&set, &cfg);
        current.push((
            set.provenance.scenario.clone(),
            set.provenance.seed,
            set.fingerprint(),
            result.fingerprint(),
        ));

        // The human-readable sidecar is today's export of the same set.
        let sidecar = e.path().with_extension("jsonl");
        let text = std::fs::read_to_string(&sidecar).expect("jsonl sidecar exists");
        assert!(
            jsonl::to_jsonl(&set) == text,
            "the export of {} no longer matches its committed sidecar",
            e.path().display()
        );
    }

    if std::env::var("NNI_PRINT_CORPUS_GOLDEN").is_ok() {
        println!(
            "const GOLDEN: [(&str, u64, u64, u64); {}] = [",
            current.len()
        );
        for (name, seed, set_fp, inf_fp) in &current {
            println!("    (\"{name}\", {seed}, {set_fp:#018x}, {inf_fp:#018x}),");
        }
        println!("];");
    }

    for ((name, seed, set_fp, inf_fp), (g_name, g_seed, g_set, g_inf)) in current.iter().zip(GOLDEN)
    {
        assert_eq!((name.as_str(), *seed), (g_name, g_seed), "entry order");
        assert_eq!(
            *set_fp, g_set,
            "`{name}` seed {seed}: decoded set fingerprint changed — the \
             codec no longer reads committed corpora identically"
        );
        assert_eq!(
            *inf_fp, g_inf,
            "`{name}` seed {seed}: inference over the replayed corpus \
             changed"
        );
    }
}
