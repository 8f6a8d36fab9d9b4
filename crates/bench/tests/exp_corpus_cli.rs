//! Exit-code contract of `exp_corpus replay --verify`: a corpus whose
//! entries all decode exits 0; any codec failure — whether it surfaces at
//! listing time (corrupt provenance prefix) or at acquire time (corrupt
//! payload/checksum) — exits exactly 1, never a panic's 101. The same holds
//! for a `--dir` that cannot be a corpus directory, in `record` and
//! `replay` alike.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use nni_measure::{Corpus, MeasurementLog, MeasurementSet, Provenance};
use nni_topology::{PathId, TopologyBuilder};

fn exp_corpus(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp_corpus"))
        .args(args)
        .output()
        .expect("exp_corpus runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nni-exp-corpus-cli-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tiny_set() -> MeasurementSet {
    let mut b = TopologyBuilder::new();
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    let l0 = b.link("l0", h0, h1).unwrap();
    b.path("p0", vec![l0]).unwrap();
    let mut log = MeasurementLog::new(1, 0.1);
    log.record_sent(0, PathId(0), 12);
    MeasurementSet {
        topology: b.build(),
        classes: vec![vec![PathId(0)]],
        log,
        provenance: Provenance {
            scenario: "cli test".into(),
            scenario_fingerprint: 0xABCD,
            seed: 7,
            build: "test".into(),
        },
    }
}

#[test]
fn healthy_corpus_verifies_with_exit_zero() {
    let dir = temp_dir("healthy");
    let corpus = Corpus::open(&dir).expect("corpus opens");
    corpus.store(&tiny_set()).expect("store");
    let out = exp_corpus(&["replay", "--dir", dir.to_str().unwrap(), "--verify"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checksums good"), "got: {stdout}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupt_payload_fails_verify_with_exit_one() {
    let dir = temp_dir("payload");
    let corpus = Corpus::open(&dir).expect("corpus opens");
    let path = corpus.store(&tiny_set()).expect("store");
    // Truncate past the provenance prefix: listing still works, acquiring
    // hits the checksum/EOF failure.
    let bytes = fs::read(&path).expect("read entry");
    fs::write(&path, &bytes[..bytes.len() - 4]).expect("truncate entry");

    let out = exp_corpus(&["replay", "--dir", dir.to_str().unwrap(), "--verify"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a decode failure must exit 1, not panic; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("FAILED"));
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupt_prefix_fails_listing_with_exit_one() {
    let dir = temp_dir("prefix");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("garbage.nniset"), b"not a measurement set").expect("write");

    let out = exp_corpus(&["replay", "--dir", dir.to_str().unwrap(), "--verify"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a listing failure must exit 1, not 101; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("FAILED to list corpus"));
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn dir_that_is_a_regular_file_fails_with_exit_one() {
    let file = temp_dir("regular-file");
    fs::write(&file, b"not a directory").expect("write");

    for cmd in ["record", "replay"] {
        let out = exp_corpus(&[cmd, "--dir", file.to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`{cmd}` over a regular file must exit 1, not 101; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("FAILED to open corpus"));
    }
    fs::remove_file(&file).expect("cleanup");
}
