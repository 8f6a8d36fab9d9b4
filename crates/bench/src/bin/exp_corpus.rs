//! The record/replay/re-infer workflow over on-disk measurement corpora —
//! the `MeasurementSet` seam as a command-line tool.
//!
//! ```text
//! exp_corpus record  --dir D [--seeds 1,2] [--take N] [--jsonl] [--append]
//! exp_corpus replay  --dir D [--verify]
//! exp_corpus reinfer --dir D [--thresholds 0.02,0.04,0.08]
//! ```
//!
//! * `record` simulates the scenario library's identity suite (the same 14
//!   scenarios the golden fingerprint tests pin) at each seed and stores
//!   every `MeasurementSet` in the corpus directory (binary codec;
//!   `--jsonl` additionally writes the human-readable dump next to each
//!   entry). `--take N` records only the first N suite members.
//!   `--append` adds onto an existing corpus — and exits 1 *before
//!   writing anything* if any new set's identity (scenario fingerprint +
//!   seed) is already stored, so a live tail never sees an entry rewrite
//!   itself.
//! * `replay` lists the corpus: provenance, shape, and set fingerprint per
//!   entry — with `--verify`, a checksum/decode failure or a provenance
//!   mismatch exits nonzero (the CI compatibility gate).
//! * `reinfer` runs Algorithm 1/2 over every stored set at each decision
//!   threshold **without any simulation** — measurement acquisition and
//!   inference fully decoupled.

use nni_bench::Table;
use nni_core::DecisionMode;
use nni_measure::{jsonl, Corpus, MeasurementSource};
use nni_scenario::library::identity_suite;
use nni_scenario::{infer, InferenceConfig, SerialExecutor};

fn usage() -> ! {
    eprintln!(
        "usage: exp_corpus record  --dir D [--seeds 1,2] [--take N] [--jsonl] [--append]\n\
                exp_corpus replay  --dir D [--verify]\n\
                exp_corpus reinfer --dir D [--thresholds 0.02,0.04]"
    );
    std::process::exit(2);
}

struct Args {
    dir: Option<String>,
    seeds: Vec<u64>,
    take: Option<usize>,
    jsonl: bool,
    append: bool,
    verify: bool,
    thresholds: Vec<f64>,
}

fn parse_args(rest: &[String]) -> Args {
    let mut out = Args {
        dir: None,
        seeds: vec![3, 11],
        take: None,
        jsonl: false,
        append: false,
        verify: false,
        thresholds: vec![0.02, 0.04, 0.08],
    };
    let mut i = 0;
    let value = |i: usize| -> &str {
        rest.get(i + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("{} requires a value", rest[i]);
            usage()
        })
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--dir" => {
                out.dir = Some(value(i).to_string());
                i += 2;
            }
            "--seeds" => {
                out.seeds = value(i)
                    .split(',')
                    .map(|s| s.parse().expect("--seeds N,N,..."))
                    .collect();
                i += 2;
            }
            "--take" => {
                out.take = Some(value(i).parse().expect("--take N"));
                i += 2;
            }
            "--thresholds" => {
                out.thresholds = value(i)
                    .split(',')
                    .map(|s| s.parse().expect("--thresholds F,F,..."))
                    .collect();
                i += 2;
            }
            "--jsonl" => {
                out.jsonl = true;
                i += 1;
            }
            "--append" => {
                out.append = true;
                i += 1;
            }
            "--verify" => {
                out.verify = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    out
}

/// Reports a corpus failure and exits 1: a directory that cannot hold a
/// corpus, a failed write or an undecodable entry is a verification
/// failure, never a panic's 101.
fn fail(what: String) -> ! {
    eprintln!("FAILED {what}");
    std::process::exit(1);
}

fn open_corpus(args: &Args) -> Corpus {
    let dir = args.dir.clone().unwrap_or_else(|| usage());
    Corpus::open(&dir).unwrap_or_else(|err| fail(format!("to open corpus {dir}: {err}")))
}

fn record(args: &Args) {
    let corpus = open_corpus(args);
    let mut suite = identity_suite();
    if let Some(n) = args.take {
        suite.truncate(n);
    }
    println!(
        "recording {} scenarios × {} seeds into {} ...",
        suite.len(),
        args.seeds.len(),
        corpus.dir().display()
    );
    // One batched acquisition through the executor seam.
    let experiments: Vec<_> = args
        .seeds
        .iter()
        .flat_map(|&seed| suite.iter().map(move |s| s.with_seed(seed).compile()))
        .collect();
    let sets = nni_scenario::Executor::acquire(&SerialExecutor, &experiments);
    if args.append {
        // Collision check before the first write: an append either lands
        // whole or not at all, and an existing identity is never silently
        // rewritten under a live tail.
        let existing: std::collections::HashSet<_> = corpus
            .entries()
            .unwrap_or_else(|err| fail(format!("to list corpus {}: {err}", corpus.dir().display())))
            .iter()
            .map(MeasurementSource::key)
            .collect();
        for set in &sets {
            if existing.contains(&set.key()) {
                eprintln!(
                    "exp_corpus: refusing to append: corpus already holds {} \
                     ({:?} seed {})",
                    set.key(),
                    set.provenance.scenario,
                    set.provenance.seed
                );
                std::process::exit(1);
            }
        }
    }
    for set in &sets {
        let path = corpus
            .store(set)
            .unwrap_or_else(|err| fail(format!("to store {}: {err}", set.key())));
        if args.jsonl {
            let sidecar = path.with_extension("jsonl");
            if let Err(err) = std::fs::write(&sidecar, jsonl::to_jsonl(set)) {
                fail(format!("to write {}: {err}", sidecar.display()));
            }
        }
        println!(
            "  {}  ({} intervals × {} paths, fp {:016x})",
            path.file_name().unwrap_or_default().to_string_lossy(),
            set.log.interval_count(),
            set.log.path_count(),
            set.fingerprint()
        );
    }
    println!("recorded {} sets", sets.len());
}

fn replay(args: &Args) {
    let corpus = open_corpus(args);
    // `entries()` decodes every file's provenance prefix, so a corrupt
    // entry surfaces *here*, not just at acquire time — report it and exit
    // 1 (a codec failure is a verification failure, not a crash).
    let entries = corpus
        .entries()
        .unwrap_or_else(|err| fail(format!("to list corpus {}: {err}", corpus.dir().display())));
    let mut t = Table::new(vec![
        "scenario",
        "seed",
        "intervals",
        "paths",
        "set fingerprint",
        "build",
    ]);
    let mut failures = 0usize;
    for e in &entries {
        match e.acquire() {
            Ok(set) => {
                t.row(vec![
                    set.provenance.scenario.clone(),
                    set.provenance.seed.to_string(),
                    set.log.interval_count().to_string(),
                    set.log.path_count().to_string(),
                    format!("{:016x}", set.fingerprint()),
                    set.provenance.build.clone(),
                ]);
            }
            Err(err) => {
                failures += 1;
                eprintln!("FAILED to decode {}: {err}", e.path().display());
            }
        }
    }
    println!(
        "== corpus {} ({} entries) ==",
        corpus.dir().display(),
        entries.len()
    );
    println!("{t}");
    if failures > 0 {
        eprintln!("{failures} entries failed to decode");
        if args.verify {
            std::process::exit(1);
        }
    } else if args.verify {
        println!("verify: all entries decoded, checksums good");
    }
}

fn reinfer(args: &Args) {
    let corpus = open_corpus(args);
    let sets = corpus
        .load_all()
        .unwrap_or_else(|err| fail(format!("to load corpus {}: {err}", corpus.dir().display())));
    println!(
        "== re-inference over {} stored sets (zero simulations) ==\n",
        sets.len()
    );
    let mut t = Table::new(
        std::iter::once("scenario / seed".to_string())
            .chain(args.thresholds.iter().map(|th| format!("thr {th}")))
            .collect::<Vec<_>>(),
    );
    for set in &sets {
        let mut row = vec![format!(
            "{} / {}",
            set.provenance.scenario, set.provenance.seed
        )];
        for &abs_threshold in &args.thresholds {
            let mut cfg = InferenceConfig::default();
            if let DecisionMode::Clustered {
                guard, rel_margin, ..
            } = cfg.algorithm.mode
            {
                cfg.algorithm.mode = DecisionMode::Clustered {
                    guard,
                    abs_threshold,
                    rel_margin,
                };
            }
            let result = infer(set, &cfg);
            row.push(if result.network_is_nonneutral() {
                format!("NON-NEUTRAL ({})", result.nonneutral.len())
            } else {
                "neutral".into()
            });
        }
        t.row(row);
    }
    println!("{t}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let args = parse_args(&argv[1..]);
    match cmd.as_str() {
        "record" => record(&args),
        "replay" => replay(&args),
        "reinfer" => reinfer(&args),
        _ => usage(),
    }
}
