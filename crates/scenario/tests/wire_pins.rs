//! Absolute pins for the scenario wire walk.
//!
//! Two values per scenario, over the 14 identity scenarios, the
//! delay-visible shaper and 24 generated scenarios (background traffic,
//! queue overrides and mixed fleets all appear):
//!
//! * `measurement_fingerprint()` — the key corpora are recorded under
//!   (`corpus/golden/` file names embed it), so a drift would orphan every
//!   recorded corpus silently;
//! * the FNV-1a of the `encode_scenario` bytes — the worker job format.
//!
//! Round-trip tests only prove a codec agrees with itself; these pin the
//! values themselves. If an intentional format change moves them, run with
//! `NNI_PRINT_WIRE_PINS=1` and paste the printed table — and re-record
//! every corpus keyed by the old fingerprints.

use nni_emu::{Differentiation, SizeDist};
use nni_measure::Fnv;
use nni_scenario::library::{delay_visible_shaper, identity_suite};
use nni_scenario::{encode_scenario, Scenario, ScenarioGen};

fn population() -> Vec<Scenario> {
    let mut all = identity_suite();
    all.push(delay_visible_shaper(6.0, 42));
    all.extend(ScenarioGen::new(42).scenarios(24));
    all
}

fn bytes_fnv(s: &Scenario) -> u64 {
    let mut h = Fnv::new();
    for &b in &encode_scenario(s) {
        h.byte(b);
    }
    h.0
}

/// `(name, measurement fingerprint, FNV of the encoded job bytes)`, in
/// [`population`] order.
#[rustfmt::skip]
const PINS: [(&str, u64, u64); 39] = [
    ("topology-a neutral", 0x50a7f8585ec966f1, 0x5470fbcfed99a0e1),
    ("topology-a policing 20%", 0x66d58e3a8192fc48, 0x5b679284b919cfec),
    ("topology-a shaping 30%", 0x194150644772b5ee, 0x8936330c2aed637d),
    ("topology-b 3-policer", 0xddd6d0a168439a02, 0xe8703d514ef1304c),
    ("topology-b dual-policer", 0x97cdf084fa2780f6, 0x432c68792bea3565),
    ("topology-a asymmetric-rtt neutral control", 0xc31412cf453dccf9, 0xb356b2e0fe8fb596),
    ("topology-b dual-link shaping", 0x4692c5779266c037, 0xc8519bab254404dc),
    ("topology-a mixed-cc policer contention", 0x2107cd7760496dd0, 0x8e5eab6f0bd2f06c),
    ("topology-a mixed-cc neutral control", 0x20174d222fb63e41, 0x1d121a8fd1443979),
    ("topology-a shallow-buffer neutral control", 0x2d17bea5a1fb4d5c, 0xe3453ff361a21db3),
    ("topology-a deep-buffer policing", 0x7d184a7e9a910aae, 0x74e629648c31c025),
    ("topology-b policer-rate sweep", 0xc83360d1bb3c16d5, 0x2ecc4564868713c6),
    ("topology-b policer-rate sweep", 0xc06cd2523a57b872, 0xbe57adf2bda2b847),
    ("topology-b policer-rate sweep", 0x2fbab3ce49f75f3d, 0xae2315f083d382de),
    ("topology-a delay-visible shaper", 0xe98d50e6050bb8cf, 0x01d5704abae78997),
    ("gen#1 dumbbell-2x2 shaping", 0x0b6994cbfcf58a53, 0x295b13380606c295),
    ("gen#2 topology-a neutral", 0x7ab9e889c5cec674, 0xc9eaea3da3171c80),
    ("gen#3 dumbbell-2x2 policing", 0xd3430786aefca953, 0x77e937221fb4c1ba),
    ("gen#4 dumbbell-2x2 neutral", 0xb09a148f63f8deaf, 0x9ec3cca805ceda9b),
    ("gen#5 topology-a shaping", 0x224dc7f85329ea85, 0x30ef00c0789991e9),
    ("gen#6 dumbbell neutral", 0xf0f05388ea0b9b0c, 0x15055b0866ed3925),
    ("gen#7 parking-lot shaping", 0x5802f2d974484c2e, 0x0528c32602d2cab1),
    ("gen#8 parking-lot neutral", 0x7fd0c4a499a971d5, 0xfdf52afebf57a317),
    ("gen#9 parking-lot shaping", 0xf5ea5f05324e816b, 0xf6049af38288985b),
    ("gen#10 dumbbell policing", 0xf15955feac5cacf4, 0x24163f5b5f2d507c),
    ("gen#11 parking-lot neutral", 0x648f6de29fba5cd3, 0xd733d0b473683cbb),
    ("gen#12 dumbbell-2x2 neutral", 0x0eeea8e407776411, 0xf446d5a34a36d2c5),
    ("gen#13 dumbbell neutral", 0xe237b3a34cec28ed, 0x0373dd69b4502fe0),
    ("gen#14 dumbbell-2x2 shaping", 0xc953f338fa21e9a4, 0x89196b3a0bf9fc26),
    ("gen#15 dumbbell-2x2 shaping", 0xe92490465b058690, 0x03dd27c506b9eeea),
    ("gen#16 parking-lot policing", 0x781ab3ec5c172438, 0x2b1394208aece4e8),
    ("gen#17 dumbbell shaping", 0x1e5ff2a4415491fe, 0xc6ca11fd004d83e1),
    ("gen#18 dumbbell shaping", 0xeaf665c6376ba7f4, 0x63463cc07acb5d6d),
    ("gen#19 dumbbell neutral", 0xe9604f7a8b7659fe, 0xa23e7284e44dfbe1),
    ("gen#20 dumbbell shaping", 0x57c0990d61311f9f, 0x767f8e59b6d03a1b),
    ("gen#21 dumbbell-2x2 shaping", 0x2330e1ebbf31c2d7, 0xdef64f6e0b0d8f3c),
    ("gen#22 dumbbell neutral", 0x360f310fd105f316, 0xaa248e17fb1c048a),
    ("gen#23 dumbbell-2x2 shaping", 0x4e1abd4c3b7bcdb0, 0xe782b471f62c5d07),
    ("gen#24 dumbbell policing", 0xfd9dc9a963a4af4e, 0xb99fdda7fb5eb999),
];

#[test]
fn scenario_walk_values_are_pinned() {
    let all = population();
    let current: Vec<(String, u64, u64)> = all
        .iter()
        .map(|s| (s.name.clone(), s.measurement_fingerprint(), bytes_fnv(s)))
        .collect();

    if std::env::var("NNI_PRINT_WIRE_PINS").is_ok() {
        println!("const PINS: [(&str, u64, u64); {}] = [", current.len());
        for (name, fp, bytes) in &current {
            println!("    ({name:?}, {fp:#018x}, {bytes:#018x}),");
        }
        println!("];");
    }

    // The pins only guard the fields the population exercises.
    let profiles = || {
        all.iter().flat_map(|s| {
            s.path_traffic
                .iter()
                .map(|(_, p)| p)
                .chain(s.background.iter().flat_map(|bg| &bg.profiles))
        })
    };
    assert!(all.iter().any(|s| !s.background.is_empty()), "background");
    assert!(all.iter().any(|s| !s.queue_overrides.is_empty()), "queues");
    assert!(all.iter().any(|s| s.measurement.record_delay), "delay");
    assert!(
        all.iter().any(|s| s.measurement.warmup_s.is_some()),
        "warm-up"
    );
    assert!(all
        .iter()
        .flat_map(|s| &s.differentiation)
        .any(|(_, d)| matches!(d, Differentiation::Shaping { .. })));
    assert!(profiles().any(|p| p.cc.is_mixed()), "mixed fleet");
    assert!(profiles().any(|p| matches!(p.size, SizeDist::Fixed { .. })));

    assert_eq!(current.len(), PINS.len(), "population size");
    for ((name, fp, bytes), (g_name, g_fp, g_bytes)) in current.iter().zip(PINS) {
        assert_eq!(name, g_name, "population order");
        assert_eq!(
            *fp, g_fp,
            "`{name}`: measurement fingerprint moved — corpora keyed by it are orphaned"
        );
        assert_eq!(*bytes, g_bytes, "`{name}`: encoded job bytes changed");
    }
}

#[test]
fn golden_corpus_file_names_carry_pinned_fingerprints() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/golden");
    let mut named = 0;
    for entry in std::fs::read_dir(dir).expect("golden corpus exists") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !name.ends_with(".nniset") {
            continue;
        }
        assert!(
            PINS.iter()
                .any(|(_, fp, _)| name.contains(&format!("-{fp:016x}-"))),
            "{name}: no pinned fingerprint matches its key"
        );
        named += 1;
    }
    assert_eq!(named, 6, "3 scenarios × 2 seeds");
}
