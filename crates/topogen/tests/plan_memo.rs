//! `infer` is a pure function of `(set, cfg)` whatever calls came before.
//!
//! `infer` keeps the last topology's slice plan and Algorithm 2 engine in a
//! one-entry, process-wide memo (`nni_scenario::memo`), so every result
//! here is checked against a reference built from scratch in the test —
//! `IdentifyPlan::new` + `SlidingCounts::new` + `identify_scores` — over
//! call orders that hit and miss the memo in every way: runs of one
//! topology under several configs, alternating topologies, topologies of
//! equal shape whose paths take different links, topologies that differ
//! only in link delays (one memo key), `min_pairs` 1 and 2, two loss
//! thresholds, the delay feature on and off, exact mode, and a topology
//! with no analysable slice; then the same calls from two threads at once.

use std::sync::Barrier;
use std::thread;

use nni_core::{
    identify_scores, Config, DecisionMode, DelayFeature, IdentifyPlan, InferenceResult,
};
use nni_measure::{DelayStats, MeasurementLog, NormalizeConfig, SlidingCounts};
use nni_scenario::{infer, InferenceConfig, MeasurementSet, Provenance};
use nni_topogen::{generate, isp_scenario, IspParams};
use nni_topology::library::{topology_a, topology_b};
use nni_topology::{Topology, TopologyBuilder};

/// The result `infer` must give: everything built afresh for this call.
fn reference(set: &MeasurementSet, cfg: &InferenceConfig) -> InferenceResult {
    let plan = IdentifyPlan::new(&set.topology, &cfg.algorithm);
    let ncfg = NormalizeConfig {
        loss_threshold: cfg.loss_threshold,
        seed: set.provenance.seed ^ cfg.normalize_salt,
        delay: cfg.delay,
    };
    let slices = plan
        .slices()
        .iter()
        .enumerate()
        .map(|(i, s)| (plan.group(i), s.theta()));
    let mut counts = SlidingCounts::new(ncfg, None, slices);
    counts.advance(&set.log, set.log.interval_count());
    identify_scores(&plan, &counts.ys(), cfg.algorithm)
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce5_e9b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A 120-interval set over `topology`: in each interval some links drop
/// 5% of what crosses them and inflate its delay, link 0 also drops 8% of
/// the odd paths' packets (a class-dependent link), and a few cells are
/// silent. Every cell that sends carries delay statistics.
fn synthetic_set(topology: Topology, seed: u64) -> MeasurementSet {
    let n = topology.path_count();
    let intervals = 120;
    let mut log = MeasurementLog::new(n, 0.1);
    let mut delay = Vec::with_capacity(intervals);
    for t in 0..intervals {
        let (mut sent, mut lost, mut row) = (vec![0; n], vec![0; n], vec![None; n]);
        for (p, path) in topology.paths().iter().enumerate() {
            let key = seed ^ (t as u64) << 20 ^ p as u64;
            if mix(key).is_multiple_of(13) {
                continue;
            }
            let s = 200 + mix(key ^ 1) % 100;
            let lossy =
                |l: usize| mix(seed ^ (t as u64) << 20 ^ (l as u64) << 40).is_multiple_of(6);
            let hot = path.links().iter().filter(|l| lossy(l.index())).count() as u64;
            let policed = path.links().iter().any(|l| l.index() == 0) && p % 2 == 1;
            lost[p] = (hot * s / 20 + u64::from(policed) * s * 2 / 25).min(s);
            sent[p] = s;
            let p50 = 0.005 * path.links().len() as f64;
            let p90 = p50 + 0.4 * hot as f64;
            row[p] = Some(DelayStats {
                count: s - lost[p],
                p50_s: p50,
                p90_s: p90,
                p99_s: p90,
            });
        }
        log.push_interval(sent, lost);
        delay.push(row);
    }
    log.set_delay(delay);
    MeasurementSet {
        topology,
        classes: Vec::new(),
        log,
        provenance: Provenance {
            scenario: "synthetic".into(),
            scenario_fingerprint: 0,
            seed,
            build: String::new(),
        },
    }
}

/// Two two-link paths into a relay and out of it: through one egress link
/// (one slice, of one pair) or two (no pair shares a link, so no slice).
/// Both have the same link count and path lengths; only the link ids in
/// the second path differ.
fn two_paths(shared_egress: bool) -> Topology {
    let mut b = TopologyBuilder::new();
    let (s1, s2, r) = (b.host("s1"), b.host("s2"), b.relay("r"));
    let (d1, d2) = (b.host("d1"), b.host("d2"));
    let in1 = b.link("in1", s1, r).expect("valid link");
    let in2 = b.link("in2", s2, r).expect("valid link");
    let out1 = b.link("out1", r, d1).expect("valid link");
    let out2 = b.link("out2", r, d2).expect("valid link");
    b.path("p1", vec![in1, out1]).expect("valid path");
    let second = if shared_egress { out1 } else { out2 };
    b.path("p2", vec![in2, second]).expect("valid path");
    b.build()
}

fn sets() -> Vec<MeasurementSet> {
    vec![
        synthetic_set(topology_a(0.05, 0.05).topology, 1),
        synthetic_set(topology_b().topology, 2),
        synthetic_set(generate(&IspParams::small(), 1).topology, 3),
        synthetic_set(generate(&IspParams::small(), 2).topology, 4),
        synthetic_set(two_paths(false), 5),
        synthetic_set(two_paths(true), 6),
        // Topology A's links and paths under other delays: the same key.
        synthetic_set(topology_a(0.05, 0.1).topology, 7),
    ]
}

/// `min_pairs` 1 and 2 × two loss thresholds × delay off and on, then
/// exact mode at both `min_pairs`.
fn configs() -> Vec<InferenceConfig> {
    let mut configs = Vec::new();
    for min_pairs in [1, 2] {
        for loss_threshold in [0.01, 0.05] {
            for delay in [None, Some(DelayFeature::default())] {
                configs.push(InferenceConfig {
                    loss_threshold,
                    algorithm: Config {
                        min_pairs,
                        ..Config::clustered()
                    },
                    delay,
                    ..InferenceConfig::default()
                });
            }
        }
    }
    for min_pairs in [1, 2] {
        configs.push(InferenceConfig {
            algorithm: Config {
                min_pairs,
                ..Config::exact()
            },
            ..InferenceConfig::default()
        });
    }
    configs
}

/// Every `(set, config)` pair three times: set by set (runs of one
/// topology, mostly memo hits), config by config (the topology changes at
/// every call), and in a scrambled order.
fn call_order(n_sets: usize, n_configs: usize) -> Vec<(usize, usize)> {
    let set_major = (0..n_sets).flat_map(|s| (0..n_configs).map(move |c| (s, c)));
    let config_major = (0..n_configs).flat_map(|c| (0..n_sets).map(move |s| (s, c)));
    let mut scrambled: Vec<_> = set_major.clone().collect();
    scrambled.sort_by_key(|&(s, c)| mix((s * 1000 + c) as u64));
    set_major.chain(config_major).chain(scrambled).collect()
}

fn check(got: &InferenceResult, want: &InferenceResult, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(got.fingerprint(), want.fingerprint(), "{what}");
}

#[test]
fn infer_is_independent_of_call_history() {
    let sets = sets();
    let configs = configs();
    let want: Vec<Vec<InferenceResult>> = sets
        .iter()
        .map(|set| configs.iter().map(|cfg| reference(set, cfg)).collect())
        .collect();
    // The cases are not vacuous: verdicts differ across the configs, the
    // delay feature changes some, and one topology has no slice at all.
    assert!(want.iter().flatten().any(|r| r.network_is_nonneutral()));
    assert!(want.iter().flatten().any(|r| !r.network_is_nonneutral()));
    assert!(want.iter().any(|row| row[2] != row[3]), "delay on vs off");
    assert!(want[4].iter().all(|r| r.verdicts().len() == 0), "no slice");
    assert!(want[5].iter().any(|r| r.verdicts().len() > 0), "one slice");
    for (s, c) in call_order(sets.len(), configs.len()) {
        check(
            &infer(&sets[s], &configs[c]),
            &want[s][c],
            &format!("set {s}, config {c}"),
        );
    }
}

#[test]
fn infer_is_independent_of_another_threads_calls() {
    let sets = sets();
    let configs = configs();
    let order = call_order(sets.len(), configs.len());
    let walks = [order.clone(), order.into_iter().rev().collect()];
    let want: Vec<Vec<InferenceResult>> = sets
        .iter()
        .map(|set| configs.iter().map(|cfg| reference(set, cfg)).collect())
        .collect();
    // Both threads call at once at every step, one walking the order
    // forwards and one backwards, so each call meets the memo taken,
    // replaced or holding the other thread's topology. The results are
    // checked after both finish: a thread that stopped early would leave
    // the other waiting at the barrier.
    let barrier = Barrier::new(2);
    let results: Vec<Vec<InferenceResult>> = thread::scope(|scope| {
        let threads: Vec<_> = walks
            .iter()
            .map(|walk| {
                let (sets, configs, barrier) = (&sets, &configs, &barrier);
                scope.spawn(move || {
                    walk.iter()
                        .map(|&(s, c)| {
                            barrier.wait();
                            infer(&sets[s], &configs[c])
                        })
                        .collect()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("infer does not panic"))
            .collect()
    });
    for (thread, (walk, got)) in walks.iter().zip(&results).enumerate() {
        for (&(s, c), got) in walk.iter().zip(got) {
            check(
                got,
                &want[s][c],
                &format!("set {s}, config {c}, thread {thread}"),
            );
        }
    }
}

/// The ISP-scale run: `isp_200link` 3 s sets of seeds 1 and 2 under the
/// four configs the `isp_reinfer` benchmark cycles (absolute unsolvability
/// threshold 0.06/0.08 × loss threshold 0.01/0.02), set by set and then
/// alternating sets, each against the fresh-build reference. The two seeds
/// route every path alike and differ in link delays, so they share one
/// memo key; a fifth config at `min_pairs` 1 is another key, so the
/// alternating orders also drop and rebuild the ISP plan.
#[test]
fn isp_scale_infer_equals_a_fresh_build() {
    let params = IspParams::isp_200link();
    let scenarios: Vec<_> = [1, 2].map(|seed| isp_scenario(&params, 3.0, seed)).into();
    let sets: Vec<MeasurementSet> = scenarios.iter().map(|s| s.compile().simulate()).collect();
    let mut configs = Vec::new();
    for abs in [0.06, 0.08] {
        for loss_threshold in [0.01, 0.02] {
            let mut cfg = InferenceConfig {
                loss_threshold,
                ..InferenceConfig::of(&scenarios[0])
            };
            if let DecisionMode::Clustered { abs_threshold, .. } = &mut cfg.algorithm.mode {
                *abs_threshold = abs;
            }
            configs.push(cfg);
        }
    }
    configs.push(InferenceConfig {
        algorithm: Config {
            min_pairs: 1,
            ..configs[0].algorithm
        },
        ..configs[0]
    });
    let [a, b] = [&sets[0].topology, &sets[1].topology];
    assert_eq!(a.path_count(), 1056);
    assert_ne!(a, b, "link delays differ");
    assert!(
        a.paths()
            .iter()
            .zip(b.paths())
            .all(|(p, q)| p.links() == q.links()),
        "routes agree"
    );
    for (s, c) in call_order(sets.len(), configs.len()) {
        let want = reference(&sets[s], &configs[c]);
        check(
            &infer(&sets[s], &configs[c]),
            &want,
            &format!("seed {}, config {c}", s + 1),
        );
    }
}
