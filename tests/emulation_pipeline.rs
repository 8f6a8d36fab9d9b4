//! Cross-crate integration tests: the measured pipeline
//! (emulation → measurement → Algorithm 2 → Algorithm 1).
//!
//! These are short (10–20 s simulated) versions of the §6.3 experiments —
//! the full-length regenerations live in `nni-bench`'s binaries.

use netneutrality::core::{identify, Config, Observations};
use netneutrality::emu::{
    link_params, measured_routes, policer_at_fraction, CcKind, RouteId, SimConfig, SimReport,
    Simulator, TrafficProfile,
};
use netneutrality::measure::{MeasuredObservations, NormalizeConfig};
use netneutrality::topology::library::topology_a;
use netneutrality::topology::{PathId, PathSet};

fn run_dumbbell(policing: Option<f64>, duration_s: f64, seed: u64) -> SimReport {
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    let l5 = g.link_by_name("l5").unwrap();
    let mechanisms = match policing {
        Some(frac) => vec![policer_at_fraction(g, l5, 1, frac, 0.01)],
        None => vec![],
    };
    let cfg = SimConfig {
        duration_s,
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(link_params(g, &mechanisms), measured_routes(g), 4, 2, cfg);
    for path in g.path_ids() {
        let c2 = paper.classes[1].contains(&path);
        sim.add_traffic(
            RouteId(path.index() as u32),
            TrafficProfile::pareto_bits(c2 as u8, CcKind::Cubic, 10e6, 10.0, 20),
        );
    }
    sim.run()
}

#[test]
fn policing_produces_class_skewed_congestion() {
    let report = run_dumbbell(Some(0.2), 20.0, 1);
    let c1 = report.log.congestion_probability(PathId(0), 0.01)
        + report.log.congestion_probability(PathId(1), 0.01);
    let c2 = report.log.congestion_probability(PathId(2), 0.01)
        + report.log.congestion_probability(PathId(3), 0.01);
    assert!(
        c2 > c1 + 0.3,
        "policed class must congest far more: c1 sum {c1:.3}, c2 sum {c2:.3}"
    );
}

#[test]
fn measured_inference_detects_policing_and_clears_neutral() {
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    let l5 = g.link_by_name("l5").unwrap();

    let policed = run_dumbbell(Some(0.2), 20.0, 2);
    let obs = MeasuredObservations::new(&policed.log, NormalizeConfig::default());
    let result = identify(g, &obs, Config::clustered());
    assert!(result.network_is_nonneutral(), "policing must be detected");
    assert!(result.nonneutral.iter().any(|s| s.contains(l5)));

    let neutral = run_dumbbell(None, 20.0, 2);
    let obs = MeasuredObservations::new(&neutral.log, NormalizeConfig::default());
    let result = identify(g, &obs, Config::clustered());
    assert!(
        !result.network_is_nonneutral(),
        "neutral network must not be accused"
    );
}

#[test]
fn throttled_paths_congest_jointly() {
    // §3.3's giveaway: the two policed paths are congestion-free together —
    // y({p3,p4}) is close to y({p3}), far from y({p3}) + y({p4}).
    let report = run_dumbbell(Some(0.2), 20.0, 3);
    let obs = MeasuredObservations::new(&report.log, NormalizeConfig::default());
    let group: Vec<PathId> = (0..4).map(PathId).collect();
    let y3 = obs.pathset_perf(&group, PathSet::single(PathId(2)));
    let y4 = obs.pathset_perf(&group, PathSet::single(PathId(3)));
    let y34 = obs.pathset_perf(&group, PathSet::pair(PathId(2), PathId(3)));
    assert!(y3 > 0.1 && y4 > 0.1, "both policed paths congested");
    let independent = y3 + y4;
    assert!(
        y34 < 0.8 * independent,
        "joint congestion must show correlation: y34 {y34:.3} vs independent {independent:.3}"
    );
}

#[test]
fn emulation_is_deterministic_end_to_end() {
    let a = run_dumbbell(Some(0.3), 10.0, 9);
    let b = run_dumbbell(Some(0.3), 10.0, 9);
    assert_eq!(a.segments_sent, b.segments_sent);
    assert_eq!(a.segments_dropped, b.segments_dropped);
    for p in 0..4 {
        assert_eq!(a.log.total_sent(PathId(p)), b.log.total_sent(PathId(p)));
        assert_eq!(a.log.total_lost(PathId(p)), b.log.total_lost(PathId(p)));
    }
}

#[test]
fn ground_truth_isolates_the_policer() {
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    let l5 = g.link_by_name("l5").unwrap();
    let report = run_dumbbell(Some(0.2), 20.0, 4);
    // Only the shared link drops packets: access links are 1 Gb/s.
    for l in g.link_ids() {
        let dropped = report.link_truth.total_dropped(l);
        if l == l5 {
            assert!(dropped > 0, "the policed bottleneck must drop");
        } else {
            assert_eq!(dropped, 0, "access link {l} must not drop");
        }
    }
    // And within l5, class 2 suffers far more often than class 1.
    let p1 = report.link_truth.congestion_probability(l5, 0, 0.01);
    let p2 = report.link_truth.congestion_probability(l5, 1, 0.01);
    assert!(
        p2 > p1 + 0.3,
        "class skew at the link: c1 {p1:.3} c2 {p2:.3}"
    );
}

#[test]
fn loss_threshold_sweep_keeps_the_verdict() {
    // §6.5: thresholds from Table 1 must not flip the verdict.
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    // 30 s (not the 20 s the other tests use): at the loosest threshold
    // (10%) the verdict needs the larger interval count to be stable.
    let report = run_dumbbell(Some(0.2), 30.0, 5);
    for thr in [0.01, 0.05, 0.10] {
        let obs = MeasuredObservations::new(
            &report.log,
            NormalizeConfig {
                loss_threshold: thr,
                seed: 77,
                delay: None,
            },
        );
        let result = identify(g, &obs, Config::clustered());
        assert!(
            result.network_is_nonneutral(),
            "verdict flipped at threshold {thr}"
        );
    }
}
