//! Integration tests of emulator behaviours that span several modules:
//! shaping end-to-end, congestion-control comparisons, RTT effects, and
//! measurement-log alignment.

use nni_emu::{
    link_params, measured_routes, shaper_at_fraction, CcFleet, CcKind, Differentiation, LinkParams,
    Route, RouteId, SimConfig, SimReport, Simulator, SizeDist, TrafficProfile,
};
use nni_topology::library::topology_a;
use nni_topology::{LinkId, PathId};

fn quick_cfg(duration: f64, seed: u64) -> SimConfig {
    SimConfig {
        duration_s: duration,
        warmup_s: 1.0,
        seed,
        ..SimConfig::default()
    }
}

/// One flow per class through a 50/20 shaped bottleneck: the shaped-down
/// class gets throttled to roughly its lane rate, the other rides free.
#[test]
fn shaper_end_to_end_throttles_one_class() {
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    let l5 = g.link_by_name("l5").unwrap();
    let mechanisms = vec![shaper_at_fraction(g, l5, 0.2)];
    let mut sim = Simulator::new(
        link_params(g, &mechanisms),
        measured_routes(g),
        4,
        2,
        quick_cfg(20.0, 11),
    );
    for path in g.path_ids() {
        let c2 = paper.classes[1].contains(&path);
        sim.add_traffic(
            RouteId(path.index() as u32),
            TrafficProfile {
                class: c2 as u8,
                cc: CcKind::Cubic.into(),
                size: SizeDist::Fixed {
                    bytes: 1_000_000_000,
                },
                mean_gap_s: 10.0,
                parallel: 1,
            },
        );
    }
    let report = sim.run();
    let goodput = |p: usize| {
        (report.log.total_sent(PathId(p)) - report.log.total_lost(PathId(p))) as f64 * 1500.0 * 8.0
            / 20.0
    };
    let c1 = goodput(0) + goodput(1);
    let c2 = goodput(2) + goodput(3);
    // Class 2 shaped to 20 Mb/s, class 1 to 80 Mb/s.
    assert!(c2 < 25e6, "shaped class exceeded its lane: {c2:.0} b/s");
    assert!(
        c1 > 40e6,
        "unshaped class should use its 80 Mb/s lane: {c1:.0} b/s"
    );
}

/// NewReno and CUBIC both sustain a single bottleneck, and CUBIC (faster
/// window regrowth) achieves at least comparable goodput.
#[test]
fn cubic_competitive_with_newreno() {
    let run = |cc: CcKind| -> u64 {
        let links = vec![
            LinkParams {
                rate_bps: 1e9,
                delay_s: 0.005,
                diff: Differentiation::None,
                queue_bytes: None,
            },
            LinkParams {
                rate_bps: 20e6,
                delay_s: 0.02,
                diff: Differentiation::None,
                queue_bytes: Some(100_000),
            },
        ];
        let routes = vec![Route {
            links: vec![LinkId(0), LinkId(1)],
            path: Some(PathId(0)),
        }];
        let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(20.0, 5));
        sim.add_traffic(
            RouteId(0),
            TrafficProfile {
                class: 0,
                cc: cc.into(),
                size: SizeDist::Fixed {
                    bytes: 1_000_000_000,
                },
                mean_gap_s: 10.0,
                parallel: 1,
            },
        );
        sim.run().segments_delivered
    };
    let newreno = run(CcKind::NewReno);
    let cubic = run(CcKind::Cubic);
    let line_rate = (20e6 * 20.0 / (1500.0 * 8.0)) as u64;
    assert!(
        newreno > line_rate / 3,
        "NewReno too slow: {newreno}/{line_rate}"
    );
    assert!(cubic > line_rate / 3, "CUBIC too slow: {cubic}/{line_rate}");
    assert!(
        cubic * 10 >= newreno * 7,
        "CUBIC should be competitive: {cubic} vs {newreno}"
    );
}

/// A mixed-CC fleet really assigns different algorithms to the slots: the
/// fleet run is deterministic, and swapping half the fleet from CUBIC to
/// NewReno changes the contention outcome relative to a uniform fleet.
#[test]
fn mixed_fleet_assigns_per_slot_algorithms() {
    let run = |cc: CcFleet| -> (u64, u64) {
        let links = vec![
            LinkParams {
                rate_bps: 1e9,
                delay_s: 0.005,
                diff: Differentiation::None,
                queue_bytes: None,
            },
            LinkParams {
                rate_bps: 20e6,
                delay_s: 0.02,
                diff: Differentiation::None,
                queue_bytes: Some(100_000),
            },
        ];
        let routes = vec![Route {
            links: vec![LinkId(0), LinkId(1)],
            path: Some(PathId(0)),
        }];
        let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(20.0, 9));
        sim.add_traffic(
            RouteId(0),
            TrafficProfile {
                class: 0,
                cc,
                size: SizeDist::Fixed {
                    bytes: 1_000_000_000,
                },
                mean_gap_s: 10.0,
                parallel: 4,
            },
        );
        let report = sim.run();
        (report.segments_delivered, report.segments_dropped)
    };
    let uniform = run(CcKind::Cubic.into());
    let fleet = CcFleet::fleet(&[(CcKind::Cubic, 2), (CcKind::NewReno, 2)]);
    let mixed = run(fleet.clone());
    assert_eq!(mixed, run(fleet), "mixed fleets must stay deterministic");
    assert_ne!(
        uniform, mixed,
        "half-NewReno fleet must contend differently from all-CUBIC"
    );
    // The bottleneck still carries real traffic either way.
    assert!(mixed.0 > 1000, "mixed fleet moved {} segments", mixed.0);
}

/// Longer RTT lowers single-flow goodput on a loss-bound path (the classic
/// TCP throughput relation) — the dynamics behind experiment sets 2/5/8.
#[test]
fn rtt_dependence_of_goodput() {
    let run = |rtt: f64| -> u64 {
        let paper = topology_a(rtt, rtt);
        let g = &paper.topology;
        let mut sim = Simulator::new(
            link_params(g, &[]),
            measured_routes(g),
            4,
            2,
            quick_cfg(15.0, 3),
        );
        // Two persistent flows congest the bottleneck.
        for p in 0..2 {
            sim.add_traffic(
                RouteId(p),
                TrafficProfile {
                    class: 0,
                    cc: CcKind::NewReno.into(),
                    size: SizeDist::Fixed {
                        bytes: 1_000_000_000,
                    },
                    mean_gap_s: 10.0,
                    parallel: 1,
                },
            );
        }
        sim.run().segments_delivered
    };
    let short = run(0.05);
    let long = run(0.2);
    assert!(
        short as f64 > long as f64 * 1.1,
        "short-RTT flows should outrun long-RTT flows: {short} vs {long}"
    );
}

/// The measurement log's interval structure aligns with wall-clock time:
/// total sent over all intervals equals the global counter (minus warmup).
fn total_log_sent(report: &SimReport) -> u64 {
    (0..4).map(|p| report.log.total_sent(PathId(p))).sum()
}

#[test]
fn measurement_log_alignment() {
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    let cfg = SimConfig {
        duration_s: 10.0,
        warmup_s: 0.0,
        seed: 6,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(link_params(g, &[]), measured_routes(g), 4, 2, cfg);
    for p in 0..4 {
        sim.add_traffic(
            RouteId(p),
            TrafficProfile {
                class: 0,
                cc: CcKind::Cubic.into(),
                size: SizeDist::ParetoMean {
                    mean_bytes: 500_000.0,
                    shape: 1.5,
                },
                mean_gap_s: 1.0,
                parallel: 2,
            },
        );
    }
    let report = sim.run();
    assert_eq!(total_log_sent(&report), report.segments_sent);
    // ~100 intervals of 100 ms for a 10 s run (within one interval slack).
    assert!((95..=101).contains(&report.log.interval_count()));
}

/// Shaping delays rather than drops when the buffer suffices: with a huge
/// lane buffer, the shaped class loses nothing yet still gets rate-limited.
#[test]
fn shaper_with_large_buffer_delays_not_drops() {
    let links = vec![LinkParams {
        rate_bps: 100e6,
        delay_s: 0.005,
        diff: Differentiation::Shaping {
            lanes: vec![nni_emu::ShapeLaneConfig {
                class: 0,
                rate_bps: 10e6,
                burst_bytes: 30_000.0,
                buffer_bytes: 50_000_000,
            }],
        },
        queue_bytes: None,
    }];
    let routes = vec![Route {
        links: vec![LinkId(0)],
        path: Some(PathId(0)),
    }];
    let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(20.0, 12));
    sim.add_traffic(
        RouteId(0),
        TrafficProfile {
            class: 0,
            cc: CcKind::Cubic.into(),
            size: SizeDist::Fixed {
                bytes: 1_000_000_000,
            },
            mean_gap_s: 10.0,
            parallel: 1,
        },
    );
    let report = sim.run();
    assert_eq!(
        report.segments_dropped, 0,
        "nothing may drop with a huge buffer"
    );
    let rate = report.segments_delivered as f64 * 1500.0 * 8.0 / 20.0;
    assert!(
        rate < 12e6,
        "shaper must still enforce ~10 Mb/s, got {rate:.0}"
    );
}
