//! Multi-ISP localization: the topology B scenario (§6.4), self-contained.
//!
//! A tier-1 backbone polices internal long flows (l5) and two tier-2
//! ingresses police video/P2P traffic entering the backbone (l14, l20).
//! Measured paths cross several administrative domains, so no single
//! party can be blamed a priori — the algorithm localizes each violation
//! to a link sequence using only end-to-end observations.
//!
//! Run with: `cargo run --release --example isp_localization -- [duration-secs]`

use netneutrality::core::{evaluate, identify, Config};
use netneutrality::emu::{
    background_route, link_params, long_flow, measured_routes, policer_at_fraction, short_flow_mix,
    CcKind, RouteId, SimConfig, Simulator, TrafficProfile,
};
use netneutrality::measure::{MeasuredObservations, NormalizeConfig};
use netneutrality::topology::library::topology_b;

fn main() {
    let duration: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300.0);
    let paper = topology_b();
    let g = &paper.topology;

    // Three policers, one per administrative domain, throttling the
    // long-flow class to 20% of capacity (bursts differ per device).
    let bursts = [0.025, 0.03, 0.035];
    let mechanisms: Vec<_> = paper
        .nonneutral_links
        .iter()
        .zip(bursts)
        .map(|(&l, b)| policer_at_fraction(g, l, 1, 0.2, b))
        .collect();

    let cfg = SimConfig {
        duration_s: duration,
        seed: 7,
        ..SimConfig::default()
    };
    let mut routes = measured_routes(g);
    let ln = |n: &str| g.link_by_name(n).unwrap();
    let bg = RouteId(routes.len() as u32);
    routes.push(background_route(vec![ln("l21"), ln("l13"), ln("l17")]));
    let mut sim = Simulator::new(link_params(g, &mechanisms), routes, g.path_count(), 2, cfg);

    // Short-flow customers (class 1), long-flow customers (class 2, policed),
    // plus unmeasured background load on the neutral l13.
    for &p in &paper.classes[0] {
        for profile in short_flow_mix(0, CcKind::Cubic) {
            sim.add_traffic(RouteId(p.index() as u32), profile);
        }
    }
    for &p in &paper.classes[1] {
        let route = RouteId(p.index() as u32);
        sim.add_traffic(route, long_flow(1, CcKind::Cubic));
        sim.add_traffic(
            route,
            TrafficProfile::pareto_bits(1, CcKind::Cubic, 40e6, 2.0, 3),
        );
    }
    for profile in short_flow_mix(0, CcKind::Cubic) {
        sim.add_traffic(bg, profile);
    }
    sim.add_traffic(bg, long_flow(1, CcKind::Cubic));

    println!("emulating {duration} s across 24 links, 15 measured paths ...");
    let report = sim.run();
    println!(
        "  {} segments sent, {} dropped",
        report.segments_sent, report.segments_dropped
    );

    let obs = MeasuredObservations::new(&report.log, NormalizeConfig::default());
    let result = identify(g, &obs, Config::clustered());

    println!("\nidentified non-neutral link sequences:");
    for seq in &result.nonneutral {
        let names: Vec<String> = seq
            .links()
            .iter()
            .map(|&l| g.link(l).name.clone())
            .collect();
        let domains: Vec<&str> = seq
            .links()
            .iter()
            .map(|&l| match g.link(l).name.as_str() {
                "l5" => "tier-1 backbone",
                "l14" | "l20" => "tier-2 ingress",
                _ => "transit",
            })
            .collect();
        println!(
            "  ⟨{}⟩  (domains: {})",
            names.join(", "),
            domains.join(", ")
        );
    }

    let q = evaluate(g, &result.nonneutral, &paper.nonneutral_links);
    println!(
        "\nvs ground truth (policers on l5, l14, l20): FN {:.0}%, FP {:.0}%, granularity {:.1}",
        100.0 * q.false_negative_rate,
        100.0 * q.false_positive_rate,
        q.granularity
    );
    assert_eq!(
        q.false_positive_rate, 0.0,
        "no neutral domain may be accused"
    );
    println!("\nno falsely accused domains; violations localized across ISP boundaries.");
}
