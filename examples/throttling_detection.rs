//! End-to-end scenario: an ISP throttles one customer class on a shared
//! bottleneck, and a coalition of end-hosts detects it from their own
//! traffic — the paper's §1 motivation and §6.3 experiment, in miniature.
//!
//! The pipeline is the real one: packet-level emulation (TCP flows through
//! a token-bucket policer) → per-interval loss measurement at the end-hosts
//! → Algorithm 2 normalization → Algorithm 1 verdict.
//!
//! Run with: `cargo run --release --example throttling_detection`

use netneutrality::core::{identify, Config};
use netneutrality::emu::{
    link_params, measured_routes, policer_at_fraction, CcKind, RouteId, SimConfig, Simulator,
    TrafficProfile,
};
use netneutrality::measure::{MeasuredObservations, NormalizeConfig};
use netneutrality::topology::library::topology_a;

fn main() {
    // Topology A: four sources, four sinks, one 100 Mb/s shared link l5.
    // The ISP polices "bulk transfer" customers (paths p3, p4) to 20% of
    // capacity; interactive customers (p1, p2) are untouched.
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    let l5 = g.link_by_name("l5").expect("topology A has l5");
    let mechanisms = vec![policer_at_fraction(g, l5, 1, 0.2, 0.01)];

    let cfg = SimConfig {
        duration_s: 60.0,
        seed: 2024,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(link_params(g, &mechanisms), measured_routes(g), 4, 2, cfg);
    for path in g.path_ids() {
        let bulk = paper.classes[1].contains(&path);
        sim.add_traffic(
            RouteId(path.index() as u32),
            TrafficProfile::pareto_bits(bulk as u8, CcKind::Cubic, 10e6, 10.0, 20),
        );
    }

    println!("emulating 60 s of traffic through the policed bottleneck ...");
    let report = sim.run();
    println!(
        "  {} segments sent, {} dropped ({:.1}%)",
        report.segments_sent,
        report.segments_dropped,
        100.0 * report.segments_dropped as f64 / report.segments_sent as f64
    );

    // What each end-host sees: its own per-path congestion frequency.
    println!("\nper-path congestion probability (what end-hosts observe):");
    for path in g.path_ids() {
        let p = report.log.congestion_probability(path, 0.01);
        let class = if paper.classes[1].contains(&path) {
            "bulk "
        } else {
            "inter"
        };
        println!("  {} [{}]: {:5.1}%", g.path(path).name(), class, 100.0 * p);
    }

    // The coalition pools its measurements and runs the inference.
    let obs = MeasuredObservations::new(&report.log, NormalizeConfig::default());
    let result = identify(g, &obs, Config::clustered());

    println!("\ninference verdict:");
    if result.network_is_nonneutral() {
        for seq in &result.nonneutral {
            let names: Vec<String> = seq
                .links()
                .iter()
                .map(|&l| g.link(l).name.clone())
                .collect();
            println!("  NON-NEUTRAL link sequence: ⟨{}⟩", names.join(", "));
        }
    } else {
        println!("  network appears neutral");
    }

    assert!(
        result.network_is_nonneutral(),
        "the throttling must be detected"
    );
    assert!(
        result.nonneutral.iter().any(|s| s.contains(l5)),
        "the violation must be localized to the shared link"
    );
    println!("\nthe ISP's policer on l5 was detected and localized — without any");
    println!("knowledge of which customers were being differentiated against.");
}
