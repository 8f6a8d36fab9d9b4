//! Ready-made scenarios: the paper's evaluation setups (topologies A and B)
//! and variants beyond Table 2 that the scenario API makes one-liners —
//! multi-link differentiation, dual policers, asymmetric-RTT controls.
//!
//! Everything here compiles down to the same [`Scenario`] type, so every
//! inference method (Algorithm 1 and the tomography baselines of
//! [`crate::baselines`]) consumes identical inputs.

use nni_emu::{
    long_flow, policer_at_fraction, shaper_at_fraction, short_flow_mix, CcFleet, CcKind,
    Differentiation, ShapeLaneConfig, SizeDist, TrafficProfile,
};
use nni_topology::library::{topology_a, topology_b, PaperTopology, BOTTLENECK_BPS};
use nni_topology::PathId;

use crate::spec::{Expectation, MeasurementConfig, QueueOverride, Scenario, ScenarioBuilder};
use crate::sweep::SweepSet;

/// What the shared link of topology A does (Table 2's "Link l5 behavior").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// Plain FIFO.
    Neutral,
    /// Policing class 2 at the given fraction of capacity.
    Policing(f64),
    /// Shaping class 2 at the fraction, class 1 at one minus it.
    Shaping(f64),
}

impl Mechanism {
    fn label(&self) -> String {
        match self {
            Mechanism::Neutral => "neutral".into(),
            Mechanism::Policing(f) => format!("policing {:.0}%", f * 100.0),
            Mechanism::Shaping(f) => format!("shaping {:.0}%", f * 100.0),
        }
    }
}

/// Parameters of one topology-A experiment (Table 1 defaults; durations
/// shortened per DESIGN.md, `--duration` restores the paper's 600 s).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Shared-link behaviour.
    pub mechanism: Mechanism,
    /// Mean flow size of class-1 paths (bits).
    pub flow_size_c1_bits: f64,
    /// Mean flow size of class-2 paths (bits).
    pub flow_size_c2_bits: f64,
    /// Propagation RTT of class-1 paths (seconds).
    pub rtt_c1_s: f64,
    /// Propagation RTT of class-2 paths (seconds).
    pub rtt_c2_s: f64,
    /// Congestion control of class-1 paths.
    pub cc_c1: CcKind,
    /// Congestion control of class-2 paths.
    pub cc_c2: CcKind,
    /// Parallel flows per path.
    pub flows_per_path: usize,
    /// Mean inter-flow gap (seconds).
    pub mean_gap_s: f64,
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Measurement interval (seconds).
    pub interval_s: f64,
    /// Loss threshold.
    pub loss_threshold: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            mechanism: Mechanism::Neutral,
            flow_size_c1_bits: 10e6,
            flow_size_c2_bits: 10e6,
            rtt_c1_s: 0.05,
            rtt_c2_s: 0.05,
            cc_c1: CcKind::Cubic,
            cc_c2: CcKind::Cubic,
            flows_per_path: 20,
            mean_gap_s: 10.0,
            duration_s: 120.0,
            interval_s: 0.1,
            loss_threshold: 0.01,
            seed: 42,
        }
    }
}

/// The paper's Figure 7 dumbbell with the given parameters, as a scenario.
pub fn topology_a_scenario(p: ExperimentParams) -> Scenario {
    let paper: PaperTopology = topology_a(p.rtt_c1_s, p.rtt_c2_s);
    let g = &paper.topology;
    let l5 = paper.link_named("l5");

    let mut b = Scenario::builder(
        format!("topology-a {}", p.mechanism.label()),
        paper.topology.clone(),
    )
    .classes(paper.classes.clone())
    .duration_s(p.duration_s)
    .interval_s(p.interval_s)
    .loss_threshold(p.loss_threshold)
    .seed(p.seed);

    b = match p.mechanism {
        Mechanism::Neutral => b,
        Mechanism::Policing(frac) => {
            let (l, d) = policer_at_fraction(g, l5, 1, frac, 0.01);
            b.differentiate(l, d)
        }
        Mechanism::Shaping(frac) => {
            let (l, d) = shaper_at_fraction(g, l5, frac);
            b.differentiate(l, d)
        }
    };

    for path in g.path_ids() {
        let is_c2 = paper.classes[1].contains(&path);
        let (bits, cc) = if is_c2 {
            (p.flow_size_c2_bits, p.cc_c2)
        } else {
            (p.flow_size_c1_bits, p.cc_c1)
        };
        b = b.path_traffic(
            path,
            TrafficProfile::pareto_bits(u8::from(is_c2), cc, bits, p.mean_gap_s, p.flows_per_path),
        );
    }

    // Ground truth: the network differentiates unless neutral — with the one
    // §6.3 exception: a 50/50 shaper throttles both classes identically and
    // is behaviourally neutral.
    let expectation = match p.mechanism {
        Mechanism::Neutral => Expectation::neutral(),
        Mechanism::Shaping(frac) if (frac - 0.5).abs() < 1e-9 => Expectation::neutral(),
        _ => Expectation::nonneutral(vec![l5]),
    };

    b.expect(expectation)
        .build()
        .expect("library scenario is valid")
}

/// Parameters of the topology B experiment (§6.4).
#[derive(Debug, Clone, Copy)]
pub struct TopologyBParams {
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Policing rate as a fraction of link capacity.
    pub policing_fraction: f64,
    /// Loss threshold.
    pub loss_threshold: f64,
    /// Measurement interval (seconds).
    pub interval_s: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for TopologyBParams {
    fn default() -> Self {
        TopologyBParams {
            duration_s: 300.0,
            policing_fraction: 0.2,
            loss_threshold: 0.01,
            interval_s: 0.1,
            seed: 7,
        }
    }
}

/// Shared glue of every topology-B variant: Table 3 traffic on the measured
/// paths plus the three white-host background routes. The caller adds
/// differentiation and the expectation.
fn topology_b_base(name: &str, p: TopologyBParams, paper: &PaperTopology) -> ScenarioBuilder {
    let mut b = Scenario::builder(name, paper.topology.clone())
        .classes(paper.classes.clone())
        .duration_s(p.duration_s)
        .interval_s(p.interval_s)
        .loss_threshold(p.loss_threshold)
        .seed(p.seed)
        .measurement_salt(0xBEEF);

    // Table 3 traffic. Dark gray (class c1): 1 Mb + 10 Mb + 40 Mb parallel
    // flows; light gray (class c2): one 10 Gb flow plus medium churn (the
    // BitTorrent-like restarts of §1's motivation, whose slow-starts into
    // the policers make same-class loss co-occurrence observable).
    for &path in &paper.classes[0] {
        for profile in short_flow_mix(0, CcKind::Cubic) {
            b = b.path_traffic(path, profile);
        }
    }
    for &path in &paper.classes[1] {
        b = b
            .path_traffic(path, long_flow(1, CcKind::Cubic))
            .path_traffic(
                path,
                TrafficProfile::pareto_bits(1, CcKind::Cubic, 40e6, 2.0, 3),
            );
    }

    // White hosts: unmeasured background routes carrying both mixes; the
    // first drives the neutral l13 near capacity (Figure 11's pair).
    let bg_routes = [
        paper.links_named(&["l21", "l13", "l17"]),
        paper.links_named(&["l21", "l6", "l15", "l16"]),
        paper.links_named(&["l23", "l8", "l11", "l19"]),
    ];
    for links in bg_routes {
        let mut profiles = short_flow_mix(0, CcKind::Cubic);
        profiles.push(long_flow(1, CcKind::Cubic));
        b = b.background_traffic(links, profiles);
    }
    b
}

/// The paper's §6.4 experiment: topology B with policers on `l5`, `l14`, and
/// `l20` targeting the long-flow class.
///
/// Bursts differ per device (as they would across real vendors), which also
/// desynchronises the policers' token cycles — identically configured
/// policers otherwise lock their loss episodes together and violate the
/// link-independence assumption (§2.2, assumption #2).
pub fn topology_b_scenario(p: TopologyBParams) -> Scenario {
    let paper = topology_b();
    let bursts = [0.025, 0.03, 0.035];
    let mut b = topology_b_base("topology-b 3-policer", p, &paper);
    for (&l, burst) in paper.nonneutral_links.iter().zip(bursts) {
        let (link, diff) = policer_at_fraction(&paper.topology, l, 1, p.policing_fraction, burst);
        b = b.differentiate(link, diff);
    }
    b.expect(Expectation::nonneutral(paper.nonneutral_links.clone()))
        .build()
        .expect("library scenario is valid")
}

/// Beyond Table 2 #1 — **dual-policer topology B**: only the two tier-2
/// ingress policers (`l14`, `l20`) are active, at different rates, while the
/// backbone `l5` stays neutral. Exercises multi-violation localization
/// without the widely shared backbone sequence.
pub fn dual_policer_topology_b(p: TopologyBParams) -> Scenario {
    let paper = topology_b();
    let g = &paper.topology;
    let l14 = paper.link_named("l14");
    let l20 = paper.link_named("l20");
    let (a, da) = policer_at_fraction(g, l14, 1, p.policing_fraction, 0.03);
    let (c, dc) = policer_at_fraction(g, l20, 1, 1.5 * p.policing_fraction, 0.035);
    topology_b_base("topology-b dual-policer", p, &paper)
        .differentiate(a, da)
        .differentiate(c, dc)
        .expect(Expectation::nonneutral(vec![l14, l20]))
        .build()
        .expect("library scenario is valid")
}

/// Beyond Table 2 #2 — **asymmetric-RTT neutral control**: topology A with
/// no mechanism but very different class RTTs (50 ms vs 200 ms) under heavy
/// aggregation. TCP's RTT unfairness skews throughput between the classes;
/// a sound detector must still answer "neutral".
pub fn asymmetric_rtt_neutral(duration_s: f64, seed: u64) -> Scenario {
    let mut s = topology_a_scenario(ExperimentParams {
        rtt_c1_s: 0.05,
        rtt_c2_s: 0.2,
        flows_per_path: 70,
        duration_s,
        seed,
        ..ExperimentParams::default()
    });
    s.name = "topology-a asymmetric-rtt neutral control".into();
    s
}

/// Beyond Table 2 #3 — **multi-lane shaping on two links**: topology B with
/// two-lane shapers (class 1 at `1 − fraction`, class 2 at `fraction` of
/// capacity) on both the backbone `l5` and the ingress `l14`. Multi-link,
/// multi-lane differentiation in one declarative scenario.
pub fn dual_link_shaping(p: TopologyBParams) -> Scenario {
    let paper = topology_b();
    let g = &paper.topology;
    let l5 = paper.link_named("l5");
    let l14 = paper.link_named("l14");
    let (a, da) = shaper_at_fraction(g, l5, p.policing_fraction);
    let (c, dc) = shaper_at_fraction(g, l14, p.policing_fraction);
    topology_b_base("topology-b dual-link shaping", p, &paper)
        .differentiate(a, da)
        .differentiate(c, dc)
        .expect(Expectation::nonneutral(vec![l5, l14]))
        .build()
        .expect("library scenario is valid")
}

/// Beyond Table 2 #4 — **mixed-CC policer contention**: topology A with the
/// 20%-of-capacity policer on `l5`, but every path runs a heterogeneous
/// 3:1 CUBIC/NewReno fleet instead of a single algorithm. The policed class
/// must still stand out even though the *fleet mix* skews per-flow
/// aggressiveness within each class.
pub fn mixed_cc_policer_contention(duration_s: f64, seed: u64) -> Scenario {
    let fleet = CcFleet::fleet(&[(CcKind::Cubic, 3), (CcKind::NewReno, 1)]);
    let mut s = topology_a_scenario(ExperimentParams {
        mechanism: Mechanism::Policing(0.2),
        flows_per_path: 20,
        duration_s,
        seed,
        ..ExperimentParams::default()
    });
    for (_, profile) in &mut s.path_traffic {
        profile.cc = fleet.clone();
    }
    s.name = "topology-a mixed-cc policer contention".into();
    s
}

/// Beyond Table 2 #5 — **mixed-CC neutral control**: topology A with no
/// mechanism, every path running a 1:1 CUBIC/NewReno fleet under heavy
/// aggregation. NewReno's slower window regrowth loses to CUBIC within
/// every class; a sound detector must still answer "neutral" because the
/// skew is CC-induced, not class-induced.
pub fn mixed_cc_neutral_control(duration_s: f64, seed: u64) -> Scenario {
    let fleet = CcFleet::fleet(&[(CcKind::Cubic, 1), (CcKind::NewReno, 1)]);
    let mut s = topology_a_scenario(ExperimentParams {
        flows_per_path: 70,
        duration_s,
        seed,
        ..ExperimentParams::default()
    });
    for (_, profile) in &mut s.path_traffic {
        profile.cc = fleet.clone();
    }
    s.name = "topology-a mixed-cc neutral control".into();
    s
}

/// Beyond Table 2 #6 — **shallow-buffer neutral control**: topology A with
/// no mechanism but the shared link's queue cut from one BDP (2.5 MB) to 30
/// full-MSS packets. The shallow buffer congests both classes much earlier;
/// the detector must read that as congestion, not differentiation.
pub fn shallow_buffer_neutral_control(duration_s: f64, seed: u64) -> Scenario {
    let mut s = topology_a_scenario(ExperimentParams {
        flows_per_path: 40,
        duration_s,
        seed,
        ..ExperimentParams::default()
    });
    let l5 = s.topology.link_by_name("l5").expect("topology A has l5");
    s.queue_overrides.push((l5, QueueOverride::Packets(30)));
    s.name = "topology-a shallow-buffer neutral control".into();
    s
}

/// Beyond Table 2 #7 — **deep-buffer policing**: the Table 2 policing setup
/// with the shared link's queue quadrupled to 10 MB. The deep FIFO absorbs
/// congestion losses, so nearly every remaining loss signal comes from the
/// policer itself — the cleanest version of the policing signature.
pub fn deep_buffer_policing(duration_s: f64, seed: u64) -> Scenario {
    let mut s = topology_a_scenario(ExperimentParams {
        mechanism: Mechanism::Policing(0.2),
        flows_per_path: 20,
        duration_s,
        seed,
        ..ExperimentParams::default()
    });
    let l5 = s.topology.link_by_name("l5").expect("topology A has l5");
    s.queue_overrides
        .push((l5, QueueOverride::Bytes(10_000_000)));
    s.name = "topology-a deep-buffer policing".into();
    s
}

/// The delay feature the delay-vs-loss headline runs with. Tighter than
/// [`nni_core::DelayFeature::default`] (which tolerates a full BDP-sized
/// standing queue): the headline's shaper lane is *rate*-visible long before
/// its deep buffer drops anything, so a 4x-over-baseline p90 with a 50 ms
/// absolute floor is the calibrated operating point. Neutral populations
/// stay unflagged under this feature because neutral queueing inflates
/// every class alike — see `tests/topogen_population.rs`.
pub const HEADLINE_DELAY_FEATURE: nni_core::DelayFeature = nni_core::DelayFeature {
    rel_factor: 4.0,
    abs_floor_s: 0.05,
};

/// Beyond Table 2 #9 — the **delay-visible shaper**, the delay-based
/// differentiation headline: class 2 is shaped to 30% of `l5` through a
/// single token-bucket lane whose buffer (16 MB) sits far above the class's
/// in-flight ceiling, so the lane *never drops a packet*. Class 2's flows
/// are fixed-size (1.875 MB each, 2 slots per path), which caps the bytes
/// TCP can have in flight at ~7.5 MB across the class — the lane queue
/// grows, oscillates, and drains, but cannot overflow. Class 1 is kept
/// light, and the shared FIFO never saturates.
///
/// The result is a network whose only differentiation signature is
/// *queueing delay*: loss-only inference sees a loss-free network and
/// answers "neutral" (a miss — the expectation says non-neutral), while the
/// joint loss+delay feature sees class 2's p90 one-way delay inflate far
/// past its slow-start baseline and flags `l5`. The discrimination gate
/// lives in `tests/delay_headline.rs`.
pub fn delay_visible_shaper(duration_s: f64, seed: u64) -> Scenario {
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    let l5 = paper.link_named("l5");
    let lane = ShapeLaneConfig {
        class: 1,
        rate_bps: 0.3 * BOTTLENECK_BPS,
        burst_bytes: 3_000.0,
        buffer_bytes: 16_000_000,
    };
    let mut b = Scenario::builder("topology-a delay-visible shaper", g.clone())
        .classes(paper.classes.clone())
        .differentiate(l5, Differentiation::Shaping { lanes: vec![lane] })
        .measurement(MeasurementConfig {
            duration_s,
            // A tiny warm-up keeps the slow-start intervals in the log:
            // they are the low-delay baseline the inflation test needs.
            warmup_s: Some(0.2),
            seed,
            ..MeasurementConfig::default()
        })
        .delay_feature(HEADLINE_DELAY_FEATURE);
    for path in g.path_ids() {
        let is_c2 = paper.classes[1].contains(&path);
        let profile = if is_c2 {
            // Fixed-size transfers bound the in-flight bytes per slot, so
            // the lane queue has a hard ceiling below its buffer.
            TrafficProfile {
                class: 1,
                cc: CcKind::Cubic.into(),
                size: SizeDist::Fixed { bytes: 1_875_000 },
                mean_gap_s: 0.5,
                parallel: 2,
            }
        } else {
            TrafficProfile::pareto_bits(0, CcKind::Cubic, 5e6, 1.0, 2)
        };
        b = b.path_traffic(path, profile);
    }
    b.expect(Expectation::nonneutral(vec![l5]))
        .build()
        .expect("library scenario is valid")
}

/// Beyond Table 2 #8 — **policer-rate sweep on topology B**: the §6.4
/// network with a single policer on the tier-2 ingress `l14`, swept over
/// three token rates (15%, 25%, 35% of capacity) as one [`SweepSet`]. The
/// Table 3 traffic and white-host background are identical across members,
/// so the sweep isolates the rate axis.
pub fn policer_rate_sweep_topology_b(p: TopologyBParams) -> SweepSet {
    let paper = topology_b();
    let l14 = paper.link_named("l14");
    let base = topology_b_base("topology-b policer-rate sweep", p, &paper)
        .expect(Expectation::neutral())
        .build()
        .expect("library scenario is valid");
    SweepSet::over_policer_rates(
        "topology-b policer-rate sweep (l14)",
        &base,
        l14,
        1,
        0.03,
        &[0.15, 0.25, 0.35],
    )
}

/// The **identity suite**: every scenario family of this library at
/// identity-test durations (short windows, 1 s warm-up so several measured
/// intervals survive), in a pinned order. This is the population behind two
/// cross-implementation gates:
///
/// * `tests/report_identity.rs` pins full-`SimReport` fingerprints of all
///   14 members × 3 seeds against the pre-rewrite emulator;
/// * `tests/corpus_roundtrip.rs` asserts that `infer` over a binary
///   encode→decode round trip of each member's
///   [`MeasurementSet`](nni_measure::MeasurementSet) is bit-identical to
///   the fused `Experiment::run` result.
///
/// Appending new families is fine (new golden rows get captured); never
/// reorder or edit existing members — the fingerprints are order-keyed.
pub fn identity_suite() -> Vec<Scenario> {
    let short_b = || TopologyBParams {
        duration_s: 5.0,
        ..TopologyBParams::default()
    };
    let sweep = policer_rate_sweep_topology_b(TopologyBParams {
        duration_s: 4.0,
        ..TopologyBParams::default()
    });
    let mut scenarios = vec![
        topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Neutral,
            duration_s: 6.0,
            ..ExperimentParams::default()
        }),
        topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            duration_s: 6.0,
            ..ExperimentParams::default()
        }),
        topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Shaping(0.3),
            duration_s: 6.0,
            ..ExperimentParams::default()
        }),
        topology_b_scenario(short_b()),
        dual_policer_topology_b(short_b()),
        asymmetric_rtt_neutral(6.0, 42),
        dual_link_shaping(short_b()),
        mixed_cc_policer_contention(6.0, 42),
        mixed_cc_neutral_control(6.0, 42),
        shallow_buffer_neutral_control(6.0, 42),
        deep_buffer_policing(6.0, 42),
    ];
    scenarios.extend(sweep.scenarios().cloned());
    // A short warm-up keeps several post-warmup intervals in the log (the
    // default 5 s would drop nearly everything at these durations).
    for s in &mut scenarios {
        s.measurement.warmup_s = Some(1.0);
    }
    scenarios
}

/// Ground-truth class partition of topology A as a [`nni_core::Classes`]
/// value (for reporting).
pub fn topology_a_classes(paper: &PaperTopology) -> nni_core::Classes {
    nni_core::Classes::new(&paper.topology, paper.classes.clone()).expect("valid partition")
}

/// The PathIds of topology A in class order (p1, p2 | p3, p4).
pub fn topology_a_paths() -> [PathId; 4] {
    [PathId(0), PathId(1), PathId(2), PathId(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_a_scenarios_carry_the_table2_structure() {
        let s = topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            ..ExperimentParams::default()
        });
        assert_eq!(s.path_traffic.len(), 4);
        assert_eq!(s.differentiation.len(), 1);
        assert!(s.expectation.expect_flagged);

        let neutral = topology_a_scenario(ExperimentParams::default());
        assert!(neutral.differentiation.is_empty());
        assert!(!neutral.expectation.expect_flagged);

        // The §6.3 exception: a 50/50 shaper is behaviourally neutral.
        let half = topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Shaping(0.5),
            ..ExperimentParams::default()
        });
        assert_eq!(half.differentiation.len(), 1);
        assert!(!half.expectation.expect_flagged);
    }

    #[test]
    fn topology_b_scenario_places_three_policers_and_background() {
        let s = topology_b_scenario(TopologyBParams::default());
        assert_eq!(s.differentiation.len(), 3);
        assert_eq!(s.background.len(), 3);
        assert_eq!(s.expectation.nonneutral_links.len(), 3);
        assert_eq!(s.measurement.normalize_salt, 0xBEEF);
        // 7 short-flow paths x 3 profiles + 8 long-flow paths x 2 profiles.
        assert_eq!(s.path_traffic.len(), 7 * 3 + 8 * 2);
    }

    #[test]
    fn variant_scenarios_build() {
        let p = TopologyBParams::default();
        let dual = dual_policer_topology_b(p);
        assert_eq!(dual.differentiation.len(), 2);
        assert_eq!(dual.expectation.nonneutral_links.len(), 2);
        crate::audit::assert_demand_exceeds_policed_rate(&dual);

        let shaped = dual_link_shaping(p);
        assert_eq!(shaped.differentiation.len(), 2);

        let asym = asymmetric_rtt_neutral(30.0, 1);
        assert!(asym.differentiation.is_empty());
        assert!(!asym.expectation.expect_flagged);
    }

    #[test]
    fn topology_b_policers_are_not_starved() {
        crate::audit::assert_demand_exceeds_policed_rate(&topology_b_scenario(
            TopologyBParams::default(),
        ));
    }

    #[test]
    fn mixed_cc_scenarios_carry_heterogeneous_fleets() {
        let contention = mixed_cc_policer_contention(10.0, 1);
        assert_eq!(contention.differentiation.len(), 1);
        assert!(contention.expectation.expect_flagged);
        assert!(contention.path_traffic.iter().all(|(_, p)| p.cc.is_mixed()));
        // The PR 1 lesson applies to every new policer scenario.
        crate::audit::assert_demand_exceeds_policed_rate(&contention);

        let control = mixed_cc_neutral_control(10.0, 1);
        assert!(control.differentiation.is_empty());
        assert!(!control.expectation.expect_flagged);
        assert!(control.path_traffic.iter().all(|(_, p)| p.cc.is_mixed()));
    }

    #[test]
    fn buffer_variant_scenarios_override_the_shared_queue() {
        let shallow = shallow_buffer_neutral_control(10.0, 1);
        let l5 = shallow.topology.link_by_name("l5").unwrap();
        assert_eq!(
            shallow.queue_overrides,
            vec![(l5, QueueOverride::Packets(30))]
        );
        assert!(!shallow.expectation.expect_flagged);
        // The override reaches the compiled link table.
        let exp = shallow.compile();
        assert_eq!(exp.links()[l5.index()].queue_bytes, Some(30 * 1500));

        let deep = deep_buffer_policing(10.0, 1);
        assert_eq!(
            deep.queue_overrides,
            vec![(l5, QueueOverride::Bytes(10_000_000))]
        );
        assert!(deep.expectation.expect_flagged);
        crate::audit::assert_demand_exceeds_policed_rate(&deep);
    }

    #[test]
    fn delay_visible_shaper_carries_the_headline_structure() {
        let s = delay_visible_shaper(6.0, 42);
        // Joint inference is configured in: recording plus the calibrated
        // feature.
        assert!(s.measurement.record_delay);
        assert_eq!(s.measurement.delay_feature, Some(HEADLINE_DELAY_FEATURE));
        assert!(s.expectation.expect_flagged);
        // One deep-buffered lane, shaping class 2 only.
        let lanes = match &s.differentiation[0].1 {
            Differentiation::Shaping { lanes } => lanes,
            _ => panic!("expected a shaper"),
        };
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].class, 1);
        // The lane buffer exceeds the class's in-flight ceiling (4 slots x
        // 1.875 MB fixed flows), so it can never drop.
        assert!(lanes[0].buffer_bytes > 4 * 1_875_000);
        // The PR 1 lesson applies to shaper lanes too: the audit now covers
        // them, and the lane is well fed.
        crate::audit::assert_demand_exceeds_policed_rate(&s);
    }

    #[test]
    fn policer_rate_sweep_isolates_the_rate_axis() {
        let sweep = policer_rate_sweep_topology_b(TopologyBParams::default());
        assert_eq!(sweep.len(), 3);
        let mut last_rate = 0.0;
        for member in sweep.members() {
            let s = &member.scenario;
            assert_eq!(s.differentiation.len(), 1, "single policer per member");
            let l14 = s.topology.link_by_name("l14").unwrap();
            assert_eq!(s.differentiation[0].0, l14);
            assert_eq!(s.expectation.nonneutral_links, vec![l14]);
            let rate = match s.differentiation[0].1 {
                nni_emu::Differentiation::Policing { rate_bps, .. } => rate_bps,
                _ => panic!("expected a policer"),
            };
            assert!(rate > last_rate, "rates must ascend");
            last_rate = rate;
            crate::audit::assert_demand_exceeds_policed_rate(s);
        }
    }
}
