//! Table 2: the nine experiment sets on topology A, expressed as
//! [`SweepSet`]s over the `nni-scenario` API.
//!
//! Each set is one [`SweepSet`]; the per-experiment glue (topology wiring,
//! traffic placement, mechanism placement, ground truth) lives in
//! [`nni_scenario::library::topology_a_scenario`]. Run one set with
//! [`SweepSet::run`], or the whole Table 2 as a single executor batch with
//! [`nni_scenario::run_sets`].

use nni_scenario::library::{topology_a_scenario, ExperimentParams, Mechanism};
use nni_scenario::SweepSet;

fn set(
    name: &str,
    axis: &str,
    experiments: impl IntoIterator<Item = (String, ExperimentParams)>,
) -> SweepSet {
    SweepSet::from_points(
        name,
        axis,
        experiments
            .into_iter()
            .map(|(tick, p)| (tick, topology_a_scenario(p))),
    )
}

/// Builds all nine experiment sets of Table 2, scaled to `duration_s` with
/// the given base seed.
pub fn table2_sets(duration_s: f64, seed: u64) -> Vec<SweepSet> {
    // Per-set parallel-flow counts (DESIGN.md substitution: the paper's
    // exact load levels are unrecoverable; each mechanism needs its
    // observable regime). Sets 1-3 and 7-8 need high aggregation (70
    // flows/path, a Table 1 value); the policing sets work at 20; the
    // shaping-rate sweep needs per-class load between the 40% and 50%
    // lane rates (24 flows/path).
    let base = ExperimentParams {
        duration_s,
        seed,
        ..ExperimentParams::default()
    };
    let heavy = ExperimentParams {
        flows_per_path: 70,
        ..base
    };
    let policing_load = ExperimentParams {
        flows_per_path: 20,
        ..base
    };
    let shaping_sweep_load = ExperimentParams {
        flows_per_path: 24,
        ..base
    };
    let mb = 1e6;
    let sizes = [1.0 * mb, 10.0 * mb, 40.0 * mb, 10_000.0 * mb];
    let size_names = ["1", "10", "40", "10000"];
    let rtts = [0.05, 0.08, 0.12, 0.2];
    let rtt_names = ["50", "80", "120", "200"];
    let rates = [0.5, 0.4, 0.3, 0.2];
    let rate_names = ["50", "40", "30", "20"];

    vec![
        // Set 1: neutral, class-1 flows 1 Mb, class-2 flow size varies.
        set(
            "set1 neutral: vary class-2 mean flow size",
            "Mean flow size for class 2 [Mb]",
            sizes.iter().zip(size_names).map(|(&s, n)| {
                (
                    n.to_string(),
                    ExperimentParams {
                        flow_size_c1_bits: mb,
                        flow_size_c2_bits: s,
                        ..heavy
                    },
                )
            }),
        ),
        // Set 2: neutral, class-2 RTT varies.
        set(
            "set2 neutral: vary class-2 RTT",
            "RTT for class 2 [ms]",
            rtts.iter().zip(rtt_names).map(|(&r, n)| {
                (
                    n.to_string(),
                    ExperimentParams {
                        rtt_c1_s: 0.05,
                        rtt_c2_s: r,
                        ..heavy
                    },
                )
            }),
        ),
        // Set 3: neutral, class-2 congestion control varies.
        set(
            "set3 neutral: vary class-2 congestion control",
            "TCP congestion control alg. for class 2",
            [
                ("CUBIC/CUBIC", nni_emu::CcKind::Cubic),
                ("CUBIC/NewReno", nni_emu::CcKind::NewReno),
            ]
            .map(|(tick, cc2)| {
                (
                    tick.to_string(),
                    ExperimentParams {
                        cc_c1: nni_emu::CcKind::Cubic,
                        cc_c2: cc2,
                        ..heavy
                    },
                )
            }),
        ),
        // Sets 4–6: policing.
        set(
            "set4 policing: vary mean flow size (both classes)",
            "Mean flow size [Mb]",
            sizes.iter().zip(size_names).map(|(&s, n)| {
                (
                    n.to_string(),
                    ExperimentParams {
                        mechanism: Mechanism::Policing(0.2),
                        flow_size_c1_bits: s,
                        flow_size_c2_bits: s,
                        ..policing_load
                    },
                )
            }),
        ),
        set(
            "set5 policing: vary RTT (both classes)",
            "RTT [ms]",
            rtts.iter().zip(rtt_names).map(|(&r, n)| {
                (
                    n.to_string(),
                    ExperimentParams {
                        mechanism: Mechanism::Policing(0.2),
                        rtt_c1_s: r,
                        rtt_c2_s: r,
                        ..policing_load
                    },
                )
            }),
        ),
        set(
            "set6 policing: vary policing rate",
            "Policing rate [%]",
            rates.iter().zip(rate_names).map(|(&f, n)| {
                (
                    n.to_string(),
                    ExperimentParams {
                        mechanism: Mechanism::Policing(f),
                        ..policing_load
                    },
                )
            }),
        ),
        // Sets 7–9: shaping.
        set(
            "set7 shaping: vary mean flow size (both classes)",
            "Mean flow size [Mb]",
            sizes.iter().zip(size_names).map(|(&s, n)| {
                (
                    n.to_string(),
                    ExperimentParams {
                        mechanism: Mechanism::Shaping(0.2),
                        flow_size_c1_bits: s,
                        flow_size_c2_bits: s,
                        // 1 Mb flows only press a 20 Mb/s shaper lane at
                        // very high aggregation (DESIGN.md calibration).
                        flows_per_path: if s <= 1.5 * mb { 140 } else { 70 },
                        ..heavy
                    },
                )
            }),
        ),
        set(
            "set8 shaping: vary RTT (both classes)",
            "RTT [ms]",
            rtts.iter().zip(rtt_names).map(|(&r, n)| {
                (
                    n.to_string(),
                    ExperimentParams {
                        mechanism: Mechanism::Shaping(0.2),
                        rtt_c1_s: r,
                        rtt_c2_s: r,
                        ..heavy
                    },
                )
            }),
        ),
        set(
            "set9 shaping: vary shaping rate",
            "Shaping rate [%]",
            rates.iter().zip(rate_names).map(|(&f, n)| {
                (
                    n.to_string(),
                    ExperimentParams {
                        mechanism: Mechanism::Shaping(f),
                        ..shaping_sweep_load
                    },
                )
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_nine_sets_of_valid_scenarios() {
        let sets = table2_sets(30.0, 1);
        assert_eq!(sets.len(), 9);
        let total: usize = sets.iter().map(|s| s.len()).sum();
        assert_eq!(total, 4 + 4 + 2 + 4 + 4 + 4 + 4 + 4 + 4);
        for s in &sets {
            for scenario in s.scenarios() {
                assert_eq!(scenario.path_traffic.len(), 4);
                assert_eq!(scenario.measurement.duration_s, 30.0);
                assert_eq!(scenario.measurement.seed, 1);
            }
        }
        // Neutral sets carry no mechanism; policing/shaping sets carry one.
        assert!(sets[0].scenarios().all(|s| s.differentiation.is_empty()));
        assert!(sets[5].scenarios().all(|s| s.differentiation.len() == 1));
        // The default 20% policing regime keeps its policer meaningfully
        // loaded (the 30–50% members of the rate sweep intentionally sit
        // above sustained demand and clip slow-start bursts only, so the
        // demand audit applies to the sweep's terminal member alone).
        let twenty = sets[5]
            .members()
            .iter()
            .find(|m| m.tick == "20")
            .expect("set 6 sweeps down to 20%");
        nni_scenario::assert_demand_exceeds_policed_rate(&twenty.scenario);
        // The 50% shaping experiment is behaviourally neutral.
        let half = &sets[8].members()[0];
        assert_eq!(half.tick, "50");
        assert!(!half.scenario.expectation.expect_flagged);
    }
}
