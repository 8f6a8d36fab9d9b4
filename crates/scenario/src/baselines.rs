//! Routing the related-work baselines through the same measurements.
//!
//! Each adapter derives a baseline's *input* from a [`MeasurementSet`] — the
//! identical artifact Algorithm 1 consumes, whether it came from the live
//! emulator, an on-disk corpus, or a cache — so boolean tomography,
//! least-squares loss tomography, Glasnost, and NetPolice all see the same
//! run as the paper's algorithm: the apples-to-apples comparison §8 calls
//! for. Concretely:
//!
//! * boolean / loss tomography see the measured path log (and assume
//!   neutrality);
//! * Glasnost additionally gets the class partition the set carries (which
//!   it would know — it crafts the flow types itself);
//! * NetPolice gets per-link per-class probe loss rates, stood in by the
//!   emulator's ground truth (its best case: perfect interior probes). That
//!   is link-level information, which a measurement set deliberately does
//!   not carry — NetPolice alone still takes the raw [`SimReport`].

use nni_core::Observations;
use nni_emu::SimReport;
use nni_measure::{MeasuredObservations, MeasurementSet};
use nni_tomography::{
    boolean_infer, glasnost_detect, loss_infer, netpolice_detect, BooleanTomography,
    GlasnostVerdict, LinkVerdict, LossTomography, ProbeMeasurements, Snapshot,
};
use nni_topology::{PathId, PathSet};

use crate::infer::InferenceConfig;
use crate::spec::Scenario;

/// Per-interval congestion snapshots over the measured paths (the input
/// boolean tomography explains), at the config's loss threshold.
pub fn snapshots(set: &MeasurementSet, cfg: &InferenceConfig) -> Vec<Snapshot> {
    let g = &set.topology;
    let log = &set.log;
    let thr = cfg.loss_threshold;
    (0..log.interval_count())
        .filter_map(|t| {
            let snap: Vec<bool> = g
                .path_ids()
                .map(|p| {
                    let m = log.sent(t, p);
                    m > 0 && log.lost(t, p) as f64 > thr * m as f64
                })
                .collect();
            // Skip intervals with no information at all.
            let any_active = g.path_ids().any(|p| log.sent(t, p) > 0);
            any_active.then_some(snap)
        })
        .collect()
}

/// Boolean tomography \[22\] over the set's congestion snapshots.
pub fn boolean(set: &MeasurementSet, cfg: &InferenceConfig) -> BooleanTomography {
    boolean_infer(&set.topology, &snapshots(set, cfg))
}

/// Least-squares loss tomography \[7\] over singleton and pair pathsets of
/// every measured path, normalized exactly as the set's own inference run
/// (same threshold, same salted seed).
pub fn loss(set: &MeasurementSet, cfg: &InferenceConfig) -> LossTomography {
    let g = &set.topology;
    let obs = MeasuredObservations::new(&set.log, cfg.normalize(set.provenance.seed));
    let group: Vec<PathId> = g.path_ids().collect();
    let mut pathsets: Vec<PathSet> = g.path_ids().map(PathSet::single).collect();
    for i in 0..group.len() {
        for j in i + 1..group.len() {
            pathsets.push(PathSet::pair(group[i], group[j]));
        }
    }
    // One query: the full-group column is evaluated once per interval,
    // not once per pathset.
    let y = obs.observe_all(&group, &pathsets);
    loss_infer(g, &pathsets, &y)
}

/// A Glasnost-style differential detector \[11\] fed the set's first two
/// classes (the partition Glasnost knows by construction).
pub fn glasnost(set: &MeasurementSet, cfg: &InferenceConfig, margin: f64) -> GlasnostVerdict {
    let empty: &[PathId] = &[];
    let class1 = set.classes.first().map_or(empty, Vec::as_slice);
    let class2 = set.classes.get(1).map_or(empty, Vec::as_slice);
    glasnost_detect(&set.log, class1, class2, cfg.loss_threshold, margin)
}

/// The delay-aware Glasnost variant: compares the two classes' *delay
/// inflation* rates instead of their loss rates, over the same measurement
/// set. A cell counts as inflated when its p90 one-way delay exceeds the
/// feature's threshold against the path's own baseline (min p50 across the
/// log) — exactly the joint indicator's delay half. Returns `None` when the
/// set carries no delay grid (a loss-only v1 set).
///
/// This is the baseline the headline scenario leans on: a deep-buffered
/// shaper delays a class without dropping, so loss-based
/// [`glasnost`] sees nothing while the delay variant flags it.
pub fn glasnost_delay(
    set: &MeasurementSet,
    feature: &nni_core::DelayFeature,
    margin: f64,
) -> Option<GlasnostVerdict> {
    if !set.log.has_delay() {
        return None;
    }
    let empty: &[PathId] = &[];
    let class1 = set.classes.first().map_or(empty, Vec::as_slice);
    let class2 = set.classes.get(1).map_or(empty, Vec::as_slice);
    let inflation_rate = |class: &[PathId]| {
        let log = &set.log;
        let mut inflated = 0usize;
        let mut informative = 0usize;
        for &p in class {
            let Some(baseline) = log.delay_baseline(p) else {
                continue;
            };
            for t in 0..log.interval_count() {
                if let Some(stats) = log.delay(t, p) {
                    informative += 1;
                    if feature.inflated(stats.p90_s, baseline) {
                        inflated += 1;
                    }
                }
            }
        }
        if informative == 0 {
            0.0
        } else {
            inflated as f64 / informative as f64
        }
    };
    let class1_congestion = inflation_rate(class1);
    let class2_congestion = inflation_rate(class2);
    let diff = (class1_congestion - class2_congestion).abs();
    let ratio_split =
        class1_congestion.max(class2_congestion) > 2.0 * class1_congestion.min(class2_congestion);
    Some(GlasnostVerdict {
        class1_congestion,
        class2_congestion,
        differentiated: diff > margin && ratio_split,
    })
}

/// A NetPolice-style per-link comparator \[31\] fed perfect interior probes:
/// the emulator's per-link per-class ground-truth loss rates. The only
/// baseline that needs the raw report — its probes see inside the network,
/// which the measurement-set boundary by definition excludes.
pub fn netpolice(scenario: &Scenario, report: &SimReport, margin: f64) -> Vec<LinkVerdict> {
    let n_classes = scenario.class_label_count();
    let loss_rate: Vec<Vec<f64>> = scenario
        .topology
        .link_ids()
        .map(|l| {
            (0..n_classes)
                .map(|c| {
                    let offered = report.link_truth.class_offered(l, c as u8);
                    if offered == 0 {
                        0.0
                    } else {
                        report.link_truth.class_dropped(l, c as u8) as f64 / offered as f64
                    }
                })
                .collect()
        })
        .collect();
    netpolice_detect(&ProbeMeasurements { loss_rate }, margin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{topology_a_scenario, ExperimentParams, Mechanism};
    use nni_tomography::flagged_links;

    fn short_policing_run() -> (Scenario, MeasurementSet, SimReport) {
        let s = topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            duration_s: 25.0,
            seed: 11,
            ..ExperimentParams::default()
        });
        let exp = s.compile();
        let report = exp.emulate();
        let set = exp.simulate();
        (s, set, report)
    }

    #[test]
    fn baselines_consume_the_same_run() {
        let (s, set, report) = short_policing_run();
        let cfg = InferenceConfig::of(&s);
        let l5 = s.topology.link_by_name("l5").unwrap();

        // Boolean tomography assumes neutrality and exonerates the culprit.
        let b = boolean(&set, &cfg);
        assert!(
            b.prob(l5) < 0.05,
            "boolean tomography should exonerate l5, got {}",
            b.prob(l5)
        );

        // The least-squares fit leaves a residual (Lemma 1's raw material).
        let ls = loss(&set, &cfg);
        assert!(ls.residual_norm > 0.0);

        // Glasnost (knowing the classes) sees the differentiation.
        let g = glasnost(&set, &cfg, 0.05);
        assert!(g.differentiated);
        assert!(g.class2_congestion > g.class1_congestion);

        // NetPolice with perfect probes localizes the policer.
        let np = netpolice(&s, &report, 0.01);
        assert!(
            flagged_links(&np).contains(&l5),
            "netpolice with perfect probes must flag l5"
        );
    }

    #[test]
    fn snapshots_cover_active_intervals_only() {
        let (s, set, _) = short_policing_run();
        let snaps = snapshots(&set, &InferenceConfig::of(&s));
        assert!(!snaps.is_empty());
        assert!(snaps.iter().all(|s| s.len() == 4));
    }

    #[test]
    fn baselines_accept_a_decoded_set() {
        // The adapters must be indifferent to where the set came from: a
        // binary round trip feeds them identically.
        let (s, set, _) = short_policing_run();
        let cfg = InferenceConfig::of(&s);
        let decoded = nni_measure::codec::decode(&nni_measure::codec::encode(&set)).unwrap();
        assert_eq!(glasnost(&set, &cfg, 0.05), glasnost(&decoded, &cfg, 0.05));
        assert_eq!(snapshots(&set, &cfg), snapshots(&decoded, &cfg));
    }
}
