//! Cross-crate integration tests: the exact-mode theory pipeline
//! (topology → ground truth → equivalent network → observability →
//! slices → Algorithm 1 → metrics).

use netneutrality::core::{
    evaluate, identify, lemma3_condition, seq_nonneutral, seq_top_class, slice_for,
    system4_unsolvable, theorem1, unsolvable_over_power_set, Classes, Config, EquivalentNetwork,
    ExactOracle, LinkPerf, NetworkPerf,
};
use netneutrality::topology::library::{
    dumbbell, figure1, figure2, figure4, figure5, topology_a, topology_b, PaperTopology,
};
use netneutrality::topology::LinkSeq;

/// Per-link `(name, class-1 number, class-2 number)` ground-truth deltas.
type Deltas = Vec<(&'static str, f64, f64)>;

fn two_class_truth(t: &PaperTopology, deltas: &[(&str, f64, f64)]) -> (Classes, NetworkPerf) {
    let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
    let mut perf = NetworkPerf::congestion_free(&t.topology, 2);
    for &(name, x1, x2) in deltas {
        let l = t.topology.link_by_name(name).unwrap();
        perf = perf.with_link(l, LinkPerf::per_class(vec![x1, x2]));
    }
    (classes, perf)
}

#[test]
fn theorem1_matches_brute_force_on_all_paper_figures() {
    let cases: Vec<(PaperTopology, Deltas, bool)> = vec![
        (figure1(), vec![("l1", 0.0, 0.5)], true),
        (figure2(), vec![("l1", 0.0, 0.5)], false),
        (figure4(), vec![("l1", 0.0, 0.4), ("l2", 0.0, 0.2)], true),
        (figure5(), vec![("l1", 0.0, (2.0_f64).ln())], true),
    ];
    for (t, deltas, expected) in cases {
        let (classes, perf) = two_class_truth(&t, &deltas);
        let th = theorem1(&t.topology, &classes, &perf).observable;
        let brute = unsolvable_over_power_set(&t.topology, &classes, &perf);
        assert_eq!(th, expected, "Theorem 1 verdict");
        assert_eq!(brute, expected, "brute-force verdict");
    }
}

#[test]
fn full_pipeline_on_figure4_matches_section5() {
    let t = figure4();
    let (classes, perf) = two_class_truth(&t, &[("l1", 0.0, 0.4), ("l2", 0.0, 0.2)]);
    let g = &t.topology;
    let l1 = g.link_by_name("l1").unwrap();
    let l2 = g.link_by_name("l2").unwrap();

    // Lemma 3's hypotheses hold for ⟨l1⟩.
    let s = slice_for(g, &LinkSeq::single(l1)).unwrap();
    let top = seq_top_class(&perf, s.tau());
    assert!(seq_nonneutral(&perf, s.tau()));
    assert!(lemma3_condition(&s, &classes, top));

    // Lemma 3 ⇒ System 4 unsolvable.
    let oracle = ExactOracle::new(EquivalentNetwork::build(g, &classes, &perf));
    assert!(system4_unsolvable(g, &s, &oracle, 1e-9));

    // Algorithm 1 returns exactly {⟨l1⟩, ⟨l1,l2⟩} with the §5 metrics.
    let result = identify(g, &oracle, Config::exact());
    let mut got = result.nonneutral.clone();
    got.sort();
    let mut want = vec![LinkSeq::single(l1), LinkSeq::new(vec![l1, l2])];
    want.sort();
    assert_eq!(got, want);
    let q = evaluate(g, &result.nonneutral, &[l1, l2]);
    assert_eq!(q.false_negative_rate, 0.0);
    assert_eq!(q.false_positive_rate, 0.0);
    assert!((q.granularity - 1.5).abs() < 1e-12);
}

#[test]
fn exact_mode_never_accuses_a_neutral_network() {
    for t in [
        figure1(),
        figure4(),
        topology_a(0.05, 0.05),
        topology_b(),
        dumbbell(3, 3),
    ] {
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        // Arbitrary neutral performance numbers.
        let xs: Vec<f64> = (0..t.topology.link_count())
            .map(|i| 0.01 * (i % 7) as f64)
            .collect();
        let perf = NetworkPerf::neutral(&xs, classes.count());
        let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
        let result = identify(&t.topology, &oracle, Config::exact());
        assert!(
            result.nonneutral.is_empty(),
            "false positives on a neutral network in {} slices",
            result.verdicts().len()
        );
    }
}

#[test]
fn topology_b_exact_pipeline_reaches_paper_metrics() {
    let t = topology_b();
    let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
    let mut perf = NetworkPerf::congestion_free(&t.topology, 2);
    for &l in &t.nonneutral_links {
        perf = perf.with_link(l, LinkPerf::per_class(vec![0.002, 0.04]));
    }
    let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
    let result = identify(&t.topology, &oracle, Config::exact());
    let q = evaluate(&t.topology, &result.nonneutral, &t.nonneutral_links);
    assert_eq!(q.false_negative_rate, 0.0, "all three policers found");
    assert_eq!(q.false_positive_rate, 0.0, "no neutral link accused");
    assert!(q.granularity >= 1.0 && q.granularity <= 4.0);
}

#[test]
fn clustered_mode_agrees_with_exact_mode_on_clean_oracles() {
    let t = topology_a(0.05, 0.05);
    let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
    let l5 = t.topology.link_by_name("l5").unwrap();
    let perf = NetworkPerf::congestion_free(&t.topology, 2)
        .with_link(l5, LinkPerf::per_class(vec![0.01, 0.3]));
    let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
    let exact = identify(&t.topology, &oracle, Config::exact());
    let clustered = identify(&t.topology, &oracle, Config::clustered());
    assert_eq!(exact.nonneutral, clustered.nonneutral);
    assert!(exact.nonneutral.iter().any(|s| s.contains(l5)));
}

#[test]
fn masked_violation_stays_invisible_end_to_end() {
    // Figure 2: the violation is structurally non-observable; neither mode
    // may flag anything.
    let t = figure2();
    let (classes, perf) = two_class_truth(&t, &[("l1", 0.0, 0.9)]);
    let oracle = ExactOracle::new(EquivalentNetwork::build(&t.topology, &classes, &perf));
    for cfg in [Config::exact(), Config::clustered()] {
        let result = identify(&t.topology, &oracle, cfg);
        assert!(
            result.nonneutral.is_empty(),
            "non-observable violation flagged"
        );
    }
}
