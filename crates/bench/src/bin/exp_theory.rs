//! Regenerates the paper's **worked theory examples** (Figures 1–6) in exact
//! mode — no emulation, ground-truth oracles only:
//!
//! * Figure 1 — observable violation on the 4-link network;
//! * Figure 2 — NON-observable violation (the regulation is maskable);
//! * Figure 4 — observable; `⟨l1⟩` and `⟨l1,l2⟩` identifiable, `⟨l2⟩` not;
//! * Figure 5 — observable violation #2 (the pathset-correlation clue);
//! * Figure 6 — the slice system for `τ = ⟨l1⟩`;
//! * §5's worked Algorithm-1 example with its FN/FP/granularity numbers.

use nni_bench::Table;
use nni_core::{
    evaluate, identify, lemma3_condition, slice_for, theorem1, unsolvable_over_power_set, Classes,
    Config, EquivalentNetwork, ExactOracle, LinkPerf, NetworkPerf,
};
use nni_topology::library::{figure1, figure2, figure4, figure5, PaperTopology};
use nni_topology::LinkSeq;

/// Per-link `(name, class-1 number, class-2 number)` ground-truth deltas.
type Deltas = Vec<(&'static str, f64, f64)>;

fn truth(t: &PaperTopology, deltas: &[(&str, f64, f64)]) -> (Classes, NetworkPerf) {
    let classes = Classes::new(&t.topology, t.classes.clone()).expect("valid classes");
    let mut perf = NetworkPerf::congestion_free(&t.topology, 2);
    for &(name, x1, x2) in deltas {
        let l = t.topology.link_by_name(name).expect("known link");
        perf = perf.with_link(l, LinkPerf::per_class(vec![x1, x2]));
    }
    (classes, perf)
}

fn main() {
    println!("== Theory examples (exact mode, Figures 1-6) ==\n");
    let mut t = Table::new(vec![
        "example",
        "Theorem 1 observable",
        "brute-force unsolvable system",
        "agrees",
    ]);

    let cases: Vec<(&str, PaperTopology, Deltas)> = vec![
        (
            "Figure 1 (l1 non-neutral)",
            figure1(),
            vec![("l1", 0.0, 0.5)],
        ),
        (
            "Figure 2 (l1 non-neutral)",
            figure2(),
            vec![("l1", 0.0, 0.5)],
        ),
        (
            "Figure 4 (l1, l2 non-neutral)",
            figure4(),
            vec![("l1", 0.0, 0.4), ("l2", 0.0, 0.2)],
        ),
        (
            "Figure 5 (l1 congests c2 w.p. 0.5)",
            figure5(),
            vec![("l1", 0.0, (2.0_f64).ln())],
        ),
    ];
    for (name, topo, deltas) in &cases {
        let (classes, perf) = truth(topo, deltas);
        let th = theorem1(&topo.topology, &classes, &perf);
        let brute = unsolvable_over_power_set(&topo.topology, &classes, &perf);
        t.row(vec![
            name.to_string(),
            th.observable.to_string(),
            brute.to_string(),
            (th.observable == brute).to_string(),
        ]);
    }
    println!("{t}");

    // Figure 6: the slice system for τ = ⟨l1⟩ of Figure 4's network.
    let f4 = figure4();
    let l1 = f4.topology.link_by_name("l1").unwrap();
    let l2 = f4.topology.link_by_name("l2").unwrap();
    let s = slice_for(&f4.topology, &LinkSeq::single(l1)).expect("slice exists");
    println!("--- Figure 6: slice for τ = ⟨l1⟩ of Figure 4's network ---");
    println!(
        "path pairs sharing exactly ⟨l1⟩: {:?}",
        s.pairs()
            .iter()
            .map(|[a, b]| format!("{{{a},{b}}}"))
            .collect::<Vec<_>>()
    );
    println!("|Θ_τ| = {} pathsets (paper: 7)", s.pathset_count());
    let a = s.routing_matrix();
    println!(
        "System 4: {} equations over {} logical links\n",
        a.rows(),
        a.cols()
    );

    // Lemma 3 and the §5 worked example.
    let (classes, perf) = truth(&f4, &[("l1", 0.0, 0.4), ("l2", 0.0, 0.2)]);
    println!("--- §4.2 / §5: identifiability and Algorithm 1 on Figure 4 ---");
    println!(
        "Lemma 3 holds for ⟨l1⟩: {}",
        lemma3_condition(&s, &classes, 0)
    );
    println!(
        "⟨l2⟩ has a slice: {} (paper: no path pair shares only l2)",
        slice_for(&f4.topology, &LinkSeq::single(l2)).is_some()
    );
    let oracle = ExactOracle::new(EquivalentNetwork::build(&f4.topology, &classes, &perf));
    let result = identify(&f4.topology, &oracle, Config::exact());
    let names: Vec<String> = result
        .nonneutral
        .iter()
        .map(|s| {
            let inner: Vec<String> = s
                .links()
                .iter()
                .map(|&l| f4.topology.link(l).name.clone())
                .collect();
            format!("⟨{}⟩", inner.join(","))
        })
        .collect();
    println!("Algorithm 1 identifies: {}", names.join(", "));
    let q = evaluate(&f4.topology, &result.nonneutral, &[l1, l2]);
    println!(
        "FN = {:.0}%, FP = {:.0}%, granularity = {} (paper: 0%, 0%, 1.5)",
        100.0 * q.false_negative_rate,
        100.0 * q.false_positive_rate,
        q.granularity
    );
}
