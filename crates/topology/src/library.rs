//! Factories for every topology the paper uses.
//!
//! * Figures 1, 2, 4, 5 — the worked theory examples (observable /
//!   non-observable / identifiable / non-identifiable).
//! * Figure 7 — experiment **topology A**: a dumbbell with a single shared
//!   (possibly differentiating) link `l5`.
//! * Figure 9 — experiment **topology B**: a multi-bottleneck tier-1/tier-2
//!   topology with policers on `l5`, `l14`, and `l20`.
//!
//! The paper does not fully specify Figure 9's wiring; per DESIGN.md we build
//! a 24-link "parking-lot" backbone with feeders and two-hop egresses that
//! preserves the structural features the evaluation depends on: the three
//! policers sit on widely shared links (one internal backbone link, two
//! tier-2 ingress links), several *neutral* links run near capacity, and the
//! measured paths generate a rich population of identifiable link sequences.
//! The policer link numbers (5, 14, 20) and the neutral-but-congested link
//! (13) match the paper's numbering so the figures read the same.

use crate::graph::{Topology, TopologyBuilder};
use crate::ids::{LinkId, PathId};

/// A topology bundled with its performance-class partition and its designated
/// non-neutral links (ground truth for evaluation).
#[derive(Debug, Clone)]
pub struct PaperTopology {
    /// The graph and measured paths.
    pub topology: Topology,
    /// Class partition: `classes[n]` lists the member paths of class `c_{n+1}`.
    /// Class 0 is the top-priority class everywhere in this library.
    pub classes: Vec<Vec<PathId>>,
    /// Ground-truth non-neutral links.
    pub nonneutral_links: Vec<LinkId>,
}

impl PaperTopology {
    /// Convenience: the class index of a path (panics when unclassified).
    pub fn class_of(&self, p: PathId) -> usize {
        self.classes
            .iter()
            .position(|c| c.contains(&p))
            .expect("every measured path belongs to a class")
    }

    /// Convenience: the id of a named link (panics when absent). Scenario
    /// builders reference library links by their paper names.
    pub fn link_named(&self, name: &str) -> LinkId {
        self.topology
            .link_by_name(name)
            .unwrap_or_else(|| panic!("topology has no link named {name}"))
    }

    /// Convenience: ids of several named links, in the given order.
    pub fn links_named(&self, names: &[&str]) -> Vec<LinkId> {
        names.iter().map(|n| self.link_named(n)).collect()
    }
}

/// Figure 1: observable violation. `l1` treats `{p2}` worse than `{p1, p3}`.
///
/// Paths: `p1 = ⟨l1,l2⟩`, `p2 = ⟨l1,l3⟩`, `p3 = ⟨l3,l4⟩`;
/// classes `{{p1,p3},{p2}}`.
pub fn figure1() -> PaperTopology {
    let mut b = TopologyBuilder::new();
    let a = b.host("A");
    let bb = b.host("B");
    let c = b.host("C");
    let d = b.host("D");
    let e = b.host("E");
    let l1 = b.link("l1", a, bb).unwrap();
    let l2 = b.link("l2", bb, c).unwrap();
    let l3 = b.link("l3", bb, d).unwrap();
    let l4 = b.link("l4", d, e).unwrap();
    let p1 = b.path("p1", vec![l1, l2]).unwrap();
    let p2 = b.path("p2", vec![l1, l3]).unwrap();
    let p3 = b.path("p3", vec![l3, l4]).unwrap();
    PaperTopology {
        topology: b.build(),
        classes: vec![vec![p1, p3], vec![p2]],
        nonneutral_links: vec![l1],
    }
}

/// Figure 2: **non-observable** violation. `l1` treats `p2` worse than `p1`,
/// but `l1`'s regulation of `p2` is indistinguishable from `l3`.
///
/// Paths: `p1 = ⟨l1,l2⟩`, `p2 = ⟨l1,l3⟩`; classes `{{p1},{p2}}`.
pub fn figure2() -> PaperTopology {
    let mut b = TopologyBuilder::new();
    let a = b.host("A");
    let bb = b.relay("B");
    let c = b.host("C");
    let d = b.host("D");
    let l1 = b.link("l1", a, bb).unwrap();
    let l2 = b.link("l2", bb, c).unwrap();
    let l3 = b.link("l3", bb, d).unwrap();
    let p1 = b.path("p1", vec![l1, l2]).unwrap();
    let p2 = b.path("p2", vec![l1, l3]).unwrap();
    PaperTopology {
        topology: b.build(),
        classes: vec![vec![p1], vec![p2]],
        nonneutral_links: vec![l1],
    }
}

/// Figure 4: observable violation with two non-neutral links; `⟨l1⟩` and
/// `⟨l1,l2⟩` are identifiable, `⟨l2⟩` is not (no path pair shares only `l2`).
///
/// Paths: `p1 = ⟨l1,l2,l3⟩`, `p2 = ⟨l1,l2,l4⟩`, `p3 = ⟨l1,l2,l5⟩`,
/// `p4 = ⟨l1,l6⟩`; classes `{{p1},{p2,p3,p4}}` with `{p1}` top-priority.
pub fn figure4() -> PaperTopology {
    let mut b = TopologyBuilder::new();
    let a = b.host("A");
    let r1 = b.relay("B");
    let r2 = b.relay("C");
    let d = b.host("D");
    let e = b.host("E");
    let f = b.host("F");
    let g = b.host("G");
    let l1 = b.link("l1", a, r1).unwrap();
    let l2 = b.link("l2", r1, r2).unwrap();
    let l3 = b.link("l3", r2, d).unwrap();
    let l4 = b.link("l4", r2, e).unwrap();
    let l5 = b.link("l5", r2, f).unwrap();
    let l6 = b.link("l6", r1, g).unwrap();
    let p1 = b.path("p1", vec![l1, l2, l3]).unwrap();
    let p2 = b.path("p2", vec![l1, l2, l4]).unwrap();
    let p3 = b.path("p3", vec![l1, l2, l5]).unwrap();
    let p4 = b.path("p4", vec![l1, l6]).unwrap();
    PaperTopology {
        topology: b.build(),
        classes: vec![vec![p1], vec![p2, p3, p4]],
        nonneutral_links: vec![l1, l2],
    }
}

/// Figure 5: observable violation on a star. `l1` congests class-2 traffic
/// with probability 0.5 while class 1 rides free.
///
/// Paths: `p1 = ⟨l1,l2⟩`, `p2 = ⟨l1,l3⟩`, `p3 = ⟨l1,l4⟩`;
/// classes `{{p1},{p2,p3}}`.
pub fn figure5() -> PaperTopology {
    let mut b = TopologyBuilder::new();
    let a = b.host("A");
    let r = b.relay("B");
    let c = b.host("C");
    let d = b.host("D");
    let e = b.host("E");
    let l1 = b.link("l1", a, r).unwrap();
    let l2 = b.link("l2", r, c).unwrap();
    let l3 = b.link("l3", r, d).unwrap();
    let l4 = b.link("l4", r, e).unwrap();
    let p1 = b.path("p1", vec![l1, l2]).unwrap();
    let p2 = b.path("p2", vec![l1, l3]).unwrap();
    let p3 = b.path("p3", vec![l1, l4]).unwrap();
    PaperTopology {
        topology: b.build(),
        classes: vec![vec![p1], vec![p2, p3]],
        nonneutral_links: vec![l1],
    }
}

/// Capacity of the paper's bottleneck links: 100 Mb/s (Table 1).
pub const BOTTLENECK_BPS: f64 = 100e6;

/// Capacity of non-bottleneck (access / egress) links: 1 Gb/s.
pub const ACCESS_BPS: f64 = 1e9;

/// Figure 7 — experiment **topology A**: four sources, four sinks, one shared
/// link `l5` that (in some experiments) differentiates.
///
/// Paths `p_i = ⟨l_i, l5, l_{5+i}⟩`, classes `c1 = {p1, p2}` (paths 0, 1) and
/// `c2 = {p3, p4}` (paths 2, 3).
///
/// `rtt_c1` / `rtt_c2` set the propagation round-trip time of each class's
/// paths (Table 2, experiment sets 2, 5, 8 vary class RTT).
pub fn topology_a(rtt_c1: f64, rtt_c2: f64) -> PaperTopology {
    let mut b = TopologyBuilder::new();
    let sources: Vec<_> = (1..=4).map(|i| b.host(format!("S{i}"))).collect();
    let sinks: Vec<_> = (1..=4).map(|i| b.host(format!("D{i}"))).collect();
    let sw1 = b.relay("SW1");
    let sw2 = b.relay("SW2");

    // One-way budget: access + shared + egress = RTT / 2.
    let shared_delay = 0.005;
    let access_delay = |rtt: f64| (rtt / 2.0 - shared_delay) / 2.0;

    let mut ingress = Vec::new();
    let mut egress = Vec::new();
    for (i, &src) in sources.iter().enumerate() {
        let rtt = if i < 2 { rtt_c1 } else { rtt_c2 };
        let d = access_delay(rtt).max(0.0005);
        ingress.push(
            b.link_with(format!("l{}", i + 1), src, sw1, ACCESS_BPS, d)
                .unwrap(),
        );
        egress.push((i, d));
    }
    let l5 = b
        .link_with("l5", sw1, sw2, BOTTLENECK_BPS, shared_delay)
        .unwrap();
    let mut paths = Vec::new();
    let mut egress_links = Vec::new();
    for (i, d) in egress {
        let le = b
            .link_with(format!("l{}", i + 6), sw2, sinks[i], ACCESS_BPS, d)
            .unwrap();
        egress_links.push(le);
    }
    for i in 0..4 {
        let p = b
            .path(format!("p{}", i + 1), vec![ingress[i], l5, egress_links[i]])
            .unwrap();
        paths.push(p);
    }
    PaperTopology {
        topology: b.build(),
        classes: vec![vec![paths[0], paths[1]], vec![paths[2], paths[3]]],
        nonneutral_links: vec![l5],
    }
}

/// Figure 9 — experiment **topology B** (see module docs for the
/// substitution rationale). 24 router-level links; policers on `l5`
/// (backbone), `l14` and `l20` (tier-2 ingress); `l13` is neutral but driven
/// near capacity by background traffic (Figure 11's comparison pair).
///
/// Returns 15 measured paths: class `c1` = short-flow paths, class `c2` =
/// long-flow (policed) paths.
pub fn topology_b() -> PaperTopology {
    let mut b = TopologyBuilder::new();
    // Sources.
    let f1 = b.host("F1");
    let f2 = b.host("F2");
    let f3 = b.host("F3");
    let f4 = b.host("F4");
    let s5 = b.host("S5");
    // Sinks.
    let d1 = b.host("D1");
    let d2 = b.host("D2");
    let d3 = b.host("D3");
    let d4 = b.host("D4");
    let d5 = b.host("D5");
    // Tier-2 aggregation relays.
    let a0 = b.relay("A0");
    let a1 = b.relay("A1");
    let a2 = b.relay("A2");
    let a3 = b.relay("A3");
    // Tier-1 backbone.
    let b0 = b.relay("B0");
    let b1 = b.relay("B1");
    let b2 = b.relay("B2");
    let b3 = b.relay("B3");
    let b4 = b.relay("B4");
    let b5 = b.relay("B5");
    // Egress relays.
    let c1 = b.relay("C1");
    let c2 = b.relay("C2");
    let c3 = b.relay("C3");
    let c4 = b.relay("C4");
    let c5 = b.relay("C5");

    let bb = BOTTLENECK_BPS;
    let ramp = 2.0 * BOTTLENECK_BPS;
    let d = 0.005;

    // Numbered exactly as referenced by the experiment binaries.
    let l1 = b.link_with("l1", a0, b0, ramp, d).unwrap();
    let l2 = b.link_with("l2", b0, b1, bb, d).unwrap();
    let l3 = b.link_with("l3", b1, b2, bb, d).unwrap();
    let l4 = b.link_with("l4", b2, b3, bb, d).unwrap();
    let l5 = b.link_with("l5", b3, b4, bb, d).unwrap(); // policer
    let l6 = b.link_with("l6", b4, b5, bb, d).unwrap();
    let l7 = b.link_with("l7", a1, b1, ramp, d).unwrap();
    let l8 = b.link_with("l8", a2, b2, ramp, d).unwrap();
    let l9 = b.link_with("l9", a3, b3, ramp, d).unwrap();
    let l10 = b.link_with("l10", b1, c1, ramp, d).unwrap();
    let l11 = b.link_with("l11", b2, c2, ramp, d).unwrap();
    let l12 = b.link_with("l12", b3, c3, ramp, d).unwrap();
    let l13 = b.link_with("l13", b4, c4, bb, d).unwrap(); // neutral, near capacity
    let l14 = b.link_with("l14", f1, a1, bb, d).unwrap(); // policer
    let l15 = b.link_with("l15", b5, c5, ramp, d).unwrap();
    let l16 = b.link_with("l16", c5, d1, ramp, d).unwrap();
    let l17 = b.link_with("l17", c4, d2, ramp, d).unwrap();
    let l18 = b.link_with("l18", f2, a3, bb, d).unwrap();
    let l19 = b.link_with("l19", c2, d3, ramp, d).unwrap();
    let l20 = b.link_with("l20", f3, a0, bb, d).unwrap(); // policer
    let l21 = b.link_with("l21", s5, b4, ramp, d).unwrap();
    let l22 = b.link_with("l22", c1, d4, ramp, d).unwrap();
    let l23 = b.link_with("l23", f4, a2, bb, d).unwrap();
    let l24 = b.link_with("l24", c3, d5, ramp, d).unwrap();

    // Measured paths. Comments give the class (c1 = short flows,
    // c2 = long/policed flows).
    let p0 = b
        .path("p0", vec![l20, l1, l2, l3, l4, l5, l6, l15, l16])
        .unwrap(); // c1
    let p1 = b.path("p1", vec![l20, l1, l2, l10, l22]).unwrap(); // c2
    let p2 = b.path("p2", vec![l14, l7, l3, l11, l19]).unwrap(); // c2
    let p3 = b.path("p3", vec![l14, l7, l3, l4, l12, l24]).unwrap(); // c1
    let p4 = b.path("p4", vec![l23, l8, l4, l5, l13, l17]).unwrap(); // c2
    let p5 = b.path("p5", vec![l23, l8, l11, l19]).unwrap(); // c1
    let p6 = b.path("p6", vec![l18, l9, l5, l6, l15, l16]).unwrap(); // c2
    let p7 = b.path("p7", vec![l18, l9, l12, l24]).unwrap(); // c1
    let p8 = b.path("p8", vec![l21, l6, l15, l16]).unwrap(); // c1
    let p9 = b.path("p9", vec![l21, l13, l17]).unwrap(); // c2
    let p10 = b.path("p10", vec![l20, l1, l2, l3, l11, l19]).unwrap(); // c1
    let p11 = b
        .path("p11", vec![l14, l7, l3, l4, l5, l6, l15, l16])
        .unwrap(); // c2
    let p12 = b.path("p12", vec![l23, l8, l4, l12, l24]).unwrap(); // c1
    let p13 = b.path("p13", vec![l18, l9, l5, l13, l17]).unwrap(); // c2
    let p14 = b.path("p14", vec![l20, l1, l2, l3, l4, l12, l24]).unwrap(); // c2

    PaperTopology {
        topology: b.build(),
        classes: vec![
            vec![p0, p3, p5, p7, p8, p10, p12],
            vec![p1, p2, p4, p6, p9, p11, p13, p14],
        ],
        nonneutral_links: vec![l5, l14, l20],
    }
}

/// Parametric dumbbell: `n1` class-1 and `n2` class-2 source/sink pairs
/// sharing one bottleneck. Used by property tests and scaling benches.
pub fn dumbbell(n1: usize, n2: usize) -> PaperTopology {
    assert!(n1 + n2 >= 1, "dumbbell needs at least one path");
    let n = n1 + n2;
    let mut b = TopologyBuilder::new();
    let sw1 = b.relay("SW1");
    let sw2 = b.relay("SW2");
    let shared = b
        .link_with("shared", sw1, sw2, BOTTLENECK_BPS, 0.005)
        .unwrap();
    let mut paths = Vec::new();
    for i in 0..n {
        let s = b.host(format!("S{i}"));
        let t = b.host(format!("D{i}"));
        let li = b
            .link_with(format!("in{i}"), s, sw1, ACCESS_BPS, 0.01)
            .unwrap();
        let le = b
            .link_with(format!("out{i}"), sw2, t, ACCESS_BPS, 0.01)
            .unwrap();
        paths.push(b.path(format!("p{i}"), vec![li, shared, le]).unwrap());
    }
    PaperTopology {
        topology: b.build(),
        classes: vec![paths[..n1].to_vec(), paths[n1..].to_vec()],
        nonneutral_links: vec![shared],
    }
}

/// Parametric "parking lot": a backbone of `segments` links with one
/// on-ramp/off-ramp path per segment plus one end-to-end path; produces a
/// linearly growing population of link sequences for the scaling benches.
pub fn parking_lot(segments: usize) -> PaperTopology {
    assert!(segments >= 2, "parking lot needs at least two segments");
    let mut b = TopologyBuilder::new();
    let relays: Vec<_> = (0..=segments).map(|i| b.relay(format!("B{i}"))).collect();
    let backbone: Vec<_> = (0..segments)
        .map(|i| {
            b.link_with(
                format!("b{i}"),
                relays[i],
                relays[i + 1],
                BOTTLENECK_BPS,
                0.005,
            )
            .unwrap()
        })
        .collect();
    let mut paths = Vec::new();
    // End-to-end path.
    let s = b.host("S");
    let t = b.host("T");
    let sin = b.link_with("in", s, relays[0], ACCESS_BPS, 0.005).unwrap();
    let sout = b
        .link_with("out", relays[segments], t, ACCESS_BPS, 0.005)
        .unwrap();
    let mut full = vec![sin];
    full.extend(backbone.iter().copied());
    full.push(sout);
    paths.push(b.path("pfull", full).unwrap());
    // One two-segment path per interior relay.
    for i in 0..segments.saturating_sub(1) {
        let hs = b.host(format!("S{i}"));
        let ht = b.host(format!("T{i}"));
        let lin = b
            .link_with(format!("ramp_in{i}"), hs, relays[i], ACCESS_BPS, 0.005)
            .unwrap();
        let lout = b
            .link_with(format!("ramp_out{i}"), relays[i + 2], ht, ACCESS_BPS, 0.005)
            .unwrap();
        paths.push(
            b.path(
                format!("p{i}"),
                vec![lin, backbone[i], backbone[i + 1], lout],
            )
            .unwrap(),
        );
    }
    let first = backbone[0];
    let n = paths.len();
    PaperTopology {
        topology: b.build(),
        classes: vec![paths[..1].to_vec(), paths[1..n].to_vec()],
        nonneutral_links: vec![first],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_matches_routing_matrix() {
        let t = figure1();
        let g = &t.topology;
        assert_eq!(g.link_count(), 4);
        assert_eq!(g.path_count(), 3);
        // Figure 1(b) routing matrix rows for singleton pathsets.
        let l1 = g.link_by_name("l1").unwrap();
        let l3 = g.link_by_name("l3").unwrap();
        assert_eq!(g.paths_through(l1).len(), 2); // p1, p2
        assert_eq!(g.paths_through(l3).len(), 2); // p2, p3
    }

    #[test]
    fn figure2_l1_indistinguishable_structure() {
        let t = figure2();
        let g = &t.topology;
        let l1 = g.link_by_name("l1").unwrap();
        // l1 is traversed by both paths; l2/l3 by one each.
        assert_eq!(g.paths_through(l1).len(), 2);
    }

    #[test]
    fn figure4_link_sharing() {
        let t = figure4();
        let g = &t.topology;
        let l1 = g.link_by_name("l1").unwrap();
        let l2 = g.link_by_name("l2").unwrap();
        assert_eq!(g.paths_through(l1).len(), 4);
        assert_eq!(g.paths_through(l2).len(), 3);
        // No path pair shares exactly {l2}: every pair sharing l2 also shares l1.
        let paths = g.paths();
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                let shared = paths[i].shared_links(&paths[j]);
                if shared.contains(l2) {
                    assert!(shared.contains(l1), "l2 always comes with l1");
                }
            }
        }
    }

    #[test]
    fn figure5_is_star_through_l1() {
        let t = figure5();
        let g = &t.topology;
        let l1 = g.link_by_name("l1").unwrap();
        assert_eq!(g.paths_through(l1).len(), 3);
        assert_eq!(t.classes[0].len(), 1);
        assert_eq!(t.classes[1].len(), 2);
    }

    #[test]
    fn topology_a_structure() {
        let t = topology_a(0.05, 0.05);
        let g = &t.topology;
        assert_eq!(g.link_count(), 9);
        assert_eq!(g.path_count(), 4);
        let l5 = g.link_by_name("l5").unwrap();
        assert_eq!(g.paths_through(l5).len(), 4);
        assert_eq!(g.link(l5).capacity_bps, BOTTLENECK_BPS);
        // Every path has exactly three links and crosses l5.
        for p in g.paths() {
            assert_eq!(p.len(), 3);
            assert!(p.traverses(l5));
        }
    }

    #[test]
    fn topology_a_rtt_budget() {
        let t = topology_a(0.05, 0.2);
        let g = &t.topology;
        // Propagation RTT of a path = 2 * sum of one-way delays.
        for (i, p) in g.paths().iter().enumerate() {
            let one_way: f64 = p.links().iter().map(|&l| g.link(l).delay_s).sum();
            let want = if i < 2 { 0.05 } else { 0.2 };
            assert!(
                (2.0 * one_way - want).abs() < 1e-9,
                "path {i} RTT {} != {want}",
                2.0 * one_way
            );
        }
    }

    #[test]
    fn topology_b_structure() {
        let t = topology_b();
        let g = &t.topology;
        assert_eq!(g.link_count(), 24);
        assert_eq!(g.path_count(), 15);
        assert_eq!(t.classes[0].len() + t.classes[1].len(), 15);
        // The three policers are where the paper puts them.
        let names: Vec<String> = t
            .nonneutral_links
            .iter()
            .map(|&l| g.link(l).name.clone())
            .collect();
        assert_eq!(names, vec!["l5", "l14", "l20"]);
    }

    #[test]
    fn topology_b_paths_are_valid_and_classified() {
        let t = topology_b();
        for p in t.topology.path_ids() {
            // class_of panics if some path is unclassified.
            let _ = t.class_of(p);
        }
    }

    #[test]
    fn topology_b_policers_have_mixed_and_pure_pairs() {
        // Each policer must participate in a link sequence with >= 2 path
        // pairs, at least one pair entirely inside class 2 and one not
        // (Lemma 3's hypothesis) — otherwise the evaluation could not
        // possibly reach FN = 0.
        let t = topology_b();
        let g = &t.topology;
        let c2 = &t.classes[1];
        for &pol in &t.nonneutral_links {
            let mut pure = 0;
            let mut mixed = 0;
            let paths = g.paths();
            for i in 0..paths.len() {
                for j in i + 1..paths.len() {
                    let shared = paths[i].shared_links(&paths[j]);
                    if !shared.contains(pol) {
                        continue;
                    }
                    let pi_c2 = c2.contains(&paths[i].id());
                    let pj_c2 = c2.contains(&paths[j].id());
                    if pi_c2 && pj_c2 {
                        pure += 1;
                    } else {
                        mixed += 1;
                    }
                }
            }
            assert!(pure >= 1, "policer {pol} lacks a pure class-2 pair");
            assert!(mixed >= 1, "policer {pol} lacks a mixed pair");
        }
    }

    #[test]
    fn named_link_lookup() {
        let t = topology_b();
        assert_eq!(t.topology.link(t.link_named("l13")).name, "l13");
        let ids = t.links_named(&["l5", "l14", "l20"]);
        assert_eq!(ids, t.nonneutral_links);
    }

    #[test]
    #[should_panic(expected = "no link named")]
    fn named_link_lookup_panics_on_unknown() {
        let t = figure1();
        t.link_named("l99");
    }

    #[test]
    fn dumbbell_generalises() {
        let t = dumbbell(3, 2);
        assert_eq!(t.topology.path_count(), 5);
        assert_eq!(t.classes[0].len(), 3);
        assert_eq!(t.classes[1].len(), 2);
        let shared = t.nonneutral_links[0];
        assert_eq!(t.topology.paths_through(shared).len(), 5);
    }

    #[test]
    fn parking_lot_scales() {
        for segs in 2..6 {
            let t = parking_lot(segs);
            assert_eq!(t.topology.path_count(), segs); // 1 full + (segs-1) ramps
        }
    }
}
