//! The equivalent neutral network `G⁺` (§3.2).
//!
//! From the end-hosts' point of view, any non-neutral network is equivalent
//! to a neutral one with more links: each non-neutral link `l` with top
//! class `c_{n*}` becomes
//!
//! * a **common-queue** virtual link `l⁺(n*)` with performance `x(n*)`,
//!   traversed by `Paths(l)` — bad performance inflicted on the top class is
//!   necessarily inflicted on everyone (assumption #3, §2.2); and
//! * one **regulation** virtual link `l⁺(n)` per lower-priority class `n`,
//!   with performance `x(n) − x(n*)`, traversed by `Paths(l) ∩ c_n` — the
//!   *extra* bad performance inflicted on class `n`.
//!
//! Neutral links map to themselves. `G⁺` doubles as the exact-mode
//! **observation oracle**: the ground-truth performance number of any pathset
//! is `y_Θ = A⁺(Θ) · x⁺`, because the virtual links are independent neutral
//! links by construction.

use crate::class::Classes;
use crate::perf::NetworkPerf;
use nni_linalg::Matrix;
use nni_topology::{LinkId, PathId, PathSet, Topology};

/// Role of a virtual link in the equivalent neutral network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtualRole {
    /// Image of a neutral link (identity mapping).
    Neutral,
    /// `l⁺(n*)`: the common queue of a non-neutral link.
    CommonQueue,
    /// `l⁺(n)`, `n ≠ n*`: regulation of lower-priority class `n`.
    Regulation {
        /// The regulated class.
        class: usize,
    },
}

/// One link of `G⁺`.
#[derive(Debug, Clone)]
pub struct VirtualLink {
    /// The original link this virtual link derives from.
    pub origin: LinkId,
    /// Role in the construction.
    pub role: VirtualRole,
    /// Performance number `x⁺` of this (neutral) virtual link.
    pub perf: f64,
    /// `Paths(l⁺)`: sorted paths traversing this virtual link.
    pub paths: Vec<PathId>,
}

/// The equivalent neutral network `G⁺ = (V⁺, L⁺, P)`.
#[derive(Debug, Clone)]
pub struct EquivalentNetwork {
    links: Vec<VirtualLink>,
}

impl EquivalentNetwork {
    /// Builds `G⁺` from the original network's ground truth.
    ///
    /// # Panics
    /// Panics if `classes` and `perf` disagree on `|C|`.
    pub fn build(topology: &Topology, classes: &Classes, perf: &NetworkPerf) -> EquivalentNetwork {
        assert_eq!(
            classes.count(),
            perf.class_count(),
            "classes and perf must agree on |C|"
        );
        let mut links = Vec::new();
        for l in topology.link_ids() {
            let lp = perf.link(l);
            let paths: Vec<PathId> = topology.paths_through(l).to_vec();
            if lp.is_neutral() {
                links.push(VirtualLink {
                    origin: l,
                    role: VirtualRole::Neutral,
                    perf: lp.for_class(0),
                    paths,
                });
                continue;
            }
            let n_star = lp.top_class();
            links.push(VirtualLink {
                origin: l,
                role: VirtualRole::CommonQueue,
                perf: lp.for_class(n_star),
                paths: paths.clone(),
            });
            for n in 0..classes.count() {
                if n == n_star {
                    continue;
                }
                let members = classes.members(n);
                let regulated: Vec<PathId> = paths
                    .iter()
                    .copied()
                    .filter(|p| members.contains(p))
                    .collect();
                links.push(VirtualLink {
                    origin: l,
                    role: VirtualRole::Regulation { class: n },
                    perf: lp.for_class(n) - lp.for_class(n_star),
                    paths: regulated,
                });
            }
        }
        EquivalentNetwork { links }
    }

    /// The virtual links `L⁺`.
    pub fn links(&self) -> &[VirtualLink] {
        &self.links
    }

    /// The ground-truth performance vector `x⁺`.
    pub fn perf_vector(&self) -> Vec<f64> {
        self.links.iter().map(|v| v.perf).collect()
    }

    /// Generalized routing matrix `A⁺(Θ)` over the virtual links.
    pub fn routing_matrix(&self, pathsets: &[PathSet]) -> Matrix {
        let mut a = Matrix::zeros(pathsets.len(), self.links.len());
        for (i, theta) in pathsets.iter().enumerate() {
            for (k, v) in self.links.iter().enumerate() {
                if theta.paths().iter().any(|p| v.paths.contains(p)) {
                    a[(i, k)] = 1.0;
                }
            }
        }
        a
    }

    /// Exact-mode oracle: the ground-truth performance number of the
    /// pathset with members `theta`, `y_Θ = A⁺({Θ}) · x⁺`.
    pub fn pathset_perf(&self, theta: impl AsRef<[PathId]>) -> f64 {
        let theta = theta.as_ref();
        self.links
            .iter()
            .filter(|v| theta.iter().any(|p| v.paths.contains(p)))
            .map(|v| v.perf)
            .sum()
    }

    /// Virtual links that are *regulation* links with a non-zero performance
    /// delta — the candidates for Theorem 1's witness.
    pub fn active_regulations(&self) -> impl Iterator<Item = &VirtualLink> {
        self.links
            .iter()
            .filter(|v| matches!(v.role, VirtualRole::Regulation { .. }) && v.perf > 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::LinkPerf;
    use nni_topology::library::{figure1, figure2, figure5};
    use nni_topology::power_set;

    /// Ground truth for Figure 5: `x1(1) = 0`, `x1(2) = -ln 0.5`, rest 0.
    fn figure5_truth() -> (nni_topology::PaperTopology, Classes, NetworkPerf) {
        let t = figure5();
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2).with_link(
            t.topology.link_by_name("l1").unwrap(),
            LinkPerf::per_class(vec![0.0, (2.0_f64).ln()]),
        );
        (t, classes, perf)
    }

    #[test]
    fn neutral_network_maps_to_itself() {
        let t = figure1();
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let perf = NetworkPerf::neutral(&[0.1, 0.2, 0.3, 0.4], 2);
        let eq = EquivalentNetwork::build(&t.topology, &classes, &perf);
        assert_eq!(eq.links().len(), 4);
        for (k, v) in eq.links().iter().enumerate() {
            assert_eq!(v.role, VirtualRole::Neutral);
            assert_eq!(v.origin, LinkId(k));
            assert_eq!(v.paths, t.topology.paths_through(LinkId(k)));
        }
    }

    #[test]
    fn figure3_structure_of_figure1_equivalent() {
        // §3.2: the neutral equivalent of Figure 1 maps l1 to l1+(1), l1+(2);
        // the rest map to themselves — 5 virtual links total.
        let t = figure1();
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(l1, LinkPerf::per_class(vec![0.1, 0.5]));
        let eq = EquivalentNetwork::build(&t.topology, &classes, &perf);
        assert_eq!(eq.links().len(), 5);
        let common = &eq.links()[0];
        assert_eq!(common.role, VirtualRole::CommonQueue);
        assert!((common.perf - 0.1).abs() < 1e-12);
        assert_eq!(common.paths.len(), 2); // p1, p2 traverse l1
        let reg = &eq.links()[1];
        assert_eq!(reg.role, VirtualRole::Regulation { class: 1 });
        assert!((reg.perf - 0.4).abs() < 1e-12);
        // l1's regulation of class 2 = {p2}: only p2 traverses it.
        assert_eq!(reg.paths, vec![PathId(1)]);
    }

    #[test]
    fn figure2d_routing_matrix() {
        // The paper gives A+ for Figure 2 verbatim (Figure 2(d)).
        let t = figure2();
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2)
            .with_link(l1, LinkPerf::per_class(vec![0.0, 0.3]));
        let eq = EquivalentNetwork::build(&t.topology, &classes, &perf);
        // Virtual order: l1+(1), l1+(2), l2+, l3+.
        let pathsets = vec![PathSet::single(PathId(0)), PathSet::single(PathId(1))];
        let a = eq.routing_matrix(&pathsets);
        let expected = [
            [1.0, 0.0, 1.0, 0.0], // {p1}
            [1.0, 1.0, 0.0, 1.0], // {p2}
        ];
        for i in 0..2 {
            for k in 0..4 {
                assert_eq!(a[(i, k)], expected[i][k], "A+[{i}][{k}]");
            }
        }
    }

    #[test]
    fn figure5_oracle_reproduces_section_3_3() {
        // §3.3 observable violation #2: y{p1} = 0; y{p2} = y{p3} = y{p2,p3}
        // = -ln 0.5.
        let (t, classes, perf) = figure5_truth();
        let eq = EquivalentNetwork::build(&t.topology, &classes, &perf);
        let ln2 = (2.0_f64).ln();
        let y1 = eq.pathset_perf(PathSet::single(PathId(0)));
        let y2 = eq.pathset_perf(PathSet::single(PathId(1)));
        let y3 = eq.pathset_perf(PathSet::single(PathId(2)));
        let y23 = eq.pathset_perf(PathSet::pair(PathId(1), PathId(2)));
        assert!(y1.abs() < 1e-12);
        assert!((y2 - ln2).abs() < 1e-12);
        assert!((y3 - ln2).abs() < 1e-12);
        assert!((y23 - ln2).abs() < 1e-12, "p2 and p3 congest *together*");
    }

    #[test]
    fn oracle_matches_routing_matrix_product() {
        let (t, classes, perf) = figure5_truth();
        let eq = EquivalentNetwork::build(&t.topology, &classes, &perf);
        let pathsets = power_set(t.topology.path_count());
        let a = eq.routing_matrix(&pathsets);
        let y = a.matvec(&eq.perf_vector());
        for (i, theta) in pathsets.iter().enumerate() {
            assert!((eq.pathset_perf(theta) - y[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn active_regulations_skip_zero_deltas() {
        // A "non-neutral" link whose class-2 delta is zero in one class and
        // positive in another (3 classes).
        let t = figure5();
        let members = vec![vec![PathId(0)], vec![PathId(1)], vec![PathId(2)]];
        let classes = Classes::new(&t.topology, members).unwrap();
        let l1 = t.topology.link_by_name("l1").unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 3)
            .with_link(l1, LinkPerf::per_class(vec![0.0, 0.0, 0.4]));
        let eq = EquivalentNetwork::build(&t.topology, &classes, &perf);
        let active: Vec<_> = eq.active_regulations().collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].role, VirtualRole::Regulation { class: 2 });
    }
}
