//! The observation interface between the inference algorithm and its data
//! sources.
//!
//! Algorithm 1 consumes performance numbers `y_Θ` of pathsets. Two sources
//! exist:
//!
//! * the **exact oracle** ([`ExactOracle`]) — ground-truth numbers computed
//!   analytically from the equivalent neutral network (used by the theory
//!   tests and the exact-mode algorithm);
//! * **measurements** — `nni-measure` implements this trait on top of
//!   per-interval packet counts via Algorithm 2, which is why the trait
//!   carries the *normalization group* (the paths of `Paths(τ)` whose packet
//!   counts must be equalised, §6.2).

use crate::equivalent::EquivalentNetwork;
use nni_topology::PathId;

/// Source of pathset performance numbers.
///
/// A pathset is passed as its member list: anything that is
/// `AsRef<[PathId]>`, so a [`PathSet`](nni_topology::PathSet) and the
/// borrowed lists of [`Slice::theta`](crate::Slice::theta) are queried
/// alike, and a slice's `Θ_τ` is observed without building a `PathSet`.
pub trait Observations {
    /// The performance number `y_Θ` of the pathset with members `pathset`,
    /// measured in the context of a slice whose normalization group
    /// (`Paths(τ)`) is `group`.
    ///
    /// Exact sources ignore `group`; measured sources use it to equalise
    /// per-interval packet counts before thresholding (Algorithm 2).
    fn pathset_perf(&self, group: &[PathId], pathset: impl AsRef<[PathId]>) -> f64;

    /// Observation vector for a whole slice: one `y` per pathset, aligned
    /// with the pathset order.
    fn observe_all(
        &self,
        group: &[PathId],
        pathsets: impl IntoIterator<Item = impl AsRef<[PathId]>>,
    ) -> Vec<f64> {
        pathsets
            .into_iter()
            .map(|t| self.pathset_perf(group, t))
            .collect()
    }
}

/// Exact ground-truth oracle backed by the equivalent neutral network.
#[derive(Debug, Clone)]
pub struct ExactOracle {
    eq: EquivalentNetwork,
}

impl ExactOracle {
    /// Wraps an equivalent network as an observation source.
    pub fn new(eq: EquivalentNetwork) -> ExactOracle {
        ExactOracle { eq }
    }

    /// Access to the underlying equivalent network.
    pub fn equivalent(&self) -> &EquivalentNetwork {
        &self.eq
    }
}

impl Observations for ExactOracle {
    fn pathset_perf(&self, _group: &[PathId], pathset: impl AsRef<[PathId]>) -> f64 {
        self.eq.pathset_perf(pathset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Classes;
    use crate::perf::{LinkPerf, NetworkPerf};
    use nni_topology::library::figure5;
    use nni_topology::PathSet;

    #[test]
    fn exact_oracle_delegates_to_equivalent_network() {
        let t = figure5();
        let classes = Classes::new(&t.topology, t.classes.clone()).unwrap();
        let perf = NetworkPerf::congestion_free(&t.topology, 2).with_link(
            t.topology.link_by_name("l1").unwrap(),
            LinkPerf::per_class(vec![0.0, 0.7]),
        );
        let eq = EquivalentNetwork::build(&t.topology, &classes, &perf);
        let oracle = ExactOracle::new(eq);
        let y = oracle.pathset_perf(&[], PathSet::single(PathId(1)));
        assert!((y - 0.7).abs() < 1e-12);
        let ys = oracle.observe_all(
            &[],
            &[PathSet::single(PathId(0)), PathSet::single(PathId(1))],
        );
        assert_eq!(ys.len(), 2);
        assert!(ys[0].abs() < 1e-12);
    }
}
