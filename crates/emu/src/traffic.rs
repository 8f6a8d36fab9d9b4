//! Dynamic traffic generation (§6.1).
//!
//! "Each pair of communicating end-hosts starts a number of parallel TCP
//! flows with the transfer size following a Pareto distribution; when a TCP
//! flow ends, a new one starts after an idle time that is governed by an
//! exponential distribution."

use crate::packet::ClassLabel;
use crate::tcp::CcKind;
use nni_stats::{Exponential, Pareto};
use rand::Rng;

/// Flow-size distribution.
#[derive(Debug, Clone, Copy)]
pub enum SizeDist {
    /// Pareto with the given mean (bytes) and shape (Table 1 flow sizes are
    /// specified by their mean; shape defaults to 1.5 in the scenarios).
    ParetoMean {
        /// Mean transfer size in bytes.
        mean_bytes: f64,
        /// Pareto shape parameter (> 1).
        shape: f64,
    },
    /// Deterministic size (used for the 10 Gb persistent flows of Table 3).
    Fixed {
        /// Transfer size in bytes.
        bytes: u64,
    },
}

impl SizeDist {
    /// Samples a flow size in bytes (at least one MSS).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, mss: u32) -> u64 {
        let raw = match self {
            SizeDist::ParetoMean { mean_bytes, shape } => {
                Pareto::with_mean(*shape, *mean_bytes).sample(rng)
            }
            SizeDist::Fixed { bytes } => *bytes as f64,
        };
        (raw.round() as u64).max(mss as u64)
    }
}

/// Congestion-control assignment across a source's parallel flow slots.
///
/// A *fleet* assigns each slot its own algorithm, so one source can model
/// heterogeneous end-hosts (e.g. three CUBIC downloads contending with one
/// NewReno upload on the same route). Slot `i` of a [`TrafficProfile`] runs
/// [`CcFleet::kind_for`]`(i)`; a [`Uniform`](CcFleet::Uniform) fleet
/// reproduces the historical single-`CcKind` behaviour exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcFleet {
    /// Every slot runs the same algorithm.
    Uniform(CcKind),
    /// Slot `i` runs `kinds[i % kinds.len()]` — the list cycles when a profile
    /// has more parallel slots than fleet entries.
    Mixed(Vec<CcKind>),
}

impl CcFleet {
    /// A fleet from `(algorithm, count)` groups, e.g.
    /// `CcFleet::fleet(&[(CcKind::Cubic, 3), (CcKind::NewReno, 1)])` —
    /// three CUBIC slots followed by one NewReno slot.
    pub fn fleet(groups: &[(CcKind, usize)]) -> CcFleet {
        let kinds: Vec<CcKind> = groups
            .iter()
            .flat_map(|&(cc, n)| std::iter::repeat_n(cc, n))
            .collect();
        match kinds.as_slice() {
            [only] => CcFleet::Uniform(*only),
            _ => CcFleet::Mixed(kinds),
        }
    }

    /// The algorithm slot `i` runs.
    ///
    /// # Panics
    /// Panics on an empty [`Mixed`](CcFleet::Mixed) fleet — scenario
    /// validation rejects those before they reach the simulator.
    pub fn kind_for(&self, slot: usize) -> CcKind {
        match self {
            CcFleet::Uniform(cc) => *cc,
            CcFleet::Mixed(kinds) => {
                assert!(!kinds.is_empty(), "empty congestion-control fleet");
                kinds[slot % kinds.len()]
            }
        }
    }

    /// Whether the fleet assigns no algorithm at all (`Mixed(vec![])`) —
    /// the invalid state scenario validation reports as a typed error.
    pub fn is_empty(&self) -> bool {
        matches!(self, CcFleet::Mixed(kinds) if kinds.is_empty())
    }

    /// Whether more than one distinct algorithm appears.
    pub fn is_mixed(&self) -> bool {
        match self {
            CcFleet::Uniform(_) => false,
            CcFleet::Mixed(kinds) => kinds.windows(2).any(|w| w[0] != w[1]),
        }
    }
}

impl From<CcKind> for CcFleet {
    fn from(cc: CcKind) -> CcFleet {
        CcFleet::Uniform(cc)
    }
}

/// One traffic source: `parallel` endless flow slots with a size
/// distribution and an exponential idle gap, stamped with a class label.
/// The simulator places it on a route ([`Simulator::add_traffic`]); a
/// scenario places it on a path or a background route.
///
/// The label is what differentiation mechanisms match on; it usually — but
/// not necessarily — mirrors the path's performance class (background hosts
/// may emit several labels on the same route).
///
/// Slot `k` runs `cc.kind_for(k)`, so one profile can model a heterogeneous
/// *fleet* of end-hosts:
///
/// ```
/// use nni_emu::{CcFleet, CcKind, TrafficProfile};
///
/// // Three CUBIC downloads contending with one NewReno upload.
/// let profile = TrafficProfile::pareto_bits(1, CcKind::Cubic, 10e6, 10.0, 4)
///     .with_fleet(CcFleet::fleet(&[(CcKind::Cubic, 3), (CcKind::NewReno, 1)]));
/// assert!(profile.cc.is_mixed());
/// ```
///
/// [`Simulator::add_traffic`]: crate::Simulator::add_traffic
#[derive(Debug, Clone)]
pub struct TrafficProfile {
    /// Class label stamped on every packet.
    pub class: ClassLabel,
    /// Congestion-control assignment across the parallel slots (a plain
    /// [`CcKind`] converts into a uniform fleet).
    pub cc: CcFleet,
    /// Flow-size distribution.
    pub size: SizeDist,
    /// Mean inter-flow idle time in seconds (Table 1: 10 s).
    pub mean_gap_s: f64,
    /// Number of parallel flow slots.
    pub parallel: usize,
}

impl TrafficProfile {
    /// Pareto-sized flows (shape 1.5, the scenarios' default) with the given
    /// mean size in bits.
    pub fn pareto_bits(
        class: ClassLabel,
        cc: CcKind,
        mean_bits: f64,
        mean_gap_s: f64,
        parallel: usize,
    ) -> TrafficProfile {
        TrafficProfile {
            class,
            cc: cc.into(),
            size: SizeDist::ParetoMean {
                mean_bytes: mean_bits / 8.0,
                shape: 1.5,
            },
            mean_gap_s,
            parallel,
        }
    }

    /// Same profile with a different congestion-control fleet — the
    /// one-liner for turning any constructor's output heterogeneous.
    pub fn with_fleet(mut self, fleet: CcFleet) -> TrafficProfile {
        self.cc = fleet;
        self
    }

    /// Samples the idle gap before the next flow of a slot.
    pub fn sample_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.mean_gap_s <= 0.0 {
            0.0
        } else {
            Exponential::with_mean(self.mean_gap_s).sample(rng)
        }
    }
}

/// Helper mirroring Table 3's "1 Mb + 10 Mb + 40 Mb" short-flow mix: three
/// profiles, one slot each, with fixed-mean Pareto sizes.
pub fn short_flow_mix(class: ClassLabel, cc: CcKind) -> Vec<TrafficProfile> {
    [1e6, 10e6, 40e6]
        .iter()
        .map(|&mean_bits| TrafficProfile::pareto_bits(class, cc, mean_bits, 10.0, 1))
        .collect()
}

/// Helper for Table 3's light-gray hosts: one persistent 10 Gb flow.
pub fn long_flow(class: ClassLabel, cc: CcKind) -> TrafficProfile {
    TrafficProfile {
        class,
        cc: cc.into(),
        size: SizeDist::Fixed {
            bytes: (10e9 / 8.0) as u64,
        },
        mean_gap_s: 10.0,
        parallel: 1,
    }
}

/// Mean flow size of a profile in bits (the Pareto mean, or the fixed size).
pub fn mean_flow_bits(size: &SizeDist) -> f64 {
    match size {
        SizeDist::ParetoMean { mean_bytes, .. } => mean_bytes * 8.0,
        SizeDist::Fixed { bytes } => *bytes as f64 * 8.0,
    }
}

/// Conservative lower bound on the sustained demand (bits/s) one traffic
/// source offers, given the line rate bounding its transfers.
///
/// Each of the `parallel` slots cycles through "transfer a mean-sized flow,
/// idle for the mean gap"; at best the transfer runs at `line_rate_bps`, so
/// a slot's long-run offered rate is at least
/// `mean_bits / (mean_gap_s + mean_bits / line_rate_bps)`. Loss recovery
/// only lengthens transfers without reducing the backlog the source wants to
/// push, so this is the right yardstick for "does this traffic *demand* more
/// than a policer's token rate".
pub fn sustained_demand_bps(profile: &TrafficProfile, line_rate_bps: f64) -> f64 {
    let bits = mean_flow_bits(&profile.size);
    if bits <= 0.0 || line_rate_bps <= 0.0 {
        return 0.0;
    }
    let cycle_s = profile.mean_gap_s.max(0.0) + bits / line_rate_bps;
    profile.parallel as f64 * bits / cycle_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sizes_floor_at_one_mss() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SizeDist::Fixed { bytes: 10 };
        assert_eq!(d.sample(&mut rng, 1500), 1500);
    }

    #[test]
    fn pareto_sizes_scatter_around_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SizeDist::ParetoMean {
            mean_bytes: 125_000.0,
            shape: 1.5,
        };
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| d.sample(&mut rng, 1500)).sum();
        let mean = sum as f64 / n as f64;
        // Heavy tail: generous tolerance.
        assert!(
            (mean - 125_000.0).abs() < 25_000.0,
            "empirical mean {mean} too far off"
        );
    }

    #[test]
    fn gap_sampling_nonnegative() {
        let mut rng = StdRng::seed_from_u64(5);
        let profile = TrafficProfile {
            class: 0,
            cc: CcKind::Cubic.into(),
            size: SizeDist::Fixed { bytes: 1500 },
            mean_gap_s: 10.0,
            parallel: 1,
        };
        for _ in 0..100 {
            assert!(profile.sample_gap(&mut rng) >= 0.0);
        }
        let zero_gap = TrafficProfile {
            mean_gap_s: 0.0,
            ..profile
        };
        assert_eq!(zero_gap.sample_gap(&mut rng), 0.0);
    }

    #[test]
    fn table3_helpers() {
        let mix = short_flow_mix(0, CcKind::Cubic);
        assert_eq!(mix.len(), 3);
        assert!(mix.iter().all(|p| p.class == 0 && p.parallel == 1));
        let lf = long_flow(1, CcKind::Cubic);
        match lf.size {
            SizeDist::Fixed { bytes } => assert_eq!(bytes, 1_250_000_000),
            _ => panic!("long flow must be fixed size"),
        }
    }

    #[test]
    fn fleet_groups_expand_and_cycle() {
        let fleet = CcFleet::fleet(&[(CcKind::Cubic, 3), (CcKind::NewReno, 1)]);
        assert!(fleet.is_mixed());
        assert!(!fleet.is_empty());
        let kinds: Vec<CcKind> = (0..8).map(|i| fleet.kind_for(i)).collect();
        assert_eq!(
            kinds,
            vec![
                CcKind::Cubic,
                CcKind::Cubic,
                CcKind::Cubic,
                CcKind::NewReno,
                // The fleet cycles past its length.
                CcKind::Cubic,
                CcKind::Cubic,
                CcKind::Cubic,
                CcKind::NewReno,
            ]
        );
    }

    #[test]
    fn uniform_fleets_are_not_mixed() {
        let single = CcFleet::fleet(&[(CcKind::NewReno, 1)]);
        assert_eq!(single, CcFleet::Uniform(CcKind::NewReno));
        let same = CcFleet::fleet(&[(CcKind::Cubic, 2), (CcKind::Cubic, 1)]);
        assert!(!same.is_mixed(), "one algorithm repeated is not mixed");
        let from: CcFleet = CcKind::Cubic.into();
        assert_eq!(from.kind_for(5), CcKind::Cubic);
        assert!(CcFleet::Mixed(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty congestion-control fleet")]
    fn empty_fleet_panics_on_assignment() {
        CcFleet::Mixed(Vec::new()).kind_for(0);
    }

    #[test]
    fn sustained_demand_lower_bound() {
        let profile = TrafficProfile {
            class: 0,
            cc: CcKind::Cubic.into(),
            size: SizeDist::Fixed { bytes: 1_250_000 }, // 10 Mb
            mean_gap_s: 9.0,
            parallel: 4,
        };
        // Cycle = 9 s gap + 10 Mb / 10 Mb/s = 10 s -> 1 Mb/s per slot.
        let d = sustained_demand_bps(&profile, 10e6);
        assert!((d - 4e6).abs() < 1.0, "demand {d} != 4 Mb/s");
        // A faster line shortens the transfer and raises demand.
        assert!(sustained_demand_bps(&profile, 100e6) > d);
        assert_eq!(sustained_demand_bps(&profile, 0.0), 0.0);
    }
}
