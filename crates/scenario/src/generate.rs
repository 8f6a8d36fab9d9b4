//! Seeded random scenario generation: [`ScenarioGen`] emits *valid*
//! scenarios spanning the API's axes — topology family, differentiation
//! placement/rate/burst, traffic mix, congestion-control fleets, and
//! per-link queue overrides.
//!
//! The generator powers two things:
//!
//! * the **randomized invariant suite** (`crates/scenario/tests/
//!   invariants.rs`): serial/sharded executor identity, packet
//!   conservation, and "neutral networks are not flagged" over a seeded
//!   population of scenarios nobody hand-picked;
//! * **builder property tests** (`crates/scenario/tests/
//!   proptest_scenario.rs`): every generated spec re-validates `Ok`, and
//!   targeted invalid mutations yield the expected typed
//!   [`ScenarioError`](crate::ScenarioError).
//!
//! Determinism: same seed, same scenario stream — the invariant suite runs
//! CI with a pinned seed (`NNI_INVARIANT_SEED`).
//!
//! ```
//! use nni_scenario::ScenarioGen;
//!
//! let mut g = ScenarioGen::new(7);
//! let a = g.scenario();
//! let b = ScenarioGen::new(7).scenario();
//! assert_eq!(a.name, b.name); // same seed -> same stream
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nni_emu::{policer_at_fraction, shaper_at_fraction, CcFleet, CcKind, TrafficProfile};
use nni_topology::library::{dumbbell, parking_lot, topology_a, PaperTopology};
use nni_topology::LinkId;

use crate::spec::{Expectation, QueueOverride, Scenario};

/// Knobs bounding the generated population.
///
/// The defaults put every scenario in the *moderately congested* regime
/// (several parallel slots per path, short idle gaps, 6–10 simulated
/// seconds): enough congested measurement intervals that Algorithm 1's
/// pair estimates stabilise and a neutral network reliably reads as
/// neutral. Lightly loaded scenarios at short durations produce small,
/// noisy estimates whose spread crosses the decision thresholds — a
/// sampling artefact, not differentiation — so the generator stays out of
/// that regime by default.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Simulated duration drawn uniformly from this range (seconds). Kept
    /// short by default — the generator exists for test populations.
    pub duration_range_s: (f64, f64),
    /// Probability that a scenario carries differentiation at all. Zero
    /// makes every emitted scenario neutral (the invariant suite's control
    /// population).
    pub differentiation_prob: f64,
    /// Probability that a traffic profile gets a mixed CC fleet.
    pub mixed_fleet_prob: f64,
    /// Probability that a scenario overrides at least one link's queue.
    pub queue_override_prob: f64,
    /// Upper bound (inclusive) on parallel flow slots per profile.
    pub max_parallel: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            duration_range_s: (6.0, 10.0),
            differentiation_prob: 0.6,
            mixed_fleet_prob: 0.4,
            queue_override_prob: 0.3,
            max_parallel: 10,
        }
    }
}

/// Where [`ScenarioGen`] draws its topologies from.
///
/// The default [`LibraryTopologies`] source draws the hand-built paper
/// topologies (topology A, dumbbells, parking lots); `nni-topogen` plugs in
/// generated ISP-like hierarchies through the same seam. A source draws
/// from the generator's own RNG, so a fixed seed still pins the whole
/// scenario stream.
pub trait TopologySource: std::fmt::Debug {
    /// Draws the next topology (with its class partition) plus a family
    /// label for the scenario name.
    fn draw(&mut self, rng: &mut StdRng) -> (PaperTopology, String);
}

/// The built-in source: the `nni_topology::library` paper topologies, with
/// randomized RTTs and fan-outs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LibraryTopologies;

impl TopologySource for LibraryTopologies {
    fn draw(&mut self, rng: &mut StdRng) -> (PaperTopology, String) {
        match rng.gen_range(0u32..4) {
            0 => {
                let rtt = rng.gen_range(0.04..0.08);
                (topology_a(rtt, rtt), "topology-a".into())
            }
            1 => {
                let n1 = rng.gen_range(1usize..=3);
                let n2 = rng.gen_range(1usize..=3);
                (dumbbell(n1, n2), "dumbbell".into())
            }
            2 => {
                let segments = rng.gen_range(2usize..=4);
                (parking_lot(segments), "parking-lot".into())
            }
            _ => (dumbbell(2, 2), "dumbbell-2x2".into()),
        }
    }
}

/// A deterministic stream of valid random scenarios (see the module docs).
#[derive(Debug)]
pub struct ScenarioGen {
    rng: StdRng,
    cfg: GenConfig,
    counter: u64,
    source: Box<dyn TopologySource>,
}

impl ScenarioGen {
    /// A generator with the default [`GenConfig`].
    pub fn new(seed: u64) -> ScenarioGen {
        ScenarioGen::with_config(seed, GenConfig::default())
    }

    /// A generator with explicit bounds.
    pub fn with_config(seed: u64, cfg: GenConfig) -> ScenarioGen {
        ScenarioGen::with_source(seed, cfg, LibraryTopologies)
    }

    /// A generator drawing topologies from an explicit source — how
    /// `nni-topogen` routes generated hierarchies into the population
    /// machinery.
    pub fn with_source(
        seed: u64,
        cfg: GenConfig,
        source: impl TopologySource + 'static,
    ) -> ScenarioGen {
        ScenarioGen {
            rng: StdRng::seed_from_u64(seed),
            cfg,
            counter: 0,
            source: Box::new(source),
        }
    }

    /// A generator that only emits neutral scenarios (no differentiation).
    pub fn neutral_only(seed: u64) -> ScenarioGen {
        ScenarioGen::with_config(
            seed,
            GenConfig {
                differentiation_prob: 0.0,
                ..GenConfig::default()
            },
        )
    }

    /// The next random scenario. Always valid: the result went through
    /// [`ScenarioBuilder::build`](crate::ScenarioBuilder) internally.
    pub fn scenario(&mut self) -> Scenario {
        self.counter += 1;
        let (paper, family) = self.source.draw(&mut self.rng);
        let g = &paper.topology;

        // Differentiation: maybe a policer or a two-lane shaper, placed on
        // a link some measured path actually crosses.
        let differentiate = self.rng.gen_bool(self.cfg.differentiation_prob);
        let mut mechanisms = Vec::new();
        if differentiate {
            let link = self.random_path_link(&paper);
            if self.rng.gen_bool(0.5) {
                let fraction = self.rng.gen_range(0.15..0.5);
                let burst_s = self.rng.gen_range(0.01..0.1);
                mechanisms.push(policer_at_fraction(g, link, 1, fraction, burst_s));
            } else {
                let fraction = self.rng.gen_range(0.2..0.45);
                mechanisms.push(shaper_at_fraction(g, link, fraction));
            }
        }
        let mech_links: Vec<LinkId> = mechanisms.iter().map(|&(l, _)| l).collect();
        let mech_label = match mechanisms.first() {
            None => "neutral",
            Some((_, nni_emu::Differentiation::Policing { .. })) => "policing",
            _ => "shaping",
        };

        // A short warm-up keeps most intervals in the measured log at
        // generator durations (the default 5 s would drop everything).
        let measurement = crate::spec::MeasurementConfig {
            duration_s: self
                .rng
                .gen_range(self.cfg.duration_range_s.0..self.cfg.duration_range_s.1),
            warmup_s: Some(0.5),
            seed: self.rng.gen::<u64>(),
            ..crate::spec::MeasurementConfig::default()
        };
        let mut b = Scenario::builder(
            format!("gen#{} {family} {mech_label}", self.counter),
            g.clone(),
        )
        .classes(paper.classes.clone())
        .measurement(measurement)
        .differentiate_all(mechanisms);

        // Traffic: one or two random profile shapes, applied to *every*
        // measured path (class label = the path's performance class). The
        // mix varies between scenarios, not between classes — at invariant-
        // suite durations a heavily skewed class load is statistically
        // indistinguishable from differentiation, so class-symmetric load
        // is what makes the "neutral is never flagged" invariant honest.
        let shapes: Vec<TrafficProfile> = (0..if self.rng.gen_bool(0.25) { 2 } else { 1 })
            .map(|_| self.random_profile(0))
            .collect();
        for path in g.path_ids() {
            let class = paper.class_of(path).min(1) as u8;
            for shape in &shapes {
                let mut profile = shape.clone();
                profile.class = class;
                b = b.path_traffic(path, profile);
            }
        }

        // Queue overrides: shrink or grow a random link's buffer.
        if self.rng.gen_bool(self.cfg.queue_override_prob) {
            let link = self.random_path_link(&paper);
            let q = if self.rng.gen_bool(0.5) {
                QueueOverride::Bytes(self.rng.gen_range(30_000u64..500_000))
            } else {
                QueueOverride::Packets(self.rng.gen_range(20u32..300))
            };
            b = b.queue_override(link, q);
        }

        let expectation = if mech_links.is_empty() {
            Expectation::neutral()
        } else {
            Expectation::nonneutral(mech_links)
        };
        b.expect(expectation)
            .build()
            .expect("generated scenario must be valid")
    }

    /// The next `n` scenarios.
    pub fn scenarios(&mut self, n: usize) -> Vec<Scenario> {
        (0..n).map(|_| self.scenario()).collect()
    }

    /// A random link crossed by a random measured path — differentiation
    /// and queue overrides land where traffic actually flows.
    fn random_path_link(&mut self, paper: &PaperTopology) -> LinkId {
        let g = &paper.topology;
        let path = g.path(nni_topology::PathId(
            self.rng.gen_range(0usize..g.path_count()),
        ));
        let links = path.links();
        links[self.rng.gen_range(0usize..links.len())]
    }

    fn random_profile(&mut self, class: u8) -> TrafficProfile {
        let mean_bits = self.rng.gen_range(2e6..20e6);
        let gap_s = self.rng.gen_range(0.5..2.0);
        let parallel = self.rng.gen_range(4usize..=self.cfg.max_parallel.max(4));
        let mut profile =
            TrafficProfile::pareto_bits(class, CcKind::Cubic, mean_bits, gap_s, parallel);
        if self.rng.gen_bool(self.cfg.mixed_fleet_prob) {
            // The fleet covers the slots exactly, with at least one slot of
            // each algorithm — every "mixed" profile really runs both.
            let cubic = self.rng.gen_range(1usize..parallel);
            profile = profile.with_fleet(CcFleet::fleet(&[
                (CcKind::Cubic, cubic),
                (CcKind::NewReno, parallel - cubic),
            ]));
        } else if self.rng.gen_bool(0.3) {
            profile = profile.with_fleet(CcFleet::Uniform(CcKind::NewReno));
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioBuilder;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a: Vec<String> = ScenarioGen::new(3)
            .scenarios(5)
            .iter()
            .map(|s| format!("{s:?}"))
            .collect();
        let b: Vec<String> = ScenarioGen::new(3)
            .scenarios(5)
            .iter()
            .map(|s| format!("{s:?}"))
            .collect();
        assert_eq!(a, b);
        let c: Vec<String> = ScenarioGen::new(4)
            .scenarios(5)
            .iter()
            .map(|s| format!("{s:?}"))
            .collect();
        assert_ne!(a, c, "different seed must change the stream");
    }

    #[test]
    fn generated_scenarios_revalidate() {
        let mut g = ScenarioGen::new(11);
        for s in g.scenarios(20) {
            assert!(
                ScenarioBuilder::of(s).build().is_ok(),
                "generated scenarios must re-validate Ok"
            );
        }
    }

    #[test]
    fn custom_sources_route_through_the_same_machinery() {
        #[derive(Debug)]
        struct FixedSource;
        impl TopologySource for FixedSource {
            fn draw(&mut self, _rng: &mut StdRng) -> (PaperTopology, String) {
                (dumbbell(2, 2), "fixed".into())
            }
        }
        let mut g = ScenarioGen::with_source(3, GenConfig::default(), FixedSource);
        for s in g.scenarios(5) {
            assert!(s.name.contains("fixed"));
            assert!(ScenarioBuilder::of(s).build().is_ok());
        }
        // The default source *is* LibraryTopologies: identical streams.
        let a: Vec<String> = ScenarioGen::new(9)
            .scenarios(4)
            .iter()
            .map(|s| s.name.clone())
            .collect();
        let b: Vec<String> = ScenarioGen::with_source(9, GenConfig::default(), LibraryTopologies)
            .scenarios(4)
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn neutral_only_emits_no_differentiation() {
        let mut g = ScenarioGen::neutral_only(5);
        for s in g.scenarios(10) {
            assert!(s.differentiation.is_empty());
            assert!(!s.expectation.expect_flagged);
        }
    }

    #[test]
    fn population_covers_the_new_axes() {
        let mut g = ScenarioGen::new(1);
        let pop = g.scenarios(40);
        let mixed = pop
            .iter()
            .flat_map(|s| &s.path_traffic)
            .filter(|(_, p)| p.cc.is_mixed())
            .count();
        let overridden = pop.iter().filter(|s| !s.queue_overrides.is_empty()).count();
        let differentiated = pop.iter().filter(|s| !s.differentiation.is_empty()).count();
        assert!(mixed > 0, "population must contain mixed fleets");
        assert!(overridden > 0, "population must contain queue overrides");
        assert!(
            differentiated > 0 && differentiated < pop.len(),
            "population must mix neutral and differentiated scenarios"
        );
    }
}
