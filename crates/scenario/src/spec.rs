//! The declarative half of the API: [`Scenario`] and its builder.
//!
//! A scenario is a complete, topology-agnostic description of one
//! experiment: a topology, a class partition, any number of per-link
//! differentiation placements, per-path (and background) traffic, the
//! measurement window, and the inference configuration. Building a scenario
//! validates every cross-reference once, so a compiled [`Experiment`]
//! (see [`crate::experiment`]) can run without further checking.
//!
//! [`Experiment`]: crate::Experiment

use nni_core::Config;
use nni_emu::{ClassLabel, Differentiation, TrafficProfile};
use nni_topology::{LinkId, PathId, Topology};

use crate::experiment::Experiment;

/// Default salt XORed into the simulation seed to derive the normalization
/// (Algorithm 2) seed, so the emulator and the measurement post-processing
/// never consume the same random stream.
pub const DEFAULT_NORMALIZE_SALT: u64 = 0xDEAD;

/// Measurement / simulation window of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementConfig {
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Measurement interval in seconds (Table 1: 100 ms).
    pub interval_s: f64,
    /// Loss threshold for the congestion-free indicator.
    pub loss_threshold: f64,
    /// Warm-up prefix dropped from the log; `None` uses the emulator default.
    pub warmup_s: Option<f64>,
    /// Simulation seed (traffic sampling and start jitter).
    pub seed: u64,
    /// Salt XORed with `seed` to seed Algorithm 2's normalization draw.
    pub normalize_salt: u64,
    /// Record per-packet one-way delay during emulation and fold
    /// per-interval percentiles into the measurement log (the log then
    /// encodes as a v2 set). Off by default so existing scenarios stay
    /// bit-identical.
    pub record_delay: bool,
    /// Delay-inflation feature folded into the congestion-free indicator
    /// (joint loss+delay inference). Requires `record_delay`; `None` keeps
    /// inference loss-only even when delay is recorded.
    pub delay_feature: Option<nni_core::DelayFeature>,
}

impl Default for MeasurementConfig {
    fn default() -> Self {
        MeasurementConfig {
            duration_s: 60.0,
            interval_s: 0.1,
            loss_threshold: 0.01,
            warmup_s: None,
            seed: 42,
            normalize_salt: DEFAULT_NORMALIZE_SALT,
            record_delay: false,
            delay_feature: None,
        }
    }
}

/// A per-link override of the drop-tail queue capacity, replacing the
/// BDP-derived default of `SimConfig::queue_bytes` on that link only.
///
/// ```
/// use nni_scenario::QueueOverride;
///
/// // 30 kB of buffer, or the same thing in full-MSS packets:
/// assert_eq!(QueueOverride::Bytes(30_000).resolve_bytes(1500), 30_000);
/// assert_eq!(QueueOverride::Packets(20).resolve_bytes(1500), 30_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOverride {
    /// Queue capacity in bytes.
    Bytes(u64),
    /// Queue capacity in full-MSS packets (resolved against the simulation
    /// MSS at compile time).
    Packets(u32),
}

impl QueueOverride {
    /// The capacity in bytes, given the simulation MSS.
    pub fn resolve_bytes(&self, mss: u32) -> u64 {
        match self {
            QueueOverride::Bytes(b) => *b,
            QueueOverride::Packets(n) => *n as u64 * mss as u64,
        }
    }

    /// Whether the override describes a zero-capacity queue (invalid: the
    /// link could never transmit).
    pub fn is_zero(&self) -> bool {
        match self {
            QueueOverride::Bytes(b) => *b == 0,
            QueueOverride::Packets(n) => *n == 0,
        }
    }
}

/// An unmeasured background source: loads the network over an explicit link
/// route without appearing in the measurement log.
#[derive(Debug, Clone)]
pub struct BackgroundTraffic {
    /// The links the background route traverses, in order.
    pub links: Vec<LinkId>,
    /// The traffic emitted on that route.
    pub profiles: Vec<TrafficProfile>,
}

/// Ground truth the outcome is scored against.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Links that actually differentiate (for FN/FP/granularity).
    pub nonneutral_links: Vec<LinkId>,
    /// Whether Algorithm 1 *should* flag the network. Usually
    /// `!nonneutral_links.is_empty()`, but a behaviourally neutral mechanism
    /// (the §6.3 50/50 shaper) carries mechanisms yet expects no flag.
    pub expect_flagged: bool,
}

impl Expectation {
    /// A neutral network: nothing to find.
    pub fn neutral() -> Expectation {
        Expectation {
            nonneutral_links: Vec::new(),
            expect_flagged: false,
        }
    }

    /// A network whose listed links differentiate observably.
    pub fn nonneutral(links: Vec<LinkId>) -> Expectation {
        Expectation {
            expect_flagged: !links.is_empty(),
            nonneutral_links: links,
        }
    }
}

/// Why a scenario failed to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A class partition member is not a path of the topology.
    UnknownPath(PathId),
    /// A path appears in more than one class.
    OverlappingClasses(PathId),
    /// A differentiation placement or route references an unknown link.
    UnknownLink(LinkId),
    /// Two differentiation mechanisms were placed on the same link.
    DuplicateDifferentiation(LinkId),
    /// A background route has no links.
    EmptyBackgroundRoute,
    /// The scenario has no traffic at all.
    NoTraffic,
    /// A non-positive duration or interval.
    BadWindow,
    /// A traffic profile carries an empty congestion-control fleet.
    EmptyCcFleet,
    /// A policer (or shaper lane) with a non-positive token rate on a link.
    ZeroRatePolicer(LinkId),
    /// Two shaper lanes on one link target the same class — the mechanism
    /// could not decide which lane a packet belongs to.
    OverlappingLanes(LinkId),
    /// A shaper was configured with no lanes at all.
    EmptyShaper(LinkId),
    /// A queue override that describes a zero-capacity queue.
    BadQueueOverride(LinkId),
    /// Two queue overrides on the same link.
    DuplicateQueueOverride(LinkId),
    /// A delay feature was configured without enabling delay recording —
    /// joint inference would silently degrade to loss-only.
    DelayFeatureWithoutRecording,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownPath(p) => write!(f, "unknown path {p}"),
            ScenarioError::OverlappingClasses(p) => {
                write!(f, "path {p} appears in more than one class")
            }
            ScenarioError::UnknownLink(l) => write!(f, "unknown link {l}"),
            ScenarioError::DuplicateDifferentiation(l) => {
                write!(f, "two differentiation mechanisms on link {l}")
            }
            ScenarioError::EmptyBackgroundRoute => write!(f, "background route has no links"),
            ScenarioError::NoTraffic => write!(f, "scenario has no traffic sources"),
            ScenarioError::BadWindow => write!(f, "duration and interval must be positive"),
            ScenarioError::EmptyCcFleet => {
                write!(f, "traffic profile has an empty congestion-control fleet")
            }
            ScenarioError::ZeroRatePolicer(l) => {
                write!(f, "non-positive token rate on link {l}")
            }
            ScenarioError::OverlappingLanes(l) => {
                write!(f, "two shaper lanes target the same class on link {l}")
            }
            ScenarioError::EmptyShaper(l) => write!(f, "shaper with no lanes on link {l}"),
            ScenarioError::BadQueueOverride(l) => {
                write!(f, "zero-capacity queue override on link {l}")
            }
            ScenarioError::DuplicateQueueOverride(l) => {
                write!(f, "two queue overrides on link {l}")
            }
            ScenarioError::DelayFeatureWithoutRecording => {
                write!(f, "delay feature configured without record_delay")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A validated, self-contained experiment description. Construct through
/// [`Scenario::builder`]; run through [`Scenario::compile`] /
/// [`Scenario::run`] or an [`Executor`](crate::Executor).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name (reports, progress output).
    pub name: String,
    /// The network under test.
    pub topology: Topology,
    /// Performance-class partition of the measured paths.
    pub classes: Vec<Vec<PathId>>,
    /// Per-link differentiation placements — any number of links.
    pub differentiation: Vec<(LinkId, Differentiation)>,
    /// Traffic on measured paths.
    pub path_traffic: Vec<(PathId, TrafficProfile)>,
    /// Unmeasured background traffic.
    pub background: Vec<BackgroundTraffic>,
    /// Per-link queue-capacity overrides (links not listed keep the
    /// BDP-derived default).
    pub queue_overrides: Vec<(LinkId, QueueOverride)>,
    /// Measurement window and seed.
    pub measurement: MeasurementConfig,
    /// Algorithm 1 configuration.
    pub inference: Config,
    /// Ground truth.
    pub expectation: Expectation,
}

impl Scenario {
    /// Starts a builder over a topology.
    pub fn builder(name: impl Into<String>, topology: Topology) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                topology,
                classes: Vec::new(),
                differentiation: Vec::new(),
                path_traffic: Vec::new(),
                background: Vec::new(),
                queue_overrides: Vec::new(),
                measurement: MeasurementConfig::default(),
                inference: Config::clustered(),
                expectation: Expectation::neutral(),
            },
        }
    }

    /// The number of class labels the simulator must account for: at least
    /// two, and enough for every partition class, traffic label, and
    /// mechanism target.
    pub fn class_label_count(&self) -> usize {
        let mut n = self.classes.len().max(2);
        let mut see = |label: ClassLabel| n = n.max(label as usize + 1);
        for (_, profile) in &self.path_traffic {
            see(profile.class);
        }
        for bg in &self.background {
            for profile in &bg.profiles {
                see(profile.class);
            }
        }
        for (_, diff) in &self.differentiation {
            match diff {
                Differentiation::None => {}
                Differentiation::Policing { class, .. } => see(*class),
                Differentiation::Shaping { lanes } => {
                    for lane in lanes {
                        see(lane.class);
                    }
                }
            }
        }
        n
    }

    /// The class index of a measured path, if it is classified.
    pub fn class_of(&self, p: PathId) -> Option<usize> {
        self.classes.iter().position(|c| c.contains(&p))
    }

    /// FNV-1a fingerprint of every *measurement-relevant* axis: topology,
    /// class partition, differentiation placements, traffic, queue
    /// overrides, and the simulation window — but **not** the seed (the
    /// cache key pairs fingerprint with seed), and not the inference-side
    /// knobs (name, loss threshold, normalization salt, Algorithm 1 config,
    /// expectation), which do not shape the measured counts.
    ///
    /// It folds the job codec's field walk ([`crate::proto`]'s
    /// `put_simulation`, the same walk `encode_scenario` writes) into an
    /// [`Fnv`](nni_measure::Fnv), then the window: duration, interval, and
    /// the tagged warm-up. Delay recording shapes the measured set (a v2
    /// delay grid rides along), so it folds in too — but only when enabled,
    /// which keeps every pre-delay fingerprint unchanged. The delay
    /// *feature* is an inference knob, like the loss threshold, and stays
    /// out.
    ///
    /// Two scenarios with equal fingerprints produce bit-identical
    /// measurement logs at equal seeds; this is what keys the
    /// [`MeasurementCache`](nni_measure::MeasurementCache) and what an
    /// inference-axis sweep dedups on.
    pub fn measurement_fingerprint(&self) -> u64 {
        let mut h = nni_measure::Fnv::new();
        crate::proto::put_simulation(&mut h, self);
        let m = &self.measurement;
        h.f64(m.duration_s);
        h.f64(m.interval_s);
        match m.warmup_s {
            None => h.word(0),
            Some(w) => {
                h.word(1);
                h.f64(w);
            }
        }
        if m.record_delay {
            h.word(1);
        }
        h.0
    }

    /// Same scenario, different simulation seed — the unit of a seed sweep.
    pub fn with_seed(&self, seed: u64) -> Scenario {
        let mut s = self.clone();
        s.measurement.seed = seed;
        s
    }

    /// Compiles into a runnable [`Experiment`].
    pub fn compile(&self) -> Experiment {
        Experiment::new(self.clone())
    }

    /// Convenience: compile and run serially.
    pub fn run(&self) -> crate::ExperimentOutcome {
        self.compile().run()
    }
}

/// Builder for [`Scenario`]; validation happens once, in [`build`].
///
/// [`build`]: ScenarioBuilder::build
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Wraps an existing scenario so it can be edited and *re-validated* —
    /// the entry point for mutation-style tests and programmatic sweeps that
    /// tweak raw [`Scenario`] fields:
    ///
    /// ```
    /// use nni_scenario::{Scenario, ScenarioBuilder, ScenarioError};
    /// use nni_scenario::library::{topology_a_scenario, ExperimentParams};
    /// use nni_emu::CcFleet;
    ///
    /// let mut s = topology_a_scenario(ExperimentParams::default());
    /// s.path_traffic[0].1.cc = CcFleet::Mixed(Vec::new()); // invalid edit
    /// assert_eq!(
    ///     ScenarioBuilder::of(s).build().unwrap_err(),
    ///     ScenarioError::EmptyCcFleet,
    /// );
    /// ```
    pub fn of(scenario: Scenario) -> ScenarioBuilder {
        ScenarioBuilder { scenario }
    }

    /// Sets the performance-class partition (`classes[n]` lists class
    /// `c_{n+1}`'s member paths).
    pub fn classes(mut self, classes: Vec<Vec<PathId>>) -> Self {
        self.scenario.classes = classes;
        self
    }

    /// Places a differentiation mechanism on a link. Repeatable — multi-link
    /// differentiation is first-class, not a special case.
    pub fn differentiate(mut self, link: LinkId, mechanism: Differentiation) -> Self {
        self.scenario.differentiation.push((link, mechanism));
        self
    }

    /// Places pre-assembled `(link, mechanism)` pairs (the shape the
    /// `nni_emu::scenario` convenience constructors produce).
    pub fn differentiate_all(
        mut self,
        mechanisms: impl IntoIterator<Item = (LinkId, Differentiation)>,
    ) -> Self {
        self.scenario.differentiation.extend(mechanisms);
        self
    }

    /// Adds a traffic source on a measured path. Repeatable; a path may
    /// carry several profiles (e.g. a short-flow mix plus a long flow).
    pub fn path_traffic(mut self, path: PathId, profile: TrafficProfile) -> Self {
        self.scenario.path_traffic.push((path, profile));
        self
    }

    /// Adds unmeasured background traffic over an explicit link route.
    pub fn background_traffic(mut self, links: Vec<LinkId>, profiles: Vec<TrafficProfile>) -> Self {
        self.scenario
            .background
            .push(BackgroundTraffic { links, profiles });
        self
    }

    /// Overrides one link's drop-tail queue capacity. Repeatable (one
    /// override per link); links not listed keep the BDP-derived default.
    pub fn queue_override(mut self, link: LinkId, queue: QueueOverride) -> Self {
        self.scenario.queue_overrides.push((link, queue));
        self
    }

    /// Convenience: a byte-sized queue override.
    pub fn queue_bytes(self, link: LinkId, bytes: u64) -> Self {
        self.queue_override(link, QueueOverride::Bytes(bytes))
    }

    /// Sets the measurement window/seed wholesale.
    pub fn measurement(mut self, m: MeasurementConfig) -> Self {
        self.scenario.measurement = m;
        self
    }

    /// Sets the simulated duration.
    pub fn duration_s(mut self, duration_s: f64) -> Self {
        self.scenario.measurement.duration_s = duration_s;
        self
    }

    /// Sets the measurement interval.
    pub fn interval_s(mut self, interval_s: f64) -> Self {
        self.scenario.measurement.interval_s = interval_s;
        self
    }

    /// Sets the loss threshold.
    pub fn loss_threshold(mut self, loss_threshold: f64) -> Self {
        self.scenario.measurement.loss_threshold = loss_threshold;
        self
    }

    /// Sets the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.measurement.seed = seed;
        self
    }

    /// Sets the normalization seed salt (see
    /// [`DEFAULT_NORMALIZE_SALT`]).
    pub fn measurement_salt(mut self, salt: u64) -> Self {
        self.scenario.measurement.normalize_salt = salt;
        self
    }

    /// Enables (or disables) per-packet one-way-delay recording; the
    /// measurement log then carries per-interval delay percentiles and
    /// serializes as a v2 set.
    pub fn record_delay(mut self, record: bool) -> Self {
        self.scenario.measurement.record_delay = record;
        self
    }

    /// Folds a delay-inflation feature into the congestion-free indicator
    /// (joint loss+delay inference) and enables delay recording, which the
    /// feature requires.
    pub fn delay_feature(mut self, feature: nni_core::DelayFeature) -> Self {
        self.scenario.measurement.delay_feature = Some(feature);
        self.scenario.measurement.record_delay = true;
        self
    }

    /// Sets the Algorithm 1 configuration.
    pub fn inference(mut self, cfg: Config) -> Self {
        self.scenario.inference = cfg;
        self
    }

    /// Sets the ground-truth expectation.
    pub fn expect(mut self, expectation: Expectation) -> Self {
        self.scenario.expectation = expectation;
        self
    }

    /// Validates every cross-reference and returns the scenario.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let s = self.scenario;
        let g = &s.topology;
        let m = &s.measurement;
        if !(m.duration_s > 0.0 && m.interval_s > 0.0) {
            return Err(ScenarioError::BadWindow);
        }
        if m.delay_feature.is_some() && !m.record_delay {
            return Err(ScenarioError::DelayFeatureWithoutRecording);
        }
        let mut seen = vec![false; g.path_count()];
        for class in &s.classes {
            for &p in class {
                if p.index() >= g.path_count() {
                    return Err(ScenarioError::UnknownPath(p));
                }
                if seen[p.index()] {
                    return Err(ScenarioError::OverlappingClasses(p));
                }
                seen[p.index()] = true;
            }
        }
        let mut mechanised = vec![false; g.link_count()];
        for (l, diff) in &s.differentiation {
            let l = *l;
            if l.index() >= g.link_count() {
                return Err(ScenarioError::UnknownLink(l));
            }
            if mechanised[l.index()] {
                return Err(ScenarioError::DuplicateDifferentiation(l));
            }
            mechanised[l.index()] = true;
            match diff {
                Differentiation::None => {}
                Differentiation::Policing { rate_bps, .. } => {
                    if rate_bps.is_nan() || *rate_bps <= 0.0 {
                        return Err(ScenarioError::ZeroRatePolicer(l));
                    }
                }
                Differentiation::Shaping { lanes } => {
                    if lanes.is_empty() {
                        return Err(ScenarioError::EmptyShaper(l));
                    }
                    let mut lane_classes: Vec<ClassLabel> = Vec::with_capacity(lanes.len());
                    for lane in lanes {
                        if lane.rate_bps.is_nan() || lane.rate_bps <= 0.0 {
                            return Err(ScenarioError::ZeroRatePolicer(l));
                        }
                        if lane_classes.contains(&lane.class) {
                            return Err(ScenarioError::OverlappingLanes(l));
                        }
                        lane_classes.push(lane.class);
                    }
                }
            }
        }
        for (p, profile) in &s.path_traffic {
            if p.index() >= g.path_count() {
                return Err(ScenarioError::UnknownPath(*p));
            }
            if profile.cc.is_empty() {
                return Err(ScenarioError::EmptyCcFleet);
            }
        }
        for bg in &s.background {
            if bg.links.is_empty() {
                return Err(ScenarioError::EmptyBackgroundRoute);
            }
            for &l in &bg.links {
                if l.index() >= g.link_count() {
                    return Err(ScenarioError::UnknownLink(l));
                }
            }
            for profile in &bg.profiles {
                if profile.cc.is_empty() {
                    return Err(ScenarioError::EmptyCcFleet);
                }
            }
        }
        let mut overridden = vec![false; g.link_count()];
        for &(l, q) in &s.queue_overrides {
            if l.index() >= g.link_count() {
                return Err(ScenarioError::UnknownLink(l));
            }
            if overridden[l.index()] {
                return Err(ScenarioError::DuplicateQueueOverride(l));
            }
            overridden[l.index()] = true;
            if q.is_zero() {
                return Err(ScenarioError::BadQueueOverride(l));
            }
        }
        for &l in &s.expectation.nonneutral_links {
            if l.index() >= g.link_count() {
                return Err(ScenarioError::UnknownLink(l));
            }
        }
        let has_traffic =
            !s.path_traffic.is_empty() || s.background.iter().any(|bg| !bg.profiles.is_empty());
        if !has_traffic {
            return Err(ScenarioError::NoTraffic);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_emu::{policer_at_fraction, CcFleet, CcKind};
    use nni_topology::library::topology_a;

    fn profile() -> TrafficProfile {
        TrafficProfile::pareto_bits(0, CcKind::Cubic, 10e6, 10.0, 4)
    }

    #[test]
    fn builder_validates_and_builds() {
        let paper = topology_a(0.05, 0.05);
        let l5 = paper.topology.link_by_name("l5").unwrap();
        let mech = policer_at_fraction(&paper.topology, l5, 1, 0.2, 0.01);
        let mut b = Scenario::builder("t", paper.topology.clone())
            .classes(paper.classes.clone())
            .differentiate(mech.0, mech.1)
            .expect(Expectation::nonneutral(vec![l5]));
        for p in paper.topology.path_ids() {
            b = b.path_traffic(p, profile());
        }
        let s = b.build().expect("valid scenario");
        assert_eq!(s.path_traffic.len(), 4);
        assert_eq!(s.class_label_count(), 2);
        assert!(s.expectation.expect_flagged);
        assert_eq!(s.class_of(PathId(0)), Some(0));
        assert_eq!(s.class_of(PathId(2)), Some(1));
    }

    #[test]
    fn rejects_duplicate_mechanism_on_one_link() {
        let paper = topology_a(0.05, 0.05);
        let l5 = paper.topology.link_by_name("l5").unwrap();
        let m1 = policer_at_fraction(&paper.topology, l5, 1, 0.2, 0.01);
        let m2 = policer_at_fraction(&paper.topology, l5, 0, 0.3, 0.01);
        let err = Scenario::builder("t", paper.topology.clone())
            .differentiate(m1.0, m1.1)
            .differentiate(m2.0, m2.1)
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::DuplicateDifferentiation(l5));
    }

    #[test]
    fn rejects_unknown_references_and_empty_traffic() {
        let paper = topology_a(0.05, 0.05);
        let err = Scenario::builder("t", paper.topology.clone())
            .path_traffic(PathId(99), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownPath(PathId(99)));

        let err = Scenario::builder("t", paper.topology.clone())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::NoTraffic);

        let err = Scenario::builder("t", paper.topology.clone())
            .classes(vec![vec![PathId(0)], vec![PathId(0)]])
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::OverlappingClasses(PathId(0)));
    }

    #[test]
    fn class_label_count_covers_mechanism_targets() {
        let paper = topology_a(0.05, 0.05);
        let l5 = paper.topology.link_by_name("l5").unwrap();
        let mech = policer_at_fraction(&paper.topology, l5, 3, 0.2, 0.01);
        let s = Scenario::builder("t", paper.topology.clone())
            .differentiate(mech.0, mech.1)
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap();
        assert_eq!(s.class_label_count(), 4);
    }

    #[test]
    fn rejects_invalid_fleets_rates_lanes_and_overrides() {
        let paper = topology_a(0.05, 0.05);
        let l5 = paper.topology.link_by_name("l5").unwrap();

        // Empty CC fleet (path and background traffic alike).
        let empty = profile().with_fleet(CcFleet::Mixed(Vec::new()));
        let err = Scenario::builder("t", paper.topology.clone())
            .path_traffic(PathId(0), empty.clone())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::EmptyCcFleet);
        let err = Scenario::builder("t", paper.topology.clone())
            .background_traffic(vec![l5], vec![empty])
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::EmptyCcFleet);

        // Zero-rate policer.
        let err = Scenario::builder("t", paper.topology.clone())
            .differentiate(
                l5,
                Differentiation::Policing {
                    class: 1,
                    rate_bps: 0.0,
                    burst_bytes: 3000.0,
                },
            )
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::ZeroRatePolicer(l5));

        // Overlapping shaper lanes (two lanes, same class).
        let lane = |class: u8| nni_emu::ShapeLaneConfig {
            class,
            rate_bps: 10e6,
            burst_bytes: 3000.0,
            buffer_bytes: 15_000,
        };
        let err = Scenario::builder("t", paper.topology.clone())
            .differentiate(
                l5,
                Differentiation::Shaping {
                    lanes: vec![lane(1), lane(1)],
                },
            )
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::OverlappingLanes(l5));

        // A shaper needs at least one lane.
        let err = Scenario::builder("t", paper.topology.clone())
            .differentiate(l5, Differentiation::Shaping { lanes: Vec::new() })
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::EmptyShaper(l5));

        // Queue overrides: zero capacity, duplicates, unknown links.
        let err = Scenario::builder("t", paper.topology.clone())
            .queue_bytes(l5, 0)
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::BadQueueOverride(l5));
        let err = Scenario::builder("t", paper.topology.clone())
            .queue_bytes(l5, 10_000)
            .queue_override(l5, QueueOverride::Packets(5))
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::DuplicateQueueOverride(l5));
        let bogus = nni_topology::LinkId(99);
        let err = Scenario::builder("t", paper.topology.clone())
            .queue_bytes(bogus, 10_000)
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownLink(bogus));
    }

    #[test]
    fn builder_of_revalidates_an_edited_scenario() {
        let paper = topology_a(0.05, 0.05);
        let mut s = Scenario::builder("t", paper.topology.clone())
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap();
        // A valid edit re-validates Ok …
        s.measurement.seed = 99;
        let s = ScenarioBuilder::of(s).build().expect("still valid");
        assert_eq!(s.measurement.seed, 99);
        // … an invalid one surfaces as the typed error.
        let mut broken = s.clone();
        broken.path_traffic[0].1.cc = CcFleet::Mixed(Vec::new());
        assert_eq!(
            ScenarioBuilder::of(broken).build().unwrap_err(),
            ScenarioError::EmptyCcFleet
        );
    }

    #[test]
    fn measurement_fingerprint_ignores_inference_axes_only() {
        let paper = topology_a(0.05, 0.05);
        let l5 = paper.topology.link_by_name("l5").unwrap();
        let mech = policer_at_fraction(&paper.topology, l5, 1, 0.2, 0.01);
        let base = Scenario::builder("t", paper.topology.clone())
            .classes(paper.classes.clone())
            .differentiate(mech.0, mech.1)
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap();
        let fp = base.measurement_fingerprint();

        // Inference-side knobs (and the seed, and the name) leave the
        // fingerprint alone — that is what lets a threshold sweep share one
        // simulation.
        let mut s = base.clone();
        s.name = "renamed".into();
        s.measurement.seed ^= 0xFFFF;
        s.measurement.loss_threshold = 0.05;
        s.measurement.normalize_salt = 0x1234;
        s.inference = nni_core::Config::exact();
        s.expectation = Expectation::nonneutral(vec![l5]);
        // The delay feature is inference-side too (needs record_delay to
        // build, but the raw-field edit shows it alone leaves the
        // fingerprint untouched).
        s.measurement.delay_feature = Some(nni_core::DelayFeature::default());
        assert_eq!(s.measurement_fingerprint(), fp);

        // Every measurement-shaping axis moves it.
        let mut s = base.clone();
        s.measurement.duration_s += 1.0;
        assert_ne!(s.measurement_fingerprint(), fp);
        let mut s = base.clone();
        s.measurement.warmup_s = Some(0.5);
        assert_ne!(s.measurement_fingerprint(), fp);
        let mut s = base.clone();
        s.differentiation.clear();
        assert_ne!(s.measurement_fingerprint(), fp);
        let mut s = base.clone();
        s.path_traffic[0].1.parallel += 1;
        assert_ne!(s.measurement_fingerprint(), fp);
        let mut s = base.clone();
        s.queue_overrides.push((l5, QueueOverride::Packets(9)));
        assert_ne!(s.measurement_fingerprint(), fp);
        let mut s = base.clone();
        s.classes.push(vec![]);
        assert_ne!(s.measurement_fingerprint(), fp);
        // Delay recording changes what the emulator measures.
        let mut s = base.clone();
        s.measurement.record_delay = true;
        assert_ne!(s.measurement_fingerprint(), fp);
    }

    #[test]
    fn delay_feature_requires_recording() {
        let paper = topology_a(0.05, 0.05);
        // Raw-field edit: feature without recording is a typed build error.
        let mut s = Scenario::builder("t", paper.topology.clone())
            .path_traffic(PathId(0), profile())
            .build()
            .unwrap();
        s.measurement.delay_feature = Some(nni_core::DelayFeature::default());
        assert_eq!(
            ScenarioBuilder::of(s).build().unwrap_err(),
            ScenarioError::DelayFeatureWithoutRecording
        );
        // The builder setter enables recording alongside the feature.
        let s = Scenario::builder("t", paper.topology.clone())
            .path_traffic(PathId(0), profile())
            .delay_feature(nni_core::DelayFeature::default())
            .build()
            .unwrap();
        assert!(s.measurement.record_delay);
        assert!(s.measurement.delay_feature.is_some());
        // Recording without the feature is fine (loss-only inference over a
        // delay-carrying set).
        let s = Scenario::builder("t", paper.topology.clone())
            .path_traffic(PathId(0), profile())
            .record_delay(true)
            .build()
            .unwrap();
        assert!(s.measurement.record_delay);
        assert!(s.measurement.delay_feature.is_none());
    }

    #[test]
    fn with_seed_only_touches_the_seed() {
        let paper = topology_a(0.05, 0.05);
        let s = Scenario::builder("t", paper.topology.clone())
            .path_traffic(PathId(0), profile())
            .seed(7)
            .build()
            .unwrap();
        let t = s.with_seed(8);
        assert_eq!(t.measurement.seed, 8);
        assert_eq!(t.measurement.duration_s, s.measurement.duration_s);
        assert_eq!(t.name, s.name);
    }
}
