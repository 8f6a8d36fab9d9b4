//! The runnable half of the API: [`Experiment`] and [`ExperimentOutcome`].
//!
//! An experiment is a compiled scenario: simulator link parameters and the
//! route table are materialized once, so repeated runs (and executor workers)
//! share the same pre-resolved inputs. Acquisition and inference are
//! decoupled: [`Experiment::simulate`] produces a [`MeasurementSet`] (the
//! experiment is a [`MeasurementSource`]), [`crate::infer()`] consumes one,
//! and [`Experiment::run`] is the thin fused composition of the two. Every
//! entry point is a pure function of the scenario — identical scenarios
//! produce bit-identical outcomes on any executor, which is what makes
//! run-sharding and measurement caching safe.

use std::sync::atomic::{AtomicU64, Ordering};

use nni_core::Quality;
use nni_emu::{
    background_route, link_params, measured_routes, LinkParams, Route, RouteId, SimConfig,
    SimReport, Simulator, TrafficProfile,
};
use nni_measure::{
    MeasurementLog, MeasurementSet, MeasurementSource, Provenance, SetKey, SourceError,
};

use crate::infer::InferenceConfig;
use crate::spec::Scenario;

/// Counts every packet-level simulation this process runs — the probe the
/// re-inference tests use to assert that an inference-axis sweep simulates
/// each distinct scenario exactly once.
static SIMULATIONS: AtomicU64 = AtomicU64::new(0);

/// Total number of packet-level simulations run by this process so far
/// (monotone; compare before/after deltas).
pub fn simulation_count() -> u64 {
    SIMULATIONS.load(Ordering::Relaxed)
}

/// A compiled, runnable scenario.
#[derive(Debug, Clone)]
pub struct Experiment {
    scenario: Scenario,
    links: Vec<LinkParams>,
    routes: Vec<Route>,
    traffic: Vec<(RouteId, TrafficProfile)>,
    /// `Scenario::measurement_fingerprint`, computed once at compile time —
    /// sweeps key their caches on it per member.
    fingerprint: u64,
}

impl Experiment {
    /// Compiles a scenario (also available as [`Scenario::compile`]).
    pub fn new(scenario: Scenario) -> Experiment {
        let g = &scenario.topology;
        let mut links = link_params(g, &scenario.differentiation);
        // Per-link queue overrides replace the BDP-derived default; the
        // simulation MSS is fixed by `SimConfig::default()` (see
        // [`Experiment::simulate`]), so packet-denominated overrides resolve
        // here, once.
        let mss = SimConfig::default().mss;
        for &(l, q) in &scenario.queue_overrides {
            links[l.index()].queue_bytes = Some(q.resolve_bytes(mss));
        }
        let mut routes = measured_routes(g);
        let mut traffic: Vec<(RouteId, TrafficProfile)> = scenario
            .path_traffic
            .iter()
            .map(|(path, profile)| (RouteId(path.index() as u32), profile.clone()))
            .collect();
        for bg in &scenario.background {
            let route = RouteId(routes.len() as u32);
            routes.push(background_route(bg.links.clone()));
            traffic.extend(bg.profiles.iter().map(|p| (route, p.clone())));
        }
        let fingerprint = scenario.measurement_fingerprint();
        Experiment {
            scenario,
            links,
            routes,
            traffic,
            fingerprint,
        }
    }

    /// The scenario this experiment was compiled from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The materialized per-link simulator parameters (queue overrides
    /// already applied).
    pub fn links(&self) -> &[LinkParams] {
        &self.links
    }

    /// The materialized route table: one measured route per topology path,
    /// then one route per background source.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// The materialized traffic sources as `(route, profile)` pairs, in
    /// path order then background order.
    pub fn traffic(&self) -> &[(RouteId, TrafficProfile)] {
        &self.traffic
    }

    /// Runs only the raw emulation: the packet-level simulation, without
    /// measurement packaging or inference. Deterministic in the scenario —
    /// the basis of the cross-implementation identity tests (which
    /// fingerprint the full report, ground truth and queue traces included).
    pub fn emulate(&self) -> SimReport {
        SIMULATIONS.fetch_add(1, Ordering::Relaxed);
        let s = &self.scenario;
        let m = &s.measurement;
        let mut cfg = SimConfig {
            duration_s: m.duration_s,
            interval_s: m.interval_s,
            seed: m.seed,
            record_delay: m.record_delay,
            ..SimConfig::default()
        };
        if let Some(warmup_s) = m.warmup_s {
            cfg.warmup_s = warmup_s;
        }
        let mut sim = Simulator::new(
            self.links.clone(),
            self.routes.clone(),
            s.topology.path_count(),
            s.class_label_count(),
            cfg,
        );
        for (route, profile) in &self.traffic {
            sim.add_traffic(*route, profile.clone());
        }
        sim.run()
    }

    /// Runs the acquisition half: emulate, then package the measurement log
    /// with the topology, class partition, and provenance into the
    /// serializable [`MeasurementSet`] any inference consumer accepts.
    pub fn simulate(&self) -> MeasurementSet {
        self.package(self.emulate().log)
    }

    /// Wraps an already-produced measurement log into this experiment's
    /// measurement set (topology, classes, and provenance attached) —
    /// for callers that already hold a [`SimReport`] and do not want to
    /// simulate again.
    pub fn package(&self, log: MeasurementLog) -> MeasurementSet {
        let s = &self.scenario;
        MeasurementSet {
            topology: s.topology.clone(),
            classes: s.classes.clone(),
            log,
            provenance: Provenance {
                scenario: s.name.clone(),
                scenario_fingerprint: self.fingerprint,
                seed: s.measurement.seed,
                build: nni_emu::build_fingerprint(),
            },
        }
    }

    /// Runs the experiment end to end — the *fused* legacy entry point, now
    /// a thin composition of [`Experiment::simulate`] and
    /// [`crate::infer_scored`] over the measurement-set seam (plus the raw
    /// report, which executors and baselines still want). Prefer the two
    /// halves when measurements are reused across inference configs.
    ///
    /// Takes `&self` so executors can run the same compiled experiment from
    /// several workers; every invocation is deterministic in the scenario.
    pub fn run(&self) -> ExperimentOutcome {
        self.outcome_from(self.emulate())
    }

    /// The inference-and-scoring half of [`Experiment::run`] over an
    /// already-produced report — how a [`ProcessExecutor`] parent turns a
    /// worker subprocess's shipped [`SimReport`] into the same outcome the
    /// fused path produces (inference is deterministic in the report, so
    /// only the report ever crosses the process boundary).
    ///
    /// [`ProcessExecutor`]: crate::ProcessExecutor
    pub fn outcome_from(&self, report: SimReport) -> ExperimentOutcome {
        let s = &self.scenario;
        // The borrowing core of `infer_scored`: identical inference over
        // the same seam, without materializing (cloning) a MeasurementSet
        // per run — run() is the executors' hot path.
        let scored = crate::infer::infer_scored_parts(
            &s.topology,
            &report.log,
            s.measurement.seed,
            &InferenceConfig::of(s),
            &s.expectation,
        );
        ExperimentOutcome {
            path_congestion: scored.path_congestion,
            flagged_nonneutral: scored.flagged_nonneutral,
            correct: scored.correct,
            quality: scored.quality,
            inference: scored.inference,
            report,
        }
    }
}

/// The live emulator as a measurement source: acquisition simulates.
impl MeasurementSource for Experiment {
    fn key(&self) -> SetKey {
        SetKey {
            fingerprint: self.fingerprint,
            seed: self.scenario.measurement.seed,
        }
    }

    fn acquire(&self) -> Result<MeasurementSet, SourceError> {
        Ok(self.simulate())
    }
}

/// Everything one experiment run produces. `PartialEq` compares every field
/// bit for bit — the executor-equivalence guarantee is checked with plain
/// `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// Per-measured-path congestion probability, in path order (the bars of
    /// a Figure 8 panel).
    pub path_congestion: Vec<f64>,
    /// Algorithm 1's verdict: any non-neutral link sequence found?
    pub flagged_nonneutral: bool,
    /// Whether the verdict matches the scenario's expectation.
    pub correct: bool,
    /// FN / FP / granularity against the expectation's non-neutral links.
    pub quality: Quality,
    /// The full inference result.
    pub inference: nni_core::InferenceResult,
    /// Raw simulation report (log, ground truth, queue traces, counters).
    pub report: SimReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Expectation;
    use nni_emu::{policer_at_fraction, CcKind};
    use nni_topology::library::topology_a;

    fn policing_scenario(seed: u64) -> Scenario {
        let paper = topology_a(0.05, 0.05);
        let l5 = paper.topology.link_by_name("l5").unwrap();
        let mech = policer_at_fraction(&paper.topology, l5, 1, 0.2, 0.01);
        let mut b = Scenario::builder("policing", paper.topology.clone())
            .classes(paper.classes.clone())
            .differentiate(mech.0, mech.1)
            .duration_s(20.0)
            .seed(seed)
            .expect(Expectation::nonneutral(vec![l5]));
        for p in paper.topology.path_ids() {
            let class = u8::from(paper.classes[1].contains(&p));
            b = b.path_traffic(
                p,
                TrafficProfile::pareto_bits(class, CcKind::Cubic, 10e6, 10.0, 8),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn run_is_deterministic_in_the_scenario() {
        let s = policing_scenario(5);
        let a = s.compile().run();
        let b = s.compile().run();
        assert_eq!(a, b, "same scenario must produce bit-identical outcomes");
        let c = s.with_seed(6).run();
        assert_ne!(
            a.report.segments_sent, c.report.segments_sent,
            "different seed must change the traffic"
        );
    }

    #[test]
    fn experiment_is_a_measurement_source() {
        let s = policing_scenario(5);
        let exp = s.compile();
        let key = exp.key();
        assert_eq!(key.seed, 5);
        assert_eq!(key.fingerprint, s.measurement_fingerprint());
        let before = simulation_count();
        let set = exp.acquire().expect("live acquisition is infallible");
        // Other unit tests simulate concurrently, so only monotonicity is
        // asserted here; the exact-count probe lives in the serialized
        // `tests/reinfer.rs` suite.
        assert!(simulation_count() > before, "acquire must simulate");
        assert_eq!(set.key(), key);
        assert_eq!(set.log, exp.emulate().log);
        assert_eq!(set.provenance.scenario, "policing");
        assert!(set.provenance.build.starts_with("nni-emu"));
        assert_eq!(set.classes, s.classes);
    }

    #[test]
    fn outcome_covers_all_measured_paths() {
        let out = policing_scenario(5).run();
        assert_eq!(out.path_congestion.len(), 4);
        assert!(out.report.segments_sent > 0);
        // The policed class congests more than the protected one.
        let c1 = (out.path_congestion[0] + out.path_congestion[1]) / 2.0;
        let c2 = (out.path_congestion[2] + out.path_congestion[3]) / 2.0;
        assert!(c2 > c1, "policed paths must congest more: {c1} vs {c2}");
    }
}
