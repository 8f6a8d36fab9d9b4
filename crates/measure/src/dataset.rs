//! The dataset seam between measurement acquisition and inference.
//!
//! Algorithm 2 (and everything downstream of it) consumes only per-interval,
//! per-path sent/lost counts plus the path structure of the network — no
//! link-level information crosses the boundary. A [`MeasurementSet`] makes
//! that boundary a first-class, serializable artifact: the measurement log,
//! the topology/path metadata, the per-class path partition, and provenance.
//! Anything that can produce one — a live emulator, an on-disk corpus file,
//! a remote collector — is a [`MeasurementSource`]; a [`MeasurementCache`]
//! memoizes acquisition by [`SetKey`] so sweeps that revisit a member never
//! re-measure.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::record::MeasurementLog;
use nni_topology::{PathId, Topology};

/// Where a measurement set came from: enough to reproduce it (scenario
/// fingerprint + seed) and to audit it (names, build).
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Human-readable scenario name.
    pub scenario: String,
    /// Fingerprint of the measurement-relevant scenario axes (topology,
    /// traffic, differentiation, window — everything that shapes the counts
    /// *except* the seed). Together with `seed` it identifies the
    /// measurement uniquely.
    pub scenario_fingerprint: u64,
    /// Simulation / collection seed.
    pub seed: u64,
    /// Build fingerprint of the producer (e.g. emulator crate version and
    /// event-queue implementation), for cross-version corpus audits.
    pub build: String,
}

/// Everything inference needs and nothing it doesn't: the raw measurement
/// log, the topology whose paths the log indexes, the per-class path
/// partition, and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementSet {
    /// The network's path structure (inference enumerates slices over it;
    /// link capacities/delays ride along as metadata).
    pub topology: Topology,
    /// Performance-class partition of the measured paths.
    pub classes: Vec<Vec<PathId>>,
    /// Per-interval, per-path sent/lost counts.
    pub log: MeasurementLog,
    /// Where the measurements came from.
    pub provenance: Provenance,
}

impl MeasurementSet {
    /// The `(scenario fingerprint, seed)` identity of this set.
    pub fn key(&self) -> SetKey {
        SetKey {
            fingerprint: self.provenance.scenario_fingerprint,
            seed: self.provenance.seed,
        }
    }

    /// FNV-1a over every field — log cells, topology structure, classes,
    /// and provenance. Two sets are `==` iff their fingerprints match (up
    /// to hash collisions); the golden-corpus CI gate pins these values.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.provenance.scenario);
        h.word(self.provenance.scenario_fingerprint);
        h.word(self.provenance.seed);
        h.str(&self.provenance.build);
        // Topology: nodes, links (f64 bit patterns), paths.
        h.word(self.topology.nodes().len() as u64);
        for n in self.topology.nodes() {
            h.word(matches!(n.kind, nni_topology::NodeKind::Host) as u64);
            h.str(&n.name);
        }
        h.word(self.topology.link_count() as u64);
        for l in self.topology.links() {
            h.word(l.src.index() as u64);
            h.word(l.dst.index() as u64);
            h.word(l.capacity_bps.to_bits());
            h.word(l.delay_s.to_bits());
            h.str(&l.name);
        }
        h.word(self.topology.path_count() as u64);
        for p in self.topology.paths() {
            h.str(p.name());
            h.word(p.len() as u64);
            for l in p.links() {
                h.word(l.index() as u64);
            }
        }
        h.word(self.classes.len() as u64);
        for class in &self.classes {
            h.word(class.len() as u64);
            for p in class {
                h.word(p.index() as u64);
            }
        }
        // Log: every (interval, path) cell.
        h.word(self.log.interval_s().to_bits());
        h.word(self.log.path_count() as u64);
        h.word(self.log.interval_count() as u64);
        for t in 0..self.log.interval_count() {
            for p in 0..self.log.path_count() {
                h.word(self.log.sent(t, PathId(p)));
                h.word(self.log.lost(t, PathId(p)));
            }
        }
        // Delay grid: folded only when present, so loss-only sets keep the
        // exact pre-delay fingerprints the golden-corpus CI gate pins.
        if self.log.has_delay() {
            h.word(1);
            for t in 0..self.log.interval_count() {
                for p in 0..self.log.path_count() {
                    match self.log.delay(t, PathId(p)) {
                        Some(s) => {
                            h.word(1);
                            h.word(s.count);
                            h.word(s.p50_s.to_bits());
                            h.word(s.p90_s.to_bits());
                            h.word(s.p99_s.to_bits());
                        }
                        None => h.word(0),
                    }
                }
            }
        }
        h.0
    }
}

/// The repo's fingerprinting workhorse (same constants as the golden
/// `SimReport` fingerprints) — the shared implementation lives in
/// `nni-core` so every fingerprint family folds through one FNV-1a.
pub use nni_core::Fnv;

/// Identity of a measurement set: which scenario (fingerprint over its
/// measurement-relevant axes) at which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetKey {
    /// Scenario fingerprint (seed excluded).
    pub fingerprint: u64,
    /// Acquisition seed.
    pub seed: u64,
}

impl std::fmt::Display for SetKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}-s{}", self.fingerprint, self.seed)
    }
}

/// Why a source failed to produce its measurement set.
#[derive(Debug)]
pub enum SourceError {
    /// Underlying I/O failure (corpus files).
    Io(std::io::Error),
    /// The stored bytes did not decode (corpus files).
    Codec(crate::codec::CodecError),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Io(e) => write!(f, "i/o error: {e}"),
            SourceError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> SourceError {
        SourceError::Io(e)
    }
}

impl From<crate::codec::CodecError> for SourceError {
    fn from(e: crate::codec::CodecError) -> SourceError {
        SourceError::Codec(e)
    }
}

/// Anything that can produce a [`MeasurementSet`]: the live emulator (an
/// `Experiment` in `nni-scenario`) or an on-disk corpus entry.
pub trait MeasurementSource {
    /// The `(scenario fingerprint, seed)` identity of the set this source
    /// yields — known *without* acquiring, so caches can hit first.
    fn key(&self) -> SetKey;

    /// Produces (simulates, loads, …) the measurement set.
    fn acquire(&self) -> Result<MeasurementSet, SourceError>;
}

/// In-memory memoization of measurement acquisition, keyed by [`SetKey`].
///
/// Thread-safe (a `Mutex` map handing out `Arc`s), so a sharded executor
/// can fill it from worker threads while re-inference consumers read it.
#[derive(Debug, Default)]
pub struct MeasurementCache {
    map: Mutex<HashMap<SetKey, Arc<MeasurementSet>>>,
    hits: Mutex<u64>,
}

impl MeasurementCache {
    /// An empty cache.
    pub fn new() -> MeasurementCache {
        MeasurementCache::default()
    }

    /// Cache lookup (bumps the hit counter when found).
    pub fn get(&self, key: SetKey) -> Option<Arc<MeasurementSet>> {
        let found = self
            .map
            .lock()
            .expect("unpoisoned cache")
            .get(&key)
            .cloned();
        if found.is_some() {
            *self.hits.lock().expect("unpoisoned counter") += 1;
        }
        found
    }

    /// Stores a set under `key`; returns the cached value (the existing one
    /// if a concurrent insert won the race).
    pub fn insert(&self, key: SetKey, set: Arc<MeasurementSet>) -> Arc<MeasurementSet> {
        self.map
            .lock()
            .expect("unpoisoned cache")
            .entry(key)
            .or_insert(set)
            .clone()
    }

    /// Number of distinct cached sets.
    pub fn len(&self) -> usize {
        self.map.lock().expect("unpoisoned cache").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many lookups were served from memory.
    pub fn hits(&self) -> u64 {
        *self.hits.lock().expect("unpoisoned counter")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_topology::TopologyBuilder;

    fn tiny_set(seed: u64) -> MeasurementSet {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let l0 = b.link("l0", h0, h1).unwrap();
        b.path("p0", vec![l0]).unwrap();
        let mut log = MeasurementLog::new(1, 0.1);
        log.record_sent(0, PathId(0), 10 + seed);
        log.record_lost(0, PathId(0), 1);
        MeasurementSet {
            topology: b.build(),
            classes: vec![vec![PathId(0)]],
            log,
            provenance: Provenance {
                scenario: "tiny".into(),
                scenario_fingerprint: 0xABCD,
                seed,
                build: "test".into(),
            },
        }
    }

    #[test]
    fn fingerprint_tracks_equality() {
        let a = tiny_set(1);
        let b = tiny_set(1);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = tiny_set(2);
        assert_ne!(a, c);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(
            a.key(),
            SetKey {
                fingerprint: 0xABCD,
                seed: 1
            }
        );
    }

    #[test]
    fn delay_grid_changes_the_fingerprint() {
        let a = tiny_set(1);
        let mut b = tiny_set(1);
        b.log
            .set_delay(vec![vec![crate::record::DelayStats::from_sorted_ns(&[
                1_000_000,
            ])]]);
        assert_ne!(a, b);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
