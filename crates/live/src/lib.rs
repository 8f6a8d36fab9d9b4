//! # nni-live
//!
//! Online inference over a growing corpus directory: the consumer half of
//! the streaming subsystem.
//!
//! A [`LiveMonitor`] turns the arrival stream of a
//! [`CorpusTail`](nni_measure::CorpusTail) into a stream of
//! [`VerdictUpdate`]s — one inference session per measurement identity
//! ([`SetKey`]: scenario fingerprint + seed), re-clustered on every newly
//! closed interval via [`StreamingInference`]:
//!
//! * **segments** (`.nniseg`, e.g. from `nni-serviced --follow`) feed their
//!   session incrementally — one Algorithm 2 evaluation per group per
//!   interval, then the cheap decision half of Algorithm 1, never a full
//!   recompute;
//! * **complete entries** (`.nniset`) replay through the same incremental
//!   path interval by interval, so the update stream looks the same
//!   whether the producer spilled live or all at once;
//! * **a second vantage** for an identity already being watched (another
//!   entry or segment with the same key) is merged on the fly:
//!   [`MeasurementLog::merge`] sums the vantage logs cell-wise, the
//!   session [`rebase`](StreamingInference::rebase)s its counters, and one
//!   `"rebase"` update carries the re-derived verdict — the exact
//!   fallback, since merge rewrites frozen history;
//! * **corrupt segment regions** degrade instead of killing the session:
//!   the tail's follower skips to the next valid chunk
//!   ([`TailEvent::SegmentGap`]), the monitor zero-fills the lost
//!   intervals and emits one `"resync"` update, and every later verdict
//!   from that session carries `"degraded":true`.
//!
//! Every emitted verdict is checkable against batch inference over the
//! session's merged log at the same watermark;
//! [`LiveMonitor::verify_batch`] performs exactly that check (the
//! `nni-live --verify-batch` exit gate), and
//! `tests/streaming_convergence.rs` pins the convergence across the
//! identity suite and the randomized population.
//!
//! The [`run_live`] loop in [`run`] is the `nni-live` binary's engine: it
//! drives a monitor over either a local
//! [`CorpusTail`](nni_measure::CorpusTail) or a remote
//! [`RemoteTail`](nni_measure::RemoteTail) relay connection
//! (`nni-live --connect`, fed by `nni-serviced --serve-segments`) — the
//! same events, the same degraded semantics, over a socket.

pub mod run;

pub use run::{run_live, RunConfig, RunError, RunStats, TailSource};

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use nni_core::InferenceResult;
use nni_measure::{
    MeasurementLog, MeasurementSet, MeasurementSource, MergeError, SetKey, SourceError,
    StreamError, StreamingLog, TailEvent,
};
use nni_scenario::{infer, InferenceConfig, Provenance, StreamingInference};
use nni_topology::{PathId, Topology};

/// How a [`LiveMonitor`] runs its inference sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveConfig {
    /// The inference configuration every session runs under.
    pub inference: InferenceConfig,
    /// Sliding window (closed intervals) per session; `None` = full
    /// history. Windowed verdicts converge to batch inference over the
    /// window-truncated log instead of the full one.
    pub window: Option<usize>,
}

/// Whether an update extends frozen history or rewrites it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// New closed intervals were folded into the counters in place.
    Incremental,
    /// A merge rewrote consumed intervals; the session rebased and
    /// replayed the merged log (the exact fallback).
    Rebase,
    /// A corrupt segment region was skipped: the missing intervals were
    /// zero-filled and the session resumed past them.
    Resync,
}

impl UpdateMode {
    /// The JSONL tag.
    pub fn as_str(self) -> &'static str {
        match self {
            UpdateMode::Incremental => "incremental",
            UpdateMode::Rebase => "rebase",
            UpdateMode::Resync => "resync",
        }
    }
}

/// One re-derived verdict, emitted per newly closed interval (or per
/// vantage merge).
#[derive(Debug, Clone)]
pub struct VerdictUpdate {
    /// Human-readable scenario name (from provenance).
    pub scenario: String,
    /// Scenario fingerprint (seed excluded) — the session identity's
    /// first half.
    pub scenario_fingerprint: u64,
    /// Acquisition seed — the identity's second half.
    pub seed: u64,
    /// Watermark: closed intervals folded in when this verdict was taken.
    pub interval: usize,
    /// Vantage logs merged into the session so far.
    pub vantages: usize,
    /// Whether Algorithm 1 currently flags any non-neutral link sequence.
    pub nonneutral: bool,
    /// Fingerprint of the full [`InferenceResult`] — comparable against
    /// batch re-inference of the same log prefix.
    pub result_fingerprint: u64,
    /// Incremental extension, merge-triggered rebase, or corruption
    /// resync.
    pub mode: UpdateMode,
    /// Whether this session has ever lost intervals to segment
    /// corruption. Once set it stays set: every later verdict from the
    /// session is derived from an incomplete log.
    pub degraded: bool,
}

impl VerdictUpdate {
    /// The update as one JSON line (no trailing newline).
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"type\":\"update\",\"scenario\":\"{}\",\"fingerprint\":\"{:016x}\",\
             \"seed\":{},\"interval\":{},\"vantages\":{},\"nonneutral\":{},\
             \"result\":\"{:016x}\",\"mode\":\"{}\",\"degraded\":{}}}",
            esc(&self.scenario),
            self.scenario_fingerprint,
            self.seed,
            self.interval,
            self.vantages,
            self.nonneutral,
            self.result_fingerprint,
            self.mode.as_str(),
            self.degraded,
        )
    }
}

/// Why the monitor refused an arrival.
#[derive(Debug)]
pub enum LiveError {
    /// A corpus entry failed to load.
    Source(SourceError),
    /// Interval rows refused to append to the session's log.
    Stream(StreamError),
    /// Two vantage logs refused to merge (grid or path-count mismatch).
    Merge(MergeError),
    /// A second vantage for a key disagrees on topology or classes —
    /// same identity must mean same measured network.
    VantageMismatch(SetKey),
    /// Interval rows arrived for a segment whose header was never seen.
    UnknownSegment(PathBuf),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Source(e) => write!(f, "entry failed to load: {e}"),
            LiveError::Stream(e) => write!(f, "interval append refused: {e}"),
            LiveError::Merge(e) => write!(f, "vantage merge refused: {e}"),
            LiveError::VantageMismatch(key) => {
                write!(f, "vantage for {key} disagrees on topology/classes")
            }
            LiveError::UnknownSegment(p) => {
                write!(f, "intervals for unknown segment {}", p.display())
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<SourceError> for LiveError {
    fn from(e: SourceError) -> LiveError {
        LiveError::Source(e)
    }
}

impl From<StreamError> for LiveError {
    fn from(e: StreamError) -> LiveError {
        LiveError::Stream(e)
    }
}

impl From<MergeError> for LiveError {
    fn from(e: MergeError) -> LiveError {
        LiveError::Merge(e)
    }
}

/// One inference session: everything known about one measurement identity.
#[derive(Debug)]
struct Session {
    topology: Topology,
    classes: Vec<Vec<PathId>>,
    provenance: Provenance,
    /// The merged multi-vantage log; its watermark is the verdict
    /// watermark.
    stream: StreamingLog,
    live: StreamingInference,
    vantages: usize,
    /// The segment file feeding this session incrementally, if any — the
    /// first segment vantage keeps the cheap append path; everything else
    /// goes through merge + rebase.
    primary: Option<PathBuf>,
    /// Intervals have been lost to segment corruption; sticky.
    degraded: bool,
}

impl Session {
    fn update(&mut self, key: SetKey, mode: UpdateMode) -> VerdictUpdate {
        let result = self.live.verdict();
        VerdictUpdate {
            scenario: self.provenance.scenario.clone(),
            scenario_fingerprint: key.fingerprint,
            seed: key.seed,
            interval: self.live.consumed(),
            vantages: self.vantages,
            nonneutral: result.network_is_nonneutral(),
            result_fingerprint: result.fingerprint(),
            mode,
            degraded: self.degraded,
        }
    }

    /// Merges `delta` (another vantage's counts) into the session log and
    /// replays: the exact fallback for history rewrites.
    fn merge_and_rebase(&mut self, delta: &MeasurementLog) -> Result<(), LiveError> {
        let placeholder = StreamingLog::new(delta.path_count(), delta.interval_s());
        let mut log = std::mem::replace(&mut self.stream, placeholder).into_log();
        log.merge(delta)?;
        let mut stream = StreamingLog::from_log(log);
        stream.close_all();
        self.stream = stream;
        self.live.rebase();
        self.live.advance(self.stream.log(), self.stream.closed());
        Ok(())
    }
}

/// A mismatch found by [`LiveMonitor::verify_batch`]: the streaming
/// verdict diverged from batch inference over the same log.
#[derive(Debug, Clone)]
pub struct VerifyMismatch {
    /// The diverging session.
    pub key: SetKey,
    /// What the streaming session reports.
    pub streaming: u64,
    /// What batch inference over the merged log computes.
    pub batch: u64,
}

/// Multi-session online inference over a [`TailEvent`] stream.
///
/// Feed it every event a [`CorpusTail`](nni_measure::CorpusTail) yields;
/// it returns the verdict updates the arrival produced (none for headers
/// and corrupt files — the caller decides how to report those).
#[derive(Debug)]
pub struct LiveMonitor {
    cfg: LiveConfig,
    /// Sessions in arrival order (stable iteration for summaries and
    /// verification), indexed by identity.
    sessions: Vec<(SetKey, Session)>,
    index: HashMap<SetKey, usize>,
    /// Segment file → the session it feeds.
    by_path: HashMap<PathBuf, SetKey>,
}

impl LiveMonitor {
    /// A monitor with no sessions yet.
    pub fn new(cfg: LiveConfig) -> LiveMonitor {
        LiveMonitor {
            cfg,
            sessions: Vec::new(),
            index: HashMap::new(),
            by_path: HashMap::new(),
        }
    }

    /// Sessions currently tracked.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The identities tracked, in arrival order.
    pub fn keys(&self) -> impl Iterator<Item = SetKey> + '_ {
        self.sessions.iter().map(|(k, _)| *k)
    }

    /// Consumes one tail arrival, returning the verdict updates it
    /// produced. [`TailEvent::Corrupt`] produces none — surface it from
    /// the tail loop instead.
    pub fn handle(&mut self, event: TailEvent) -> Result<Vec<VerdictUpdate>, LiveError> {
        match event {
            TailEvent::Entry(entry) => {
                let set = entry.acquire()?;
                self.ingest_set(set)
            }
            TailEvent::SegmentHeader { path, set } => {
                self.ingest_header(path, set)?;
                Ok(Vec::new())
            }
            TailEvent::SegmentIntervals {
                path,
                first_t,
                rows,
            } => self.ingest_intervals(&path, first_t, &rows),
            TailEvent::SegmentGap {
                path,
                from_interval,
                to_interval,
                ..
            } => self.ingest_gap(&path, from_interval, to_interval),
            TailEvent::Corrupt { .. } => Ok(Vec::new()),
        }
    }

    /// A corrupt region of a live segment was skipped: intervals
    /// `from_interval..to_interval` are gone for good. On the in-sync
    /// primary segment the session zero-fills the lost intervals (no
    /// packets observed) and advances, so the rows that follow still
    /// append at the watermark; either way the session is marked degraded
    /// and every later verdict carries the tag.
    fn ingest_gap(
        &mut self,
        path: &Path,
        from_interval: usize,
        to_interval: usize,
    ) -> Result<Vec<VerdictUpdate>, LiveError> {
        let Some(&key) = self.by_path.get(path) else {
            return Err(LiveError::UnknownSegment(path.to_path_buf()));
        };
        let i = self.index[&key];
        let session = &mut self.sessions[i].1;
        session.degraded = true;
        let appendable =
            session.primary.as_deref() == Some(path) && from_interval == session.stream.closed();
        if !appendable || to_interval <= from_interval {
            // Non-primary vantages merge their rows as deltas; a gap in
            // one simply means fewer rows to merge.
            return Ok(Vec::new());
        }
        let zeros = vec![0u64; session.stream.log().path_count()];
        for _ in from_interval..to_interval {
            session.stream.append_interval(&zeros, &zeros)?;
        }
        session
            .live
            .advance(session.stream.log(), session.stream.closed());
        Ok(vec![session.update(key, UpdateMode::Resync)])
    }

    /// A complete measurement set landed: the first vantage's log becomes
    /// the session log whole, and the engine replays it one interval per
    /// update; a repeat identity merges as a new vantage.
    fn ingest_set(&mut self, set: MeasurementSet) -> Result<Vec<VerdictUpdate>, LiveError> {
        let key = set.key();
        if let Some(&i) = self.index.get(&key) {
            let session = &mut self.sessions[i].1;
            if session.topology != set.topology || session.classes != set.classes {
                return Err(LiveError::VantageMismatch(key));
            }
            session.merge_and_rebase(&set.log)?;
            session.vantages += 1;
            return Ok(vec![self.sessions[i].1.update(key, UpdateMode::Rebase)]);
        }

        let i = self.open_session(key, &set);
        let session = &mut self.sessions[i].1;
        let mut log = set.log;
        // Sessions track counts only: a delay grid would refuse every
        // later vantage merge.
        log.clear_delay();
        session.stream = StreamingLog::from_log(log);
        session.stream.close_all();
        let closed = session.stream.closed();
        let mut updates = Vec::with_capacity(closed);
        for t in 1..=closed {
            session.live.advance(session.stream.log(), t);
            updates.push(session.update(key, UpdateMode::Incremental));
        }
        Ok(updates)
    }

    /// A segment announced itself: open (or join) the session and remember
    /// which file feeds it.
    fn ingest_header(&mut self, path: PathBuf, set: MeasurementSet) -> Result<(), LiveError> {
        let key = set.key();
        match self.index.get(&key) {
            Some(&i) => {
                let session = &mut self.sessions[i].1;
                if session.topology != set.topology || session.classes != set.classes {
                    return Err(LiveError::VantageMismatch(key));
                }
                // A second vantage joins; its intervals will merge.
                session.vantages += 1;
            }
            None => {
                let i = self.open_session(key, &set);
                self.sessions[i].1.primary = Some(path.clone());
            }
        }
        self.by_path.insert(path, key);
        Ok(())
    }

    /// Newly complete interval rows of a live segment. The primary segment
    /// appends at the watermark (pure incremental); any other vantage —
    /// or a primary that fell behind a merge — goes through merge +
    /// rebase.
    fn ingest_intervals(
        &mut self,
        path: &Path,
        first_t: usize,
        rows: &[(Vec<u64>, Vec<u64>)],
    ) -> Result<Vec<VerdictUpdate>, LiveError> {
        let Some(&key) = self.by_path.get(path) else {
            return Err(LiveError::UnknownSegment(path.to_path_buf()));
        };
        let i = self.index[&key];
        let session = &mut self.sessions[i].1;

        let appendable =
            session.primary.as_deref() == Some(path) && first_t == session.stream.closed();
        if appendable {
            let mut updates = Vec::with_capacity(rows.len());
            for (sent, lost) in rows {
                session.stream.append_interval(sent, lost)?;
                session
                    .live
                    .advance(session.stream.log(), session.stream.closed());
                updates.push(session.update(key, UpdateMode::Incremental));
            }
            return Ok(updates);
        }

        // Another vantage's rows (or out-of-position primary rows after a
        // merge extended the log): express them as a delta log and merge.
        let log = session.stream.log();
        let mut delta = MeasurementLog::new(log.path_count(), log.interval_s());
        for (i, (sent, lost)) in rows.iter().enumerate() {
            for (p, (&s, &l)) in sent.iter().zip(lost).enumerate() {
                delta.record_sent(first_t + i, PathId(p), s);
                delta.record_lost(first_t + i, PathId(p), l);
            }
        }
        session.merge_and_rebase(&delta)?;
        Ok(vec![session.update(key, UpdateMode::Rebase)])
    }

    fn open_session(&mut self, key: SetKey, set: &MeasurementSet) -> usize {
        let live = match self.cfg.window {
            Some(w) => StreamingInference::windowed(
                &set.topology,
                set.provenance.seed,
                &self.cfg.inference,
                w,
            ),
            None => {
                StreamingInference::new(&set.topology, set.provenance.seed, &self.cfg.inference)
            }
        };
        let session = Session {
            topology: set.topology.clone(),
            classes: set.classes.clone(),
            provenance: set.provenance.clone(),
            stream: StreamingLog::new(set.log.path_count(), set.log.interval_s()),
            live,
            vantages: 1,
            primary: None,
            degraded: false,
        };
        let i = self.sessions.len();
        self.sessions.push((key, session));
        self.index.insert(key, i);
        i
    }

    /// Checks every session's current verdict against batch inference over
    /// its merged log (window-truncated when windowed): the streaming
    /// guarantee, enforced at runtime. Returns the divergences — empty
    /// means every live verdict is bit-identical to its batch
    /// counterpart.
    pub fn verify_batch(&self) -> Vec<VerifyMismatch> {
        let mut mismatches = Vec::new();
        for (key, session) in &self.sessions {
            let log = session.stream.log();
            let t_max = session.stream.closed();
            // Windowed sessions compare against the same log with the
            // aged-out prefix zeroed — same interval indices, so the
            // normalization draws line up.
            let keep_from = match self.cfg.window {
                Some(w) => t_max.saturating_sub(w),
                None => 0,
            };
            let mut batch_log = MeasurementLog::new(log.path_count(), log.interval_s());
            for t in keep_from..t_max {
                for p in 0..log.path_count() {
                    batch_log.record_sent(t, PathId(p), log.sent(t, PathId(p)));
                    batch_log.record_lost(t, PathId(p), log.lost(t, PathId(p)));
                }
            }
            if t_max > 0 && batch_log.interval_count() < t_max {
                batch_log.record_sent(t_max - 1, PathId(0), 0);
            }
            let batch_set = MeasurementSet {
                topology: session.topology.clone(),
                classes: session.classes.clone(),
                log: batch_log,
                provenance: session.provenance.clone(),
            };
            let streaming = session.live.verdict().fingerprint();
            let batch = infer(&batch_set, &self.cfg.inference).fingerprint();
            if streaming != batch {
                mismatches.push(VerifyMismatch {
                    key: *key,
                    streaming,
                    batch,
                });
            }
        }
        mismatches
    }

    /// The current verdict of one session, if tracked.
    pub fn verdict(&self, key: SetKey) -> Option<InferenceResult> {
        let &i = self.index.get(&key)?;
        Some(self.sessions[i].1.live.verdict())
    }

    /// The merged log watermark of one session, if tracked.
    pub fn watermark(&self, key: SetKey) -> Option<usize> {
        let &i = self.index.get(&key)?;
        Some(self.sessions[i].1.stream.closed())
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_measure::{Corpus, CorpusTail, SegmentWriter};
    use nni_scenario::library::{topology_a_scenario, ExperimentParams, Mechanism};

    fn recorded_set(seed: u64) -> MeasurementSet {
        let mut s = topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            duration_s: 4.0,
            ..ExperimentParams::default()
        });
        s.measurement.warmup_s = Some(1.0);
        s.with_seed(seed).compile().simulate()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nni-live-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_arrival_streams_one_update_per_interval() {
        let dir = temp_dir("entry");
        let set = recorded_set(3);
        Corpus::open(&dir).unwrap().store(&set).unwrap();

        let mut tail = CorpusTail::open(&dir).unwrap();
        let mut monitor = LiveMonitor::new(LiveConfig::default());
        let mut updates = Vec::new();
        for e in tail.poll().unwrap() {
            updates.extend(monitor.handle(e).unwrap());
        }
        assert_eq!(updates.len(), set.log.interval_count());
        let last = updates.last().unwrap();
        assert_eq!(last.interval, set.log.interval_count());
        assert_eq!(last.vantages, 1);
        assert_eq!(last.mode, UpdateMode::Incremental);
        assert_eq!(
            last.result_fingerprint,
            infer(&set, &InferenceConfig::default()).fingerprint()
        );
        assert!(monitor.verify_batch().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_arrival_streams_chunks_incrementally() {
        let dir = temp_dir("segment");
        std::fs::create_dir_all(&dir).unwrap();
        let set = recorded_set(3);
        let path = dir.join(nni_measure::segment_file_name(&set.provenance));
        let mut w = SegmentWriter::create(&path, &set).unwrap();

        let mut tail = CorpusTail::open(&dir).unwrap();
        let mut monitor = LiveMonitor::new(LiveConfig::default());
        let total = set.log.interval_count();
        let mut updates = Vec::new();
        let mut from = 0;
        while from < total {
            let to = (from + 7).min(total);
            w.append_intervals(&set.log, from, to).unwrap();
            from = to;
            for e in tail.poll().unwrap() {
                updates.extend(monitor.handle(e).unwrap());
            }
        }
        assert_eq!(updates.len(), total);
        assert!(updates.iter().all(|u| u.mode == UpdateMode::Incremental));
        assert_eq!(
            updates.last().unwrap().result_fingerprint,
            infer(&set, &InferenceConfig::default()).fingerprint()
        );
        assert!(monitor.verify_batch().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_vantage_merges_and_rebases() {
        let set = recorded_set(5);
        let n = set.log.path_count();
        // Split into two vantage logs by interval parity.
        let mut a = MeasurementLog::new(n, set.log.interval_s());
        let mut b = MeasurementLog::new(n, set.log.interval_s());
        for t in 0..set.log.interval_count() {
            let dst = if t % 2 == 0 { &mut a } else { &mut b };
            for p in 0..n {
                dst.record_sent(t, PathId(p), set.log.sent(t, PathId(p)));
                dst.record_lost(t, PathId(p), set.log.lost(t, PathId(p)));
            }
            let other = if t % 2 == 0 { &mut b } else { &mut a };
            other.record_sent(t, PathId(0), 0);
        }
        let vantage = |log: MeasurementLog| MeasurementSet {
            topology: set.topology.clone(),
            classes: set.classes.clone(),
            log,
            provenance: set.provenance.clone(),
        };

        let mut monitor = LiveMonitor::new(LiveConfig::default());
        let first = monitor.ingest_set(vantage(a)).unwrap();
        assert!(first.iter().all(|u| u.vantages == 1));
        let second = monitor.ingest_set(vantage(b)).unwrap();
        assert_eq!(second.len(), 1, "a merge emits one rebase update");
        assert_eq!(second[0].mode, UpdateMode::Rebase);
        assert_eq!(second[0].vantages, 2);
        assert_eq!(
            second[0].result_fingerprint,
            infer(&set, &InferenceConfig::default()).fingerprint(),
            "merged verdict equals batch inference over the full log"
        );
        assert!(monitor.verify_batch().is_empty());
    }

    #[test]
    fn a_delay_carrying_first_vantage_still_merges_a_second() {
        let set = recorded_set(5);
        let mut delayed = set.clone();
        delayed.log.set_delay(Vec::new());
        assert!(delayed.log.has_delay());

        let mut monitor = LiveMonitor::new(LiveConfig::default());
        let first = monitor.ingest_set(delayed).unwrap();
        assert_eq!(first.len(), set.log.interval_count());
        let second = monitor.ingest_set(set).unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].mode, UpdateMode::Rebase);
        assert_eq!(second[0].vantages, 2);
        assert!(monitor.verify_batch().is_empty());
    }

    #[test]
    fn vantage_with_different_topology_is_refused() {
        let set = recorded_set(3);
        let mut monitor = LiveMonitor::new(LiveConfig::default());
        monitor.ingest_set(set.clone()).unwrap();
        let mut other = set.clone();
        other.classes = vec![other.classes.concat()];
        match monitor.ingest_set(other) {
            Err(LiveError::VantageMismatch(key)) => assert_eq!(key, set.key()),
            other => panic!("expected a vantage mismatch, got {other:?}"),
        }
    }

    #[test]
    fn windowed_monitor_verifies_against_truncated_batch() {
        let set = recorded_set(3);
        let w = 10;
        assert!(set.log.interval_count() > w);
        let mut monitor = LiveMonitor::new(LiveConfig {
            window: Some(w),
            ..LiveConfig::default()
        });
        monitor.ingest_set(set).unwrap();
        assert!(monitor.verify_batch().is_empty());
    }
}
