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
use nni_measure::jsonl::escape;
use nni_measure::{IntervalRows, MeasurementLog, MeasurementSet, MergeError, SetKey, TailEvent};
use nni_scenario::{infer, InferenceConfig, StreamingInference};
use nni_topology::PathId;

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
            escape(&self.scenario),
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
    /// Counts refused to join the session log: a vantage log on another
    /// grid or path count, or interval rows whose width is not the
    /// session's path count.
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
            LiveError::Merge(e) => write!(f, "log merge refused: {e}"),
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

impl From<MergeError> for LiveError {
    fn from(e: MergeError) -> LiveError {
        LiveError::Merge(e)
    }
}

/// One inference session: everything known about one measurement identity.
#[derive(Debug)]
struct Session {
    /// The measured network and the merged multi-vantage log, counts only.
    /// Every recorded interval is closed: the log's interval count is the
    /// verdict watermark.
    set: MeasurementSet,
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
    fn update(&self, key: SetKey, mode: UpdateMode) -> VerdictUpdate {
        let result = self.live.verdict();
        VerdictUpdate {
            scenario: self.set.provenance.scenario.clone(),
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

    /// Refuses a vantage of the same identity that measured another
    /// network.
    fn check_vantage(&self, key: SetKey, set: &MeasurementSet) -> Result<(), LiveError> {
        if self.set.topology != set.topology || self.set.classes != set.classes {
            return Err(LiveError::VantageMismatch(key));
        }
        Ok(())
    }

    /// Whether intervals from `t` on, arriving from segment `path`, extend
    /// the log in place: they come from the primary segment and start at
    /// the watermark.
    fn appends(&self, path: &Path, t: usize) -> bool {
        self.primary.as_deref() == Some(path) && t == self.set.log.interval_count()
    }

    /// Merges `delta` (another vantage's counts) into the session log and
    /// replays: the exact fallback for history rewrites.
    fn merge_and_rebase(&mut self, delta: &MeasurementLog) -> Result<(), LiveError> {
        self.set.log.merge(delta)?;
        self.live.rebase();
        self.live
            .advance(&self.set.log, self.set.log.interval_count());
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
            TailEvent::Entry { set, .. } => self.ingest_set(set),
            TailEvent::SegmentHeader { path, set } => {
                self.ingest_header(path, set)?;
                Ok(Vec::new())
            }
            TailEvent::SegmentIntervals {
                path,
                first_t,
                rows,
            } => self.ingest_intervals(&path, first_t, rows),
            TailEvent::SegmentGap {
                path,
                from_interval,
                to_interval,
                ..
            } => self.ingest_gap(&path, from_interval, to_interval),
            TailEvent::Corrupt { .. } => Ok(Vec::new()),
        }
    }

    /// The session a segment file feeds.
    fn segment_session(&mut self, path: &Path) -> Result<(SetKey, &mut Session), LiveError> {
        let Some(&key) = self.by_path.get(path) else {
            return Err(LiveError::UnknownSegment(path.to_path_buf()));
        };
        let i = self.index[&key];
        Ok((key, &mut self.sessions[i].1))
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
        let (key, session) = self.segment_session(path)?;
        session.degraded = true;
        if !session.appends(path, from_interval) || to_interval <= from_interval {
            // Non-primary vantages merge their rows as deltas; a gap in
            // one simply means fewer rows to merge.
            return Ok(Vec::new());
        }
        push_idle(&mut session.set.log, to_interval - from_interval);
        session.live.advance(&session.set.log, to_interval);
        Ok(vec![session.update(key, UpdateMode::Resync)])
    }

    /// A complete measurement set landed: the first vantage becomes the
    /// session whole, and the engine replays its log one interval per
    /// update; a repeat identity merges as a new vantage.
    fn ingest_set(&mut self, set: MeasurementSet) -> Result<Vec<VerdictUpdate>, LiveError> {
        let key = set.key();
        if let Some(&i) = self.index.get(&key) {
            let session = &mut self.sessions[i].1;
            session.check_vantage(key, &set)?;
            session.merge_and_rebase(&set.log)?;
            session.vantages += 1;
            return Ok(vec![session.update(key, UpdateMode::Rebase)]);
        }

        let i = self.open_session(key, set);
        let session = &mut self.sessions[i].1;
        let closed = session.set.log.interval_count();
        let mut updates = Vec::with_capacity(closed);
        for t in 1..=closed {
            session.live.advance(&session.set.log, t);
            updates.push(session.update(key, UpdateMode::Incremental));
        }
        Ok(updates)
    }

    /// A segment announced itself: open (or join) the session and remember
    /// which file feeds it.
    fn ingest_header(&mut self, path: PathBuf, mut set: MeasurementSet) -> Result<(), LiveError> {
        let key = set.key();
        match self.index.get(&key) {
            Some(&i) => {
                // A second vantage joins; its intervals will merge.
                let session = &mut self.sessions[i].1;
                session.check_vantage(key, &set)?;
                session.vantages += 1;
            }
            None => {
                // The header gives the grid; the segment's rows follow it,
                // so the session log starts empty.
                set.log = MeasurementLog::new(set.log.path_count(), set.log.interval_s());
                let i = self.open_session(key, set);
                self.sessions[i].1.primary = Some(path.clone());
            }
        }
        self.by_path.insert(path, key);
        Ok(())
    }

    /// Newly complete interval rows of a live segment. The primary segment
    /// appends at the watermark (pure incremental); any other vantage —
    /// or a primary that fell behind a merge — goes through merge +
    /// rebase. Rows of the wrong width are refused before any lands.
    fn ingest_intervals(
        &mut self,
        path: &Path,
        first_t: usize,
        rows: IntervalRows,
    ) -> Result<Vec<VerdictUpdate>, LiveError> {
        let (key, session) = self.segment_session(path)?;
        let n = session.set.log.path_count();
        if let Some(theirs) = rows
            .iter()
            .flat_map(|(sent, lost)| [sent.len(), lost.len()])
            .find(|&w| w != n)
        {
            return Err(MergeError::PathCountMismatch { ours: n, theirs }.into());
        }

        if session.appends(path, first_t) {
            let mut updates = Vec::with_capacity(rows.len());
            for (sent, lost) in rows {
                session.set.log.push_interval(sent, lost);
                let t = session.set.log.interval_count();
                session.live.advance(&session.set.log, t);
                updates.push(session.update(key, UpdateMode::Incremental));
            }
            return Ok(updates);
        }

        // Another vantage's rows (or out-of-position primary rows after a
        // merge extended the log): a delta log of zero rows up to
        // `first_t`, then the rows, merged.
        let mut delta = MeasurementLog::new(n, session.set.log.interval_s());
        // An empty chunk (a valid segment may hold one) grows nothing.
        if !rows.is_empty() {
            push_idle(&mut delta, first_t);
        }
        for (sent, lost) in rows {
            delta.push_interval(sent, lost);
        }
        session.merge_and_rebase(&delta)?;
        Ok(vec![session.update(key, UpdateMode::Rebase)])
    }

    /// Opens a session over `set`, dropping its delay grid: sessions track
    /// counts only, and a delay grid would refuse every later vantage
    /// merge.
    fn open_session(&mut self, key: SetKey, mut set: MeasurementSet) -> usize {
        set.log.clear_delay();
        let (topology, seed) = (&set.topology, set.provenance.seed);
        let live = match self.cfg.window {
            Some(w) => StreamingInference::windowed(topology, seed, &self.cfg.inference, w),
            None => StreamingInference::new(topology, seed, &self.cfg.inference),
        };
        let session = Session {
            set,
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
            let set = &session.set;
            let batch = match self.cfg.window {
                None => infer(set, &self.cfg.inference),
                // Windowed sessions compare against the same log with the
                // aged-out prefix zeroed — same interval indices, so the
                // normalization draws line up.
                Some(w) => {
                    let (n, t_max) = (set.log.path_count(), set.log.interval_count());
                    let keep_from = t_max.saturating_sub(w);
                    let mut log = MeasurementLog::new(n, set.log.interval_s());
                    push_idle(&mut log, keep_from);
                    for t in keep_from..t_max {
                        let row = |cell: fn(&MeasurementLog, usize, PathId) -> u64| {
                            (0..n).map(|p| cell(&set.log, t, PathId(p))).collect()
                        };
                        log.push_interval(row(MeasurementLog::sent), row(MeasurementLog::lost));
                    }
                    let windowed = MeasurementSet {
                        topology: set.topology.clone(),
                        classes: set.classes.clone(),
                        log,
                        provenance: set.provenance.clone(),
                    };
                    infer(&windowed, &self.cfg.inference)
                }
            }
            .fingerprint();
            let streaming = session.live.verdict().fingerprint();
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
        Some(self.sessions[i].1.set.log.interval_count())
    }
}

/// Appends `k` intervals in which nothing was sent or lost.
fn push_idle(log: &mut MeasurementLog, k: usize) {
    let n = log.path_count();
    for _ in 0..k {
        log.push_interval(vec![0; n], vec![0; n]);
    }
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
    fn an_entry_streams_from_its_event_after_the_file_is_gone() {
        let dir = temp_dir("deleted");
        let set = recorded_set(3);
        let path = Corpus::open(&dir).unwrap().store(&set).unwrap();

        let events = CorpusTail::open(&dir).unwrap().poll().unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut monitor = LiveMonitor::new(LiveConfig::default());
        let mut updates = Vec::new();
        for e in events {
            updates.extend(monitor.handle(e).unwrap());
        }
        assert_eq!(updates.len(), set.log.interval_count());
        assert_eq!(
            updates.last().unwrap().result_fingerprint,
            infer(&set, &InferenceConfig::default()).fingerprint()
        );
        assert!(monitor.verify_batch().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_rows_append_at_the_watermark_and_wrong_widths_are_refused() {
        let set = recorded_set(3);
        let n = set.log.path_count();
        let row = |t: usize| -> (Vec<u64>, Vec<u64>) {
            (
                (0..n).map(|p| set.log.sent(t, PathId(p))).collect(),
                (0..n).map(|p| set.log.lost(t, PathId(p))).collect(),
            )
        };
        let path = PathBuf::from("rows.nniseg");
        let intervals = |first_t, rows| TailEvent::SegmentIntervals {
            path: path.clone(),
            first_t,
            rows,
        };
        let mut monitor = LiveMonitor::new(LiveConfig::default());
        let header = TailEvent::SegmentHeader {
            path: path.clone(),
            set: set.clone(),
        };
        assert!(monitor.handle(header).unwrap().is_empty());
        let updates = monitor
            .handle(intervals(0, vec![row(0), (vec![0; n], vec![0; n]), row(2)]))
            .unwrap();
        assert_eq!(updates.len(), 3);
        assert_eq!(monitor.watermark(set.key()), Some(3));
        let log = &monitor.sessions[0].1.set.log;
        assert_eq!(log.sent(2, PathId(1)), set.log.sent(2, PathId(1)));
        assert_eq!(log.lost(0, PathId(0)), set.log.lost(0, PathId(0)));
        assert_eq!(log.sent(1, PathId(0)), 0);

        // One bad row refuses the whole batch, on the append path and on
        // the merge path alike.
        for first_t in [3, 0] {
            let wide = vec![row(3), (vec![1; n + 1], vec![0; n + 1])];
            match monitor.handle(intervals(first_t, wide)) {
                Err(LiveError::Merge(MergeError::PathCountMismatch { ours, theirs })) => {
                    assert_eq!((ours, theirs), (n, n + 1))
                }
                other => panic!("expected a path-count refusal, got {other:?}"),
            }
            assert_eq!(monitor.watermark(set.key()), Some(3), "nothing landed");
        }
        let narrow = vec![(vec![0; n], vec![0; n - 1])];
        assert!(matches!(
            monitor.handle(intervals(3, narrow)),
            Err(LiveError::Merge(MergeError::PathCountMismatch { .. }))
        ));
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
