//! [`CorpusTail`]: a poll-based watcher over a growing corpus directory —
//! the acquisition front-end of live inference.
//!
//! A tail yields two kinds of arrivals, in stable replay order
//! ([`crate::corpus::entry_order_key`]):
//!
//! * **complete entries** (`.nniset`) — a whole measurement set landed
//!   (e.g. `exp_corpus record --append` or a drain-mode daemon). The tail
//!   decodes each file in full, and the event carries the decoded set, so
//!   a consumer never reads the file again (a re-record may be rewriting
//!   it). Corpus stores are not atomic, so a file that fails to decode is
//!   treated as *still being written* and retried on later polls, up to a
//!   bounded budget; only then is it reported corrupt.
//! * **segment traffic** (`.nniseg`) — a live producer is spilling closed
//!   intervals as it runs ([`SegmentWriter`](crate::segment::SegmentWriter));
//!   the tail surfaces the header once and every newly complete interval
//!   row after it. Segment followers run in resync mode: a corrupt chunk
//!   becomes a [`TailEvent::SegmentGap`] and the stream continues from the
//!   next valid chunk instead of dying.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::corpus::{list_in_order, CORPUS_EXT};
use crate::dataset::MeasurementSet;
use crate::segment::{SegmentFollower, SegmentItem, SEGMENT_EXT};

/// Default number of failed polls before a pending `.nniset` is declared
/// corrupt rather than still-being-written.
pub const DEFAULT_RETRY_BUDGET: u32 = 200;

/// One arrival surfaced by [`CorpusTail::poll`].
// Events are produced one at a time and consumed immediately, never stored
// in bulk, so the size spread between variants costs nothing in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum TailEvent {
    /// A complete corpus entry landed: it decoded cleanly end to end.
    Entry {
        /// The entry file.
        path: PathBuf,
        /// The decoded set.
        set: MeasurementSet,
    },
    /// A live segment's header became readable: the set's identity and
    /// interval grid, with an empty log.
    SegmentHeader {
        /// The segment file.
        path: PathBuf,
        /// The decoded header (zero intervals).
        set: MeasurementSet,
    },
    /// Newly complete interval rows of a live segment.
    SegmentIntervals {
        /// The segment file.
        path: PathBuf,
        /// Interval index of `rows[0]`.
        first_t: usize,
        /// `(sent, lost)` per path, one pair of rows per interval.
        rows: Vec<(Vec<u64>, Vec<u64>)>,
    },
    /// A corrupt region of a live segment was skipped: intervals
    /// `from_interval..to_interval` are lost, the stream continues after
    /// them. Consumers should degrade their verdicts, not die.
    SegmentGap {
        /// The segment file.
        path: PathBuf,
        /// First interval lost.
        from_interval: usize,
        /// One past the last interval lost.
        to_interval: usize,
        /// Width of the skipped byte region on disk.
        bytes_skipped: usize,
    },
    /// A file is genuinely unreadable (retry budget exhausted, or a
    /// terminal segment error such as header corruption). Reported once;
    /// the file is then ignored.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Human-readable cause.
        message: String,
    },
}

/// Poll-based watcher over one corpus directory.
#[derive(Debug)]
pub struct CorpusTail {
    dir: PathBuf,
    retry_budget: u32,
    /// Files fully dealt with: emitted entries and corrupt files.
    done: HashSet<PathBuf>,
    /// Failed decode attempts per still-pending `.nniset`.
    pending: HashMap<PathBuf, u32>,
    /// Live followers per `.nniseg`.
    followers: HashMap<PathBuf, SegmentFollower>,
}

impl CorpusTail {
    /// Starts tailing `dir` (created if missing, so a tail can be set up
    /// before its producer).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<CorpusTail> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CorpusTail {
            dir,
            retry_budget: DEFAULT_RETRY_BUDGET,
            done: HashSet::new(),
            pending: HashMap::new(),
            followers: HashMap::new(),
        })
    }

    /// Overrides the pending-entry retry budget.
    pub fn with_retry_budget(mut self, polls: u32) -> CorpusTail {
        self.retry_budget = polls.max(1);
        self
    }

    /// The directory being tailed.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Scans the directory once and returns everything that newly landed,
    /// in replay order. An empty vector means no change. I/O errors on the
    /// directory itself surface; per-file problems become
    /// [`TailEvent::Corrupt`] (after the retry budget, for entries).
    pub fn poll(&mut self) -> std::io::Result<Vec<TailEvent>> {
        let mut events = Vec::new();
        for path in list_in_order(&self.dir, &[CORPUS_EXT, SEGMENT_EXT])? {
            if self.done.contains(&path) {
                continue;
            }
            if path.extension().is_some_and(|e| e == CORPUS_EXT) {
                self.poll_entry(path, &mut events);
            } else {
                self.poll_segment(path, &mut events);
            }
        }
        Ok(events)
    }

    fn poll_entry(&mut self, path: PathBuf, events: &mut Vec<TailEvent>) {
        // Full decode, not just the provenance prefix: `Corpus::store` is
        // a plain write, so a reader can catch a file whose prefix is
        // already valid while the log section is still landing.
        let outcome = fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| crate::codec::decode(&bytes).map_err(|e| e.to_string()));
        match outcome {
            Ok(set) => {
                self.pending.remove(&path);
                self.done.insert(path.clone());
                events.push(TailEvent::Entry { path, set });
            }
            Err(msg) => self.entry_failed(path, msg, events),
        }
    }

    fn entry_failed(&mut self, path: PathBuf, message: String, events: &mut Vec<TailEvent>) {
        let attempts = self.pending.entry(path.clone()).or_insert(0);
        *attempts += 1;
        if *attempts >= self.retry_budget {
            self.pending.remove(&path);
            self.done.insert(path.clone());
            events.push(TailEvent::Corrupt { path, message });
        }
        // Otherwise: presumed still being written; retry next poll.
    }

    fn poll_segment(&mut self, path: PathBuf, events: &mut Vec<TailEvent>) {
        let follower = self
            .followers
            .entry(path.clone())
            // Followers resync past corrupt chunks: a live consumer wants
            // a degraded stream, not a dead one. Header corruption is
            // still terminal and lands in the `Err` arm below.
            .or_insert_with(|| SegmentFollower::open(&path).with_resync(true));
        match follower.poll() {
            Ok(batch) => events.extend(batch.items.into_iter().map(|i| segment_event(&path, i))),
            Err(e) => {
                self.followers.remove(&path);
                self.done.insert(path.clone());
                events.push(TailEvent::Corrupt {
                    path,
                    message: e.to_string(),
                });
            }
        }
    }
}

/// The event a decoded item of the segment at `path` surfaces as — one
/// conversion for the local [`CorpusTail`] and the relay's
/// [`RemoteTail`](crate::RemoteTail).
pub(crate) fn segment_event(path: &Path, item: SegmentItem) -> TailEvent {
    let path = path.to_path_buf();
    match item {
        SegmentItem::Header(set) => TailEvent::SegmentHeader { path, set: *set },
        SegmentItem::Intervals { first_t, rows } => TailEvent::SegmentIntervals {
            path,
            first_t,
            rows,
        },
        SegmentItem::Gap(gap) => TailEvent::SegmentGap {
            path,
            from_interval: gap.from_interval,
            to_interval: gap.to_interval,
            bytes_skipped: gap.bytes_skipped,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Provenance;
    use crate::record::MeasurementLog;
    use crate::segment::SegmentWriter;
    use crate::Corpus;
    use nni_topology::{PathId, TopologyBuilder};

    fn tiny_set(name: &str, seed: u64, intervals: usize) -> MeasurementSet {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let l0 = b.link("l0", h0, h1).unwrap();
        b.path("p0", vec![l0]).unwrap();
        let mut log = MeasurementLog::new(1, 0.1);
        for t in 0..intervals {
            log.record_sent(t, PathId(0), 100 + seed + t as u64);
        }
        MeasurementSet {
            topology: b.build(),
            classes: vec![vec![PathId(0)]],
            log,
            provenance: Provenance {
                scenario: name.into(),
                scenario_fingerprint: 0xAB,
                seed,
                build: "test".into(),
            },
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nni-tail-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entries_surface_once_in_numeric_order() {
        let dir = temp_dir("entries");
        let mut tail = CorpusTail::open(&dir).unwrap();
        assert!(tail.poll().unwrap().is_empty());
        let corpus = Corpus::open(&dir).unwrap();
        for seed in [10, 2] {
            corpus.store(&tiny_set("tail", seed, 3)).unwrap();
        }
        let events = tail.poll().unwrap();
        let seeds: Vec<u64> = events
            .iter()
            .map(|e| match e {
                TailEvent::Entry { set, .. } => set.provenance.seed,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(seeds, vec![2, 10]);
        assert!(tail.poll().unwrap().is_empty(), "no re-emission");
        // A later arrival still surfaces.
        corpus.store(&tiny_set("tail", 5, 3)).unwrap();
        let events = tail.poll().unwrap();
        assert_eq!(events.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_pending_until_complete() {
        let dir = temp_dir("pending");
        let mut tail = CorpusTail::open(&dir).unwrap();
        let set = tiny_set("slow", 1, 4);
        let bytes = crate::codec::encode(&set);
        let path = dir.join(crate::corpus::entry_file_name(&set.provenance));
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(tail.poll().unwrap().is_empty(), "half-written: no event");
        fs::write(&path, &bytes).unwrap();
        let events = tail.poll().unwrap();
        match &events[..] {
            [TailEvent::Entry { path: p, set: got }] => {
                assert_eq!(p, &path);
                assert_eq!(got, &set);
            }
            other => panic!("unexpected events {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_garbage_exhausts_the_budget() {
        let dir = temp_dir("garbage");
        let mut tail = CorpusTail::open(&dir).unwrap().with_retry_budget(3);
        fs::write(dir.join("junk-00-s000001.nniset"), b"not a set").unwrap();
        assert!(tail.poll().unwrap().is_empty());
        assert!(tail.poll().unwrap().is_empty());
        let events = tail.poll().unwrap();
        assert!(matches!(&events[..], [TailEvent::Corrupt { .. }]));
        assert!(tail.poll().unwrap().is_empty(), "reported once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_stream_header_then_intervals() {
        let dir = temp_dir("segments");
        let mut tail = CorpusTail::open(&dir).unwrap();
        let set = tiny_set("live", 4, 9);
        let path = dir.join(crate::corpus::segment_file_name(&set.provenance));
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 3).unwrap();

        let events = tail.poll().unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], TailEvent::SegmentHeader { set: h, .. }
            if h.provenance == set.provenance));
        match &events[1] {
            TailEvent::SegmentIntervals { first_t, rows, .. } => {
                assert_eq!(*first_t, 0);
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[2].0, vec![set.log.sent(2, PathId(0))]);
            }
            other => panic!("unexpected event {other:?}"),
        }

        w.append_intervals(&set.log, 3, 9).unwrap();
        let events = tail.poll().unwrap();
        match &events[..] {
            [TailEvent::SegmentIntervals { first_t, rows, .. }] => {
                assert_eq!(*first_t, 3);
                assert_eq!(rows.len(), 6);
            }
            other => panic!("unexpected events {other:?}"),
        }
        assert!(tail.poll().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_chunk_degrades_to_a_gap() {
        let dir = temp_dir("gap");
        let mut tail = CorpusTail::open(&dir).unwrap();
        let set = tiny_set("gap", 7, 12);
        let path = dir.join(crate::corpus::segment_file_name(&set.provenance));
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 4).unwrap();
        let clean = fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 4, 8).unwrap();
        w.append_intervals(&set.log, 8, 12).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[clean + 12] ^= 0x10; // corrupt the middle chunk's payload
        fs::write(&path, &bytes).unwrap();

        let events = tail.poll().unwrap();
        assert_eq!(events.len(), 4, "header, rows, gap, rows: {events:?}");
        assert!(matches!(&events[0], TailEvent::SegmentHeader { .. }));
        assert!(matches!(
            &events[1],
            TailEvent::SegmentIntervals { first_t: 0, .. }
        ));
        assert!(matches!(
            &events[2],
            TailEvent::SegmentGap {
                from_interval: 4,
                to_interval: 8,
                ..
            }
        ));
        assert!(matches!(
            &events[3],
            TailEvent::SegmentIntervals { first_t: 8, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
