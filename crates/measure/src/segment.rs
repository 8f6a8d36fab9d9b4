//! The append-friendly on-disk segment format (`.nniseg`) — how a live
//! producer spills a measurement set *while it grows*.
//!
//! A corpus entry (`.nniset`) is a single checksummed blob: appending an
//! interval means rewriting the file, and a reader catching it mid-rewrite
//! sees garbage. A segment is instead a chunk log — each chunk is written
//! once, checksummed individually, and never touched again — so a follower
//! can consume closed intervals while the producer is still appending.
//!
//! # Format (version 2)
//!
//! ```text
//! magic     7 bytes  b"NNISEGS"
//! version   u8       2
//! chunks    each:  sync 8 bytes (wire::SYNC_MARKER), tag u8,
//!                  payload length u64 LE, payload bytes,
//!                  checksum u64 LE (FNV-1a over sync + tag + length +
//!                  payload)
//!   tag 1  HEADER     a full codec-v1 encoding of the set with an *empty*
//!                     log — provenance, topology, classes, interval grid
//!   tag 2  INTERVALS  first interval vu, interval count vu, then per
//!                     interval per path: sent vu, lost vu
//! ```
//!
//! Version 1 is the same layout without the per-chunk sync marker. The
//! follower reads both; the writer emits only v2 (the interop tests read a
//! committed v1 file from `fixtures/v1/`), and a deployed v1 reader
//! meeting a v2 file stops at the version byte with
//! [`SegmentError::UnsupportedVersion`]`(2)`.
//!
//! Interval chunks are contiguous: each chunk's first interval equals the
//! number of intervals in all chunks before it. A reader that finds fewer
//! bytes than a chunk claims simply stops — the chunk is still being
//! written — and resumes from the same offset next poll; a checksum
//! mismatch on a *complete* chunk is real corruption.
//!
//! # Corruption and resync
//!
//! By default a follower treats corruption as terminal (strict mode: the
//! archival contract). With [`SegmentFollower::with_resync`] it instead
//! *scans forward* for the next complete, checksum-valid, in-order
//! intervals chunk, reports the skipped range as a [`SegmentItem::Gap`],
//! and resumes — the behavior a live consumer wants, where one flipped
//! byte must not end a session. Each chunk carries its own first-interval
//! index precisely so a reader can re-anchor after losing bytes. The one
//! unrecoverable region is the header: without it a reader cannot even
//! size an interval row, so header corruption stays terminal.
//!
//! The sync marker is what makes v2 resync *honest about lengths*. In v1
//! a corrupt *length* field can masquerade as an incomplete trailing
//! chunk forever (lengths above [`MAX_CHUNK_BYTES`] are rejected, but a
//! plausible corrupt length stalls the follower on a tail that will never
//! complete). In v2 the claim is falsifiable: an append-only producer
//! writes chunks in order, so bytes after a genuinely in-flight chunk
//! cannot contain a complete chunk — if the follower finds a complete,
//! checksum-valid, in-order intervals chunk at a *later* sync marker, the
//! trailing chunk's length was a lie, and the follower reports the loss
//! as a gap (resync mode) or fails loudly (strict mode) instead of
//! waiting forever. Scanning is marker-to-marker rather than v1's
//! byte-by-byte trial decode.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{self, CodecError};
use crate::dataset::{Fnv, MeasurementSet};
use crate::record::MeasurementLog;
use crate::wire::{WireReader, WireWriter, SYNC_MARKER};

/// File extension of segment files.
pub const SEGMENT_EXT: &str = "nniseg";

/// Magic prefix of every segment file.
pub const MAGIC: &[u8; 7] = b"NNISEGS";

/// Current segment format version: sync-marker chunks.
pub const VERSION: u8 = 2;

/// The frozen version-1 segment format (chunks without sync markers).
pub const VERSION_V1: u8 = 1;

const TAG_HEADER: u8 = 1;
const TAG_INTERVALS: u8 = 2;

/// Upper bound on a single chunk's payload length. A length field above
/// this is treated as corruption rather than an in-flight chunk, so a
/// flipped length byte cannot stall a follower forever.
pub const MAX_CHUNK_BYTES: u64 = 1 << 30;

/// Why a segment failed to write or parse.
#[derive(Debug)]
pub enum SegmentError {
    /// A filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The version byte is newer than this reader.
    UnsupportedVersion(u8),
    /// The header chunk's embedded measurement set failed to decode.
    Codec(CodecError),
    /// A structural violation (context in the message).
    Corrupt(&'static str),
    /// A complete chunk's checksum does not match its content.
    ChecksumMismatch,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "i/o error: {e}"),
            SegmentError::BadMagic => write!(f, "not a segment file (bad magic)"),
            SegmentError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment version {v}")
            }
            SegmentError::Codec(e) => write!(f, "segment header: {e}"),
            SegmentError::Corrupt(what) => write!(f, "corrupt segment: {what}"),
            SegmentError::ChecksumMismatch => {
                write!(f, "segment chunk checksum mismatch")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> SegmentError {
        SegmentError::Io(e)
    }
}

impl From<CodecError> for SegmentError {
    fn from(e: CodecError) -> SegmentError {
        SegmentError::Codec(e)
    }
}

/// Strips the log from a set, keeping the interval grid — the payload of a
/// header chunk.
fn header_set(set: &MeasurementSet) -> MeasurementSet {
    MeasurementSet {
        topology: set.topology.clone(),
        classes: set.classes.clone(),
        log: MeasurementLog::new(set.log.path_count(), set.log.interval_s()),
        provenance: set.provenance.clone(),
    }
}

/// Frames one v2 chunk: sync marker, tag, length, payload, trailing FNV
/// over all of it.
fn chunk_bytes(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.raw(&SYNC_MARKER);
    w.u8(tag);
    w.u64(payload.len() as u64);
    w.raw(payload);
    let mut h = Fnv::new();
    h.bytes(w.bytes());
    let checksum = h.0;
    w.u64(checksum);
    w.into_bytes()
}

/// Append-only segment producer. Every write is one whole chunk followed
/// by a flush, so a concurrent [`SegmentFollower`] only ever sees a clean
/// prefix plus (at worst) one incomplete trailing chunk.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    n_paths: usize,
    written: usize,
}

impl SegmentWriter {
    /// Creates (truncating) a segment at `path` and writes the header
    /// chunk describing `set` (its log's intervals are *not* written —
    /// append them explicitly).
    pub fn create(
        path: impl AsRef<Path>,
        set: &MeasurementSet,
    ) -> Result<SegmentWriter, SegmentError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        let mut prefix = Vec::with_capacity(MAGIC.len() + 1);
        prefix.extend_from_slice(MAGIC);
        prefix.push(VERSION);
        file.write_all(&prefix)?;
        let header = codec::encode(&header_set(set));
        file.write_all(&chunk_bytes(TAG_HEADER, &header))?;
        file.flush()?;
        Ok(SegmentWriter {
            file,
            n_paths: set.log.path_count(),
            written: 0,
        })
    }

    /// Intervals appended so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Appends intervals `[from, to)` of `log` as one chunk. The range
    /// must continue exactly where the segment left off.
    pub fn append_intervals(
        &mut self,
        log: &MeasurementLog,
        from: usize,
        to: usize,
    ) -> Result<(), SegmentError> {
        if log.path_count() != self.n_paths {
            return Err(SegmentError::Corrupt("log width != segment header"));
        }
        if from != self.written {
            return Err(SegmentError::Corrupt("non-contiguous interval append"));
        }
        if to < from || to > log.interval_count() {
            return Err(SegmentError::Corrupt("interval range out of bounds"));
        }
        if to == from {
            return Ok(());
        }
        let mut w = WireWriter::new();
        w.vu(from as u64);
        w.vu((to - from) as u64);
        codec::put_rows(&mut w, log, from..to);
        self.file
            .write_all(&chunk_bytes(TAG_INTERVALS, w.bytes()))?;
        self.file.flush()?;
        self.written = to;
        Ok(())
    }
}

/// The interval range lost to a corrupt region, and how wide that region
/// was on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentGap {
    /// First interval index covered by the gap (the count of intervals
    /// consumed before corruption struck).
    pub from_interval: usize,
    /// One past the last missing interval — the recovered chunk's first.
    pub to_interval: usize,
    /// Bytes between the corrupt chunk's start and the recovered chunk's
    /// start.
    pub bytes_skipped: usize,
}

/// Decoded interval rows: `(sent, lost)` per path, one entry per interval.
pub type IntervalRows = Vec<(Vec<u64>, Vec<u64>)>;

/// One decoded unit of segment content, in file order.
#[derive(Debug)]
pub enum SegmentItem {
    /// The decoded header (empty-log set) — once per segment, on the poll
    /// that first completed it.
    Header(Box<MeasurementSet>),
    /// A run of complete interval rows starting at interval `first_t`:
    /// `(sent, lost)` per path.
    Intervals {
        /// Interval index of `rows[0]`.
        first_t: usize,
        /// `(sent, lost)` per path, one entry per interval.
        rows: IntervalRows,
    },
    /// Intervals lost to a corrupt region (resync mode only).
    Gap(SegmentGap),
}

/// One poll's worth of newly landed segment content.
#[derive(Debug, Default)]
pub struct SegmentBatch {
    /// Decoded items, in file order.
    pub items: Vec<SegmentItem>,
}

impl SegmentBatch {
    /// No new content landed this poll.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The header, if this poll completed it.
    pub fn header(&self) -> Option<&MeasurementSet> {
        self.items.iter().find_map(|i| match i {
            SegmentItem::Header(set) => Some(set.as_ref()),
            _ => None,
        })
    }

    /// All interval rows in this batch, in file order.
    pub fn rows(&self) -> impl Iterator<Item = &(Vec<u64>, Vec<u64>)> {
        self.items.iter().flat_map(|i| match i {
            SegmentItem::Intervals { rows, .. } => rows.as_slice(),
            _ => &[],
        })
    }
}

/// Offset-tracking reader of a (possibly still growing) segment file.
///
/// [`poll`](SegmentFollower::poll) re-reads the file, parses every chunk
/// that is complete beyond the last consumed offset, and tolerates an
/// incomplete trailing chunk (the producer is mid-append) by leaving the
/// offset at the chunk boundary.
#[derive(Debug)]
pub struct SegmentFollower {
    path: PathBuf,
    offset: usize,
    /// The file's format version, learned from the prefix on first poll.
    version: Option<u8>,
    n_paths: Option<usize>,
    seen_intervals: usize,
    resync: bool,
    scanning: bool,
    /// Offset of the corrupt chunk that armed the current scan.
    scan_from: usize,
    /// Next candidate offset the scan will try.
    scan_at: usize,
}

impl SegmentFollower {
    /// Starts following `path`. No I/O happens until the first poll, so a
    /// follower can be created before the producer's first byte.
    pub fn open(path: impl Into<PathBuf>) -> SegmentFollower {
        SegmentFollower {
            path: path.into(),
            offset: 0,
            version: None,
            n_paths: None,
            seen_intervals: 0,
            resync: false,
            scanning: false,
            scan_from: 0,
            scan_at: 0,
        }
    }

    /// Switches corrupt-chunk handling from terminal (strict, the
    /// default) to forward-scan resync: skip ahead to the next complete,
    /// checksum-valid, in-order intervals chunk and report the loss as a
    /// [`SegmentItem::Gap`]. Corruption before the header stays terminal
    /// either way — without the header a reader cannot even size an
    /// interval row.
    pub fn with_resync(mut self, resync: bool) -> SegmentFollower {
        self.resync = resync;
        self
    }

    /// Whether the follower is mid-scan, skipping a corrupt region in
    /// search of the next valid chunk.
    pub fn is_resyncing(&self) -> bool {
        self.scanning
    }

    /// The file being followed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Complete intervals consumed so far.
    pub fn intervals_seen(&self) -> usize {
        self.seen_intervals
    }

    /// Reads everything newly complete. An empty batch means nothing new
    /// landed (or the producer is mid-chunk); an error is terminal for
    /// this follower.
    pub fn poll(&mut self) -> Result<SegmentBatch, SegmentError> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            // Not created yet: nothing to report.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(SegmentBatch::default())
            }
            Err(e) => return Err(e.into()),
        };
        self.poll_bytes(&bytes)
    }

    /// The core of [`poll`](SegmentFollower::poll), over a caller-supplied
    /// snapshot of the segment bytes — the entry point for remote
    /// followers fed over a socket instead of a local file. Each call's
    /// buffer must extend the previous call's (append-only), exactly as a
    /// growing file would.
    pub fn poll_bytes(&mut self, bytes: &[u8]) -> Result<SegmentBatch, SegmentError> {
        let mut batch = SegmentBatch::default();

        if self.version.is_none() {
            // The fixed prefix: magic + version.
            if bytes.len() < MAGIC.len() + 1 {
                return Ok(batch); // still being written
            }
            if &bytes[..MAGIC.len()] != MAGIC {
                return Err(SegmentError::BadMagic);
            }
            let version = bytes[MAGIC.len()];
            if version != VERSION && version != VERSION_V1 {
                return Err(SegmentError::UnsupportedVersion(version));
            }
            self.version = Some(version);
            self.offset = MAGIC.len() + 1;
        }
        let version = self.version.expect("version parsed above");

        loop {
            if self.scanning {
                if !self.scan(bytes, &mut batch) {
                    break; // nothing valid completed yet; resume next poll
                }
                continue;
            }
            let (tag, payload, next) = match complete_chunk(bytes, self.offset, version) {
                Ok(Some(chunk)) => chunk,
                Ok(None) => {
                    // In v2 an "in-flight" trailing chunk is a falsifiable
                    // claim: an append-only producer cannot have completed
                    // a later chunk while this one is short, so a valid
                    // in-order chunk at a later sync marker means the
                    // trailing length field is corrupt — the v1 stall this
                    // version exists to fix. `corrupted` arms the scan
                    // (resync) or fails loudly (strict); the scan then
                    // recovers at the chunk that disproved the claim.
                    if version >= VERSION && self.disproven(bytes) {
                        self.corrupted(SegmentError::Corrupt(
                            "trailing chunk disproven by a later sync marker",
                        ))?;
                        continue;
                    }
                    break; // trailing chunk still being written
                }
                Err(e) => {
                    self.corrupted(e)?;
                    continue;
                }
            };
            match self.consume(tag, payload) {
                Ok(item) => {
                    self.offset = next;
                    batch.items.push(item);
                }
                Err(e) => self.corrupted(e)?,
            }
        }
        Ok(batch)
    }

    /// Whether an apparently in-flight trailing chunk at `offset` is
    /// disproven by a complete, checksum-valid, in-order intervals chunk
    /// at a later sync marker (v2 only; pre-header there is nothing to
    /// validate a later chunk against, so header corruption stays
    /// terminal-or-waiting as documented).
    fn disproven(&self, bytes: &[u8]) -> bool {
        let Some(n_paths) = self.n_paths else {
            return false;
        };
        // Skip the trailing chunk's own marker: only *later* markers can
        // contradict it.
        let mut at = self.offset + 1;
        while let Some(pos) = find_sync(bytes, at) {
            if let Ok(Some((TAG_INTERVALS, payload, _))) = complete_chunk(bytes, pos, VERSION) {
                if let Ok((first, _)) = parse_intervals(payload, n_paths) {
                    if first >= self.seen_intervals {
                        return true;
                    }
                }
            }
            at = pos + 1;
        }
        false
    }

    /// Decodes one complete chunk into an item, advancing follower state.
    fn consume(&mut self, tag: u8, payload: &[u8]) -> Result<SegmentItem, SegmentError> {
        match tag {
            TAG_HEADER => {
                if self.n_paths.is_some() {
                    return Err(SegmentError::Corrupt("duplicate header chunk"));
                }
                let set: MeasurementSet = codec::decode(payload)?;
                if set.log.interval_count() != 0 {
                    return Err(SegmentError::Corrupt("header log must be empty"));
                }
                self.n_paths = Some(set.log.path_count());
                Ok(SegmentItem::Header(Box::new(set)))
            }
            TAG_INTERVALS => {
                let Some(n_paths) = self.n_paths else {
                    return Err(SegmentError::Corrupt("intervals before header"));
                };
                let (first, rows) = parse_intervals(payload, n_paths)?;
                if first != self.seen_intervals {
                    return Err(SegmentError::Corrupt("interval chunk out of order"));
                }
                self.seen_intervals += rows.len();
                Ok(SegmentItem::Intervals {
                    first_t: first,
                    rows,
                })
            }
            _ => Err(SegmentError::Corrupt("unknown chunk tag")),
        }
    }

    /// Routes a corrupt-chunk error: terminal in strict mode (or before
    /// the header), otherwise arms the forward scan one byte past the bad
    /// chunk's start.
    fn corrupted(&mut self, e: SegmentError) -> Result<(), SegmentError> {
        if !self.resync || self.n_paths.is_none() {
            return Err(e);
        }
        self.scanning = true;
        self.scan_from = self.offset;
        self.scan_at = self.offset + 1;
        Ok(())
    }

    /// Accepts a recovery candidate found at `at`: emits the gap and the
    /// chunk, reanchors the follower after it, and disarms the scan.
    fn recover(
        &mut self,
        batch: &mut SegmentBatch,
        at: usize,
        first: usize,
        rows: IntervalRows,
        next: usize,
    ) {
        batch.items.push(SegmentItem::Gap(SegmentGap {
            from_interval: self.seen_intervals,
            to_interval: first,
            bytes_skipped: at - self.scan_from,
        }));
        self.seen_intervals = first + rows.len();
        batch.items.push(SegmentItem::Intervals {
            first_t: first,
            rows,
        });
        self.offset = next;
        self.scanning = false;
    }

    /// Advances the forward scan. The first complete, checksum-valid
    /// intervals chunk with an in-order first interval wins (recovery —
    /// emits the gap and the chunk, returns `true`); otherwise the scan
    /// pauses and resumes next poll (returns `false`). In v2 the scan
    /// hops from sync marker to sync marker; in v1 — no markers on the
    /// wire — it must trial-decode at every byte offset.
    fn scan(&mut self, bytes: &[u8], batch: &mut SegmentBatch) -> bool {
        match self.version {
            Some(VERSION_V1) => self.scan_v1(bytes, batch),
            _ => self.scan_v2(bytes, batch),
        }
    }

    /// v2 scan: candidates are exactly the sync-marker positions from
    /// `scan_at` on. A candidate that is short of bytes could be a chunk
    /// in flight — the scan pauses there (and re-checks it next poll) but
    /// keeps sweeping past it, since a later complete chunk disproves it.
    fn scan_v2(&mut self, bytes: &[u8], batch: &mut SegmentBatch) -> bool {
        let n_paths = self.n_paths.expect("scan is only armed after the header");
        let mut pending: Option<usize> = None;
        let mut at = self.scan_at;
        while let Some(pos) = find_sync(bytes, at) {
            match complete_chunk(bytes, pos, VERSION) {
                Ok(None) => {
                    pending.get_or_insert(pos);
                }
                Ok(Some((TAG_INTERVALS, payload, next))) => {
                    if let Ok((first, rows)) = parse_intervals(payload, n_paths) {
                        if first >= self.seen_intervals {
                            self.recover(batch, pos, first, rows, next);
                            return true;
                        }
                    }
                }
                Ok(Some(_)) | Err(_) => {}
            }
            at = pos + 1;
        }
        // Resume at the paused candidate, or just before the buffer end —
        // a marker can straddle the append boundary.
        self.scan_at = pending.unwrap_or_else(|| {
            bytes
                .len()
                .saturating_sub(SYNC_MARKER.len() - 1)
                .max(self.scan_at)
        });
        false
    }

    /// v1 scan: tries every byte offset from `scan_at` to the end of the
    /// buffer. If nothing validates the scan pauses at the earliest
    /// offset that still *could* be a chunk in flight — garbage can
    /// masquerade as an incomplete chunk (e.g. a window onto a later
    /// chunk's small LE length field), so a single "not enough bytes yet"
    /// candidate must not stop the sweep — and resumes there next poll.
    fn scan_v1(&mut self, bytes: &[u8], batch: &mut SegmentBatch) -> bool {
        let n_paths = self.n_paths.expect("scan is only armed after the header");
        let mut pending: Option<usize> = None;
        let mut at = self.scan_at;
        while at < bytes.len() {
            match complete_chunk(bytes, at, VERSION_V1) {
                Ok(None) => {
                    pending.get_or_insert(at);
                    at += 1;
                }
                Ok(Some((TAG_INTERVALS, payload, next))) => {
                    if let Ok((first, rows)) = parse_intervals(payload, n_paths) {
                        if first >= self.seen_intervals {
                            self.recover(batch, at, first, rows, next);
                            return true;
                        }
                    }
                    at += 1;
                }
                Ok(Some(_)) | Err(_) => at += 1,
            }
        }
        self.scan_at = pending.unwrap_or(bytes.len());
        false
    }
}

/// Position of the next [`SYNC_MARKER`] at or after `from`.
fn find_sync(bytes: &[u8], from: usize) -> Option<usize> {
    if bytes.len() < SYNC_MARKER.len() {
        return None;
    }
    (from..=bytes.len() - SYNC_MARKER.len())
        .find(|&i| bytes[i..i + SYNC_MARKER.len()] == SYNC_MARKER)
}

/// Decodes an intervals-chunk payload into `(first_interval, rows)`.
fn parse_intervals(payload: &[u8], n_paths: usize) -> Result<(usize, IntervalRows), SegmentError> {
    let mut r = WireReader::new(payload);
    let first = r.vu().map_err(|_| SegmentError::Corrupt("chunk prefix"))? as usize;
    let count = r.vu().map_err(|_| SegmentError::Corrupt("chunk prefix"))?;
    let mut rows = Vec::new();
    for _ in 0..count {
        let mut sent = Vec::with_capacity(n_paths);
        let mut lost = Vec::with_capacity(n_paths);
        for _ in 0..n_paths {
            sent.push(r.vu().map_err(|_| SegmentError::Corrupt("short row"))?);
            lost.push(r.vu().map_err(|_| SegmentError::Corrupt("short row"))?);
        }
        rows.push((sent, lost));
    }
    if !r.is_empty() {
        return Err(SegmentError::Corrupt("trailing bytes in chunk"));
    }
    Ok((first, rows))
}

/// A fully-present chunk: `(tag, payload, next_offset)` — or `None` when
/// the bytes run out before the chunk does (still being written).
type ChunkAt<'a> = Option<(u8, &'a [u8], usize)>;

/// Parses the chunk at `offset` if it is completely present, in the given
/// format version (v2 chunks lead with the sync marker). Verifies the
/// chunk checksum.
fn complete_chunk(bytes: &[u8], offset: usize, version: u8) -> Result<ChunkAt<'_>, SegmentError> {
    let rest = &bytes[offset.min(bytes.len())..];
    let sync = if version == VERSION_V1 {
        0
    } else {
        SYNC_MARKER.len()
    };
    // Validate the marker as its bytes arrive (like the wire magic): a
    // tail that already disagrees with the marker prefix is corruption,
    // not a chunk in flight, however short it is.
    let have = rest.len().min(sync);
    if rest[..have] != SYNC_MARKER[..have] {
        return Err(SegmentError::Corrupt("chunk sync marker mismatch"));
    }
    if rest.len() < sync + 1 + 8 {
        return Ok(None);
    }
    let tag = rest[sync];
    let len64 = u64::from_le_bytes(rest[sync + 1..sync + 9].try_into().expect("8 bytes"));
    if len64 > MAX_CHUNK_BYTES {
        return Err(SegmentError::Corrupt("chunk length implausible"));
    }
    let len = len64 as usize;
    let head = sync + 1 + 8;
    let total = head + len + 8;
    if rest.len() < total {
        return Ok(None);
    }
    let payload = &rest[head..head + len];
    let mut h = Fnv::new();
    h.bytes(&rest[..head + len]);
    let expect = h.0;
    let got = u64::from_le_bytes(rest[head + len..total].try_into().expect("8 bytes"));
    if got != expect {
        return Err(SegmentError::ChecksumMismatch);
    }
    Ok(Some((tag, payload, offset + total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Provenance;
    use nni_topology::{PathId, TopologyBuilder};

    fn sample_set(intervals: usize) -> MeasurementSet {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let l0 = b.link("l0", h0, h1).unwrap();
        b.path("p0", vec![l0]).unwrap();
        b.path("p1", vec![l0]).unwrap();
        let mut log = MeasurementLog::new(2, 0.1);
        for t in 0..intervals {
            log.record_sent(t, PathId(0), 100 + t as u64);
            log.record_lost(t, PathId(0), (t % 3) as u64);
            log.record_sent(t, PathId(1), 90);
        }
        MeasurementSet {
            topology: b.build(),
            classes: vec![vec![PathId(0), PathId(1)]],
            log,
            provenance: Provenance {
                scenario: "segment sample".into(),
                scenario_fingerprint: 0xFEED,
                seed: 9,
                build: "test".into(),
            },
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "nni-segment-test-{tag}-{}.{SEGMENT_EXT}",
            std::process::id()
        ))
    }

    #[test]
    fn chunked_write_reassembles_the_log() {
        let set = sample_set(25);
        let path = temp_path("roundtrip");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        // Three uneven chunks.
        w.append_intervals(&set.log, 0, 10).unwrap();
        w.append_intervals(&set.log, 10, 11).unwrap();
        w.append_intervals(&set.log, 11, 25).unwrap();

        let mut f = SegmentFollower::open(&path);
        let batch = f.poll().unwrap();
        let header = batch.header().expect("header on first poll");
        assert_eq!(header.provenance, set.provenance);
        assert_eq!(header.log.interval_count(), 0);
        let interval_s = header.log.interval_s();
        assert_eq!(batch.rows().count(), 25);
        // Reassemble and compare cell-wise.
        let mut log = MeasurementLog::new(2, interval_s);
        for (t, (sent, lost)) in batch.rows().enumerate() {
            for p in 0..2 {
                log.record_sent(t, PathId(p), sent[p]);
                log.record_lost(t, PathId(p), lost[p]);
            }
        }
        assert_eq!(log, set.log);
        // Nothing new on the next poll.
        let again = f.poll().unwrap();
        assert!(again.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn follower_tolerates_partial_trailing_chunk() {
        let set = sample_set(8);
        let path = temp_path("partial");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 4).unwrap();
        let complete = std::fs::read(&path).unwrap();

        // Truncate mid-chunk: the follower must stop at the clean prefix.
        w.append_intervals(&set.log, 4, 8).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..complete.len() + 5]).unwrap();

        let mut f = SegmentFollower::open(&path);
        let batch = f.poll().unwrap();
        assert!(batch.header().is_some());
        assert_eq!(batch.rows().count(), 4);

        // The producer finishes the chunk: the follower resumes.
        std::fs::write(&path, &full).unwrap();
        let batch = f.poll().unwrap();
        assert!(batch.header().is_none());
        assert_eq!(batch.rows().count(), 4);
        assert_eq!(f.intervals_seen(), 8);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn follower_survives_a_missing_file() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let mut f = SegmentFollower::open(&path);
        let batch = f.poll().unwrap();
        assert!(batch.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let set = sample_set(6);
        let path = temp_path("corrupt");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 6).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte in the last chunk.
        let n = bytes.len();
        bytes[n - 12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = SegmentFollower::open(&path);
        assert!(matches!(
            f.poll(),
            Err(SegmentError::ChecksumMismatch) | Err(SegmentError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resync_skips_a_corrupt_chunk_and_reports_the_gap() {
        let set = sample_set(30);
        let path = temp_path("resync");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 10).unwrap();
        let clean = std::fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 10, 20).unwrap();
        let after_second = std::fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 20, 30).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[clean + 20] ^= 0x40; // flip one payload byte in the middle chunk
        std::fs::write(&path, &bytes).unwrap();

        let mut f = SegmentFollower::open(&path).with_resync(true);
        let batch = f.poll().unwrap();
        assert!(batch.header().is_some());
        let gaps: Vec<&SegmentGap> = batch
            .items
            .iter()
            .filter_map(|i| match i {
                SegmentItem::Gap(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(gaps.len(), 1);
        assert_eq!((gaps[0].from_interval, gaps[0].to_interval), (10, 20));
        assert_eq!(gaps[0].bytes_skipped, after_second - clean);
        assert_eq!(f.intervals_seen(), 30);
        assert!(!f.is_resyncing());
        // Recovered rows are genuine: chunk 1 plus chunk 3, not the
        // corrupted middle.
        let runs: Vec<(usize, usize)> = batch
            .items
            .iter()
            .filter_map(|i| match i {
                SegmentItem::Intervals { first_t, rows } => Some((*first_t, rows.len())),
                _ => None,
            })
            .collect();
        assert_eq!(runs, vec![(0, 10), (20, 10)]);
        for (i, (sent, lost)) in batch.rows().enumerate() {
            let t = if i < 10 { i } else { i + 10 };
            for p in 0..2 {
                assert_eq!(sent[p], set.log.sent(t, PathId(p)));
                assert_eq!(lost[p], set.log.lost(t, PathId(p)));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resync_pauses_on_a_corrupt_tail_until_a_valid_chunk_lands() {
        let set = sample_set(30);
        let path = temp_path("resync-tail");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 10).unwrap();
        let clean = std::fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 10, 20).unwrap();
        let after_second = std::fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 20, 30).unwrap();
        let mut full = std::fs::read(&path).unwrap();
        full[clean + 20] ^= 0x40; // corrupt the middle chunk's payload

        // Only the corrupt chunk is on disk: the scan must pause, not
        // fail and not fabricate a recovery.
        std::fs::write(&path, &full[..after_second]).unwrap();
        let mut f = SegmentFollower::open(&path).with_resync(true);
        let batch = f.poll().unwrap();
        assert!(batch.header().is_some());
        assert_eq!(batch.rows().count(), 10);
        assert!(f.is_resyncing());

        // The next valid chunk lands: the scan recovers.
        std::fs::write(&path, &full).unwrap();
        let batch = f.poll().unwrap();
        assert!(!f.is_resyncing());
        assert_eq!(batch.rows().count(), 10);
        assert_eq!(f.intervals_seen(), 30);
        assert!(batch
            .items
            .iter()
            .any(|i| matches!(i, SegmentItem::Gap(g) if g.to_interval == 20)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn implausible_chunk_length_is_corruption_not_backpressure() {
        let set = sample_set(4);
        let path = temp_path("implausible");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 4).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // A "chunk" whose length field says 2^60: a strict follower must
        // call it corrupt instead of waiting forever for the bytes.
        bytes.extend_from_slice(&SYNC_MARKER);
        bytes.push(TAG_INTERVALS);
        bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let mut f = SegmentFollower::open(&path);
        assert!(matches!(
            f.poll(),
            Err(SegmentError::Corrupt("chunk length implausible"))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trailing_garbage_that_cannot_be_a_marker_is_corruption() {
        let set = sample_set(4);
        let path = temp_path("garbage-tail");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 4).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Three bytes that disagree with the sync marker's prefix: too
        // short to be a header, but already provably not a chunk start.
        bytes.extend_from_slice(b"zzz");
        std::fs::write(&path, &bytes).unwrap();
        let mut f = SegmentFollower::open(&path);
        assert!(matches!(
            f.poll(),
            Err(SegmentError::Corrupt("chunk sync marker mismatch"))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// The headline regression for protocol v2: corrupt the *length
    /// field* of the final in-flight chunk — plausible (below
    /// `MAX_CHUNK_BYTES`) but wrong, so the chunk forever claims to be
    /// incomplete. The v2 follower disproves the claim at the next sync
    /// marker, reports the loss as a gap, and consumes the following
    /// chunk.
    #[test]
    fn v2_recovers_from_a_corrupt_length_field_via_the_sync_marker() {
        let set = sample_set(30);
        let path = temp_path("length-stall-v2");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 10).unwrap();
        let clean = std::fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 10, 20).unwrap();
        let after_second = std::fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 20, 30).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The middle chunk's length field starts after its sync marker
        // and tag. Add 2^24 bytes: plausible, but the file ends first —
        // in v1 this claims "still being written" forever.
        bytes[clean + SYNC_MARKER.len() + 1 + 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let mut f = SegmentFollower::open(&path).with_resync(true);
        let batch = f.poll().unwrap();
        assert!(batch.header().is_some());
        let gaps: Vec<&SegmentGap> = batch
            .items
            .iter()
            .filter_map(|i| match i {
                SegmentItem::Gap(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(gaps.len(), 1, "items: {:?}", batch.items);
        assert_eq!((gaps[0].from_interval, gaps[0].to_interval), (10, 20));
        assert_eq!(gaps[0].bytes_skipped, after_second - clean);
        // No forged rows: chunk 1 and chunk 3, nothing in between.
        let runs: Vec<(usize, usize)> = batch
            .items
            .iter()
            .filter_map(|i| match i {
                SegmentItem::Intervals { first_t, rows } => Some((*first_t, rows.len())),
                _ => None,
            })
            .collect();
        assert_eq!(runs, vec![(0, 10), (20, 10)]);
        assert_eq!(f.intervals_seen(), 30);
        assert!(!f.is_resyncing());
        std::fs::remove_file(&path).unwrap();
    }

    /// The same length-field corruption in strict (no-resync) mode fails
    /// loudly instead of stalling: a later valid chunk disproves the
    /// "still being written" claim, and strict mode treats disproof as
    /// the corruption it is.
    #[test]
    fn v2_strict_mode_fails_loudly_on_a_disproven_trailing_chunk() {
        let set = sample_set(30);
        let path = temp_path("length-stall-strict");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 10).unwrap();
        let clean = std::fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 10, 20).unwrap();
        w.append_intervals(&set.log, 20, 30).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[clean + SYNC_MARKER.len() + 1 + 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = SegmentFollower::open(&path); // strict
        assert!(matches!(
            f.poll(),
            Err(SegmentError::Corrupt(
                "trailing chunk disproven by a later sync marker"
            ))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// `sample_set(30)` as the frozen v1 writer spilled it: the header
    /// chunk, then interval chunks 0..10, 10..20 and 20..30.
    const V1_SEGMENT: &[u8] = include_bytes!("../../../fixtures/v1/segment_sample_30.nniseg");

    /// The frozen v1 format cannot fix the stall: the same corruption
    /// leaves the follower waiting forever even after a later chunk
    /// lands. Pinned as a documented limitation — this test is the
    /// motivation for version 2, not a bug to fix in v1.
    #[test]
    fn v1_stalls_forever_on_a_corrupt_length_field_documented_limitation() {
        let mut bytes = V1_SEGMENT.to_vec();
        assert_eq!(bytes[MAGIC.len()], VERSION_V1);
        // Where the second intervals chunk starts: past the prefix, the
        // header chunk and the first intervals chunk.
        let mut clean = MAGIC.len() + 1;
        for _ in 0..2 {
            let (_, _, next) = complete_chunk(&bytes, clean, VERSION_V1).unwrap().unwrap();
            clean = next;
        }
        // v1 chunk layout: tag, then the length field.
        bytes[clean + 1 + 3] ^= 0x01;

        let mut f = SegmentFollower::open("v1-fixture").with_resync(true);
        let batch = f.poll_bytes(&bytes).unwrap();
        assert_eq!(batch.rows().count(), 10);
        // The third chunk is present and valid, but the follower cannot
        // see past the lying length field: every further poll is empty.
        for _ in 0..5 {
            let again = f.poll_bytes(&bytes).unwrap();
            assert!(again.is_empty(), "v1 unexpectedly recovered");
        }
        assert_eq!(f.intervals_seen(), 10);
    }

    #[test]
    fn v2_follower_reads_v1_files_bit_identically() {
        let set = sample_set(30);
        let p2 = temp_path("interop-v2");
        let mut w2 = SegmentWriter::create(&p2, &set).unwrap();
        for (from, to) in [(0, 10), (10, 20), (20, 30)] {
            w2.append_intervals(&set.log, from, to).unwrap();
        }
        let b1 = SegmentFollower::open("v1-fixture")
            .poll_bytes(V1_SEGMENT)
            .unwrap();
        let b2 = SegmentFollower::open(&p2).poll().unwrap();
        assert_eq!(b1.header().unwrap(), b2.header().unwrap());
        let rows1: Vec<_> = b1.rows().cloned().collect();
        let rows2: Vec<_> = b2.rows().cloned().collect();
        assert_eq!(rows1, rows2);
        assert_eq!(rows1.len(), 30);
        std::fs::remove_file(&p2).unwrap();
    }

    #[test]
    fn future_segment_version_is_rejected_at_the_version_byte() {
        let set = sample_set(3);
        let path = temp_path("future-version");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 3).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len()] = 3;
        std::fs::write(&path, &bytes).unwrap();
        let mut f = SegmentFollower::open(&path);
        assert!(matches!(f.poll(), Err(SegmentError::UnsupportedVersion(3))));
        // A deployed v1 reader's prefix check was `version != 1` →
        // UnsupportedVersion(version): a v2 file fails it at the version
        // byte, before any length is interpreted — negotiation, never a
        // checksum or allocation error.
        bytes[MAGIC.len()] = VERSION;
        assert_eq!(bytes[MAGIC.len()], 2);
        assert_ne!(bytes[MAGIC.len()], VERSION_V1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_non_contiguous_appends() {
        let set = sample_set(5);
        let path = temp_path("contiguous");
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 2).unwrap();
        assert!(matches!(
            w.append_intervals(&set.log, 3, 5),
            Err(SegmentError::Corrupt("non-contiguous interval append"))
        ));
        assert!(matches!(
            w.append_intervals(&set.log, 2, 9),
            Err(SegmentError::Corrupt("interval range out of bounds"))
        ));
        w.append_intervals(&set.log, 2, 5).unwrap();
        assert_eq!(w.written(), 5);
        std::fs::remove_file(&path).unwrap();
    }
}
