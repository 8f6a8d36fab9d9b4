//! Hand-rolled binary codec for [`MeasurementSet`] — the on-disk corpus
//! format. No serde: the dependency tree is offline-vendored, so the format
//! is written out longhand and pinned by exhaustive round-trip tests plus a
//! committed golden corpus in CI.
//!
//! # Format (versions 1 and 2)
//!
//! ```text
//! magic     7 bytes  b"NNIMSET"
//! version   u8       1 (loss-only) or 2 (with one-way delay section)
//! sections  each:  tag u8, payload length u64 LE, payload bytes
//!   tag 1  PROVENANCE  scenario str, fingerprint u64, seed u64, build str
//!   tag 2  TOPOLOGY    nodes (kind u8, name str)…,
//!                      links (src vu, dst vu, capacity f64, delay f64, name str)…,
//!                      paths (name str, link ids vu…)…
//!   tag 3  CLASSES     per class: member path ids vu…
//!   tag 4  LOG         interval_s f64, n_paths vu, n_intervals vu,
//!                      per interval per path: sent vu, lost vu
//!   tag 5  DELAY       (v2 only) per interval per path:
//!                      present u8; when 1: count vu, p50 f64, p90 f64, p99 f64
//! trailer   tag 0xFF, then FNV-1a u64 LE over every preceding byte
//! ```
//!
//! Primitives: `u64`/`f64` little-endian (`f64` as its bit pattern, so
//! round trips are bit-identical); `vu` is LEB128 (7 bits per byte, high
//! bit = continue) — measurement counts are small, so logs compress well;
//! strings are `vu` length + UTF-8 bytes. All counts are length prefixes:
//! a reader can skip any section wholesale, and a truncated file fails
//! loudly with [`CodecError::UnexpectedEof`] instead of misparsing.
//!
//! Sections must appear in tag order exactly once each; the version byte is
//! the compatibility gate. [`encode`] emits version 1 — bit-identical to
//! every pre-delay build — unless the log carries a delay grid, in which
//! case it emits version 2 with the DELAY section (the grid dimensions are
//! implied by the LOG section, so the section is never ambiguous).
//! [`decode`] accepts both; [`decode_v1`] is the frozen v1-only reader and
//! rejects version 2 with [`CodecError::UnsupportedVersion`] — the typed
//! error a pre-delay reader would raise.
//!
//! # Shared walks
//!
//! The TOPOLOGY, CLASSES and DELAY payloads are each written by one
//! function and read by one: [`put_topology`]/[`get_topology`],
//! [`put_classes`]/[`get_classes`] and [`put_delay`]/[`get_delay`]. The
//! worker job codec in `nni-scenario` calls the topology and class walks,
//! the emulator's report codec the delay walk, and the writers are generic
//! over [`Sink`], so the scenario's measurement fingerprint folds the very
//! same walk into an FNV-1a instead of restating it. One row writer, `put_rows`, lays out the
//! LOG grid and a segment's interval chunks alike.

use crate::dataset::{Fnv, MeasurementSet, Provenance};
use crate::record::{DelayStats, MeasurementLog};
use crate::wire::{Sink, WireReader, WireWriter};
use nni_topology::{LinkId, NodeId, NodeKind, PathId, Topology, TopologyBuilder, TopologyError};
use std::ops::Range;

/// Magic prefix of every encoded set.
pub const MAGIC: &[u8; 7] = b"NNIMSET";

/// The original loss-only format version.
pub const VERSION_V1: u8 = 1;

/// The delay-carrying format version (adds the DELAY section).
pub const VERSION_V2: u8 = 2;

/// Newest format version this decoder understands.
pub const VERSION: u8 = VERSION_V2;

const TAG_PROVENANCE: u8 = 1;
const TAG_TOPOLOGY: u8 = 2;
const TAG_CLASSES: u8 = 3;
const TAG_LOG: u8 = 4;
const TAG_DELAY: u8 = 5;
const TAG_END: u8 = 0xFF;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended mid-value.
    UnexpectedEof,
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The version byte is newer than this decoder.
    UnsupportedVersion(u8),
    /// A string payload is not UTF-8.
    BadUtf8,
    /// A value failed a structural check (context in the message).
    BadValue(&'static str),
    /// An unknown or out-of-order section tag.
    BadSection(u8),
    /// Bytes remain after the trailer.
    TrailingBytes,
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// The decoded topology failed re-validation.
    Topology(TopologyError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of stream"),
            CodecError::BadMagic => write!(f, "not a measurement-set stream (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadUtf8 => write!(f, "string payload is not UTF-8"),
            CodecError::BadValue(what) => write!(f, "invalid value: {what}"),
            CodecError::BadSection(tag) => write!(f, "unknown or out-of-order section tag {tag}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after the end marker"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch (corrupted stream)"),
            CodecError::Topology(e) => write!(f, "decoded topology failed validation: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<TopologyError> for CodecError {
    fn from(e: TopologyError) -> CodecError {
        CodecError::Topology(e)
    }
}

// ------------------------------------------------------- shared field walks

/// Writes a topology: nodes (kind, name), links (endpoints, capacity,
/// delay, name), paths (name, link ids). The TOPOLOGY section's payload,
/// the job codec's topology, and the scenario fingerprint's first fields.
pub fn put_topology(w: &mut impl Sink, g: &Topology) {
    w.vu(g.nodes().len() as u64);
    for n in g.nodes() {
        w.u8(matches!(n.kind, NodeKind::Relay) as u8);
        w.str(&n.name);
    }
    w.vu(g.link_count() as u64);
    for l in g.links() {
        w.vu(l.src.index() as u64);
        w.vu(l.dst.index() as u64);
        w.f64(l.capacity_bps);
        w.f64(l.delay_s);
        w.str(&l.name);
    }
    w.vu(g.path_count() as u64);
    for p in g.paths() {
        w.str(p.name());
        w.vu(p.len() as u64);
        for l in p.links() {
            w.vu(l.index() as u64);
        }
    }
}

/// Reads what [`put_topology`] wrote, re-validating it through
/// [`TopologyBuilder`].
pub fn get_topology(r: &mut WireReader<'_>) -> Result<Topology, CodecError> {
    let mut b = TopologyBuilder::new();
    for _ in 0..r.len()? {
        let kind = r.u8()?;
        let name = r.str()?;
        match kind {
            0 => b.host(name),
            1 => b.relay(name),
            _ => return Err(CodecError::BadValue("node kind")),
        };
    }
    for _ in 0..r.len()? {
        let src = NodeId(r.vu()? as usize);
        let dst = NodeId(r.vu()? as usize);
        let capacity = r.f64()?;
        let delay = r.f64()?;
        let name = r.str()?;
        b.link_with(name, src, dst, capacity, delay)?;
    }
    for _ in 0..r.len()? {
        let name = r.str()?;
        let n = r.len()?;
        let mut links = Vec::with_capacity(n);
        for _ in 0..n {
            links.push(LinkId(r.vu()? as usize));
        }
        b.path(name, links)?;
    }
    Ok(b.build())
}

/// Writes a class partition: per class, its member path ids.
pub fn put_classes(w: &mut impl Sink, classes: &[Vec<PathId>]) {
    w.vu(classes.len() as u64);
    for class in classes {
        w.vu(class.len() as u64);
        for p in class {
            w.vu(p.index() as u64);
        }
    }
}

/// Reads what [`put_classes`] wrote; a member id at or past `n_paths` is a
/// [`CodecError::BadValue`].
pub fn get_classes(r: &mut WireReader<'_>, n_paths: usize) -> Result<Vec<Vec<PathId>>, CodecError> {
    let n_classes = r.len()?;
    let mut classes = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        let n = r.len()?;
        let mut class = Vec::with_capacity(n);
        for _ in 0..n {
            let p = r.vu()? as usize;
            if p >= n_paths {
                return Err(CodecError::BadValue("class member path id"));
            }
            class.push(PathId(p));
        }
        classes.push(class);
    }
    Ok(classes)
}

/// Writes a log's delay grid, interval-major: per cell a presence `u8`,
/// then for a present cell its sample count `vu` and p50/p90/p99 `f64`s.
/// The DELAY section's payload and the emulator report's delay grid.
pub fn put_delay(w: &mut impl Sink, log: &MeasurementLog) {
    for t in 0..log.interval_count() {
        for p in 0..log.path_count() {
            match log.delay(t, PathId(p)) {
                Some(stats) => {
                    w.u8(1);
                    w.vu(stats.count);
                    w.f64(stats.p50_s);
                    w.f64(stats.p90_s);
                    w.f64(stats.p99_s);
                }
                None => w.u8(0),
            }
        }
    }
}

/// Reads what [`put_delay`] wrote into `log`'s delay grid, one cell per
/// recorded interval and path. A presence flag other than 0 or 1, or a
/// present cell with zero samples, is a [`CodecError::BadValue`]; bounding
/// the grid against the payload is the caller's.
pub fn get_delay(r: &mut WireReader<'_>, log: &mut MeasurementLog) -> Result<(), CodecError> {
    let mut rows = Vec::with_capacity(log.interval_count());
    for _ in 0..log.interval_count() {
        let mut row = Vec::with_capacity(log.path_count());
        for _ in 0..log.path_count() {
            row.push(match r.u8()? {
                0 => None,
                1 => {
                    let count = r.vu()?;
                    if count == 0 {
                        return Err(CodecError::BadValue("delay cell with zero samples"));
                    }
                    Some(DelayStats {
                        count,
                        p50_s: r.f64()?,
                        p90_s: r.f64()?,
                        p99_s: r.f64()?,
                    })
                }
                _ => return Err(CodecError::BadValue("delay cell presence flag")),
            });
        }
        rows.push(row);
    }
    log.set_delay(rows);
    Ok(())
}

/// Writes the `(sent vu, lost vu)` grid of intervals `range`, interval-major
/// — the LOG section's rows and a segment's INTERVALS chunk.
pub(crate) fn put_rows(w: &mut WireWriter, log: &MeasurementLog, range: Range<usize>) {
    for t in range {
        for p in 0..log.path_count() {
            w.vu(log.sent(t, PathId(p)));
            w.vu(log.lost(t, PathId(p)));
        }
    }
}

// ---------------------------------------------------------------- writing

/// Writes a section: tag, payload length, payload — the byte primitives
/// themselves live in [`crate::wire`], shared with every codec in the tree.
fn section(out: &mut WireWriter, tag: u8, payload: impl FnOnce(&mut WireWriter)) {
    let mut w = WireWriter::new();
    payload(&mut w);
    out.u8(tag);
    out.u64(w.bytes().len() as u64);
    out.raw(w.bytes());
}

/// Encodes a measurement set into the versioned binary format: version 1
/// when the log is loss-only (bit-identical to pre-delay builds), version 2
/// when it carries a delay grid.
pub fn encode(set: &MeasurementSet) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.raw(MAGIC);
    w.u8(if set.log.has_delay() {
        VERSION_V2
    } else {
        VERSION_V1
    });
    section(&mut w, TAG_PROVENANCE, |w| {
        w.str(&set.provenance.scenario);
        w.u64(set.provenance.scenario_fingerprint);
        w.u64(set.provenance.seed);
        w.str(&set.provenance.build);
    });
    section(&mut w, TAG_TOPOLOGY, |w| put_topology(w, &set.topology));
    section(&mut w, TAG_CLASSES, |w| put_classes(w, &set.classes));
    section(&mut w, TAG_LOG, |w| {
        let log = &set.log;
        w.f64(log.interval_s());
        w.vu(log.path_count() as u64);
        w.vu(log.interval_count() as u64);
        put_rows(w, log, 0..log.interval_count());
    });
    if set.log.has_delay() {
        section(&mut w, TAG_DELAY, |w| put_delay(w, &set.log));
    }
    w.u8(TAG_END);
    let mut h = Fnv::new();
    h.bytes(w.bytes());
    let checksum = h.0;
    w.u64(checksum);
    w.into_bytes()
}

// ---------------------------------------------------------------- reading

/// Decodes a measurement set (either format version), verifying the
/// checksum and re-validating the topology through [`TopologyBuilder`].
pub fn decode(bytes: &[u8]) -> Result<MeasurementSet, CodecError> {
    let provenance = decode_prefix(bytes)?;
    // decode_prefix validated magic + version, so the version byte sits
    // right after the magic.
    let version = bytes[MAGIC.len()];
    let mut r = WireReader::at(bytes, provenance.1);

    expect_section(&mut r, TAG_TOPOLOGY)?;
    let topology = get_topology(&mut r)?;
    expect_section(&mut r, TAG_CLASSES)?;
    let classes = get_classes(&mut r, topology.path_count())?;

    // LOG.
    expect_section(&mut r, TAG_LOG)?;
    let interval_s = r.f64()?;
    if interval_s.is_nan() || interval_s <= 0.0 {
        return Err(CodecError::BadValue("non-positive interval"));
    }
    let n_paths = r.len()?;
    if n_paths == 0 {
        return Err(CodecError::BadValue("log with zero paths"));
    }
    // Structural consistency across sections: inference indexes the log by
    // the topology's path ids, so a width mismatch must be a decode error,
    // not a later panic. (The checksum only detects corruption — a
    // self-consistent but inconsistent stream passes it.)
    if n_paths != topology.path_count() {
        return Err(CodecError::BadValue("log path count != topology paths"));
    }
    let n_intervals = r.len()?;
    // Every cell is two varints of at least one byte each, so a garbled
    // interval count whose grid exceeds the remaining bytes can never
    // decode: reject it before allocating rows for it.
    if 2 * n_paths as u128 * n_intervals as u128 > r.remaining() as u128 {
        return Err(CodecError::BadValue("log dimensions exceed payload"));
    }
    let mut log = MeasurementLog::new(n_paths, interval_s);
    for _ in 0..n_intervals {
        // An all-zero row is still an interval, so trailing all-idle
        // intervals survive the round trip.
        let (sent, lost) = r.row(n_paths)?;
        log.push_interval(sent, lost);
    }

    // DELAY (v2 only): the grid's dimensions are the LOG section's.
    if version == VERSION_V2 {
        expect_section(&mut r, TAG_DELAY)?;
        get_delay(&mut r, &mut log)?;
    }

    // Trailer: end marker, then the checksum over everything before it.
    if r.u8()? != TAG_END {
        return Err(CodecError::BadValue("missing end marker"));
    }
    let mut h = Fnv::new();
    h.bytes(&bytes[..r.pos()]);
    let expect = h.0;
    if r.u64()? != expect {
        return Err(CodecError::ChecksumMismatch);
    }
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes);
    }

    Ok(MeasurementSet {
        topology,
        classes,
        log,
        provenance: provenance.0,
    })
}

/// Decodes a measurement set through the **frozen version-1 reader**: the
/// exact compatibility surface of a pre-delay build. A version-2 stream is
/// rejected with [`CodecError::UnsupportedVersion`]`(2)` — the typed error
/// old readers raise on new corpora — instead of being silently truncated
/// to its loss half.
pub fn decode_v1(bytes: &[u8]) -> Result<MeasurementSet, CodecError> {
    let mut r = WireReader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION_V1 {
        return Err(CodecError::UnsupportedVersion(version));
    }
    decode(bytes)
}

/// Decodes only the header and provenance section — how a corpus lists its
/// entries' [`SetKey`](crate::SetKey)s without paying for full decodes.
/// Returns the provenance and the stream offset of the next section.
pub fn decode_prefix(bytes: &[u8]) -> Result<(Provenance, usize), CodecError> {
    let mut r = WireReader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION_V1 && version != VERSION_V2 {
        return Err(CodecError::UnsupportedVersion(version));
    }
    expect_section(&mut r, TAG_PROVENANCE)?;
    let scenario = r.str()?;
    let scenario_fingerprint = r.u64()?;
    let seed = r.u64()?;
    let build = r.str()?;
    Ok((
        Provenance {
            scenario,
            scenario_fingerprint,
            seed,
            build,
        },
        r.pos(),
    ))
}

/// Reads a section header, checking the tag; the payload length is
/// validated against the remaining bytes (decoding then proceeds through
/// the typed readers, which re-check every primitive).
fn expect_section(r: &mut WireReader<'_>, tag: u8) -> Result<(), CodecError> {
    let got = r.u8()?;
    if got != tag {
        return Err(CodecError::BadSection(got));
    }
    let len = r.u64()?;
    if len > r.remaining() as u64 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Provenance;
    use nni_topology::TopologyBuilder;

    fn sample() -> MeasurementSet {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let r0 = b.relay("r0");
        let l0 = b.link_with("l0", h0, r0, 100e6, 0.005).unwrap();
        let l1 = b.link_with("l1", r0, h1, 50e6, 0.1).unwrap();
        b.path("p0", vec![l0, l1]).unwrap();
        let mut log = MeasurementLog::new(1, 0.1);
        log.record_sent(0, PathId(0), 1234);
        log.record_lost(0, PathId(0), 7);
        log.record_sent(3, PathId(0), u64::MAX); // varint edge
        MeasurementSet {
            topology: b.build(),
            classes: vec![vec![PathId(0)], vec![]],
            log,
            provenance: Provenance {
                scenario: "sample scenario ⟨l1⟩".into(),
                scenario_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                seed: u64::MAX,
                build: "nni-emu test".into(),
            },
        }
    }

    fn sample_with_delay() -> MeasurementSet {
        let mut set = sample();
        let n = set.log.interval_count();
        let mut rows = vec![vec![None; 1]; n];
        rows[0][0] = crate::record::DelayStats::from_sorted_ns(&[5_000_000, 9_000_000]);
        rows[3][0] = crate::record::DelayStats::from_sorted_ns(&[1_250_000_000]);
        set.log.set_delay(rows);
        set
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let set = sample();
        let bytes = encode(&set);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(set, back);
        assert_eq!(set.fingerprint(), back.fingerprint());
    }

    #[test]
    fn loss_only_sets_still_encode_as_version_1() {
        // The pre-delay compatibility surface: a loss-only set's bytes are
        // version 1 and the frozen v1 reader accepts them.
        let set = sample();
        let bytes = encode(&set);
        assert_eq!(bytes[MAGIC.len()], VERSION_V1);
        assert_eq!(decode_v1(&bytes).expect("v1 reader decodes"), set);
    }

    #[test]
    fn delay_sets_round_trip_as_version_2() {
        let set = sample_with_delay();
        let bytes = encode(&set);
        assert_eq!(bytes[MAGIC.len()], VERSION_V2);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(set, back);
        assert!(back.log.has_delay());
        assert_eq!(back.log.delay(0, PathId(0)).unwrap().count, 2);
        assert_eq!(back.log.delay(3, PathId(0)).unwrap().p99_s, 1.25);
        assert_eq!(back.log.delay(1, PathId(0)), None);
    }

    #[test]
    fn v1_reader_rejects_v2_streams_with_typed_version_error() {
        let bytes = encode(&sample_with_delay());
        assert_eq!(
            decode_v1(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(VERSION_V2)
        );
        // The prefix reader (corpus listing) accepts both versions.
        assert!(decode_prefix(&bytes).is_ok());
    }

    #[test]
    fn delay_section_is_validated() {
        // A present cell claiming zero samples is structurally impossible
        // (DelayStats::from_sorted_ns never yields one) — the decoder
        // rejects it with a typed error instead of admitting it.
        let mut poisoned = sample_with_delay();
        let mut rows = vec![vec![None; 1]; poisoned.log.interval_count()];
        rows[0][0] = Some(crate::record::DelayStats {
            count: 0,
            p50_s: 0.0,
            p90_s: 0.0,
            p99_s: 0.0,
        });
        poisoned.log.set_delay(rows);
        assert_eq!(
            decode(&encode(&poisoned)).unwrap_err(),
            CodecError::BadValue("delay cell with zero samples")
        );
    }

    #[test]
    fn prefix_reads_provenance_without_full_decode() {
        let set = sample();
        let bytes = encode(&set);
        let (prov, offset) = decode_prefix(&bytes).expect("prefix decodes");
        assert_eq!(prov, set.provenance);
        assert!(offset < bytes.len());
    }

    #[test]
    fn corruption_is_detected() {
        let set = sample();
        let bytes = encode(&set);
        // Bad magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert_eq!(decode(&b).unwrap_err(), CodecError::BadMagic);
        // Future version.
        let mut b = bytes.clone();
        b[7] = 99;
        assert_eq!(decode(&b).unwrap_err(), CodecError::UnsupportedVersion(99));
        // Truncation anywhere fails loudly.
        for cut in [9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        // A flipped payload byte trips the checksum (or a typed check).
        let mut b = bytes.clone();
        let mid = b.len() / 2;
        b[mid] ^= 0x01;
        assert!(decode(&b).is_err());
        // Trailing garbage is rejected.
        let mut b = bytes.clone();
        b.push(0);
        assert_eq!(decode(&b).unwrap_err(), CodecError::TrailingBytes);
    }

    #[test]
    fn rejects_log_width_inconsistent_with_topology() {
        // A structurally inconsistent stream (self-consistent checksum,
        // log wider than the topology's path set) must be a decode error,
        // not a later out-of-bounds panic inside inference.
        let mut set = sample();
        set.log = MeasurementLog::new(3, 0.1);
        let err = decode(&encode(&set)).unwrap_err();
        assert_eq!(
            err,
            CodecError::BadValue("log path count != topology paths")
        );
    }

    /// A v1 stream of `sample()`'s provenance and classes around the given
    /// TOPOLOGY and LOG payloads, checksummed as [`encode`] checksums.
    fn restream(
        topology: impl FnOnce(&mut WireWriter),
        log: impl FnOnce(&mut WireWriter),
    ) -> Vec<u8> {
        let set = sample();
        let bytes = encode(&set);
        let (_, after_provenance) = decode_prefix(&bytes).unwrap();
        let mut w = WireWriter::new();
        w.raw(&bytes[..after_provenance]);
        section(&mut w, TAG_TOPOLOGY, topology);
        section(&mut w, TAG_CLASSES, |w| put_classes(w, &set.classes));
        section(&mut w, TAG_LOG, log);
        w.u8(TAG_END);
        let mut h = Fnv::new();
        h.bytes(w.bytes());
        let checksum = h.0;
        w.u64(checksum);
        w.into_bytes()
    }

    #[test]
    fn rejects_an_interval_count_beyond_the_payload() {
        // `sample()`'s four one-path intervals under a count of twenty.
        // They and the trailer leave 27 bytes, so the count passes the
        // length check (no more than the bytes left), but twenty cells of
        // two varints need at least forty: the decoder refuses before
        // sizing the grid.
        let set = sample();
        let log = |w: &mut WireWriter| {
            w.f64(set.log.interval_s());
            w.vu(1);
            w.vu(20);
            put_rows(w, &set.log, 0..set.log.interval_count());
        };
        let bytes = restream(|w| put_topology(w, &set.topology), log);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::BadValue("log dimensions exceed payload")
        );
        // The same stream with its true count decodes.
        let log = |w: &mut WireWriter| {
            w.f64(set.log.interval_s());
            w.vu(1);
            w.vu(set.log.interval_count() as u64);
            put_rows(w, &set.log, 0..set.log.interval_count());
        };
        let bytes = restream(|w| put_topology(w, &set.topology), log);
        assert_eq!(decode(&bytes).unwrap(), set);
    }

    #[test]
    fn rejects_a_looping_path() {
        // h0 -> r1 -> h0: connected, host-ended, and back at its source.
        let topology = |w: &mut WireWriter| {
            w.vu(2);
            for (kind, name) in [(0, "h0"), (1, "r1")] {
                w.u8(kind);
                w.str(name);
            }
            w.vu(2);
            for (src, dst, name) in [(0, 1, "l0"), (1, 0, "l1")] {
                w.vu(src);
                w.vu(dst);
                w.f64(1e9);
                w.f64(0.005);
                w.str(name);
            }
            w.vu(1);
            w.str("p0");
            w.vu(2);
            w.vu(0);
            w.vu(1);
        };
        let set = sample();
        let log = |w: &mut WireWriter| {
            w.f64(set.log.interval_s());
            w.vu(1);
            w.vu(set.log.interval_count() as u64);
            put_rows(w, &set.log, 0..set.log.interval_count());
        };
        assert_eq!(
            decode(&restream(topology, log)).unwrap_err(),
            CodecError::Topology(TopologyError::PathHasLoop(NodeId(0)))
        );
    }

    #[test]
    fn varints_cover_the_u64_range() {
        let mut w = WireWriter::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            w.vu(v);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.vu().unwrap(), v);
        }
        assert!(r.is_empty());
    }
}
