//! Property harness for on-disk corruption: the measurement-set codec,
//! the frame layer, and `.nniseg` segment files under byte soup,
//! truncated tails, and single-bit flips. The contract everywhere is the
//! same — a typed error or honest backpressure, never a panic, and never
//! a fabricated row: any interval a follower delivers (resyncing or not)
//! must be byte-for-byte the one the writer recorded.

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nni_measure::codec::{self, CodecError};
use nni_measure::{
    frame_bytes, read_frame, read_frame_v1, DelayStats, FrameError, MeasurementLog, MeasurementSet,
    Provenance, SegmentFollower, SegmentItem, SegmentWriter, FRAME_VERSION,
};
use nni_topology::{PathId, TopologyBuilder};
use proptest::prelude::*;

const MAGIC: &[u8; 7] = b"NNIPROP";

/// A frame the frozen v1 writer produced (see `fixtures/v1/README.md`):
/// `codec::encode(&sample_set(12, V1_SET_SALT))` under [`MAGIC`].
const V1_SET_FRAME: &[u8] = include_bytes!("../../../fixtures/v1/set_frame.bin");
const V1_SET_SALT: u64 = 0x5EED;

fn sample_set(intervals: usize, salt: u64) -> MeasurementSet {
    let mut b = TopologyBuilder::new();
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    let l0 = b.link("l0", h0, h1).unwrap();
    b.path("p0", vec![l0]).unwrap();
    b.path("p1", vec![l0]).unwrap();
    let mut log = MeasurementLog::new(2, 0.1);
    for t in 0..intervals {
        log.record_sent(t, PathId(0), 100 + (t as u64 ^ salt) % 97);
        log.record_lost(t, PathId(0), (t as u64 + salt) % 5);
        log.record_sent(t, PathId(1), 90 + (salt % 11));
    }
    MeasurementSet {
        topology: b.build(),
        classes: vec![vec![PathId(0), PathId(1)]],
        log,
        provenance: Provenance {
            scenario: "proptest corruption".into(),
            scenario_fingerprint: 0xF00D ^ salt,
            seed: salt,
            build: "test".into(),
        },
    }
}

/// `sample_set` plus a salt-derived one-way delay grid: a mix of empty and
/// populated cells with awkward nanosecond values, so the v2 DELAY section
/// is exercised across its whole shape space.
fn sample_set_with_delay(intervals: usize, salt: u64) -> MeasurementSet {
    let mut set = sample_set(intervals, salt);
    let n = set.log.interval_count();
    let mut rows = Vec::with_capacity(n);
    for t in 0..n {
        let mut row = Vec::with_capacity(set.log.path_count());
        for p in 0..set.log.path_count() as u64 {
            let x = (t as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(salt ^ (p << 17));
            if x.is_multiple_of(3) {
                row.push(None);
            } else {
                let base = 1_000_000 + x % 50_000_000;
                let ns: Vec<u64> = (0..1 + x % 7).map(|k| base + k * 13_337).collect();
                row.push(DelayStats::from_sorted_ns(&ns));
            }
        }
        rows.push(row);
    }
    set.log.set_delay(rows);
    set
}

/// One fresh segment file per proptest case.
fn temp_segment() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "nni-proptest-corruption-{}-{}.nniseg",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Maps a unit fraction onto a strict index of an `n`-byte buffer.
fn at(frac: f64, n: usize) -> usize {
    ((frac * n as f64) as usize).min(n - 1)
}

/// Spills `set` as four interval chunks and returns the file bytes plus
/// the byte offset where each chunk *starts* (marks[0] is the header
/// chunk's end, i.e. where the first interval chunk begins).
fn segment_bytes(path: &PathBuf, set: &MeasurementSet) -> (Vec<u8>, Vec<usize>) {
    let total = set.log.interval_count();
    let mut w = SegmentWriter::create(path, set).unwrap();
    let mut marks = vec![std::fs::read(path).unwrap().len()];
    let quarter = total / 4;
    for i in 0..4 {
        let from = i * quarter;
        let to = if i == 3 { total } else { (i + 1) * quarter };
        w.append_intervals(&set.log, from, to).unwrap();
        marks.push(std::fs::read(path).unwrap().len());
    }
    (std::fs::read(path).unwrap(), marks)
}

/// Every `Intervals` item a follower hands out must match the recorded
/// log exactly at its claimed position — degraded means *lossy*, never
/// *wrong*.
fn assert_rows_genuine(items: &[SegmentItem], set: &MeasurementSet) {
    for item in items {
        let SegmentItem::Intervals { first_t, rows } = item else {
            continue;
        };
        for (i, (sent, lost)) in rows.iter().enumerate() {
            let t = first_t + i;
            assert!(t < set.log.interval_count(), "row beyond the log at {t}");
            for p in 0..set.log.path_count() {
                assert_eq!(sent[p], set.log.sent(t, PathId(p)), "sent at ({t},{p})");
                assert_eq!(lost[p], set.log.lost(t, PathId(p)), "lost at ({t},{p})");
            }
        }
    }
}

/// Interop on the measurement wire: a frozen v1 frame carrying an encoded
/// set decodes bit-identically through the v2 reader, and a v2 frame of
/// the same set stops a v1 reader at the version byte with the typed
/// `UnsupportedVersion(2)` — by construction, whatever the payload.
#[test]
fn set_frames_interop_across_wire_versions() {
    let set = sample_set(12, V1_SET_SALT);
    let payload = read_frame(&mut Cursor::new(V1_SET_FRAME), MAGIC)
        .expect("v1 frame reads clean in the v2 reader")
        .expect("one frame present");
    assert_eq!(codec::decode(&payload).unwrap(), set);

    let v2 = frame_bytes(MAGIC, &codec::encode(&set));
    assert!(matches!(
        read_frame_v1(&mut Cursor::new(&v2), MAGIC),
        Err(FrameError::Codec(CodecError::UnsupportedVersion(
            FRAME_VERSION
        )))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte soup into the set codec and the frame reader: typed results
    /// only, whatever the bytes.
    #[test]
    fn set_codec_survives_byte_soup(soup in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = codec::decode(&soup);
        let _ = codec::decode_prefix(&soup);
        let _ = read_frame(&mut Cursor::new(&soup), MAGIC);
        let _ = read_frame_v1(&mut Cursor::new(&soup), MAGIC);
    }

    /// A single flipped bit anywhere in an encoded measurement set is
    /// caught — by a structural check or by the stream checksum — and the
    /// flip never yields a silently different set.
    #[test]
    fn set_bit_flip_is_always_rejected(
        intervals in 1usize..20,
        salt in 0u64..u64::MAX,
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let set = sample_set(intervals, salt);
        let mut bytes = codec::encode(&set);
        prop_assert_eq!(&codec::decode(&bytes).unwrap(), &set);
        let i = at(frac, bytes.len());
        bytes[i] ^= 1 << bit;
        prop_assert!(codec::decode(&bytes).is_err());
    }

    /// Mid-frame EOF on the measurement wire is `UnexpectedEof`; a clean
    /// cut at zero bytes is a clean end-of-stream.
    #[test]
    fn frame_truncation_is_typed(
        intervals in 1usize..20,
        salt in 0u64..u64::MAX,
        frac in 0.0f64..1.0,
    ) {
        let set = sample_set(intervals, salt);
        let frame = frame_bytes(MAGIC, &codec::encode(&set));
        let k = at(frac, frame.len());
        let got = read_frame(&mut Cursor::new(&frame[..k]), MAGIC);
        if k == 0 {
            prop_assert!(matches!(got, Ok(None)));
        } else {
            prop_assert!(matches!(
                got,
                Err(FrameError::Codec(CodecError::UnexpectedEof))
            ), "cut at {k}: {got:?}");
        }
    }

    /// A truncated `.nniseg` tail is backpressure, not corruption: a
    /// strict follower reports whatever whole chunks landed (all genuine)
    /// and waits for the rest.
    #[test]
    fn truncated_segment_tail_is_backpressure(
        intervals in 4usize..24,
        salt in 0u64..u64::MAX,
        frac in 0.0f64..1.0,
    ) {
        let set = sample_set(intervals, salt);
        let path = temp_segment();
        let (bytes, _) = segment_bytes(&path, &set);
        let k = at(frac, bytes.len());
        std::fs::write(&path, &bytes[..k]).unwrap();

        let mut follower = SegmentFollower::open(&path);
        let batch = follower.poll().expect("a short tail is never an error");
        assert_rows_genuine(&batch.items, &set);
        let rows = batch.rows().count();
        prop_assert!(rows <= intervals);

        // The rest of the file lands: the follower catches up to exactly
        // the full log with no gaps.
        std::fs::write(&path, &bytes).unwrap();
        let tail = follower.poll().expect("the completed file reads clean");
        assert_rows_genuine(&tail.items, &set);
        prop_assert_eq!(rows + tail.rows().count(), intervals);
        prop_assert!(!tail.items.iter().any(|i| matches!(i, SegmentItem::Gap(_))));
        std::fs::remove_file(&path).unwrap();
    }

    /// A single flipped bit in a segment never panics a follower and
    /// never forges a row: strict mode gets a typed error (or honest
    /// backpressure), resync mode additionally only ever skips — every
    /// row it does deliver is genuine and gaps are well-formed.
    #[test]
    fn segment_bit_flip_never_forges_rows(
        intervals in 4usize..24,
        salt in 0u64..u64::MAX,
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let set = sample_set(intervals, salt);
        let path = temp_segment();
        let (mut bytes, _) = segment_bytes(&path, &set);
        let i = at(frac, bytes.len());
        bytes[i] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let mut strict = SegmentFollower::open(&path);
        if let Ok(batch) = strict.poll() {
            assert_rows_genuine(&batch.items, &set);
        }

        // An `Err` here is damage the resync machinery cannot route
        // around — the header itself — and is a legitimate typed outcome.
        let mut resync = SegmentFollower::open(&path).with_resync(true);
        if let Ok(batch) = resync.poll() {
            assert_rows_genuine(&batch.items, &set);
            for item in &batch.items {
                if let SegmentItem::Gap(gap) = item {
                    prop_assert!(gap.from_interval <= gap.to_interval);
                    prop_assert!(gap.bytes_skipped > 0);
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Delay-carrying sets round trip bit-identically through the v2
    /// codec, and a single flipped bit anywhere in the v2 stream (including
    /// inside the DELAY section) is always rejected.
    #[test]
    fn delay_sets_round_trip_and_reject_flips(
        intervals in 1usize..20,
        salt in 0u64..u64::MAX,
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let set = sample_set_with_delay(intervals, salt);
        let mut bytes = codec::encode(&set);
        prop_assert_eq!(bytes[7], 2, "delay sets encode as version 2");
        prop_assert_eq!(&codec::decode(&bytes).unwrap(), &set);
        let i = at(frac, bytes.len());
        bytes[i] ^= 1 << bit;
        prop_assert!(codec::decode(&bytes).is_err());
    }

    /// The frozen v1 set reader accepts every loss-only stream (which
    /// still encodes as version 1, bit-identical to pre-delay builds) and
    /// rejects every delay-carrying stream with the typed
    /// `UnsupportedVersion(2)` — the pre-delay compatibility contract.
    #[test]
    fn v1_set_reader_interop(intervals in 1usize..20, salt in 0u64..u64::MAX) {
        let loss_only = sample_set(intervals, salt);
        let bytes = codec::encode(&loss_only);
        prop_assert_eq!(bytes[7], 1, "loss-only sets stay version 1");
        prop_assert_eq!(&codec::decode_v1(&bytes).unwrap(), &loss_only);

        let with_delay = sample_set_with_delay(intervals, salt);
        prop_assert!(matches!(
            codec::decode_v1(&codec::encode(&with_delay)),
            Err(CodecError::UnsupportedVersion(2))
        ));
    }

    /// Marker-adjacent corruption in a segment: a flip inside an interval
    /// chunk's own sync marker costs exactly that chunk. The resync
    /// scanner re-anchors on the next genuine marker, every surviving row
    /// is genuine, and the loss is declared as one well-formed gap — never
    /// silently absorbed.
    #[test]
    fn marker_corruption_costs_exactly_the_damaged_chunk(
        intervals in 8usize..24,
        salt in 0u64..u64::MAX,
        byte in 0usize..8,
        bit in 0u8..8,
    ) {
        let set = sample_set(intervals, salt);
        let path = temp_segment();
        let (mut bytes, marks) = segment_bytes(&path, &set);
        // marks[1] is where the second interval chunk — and therefore its
        // leading sync marker — begins.
        bytes[marks[1] + byte] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let mut resync = SegmentFollower::open(&path).with_resync(true);
        let batch = resync.poll().expect("marker damage is routable");
        assert_rows_genuine(&batch.items, &set);

        let quarter = intervals / 4;
        let mut seen = vec![false; intervals];
        for item in &batch.items {
            if let SegmentItem::Intervals { first_t, rows } = item {
                for i in 0..rows.len() {
                    seen[first_t + i] = true;
                }
            }
        }
        for (t, &got) in seen.iter().enumerate() {
            let damaged = (quarter..2 * quarter).contains(&t);
            prop_assert_eq!(got, !damaged, "interval {}", t);
        }
        let gaps: Vec<_> = batch
            .items
            .iter()
            .filter_map(|i| match i {
                SegmentItem::Gap(g) => Some(g),
                _ => None,
            })
            .collect();
        prop_assert_eq!(gaps.len(), 1, "one declared gap");
        prop_assert_eq!(
            (gaps[0].from_interval, gaps[0].to_interval),
            (quarter, 2 * quarter)
        );
        prop_assert!(gaps[0].bytes_skipped > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
