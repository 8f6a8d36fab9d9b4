//! Property harness for the report codec and its checksummed frame: byte
//! soup, mid-frame EOF, and single-bit flips must always come back as a
//! typed error (or a valid report) — never a panic, a hang, or a huge
//! speculative allocation. This is the decode half of the chaos contract:
//! whatever a dying or faulty worker leaves on the pipe, the parent's
//! failure is classified, not fatal.

use std::io::Cursor;

use nni_emu::{decode_report, encode_report, LinkTruth, QueueTrace, SimReport};
use nni_measure::codec::CodecError;
use nni_measure::{
    frame_bytes, read_frame, read_frame_v1, FrameError, MeasurementLog, FRAME_VERSION,
    FRAME_VERSION_V1,
};
use nni_topology::{LinkId, PathId};
use proptest::prelude::*;

const MAGIC: &[u8; 7] = b"NNITEST";

/// Frames the frozen v1 writer produced (see `fixtures/v1/README.md`):
/// [`v1_fixture_report`] under [`MAGIC`], an encoded measurement set under
/// `NNIPROP`, and `b"legacy"` under [`MAGIC`].
const V1_REPORT_FRAME: &[u8] = include_bytes!("../../../fixtures/v1/report_frame.bin");
const V1_SET_FRAME: &[u8] = include_bytes!("../../../fixtures/v1/set_frame.bin");
const V1_LEGACY_FRAME: &[u8] = include_bytes!("../../../fixtures/v1/legacy_frame.bin");

/// Cheap deterministic value mixer: dims and one salt fully determine a
/// report, so failing cases reproduce from the printed inputs.
fn mix(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn build_report(
    n_paths: usize,
    n_intervals: usize,
    n_links: usize,
    n_classes: usize,
    trace_lens: Vec<usize>,
    salt: u64,
) -> SimReport {
    let mut s = salt;
    let mut log = MeasurementLog::new(n_paths, 0.1);
    for t in 0..n_intervals {
        for p in 0..n_paths {
            log.record_sent(t, PathId(p), mix(&mut s) % 1000);
            log.record_lost(t, PathId(p), mix(&mut s) % 10);
        }
    }
    let mut truth = LinkTruth::new(n_links, n_classes);
    if n_links > 0 && n_classes > 0 {
        for t in 0..n_intervals {
            for l in 0..n_links {
                for c in 0..n_classes {
                    if mix(&mut s).is_multiple_of(2) {
                        truth.record_offered(t, LinkId(l), c as u8);
                    }
                }
            }
        }
    }
    let queue_traces = trace_lens
        .into_iter()
        .map(|len| {
            let mut trace = QueueTrace::default();
            for i in 0..len {
                trace.push(i as f64 * 0.01, mix(&mut s) % 4096);
            }
            trace
        })
        .collect();
    SimReport {
        log,
        link_truth: truth,
        queue_traces,
        completed_flows: (salt % 50) as usize,
        segments_sent: salt % 10_000,
        segments_delivered: salt % 9_000,
        segments_dropped: salt % 100,
    }
}

fn arb_report() -> impl Strategy<Value = SimReport> {
    (
        1usize..4,
        0usize..6,
        0usize..3,
        0usize..3,
        prop::collection::vec(0usize..5, 0..3),
        0u64..u64::MAX,
    )
        .prop_map(|(p, i, l, c, lens, salt)| build_report(p, i, l, c, lens, salt))
}

/// The report inside [`V1_REPORT_FRAME`].
fn v1_fixture_report() -> SimReport {
    build_report(3, 5, 2, 2, vec![4, 0, 2], 0x5EED)
}

/// Backward interop: a frozen v1 frame decodes bit-identically in the v2
/// reader — a fleet can upgrade its readers first.
#[test]
fn v1_frames_decode_bit_identically_in_the_v2_reader() {
    assert_eq!(V1_REPORT_FRAME[7], FRAME_VERSION_V1);
    let payload = read_frame(&mut Cursor::new(V1_REPORT_FRAME), MAGIC)
        .expect("v1 frame reads clean")
        .expect("one frame present");
    assert_eq!(decode_report(&payload).unwrap(), v1_fixture_report());
}

/// The bit-flip guarantee against the frozen v1 layout, exhaustively: no
/// single flipped bit of any v1 fixture frame delivers a payload through
/// either reader.
#[test]
fn v1_frame_bit_flip_never_delivers_in_either_reader() {
    for (frame, magic) in [
        (V1_REPORT_FRAME, MAGIC),
        (V1_SET_FRAME, b"NNIPROP"),
        (V1_LEGACY_FRAME, MAGIC),
    ] {
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.to_vec();
                flipped[i] ^= 1 << bit;
                let v2 = read_frame(&mut Cursor::new(&flipped), magic);
                assert!(v2.is_err(), "byte {i} bit {bit} via v2 reader: {v2:?}");
                let v1 = read_frame_v1(&mut Cursor::new(&flipped), magic);
                assert!(v1.is_err(), "byte {i} bit {bit} via v1 reader: {v1:?}");
            }
        }
    }
}

/// Maps a unit fraction onto a strict index of an `n`-byte buffer.
fn at(frac: f64, n: usize) -> usize {
    ((frac * n as f64) as usize).min(n - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes must decode to a typed result, whatever they are.
    /// (The allocation guards are what make this safe to even attempt:
    /// garbled dimension varints fail fast instead of reserving memory.)
    #[test]
    fn report_decode_survives_byte_soup(soup in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = decode_report(&soup);
        let _ = read_frame(&mut Cursor::new(&soup), MAGIC);
    }

    /// Any strict prefix of a valid report payload is an error — the
    /// decoder consumed every byte on the way in, so it must notice every
    /// missing byte on the way out.
    #[test]
    fn report_truncation_is_a_typed_error(
        report in arb_report(),
        frac in 0.0f64..1.0,
    ) {
        let bytes = encode_report(&report);
        prop_assert_eq!(&decode_report(&bytes).unwrap(), &report);
        let k = at(frac, bytes.len());
        prop_assert!(decode_report(&bytes[..k]).is_err());
    }

    /// A single flipped bit anywhere in a frame can never deliver a
    /// payload: the FNV-1a trailer (or the header checks before it) must
    /// reject the frame with a typed error.
    #[test]
    fn frame_bit_flip_never_delivers_a_payload(
        report in arb_report(),
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut frame = frame_bytes(MAGIC, &encode_report(&report));
        let i = at(frac, frame.len());
        frame[i] ^= 1 << bit;
        let got = read_frame(&mut Cursor::new(&frame), MAGIC);
        prop_assert!(got.is_err(), "flipped frame must not deliver: {got:?}");
    }

    /// A flip confined to the 8-byte FNV trailer is specifically a
    /// checksum mismatch — the payload itself was intact.
    #[test]
    fn flipped_fnv_trailer_is_a_checksum_mismatch(
        report in arb_report(),
        byte in 0usize..8,
        bit in 0u8..8,
    ) {
        let mut frame = frame_bytes(MAGIC, &encode_report(&report));
        let n = frame.len();
        frame[n - 8 + byte] ^= 1 << bit;
        prop_assert!(matches!(
            read_frame(&mut Cursor::new(&frame), MAGIC),
            Err(FrameError::Codec(CodecError::ChecksumMismatch))
        ));
    }

    /// EOF inside a frame is the worker-died signal: every nonempty strict
    /// prefix must classify as `UnexpectedEof`, and the empty prefix as a
    /// clean end-of-stream.
    #[test]
    fn mid_frame_eof_is_unexpected_eof(
        report in arb_report(),
        frac in 0.0f64..1.0,
    ) {
        let frame = frame_bytes(MAGIC, &encode_report(&report));
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

    /// Forward interop: a still-deployed v1 reader stops on a v2 frame at
    /// the version byte with a typed `UnsupportedVersion(2)` — never a
    /// checksum mismatch, never a speculative allocation from misreading
    /// the sync marker as a length.
    #[test]
    fn v2_frames_fail_the_v1_reader_at_the_version_byte(report in arb_report()) {
        let frame = frame_bytes(MAGIC, &encode_report(&report));
        let got = read_frame_v1(&mut Cursor::new(&frame), MAGIC);
        prop_assert!(matches!(
            got,
            Err(FrameError::Codec(CodecError::UnsupportedVersion(FRAME_VERSION)))
        ), "v1 reader on a v2 frame: {got:?}");
    }

    /// Marker-adjacent corruption: a flip confined to the 8-byte sync
    /// region of a v2 frame is specifically the typed sync-marker
    /// mismatch — the resync scanner's anchor failure, not a mystery
    /// checksum error downstream.
    #[test]
    fn sync_marker_corruption_is_the_typed_marker_mismatch(
        report in arb_report(),
        byte in 0usize..8,
        bit in 0u8..8,
    ) {
        let mut frame = frame_bytes(MAGIC, &encode_report(&report));
        frame[8 + byte] ^= 1 << bit; // magic(7) · version(1) · SYNC(8..16)
        prop_assert!(matches!(
            read_frame(&mut Cursor::new(&frame), MAGIC),
            Err(FrameError::Codec(CodecError::BadValue("frame sync marker mismatch")))
        ));
    }

    /// Garbage that diverges from the magic inside the first seven bytes —
    /// however short — is `BadMagic`, never `UnexpectedEof`: a dialer that
    /// reaches the wrong port gets told so even if the stranger only wrote
    /// a byte or two.
    #[test]
    fn short_garbage_is_bad_magic_not_eof(
        agree in 0usize..7,
        wrong in 0u8..=255,
        tail in prop::collection::vec(0u8..=255, 0..32),
    ) {
        let mut bytes = MAGIC[..agree].to_vec();
        bytes.push(if wrong == MAGIC[agree] { wrong.wrapping_add(1) } else { wrong });
        bytes.extend_from_slice(&tail);
        let got = read_frame(&mut Cursor::new(&bytes), MAGIC);
        prop_assert!(matches!(
            got,
            Err(FrameError::Codec(CodecError::BadMagic))
        ), "diverging byte at {agree}: {got:?}");
    }
}
