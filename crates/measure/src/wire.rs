//! Shared wire primitives: the byte-level writer/reader the binary codecs
//! build on, plus stream framing for the worker protocol.
//!
//! The [`codec`](crate::codec) module (measurement sets), the `SimReport`
//! codec in `nni-emu`, and the `Scenario` codec in `nni-scenario` all fold
//! through these primitives, so every format in the tree shares one
//! definition of varints, strings, and f64 bit patterns — and one checksum.
//!
//! # Frame layout (version 2)
//!
//! A *frame* is one length-prefixed, checksummed message on a byte stream
//! (worker stdin/stdout, a spool file, a socket):
//!
//! ```text
//! magic     7 bytes   frame-type magic (e.g. b"NNIWJOB")
//! version   u8        2
//! sync      8 bytes   SYNC_MARKER — the self-delimiting resync boundary
//! length    u64 LE    payload byte count
//! payload   …         codec-specific bytes
//! checksum  u64 LE    FNV-1a over every preceding byte (magic included)
//! ```
//!
//! Version 1 is the same layout without the sync marker. The marker is
//! what makes v2 streams recoverable without trusting the length field: a
//! reader that loses framing scans for the next marker instead of
//! trial-decoding at every byte offset, so a corrupted *length* can no
//! longer masquerade as an in-flight message forever.
//!
//! # Negotiation
//!
//! The magic and version byte lead both layouts, so the version byte is
//! the compatibility gate in both directions: this (v2) reader accepts v1
//! frames bit-identically, and a deployed v1 reader that meets a v2 frame
//! stops at the version byte with [`CodecError::UnsupportedVersion`]`(2)` —
//! never a checksum or allocation error, because it rejects before ever
//! interpreting a length. Readers reject bad magic, newer versions, and
//! checksum mismatches with typed [`CodecError`]s; a clean end-of-stream
//! *between* frames reads as `Ok(None)`, while a stream that dies mid-frame
//! is [`CodecError::UnexpectedEof`].

use std::io::{Read, Write};

use crate::codec::CodecError;
use crate::dataset::Fnv;

/// Current frame-format version (all frame magics): sync-marker frames.
pub const FRAME_VERSION: u8 = 2;

/// The frozen version-1 frame format (no sync marker). Still fully
/// readable; nothing writes it any more (the interop tests read committed
/// v1 frames from `fixtures/v1/`).
pub const FRAME_VERSION_V1: u8 = 1;

/// The 8-byte synchronization marker that leads every v2 frame and every
/// v2 segment chunk. Chosen like the PNG signature: a high bit set (so
/// 7-bit-clean transports corrupt it loudly), the protocol name, and a
/// CR-LF tail that newline-translating transports would mangle.
pub const SYNC_MARKER: [u8; 8] = [0xC5, b'N', b'N', b'I', b'2', 0x96, 0x0D, 0x0A];

/// Append-only byte sink with the codec primitives: little-endian
/// `u64`/`f64` (bit patterns), LEB128 varints, length-prefixed strings.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrowed view of the bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends raw bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its bit pattern (round trips are bit-identical).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a LEB128 varint (7 bits per byte, high bit = continue).
    pub fn vu(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.vu(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// What a field walk writes into. One walk per wire structure serves both
/// of its uses: [`WireWriter`] lays the fields out as bytes, and [`Fnv`]
/// folds them into a fingerprint (`u8` and `vu` as one word each, `f64` as
/// its bit pattern, `str` length-prefixed).
pub trait Sink {
    /// One small tag or flag.
    fn u8(&mut self, v: u8);
    /// A count or index (a varint on the wire).
    fn vu(&mut self, v: u64);
    /// A float, bit-exact.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, s: &str);
}

impl Sink for WireWriter {
    fn u8(&mut self, v: u8) {
        WireWriter::u8(self, v)
    }
    fn vu(&mut self, v: u64) {
        WireWriter::vu(self, v)
    }
    fn f64(&mut self, v: f64) {
        WireWriter::f64(self, v)
    }
    fn str(&mut self, s: &str) {
        WireWriter::str(self, s)
    }
}

impl Sink for Fnv {
    fn u8(&mut self, v: u8) {
        self.word(v as u64)
    }
    fn vu(&mut self, v: u64) {
        self.word(v)
    }
    fn f64(&mut self, v: f64) {
        Fnv::f64(self, v)
    }
    fn str(&mut self, s: &str) {
        Fnv::str(self, s)
    }
}

/// Cursor over a byte slice with the matching read primitives; every read
/// is bounds-checked and fails with [`CodecError::UnexpectedEof`] instead
/// of panicking on truncated input.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// A reader starting at `pos` (e.g. after a prefix decode).
    pub fn at(buf: &'a [u8], pos: usize) -> WireReader<'a> {
        WireReader { buf, pos }
    }

    /// Current offset into the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a LEB128 varint. A one-byte varint, the common case for
    /// measurement counts, takes one bounds check.
    #[inline]
    pub fn vu(&mut self) -> Result<u64, CodecError> {
        match self.buf.get(self.pos) {
            Some(&byte) if byte & 0x80 == 0 => {
                self.pos += 1;
                Ok(byte as u64)
            }
            _ => self.vu_long(),
        }
    }

    /// [`vu`](WireReader::vu) for a varint of two or more bytes, or at the
    /// end of input.
    fn vu_long(&mut self) -> Result<u64, CodecError> {
        let mut out: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            out |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(CodecError::BadValue("varint longer than 64 bits"))
    }

    /// Reads one row of the `(sent vu, lost vu)` grid that `put_rows`
    /// writes: `width` cells, each a sent count then a lost count. Eight
    /// bytes with no continuation bit among them are four cells of
    /// one-byte varints and are taken at once; anywhere else the row reads
    /// one cell through [`vu`](WireReader::vu). Every value, error and
    /// stop position is that of the cell-by-cell `vu` loop. Only the set
    /// decoder reads through it: a segment's interval chunks keep their
    /// own cell loop, which parses narrow and multi-byte rows faster.
    pub(crate) fn row(&mut self, width: usize) -> Result<(Vec<u64>, Vec<u64>), CodecError> {
        let mut sent = vec![0; width];
        let mut lost = vec![0; width];
        let mut p = 0;
        while p < width {
            if width - p >= 4 {
                if let Some(chunk) = self.buf.get(self.pos..self.pos + 8) {
                    let chunk: [u8; 8] = chunk.try_into().expect("8 bytes");
                    if u64::from_le_bytes(chunk) & 0x8080_8080_8080_8080 == 0 {
                        for (k, cell) in chunk.chunks_exact(2).enumerate() {
                            sent[p + k] = cell[0] as u64;
                            lost[p + k] = cell[1] as u64;
                        }
                        self.pos += 8;
                        p += 4;
                        continue;
                    }
                }
            }
            sent[p] = self.vu()?;
            lost[p] = self.vu()?;
            p += 1;
        }
        Ok((sent, lost))
    }

    /// Reads a varint as a collection length, rejecting counts that exceed
    /// the remaining bytes — a corrupted count fails with a clear error
    /// instead of an OOM.
    pub fn len(&mut self) -> Result<usize, CodecError> {
        let v = self.vu()?;
        if v > self.remaining() as u64 {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(v as usize)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

/// Why a frame failed to cross a stream: transport failure or codec
/// failure. The distinction matters to the worker pool — an I/O error (or
/// mid-frame EOF) means a worker died and the job can be retried; a codec
/// error means the bytes themselves are bad and retrying cannot help.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The bytes arrived but did not decode.
    Codec(CodecError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Codec(e) => write!(f, "frame codec error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> FrameError {
        FrameError::Codec(e)
    }
}

/// Serializes one v2 frame: magic, version byte, sync marker, payload
/// length, payload, and the trailing FNV-1a checksum over everything
/// before it.
pub fn frame_bytes(magic: &[u8; 7], payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.raw(magic);
    w.u8(FRAME_VERSION);
    w.raw(&SYNC_MARKER);
    w.u64(payload.len() as u64);
    w.raw(payload);
    let mut h = Fnv::new();
    h.bytes(w.bytes());
    let checksum = h.0;
    w.u64(checksum);
    w.into_bytes()
}

/// Writes one frame to a stream and flushes it (the consumer on the other
/// end of a pipe is waiting on exactly this message).
pub fn write_frame(
    out: &mut impl Write,
    magic: &[u8; 7],
    payload: &[u8],
) -> Result<(), FrameError> {
    out.write_all(&frame_bytes(magic, payload))?;
    out.flush()?;
    Ok(())
}

/// `read_exact` with mid-frame EOF mapped to the codec error it is.
fn read_frame_bytes(input: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    input.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Codec(CodecError::UnexpectedEof),
        _ => FrameError::Io(e),
    })
}

/// Reads one frame (version 1 or 2) from a stream, verifying magic,
/// version, sync marker (v2), and checksum.
///
/// Returns `Ok(None)` on a clean end-of-stream (no bytes before EOF) — how
/// a worker recognizes an orderly shutdown; an EOF *inside* a frame is
/// [`CodecError::UnexpectedEof`] (a peer died mid-message). The magic is
/// validated as its bytes arrive, so input that was never a frame — even
/// input shorter than a full header — classifies as
/// [`CodecError::BadMagic`] at the first disagreeing byte rather than
/// `UnexpectedEof` at the end of a header read that could not succeed.
pub fn read_frame(input: &mut impl Read, magic: &[u8; 7]) -> Result<Option<Vec<u8>>, FrameError> {
    let mut head = [0u8; 7];
    let mut got = 0usize;
    while got < head.len() {
        let n = input.read(&mut head[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None); // clean EOF between frames
            }
            // A true prefix of the magic, then silence: a peer died
            // mid-frame, not a stream of non-frame bytes.
            return Err(CodecError::UnexpectedEof.into());
        }
        got += n;
        if head[..got] != magic[..got] {
            return Err(CodecError::BadMagic.into());
        }
    }
    let mut version = [0u8; 1];
    read_frame_bytes(input, &mut version)?;
    let version = version[0];
    // Everything before the payload participates in the checksum.
    let mut header: Vec<u8> = Vec::with_capacity(7 + 1 + 8 + 8);
    header.extend_from_slice(&head);
    header.push(version);
    match version {
        FRAME_VERSION_V1 => {}
        FRAME_VERSION => {
            let mut sync = [0u8; 8];
            read_frame_bytes(input, &mut sync)?;
            if sync != SYNC_MARKER {
                return Err(CodecError::BadValue("frame sync marker mismatch").into());
            }
            header.extend_from_slice(&sync);
        }
        other => return Err(CodecError::UnsupportedVersion(other).into()),
    }
    let mut len_bytes = [0u8; 8];
    read_frame_bytes(input, &mut len_bytes)?;
    header.extend_from_slice(&len_bytes);
    let len = u64::from_le_bytes(len_bytes);
    // A frame is one in-flight message, not a corpus: cap the payload so a
    // corrupted length fails loudly instead of attempting a huge allocation.
    const MAX_FRAME: u64 = 1 << 32;
    if len > MAX_FRAME {
        return Err(CodecError::BadValue("frame payload over 4 GiB").into());
    }
    let mut payload = vec![0u8; len as usize];
    read_frame_bytes(input, &mut payload)?;
    let mut trailer = [0u8; 8];
    read_frame_bytes(input, &mut trailer)?;
    let mut h = Fnv::new();
    h.bytes(&header);
    h.bytes(&payload);
    if u64::from_le_bytes(trailer) != h.0 {
        return Err(CodecError::ChecksumMismatch.into());
    }
    Ok(Some(payload))
}

/// The frozen version-1 reader, byte-for-byte what every pre-v2 binary
/// runs: reads the full 16-byte header before validating anything and
/// accepts only version 1. Kept so interop tests can pin how deployed v1
/// readers classify v2 input ([`CodecError::UnsupportedVersion`]`(2)`,
/// never a checksum or allocation error) — including its documented
/// rough edge that short garbage reads as `UnexpectedEof`.
pub fn read_frame_v1(
    input: &mut impl Read,
    magic: &[u8; 7],
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 16]; // magic + version + length
    let mut got = 0usize;
    while got < header.len() {
        let n = input.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(CodecError::UnexpectedEof.into());
        }
        got += n;
    }
    if &header[..7] != magic {
        return Err(CodecError::BadMagic.into());
    }
    if header[7] != FRAME_VERSION_V1 {
        return Err(CodecError::UnsupportedVersion(header[7]).into());
    }
    let len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    const MAX_FRAME: u64 = 1 << 32;
    if len > MAX_FRAME {
        return Err(CodecError::BadValue("frame payload over 4 GiB").into());
    }
    let mut payload = vec![0u8; len as usize];
    read_frame_bytes(input, &mut payload)?;
    let mut trailer = [0u8; 8];
    read_frame_bytes(input, &mut trailer)?;
    let mut h = Fnv::new();
    for &b in header.iter().chain(&payload) {
        h.byte(b);
    }
    if u64::from_le_bytes(trailer) != h.0 {
        return Err(CodecError::ChecksumMismatch.into());
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 7] = b"NNITEST";

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.vu(300);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.vu().unwrap(), 300);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_empty());
    }

    /// The reference row reader: one `vu` per count, cell by cell.
    fn row_reference(
        r: &mut WireReader<'_>,
        width: usize,
    ) -> Result<(Vec<u64>, Vec<u64>), CodecError> {
        let (mut sent, mut lost) = (Vec::new(), Vec::new());
        for _ in 0..width {
            sent.push(r.vu()?);
            lost.push(r.vu()?);
        }
        Ok((sent, lost))
    }

    /// Reads `rows` rows of `width` from `at` with both readers, row by
    /// row, and asserts the same rows (or error) and the same position
    /// after each.
    fn assert_rows_match(bytes: &[u8], at: usize, width: usize, rows: usize) {
        let mut bulk = WireReader::at(bytes, at);
        let mut reference = WireReader::at(bytes, at);
        for i in 0..rows {
            let got = bulk.row(width);
            let want = row_reference(&mut reference, width);
            assert_eq!(got, want, "width {width}, row {i}, {} bytes", bytes.len());
            assert_eq!(bulk.pos(), reference.pos(), "width {width}, row {i}");
            if want.is_err() {
                return;
            }
        }
    }

    #[test]
    fn row_reads_what_the_cell_by_cell_loop_reads() {
        // Varint length edges, and one-byte counts to make runs.
        const EDGES: [u64; 6] = [0, 127, 128, 16383, 16384, u64::MAX];
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for width in 0..=9 {
            for trial in 0..40 {
                let rows = 1 + trial % 3;
                let mut w = WireWriter::new();
                // A 0–7 byte lead-in, so the one-byte runs sit at every
                // offset against the 8-byte chunks.
                let lead = trial % 8;
                for _ in 0..lead {
                    w.u8(0x7F);
                }
                for _ in 0..rows * width * 2 {
                    // Mostly one-byte counts (long runs, some crossing a
                    // chunk), now and then an edge value.
                    let v = match next() % 8 {
                        0 => EDGES[next() as usize % EDGES.len()],
                        _ => next() % 128,
                    };
                    w.vu(v);
                }
                let bytes = w.into_bytes();
                let mut r = WireReader::at(&bytes, lead);
                for _ in 0..rows {
                    r.row(width).unwrap();
                }
                assert!(r.is_empty());
                // Every truncation: EOF at every byte offset, mid-varint
                // and between cells.
                for cut in lead..=bytes.len() {
                    assert_rows_match(&bytes[..cut], lead, width, rows);
                }
            }
        }
        // Every edge value in every cell position of a row of width 9.
        for &v in &EDGES {
            for cell in 0..18 {
                let mut w = WireWriter::new();
                for c in 0..18 {
                    w.vu(if c == cell { v } else { c as u64 });
                }
                let bytes = w.into_bytes();
                for cut in 0..=bytes.len() {
                    assert_rows_match(&bytes[..cut], 0, 9, 1);
                }
            }
        }
        // A varint longer than 64 bits mid-row, and random bytes.
        let mut bytes = vec![1u8; 9];
        bytes.extend([0xFF; 11]);
        bytes.extend([1u8; 12]);
        for width in 0..=9 {
            assert_rows_match(&bytes, 0, width, 3);
        }
        for _ in 0..200 {
            let garbage: Vec<u8> = (0..40).map(|_| next() as u8).collect();
            for width in 0..=9 {
                assert_rows_match(&garbage, 0, width, 4);
            }
        }
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut stream = Vec::new();
        write_frame(&mut stream, MAGIC, b"first").unwrap();
        write_frame(&mut stream, MAGIC, b"").unwrap();
        write_frame(&mut stream, MAGIC, &[0xFFu8; 1000]).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor, MAGIC).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut cursor, MAGIC).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut cursor, MAGIC).unwrap().unwrap(),
            vec![0xFFu8; 1000]
        );
        // Clean EOF between frames is an orderly shutdown, not an error.
        assert!(read_frame(&mut cursor, MAGIC).unwrap().is_none());
    }

    #[test]
    fn corrupted_frames_fail_loudly() {
        let mut bytes = frame_bytes(MAGIC, b"payload");
        // Wrong magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        let err = read_frame(&mut b.as_slice(), MAGIC).unwrap_err();
        assert!(matches!(err, FrameError::Codec(CodecError::BadMagic)));
        // Future version.
        let mut b = bytes.clone();
        b[7] = 9;
        let err = read_frame(&mut b.as_slice(), MAGIC).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Codec(CodecError::UnsupportedVersion(9))
        ));
        // Damaged sync marker.
        let mut b = bytes.clone();
        b[10] ^= 0x20;
        let err = read_frame(&mut b.as_slice(), MAGIC).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Codec(CodecError::BadValue("frame sync marker mismatch"))
        ));
        // Flipped payload byte trips the checksum (v2 payload starts at
        // magic + version + sync + length = 24).
        let mut b = bytes.clone();
        b[24] ^= 0x01;
        let err = read_frame(&mut b.as_slice(), MAGIC).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Codec(CodecError::ChecksumMismatch)
        ));
        // Truncation mid-frame is an EOF error, not a clean end.
        bytes.truncate(bytes.len() - 3);
        let err = read_frame(&mut bytes.as_slice(), MAGIC).unwrap_err();
        assert!(matches!(err, FrameError::Codec(CodecError::UnexpectedEof)));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut bytes = frame_bytes(MAGIC, b"x");
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&mut bytes.as_slice(), MAGIC).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Codec(CodecError::BadValue("frame payload over 4 GiB"))
        ));
    }

    #[test]
    fn v2_reader_accepts_v1_frames() {
        // A frame the frozen v1 writer produced: NNITEST / b"legacy".
        let mut stream = include_bytes!("../../../fixtures/v1/legacy_frame.bin").to_vec();
        assert_eq!(stream[7], FRAME_VERSION_V1);
        stream.extend_from_slice(&frame_bytes(MAGIC, b"modern"));
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor, MAGIC).unwrap().unwrap(), b"legacy");
        assert_eq!(read_frame(&mut cursor, MAGIC).unwrap().unwrap(), b"modern");
        assert!(read_frame(&mut cursor, MAGIC).unwrap().is_none());
    }

    #[test]
    fn v1_reader_rejects_v2_frames_at_the_version_byte() {
        let bytes = frame_bytes(MAGIC, b"from the future");
        let err = read_frame_v1(&mut bytes.as_slice(), MAGIC).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Codec(CodecError::UnsupportedVersion(FRAME_VERSION))
        ));
    }

    #[test]
    fn short_garbage_is_bad_magic_not_eof() {
        // Fewer bytes than a header, none of them magic: the stream was
        // never a frame, and the error must say so.
        for garbage in [&b"x"[..], b"junk", b"NNIXXXX", b"\x00\x00\x00"] {
            let err = read_frame(&mut &garbage[..], MAGIC).unwrap_err();
            assert!(
                matches!(err, FrameError::Codec(CodecError::BadMagic)),
                "{garbage:?} -> {err:?}"
            );
        }
        // A true prefix of the magic, then EOF: a peer died mid-frame.
        let err = read_frame(&mut &MAGIC[..3], MAGIC).unwrap_err();
        assert!(matches!(err, FrameError::Codec(CodecError::UnexpectedEof)));
    }
}
