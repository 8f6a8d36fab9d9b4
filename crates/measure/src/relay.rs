//! Segment relay: ship a growing corpus directory's live `.nniseg` bytes
//! over any byte stream — in practice a TCP socket — so a *remote*
//! follower sees exactly the bytes a local [`CorpusTail`](crate::CorpusTail)
//! would read from disk.
//!
//! The design goal is semantic transparency: the relay moves **raw file
//! bytes**, not decoded items. The receiving [`RemoteTail`] reassembles
//! each file into an append-only buffer and runs the very same
//! [`SegmentFollower::poll_bytes`] state machine a local tail runs, in
//! resync mode — so corrupt chunks degrade to
//! [`TailEvent::SegmentGap`]s, header corruption is terminal per file,
//! and the v2 sync-marker recovery semantics hold bit-for-bit, *by
//! construction* rather than by reimplementation.
//!
//! # Protocol
//!
//! One relay message is one standard v2 [`wire`](crate::wire) frame with
//! magic [`RELAY_MAGIC`] whose payload is:
//!
//! ```text
//! name    str       relative file name (e.g. "pol-02-s000007.nniseg")
//! offset  varint    byte offset of `data` within the file
//! data    …         the newly appended raw bytes (rest of the payload)
//! ```
//!
//! Within one connection a server sends each file's bytes contiguously
//! (`offset` always equals the bytes already sent for that file), so a
//! client treats a discontinuity as a broken connection, not a gap —
//! segment-level loss is the follower's job to classify, transport-level
//! loss is a transport error.
//!
//! The server side is [`RelaySource`]: per-connection cursors over the
//! directory, a [`pump`](RelaySource::pump) that frames whatever newly
//! landed, and a [`serve`](RelaySource::serve) loop that pumps until the
//! peer goes away. Only `.nniseg` traffic is relayed: complete `.nniset`
//! entries are batch artifacts — remote *monitoring* is about live
//! segments (this is `nni-serviced --serve-segments` / `nni-live
//! --connect`).

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::Duration;

use crate::codec::CodecError;
use crate::corpus::list_in_order;
use crate::segment::{SegmentFollower, SEGMENT_EXT};
use crate::tail::{segment_event, TailEvent};
use crate::wire::{frame_bytes, read_frame, FrameError, WireReader, WireWriter};

/// Frame magic of the segment-relay protocol.
pub const RELAY_MAGIC: &[u8; 7] = b"NNISEGR";

/// Serializes one relay message: `data` landed at byte `offset` of the
/// segment file `name`.
pub fn relay_frame(name: &str, offset: u64, data: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.str(name);
    w.vu(offset);
    w.raw(data);
    frame_bytes(RELAY_MAGIC, w.bytes())
}

/// Decodes one relay frame payload back into `(name, offset, data)`.
pub fn decode_relay(payload: &[u8]) -> Result<(String, u64, Vec<u8>), CodecError> {
    let mut r = WireReader::new(payload);
    let name = r.str()?;
    let offset = r.vu()?;
    let data = r.take(r.remaining())?.to_vec();
    Ok((name, offset, data))
}

/// Server side of the relay: per-connection send cursors over one corpus
/// directory's `.nniseg` files. One instance serves one connection (each
/// client gets the full history from byte zero).
#[derive(Debug)]
pub struct RelaySource {
    dir: PathBuf,
    /// Bytes already sent per file.
    sent: HashMap<PathBuf, usize>,
}

impl RelaySource {
    /// A source over `dir` that has sent nothing yet.
    pub fn new(dir: impl Into<PathBuf>) -> RelaySource {
        RelaySource {
            dir: dir.into(),
            sent: HashMap::new(),
        }
    }

    /// Scans the directory once and writes one frame per segment file
    /// that grew, in stable replay order. Returns how many frames went
    /// out. Stream errors surface; a directory that does not exist yet
    /// is an empty scan (a relay can be serving before its producer
    /// first spills), and a file that vanished mid-scan is skipped (its
    /// cursor survives in case it reappears).
    pub fn pump(&mut self, out: &mut impl Write) -> std::io::Result<usize> {
        let files = match list_in_order(&self.dir, &[SEGMENT_EXT]) {
            Ok(files) => files,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };

        let mut frames = 0;
        for path in files {
            let Ok(bytes) = fs::read(&path) else {
                continue;
            };
            let sent = self.sent.entry(path.clone()).or_insert(0);
            if bytes.len() <= *sent {
                continue;
            }
            let name = path
                .file_name()
                .expect("segment files have names")
                .to_string_lossy()
                .into_owned();
            out.write_all(&relay_frame(&name, *sent as u64, &bytes[*sent..]))?;
            *sent = bytes.len();
            frames += 1;
        }
        Ok(frames)
    }

    /// Pumps in a loop until the stream dies (the peer disconnecting is
    /// the normal way a relay connection ends — its error is returned so
    /// a server can log it). Sleeps `poll` between empty scans.
    pub fn serve(&mut self, out: &mut impl Write, poll: Duration) -> std::io::Error {
        loop {
            match self.pump(out).and_then(|n| {
                out.flush()?;
                Ok(n)
            }) {
                Ok(0) => std::thread::sleep(poll.max(Duration::from_millis(1))),
                Ok(_) => {}
                Err(e) => return e,
            }
        }
    }
}

/// One relayed file on the client: its reassembled byte buffer and the
/// follower state machine running over it.
#[derive(Debug)]
struct RemoteFile {
    buffer: Vec<u8>,
    follower: SegmentFollower,
}

/// What the reader thread delivers per relay frame: `(name, offset,
/// data)` on success, the terminal frame error otherwise.
type RelayMsg = Result<(String, u64, Vec<u8>), FrameError>;

/// Client side of the relay: a [`CorpusTail`](crate::CorpusTail)-shaped
/// poll surface over a relay connection. A background thread reads
/// frames; [`poll`](RemoteTail::poll) drains them, reassembles per-file
/// buffers, and yields the same [`TailEvent`]s a local tail would — with
/// resync enabled, so the degraded-stream semantics match exactly.
#[derive(Debug)]
pub struct RemoteTail {
    rx: Receiver<RelayMsg>,
    files: HashMap<String, RemoteFile>,
    /// Files that hit a terminal follower error (reported once).
    dead: HashSet<String>,
    /// The connection ended (clean EOF or error, already reported).
    finished: bool,
}

impl RemoteTail {
    /// A tail over any frame-carrying byte stream. The reader thread owns
    /// `input` and runs until end-of-stream or a frame error.
    pub fn from_reader(mut input: impl Read + Send + 'static) -> RemoteTail {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || loop {
            match read_frame(&mut input, RELAY_MAGIC) {
                Ok(Some(payload)) => {
                    let msg = decode_relay(&payload).map_err(FrameError::from);
                    let bad = msg.is_err();
                    if tx.send(msg).is_err() || bad {
                        return;
                    }
                }
                Ok(None) => return, // clean shutdown: channel hangs up
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        });
        RemoteTail {
            rx,
            files: HashMap::new(),
            dead: HashSet::new(),
            finished: false,
        }
    }

    /// Connects to a relay server (`nni-serviced --serve-segments`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RemoteTail> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(RemoteTail::from_reader(stream))
    }

    /// Whether the connection is over: no more events will ever arrive.
    /// (Events already received still drain through [`poll`]
    /// first — `finished` flips only once the queue is empty.)
    ///
    /// [`poll`]: RemoteTail::poll
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Drains everything the connection has delivered since the last
    /// call, in arrival order. An empty vector means no change (or a
    /// finished connection). Transport-level failures — a dead stream,
    /// an undecodable frame, an offset discontinuity — surface as `Err`
    /// once; per-file segment corruption degrades exactly as a local
    /// tail's would ([`TailEvent::SegmentGap`] / [`TailEvent::Corrupt`]).
    pub fn poll(&mut self) -> std::io::Result<Vec<TailEvent>> {
        let mut events = Vec::new();
        loop {
            match self.rx.try_recv() {
                Ok(Ok((name, offset, data))) => self.apply(name, offset, &data, &mut events)?,
                Ok(Err(e)) => {
                    self.finished = true;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("relay connection failed: {e}"),
                    ));
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.finished = true;
                    break;
                }
            }
        }
        Ok(events)
    }

    fn apply(
        &mut self,
        name: String,
        offset: u64,
        data: &[u8],
        events: &mut Vec<TailEvent>,
    ) -> std::io::Result<()> {
        if self.dead.contains(&name) {
            return Ok(()); // terminal per-file error already reported
        }
        let file = self.files.entry(name.clone()).or_insert_with(|| {
            RemoteFile {
                buffer: Vec::new(),
                // Resync mode, like CorpusTail: a remote consumer wants a
                // degraded stream, not a dead one. The path is a label —
                // this follower is only ever fed bytes, never the disk.
                follower: SegmentFollower::open(&name).with_resync(true),
            }
        });
        if offset != file.buffer.len() as u64 {
            self.finished = true;
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "relay offset discontinuity for {name:?}: got {offset}, expected {}",
                    file.buffer.len()
                ),
            ));
        }
        file.buffer.extend_from_slice(data);
        let path = PathBuf::from(&name);
        match file.follower.poll_bytes(&file.buffer) {
            Ok(batch) => events.extend(batch.items.into_iter().map(|i| segment_event(&path, i))),
            Err(e) => {
                self.files.remove(&name);
                self.dead.insert(name);
                events.push(TailEvent::Corrupt {
                    path,
                    message: e.to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::segment_file_name;
    use crate::dataset::{MeasurementSet, Provenance};
    use crate::record::MeasurementLog;
    use crate::segment::SegmentWriter;
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
        let dir = std::env::temp_dir().join(format!(
            "nni-relay-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A tail with no live connection: tests drive [`RemoteTail::apply`]
    /// synchronously (the reader thread in real use does exactly this,
    /// one frame at a time).
    fn bare_tail() -> RemoteTail {
        RemoteTail::from_reader(std::io::empty())
    }

    /// Pumps `src` once and applies every resulting frame to `tail`,
    /// returning the events — one deterministic relay round trip.
    fn relay_once(src: &mut RelaySource, tail: &mut RemoteTail) -> Vec<TailEvent> {
        let mut wire = Vec::new();
        src.pump(&mut wire).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut events = Vec::new();
        while let Some(payload) = read_frame(&mut cursor, RELAY_MAGIC).unwrap() {
            let (name, offset, data) = decode_relay(&payload).unwrap();
            tail.apply(name, offset, &data, &mut events).unwrap();
        }
        events
    }

    /// Structural fingerprint of an event stream, for local-vs-remote
    /// parity assertions (paths differ by construction: local events
    /// carry absolute paths, relayed ones the relative name).
    fn shape(events: &[TailEvent]) -> Vec<String> {
        events
            .iter()
            .map(|e| match e {
                TailEvent::Entry { .. } => "entry".into(),
                TailEvent::SegmentHeader { set, .. } => {
                    format!("header seed={}", set.provenance.seed)
                }
                TailEvent::SegmentIntervals { first_t, rows, .. } => {
                    format!("intervals {first_t}+{} {:?}", rows.len(), rows)
                }
                TailEvent::SegmentGap {
                    from_interval,
                    to_interval,
                    bytes_skipped,
                    ..
                } => format!("gap {from_interval}..{to_interval} ({bytes_skipped}B)"),
                TailEvent::Corrupt { message, .. } => format!("corrupt {message}"),
            })
            .collect()
    }

    #[test]
    fn relay_frames_round_trip() {
        let frame = relay_frame("a.nniseg", 42, b"payload bytes");
        let mut cursor = std::io::Cursor::new(frame);
        let payload = read_frame(&mut cursor, RELAY_MAGIC).unwrap().unwrap();
        let (name, offset, data) = decode_relay(&payload).unwrap();
        assert_eq!(name, "a.nniseg");
        assert_eq!(offset, 42);
        assert_eq!(data, b"payload bytes");
    }

    #[test]
    fn remote_tail_matches_local_tail_on_a_growing_segment() {
        let dir = temp_dir("grow");
        let set = tiny_set("grow", 3, 9);
        let path = dir.join(segment_file_name(&set.provenance));
        let mut w = SegmentWriter::create(&path, &set).unwrap();

        let mut local = crate::CorpusTail::open(&dir).unwrap();
        let mut src = RelaySource::new(&dir);
        let mut remote = bare_tail();

        w.append_intervals(&set.log, 0, 4).unwrap();
        let l1 = local.poll().unwrap();
        let r1 = relay_once(&mut src, &mut remote);
        assert_eq!(shape(&l1), shape(&r1));
        assert!(!r1.is_empty(), "header + first rows crossed the relay");

        w.append_intervals(&set.log, 4, 9).unwrap();
        let l2 = local.poll().unwrap();
        let r2 = relay_once(&mut src, &mut remote);
        assert_eq!(shape(&l2), shape(&r2));

        // Quiescent: neither side invents traffic.
        assert!(local.poll().unwrap().is_empty());
        assert!(relay_once(&mut src, &mut remote).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_chunk_degrades_identically_on_both_sides() {
        let dir = temp_dir("parity-gap");
        let set = tiny_set("parity", 5, 12);
        let path = dir.join(segment_file_name(&set.provenance));
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 4).unwrap();
        let clean = fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 4, 8).unwrap();
        w.append_intervals(&set.log, 8, 12).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[clean + 20] ^= 0x10; // middle chunk's payload
        fs::write(&path, &bytes).unwrap();

        let local = crate::CorpusTail::open(&dir).unwrap().poll();
        let remote = relay_once(&mut RelaySource::new(&dir), &mut bare_tail());
        let local = local.unwrap();
        assert_eq!(shape(&local), shape(&remote));
        assert!(
            shape(&remote).iter().any(|s| s.starts_with("gap 4..8")),
            "the corrupt middle chunk degrades to the same gap remotely: {:?}",
            shape(&remote)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_length_field_recovers_remotely_via_the_sync_marker() {
        // The headline v2 fix, over the wire: a trailing chunk whose
        // *length* field is corrupted is disproven by the next sync
        // marker and the remote stream resumes — no stall.
        let dir = temp_dir("parity-len");
        let set = tiny_set("len", 6, 12);
        let path = dir.join(segment_file_name(&set.provenance));
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 4).unwrap();
        let clean = fs::read(&path).unwrap().len();
        w.append_intervals(&set.log, 4, 8).unwrap();
        w.append_intervals(&set.log, 8, 12).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a high byte of the middle chunk's length field.
        bytes[clean + crate::wire::SYNC_MARKER.len() + 1 + 3] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let local = crate::CorpusTail::open(&dir).unwrap().poll().unwrap();
        let remote = relay_once(&mut RelaySource::new(&dir), &mut bare_tail());
        assert_eq!(shape(&local), shape(&remote));
        let shapes = shape(&remote);
        assert!(
            shapes.iter().any(|s| s.starts_with("gap ")),
            "length corruption resynced instead of stalling: {shapes:?}"
        );
        assert!(
            shapes.iter().any(|s| s.starts_with("intervals 8+")),
            "the stream resumed after the gap: {shapes:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_corruption_is_terminal_and_reported_once() {
        let dir = temp_dir("parity-header");
        let set = tiny_set("hdr", 7, 6);
        let path = dir.join(segment_file_name(&set.provenance));
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 3).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0xFF; // deep inside the header chunk
        fs::write(&path, &bytes).unwrap();

        let mut src = RelaySource::new(&dir);
        let mut remote = bare_tail();
        let events = relay_once(&mut src, &mut remote);
        assert!(
            matches!(&events[..], [TailEvent::Corrupt { .. }]),
            "{:?}",
            shape(&events)
        );
        // Later growth of a dead file is ignored, not re-reported.
        w.append_intervals(&set.log, 3, 6).unwrap();
        assert!(relay_once(&mut src, &mut remote).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offset_discontinuity_is_a_transport_error() {
        let mut tail = bare_tail();
        let mut events = Vec::new();
        tail.apply("x.nniseg".into(), 0, b"abc", &mut events)
            .unwrap();
        let err = tail
            .apply("x.nniseg".into(), 7, b"later", &mut events)
            .unwrap_err();
        assert!(err.to_string().contains("offset discontinuity"), "{err}");
        assert!(tail.finished());
    }

    #[test]
    fn reader_thread_delivers_and_finishes_on_clean_eof() {
        // The threaded path end to end: frames through a real reader
        // thread, drained by poll, then a clean EOF finishes the tail.
        let dir = temp_dir("threaded");
        let set = tiny_set("thread", 9, 5);
        let path = dir.join(segment_file_name(&set.provenance));
        let mut w = SegmentWriter::create(&path, &set).unwrap();
        w.append_intervals(&set.log, 0, 5).unwrap();
        let mut wire = Vec::new();
        RelaySource::new(&dir).pump(&mut wire).unwrap();

        let mut tail = RemoteTail::from_reader(std::io::Cursor::new(wire));
        let mut events = Vec::new();
        while !tail.finished() {
            events.extend(tail.poll().unwrap());
            std::thread::yield_now();
        }
        events.extend(tail.poll().unwrap());
        let shapes = shape(&events);
        assert!(shapes[0].starts_with("header"), "{shapes:?}");
        assert!(shapes[1].starts_with("intervals 0+5"), "{shapes:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_on_the_wire_surfaces_as_a_connection_error() {
        let mut tail = RemoteTail::from_reader(std::io::Cursor::new(b"not frames".to_vec()));
        let err = loop {
            match tail.poll() {
                Ok(_) if !tail.finished() => std::thread::yield_now(),
                Ok(_) => panic!("a garbage stream must fail, not finish cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("relay connection failed"), "{err}");
        assert!(tail.finished());
    }
}
