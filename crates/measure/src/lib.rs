//! # nni-measure
//!
//! Measurement processing for neutrality inference (§6.2 and Appendix
//! Algorithm 2 of the paper):
//!
//! * [`record`] — the raw per-interval, per-path send/loss log produced by
//!   the emulator (or any measurement platform).
//! * [`normalize`] — Algorithm 2's per-interval kernel: discounting of every
//!   path's packets to the normalization group's common budget
//!   (hypergeometric retention draw), loss-threshold congestion-free
//!   indicators, and pathset performance numbers
//!   `y_Θ = -ln P(Θ congestion-free)`; plus the whole-log reference model
//!   ([`group_indicators`] + [`pathset_cf_counts`]) the engine is tested
//!   against.
//! * [`observer`] — [`MeasuredObservations`], the measured implementation of
//!   `nni_core::Observations`: each query folds the whole log through a
//!   one-slice [`SlidingCounts`], with no cache.
//! * [`dataset`] — the acquisition/inference seam: [`MeasurementSet`] (the
//!   serializable bundle inference consumes), the [`MeasurementSource`]
//!   trait, and the [`MeasurementCache`].
//! * [`codec`] — the hand-rolled binary serialization of a measurement set
//!   (no serde; the tree is vendored), and the field walks other codecs
//!   share; [`jsonl`] — its write-only JSON-lines export, and the one JSON
//!   string [`escape`](jsonl::escape) every JSON line in the tree goes
//!   through.
//! * [`corpus`] — on-disk corpora of encoded sets ([`Corpus`],
//!   [`CorpusEntry`]).
//! * [`interval`] — the one measurement-interval binning rule, shared with
//!   the emulator's cached interval index.
//! * [`stream`] — [`SlidingCounts`], the one Algorithm 2 engine:
//!   per-pathset counters that batch inference folds over a whole log and
//!   streaming folds one closed interval at a time (optional sliding
//!   window). Intervals fold as packed bit masks, 64 to a word, and a
//!   pathset's count is the popcount of its members' ANDed words.
//! * [`segment`] — the append-friendly `.nniseg` on-disk segment format
//!   ([`SegmentWriter`]/[`SegmentFollower`]): a codec-v1 header chunk plus
//!   checksummed interval chunks, readable while being written, with
//!   optional corrupt-chunk resync (skip to the next valid chunk and
//!   report the loss as a [`SegmentGap`]).
//! * [`tail`] — [`CorpusTail`], a poll-based watcher over a growing corpus
//!   directory yielding complete entries (each event carries its decoded
//!   set), live segment intervals, and resync gaps.
//! * [`relay`] — the segment relay: [`RelaySource`] streams a directory's
//!   raw `.nniseg` bytes as checksummed frames (over a socket), and
//!   [`RemoteTail`] replays them through the same follower state machine
//!   a local tail runs — remote monitoring with identical resync and
//!   degraded-stream semantics.
//! * [`wire`] — the shared byte-level primitives every codec folds through
//!   ([`WireWriter`]/[`WireReader`]) plus checksummed stream framing
//!   ([`wire::write_frame`]/[`wire::read_frame`]) for the worker protocol.

pub mod codec;
pub mod corpus;
pub mod dataset;
pub mod interval;
pub mod jsonl;
pub mod normalize;
pub mod observer;
pub mod record;
pub mod relay;
pub mod segment;
pub mod stream;
pub mod tail;
pub mod wire;

pub use corpus::{
    entry_file_name, entry_order_key, segment_file_name, Corpus, CorpusEntry, CORPUS_EXT,
};
pub use dataset::{
    Fnv, MeasurementCache, MeasurementSet, MeasurementSource, Provenance, SetKey, SourceError,
};
pub use normalize::{
    group_indicators, hypergeometric, interval_eval_count, pathset_cf_counts, perf_from_counts,
    NormalizeConfig,
};
pub use observer::MeasuredObservations;
pub use record::{DelayStats, MeasurementLog, MergeError};
pub use relay::{decode_relay, relay_frame, RelaySource, RemoteTail, RELAY_MAGIC};
pub use segment::{
    IntervalRows, SegmentBatch, SegmentError, SegmentFollower, SegmentGap, SegmentItem,
    SegmentWriter, MAX_CHUNK_BYTES, SEGMENT_EXT, VERSION as SEGMENT_VERSION,
    VERSION_V1 as SEGMENT_VERSION_V1,
};
pub use stream::SlidingCounts;
pub use tail::{CorpusTail, TailEvent};
pub use wire::{
    frame_bytes, read_frame, read_frame_v1, write_frame, FrameError, Sink, WireReader, WireWriter,
    FRAME_VERSION, FRAME_VERSION_V1, SYNC_MARKER,
};
