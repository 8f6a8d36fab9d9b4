//! The discrete-event queue.
//!
//! Events are ordered by `(time, insertion sequence)`: ties resolve in
//! insertion order, which makes every run bit-for-bit deterministic for a
//! given seed — the property the whole experiment pipeline rests on.
//!
//! # Compact entries
//!
//! [`Event`] is a fixed small key: packets in flight are **not** inlined
//! (the pre-PR-3 `Arrive(Packet)` made every heap entry ~80 bytes and every
//! sift copy the whole packet). Instead an `Arrive` carries a 4-byte
//! [`PacketHandle`] into the [`PacketSlab`](crate::slab::PacketSlab), and
//! link/flow/lane/slot references are `u32`, so a full queue entry —
//! `(SimTime, seq, Event)` — is 32 bytes.
//!
//! # The calendar queue
//!
//! [`CalendarEventQueue`] is a classic two-level calendar/bucket queue: a
//! ring of time buckets (width [`CAL_BUCKET_NS`], lazily sorted when the
//! clock enters them) with a far-future overflow heap. It is O(1)
//! amortized for events within the ring horizon, and nearly every event the
//! simulator schedules lands within a few buckets of `now`. Stepping into
//! the next bucket swaps the emptied current bucket's storage into the ring
//! slot, so bucket storage is recycled instead of freed and regrown: in
//! steady state the queue does not allocate. Together with the simulator's
//! one retransmission timer per flow ([`reserve_seq`] and [`push_reserved`];
//! see [`crate::sim`]) this runs perfbench's `table2_sweep` (the 34 Table 2
//! members on topology A) at a median 88.5 ops/s, against 52.8 ops/s with
//! per-step bucket reallocation and one timer event per ACK (ten alternating
//! 30 s runs each, 2-core Xeon container). Unit and property tests check
//! its pop order against a brute-force model.
//!
//! [`reserve_seq`]: CalendarEventQueue::reserve_seq
//! [`push_reserved`]: CalendarEventQueue::push_reserved

use crate::packet::FlowId;
use crate::slab::PacketHandle;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// All event kinds of the simulation. A fixed small key — references, not
/// payloads (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet (by slab handle) arrives at the entrance of its next link.
    Arrive(PacketHandle),
    /// Link `link` (by index) finished serializing its head-of-line packet.
    TxComplete(u32),
    /// Shaper lane `lane` of link `link` may release buffered packets.
    ShaperRelease {
        /// Link index.
        link: u32,
        /// Lane index within the link's shaper.
        lane: u32,
    },
    /// A cumulative ACK reaches the sender.
    Ack {
        /// Destination flow.
        flow: FlowId,
        /// Cumulative ack: all segments `< ackno` received in order.
        ackno: u32,
    },
    /// Retransmission timer fires (superseded generations are ignored).
    Rto {
        /// Flow whose timer fires.
        flow: FlowId,
        /// The flow's timer generation when this event was queued.
        generation: u32,
    },
    /// A traffic-generator slot starts its next flow.
    FlowStart {
        /// Generator slot index.
        slot: u32,
    },
    /// Periodic queue-occupancy sample (Figure 11).
    Sample,
}

#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Short label of the default queue implementation — part of the build
/// fingerprint stamped into measurement-set provenance
/// ([`crate::build_fingerprint`]).
pub const DEFAULT_QUEUE_KIND: &str = "calendar-queue";

/// Width of one calendar bucket in nanoseconds (~131 µs: the order of a
/// full-MTU serialization time on the topologies' 10–100 Mb/s links).
pub const CAL_BUCKET_NS: u64 = 1 << 17;

/// Number of buckets in the calendar ring (horizon ≈ 67 ms, around one RTT;
/// RTO timers and queue samples land in the overflow heap).
pub const CAL_BUCKETS: usize = 512;

/// Deterministic earliest-first event queue over a two-level calendar:
/// near-future events hash into a ring of time buckets, far-future events
/// overflow into a heap that refills the ring as the clock advances.
///
/// Pops in strict `(time, insertion seq)` order.
pub struct CalendarEventQueue {
    /// Ring of unsorted future buckets; index `abs_bucket % CAL_BUCKETS`.
    buckets: Vec<Vec<Entry>>,
    /// The bucket the clock is in, sorted descending (pop from the back).
    current: Vec<Entry>,
    /// Absolute index of the current bucket.
    epoch: u64,
    /// Entries in `buckets` (excluding `current` and `far`).
    ring_len: usize,
    /// Events at or beyond the ring horizon.
    far: BinaryHeap<Entry>,
    len: usize,
    next_seq: u64,
}

impl Default for CalendarEventQueue {
    fn default() -> Self {
        CalendarEventQueue {
            buckets: (0..CAL_BUCKETS).map(|_| Vec::new()).collect(),
            current: Vec::new(),
            epoch: 0,
            ring_len: 0,
            far: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }
}

impl CalendarEventQueue {
    /// Creates an empty queue.
    pub fn new() -> CalendarEventQueue {
        CalendarEventQueue::default()
    }

    #[inline]
    fn abs_bucket(at: SimTime) -> u64 {
        at.0 / CAL_BUCKET_NS
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve_seq();
        self.push_reserved(at, seq, event);
    }

    /// Takes the next insertion sequence number without scheduling
    /// anything: a later [`push_reserved`](Self::push_reserved) with it
    /// orders exactly as a [`push`](Self::push) made now would have.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `at` under a sequence number taken earlier from
    /// [`reserve_seq`](Self::reserve_seq). Each reserved seq is pushed at
    /// most once, and never below the key of the last pop.
    pub fn push_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "seq was never reserved");
        self.len += 1;
        let entry = Entry { at, seq, event };
        let abs = Self::abs_bucket(at);
        if abs <= self.epoch {
            // The clock's own bucket (or a pre-pop push into the past):
            // insert in descending key order so the back stays the minimum.
            let key = (at, seq);
            let pos = self.current.partition_point(|e| (e.at, e.seq) > key);
            self.current.insert(pos, entry);
        } else if abs < self.epoch + CAL_BUCKETS as u64 {
            self.buckets[(abs % CAL_BUCKETS as u64) as usize].push(entry);
            self.ring_len += 1;
        } else {
            self.far.push(entry);
        }
    }

    /// Moves far-heap entries that now fall inside the ring horizon.
    fn refill_from_far(&mut self) {
        let horizon = self.epoch + CAL_BUCKETS as u64;
        while let Some(e) = self.far.peek() {
            let abs = Self::abs_bucket(e.at);
            if abs >= horizon {
                break;
            }
            let e = self.far.pop().expect("peeked");
            if abs <= self.epoch {
                let key = (e.at, e.seq);
                let pos = self.current.partition_point(|x| (x.at, x.seq) > key);
                self.current.insert(pos, e);
            } else {
                self.buckets[(abs % CAL_BUCKETS as u64) as usize].push(e);
                self.ring_len += 1;
            }
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        loop {
            if let Some(e) = self.current.pop() {
                self.len -= 1;
                return Some((e.at, e.event));
            }
            if self.len == 0 {
                return None;
            }
            if self.ring_len > 0 {
                // Step the clock one bucket forward, sort it, and pull in
                // any far entries that crossed the horizon. The swap leaves
                // the emptied `current` in the ring slot, so bucket storage
                // is recycled instead of freed and regrown.
                self.epoch += 1;
                let idx = (self.epoch % CAL_BUCKETS as u64) as usize;
                std::mem::swap(&mut self.current, &mut self.buckets[idx]);
                self.ring_len -= self.current.len();
                self.current
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                self.refill_from_far();
            } else {
                // Ring is dry: jump the clock to the earliest far entry.
                let next = self.far.peek().expect("len > 0 with empty ring");
                self.epoch = Self::abs_bucket(next.at);
                self.refill_from_far();
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity of the current bucket, then of each ring bucket in ring
    /// order (storage-reuse tests).
    #[cfg(test)]
    fn bucket_capacities(&self) -> Vec<usize> {
        std::iter::once(&self.current)
            .chain(&self.buckets)
            .map(Vec::capacity)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_stay_compact() {
        // The whole point of the slab/handle design: a queue entry is a
        // fixed 32-byte key, not an inlined packet.
        assert!(std::mem::size_of::<Entry>() <= 32);
        assert!(std::mem::size_of::<Event>() <= 16);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarEventQueue::new();
        q.push(SimTime(30), Event::Sample);
        q.push(SimTime(10), Event::Sample);
        q.push(SimTime(20), Event::Sample);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = CalendarEventQueue::new();
        q.push(SimTime(5), Event::FlowStart { slot: 0 });
        q.push(SimTime(5), Event::FlowStart { slot: 1 });
        q.push(SimTime(5), Event::FlowStart { slot: 2 });
        let slots: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::FlowStart { slot } => slot,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = CalendarEventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), Event::Sample);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// Reference model: pending events in a `Vec` kept sorted by time, each
    /// push placed after every pending event at the same time (insertion
    /// order breaks ties).
    fn model_push(model: &mut Vec<(SimTime, Event)>, at: SimTime, event: Event) {
        let i = model.partition_point(|&(t, _)| t <= at);
        model.insert(i, (at, event));
    }

    #[test]
    fn calendar_matches_a_sorted_model_on_a_mixed_schedule() {
        // Same-time ties, same-bucket clusters, far-future timers, and
        // pushes at the current pop time — the shapes the simulator emits.
        let times: Vec<u64> = vec![
            0,
            1,
            1,
            CAL_BUCKET_NS / 2,
            CAL_BUCKET_NS,
            3 * CAL_BUCKET_NS + 7,
            (CAL_BUCKETS as u64 + 5) * CAL_BUCKET_NS, // beyond the horizon
            2 * (CAL_BUCKETS as u64) * CAL_BUCKET_NS, // far beyond
            42,
        ];
        let mut model = Vec::new();
        let mut cal = CalendarEventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            model_push(&mut model, SimTime(t), Event::FlowStart { slot: i as u32 });
            cal.push(SimTime(t), Event::FlowStart { slot: i as u32 });
        }
        // Interleave: pop a few, then push at the popped time (transmit
        // schedules `Arrive` at `self.now`).
        for round in 0..3 {
            let (ct, ce) = cal.pop().unwrap();
            assert_eq!((ct, ce), model.remove(0), "round {round}");
            model_push(&mut model, ct, Event::Sample);
            cal.push(ct, Event::Sample);
        }
        for expect in model {
            assert_eq!(cal.pop(), Some(expect));
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn ring_keeps_bucket_storage_across_revolutions() {
        // A periodic schedule: every bucket holds `PER_BUCKET` events, each
        // pop reschedules its event `AHEAD` buckets later (into the ring),
        // and each bucket's first event also inserts a `Sample` into the
        // current bucket. Once every bucket's storage has served one
        // revolution, every bucket has the capacity it needs, and a second
        // identical revolution must neither grow nor free any of them.
        const PER_BUCKET: u64 = 3;
        const AHEAD: u64 = 8;
        let rev = CAL_BUCKETS as u64 * CAL_BUCKET_NS;
        let mut q = CalendarEventQueue::new();
        for b in 0..AHEAD {
            for i in 0..PER_BUCKET {
                let at = SimTime(b * CAL_BUCKET_NS + i * CAL_BUCKET_NS / PER_BUCKET);
                q.push(at, Event::FlowStart { slot: i as u32 });
            }
        }
        // Pops (and reschedules) events until one at or past `until`.
        let drive = |q: &mut CalendarEventQueue, until: u64, warm: Option<&[usize]>| {
            while let Some((at, ev)) = q.pop() {
                if let Event::FlowStart { slot } = ev {
                    q.push(SimTime(at.0 + AHEAD * CAL_BUCKET_NS), ev);
                    if slot == 0 {
                        q.push(SimTime(at.0 + 1), Event::Sample);
                    }
                }
                if let Some(warm) = warm {
                    assert_eq!(q.bucket_capacities(), warm, "a bucket grew or was freed");
                }
                if at.0 >= until {
                    return;
                }
            }
        };
        drive(&mut q, CAL_BUCKET_NS + rev, None);
        let warm = q.bucket_capacities();
        assert!(warm.iter().all(|&c| c > 0), "every bucket has served");
        drive(&mut q, CAL_BUCKET_NS + 2 * rev, Some(&warm));
    }
}
