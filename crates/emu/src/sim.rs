//! The discrete-event simulator: links, TCP flows, traffic generation, and
//! the event loop.
//!
//! Architecture (per-link store-and-forward):
//!
//! ```text
//! sender ──Arrive(hop 0)──► [diff stage] ──► [drop-tail queue] ──TxComplete──►
//!   ▲                     (police/shape)                              │
//!   │                                                                 ▼
//!  Ack ◄── receiver ◄──────────── Arrive(hop+1) … ◄── propagation delay
//! ```
//!
//! ACKs return after the route's reverse propagation delay without queueing
//! (the measured quantity is forward loss; see DESIGN.md substitutions).
//!
//! # Hot-path data layout (PR 3)
//!
//! The inner loop is built around three packed structures, rewritten for
//! speed with results asserted bit-identical seed-for-seed (the golden
//! identity test in `nni-scenario` gates any change here):
//!
//! * **Packet slab** — packets in flight between events live in a
//!   [`PacketSlab`]; event-queue entries carry a 4-byte handle instead of an
//!   inlined packet ([`crate::event`] has the full design).
//! * **O(1) flow state** — per-flow send times and the receiver's
//!   out-of-order set are ring/bitmap windows ([`crate::window`]), replacing
//!   `BTreeMap`/`BTreeSet` whose every cumulative ACK did an allocating
//!   `split_off`.
//! * **Interval cache** — the current measurement-interval index is tracked
//!   incrementally (simulation time is monotone) instead of a float division
//!   per recorded packet; the cached boundary is computed to agree exactly
//!   with the float division it replaces.
//!
//! Two rules keep the event loop off the allocator and free of dead events:
//!
//! * **Recycled buckets** — stepping the calendar into its next bucket swaps
//!   the emptied current bucket's storage into the ring slot, so bucket
//!   storage is reused revolution after revolution instead of freed and
//!   regrown ([`crate::event`]).
//! * **One timer per flow** — a flow keeps at most one live `Rto` event.
//!   Every ACK re-arms the timer, but arming only records the deadline and
//!   the queue seq an eager push would have taken; the event is re-queued
//!   at that key when the pending one fires early (see `RtoTimer`). The
//!   timer that fires pops at exactly the `(time, seq)` key its arm
//!   reserved, so tie order does not depend on how often it was re-armed.
//!
//! Each link also caches its full-MSS serialization time: every data
//! segment is MSS-sized, so transmissions skip the float divide.
//!
//! Per-run state follows what the run holds, not what its configuration
//! allows:
//!
//! * **Occupancy-grown queues** — link queues and shaper lanes start empty
//!   and grow with the deepest backlog they reach, reallocating at most
//!   about log2(peak occupancy) times per run. They are not sized to their
//!   drop-tail capacity: the FIFO head sweeps the whole ring, so every page
//!   of such a ring becomes resident however little the link queues.
//! * **Freed flow windows** — a flow that completes drops its send-time
//!   ring and out-of-order bitmap. A done flow ignores ACKs and timers, and
//!   everything still in flight to its receiver lies below `rcv_nxt`, so
//!   neither window is read again.
//! * **Flat ground truth** — [`LinkTruth`] keeps one
//!   `[interval][link][class]` grid per counter, which grows only when a
//!   new interval opens.
//!
//! End-of-run invariant: after the event loop drains, every slab handle has
//! been freed (`live() == 0`) — leaked or double-freed handles panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::diff::{DiffOutcome, DiffRuntime, Differentiation};
use crate::event::{CalendarEventQueue, Event};
use crate::packet::{ClassLabel, FlowId, Packet, Route, RouteId};
use crate::slab::{PacketHandle, PacketSlab};
use crate::stats::{LinkTruth, QueueTrace, SimReport};
use crate::tcp::{CcKind, CongestionControl, RttEstimator};
use crate::time::{tx_time, SimTime};
use crate::traffic::TrafficProfile;
use crate::window::{OooWindow, SendTimes};
// The interval binning rule and its ULP-walked boundary inversion are shared
// with `MeasurementLog::interval_of` — one rule, one place
// (`nni_measure::interval`), so a boundary timestamp can never bin
// differently in the emulator and the log.
use nni_measure::interval::{interval_boundary_ns, interval_index};
use nni_measure::{DelayStats, MeasurementLog};
use nni_topology::LinkId;

/// Physical parameters of one simulated link.
#[derive(Debug, Clone)]
pub struct LinkParams {
    /// Capacity in bits per second: finite and positive, or
    /// [`Simulator::new`] panics.
    pub rate_bps: f64,
    /// One-way propagation delay in seconds.
    pub delay_s: f64,
    /// Differentiation mechanism.
    pub diff: Differentiation,
    /// Queue size override in bytes (default: `SimConfig::queue_bytes`).
    pub queue_bytes: Option<u64>,
}

struct LinkSim {
    /// `tx_time(mss, rate_bps)`: every packet is an MSS-sized segment.
    mss_tx: SimTime,
    delay: SimTime,
    qcap_bytes: u64,
    queue: std::collections::VecDeque<Packet>,
    qbytes: u64,
    busy: bool,
    diff: DiffRuntime,
}

struct FlowSim {
    route: RouteId,
    class: ClassLabel,
    size_segments: u64,
    cc: CongestionControl,
    rtt: RttEstimator,
    snd_una: u64,
    snd_nxt: u64,
    dup_acks: u32,
    recover: u64,
    send_times: SendTimes,
    rto: RtoTimer,
    done: bool,
    slot: Option<usize>,
    rcv_nxt: u64,
    ooo: OooWindow,
}

/// A flow's retransmission timer, kept as at most one live queued `Rto`
/// event. Arming only records the deadline and the queue seq an eager push
/// would have taken; the event is queued when none is pending or the new
/// deadline is earlier, and re-queued at the recorded key when a pending
/// one fires after a re-arm. So the timer that does fire pops with exactly
/// the `(time, seq)` key of an event pushed on every arm.
#[derive(Default)]
struct RtoTimer {
    /// Latest armed deadline and its reserved seq.
    deadline: SimTime,
    seq: u64,
    /// Key of the live queued event, if one is pending.
    queued: Option<(SimTime, u64)>,
    /// Stamp of the live queued event; an event queued earlier and then
    /// overtaken by an earlier deadline carries an older one.
    generation: u32,
}

struct Slot {
    /// Index of the slot's source in `Simulator::sources`.
    source: usize,
    /// This slot's congestion control, resolved from the source's
    /// [`CcFleet`](crate::traffic::CcFleet) at registration time.
    cc: CcKind,
}

/// The simulator. Build with [`Simulator::new`], add traffic with
/// [`Simulator::add_traffic`], run with [`Simulator::run`].
pub struct Simulator {
    cfg: SimConfig,
    links: Vec<LinkSim>,
    routes: Vec<Route>,
    reverse_delay: Vec<SimTime>,
    flows: Vec<FlowSim>,
    /// Registered traffic sources, in registration order.
    sources: Vec<(RouteId, TrafficProfile)>,
    slots: Vec<Slot>,
    queue: CalendarEventQueue,
    slab: PacketSlab,
    now: SimTime,
    /// Simulation end (`cfg.duration_s`): nothing is scheduled past it.
    end: SimTime,
    rng: StdRng,
    /// Reused across shaper-release events so each release does not allocate.
    release_scratch: Vec<Packet>,
    /// Measurement interval containing `now` (monotone, cached).
    cur_interval: usize,
    /// First timestamp belonging to the *next* measurement interval.
    cur_interval_end: SimTime,
    // Statistics.
    log: MeasurementLog,
    /// One-way delay samples per (send interval, path), nanoseconds —
    /// collected only under `cfg.record_delay` and folded into the log's
    /// percentile grid at end of run. Recording is pure observation: no RNG
    /// is consumed and no event is reordered, so a delay-recording run is
    /// otherwise bit-identical to the same seed without it.
    delay_ns: Vec<Vec<Vec<u64>>>,
    truth: LinkTruth,
    traces: Vec<QueueTrace>,
    completed_flows: usize,
    segments_sent: u64,
    segments_delivered: u64,
    segments_dropped: u64,
}

impl Simulator {
    /// Creates a simulator over the given links and routes.
    ///
    /// `n_paths` is the number of *measured* paths (the routes' `path`
    /// fields must index into `0..n_paths`); `n_classes` sizes the
    /// ground-truth recorder.
    pub fn new(
        links: Vec<LinkParams>,
        routes: Vec<Route>,
        n_paths: usize,
        n_classes: usize,
        cfg: SimConfig,
    ) -> Simulator {
        assert!(!links.is_empty(), "need at least one link");
        assert!(!routes.is_empty(), "need at least one route");
        for (i, l) in links.iter().enumerate() {
            assert!(
                l.rate_bps.is_finite() && l.rate_bps > 0.0,
                "link {i} needs a finite positive rate, got {} b/s",
                l.rate_bps
            );
        }
        for r in &routes {
            for l in &r.links {
                assert!(l.index() < links.len(), "route references unknown link {l}");
            }
            if let Some(p) = r.path {
                assert!(p.index() < n_paths, "route references unknown path {p}");
            }
        }
        let n_links = links.len();
        let link_sims: Vec<LinkSim> = links
            .into_iter()
            .map(|p| {
                let qcap_bytes = p.queue_bytes.unwrap_or_else(|| cfg.queue_bytes(p.rate_bps));
                LinkSim {
                    mss_tx: tx_time(cfg.mss as u64, p.rate_bps),
                    delay: SimTime::from_secs_f64(p.delay_s),
                    qcap_bytes,
                    queue: std::collections::VecDeque::new(),
                    qbytes: 0,
                    busy: false,
                    diff: DiffRuntime::new(&p.diff),
                }
            })
            .collect();
        let reverse_delay = routes
            .iter()
            .map(|r| {
                r.links
                    .iter()
                    .fold(SimTime::ZERO, |acc, &l| acc + link_sims[l.index()].delay)
            })
            .collect();
        Simulator {
            links: link_sims,
            routes,
            reverse_delay,
            flows: Vec::new(),
            sources: Vec::new(),
            slots: Vec::new(),
            queue: CalendarEventQueue::new(),
            slab: PacketSlab::with_capacity(1024),
            now: SimTime::ZERO,
            end: SimTime::from_secs_f64(cfg.duration_s),
            rng: StdRng::seed_from_u64(cfg.seed),
            release_scratch: Vec::new(),
            cur_interval: 0,
            cur_interval_end: SimTime(interval_boundary_ns(cfg.interval_s, 1)),
            log: MeasurementLog::new(n_paths.max(1), cfg.interval_s),
            delay_ns: Vec::new(),
            truth: LinkTruth::new(n_links, n_classes),
            traces: vec![QueueTrace::default(); n_links],
            completed_flows: 0,
            segments_sent: 0,
            segments_delivered: 0,
            segments_dropped: 0,
            cfg,
        }
    }

    /// Registers a traffic source on `route`: `profile.parallel` independent
    /// slots, each starting its first flow after a small random jitter
    /// (avoids start-up synchronisation). Slot `k` of the source runs
    /// `profile.cc.kind_for(k)`, so a mixed fleet interleaves its algorithms
    /// across the slots.
    pub fn add_traffic(&mut self, route: RouteId, profile: TrafficProfile) {
        assert!(
            !profile.cc.is_empty(),
            "traffic source has an empty congestion-control fleet"
        );
        let source = self.sources.len();
        for k in 0..profile.parallel {
            let slot = self.slots.len();
            self.slots.push(Slot {
                source,
                cc: profile.cc.kind_for(k),
            });
            let jitter = SimTime::from_secs_f64(self.rng.gen::<f64>() * 0.2);
            self.queue
                .push(jitter, Event::FlowStart { slot: slot as u32 });
        }
        self.sources.push((route, profile));
    }

    /// Runs the simulation to `cfg.duration_s` and returns the report
    /// (warm-up intervals already dropped).
    pub fn run(mut self) -> SimReport {
        let end = self.end;
        let first_sample = SimTime::from_secs_f64(self.cfg.sample_period_s);
        if first_sample <= end {
            self.queue.push(first_sample, Event::Sample);
        }
        while let Some((at, ev)) = self.queue.pop() {
            if at > end {
                self.discard(ev);
                break;
            }
            debug_assert!(at >= self.now, "event time regressed");
            self.now = at;
            self.dispatch(ev);
        }
        // Drain events scheduled past the end so every in-flight packet's
        // slab handle is returned, then assert the no-leak invariant.
        while let Some((_, ev)) = self.queue.pop() {
            self.discard(ev);
        }
        assert_eq!(
            self.slab.live(),
            0,
            "packet slab leaked handles at end of run"
        );
        if self.cfg.record_delay {
            self.fold_delay_grid();
        }
        let warmup = self.cfg.warmup_intervals();
        self.log.drop_warmup(warmup);
        self.truth.drop_warmup(warmup);
        SimReport {
            log: self.log,
            link_truth: self.truth,
            queue_traces: self.traces,
            completed_flows: self.completed_flows,
            segments_sent: self.segments_sent,
            segments_delivered: self.segments_delivered,
            segments_dropped: self.segments_dropped,
        }
    }

    /// Frees the slab slot of an event that will never be dispatched.
    fn discard(&mut self, ev: Event) {
        if let Event::Arrive(h) = ev {
            self.slab.remove(h);
        }
    }

    /// Sorts the collected per-cell delay samples and installs the
    /// percentile grid on the log (before warm-up dropping, so the rows
    /// drain in lockstep with the counts). Sample order never matters:
    /// sorting u64 nanoseconds is total, so the fold is deterministic
    /// whatever order deliveries were observed in.
    fn fold_delay_grid(&mut self) {
        let n_paths = self.log.path_count();
        let mut rows = Vec::with_capacity(self.log.interval_count());
        for t in 0..self.log.interval_count() {
            let mut row = Vec::with_capacity(n_paths);
            for p in 0..n_paths {
                let stats = self
                    .delay_ns
                    .get_mut(t)
                    .map(|r| &mut r[p])
                    .filter(|s| !s.is_empty())
                    .and_then(|samples| {
                        samples.sort_unstable();
                        DelayStats::from_sorted_ns(samples)
                    });
                row.push(stats);
            }
            rows.push(row);
        }
        self.log.set_delay(rows);
    }

    /// Measurement interval containing an arbitrary timestamp (float
    /// division — used for past times, e.g. a dropped packet's send time).
    fn interval_at(&self, t: SimTime) -> usize {
        interval_index(t.as_secs_f64(), self.cfg.interval_s)
    }

    /// Measurement interval containing `now` — the cached hot path.
    /// Simulation time is monotone, so the cache only ever steps forward,
    /// and the precomputed boundary agrees exactly with [`Self::interval_at`].
    #[inline]
    fn interval_now(&mut self) -> usize {
        while self.now >= self.cur_interval_end {
            self.cur_interval += 1;
            self.cur_interval_end = SimTime(interval_boundary_ns(
                self.cfg.interval_s,
                self.cur_interval as u64 + 1,
            ));
        }
        debug_assert_eq!(self.cur_interval, self.interval_at(self.now));
        self.cur_interval
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrive(h) => self.on_arrive(h),
            Event::TxComplete(link) => self.on_tx_complete(LinkId(link as usize)),
            Event::ShaperRelease { link, lane } => {
                self.on_shaper_release(LinkId(link as usize), lane as usize)
            }
            Event::Ack { flow, ackno } => self.on_ack(flow, ackno as u64),
            Event::Rto { flow, generation } => self.on_rto(flow, generation),
            Event::FlowStart { slot } => self.on_flow_start(slot as usize),
            Event::Sample => self.on_sample(),
        }
    }

    // ------------------------------------------------------------------
    // Network plane
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, h: PacketHandle) {
        let pkt = self.slab.remove(h);
        let link_id = self.routes[pkt.route.index()].links[pkt.hop as usize];
        let t = self.interval_now();
        self.truth.record_offered(t, link_id, pkt.class);
        let outcome = self.links[link_id.index()].diff.ingress(self.now, pkt);
        match outcome {
            DiffOutcome::Pass(pkt) => self.enqueue_main(link_id, pkt),
            DiffOutcome::Drop(pkt) => self.drop_packet(link_id, pkt),
            DiffOutcome::Buffered {
                lane,
                schedule_release,
            } => {
                if let Some(at) = schedule_release {
                    self.queue.push(
                        at,
                        Event::ShaperRelease {
                            link: link_id.index() as u32,
                            lane: lane as u32,
                        },
                    );
                }
            }
        }
    }

    fn enqueue_main(&mut self, link_id: LinkId, pkt: Packet) {
        let link = &mut self.links[link_id.index()];
        if link.qbytes + pkt.size as u64 > link.qcap_bytes {
            self.drop_packet(link_id, pkt);
            return;
        }
        link.qbytes += pkt.size as u64;
        link.queue.push_back(pkt);
        if !link.busy {
            self.start_tx(link_id);
        }
    }

    fn start_tx(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id.index()];
        debug_assert!(!link.busy && !link.queue.is_empty());
        link.busy = true;
        debug_assert_eq!(link.queue.front().expect("non-empty").size, self.cfg.mss);
        let done_at = self.now + link.mss_tx;
        self.queue
            .push(done_at, Event::TxComplete(link_id.index() as u32));
    }

    fn on_tx_complete(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id.index()];
        let mut pkt = link.queue.pop_front().expect("TxComplete with empty queue");
        link.qbytes -= pkt.size as u64;
        link.busy = false;
        let delay = link.delay;
        if !link.queue.is_empty() {
            self.start_tx(link_id);
        }
        pkt.hop += 1;
        let arrive_at = self.now + delay;
        if (pkt.hop as usize) < self.routes[pkt.route.index()].links.len() {
            let h = self.slab.insert(pkt);
            self.queue.push(arrive_at, Event::Arrive(h));
        } else {
            // Destination host: receiver logic runs on "arrival"; we inline
            // it by scheduling delivery through the ACK path.
            self.deliver(pkt, arrive_at);
        }
    }

    fn on_shaper_release(&mut self, link_id: LinkId, lane: usize) {
        let mut released = std::mem::take(&mut self.release_scratch);
        released.clear();
        let next = self.links[link_id.index()]
            .diff
            .release(self.now, lane, &mut released);
        for pkt in released.drain(..) {
            self.enqueue_main(link_id, pkt);
        }
        self.release_scratch = released;
        if let Some(at) = next {
            self.queue.push(
                at,
                Event::ShaperRelease {
                    link: link_id.index() as u32,
                    lane: lane as u32,
                },
            );
        }
    }

    fn drop_packet(&mut self, link_id: LinkId, pkt: Packet) {
        self.segments_dropped += 1;
        // The truth recorder uses the (cached) current interval; the
        // measured loss is attributed to the interval the segment was
        // *sent* in, which lies in the past and needs the full division.
        let t = self.interval_now();
        self.truth.record_dropped(t, link_id, pkt.class);
        if let Some(path) = self.routes[pkt.route.index()].path {
            self.log.record_lost(self.interval_at(pkt.sent_at), path, 1);
        }
    }

    fn deliver(&mut self, pkt: Packet, arrive_at: SimTime) {
        self.segments_delivered += 1;
        if self.cfg.record_delay {
            if let Some(path) = self.routes[pkt.route.index()].path {
                // Attributed to the *send* interval, like sent/lost counts,
                // so the three grids describe the same packet population.
                let t = self.interval_at(pkt.sent_at);
                let n_paths = self.log.path_count();
                while self.delay_ns.len() <= t {
                    self.delay_ns.push(vec![Vec::new(); n_paths]);
                }
                self.delay_ns[t][path.index()].push((arrive_at - pkt.sent_at).nanos());
            }
        }
        let flow = &mut self.flows[pkt.flow.index()];
        let seq = pkt.seq as u64;
        if seq == flow.rcv_nxt {
            flow.rcv_nxt += 1;
            while flow.ooo.remove(flow.rcv_nxt) {
                flow.rcv_nxt += 1;
            }
            flow.ooo.compact(flow.rcv_nxt);
        } else if seq > flow.rcv_nxt {
            flow.ooo.insert(seq);
        }
        // Every data segment elicits one cumulative ACK, which reaches the
        // sender after the reverse propagation delay.
        let ackno = flow.rcv_nxt;
        debug_assert!(ackno <= u32::MAX as u64, "ackno exceeds u32 event field");
        let back_at = arrive_at + self.reverse_delay[pkt.route.index()];
        self.queue.push(
            back_at,
            Event::Ack {
                flow: pkt.flow,
                ackno: ackno as u32,
            },
        );
    }

    fn on_sample(&mut self) {
        let t = self.now.as_secs_f64();
        for (i, link) in self.links.iter().enumerate() {
            let occupancy = link.qbytes + link.diff.buffered_bytes();
            self.traces[i].push(t, occupancy);
        }
        let next = self.now + SimTime::from_secs_f64(self.cfg.sample_period_s);
        // Samples past the end would never be dispatched — don't queue them.
        if next <= self.end {
            self.queue.push(next, Event::Sample);
        }
    }

    // ------------------------------------------------------------------
    // Transport plane
    // ------------------------------------------------------------------

    fn on_flow_start(&mut self, slot: usize) {
        let Slot { source, cc } = self.slots[slot];
        let (route, ref profile) = self.sources[source];
        let size_bytes = profile.size.sample(&mut self.rng, self.cfg.mss);
        let size_segments = size_bytes.div_ceil(self.cfg.mss as u64).max(1);
        assert!(
            size_segments <= u32::MAX as u64,
            "flow of {size_segments} segments overflows the u32 sequence space"
        );
        let flow_id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowSim {
            route,
            class: profile.class,
            size_segments,
            cc: CongestionControl::new(cc),
            rtt: RttEstimator::new(self.cfg.min_rto_s),
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            recover: 0,
            send_times: SendTimes::new(),
            rto: RtoTimer::default(),
            done: false,
            slot: Some(slot),
            rcv_nxt: 0,
            ooo: OooWindow::new(),
        });
        self.flow_try_send(flow_id);
        self.arm_rto(flow_id);
    }

    /// Sends as many new segments as the congestion window allows.
    fn flow_try_send(&mut self, f: FlowId) {
        loop {
            let flow = &self.flows[f.index()];
            if flow.done {
                return;
            }
            let window = flow.cc.cwnd().floor().max(1.0) as u64;
            if flow.snd_nxt >= flow.size_segments || flow.snd_nxt >= flow.snd_una + window {
                return;
            }
            let seq = flow.snd_nxt;
            self.flows[f.index()].snd_nxt += 1;
            self.transmit(f, seq, false);
        }
    }

    fn transmit(&mut self, f: FlowId, seq: u64, retx: bool) {
        self.segments_sent += 1;
        let (route, class) = {
            let flow = &self.flows[f.index()];
            (flow.route, flow.class)
        };
        if let Some(path) = self.routes[route.index()].path {
            let t = self.interval_now();
            self.log.record_sent(t, path, 1);
        }
        let pkt = Packet {
            sent_at: self.now,
            id: self.segments_sent as u32,
            seq: seq as u32,
            size: self.cfg.mss,
            flow: f,
            route,
            hop: 0,
            class,
            retx,
        };
        self.flows[f.index()].send_times.record(seq, self.now, retx);
        let h = self.slab.insert(pkt);
        self.queue.push(self.now, Event::Arrive(h));
    }

    /// (Re)arms the flow's retransmission timer at `now + rto` (see
    /// [`RtoTimer`]).
    fn arm_rto(&mut self, f: FlowId) {
        let at = self.now + SimTime::from_secs_f64(self.flows[f.index()].rtt.rto());
        let seq = self.queue.reserve_seq();
        let timer = &mut self.flows[f.index()].rto;
        timer.deadline = at;
        timer.seq = seq;
        if timer.queued.is_none_or(|(pending, _)| at < pending) {
            self.queue_rto(f);
        }
    }

    /// Queues the flow's armed deadline as its one live `Rto` event.
    fn queue_rto(&mut self, f: FlowId) {
        let timer = &mut self.flows[f.index()].rto;
        timer.generation += 1;
        timer.queued = Some((timer.deadline, timer.seq));
        let event = Event::Rto {
            flow: f,
            generation: timer.generation,
        };
        self.queue.push_reserved(timer.deadline, timer.seq, event);
    }

    fn on_ack(&mut self, f: FlowId, ackno: u64) {
        let now = self.now;
        let flow = &mut self.flows[f.index()];
        if flow.done {
            return;
        }
        if ackno > flow.snd_una {
            let newly = ackno - flow.snd_una;
            // RTT sample from the most recently acked, never-retransmitted
            // segment (Karn's rule).
            if let Some((sent_at, retx)) = flow.send_times.get(ackno - 1) {
                if !retx {
                    flow.rtt.on_sample((now - sent_at).as_secs_f64());
                }
            }
            // Discard timing state for acked segments — O(newly acked).
            flow.send_times.advance_to(ackno);
            flow.snd_una = ackno;
            flow.dup_acks = 0;
            if flow.cc.in_recovery() {
                if ackno > flow.recover {
                    flow.cc.exit_recovery();
                } else {
                    // Partial ACK: the next hole is lost too — retransmit it
                    // without leaving recovery (NewReno).
                    let hole = flow.snd_una;
                    self.transmit(f, hole, true);
                    self.after_ack(f);
                    return;
                }
            } else {
                let srtt = flow.rtt.srtt();
                flow.cc.on_new_ack(newly, now, srtt);
            }
            self.after_ack(f);
        } else if ackno == self.flows[f.index()].snd_una
            && self.flows[f.index()].snd_nxt > self.flows[f.index()].snd_una
        {
            // Duplicate ACK with outstanding data.
            let flow = &mut self.flows[f.index()];
            flow.dup_acks += 1;
            if flow.cc.in_recovery() {
                flow.cc.on_dupack_in_recovery();
                self.flow_try_send(f);
            } else if flow.dup_acks == 3 {
                flow.recover = flow.snd_nxt;
                let flight = (flow.snd_nxt - flow.snd_una) as f64;
                flow.cc.enter_fast_recovery(flight);
                let hole = flow.snd_una;
                self.transmit(f, hole, true);
                self.arm_rto(f);
            }
        }
    }

    /// Common post-ACK bookkeeping: completion, timer management, and
    /// sending whatever the window now allows.
    fn after_ack(&mut self, f: FlowId) {
        let done = {
            let flow = &self.flows[f.index()];
            flow.snd_una >= flow.size_segments
        };
        if done {
            let flow = &mut self.flows[f.index()];
            // Pending timers now fire as no-ops, and nothing reads the
            // windows again: a done flow ignores ACKs, and every segment
            // still in flight lies below `rcv_nxt`, which the receiver only
            // acknowledges.
            flow.done = true;
            flow.send_times = SendTimes::new();
            flow.ooo = OooWindow::new();
            self.completed_flows += 1;
            if let Some(slot) = flow.slot {
                let (_, profile) = &self.sources[self.slots[slot].source];
                let gap = profile.sample_gap(&mut self.rng);
                let at = self.now + SimTime::from_secs_f64(gap);
                self.queue.push(at, Event::FlowStart { slot: slot as u32 });
            }
            return;
        }
        self.arm_rto(f);
        self.flow_try_send(f);
    }

    fn on_rto(&mut self, f: FlowId, generation: u32) {
        let flow = &mut self.flows[f.index()];
        if flow.done || generation != flow.rto.generation {
            return; // finished flow, or overtaken by an earlier deadline
        }
        let (_, queued_seq) = flow.rto.queued.take().expect("live timer is queued");
        if queued_seq != flow.rto.seq {
            // Re-armed since this event was queued: the deadline moved
            // later, so wait for it at the key its arm reserved.
            self.queue_rto(f);
            return;
        }
        if flow.snd_una >= flow.snd_nxt {
            return; // nothing outstanding
        }
        let flight = (flow.snd_nxt - flow.snd_una) as f64;
        flow.rtt.on_timeout();
        flow.cc.on_timeout(flight);
        flow.dup_acks = 0;
        // Go-back-N restart: retransmit the first unacked segment; the rest
        // follow as the window reopens.
        flow.snd_nxt = flow.snd_una + 1;
        let hole = flow.snd_una;
        self.transmit(f, hole, true);
        self.arm_rto(f);
    }

    // ------------------------------------------------------------------
    // Introspection for tests
    // ------------------------------------------------------------------

    /// Simulation clock (for tests).
    pub fn now(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::SizeDist;
    use nni_topology::PathId;

    /// Two links in series: host -> l0 -> l1 -> host, 10 Mb/s bottleneck.
    fn two_link_setup(rate_bps: f64) -> (Vec<LinkParams>, Vec<Route>) {
        let links = vec![
            LinkParams {
                rate_bps: 100e6,
                delay_s: 0.005,
                diff: Differentiation::None,
                queue_bytes: None,
            },
            LinkParams {
                rate_bps,
                delay_s: 0.005,
                diff: Differentiation::None,
                queue_bytes: None,
            },
        ];
        let routes = vec![Route {
            links: vec![LinkId(0), LinkId(1)],
            path: Some(PathId(0)),
        }];
        (links, routes)
    }

    fn quick_cfg(duration: f64) -> SimConfig {
        SimConfig {
            duration_s: duration,
            warmup_s: 0.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn interval_boundaries_agree_with_float_division() {
        // The cached boundary must match the float division exactly, even
        // for awkward interval widths with no exact binary representation.
        for &interval_s in &[0.1, 0.05, 0.25, 0.13, 1.0 / 3.0, 0.7, 2.0] {
            let idx = |ns: u64| ((ns as f64 / 1e9) / interval_s).floor() as u64;
            for i in 1..200u64 {
                let b = interval_boundary_ns(interval_s, i);
                assert!(idx(b) >= i, "boundary too early: {interval_s} {i}");
                assert!(idx(b - 1) < i, "boundary too late: {interval_s} {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite positive rate")]
    fn zero_rate_link_is_rejected_at_construction() {
        let (links, routes) = two_link_setup(0.0);
        Simulator::new(links, routes, 1, 1, quick_cfg(1.0));
    }

    #[test]
    fn single_flow_completes_on_idle_network() {
        // Buffer large enough that slow start cannot overshoot it: a
        // 1000-segment flow then completes without a single loss.
        let (mut links, routes) = two_link_setup(10e6);
        links[1].queue_bytes = Some(10_000_000);
        let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(30.0));
        sim.add_traffic(
            RouteId(0),
            TrafficProfile {
                class: 0,
                cc: CcKind::NewReno.into(),
                size: SizeDist::Fixed { bytes: 1_500_000 }, // 1000 segments
                mean_gap_s: 1000.0,                         // effectively one flow
                parallel: 1,
            },
        );
        let report = sim.run();
        assert!(report.completed_flows >= 1, "flow should finish in 30 s");
        assert_eq!(
            report.segments_dropped, 0,
            "no loss with an oversized buffer"
        );
        assert!(report.segments_delivered >= 1000);
    }

    #[test]
    fn slow_start_overshoot_recovers_and_completes() {
        // With a realistically sized (1 BDP) buffer, slow start overshoots,
        // loses packets, recovers, and the flow still completes.
        let (links, routes) = two_link_setup(10e6);
        let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(60.0));
        sim.add_traffic(
            RouteId(0),
            TrafficProfile {
                class: 0,
                cc: CcKind::NewReno.into(),
                size: SizeDist::Fixed { bytes: 3_000_000 }, // 2000 segments
                mean_gap_s: 1000.0,
                parallel: 1,
            },
        );
        let report = sim.run();
        assert!(
            report.segments_dropped > 0,
            "slow start must overshoot 1 BDP"
        );
        assert!(
            report.completed_flows >= 1,
            "loss recovery must finish the flow"
        );
    }

    #[test]
    fn conservation_of_segments() {
        let (links, routes) = two_link_setup(5e6);
        let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(20.0));
        sim.add_traffic(
            RouteId(0),
            TrafficProfile {
                class: 0,
                cc: CcKind::Cubic.into(),
                size: SizeDist::ParetoMean {
                    mean_bytes: 200_000.0,
                    shape: 1.5,
                },
                mean_gap_s: 0.5,
                parallel: 3,
            },
        );
        let report = sim.run();
        assert!(report.segments_sent > 0);
        assert_eq!(
            report.segments_sent,
            report.segments_delivered + report.segments_dropped + report.in_flight(),
            "segments must be delivered, dropped, or in flight"
        );
    }

    #[test]
    fn throughput_is_capped_by_bottleneck() {
        // One persistent flow over a 10 Mb/s bottleneck for 20 s can deliver
        // at most ~10 Mb/s * 20 s / (1500 * 8) ≈ 1667 segments.
        let (links, routes) = two_link_setup(10e6);
        let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(20.0));
        sim.add_traffic(
            RouteId(0),
            TrafficProfile {
                class: 0,
                cc: CcKind::Cubic.into(),
                size: SizeDist::Fixed {
                    bytes: 1_000_000_000,
                },
                mean_gap_s: 10.0,
                parallel: 1,
            },
        );
        let report = sim.run();
        let max_segments = (10e6 * 20.0 / (1500.0 * 8.0)) as u64;
        assert!(
            report.segments_delivered <= max_segments + 10,
            "delivered {} > line-rate bound {}",
            report.segments_delivered,
            max_segments
        );
        // And utilisation should be decent (> 50%) for a single long flow.
        assert!(
            report.segments_delivered > max_segments / 2,
            "delivered {} too low vs bound {}",
            report.segments_delivered,
            max_segments
        );
    }

    #[test]
    fn congestion_produces_loss_and_measurement() {
        // Two persistent flows into a small-buffered 5 Mb/s bottleneck must
        // overflow the queue.
        let (mut links, routes) = two_link_setup(5e6);
        links[1].queue_bytes = Some(30_000);
        let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(30.0));
        sim.add_traffic(
            RouteId(0),
            TrafficProfile {
                class: 0,
                cc: CcKind::NewReno.into(),
                size: SizeDist::Fixed {
                    bytes: 1_000_000_000,
                },
                mean_gap_s: 10.0,
                parallel: 2,
            },
        );
        let report = sim.run();
        assert!(report.segments_dropped > 0, "bottleneck must drop");
        let lost = report.log.total_lost(PathId(0));
        assert_eq!(lost, report.segments_dropped, "losses land in the path log");
        assert!(report.log.total_sent(PathId(0)) >= report.segments_sent);
        // Ground truth saw the drops on the bottleneck link.
        assert_eq!(
            report.link_truth.total_dropped(LinkId(1)),
            report.segments_dropped
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let (links, routes) = two_link_setup(8e6);
            let mut sim = Simulator::new(
                links,
                routes,
                1,
                1,
                SimConfig {
                    seed,
                    ..quick_cfg(10.0)
                },
            );
            sim.add_traffic(
                RouteId(0),
                TrafficProfile {
                    class: 0,
                    cc: CcKind::Cubic.into(),
                    size: SizeDist::ParetoMean {
                        mean_bytes: 100_000.0,
                        shape: 1.5,
                    },
                    mean_gap_s: 0.2,
                    parallel: 2,
                },
            );
            let r = sim.run();
            (
                r.segments_sent,
                r.segments_delivered,
                r.segments_dropped,
                r.completed_flows,
            )
        };
        assert_eq!(run(7), run(7), "same seed, same outcome");
        assert_ne!(run(7), run(8), "different seed, different traffic");
    }

    #[test]
    fn delay_recording_is_pure_observation() {
        // Same seed with and without delay recording: identical counts and
        // counters (recording consumes no RNG and reorders no event), and
        // the recorded percentiles respect the propagation floor.
        let run = |record_delay: bool| {
            let (links, routes) = two_link_setup(8e6);
            let mut sim = Simulator::new(
                links,
                routes,
                1,
                1,
                SimConfig {
                    record_delay,
                    ..quick_cfg(10.0)
                },
            );
            sim.add_traffic(
                RouteId(0),
                TrafficProfile {
                    class: 0,
                    cc: CcKind::Cubic.into(),
                    size: SizeDist::ParetoMean {
                        mean_bytes: 100_000.0,
                        shape: 1.5,
                    },
                    mean_gap_s: 0.2,
                    parallel: 2,
                },
            );
            sim.run()
        };
        let plain = run(false);
        let delayed = run(true);
        assert!(!plain.log.has_delay());
        assert!(delayed.log.has_delay());
        assert_eq!(plain.segments_sent, delayed.segments_sent);
        assert_eq!(plain.segments_delivered, delayed.segments_delivered);
        assert_eq!(plain.segments_dropped, delayed.segments_dropped);
        assert_eq!(plain.log.interval_count(), delayed.log.interval_count());
        let mut sampled = 0u64;
        for t in 0..plain.log.interval_count() {
            assert_eq!(plain.log.sent(t, PathId(0)), delayed.log.sent(t, PathId(0)));
            assert_eq!(plain.log.lost(t, PathId(0)), delayed.log.lost(t, PathId(0)));
            if let Some(s) = delayed.log.delay(t, PathId(0)) {
                sampled += s.count;
                // One-way delay ≥ 2 × 5 ms propagation, and the ranks are
                // ordered.
                assert!(s.p50_s >= 0.01, "p50 below propagation floor");
                assert!(s.p50_s <= s.p90_s && s.p90_s <= s.p99_s);
            }
        }
        assert_eq!(
            sampled, delayed.segments_delivered,
            "every delivered segment contributes one delay sample"
        );
        assert!(delayed.log.delay_baseline(PathId(0)).unwrap() >= 0.01);
    }

    #[test]
    fn policer_hits_only_target_class() {
        // Class 1 policed to 10% of the bottleneck; class 0 untouched.
        // Four parallel flows per class keep aggregate demand above the
        // token rate (a single policed CUBIC flow settles into an RTO
        // crawl *below* 5 Mb/s and rarely trips the policer at all).
        let links = vec![
            LinkParams {
                rate_bps: 100e6,
                delay_s: 0.002,
                diff: Differentiation::None,
                queue_bytes: None,
            },
            LinkParams {
                rate_bps: 50e6,
                delay_s: 0.002,
                diff: Differentiation::Policing {
                    class: 1,
                    rate_bps: 5e6,
                    burst_bytes: 15_000.0,
                },
                queue_bytes: None,
            },
        ];
        let routes = vec![
            Route {
                links: vec![LinkId(0), LinkId(1)],
                path: Some(PathId(0)),
            },
            Route {
                links: vec![LinkId(0), LinkId(1)],
                path: Some(PathId(1)),
            },
        ];
        let sources: Vec<(RouteId, TrafficProfile)> = [(0u32, 0u8), (1, 1)]
            .map(|(route, class)| {
                let profile = TrafficProfile {
                    class,
                    cc: CcKind::Cubic.into(),
                    size: SizeDist::Fixed {
                        bytes: 1_000_000_000,
                    },
                    mean_gap_s: 10.0,
                    parallel: 4,
                };
                (RouteId(route), profile)
            })
            .into();
        // The PR 1 lesson, structurally enforced: the targeted class must
        // demand well over the token rate from several parallel slots, or
        // this test silently stops exercising the policer.
        for d in crate::scenario::policed_demand(&links, &routes, &sources) {
            assert!(
                d.demand_bps > 2.0 * d.rate_bps && d.feeding_slots >= 2,
                "traffic model starves the policer on {}: demand {:.0} b/s \
                 vs rate {:.0} b/s from {} slots",
                d.link,
                d.demand_bps,
                d.rate_bps,
                d.feeding_slots
            );
        }
        let mut sim = Simulator::new(links, routes, 2, 2, quick_cfg(30.0));
        for (route, profile) in sources {
            sim.add_traffic(route, profile);
        }
        let report = sim.run();
        let thr = 0.01;
        let p0 = report.link_truth.congestion_probability(LinkId(1), 0, thr);
        let p1 = report.link_truth.congestion_probability(LinkId(1), 1, thr);
        assert!(
            p1 > p0 + 0.2,
            "policed class must congest far more often: p0={p0:.3} p1={p1:.3}"
        );
        // The policed class still gets (roughly) its allotted rate.
        let delivered1 = report.log.total_sent(PathId(1)) - report.log.total_lost(PathId(1));
        let rate1 = delivered1 as f64 * 1500.0 * 8.0 / 30.0;
        assert!(
            rate1 < 8e6,
            "policed flow throughput {rate1:.0} must stay near 5 Mb/s"
        );
        // Even with per-flow cwnd collapse under the small-burst policer,
        // the aggregate must keep making progress rather than deadlock.
        assert!(
            rate1 > 2e5,
            "policed flows should still move data, got {rate1:.0} b/s"
        );
    }

    #[test]
    fn queue_traces_are_recorded() {
        let (links, routes) = two_link_setup(5e6);
        let mut sim = Simulator::new(links, routes, 1, 1, quick_cfg(10.0));
        sim.add_traffic(
            RouteId(0),
            TrafficProfile {
                class: 0,
                cc: CcKind::NewReno.into(),
                size: SizeDist::Fixed {
                    bytes: 1_000_000_000,
                },
                mean_gap_s: 10.0,
                parallel: 1,
            },
        );
        let report = sim.run();
        assert_eq!(report.queue_traces.len(), 2);
        assert!(!report.queue_traces[1].times_s.is_empty());
        // A saturated bottleneck shows queue build-up.
        assert!(report.queue_traces[1].max_bytes() > 0);
    }
}
