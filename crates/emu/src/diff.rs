//! Traffic-differentiation mechanisms (§6.1): policing and shaping.
//!
//! * **Policing**: the targeted class passes through a token bucket; packets
//!   that find no tokens are dropped immediately.
//! * **Shaping**: each configured class passes through its own token bucket;
//!   non-conforming packets are buffered in a dedicated per-class queue and
//!   released when tokens accumulate. The paper shapes class 2 at rate `R`
//!   and class 1 at rate `1 − R` of link capacity.

use crate::bucket::TokenBucket;
use crate::packet::{ClassLabel, Packet};
use crate::time::SimTime;
use std::collections::VecDeque;

/// Differentiation configuration of one link.
#[derive(Debug, Clone)]
pub enum Differentiation {
    /// Neutral FIFO link.
    None,
    /// Token-bucket policer on one class.
    Policing {
        /// Targeted class label.
        class: ClassLabel,
        /// Token fill rate (bits per second).
        rate_bps: f64,
        /// Bucket depth (bytes).
        burst_bytes: f64,
    },
    /// Per-class token-bucket shapers with dedicated buffers.
    Shaping {
        /// One lane per shaped class.
        lanes: Vec<ShapeLaneConfig>,
    },
}

/// Configuration of one shaper lane.
#[derive(Debug, Clone, Copy)]
pub struct ShapeLaneConfig {
    /// Shaped class label.
    pub class: ClassLabel,
    /// Token fill rate (bits per second).
    pub rate_bps: f64,
    /// Bucket depth (bytes).
    pub burst_bytes: f64,
    /// Dedicated buffer size (bytes); excess traffic is dropped.
    pub buffer_bytes: u64,
}

/// Outcome of pushing a packet through a differentiation mechanism.
#[derive(Debug)]
pub enum DiffOutcome {
    /// Forward to the link's main queue.
    Pass(Packet),
    /// Dropped by the mechanism (policer overflow / shaper buffer full).
    Drop(Packet),
    /// Buffered in shaper lane `lane`; if `schedule_release` is set the
    /// caller must schedule a `ShaperRelease(link, lane)` at the given time.
    Buffered {
        /// Lane index.
        lane: usize,
        /// Release to schedule, if none is pending yet.
        schedule_release: Option<SimTime>,
    },
}

/// Runtime state of a shaper lane.
#[derive(Debug)]
pub struct LaneRuntime {
    class: ClassLabel,
    bucket: TokenBucket,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    buffer_bytes: u64,
    release_pending: bool,
}

impl LaneRuntime {
    /// Bytes currently buffered in this lane.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }
}

/// Runtime state of a link's differentiation stage.
#[derive(Debug)]
pub enum DiffRuntime {
    /// Neutral.
    None,
    /// Policer state.
    Policer {
        /// Targeted class.
        class: ClassLabel,
        /// Token bucket.
        bucket: TokenBucket,
    },
    /// Shaper lanes.
    Shaper {
        /// Lane states.
        lanes: Vec<LaneRuntime>,
    },
}

impl DiffRuntime {
    /// Instantiates runtime state from configuration.
    pub fn new(cfg: &Differentiation) -> DiffRuntime {
        match cfg {
            Differentiation::None => DiffRuntime::None,
            Differentiation::Policing {
                class,
                rate_bps,
                burst_bytes,
            } => DiffRuntime::Policer {
                class: *class,
                bucket: TokenBucket::new(*rate_bps, *burst_bytes),
            },
            Differentiation::Shaping { lanes } => DiffRuntime::Shaper {
                lanes: lanes
                    .iter()
                    .map(|l| LaneRuntime {
                        class: l.class,
                        bucket: TokenBucket::new(l.rate_bps, l.burst_bytes),
                        queue: VecDeque::new(),
                        queued_bytes: 0,
                        buffer_bytes: l.buffer_bytes,
                        release_pending: false,
                    })
                    .collect(),
            },
        }
    }

    /// Pushes a packet through the mechanism at time `now`.
    pub fn ingress(&mut self, now: SimTime, packet: Packet) -> DiffOutcome {
        match self {
            DiffRuntime::None => DiffOutcome::Pass(packet),
            DiffRuntime::Policer { class, bucket } => {
                if packet.class != *class {
                    return DiffOutcome::Pass(packet);
                }
                bucket.update(now);
                if bucket.try_consume(packet.size as u64) {
                    DiffOutcome::Pass(packet)
                } else {
                    DiffOutcome::Drop(packet)
                }
            }
            DiffRuntime::Shaper { lanes } => {
                let Some(idx) = lanes.iter().position(|l| l.class == packet.class) else {
                    return DiffOutcome::Pass(packet);
                };
                let lane = &mut lanes[idx];
                lane.bucket.update(now);
                if lane.queue.is_empty() && lane.bucket.try_consume(packet.size as u64) {
                    return DiffOutcome::Pass(packet);
                }
                if lane.queued_bytes + packet.size as u64 > lane.buffer_bytes {
                    return DiffOutcome::Drop(packet);
                }
                lane.queued_bytes += packet.size as u64;
                lane.queue.push_back(packet);
                let schedule_release = if lane.release_pending {
                    None
                } else {
                    lane.release_pending = true;
                    let head = lane.queue.front().expect("just pushed");
                    let dt = lane.bucket.time_until_available(head.size as u64);
                    Some(now + dt.max(SimTime(1)))
                };
                DiffOutcome::Buffered {
                    lane: idx,
                    schedule_release,
                }
            }
        }
    }

    /// Handles a `ShaperRelease` event on lane `lane`: appends the packets
    /// now conforming (to be forwarded to the main queue, in per-lane FIFO
    /// order) to `out` and, when packets remain buffered, returns the time of
    /// the next release to schedule.
    ///
    /// `out` is a caller-owned scratch buffer: the simulator reuses one
    /// allocation across all release events instead of allocating per event.
    pub fn release(&mut self, now: SimTime, lane: usize, out: &mut Vec<Packet>) -> Option<SimTime> {
        let DiffRuntime::Shaper { lanes } = self else {
            return None;
        };
        let lane = &mut lanes[lane];
        lane.bucket.update(now);
        while let Some(head) = lane.queue.front() {
            if lane.bucket.try_consume(head.size as u64) {
                let pkt = lane.queue.pop_front().expect("front exists");
                lane.queued_bytes -= pkt.size as u64;
                out.push(pkt);
            } else {
                break;
            }
        }
        let next = lane.queue.front().map(|head| {
            let dt = lane.bucket.time_until_available(head.size as u64);
            now + dt.max(SimTime(1))
        });
        lane.release_pending = next.is_some();
        next
    }

    /// Total bytes buffered in shaper lanes (counted into queue occupancy).
    pub fn buffered_bytes(&self) -> u64 {
        match self {
            DiffRuntime::Shaper { lanes } => lanes.iter().map(|l| l.queued_bytes).sum(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, RouteId};

    fn pkt(class: ClassLabel, size: u32, id: u32) -> Packet {
        Packet {
            id,
            flow: FlowId(0),
            seq: id,
            size,
            class,
            route: RouteId(0),
            hop: 0,
            sent_at: SimTime::ZERO,
            retx: false,
        }
    }

    #[test]
    fn neutral_passes_everything() {
        let mut d = DiffRuntime::new(&Differentiation::None);
        assert!(matches!(
            d.ingress(SimTime::ZERO, pkt(0, 1500, 0)),
            DiffOutcome::Pass(_)
        ));
        assert!(matches!(
            d.ingress(SimTime::ZERO, pkt(1, 1500, 1)),
            DiffOutcome::Pass(_)
        ));
    }

    #[test]
    fn policer_targets_only_its_class() {
        let mut d = DiffRuntime::new(&Differentiation::Policing {
            class: 1,
            rate_bps: 8000.0, // 1000 B/s
            burst_bytes: 1500.0,
        });
        // Class 0 always passes.
        for i in 0..10 {
            assert!(matches!(
                d.ingress(SimTime::ZERO, pkt(0, 1500, i)),
                DiffOutcome::Pass(_)
            ));
        }
        // Class 1: first packet conforms (full bucket), second is dropped.
        assert!(matches!(
            d.ingress(SimTime::ZERO, pkt(1, 1500, 10)),
            DiffOutcome::Pass(_)
        ));
        assert!(matches!(
            d.ingress(SimTime::ZERO, pkt(1, 1500, 11)),
            DiffOutcome::Drop(_)
        ));
        // After 1.5 s the bucket refills 1500 bytes.
        let later = SimTime::from_secs_f64(1.5);
        assert!(matches!(
            d.ingress(later, pkt(1, 1500, 12)),
            DiffOutcome::Pass(_)
        ));
    }

    #[test]
    fn shaper_buffers_then_releases() {
        let mut d = DiffRuntime::new(&Differentiation::Shaping {
            lanes: vec![ShapeLaneConfig {
                class: 1,
                rate_bps: 8000.0,
                burst_bytes: 1500.0,
                buffer_bytes: 3000,
            }],
        });
        // First conforms.
        assert!(matches!(
            d.ingress(SimTime::ZERO, pkt(1, 1500, 0)),
            DiffOutcome::Pass(_)
        ));
        // Second buffers with a release scheduled 1.5 s out.
        match d.ingress(SimTime::ZERO, pkt(1, 1500, 1)) {
            DiffOutcome::Buffered {
                lane: 0,
                schedule_release: Some(at),
            } => {
                assert!((at.as_secs_f64() - 1.5).abs() < 1e-6);
            }
            other => panic!("expected buffered, got {other:?}"),
        }
        // Third buffers without a new release (one pending).
        match d.ingress(SimTime::ZERO, pkt(1, 1500, 2)) {
            DiffOutcome::Buffered {
                schedule_release: None,
                ..
            } => {}
            other => panic!("expected buffered w/o release, got {other:?}"),
        }
        assert_eq!(d.buffered_bytes(), 3000);
        // Fourth overflows the 3000-byte buffer.
        assert!(matches!(
            d.ingress(SimTime::ZERO, pkt(1, 1500, 3)),
            DiffOutcome::Drop(_)
        ));

        // Release at t = 1.5 s frees exactly one packet; next release queued.
        let mut released = Vec::new();
        let next = d.release(SimTime::from_secs_f64(1.5), 0, &mut released);
        assert_eq!(released.len(), 1);
        assert!(next.is_some());
        assert_eq!(d.buffered_bytes(), 1500);
        // At t = 3.0 s the last one drains and no further release is needed.
        released.clear();
        let next = d.release(SimTime::from_secs_f64(3.0), 0, &mut released);
        assert_eq!(released.len(), 1);
        assert!(next.is_none());
        assert_eq!(d.buffered_bytes(), 0);
    }

    #[test]
    fn two_lane_shaper_releases_in_per_lane_fifo_order() {
        // Two lanes on one link. Each lane buffers three packets; every
        // release must hand packets back in the order the lane queued them,
        // and lane 0's backlog must not leak into lane 1's releases.
        let lane_cfg = |class: u8| ShapeLaneConfig {
            class,
            rate_bps: 8000.0, // 1000 B/s => one 1000 B packet per second
            burst_bytes: 1000.0,
            buffer_bytes: 10_000,
        };
        let mut d = DiffRuntime::new(&Differentiation::Shaping {
            lanes: vec![lane_cfg(0), lane_cfg(1)],
        });
        // Drain each lane's initial token allowance, then buffer ids 10..13
        // (lane 0) interleaved with ids 20..23 (lane 1).
        assert!(matches!(
            d.ingress(SimTime::ZERO, pkt(0, 1000, 0)),
            DiffOutcome::Pass(_)
        ));
        assert!(matches!(
            d.ingress(SimTime::ZERO, pkt(1, 1000, 1)),
            DiffOutcome::Pass(_)
        ));
        for id in 0..3u32 {
            assert!(matches!(
                d.ingress(SimTime::ZERO, pkt(0, 1000, 10 + id)),
                DiffOutcome::Buffered { lane: 0, .. }
            ));
            assert!(matches!(
                d.ingress(SimTime::ZERO, pkt(1, 1000, 20 + id)),
                DiffOutcome::Buffered { lane: 1, .. }
            ));
        }
        // Drain both lanes by following each lane's release schedule: the
        // 1000-byte burst admits one packet per release, so FIFO order is
        // observable across successive releases. The scratch buffer is
        // appended to, never cleared, by release().
        let mut drain = |lane: usize| -> Vec<u32> {
            let mut out = Vec::new();
            let mut at = SimTime::from_secs_f64(60.0);
            while let Some(next) = d.release(at, lane, &mut out) {
                at = next;
            }
            out.iter().map(|p| p.id).collect()
        };
        assert_eq!(drain(0), [10, 11, 12], "lane 0 must drain in FIFO order");
        assert_eq!(drain(1), [20, 21, 22], "lane 1 must drain in FIFO order");
        assert_eq!(d.buffered_bytes(), 0);
    }

    #[test]
    fn shaper_ignores_unshaped_class() {
        let mut d = DiffRuntime::new(&Differentiation::Shaping {
            lanes: vec![ShapeLaneConfig {
                class: 1,
                rate_bps: 8000.0,
                burst_bytes: 1500.0,
                buffer_bytes: 3000,
            }],
        });
        for i in 0..20 {
            assert!(matches!(
                d.ingress(SimTime::ZERO, pkt(0, 1500, i)),
                DiffOutcome::Pass(_)
            ));
        }
    }
}
