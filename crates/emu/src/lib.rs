//! # nni-emu
//!
//! A deterministic, packet-level network emulator — the substrate the
//! paper's evaluation runs on (§6.1; the authors use the LINE user-level
//! emulator, we rebuild the equivalent in Rust, see DESIGN.md).
//!
//! * [`sim`] — the discrete-event engine: per-link store-and-forward with
//!   drop-tail queues sized by the maximum RTT, and the TCP flow drivers.
//! * [`tcp`] — NewReno and CUBIC congestion control plus the RFC 6298
//!   RTT/RTO estimator.
//! * [`diff`] — the two differentiation mechanisms of §6.1: token-bucket
//!   **policing** (non-conforming packets dropped) and **shaping**
//!   (non-conforming packets buffered in a dedicated queue).
//! * [`traffic`] — the dynamic traffic model: parallel TCP flows with
//!   Pareto sizes and exponential idle gaps.
//! * [`stats`] — the measurement log handed to the inference, the per-link
//!   per-class ground truth (Figure 10a), and queue traces (Figure 11).
//! * [`scenario`] — adapters from `nni-topology` graphs to simulator inputs.
//! * [`wire`] — the `SimReport` binary codec (the payload a worker
//!   subprocess streams back to its parent).
//!
//! Determinism: integer-nanosecond event times, insertion-order tie
//! breaking, and a single seeded RNG make every run reproducible.

pub mod bucket;
pub mod config;
pub mod diff;
pub mod event;
pub mod packet;
pub mod scenario;
pub mod sim;
pub mod slab;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod traffic;
pub mod window;
pub mod wire;

/// Build fingerprint of this emulator, stamped into every
/// `MeasurementSet`'s provenance (`nni-measure`): the crate version plus the
/// behaviour-relevant implementation choices. Two corpora recorded with the
/// same fingerprint and the same `(scenario fingerprint, seed)` key must
/// hold bit-identical measurements — the cross-version audit the on-disk
/// corpus format exists for.
pub fn build_fingerprint() -> String {
    format!(
        "nni-emu {} ({})",
        env!("CARGO_PKG_VERSION"),
        event::DEFAULT_QUEUE_KIND,
    )
}

pub use bucket::TokenBucket;
pub use config::SimConfig;
pub use diff::{Differentiation, ShapeLaneConfig};
pub use event::{CalendarEventQueue, Event};
pub use packet::{ClassLabel, FlowId, Packet, Route, RouteId};
pub use scenario::{
    background_route, link_params, measured_routes, policed_demand, policer_at_fraction,
    shaper_at_fraction, PolicedDemand,
};
pub use sim::{LinkParams, Simulator};
pub use slab::{PacketHandle, PacketSlab};
pub use stats::{LinkTruth, QueueTrace, SimReport};
pub use tcp::{CcKind, CongestionControl, RttEstimator};
pub use time::SimTime;
pub use traffic::{
    long_flow, mean_flow_bits, short_flow_mix, sustained_demand_bps, CcFleet, SizeDist,
    TrafficProfile,
};
pub use wire::{decode_report, encode_report};
