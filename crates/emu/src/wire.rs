//! `SimReport` binary codec — the payload a worker subprocess ships back to
//! its parent over the PR 5 wire format.
//!
//! The bytes here are a bare payload: they travel inside a checksummed frame
//! (`nni_measure::wire`) whose header carries the magic and version byte, so
//! this codec only has to lay out the report itself. Every number folds
//! through the shared primitives ([`WireWriter`]/[`WireReader`]): varints
//! for counts, `f64` bit patterns for timestamps and intervals — which is
//! what makes a decoded report *bit-identical* to the encoded one, the
//! property the three-way executor identity gate rests on.
//!
//! Layout (in order):
//!
//! ```text
//! log            interval_s f64 · n_paths vu · n_intervals vu ·
//!                sent cells vu (row-major) · lost cells vu ·
//!                delay flag u8 · when 1, per cell: present u8,
//!                then count vu · p50 f64 · p90 f64 · p99 f64
//! link_truth     n_links vu · n_classes vu · n_intervals vu ·
//!                offered cells vu ([t][link][class]) · dropped cells vu
//! queue_traces   count vu · per trace: len vu · times_s f64 × len ·
//!                bytes vu × len
//! counters       completed_flows vu · segments_sent vu ·
//!                segments_delivered vu · segments_dropped vu
//! ```

use nni_measure::codec::{self, CodecError};
use nni_measure::{MeasurementLog, WireReader, WireWriter};
use nni_topology::PathId;

use crate::stats::{LinkTruth, QueueTrace, SimReport};

/// Encodes a report into the bare payload bytes (no frame header).
pub fn encode_report(report: &SimReport) -> Vec<u8> {
    let mut w = WireWriter::new();

    let log = &report.log;
    w.f64(log.interval_s());
    w.vu(log.path_count() as u64);
    w.vu(log.interval_count() as u64);
    for t in 0..log.interval_count() {
        for p in 0..log.path_count() {
            w.vu(log.sent(t, PathId(p)));
        }
    }
    for t in 0..log.interval_count() {
        for p in 0..log.path_count() {
            w.vu(log.lost(t, PathId(p)));
        }
    }
    // Delay grid: both ends of this wire are the same build (worker and
    // parent ship together), so an unconditional flag byte is safe. The one
    // committed report (`fixtures/v1/report_frame.bin`, a frame-interop
    // fixture) is loss-only and carries this flag as 0.
    w.u8(log.has_delay() as u8);
    if log.has_delay() {
        codec::put_delay(&mut w, log);
    }

    let truth = &report.link_truth;
    w.vu(truth.link_count() as u64);
    w.vu(truth.class_count() as u64);
    w.vu(truth.interval_count() as u64);
    for t in 0..truth.interval_count() {
        for l in 0..truth.link_count() {
            for c in 0..truth.class_count() {
                w.vu(truth.offered_at(t, nni_topology::LinkId(l), c as u8));
            }
        }
    }
    for t in 0..truth.interval_count() {
        for l in 0..truth.link_count() {
            for c in 0..truth.class_count() {
                w.vu(truth.dropped_at(t, nni_topology::LinkId(l), c as u8));
            }
        }
    }

    w.vu(report.queue_traces.len() as u64);
    for trace in &report.queue_traces {
        w.vu(trace.times_s.len() as u64);
        for &t in &trace.times_s {
            w.f64(t);
        }
        for &b in &trace.bytes {
            w.vu(b);
        }
    }

    w.vu(report.completed_flows as u64);
    w.vu(report.segments_sent);
    w.vu(report.segments_delivered);
    w.vu(report.segments_dropped);
    w.into_bytes()
}

/// Decodes a report payload, consuming every byte.
pub fn decode_report(bytes: &[u8]) -> Result<SimReport, CodecError> {
    let mut r = WireReader::new(bytes);

    let interval_s = r.f64()?;
    // NaN must be rejected too, not just non-positive values — the log
    // constructor would panic on it.
    if !interval_s.is_finite() || interval_s <= 0.0 {
        return Err(CodecError::BadValue("log interval must be positive"));
    }
    let n_paths = r.vu()? as usize;
    if n_paths == 0 {
        return Err(CodecError::BadValue("log needs at least one path"));
    }
    let n_intervals = r.vu()? as usize;
    // Every cell is at least one varint byte, so a garbled dimension pair
    // whose product exceeds the remaining payload can never decode — reject
    // it before the log grows `n_paths × n_intervals` storage for it.
    if 2 * n_paths as u128 * n_intervals as u128 > r.remaining() as u128 {
        return Err(CodecError::BadValue("log dimensions exceed payload"));
    }
    let mut row = || {
        (0..n_paths)
            .map(|_| r.vu())
            .collect::<Result<Vec<u64>, _>>()
    };
    let sent = (0..n_intervals)
        .map(|_| row())
        .collect::<Result<Vec<_>, _>>()?;
    let mut log = MeasurementLog::new(n_paths, interval_s);
    for sent in sent {
        log.push_interval(sent, row()?);
    }
    match r.u8()? {
        0 => {}
        1 => {
            // Each present cell costs at least its flag byte.
            if n_paths as u128 * n_intervals as u128 > r.remaining() as u128 {
                return Err(CodecError::BadValue("delay dimensions exceed payload"));
            }
            codec::get_delay(&mut r, &mut log)?;
        }
        _ => return Err(CodecError::BadValue("delay grid flag")),
    }

    let n_links = r.vu()? as usize;
    let n_classes = r.vu()? as usize;
    let truth_intervals = r.vu()? as usize;
    // Same byte-per-cell argument for the truth grids; the degenerate
    // zero-link/zero-class shape carries no cell bytes at all, so a nonzero
    // interval count there is unfillable garbage (a real recorder can only
    // grow intervals by recording against a link).
    if (n_links == 0 || n_classes == 0) && truth_intervals != 0 {
        return Err(CodecError::BadValue("truth intervals without truth cells"));
    }
    if 2 * truth_intervals as u128 * n_links as u128 * n_classes as u128 > r.remaining() as u128 {
        return Err(CodecError::BadValue("truth dimensions exceed payload"));
    }
    // The bound above keeps this product inside the payload's length.
    let cells = truth_intervals * n_links * n_classes;
    let read_grid = |r: &mut WireReader<'_>| -> Result<Vec<u64>, CodecError> {
        let mut grid = Vec::with_capacity(cells);
        for _ in 0..cells {
            grid.push(r.vu()?);
        }
        Ok(grid)
    };
    let offered = read_grid(&mut r)?;
    let dropped = read_grid(&mut r)?;
    let link_truth = LinkTruth::from_counts(n_links, n_classes, truth_intervals, offered, dropped);

    let n_traces = r.vu()? as usize;
    // Each trace costs at least its one-byte length varint.
    if n_traces as u128 > r.remaining() as u128 {
        return Err(CodecError::BadValue("trace count exceeds payload"));
    }
    let mut queue_traces = Vec::with_capacity(n_traces);
    for _ in 0..n_traces {
        let len = r.vu()? as usize;
        let mut trace = QueueTrace::default();
        for _ in 0..len {
            trace.times_s.push(r.f64()?);
        }
        for _ in 0..len {
            trace.bytes.push(r.vu()?);
        }
        queue_traces.push(trace);
    }

    let completed_flows = r.vu()? as usize;
    let segments_sent = r.vu()?;
    let segments_delivered = r.vu()?;
    let segments_dropped = r.vu()?;
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(SimReport {
        log,
        link_truth,
        queue_traces,
        completed_flows,
        segments_sent,
        segments_delivered,
        segments_dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_topology::LinkId;

    fn sample_report() -> SimReport {
        let mut log = MeasurementLog::new(2, 0.1);
        log.record_sent(0, PathId(0), 10);
        log.record_lost(0, PathId(0), 1);
        log.record_sent(2, PathId(1), 7);
        let mut truth = LinkTruth::new(2, 2);
        truth.record_offered(0, LinkId(1), 1);
        truth.record_dropped(1, LinkId(0), 0);
        let mut trace = QueueTrace::default();
        trace.push(0.05, 1500);
        trace.push(0.15, 0);
        SimReport {
            log,
            link_truth: truth,
            queue_traces: vec![trace, QueueTrace::default()],
            completed_flows: 3,
            segments_sent: 100,
            segments_delivered: 97,
            segments_dropped: 2,
        }
    }

    #[test]
    fn report_round_trips_bit_identically() {
        let report = sample_report();
        let bytes = encode_report(&report);
        let decoded = decode_report(&bytes).expect("decode");
        assert_eq!(decoded, report);
    }

    #[test]
    fn delay_grid_round_trips_bit_identically() {
        let mut report = sample_report();
        let n = report.log.interval_count();
        let mut rows = vec![vec![None; 2]; n];
        rows[0][0] = nni_measure::DelayStats::from_sorted_ns(&[2_000_000, 3_000_000]);
        rows[2][1] = nni_measure::DelayStats::from_sorted_ns(&[750_000_000]);
        report.log.set_delay(rows);
        let decoded = decode_report(&encode_report(&report)).expect("decode");
        assert_eq!(decoded, report);
        assert!(decoded.log.has_delay());
        assert_eq!(decoded.log.delay(0, PathId(0)).unwrap().count, 2);
        // A poisoned flag byte is a typed error.
        let mut bytes = encode_report(&sample_report());
        // The flag byte sits right after the lost cells; find it by
        // re-encoding with the flag forced to garbage.
        let flag_pos = {
            let log = &sample_report().log;
            let mut w = WireWriter::new();
            w.f64(log.interval_s());
            w.vu(log.path_count() as u64);
            w.vu(log.interval_count() as u64);
            for t in 0..log.interval_count() {
                for p in 0..log.path_count() {
                    w.vu(log.sent(t, PathId(p)));
                }
            }
            for t in 0..log.interval_count() {
                for p in 0..log.path_count() {
                    w.vu(log.lost(t, PathId(p)));
                }
            }
            w.into_bytes().len()
        };
        bytes[flag_pos] = 7;
        assert!(matches!(
            decode_report(&bytes),
            Err(CodecError::BadValue("delay grid flag"))
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_fail() {
        let mut bytes = encode_report(&sample_report());
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 1);
        assert!(matches!(
            decode_report(&truncated),
            Err(CodecError::UnexpectedEof)
        ));
        bytes.push(0);
        assert!(matches!(
            decode_report(&bytes),
            Err(CodecError::TrailingBytes)
        ));
    }

    /// Garbled dimension varints must fail as [`CodecError::BadValue`]
    /// before the decoder allocates or loops on them — a corrupt frame may
    /// cost an error, never memory or time.
    #[test]
    fn implausible_dimensions_are_rejected_before_allocation() {
        // Log claiming 2^40 intervals for 2^20 paths in a tiny payload.
        let mut w = WireWriter::new();
        w.f64(0.1);
        w.vu(1 << 20);
        w.vu(1 << 40);
        assert!(matches!(
            decode_report(&w.into_bytes()),
            Err(CodecError::BadValue("log dimensions exceed payload"))
        ));

        // Truth tensor claiming 2^50 cells.
        let mut w = WireWriter::new();
        w.f64(0.1);
        w.vu(1); // n_paths
        w.vu(0); // n_intervals
        w.u8(0); // no delay grid
        w.vu(1 << 10); // n_links
        w.vu(1 << 10); // n_classes
        w.vu(1 << 30); // truth_intervals
        assert!(matches!(
            decode_report(&w.into_bytes()),
            Err(CodecError::BadValue("truth dimensions exceed payload"))
        ));

        // Zero-link truth cannot carry intervals (it would loop for free).
        let mut w = WireWriter::new();
        w.f64(0.1);
        w.vu(1);
        w.vu(0);
        w.u8(0);
        w.vu(0); // n_links
        w.vu(0); // n_classes
        w.vu(u64::MAX); // truth_intervals
        assert!(matches!(
            decode_report(&w.into_bytes()),
            Err(CodecError::BadValue("truth intervals without truth cells"))
        ));

        // A delay grid announced with no bytes behind it: the cell-count
        // guard fires before the decoder loops over 16 phantom cells.
        let mut w = WireWriter::new();
        w.f64(0.1);
        w.vu(4); // n_paths
        w.vu(4); // n_intervals
        for _ in 0..32 {
            w.vu(0); // sent + lost cells
        }
        w.u8(1); // delay grid follows — but nothing does
        assert!(matches!(
            decode_report(&w.into_bytes()),
            Err(CodecError::BadValue("delay dimensions exceed payload"))
        ));

        // Queue-trace count far beyond the payload.
        let mut w = WireWriter::new();
        w.f64(0.1);
        w.vu(1);
        w.vu(0);
        w.u8(0);
        w.vu(0);
        w.vu(0);
        w.vu(0);
        w.vu(u64::MAX); // n_traces
        assert!(matches!(
            decode_report(&w.into_bytes()),
            Err(CodecError::BadValue("trace count exceeds payload"))
        ));
    }

    #[test]
    fn empty_report_round_trips() {
        let report = SimReport {
            log: MeasurementLog::new(1, 0.1),
            link_truth: LinkTruth::new(0, 0),
            queue_traces: Vec::new(),
            completed_flows: 0,
            segments_sent: 0,
            segments_delivered: 0,
            segments_dropped: 0,
        };
        let decoded = decode_report(&encode_report(&report)).expect("decode");
        assert_eq!(decoded, report);
    }
}
