//! The worker wire protocol: a complete [`Scenario`] codec plus the job and
//! result frames a [`ProcessExecutor`](crate::ProcessExecutor) exchanges
//! with its `nni-worker` subprocesses.
//!
//! Layering mirrors the crate graph: byte primitives and checksummed
//! framing live in `nni_measure::wire`, the `SimReport` codec in
//! `nni_emu::wire`, and the scenario codec here — the only layer that can
//! see every field a scenario carries. A worker receives a *scenario* (not
//! a compiled experiment: compilation is deterministic and cheap, and the
//! scenario is the closed serializable description), runs the emulation,
//! and ships the `SimReport` back; the parent re-derives outcomes and
//! measurement sets from the report, so inference never crosses the wire.
//!
//! # One walk, two uses
//!
//! A scenario's simulation-relevant fields — topology, classes,
//! differentiation, path traffic, background, queue overrides — are
//! walked once, by `put_simulation`, over an `nni_measure::Sink`. The
//! topology and classes come from `nni_measure::codec`'s shared walks, so
//! a job and a measurement set lay them out identically. [`encode_scenario`]
//! runs the walk into a `WireWriter`;
//! [`Scenario::measurement_fingerprint`] runs it into an FNV-1a.
//!
//! # Frames
//!
//! Both frame types use the PR 5 framing (magic, version byte, length, FNV
//! trailer — see `nni_measure::wire`) with a `job id u64` ahead of the
//! payload so responses can be matched to requests:
//!
//! ```text
//! b"NNIWJOB"  job id u64 LE · encoded Scenario
//! b"NNIWRES"  job id u64 LE · encoded SimReport
//! ```
//!
//! Decoded scenarios are **re-validated** through
//! [`ScenarioBuilder::of`](crate::ScenarioBuilder::of) — a stream that
//! checksums correctly but describes an invalid scenario (unknown links,
//! empty fleets) fails the decode instead of panicking inside the emulator.

use std::io::{Read, Write};

use nni_emu::{
    CcFleet, CcKind, Differentiation, ShapeLaneConfig, SimReport, SizeDist, TrafficProfile,
};
use nni_measure::codec::{self, CodecError};
use nni_measure::wire::{read_frame, write_frame, FrameError};
use nni_measure::{Sink, WireReader, WireWriter};
use nni_topology::{LinkId, PathId};

use crate::spec::{
    BackgroundTraffic, Expectation, MeasurementConfig, QueueOverride, Scenario, ScenarioBuilder,
};

/// Frame magic of a job (parent → worker): job id + scenario.
pub const JOB_MAGIC: &[u8; 7] = b"NNIWJOB";

/// Frame magic of a result (worker → parent): job id + sim report.
pub const RESULT_MAGIC: &[u8; 7] = b"NNIWRES";

// ---------------------------------------------------------------- scenario

fn put_fleet(w: &mut impl Sink, fleet: &CcFleet) {
    fn put_kind(w: &mut impl Sink, k: CcKind) {
        w.u8(match k {
            CcKind::NewReno => 0,
            CcKind::Cubic => 1,
        })
    }
    match fleet {
        CcFleet::Uniform(kind) => {
            w.u8(1);
            put_kind(w, *kind);
        }
        CcFleet::Mixed(kinds) => {
            w.u8(2);
            w.vu(kinds.len() as u64);
            for &k in kinds {
                put_kind(w, k);
            }
        }
    }
}

fn get_fleet(r: &mut WireReader<'_>) -> Result<CcFleet, CodecError> {
    let get_kind = |r: &mut WireReader<'_>| -> Result<CcKind, CodecError> {
        match r.u8()? {
            0 => Ok(CcKind::NewReno),
            1 => Ok(CcKind::Cubic),
            _ => Err(CodecError::BadValue("congestion-control kind")),
        }
    };
    match r.u8()? {
        1 => Ok(CcFleet::Uniform(get_kind(r)?)),
        2 => {
            let n = r.len()?;
            let mut kinds = Vec::with_capacity(n);
            for _ in 0..n {
                kinds.push(get_kind(r)?);
            }
            Ok(CcFleet::Mixed(kinds))
        }
        _ => Err(CodecError::BadValue("fleet tag")),
    }
}

fn put_profile(w: &mut impl Sink, p: &TrafficProfile) {
    w.u8(p.class);
    put_fleet(w, &p.cc);
    match p.size {
        SizeDist::ParetoMean { mean_bytes, shape } => {
            w.u8(1);
            w.f64(mean_bytes);
            w.f64(shape);
        }
        SizeDist::Fixed { bytes } => {
            w.u8(2);
            w.vu(bytes);
        }
    }
    w.f64(p.mean_gap_s);
    w.vu(p.parallel as u64);
}

fn get_profile(r: &mut WireReader<'_>) -> Result<TrafficProfile, CodecError> {
    let class = r.u8()?;
    let cc = get_fleet(r)?;
    let size = match r.u8()? {
        1 => SizeDist::ParetoMean {
            mean_bytes: r.f64()?,
            shape: r.f64()?,
        },
        2 => SizeDist::Fixed { bytes: r.vu()? },
        _ => return Err(CodecError::BadValue("size-distribution tag")),
    };
    Ok(TrafficProfile {
        class,
        cc,
        size,
        mean_gap_s: r.f64()?,
        parallel: r.vu()? as usize,
    })
}

/// The simulation-relevant fields of a scenario, in wire order: topology,
/// classes, differentiation, path traffic, background, queue overrides.
///
/// The one walk over them: [`encode_scenario`] writes it as bytes and
/// [`Scenario::measurement_fingerprint`] folds it into an FNV-1a, each
/// followed by its own tail of measurement fields.
pub(crate) fn put_simulation(w: &mut impl Sink, s: &Scenario) {
    codec::put_topology(w, &s.topology);
    codec::put_classes(w, &s.classes);

    w.vu(s.differentiation.len() as u64);
    for (l, diff) in &s.differentiation {
        w.vu(l.index() as u64);
        match diff {
            Differentiation::None => w.u8(0),
            Differentiation::Policing {
                class,
                rate_bps,
                burst_bytes,
            } => {
                w.u8(1);
                w.u8(*class);
                w.f64(*rate_bps);
                w.f64(*burst_bytes);
            }
            Differentiation::Shaping { lanes } => {
                w.u8(2);
                w.vu(lanes.len() as u64);
                for lane in lanes {
                    w.u8(lane.class);
                    w.f64(lane.rate_bps);
                    w.f64(lane.burst_bytes);
                    w.vu(lane.buffer_bytes);
                }
            }
        }
    }

    w.vu(s.path_traffic.len() as u64);
    for (p, profile) in &s.path_traffic {
        w.vu(p.index() as u64);
        put_profile(w, profile);
    }

    w.vu(s.background.len() as u64);
    for bg in &s.background {
        w.vu(bg.links.len() as u64);
        for l in &bg.links {
            w.vu(l.index() as u64);
        }
        w.vu(bg.profiles.len() as u64);
        for profile in &bg.profiles {
            put_profile(w, profile);
        }
    }

    w.vu(s.queue_overrides.len() as u64);
    for (l, q) in &s.queue_overrides {
        w.vu(l.index() as u64);
        match q {
            QueueOverride::Bytes(b) => {
                w.u8(1);
                w.vu(*b);
            }
            QueueOverride::Packets(n) => {
                w.u8(2);
                w.vu(*n as u64);
            }
        }
    }
}

/// Encodes a scenario into bare payload bytes (framing is the caller's):
/// the name, the `put_simulation` walk, then the measurement, inference
/// and expectation fields.
pub fn encode_scenario(s: &Scenario) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.str(&s.name);
    put_simulation(&mut w, s);

    let m = &s.measurement;
    w.f64(m.duration_s);
    w.f64(m.interval_s);
    w.f64(m.loss_threshold);
    match m.warmup_s {
        None => w.u8(0),
        Some(warmup) => {
            w.u8(1);
            w.f64(warmup);
        }
    }
    w.u64(m.seed);
    w.u64(m.normalize_salt);
    w.u8(m.record_delay as u8);
    match m.delay_feature {
        None => w.u8(0),
        Some(f) => {
            w.u8(1);
            w.f64(f.rel_factor);
            w.f64(f.abs_floor_s);
        }
    }

    w.vu(s.inference.min_pairs as u64);
    match s.inference.mode {
        nni_core::DecisionMode::Exact { tol } => {
            w.u8(1);
            w.f64(tol);
        }
        nni_core::DecisionMode::Clustered {
            guard,
            abs_threshold,
            rel_margin,
        } => {
            w.u8(2);
            w.f64(guard.abs_floor);
            w.f64(guard.rel_factor);
            w.f64(abs_threshold);
            w.f64(rel_margin);
        }
    }

    w.vu(s.expectation.nonneutral_links.len() as u64);
    for l in &s.expectation.nonneutral_links {
        w.vu(l.index() as u64);
    }
    w.u8(s.expectation.expect_flagged as u8);

    w.into_bytes()
}

/// Decodes a scenario payload, consuming every byte and re-validating the
/// result through the builder.
pub fn decode_scenario(bytes: &[u8]) -> Result<Scenario, CodecError> {
    let mut r = WireReader::new(bytes);
    let name = r.str()?;

    let topology = codec::get_topology(&mut r)?;
    let classes = codec::get_classes(&mut r, topology.path_count())?;

    let n_diff = r.len()?;
    let mut differentiation = Vec::with_capacity(n_diff);
    for _ in 0..n_diff {
        let link = LinkId(r.vu()? as usize);
        let diff = match r.u8()? {
            0 => Differentiation::None,
            1 => Differentiation::Policing {
                class: r.u8()?,
                rate_bps: r.f64()?,
                burst_bytes: r.f64()?,
            },
            2 => {
                let n = r.len()?;
                let mut lanes = Vec::with_capacity(n);
                for _ in 0..n {
                    lanes.push(ShapeLaneConfig {
                        class: r.u8()?,
                        rate_bps: r.f64()?,
                        burst_bytes: r.f64()?,
                        buffer_bytes: r.vu()?,
                    });
                }
                Differentiation::Shaping { lanes }
            }
            _ => return Err(CodecError::BadValue("differentiation tag")),
        };
        differentiation.push((link, diff));
    }

    let n_traffic = r.len()?;
    let mut path_traffic = Vec::with_capacity(n_traffic);
    for _ in 0..n_traffic {
        let p = PathId(r.vu()? as usize);
        path_traffic.push((p, get_profile(&mut r)?));
    }

    let n_bg = r.len()?;
    let mut background = Vec::with_capacity(n_bg);
    for _ in 0..n_bg {
        let n = r.len()?;
        let mut links = Vec::with_capacity(n);
        for _ in 0..n {
            links.push(LinkId(r.vu()? as usize));
        }
        let n = r.len()?;
        let mut profiles = Vec::with_capacity(n);
        for _ in 0..n {
            profiles.push(get_profile(&mut r)?);
        }
        background.push(BackgroundTraffic { links, profiles });
    }

    let n_overrides = r.len()?;
    let mut queue_overrides = Vec::with_capacity(n_overrides);
    for _ in 0..n_overrides {
        let link = LinkId(r.vu()? as usize);
        let q = match r.u8()? {
            1 => QueueOverride::Bytes(r.vu()?),
            2 => {
                let n = r.vu()?;
                if n > u32::MAX as u64 {
                    return Err(CodecError::BadValue("queue override packet count"));
                }
                QueueOverride::Packets(n as u32)
            }
            _ => return Err(CodecError::BadValue("queue-override tag")),
        };
        queue_overrides.push((link, q));
    }

    let duration_s = r.f64()?;
    let interval_s = r.f64()?;
    let loss_threshold = r.f64()?;
    let warmup_s = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        _ => return Err(CodecError::BadValue("warmup tag")),
    };
    let seed = r.u64()?;
    let normalize_salt = r.u64()?;
    let record_delay = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::BadValue("record-delay flag")),
    };
    let delay_feature = match r.u8()? {
        0 => None,
        1 => Some(nni_core::DelayFeature {
            rel_factor: r.f64()?,
            abs_floor_s: r.f64()?,
        }),
        _ => return Err(CodecError::BadValue("delay-feature tag")),
    };
    let measurement = MeasurementConfig {
        duration_s,
        interval_s,
        loss_threshold,
        warmup_s,
        seed,
        normalize_salt,
        record_delay,
        delay_feature,
    };

    let min_pairs = r.vu()? as usize;
    let mode = match r.u8()? {
        1 => nni_core::DecisionMode::Exact { tol: r.f64()? },
        2 => nni_core::DecisionMode::Clustered {
            guard: nni_stats::SeparationGuard {
                abs_floor: r.f64()?,
                rel_factor: r.f64()?,
            },
            abs_threshold: r.f64()?,
            rel_margin: r.f64()?,
        },
        _ => return Err(CodecError::BadValue("decision-mode tag")),
    };
    let inference = nni_core::Config { min_pairs, mode };

    let n = r.len()?;
    let mut nonneutral_links = Vec::with_capacity(n);
    for _ in 0..n {
        nonneutral_links.push(LinkId(r.vu()? as usize));
    }
    let expect_flagged = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::BadValue("expectation flag")),
    };
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes);
    }

    ScenarioBuilder::of(Scenario {
        name,
        topology,
        classes,
        differentiation,
        path_traffic,
        background,
        queue_overrides,
        measurement,
        inference,
        expectation: Expectation {
            nonneutral_links,
            expect_flagged,
        },
    })
    .build()
    .map_err(|_| CodecError::BadValue("decoded scenario failed validation"))
}

// ------------------------------------------------------------------ frames

fn with_job_id(job_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(job_id);
    w.raw(payload);
    w.into_bytes()
}

/// Writes one job frame (parent → worker).
pub fn write_job(out: &mut impl Write, job_id: u64, scenario: &Scenario) -> Result<(), FrameError> {
    write_frame(
        out,
        JOB_MAGIC,
        &with_job_id(job_id, &encode_scenario(scenario)),
    )
}

/// Reads one job frame; `Ok(None)` is a clean end-of-stream (the parent
/// closed the worker's stdin: orderly shutdown).
pub fn read_job(input: &mut impl Read) -> Result<Option<(u64, Scenario)>, FrameError> {
    let Some(payload) = read_frame(input, JOB_MAGIC)? else {
        return Ok(None);
    };
    let mut r = WireReader::new(&payload);
    let job_id = r.u64().map_err(FrameError::Codec)?;
    let scenario = decode_scenario(&payload[r.pos()..]).map_err(FrameError::Codec)?;
    Ok(Some((job_id, scenario)))
}

/// Writes one result frame (worker → parent).
pub fn write_result(
    out: &mut impl Write,
    job_id: u64,
    report: &SimReport,
) -> Result<(), FrameError> {
    out.write_all(&result_frame_bytes(job_id, report))
        .map_err(FrameError::Io)
}

/// The complete on-wire bytes of one result frame — the handle the fault
/// hooks use to tear or bit-flip an answer deliberately.
pub fn result_frame_bytes(job_id: u64, report: &SimReport) -> Vec<u8> {
    nni_measure::wire::frame_bytes(
        RESULT_MAGIC,
        &with_job_id(job_id, &nni_emu::encode_report(report)),
    )
}

/// Reads one result frame; `Ok(None)` is a clean end-of-stream (the worker
/// exited — orderly only if no job was outstanding).
pub fn read_result(input: &mut impl Read) -> Result<Option<(u64, SimReport)>, FrameError> {
    let Some(payload) = read_frame(input, RESULT_MAGIC)? else {
        return Ok(None);
    };
    let mut r = WireReader::new(&payload);
    let job_id = r.u64().map_err(FrameError::Codec)?;
    let report = nni_emu::decode_report(&payload[r.pos()..]).map_err(FrameError::Codec)?;
    Ok(Some((job_id, report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::ScenarioGen;
    use crate::library::{topology_a_scenario, ExperimentParams, Mechanism};

    #[test]
    fn library_scenarios_round_trip() {
        for s in crate::library::identity_suite() {
            let bytes = encode_scenario(&s);
            let back = decode_scenario(&bytes).expect("decode");
            // Scenario has no PartialEq (Topology interns derived state), so
            // compare via the measurement fingerprint — which covers every
            // measurement-shaping axis — plus the inference-side fields.
            assert_eq!(back.name, s.name);
            assert_eq!(back.measurement_fingerprint(), s.measurement_fingerprint());
            assert_eq!(back.measurement, s.measurement);
            // `Config` carries no `PartialEq`; its Debug form covers every
            // field bit-exactly enough for a round-trip check (f64 Debug
            // prints the shortest uniquely-parsing form).
            assert_eq!(
                format!("{:?}", back.inference),
                format!("{:?}", s.inference)
            );
            assert_eq!(back.expectation, s.expectation);
        }
    }

    #[test]
    fn decoded_scenarios_emulate_bit_identically() {
        let s = topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            duration_s: 4.0,
            ..ExperimentParams::default()
        });
        let back = decode_scenario(&encode_scenario(&s)).expect("decode");
        assert_eq!(back.compile().run(), s.compile().run());
    }

    #[test]
    fn generated_scenarios_round_trip() {
        let mut gen = ScenarioGen::new(7);
        for _ in 0..10 {
            let s = gen.scenario();
            let back = decode_scenario(&encode_scenario(&s)).expect("decode");
            assert_eq!(back.measurement_fingerprint(), s.measurement_fingerprint());
            assert_eq!(
                format!("{:?}", back.inference),
                format!("{:?}", s.inference)
            );
        }
    }

    #[test]
    fn delay_fields_round_trip() {
        let mut s = topology_a_scenario(ExperimentParams {
            duration_s: 4.0,
            ..ExperimentParams::default()
        });
        s.measurement.record_delay = true;
        s.measurement.delay_feature = Some(nni_core::DelayFeature {
            rel_factor: 6.5,
            abs_floor_s: 0.125,
        });
        let back = decode_scenario(&encode_scenario(&s)).expect("decode");
        assert_eq!(back.measurement, s.measurement);
        // Recording-only (no feature) survives too.
        s.measurement.delay_feature = None;
        let back = decode_scenario(&encode_scenario(&s)).expect("decode");
        assert_eq!(back.measurement, s.measurement);
        // A feature without recording fails builder re-validation on decode.
        s.measurement.record_delay = false;
        s.measurement.delay_feature = Some(nni_core::DelayFeature::default());
        assert!(decode_scenario(&encode_scenario(&s)).is_err());
    }

    #[test]
    fn invalid_payloads_fail_loudly() {
        let s = topology_a_scenario(ExperimentParams {
            duration_s: 4.0,
            ..ExperimentParams::default()
        });
        let bytes = encode_scenario(&s);
        // Truncation anywhere is an error, never a panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_scenario(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected.
        let mut b = bytes.clone();
        b.push(0);
        assert!(matches!(
            decode_scenario(&b),
            Err(CodecError::TrailingBytes)
        ));
    }

    #[test]
    fn out_of_range_class_member_is_a_typed_error() {
        // The set codec's class reader bounds member ids by the topology's
        // path count; a job shares that reader, so a bad member fails there
        // rather than at builder re-validation.
        let mut s = topology_a_scenario(ExperimentParams {
            duration_s: 4.0,
            ..ExperimentParams::default()
        });
        s.classes[0].push(PathId(s.topology.path_count()));
        assert_eq!(
            decode_scenario(&encode_scenario(&s)).unwrap_err(),
            CodecError::BadValue("class member path id")
        );
    }

    #[test]
    fn job_and_result_frames_round_trip() {
        let s = topology_a_scenario(ExperimentParams {
            duration_s: 4.0,
            ..ExperimentParams::default()
        });
        let report = s.compile().emulate();

        let mut stream = Vec::new();
        write_job(&mut stream, 17, &s).unwrap();
        let mut cursor = std::io::Cursor::new(&stream);
        let (id, back) = read_job(&mut cursor).unwrap().expect("one job");
        assert_eq!(id, 17);
        assert_eq!(back.measurement_fingerprint(), s.measurement_fingerprint());
        assert!(read_job(&mut cursor).unwrap().is_none(), "clean EOF");

        let mut stream = Vec::new();
        write_result(&mut stream, 23, &report).unwrap();
        let mut cursor = std::io::Cursor::new(&stream);
        let (id, back) = read_result(&mut cursor).unwrap().expect("one result");
        assert_eq!(id, 23);
        assert_eq!(back, report);
    }
}
