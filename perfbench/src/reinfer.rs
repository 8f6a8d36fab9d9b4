//! `isp_reinfer`: re-inference of an encoded corpus at ISP scale.
//!
//! Set-up acquires a few `isp_200link` measurement sets and encodes them.
//! One op decodes one set and runs `infer` under one config; the configs
//! cycle over decision and loss thresholds. The emulator is bypassed, and
//! every op meets the same topology shape, so plan construction, Algorithm
//! 2 and the decision half carry the op. Traced, `infer` is split into
//! `MeasuredObservations::new` -> `IdentifyPlan::new` -> `observe` ->
//! `identify_scores`.

use nni_core::{identify_scores, DecisionMode, IdentifyPlan, InferenceResult};
use nni_measure::codec::{self, CodecError};
use nni_measure::{MeasuredObservations, NormalizeConfig};
use nni_scenario::{infer, InferenceConfig, MeasurementSet};
use nni_topogen::{isp_scenario, IspParams};

use crate::{emulate, span, Check, Size, Trace, Workload};

/// Clustered absolute unsolvability thresholds the configs cycle over.
const ABS_THRESHOLDS: [f64; 2] = [0.06, 0.08];
/// Loss thresholds of the congestion-free indicator the configs cycle over.
const LOSS_THRESHOLDS: [f64; 2] = [0.01, 0.02];

/// Acquires `isp_scenario(params, duration_s, seed)` as a measurement set,
/// with its inference config, timing the layers when tracing.
pub fn acquire(
    params: &IspParams,
    duration_s: f64,
    seed: u64,
    trace: &mut Option<&mut Trace>,
) -> (MeasurementSet, InferenceConfig) {
    let scenario = isp_scenario(params, duration_s, seed);
    let exp = span(trace, "scenario.compile_ms", || scenario.compile());
    let report = emulate(&exp, trace);
    (exp.package(report.log), InferenceConfig::of(&scenario))
}

pub struct Reinfer {
    sets: Vec<MeasurementSet>,
    encoded: Vec<Vec<u8>>,
    configs: Vec<InferenceConfig>,
}

impl Reinfer {
    pub fn setup(seed: u64, size: Size, mut trace: Option<&mut Trace>) -> Reinfer {
        let (params, duration_s, n_sets) = match size {
            Size::Full => (IspParams::isp_200link(), 10.0, 3u64),
            Size::Tiny => (IspParams::small(), 2.0, 1),
        };
        let mut sets = Vec::new();
        let mut encoded = Vec::new();
        let mut base = InferenceConfig::default();
        for k in 0..n_sets {
            let (set, cfg) = acquire(&params, duration_s, seed + k, &mut trace);
            encoded.push(span(&mut trace, "measure.codec.encode_ms", || {
                codec::encode(&set)
            }));
            sets.push(set);
            base = cfg;
        }
        let configs = ABS_THRESHOLDS
            .iter()
            .flat_map(|&abs| {
                LOSS_THRESHOLDS.iter().map(move |&loss| {
                    let mut cfg = InferenceConfig {
                        loss_threshold: loss,
                        ..base
                    };
                    if let DecisionMode::Clustered { abs_threshold, .. } = &mut cfg.algorithm.mode {
                        *abs_threshold = abs;
                    }
                    cfg
                })
            })
            .collect();
        Reinfer {
            sets,
            encoded,
            configs,
        }
    }

    fn split(&self, i: usize) -> (usize, &InferenceConfig) {
        let n = self.configs.len();
        (i / n, &self.configs[i % n])
    }
}

impl Workload for Reinfer {
    type Out = Result<(MeasurementSet, InferenceResult), CodecError>;

    fn pass_len(&self) -> usize {
        self.sets.len() * self.configs.len()
    }

    fn op(&mut self, i: usize, trace: Option<&mut Trace>) -> Self::Out {
        let (k, cfg) = self.split(i);
        let bytes = &self.encoded[k];
        let Some(t) = trace else {
            let set = codec::decode(bytes)?;
            let result = infer(&set, cfg);
            return Ok((set, result));
        };
        let set = t.time("measure.codec.decode_ms", || codec::decode(bytes))?;
        t.sample("measure.codec.bytes", bytes.len() as f64);
        let obs = MeasuredObservations::new(
            &set.log,
            NormalizeConfig {
                loss_threshold: cfg.loss_threshold,
                seed: set.provenance.seed ^ cfg.normalize_salt,
                delay: cfg.delay,
            },
        );
        let plan = t.time("core.plan_ms", || {
            IdentifyPlan::new(&set.topology, &cfg.algorithm)
        });
        let ys = t.time("measure.alg2_ms", || plan.observe(&obs));
        let result = t.time("core.decide_ms", || {
            identify_scores(&plan, &ys, cfg.algorithm)
        });
        drop(obs);
        Ok((set, result))
    }

    fn verify(
        &mut self,
        i: usize,
        out: Self::Out,
        _trace: Option<&mut Trace>,
    ) -> Result<Vec<(usize, Check)>, String> {
        let (set, result) = out.map_err(|e| format!("decode: {e}"))?;
        if set != self.sets[self.split(i).0] {
            return Err("decode(encode(set)) != set".into());
        }
        Ok(vec![(i, (result.fingerprint(), 0))])
    }
}
