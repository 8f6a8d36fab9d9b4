//! `isp_live`: the online monitor's hot path at ISP scale.
//!
//! Set-up acquires one long `isp_200link` log and builds a
//! `StreamingInference` once. One op closes one interval: `advance(log, t)`
//! then `verdict()`. A pass walks every interval; the next pass starts with
//! `rebase()`. Algorithm 2 runs incrementally here, one interval per op,
//! rather than in batch.
//!
//! The log is fed to `StreamingInference` directly rather than through a
//! `.nniseg` segment: a segment header for a topology this size cannot be
//! read back (see the `known_limitation` self-test).

use nni_core::{IdentifyPlan, InferenceResult};
use nni_scenario::{infer, InferenceConfig, MeasurementSet, StreamingInference};
use nni_topogen::IspParams;

use crate::reinfer::acquire;
use crate::{Check, Size, Trace, Workload};

pub struct Live {
    set: MeasurementSet,
    cfg: InferenceConfig,
    stream: StreamingInference,
    /// Fingerprint of batch `infer` over the whole log: what the last op of
    /// every pass must reproduce.
    batch: u64,
}

impl Live {
    pub fn setup(seed: u64, size: Size, mut trace: Option<&mut Trace>) -> Live {
        let (params, duration_s) = match size {
            Size::Full => (IspParams::isp_200link(), 20.0),
            Size::Tiny => (IspParams::small(), 2.0),
        };
        let (set, cfg) = acquire(&params, duration_s, seed, &mut trace);
        if let Some(t) = trace {
            // `StreamingInference::new` builds its plan internally; time the
            // same construction on its own for the plan layer.
            t.time("core.plan_ms", || {
                IdentifyPlan::new(&set.topology, &cfg.algorithm)
            });
        }
        let stream = StreamingInference::new(&set.topology, set.provenance.seed, &cfg);
        Live {
            set,
            cfg,
            stream,
            batch: 0,
        }
    }
}

impl Workload for Live {
    type Out = InferenceResult;

    fn pass_len(&self) -> usize {
        self.set.log.interval_count()
    }

    fn prepare(&mut self) {
        self.batch = infer(&self.set, &self.cfg).fingerprint();
    }

    fn op(&mut self, i: usize, trace: Option<&mut Trace>) -> InferenceResult {
        if i == 0 {
            self.stream.rebase();
        }
        let log = &self.set.log;
        match trace {
            None => {
                self.stream.advance(log, i + 1);
                self.stream.verdict()
            }
            Some(t) => {
                t.time("scenario.stream.advance_ms", || {
                    self.stream.advance(log, i + 1)
                });
                t.time("scenario.stream.verdict_ms", || self.stream.verdict())
            }
        }
    }

    fn verify(
        &mut self,
        i: usize,
        out: InferenceResult,
        _trace: Option<&mut Trace>,
    ) -> Result<Vec<(usize, Check)>, String> {
        let fingerprint = out.fingerprint();
        if i + 1 == self.pass_len() && fingerprint != self.batch {
            return Err("final streamed verdict != batch infer".into());
        }
        Ok(vec![(i, (fingerprint, 0))])
    }
}
