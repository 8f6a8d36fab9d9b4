//! `table2_sweep`: the paper's Table 2 experiment matrix on topology A.
//!
//! One op is one member's `Experiment::run` (simulate + infer + score)
//! through `SerialExecutor`; traced, it is `emulate` then `outcome_from`.
//! The emulator does nearly all of the work and inference has a single
//! slice, so emulator changes show here and inference changes should not.

use nni_bench::table2_sets;
use nni_scenario::{Executor, Experiment, ExperimentOutcome, SerialExecutor};

use crate::{emulate, span, Check, Size, Trace, Workload};

/// Compiles the Table 2 members at `duration_s` (all of them, or the first
/// `take`), timing each compile when tracing.
pub fn members(
    duration_s: f64,
    seed: u64,
    take: usize,
    trace: &mut Option<&mut Trace>,
) -> Vec<Experiment> {
    table2_sets(duration_s, seed)
        .iter()
        .flat_map(|set| set.scenarios())
        .take(take)
        .map(|s| span(trace, "scenario.compile_ms", || s.compile()))
        .collect()
}

pub struct Table2 {
    experiments: Vec<Experiment>,
}

impl Table2 {
    pub fn setup(seed: u64, size: Size, mut trace: Option<&mut Trace>) -> Table2 {
        let experiments = match size {
            Size::Full => members(3.0, seed, usize::MAX, &mut trace),
            Size::Tiny => members(0.5, seed, 2, &mut trace),
        };
        Table2 { experiments }
    }
}

impl Workload for Table2 {
    type Out = ExperimentOutcome;

    fn pass_len(&self) -> usize {
        self.experiments.len()
    }

    fn op(&mut self, i: usize, trace: Option<&mut Trace>) -> ExperimentOutcome {
        let exp = &self.experiments[i];
        match trace {
            None => SerialExecutor
                .execute(std::slice::from_ref(exp))
                .pop()
                .expect("one outcome per experiment"),
            Some(t) => {
                let report = emulate(exp, &mut Some(&mut *t));
                t.time("scenario.outcome_ms", || exp.outcome_from(report))
            }
        }
    }

    fn verify(
        &mut self,
        i: usize,
        out: ExperimentOutcome,
        _trace: Option<&mut Trace>,
    ) -> Result<Vec<(usize, Check)>, String> {
        conserves_segments(&out.report)?;
        Ok(vec![(
            i,
            (out.inference.fingerprint(), out.report.segments_sent),
        )])
    }
}

/// `SimReport` conservation: every sent segment is delivered, dropped, or
/// still in flight, and no measured path loses more than it sent.
pub fn conserves_segments(r: &nni_emu::SimReport) -> Result<(), String> {
    if r.segments_delivered + r.segments_dropped > r.segments_sent {
        return Err(format!(
            "delivered {} + dropped {} > sent {}",
            r.segments_delivered, r.segments_dropped, r.segments_sent
        ));
    }
    let log = &r.log;
    for t in 0..log.interval_count() {
        for p in (0..log.path_count()).map(nni_topology::PathId) {
            if log.lost(t, p) > log.sent(t, p) {
                return Err(format!("interval {t} path {p:?} lost more than it sent"));
            }
        }
    }
    Ok(())
}
