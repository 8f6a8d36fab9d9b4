//! `pool_small_batches`: the daemon's small-batch shape.
//!
//! Batches of four sub-second Table 2 members go through a two-worker
//! `ProcessExecutor` over connect-back TCP on the loopback interface. One
//! op is one `try_execute` batch; workers are spawned per batch, so spawn,
//! framing and queue wait are a large share of the op. Traced, the op is
//! `try_batch` then `outcome_from` per job, and the jobs are replayed
//! in-process afterwards (outside the op) to split the batch time into
//! emulation and pool overhead.
//!
//! The workers are this executable itself: `perfbench --connect <addr>`
//! runs the same serve loop as `nni-worker --connect`, so the benchmark
//! builds and spawns only its own binary.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

use nni_emu::SimReport;
use nni_scenario::{
    Experiment, ExperimentOutcome, ProcessExecutor, ProcessStats, Scenario, WorkerTransport,
};

use crate::table2::members;
use crate::{emulate, Check, Size, Trace, Workload};

/// Jobs per batch.
const BATCH: usize = 4;
/// Worker processes per batch (no more than the benchmark box's cores).
const WORKERS: usize = 2;

/// The worker side: dial the pool's loopback listener at `addr` and serve
/// `NNIWJOB`/`NNIWRES` frames until the pool closes the stream.
pub fn serve_worker(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut input = BufReader::new(stream.try_clone()?);
    let mut output = BufWriter::new(stream);
    nni_service::serve(&mut input, &mut output)?;
    output.flush()?;
    Ok(())
}

pub struct Pool {
    experiments: Vec<Experiment>,
    /// Member indices of each batch; batches wrap around the members, so a
    /// pass covers every member equally often.
    batches: Vec<Vec<usize>>,
    /// Compiled experiments per batch, contiguous as `try_execute` wants.
    batch_experiments: Vec<Vec<Experiment>>,
    executor: ProcessExecutor,
    /// Serial `emulate` reports, the reference process reports must match.
    serial: Vec<SimReport>,
}

/// One batch's outcomes (`None` for a quarantined job) and pool counters.
pub type PoolOut = Result<(Vec<Option<ExperimentOutcome>>, ProcessStats), String>;

impl Pool {
    pub fn setup(seed: u64, size: Size, mut trace: Option<&mut Trace>) -> Pool {
        let experiments = match size {
            Size::Full => members(0.5, seed, usize::MAX, &mut trace),
            Size::Tiny => members(0.3, seed, BATCH, &mut trace),
        };
        let n = experiments.len();
        let jobs = (1..)
            .map(|k| k * n)
            .find(|jobs| jobs % BATCH == 0)
            .expect("some multiple of n fills whole batches");
        let batches: Vec<Vec<usize>> = (0..jobs / BATCH)
            .map(|b| (0..BATCH).map(|j| (b * BATCH + j) % n).collect())
            .collect();
        let batch_experiments = batches
            .iter()
            .map(|b| b.iter().map(|&m| experiments[m].clone()).collect())
            .collect();
        let executor = ProcessExecutor::new(WORKERS)
            .with_transport(WorkerTransport::Tcp)
            .with_worker_bin(std::env::current_exe().expect("current executable path"));
        Pool {
            experiments,
            batches,
            batch_experiments,
            executor,
            serial: Vec::new(),
        }
    }
}

impl Workload for Pool {
    type Out = PoolOut;

    fn pass_len(&self) -> usize {
        self.batches.len()
    }

    fn prepare(&mut self) {
        self.serial = self.experiments.iter().map(Experiment::emulate).collect();
    }

    fn op(&mut self, i: usize, trace: Option<&mut Trace>) -> PoolOut {
        let batch = &self.batch_experiments[i];
        let Some(t) = trace else {
            let (outcomes, stats) = self
                .executor
                .try_execute(batch)
                .map_err(|e| e.to_string())?;
            return Ok((outcomes.into_iter().map(Some).collect(), stats));
        };
        let scenarios: Vec<&Scenario> = batch.iter().map(Experiment::scenario).collect();
        let outcome = t
            .time("scenario.process.batch_ms", || {
                self.executor.try_batch(&scenarios)
            })
            .map_err(|e| e.to_string())?;
        let outcomes = batch
            .iter()
            .zip(outcome.reports)
            .map(|(exp, report)| {
                report.map(|r| t.time("scenario.outcome_ms", || exp.outcome_from(r)))
            })
            .collect();
        Ok((outcomes, outcome.stats))
    }

    fn verify(
        &mut self,
        i: usize,
        out: PoolOut,
        mut trace: Option<&mut Trace>,
    ) -> Result<Vec<(usize, Check)>, String> {
        let (outcomes, stats) = out?;
        if let Some(t) = trace.as_deref_mut() {
            t.sample("scenario.process.respawns", stats.respawns as f64);
            t.sample("scenario.process.retries", stats.retries as f64);
            t.sample("scenario.process.quarantined", stats.quarantined as f64);
        }
        let mut checks = Vec::with_capacity(outcomes.len());
        for (&m, outcome) in self.batches[i].iter().zip(outcomes) {
            let outcome = outcome.ok_or_else(|| format!("member {m} quarantined"))?;
            if outcome.report != self.serial[m] {
                return Err(format!("member {m}: process report != serial emulate"));
            }
            checks.push((
                m,
                (
                    outcome.inference.fingerprint(),
                    outcome.report.segments_sent,
                ),
            ));
        }
        if let Some(t) = trace {
            let batch_ms = t.last("scenario.process.batch_ms").unwrap_or(0.0);
            let mut emulate_ms = 0.0;
            for &m in &self.batches[i] {
                emulate(&self.experiments[m], &mut Some(&mut *t));
                emulate_ms += t.last("emu.emulate_ms").unwrap_or(0.0);
            }
            t.sample(
                "scenario.process.overhead_ms",
                batch_ms - emulate_ms / WORKERS as f64,
            );
        }
        Ok(checks)
    }
}
