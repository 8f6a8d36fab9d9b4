//! The `nni-serviced` loop: drain the spool through a worker-subprocess
//! pool, spill measurements, stream verdicts.
//!
//! Scheduling and crash handling are delegated to [`ProcessExecutor`]: a
//! worker that dies or hangs mid-job is killed, respawned (with backoff)
//! and the job requeued with a bounded attempt budget; a job that exhausts
//! the budget comes back *quarantined* in the typed partial
//! [`BatchOutcome`](nni_scenario::BatchOutcome) instead of failing the
//! batch. The daemon's own loop
//! manages **durability** and **poison containment**:
//!
//! * Jobs move `incoming → running → done` through fsync'd atomic renames;
//!   a daemon killed mid-batch leaves its claims in `running/`, which the
//!   next start [`recover`](Spool::recover)s back into the queue and
//!   records with a `"recovered"` audit line in the verdict stream.
//! * An **undecodable** submission is parked in `failed/` with a
//!   machine-readable reason and the daemon *continues* — one bad file
//!   cannot loop or kill the service.
//! * A **quarantined** job is retried across batches with exponential
//!   backoff plus deterministic jitter ([`DaemonConfig::job_retries`]
//!   daemon-level runs, each of [`DaemonConfig::max_attempts`] worker
//!   attempts); when the budget is spent it is parked in `failed/` with a
//!   `*.reason.json` naming the last worker failure, and the rest of the
//!   queue keeps draining.
//! * Only failures retrying cannot help — spawn errors, protocol
//!   violations, undecodable *worker* bytes — requeue the batch and stop
//!   the daemon (exit 1), because they mean the installation itself is
//!   broken.

use std::collections::HashMap;
use std::ffi::OsString;
use std::fs;
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nni_measure::jsonl::escape;
use nni_measure::wire::FrameError;
use nni_measure::{Corpus, Fnv, MeasurementSet, RelaySource, SegmentWriter};
use nni_scenario::fault::FaultPlan;
use nni_scenario::{
    read_job, Executor, Experiment, ProcessError, ProcessExecutor, Quarantined, Scenario,
};

use crate::spool::Spool;

/// Everything the daemon needs to run.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Spool root directory.
    pub spool: PathBuf,
    /// Worker-subprocess pool size.
    pub workers: usize,
    /// Worker binary override (`None`: the executor's default resolution).
    pub worker_bin: Option<PathBuf>,
    /// Exit as soon as the queue is empty instead of polling forever.
    pub drain: bool,
    /// Poll interval while idle (non-drain mode).
    pub poll_ms: u64,
    /// Per-job worker attempt budget within one batch.
    pub max_attempts: u32,
    /// Spill measurements as chunked `.nniseg` segments instead of whole
    /// `.nniset` entries, so a live `CorpusTail` (e.g. `nni-live`) sees
    /// intervals land incrementally instead of one opaque blob per job.
    pub follow: bool,
    /// Per-job wall-clock timeout (hung-worker kill) in milliseconds.
    pub job_timeout_ms: u64,
    /// How many quarantines (daemon-level runs) one job may accumulate
    /// before it is parked in `failed/` as poison. Floored at one.
    pub job_retries: u32,
    /// Base of the between-runs retry backoff in milliseconds (doubles per
    /// strike, plus deterministic jitter).
    pub retry_base_ms: u64,
    /// Ceiling of the retry backoff in milliseconds.
    pub retry_cap_ms: u64,
    /// Most jobs claimed per batch — bounds the blast radius of a terminal
    /// pool failure and keeps the verdict stream flowing under a deep
    /// queue.
    pub max_batch: usize,
    /// Extra environment variables for spawned workers (how tests ship a
    /// `FaultPlan` without touching the daemon's own environment).
    pub worker_env: Vec<(String, String)>,
    /// Serve the corpus's live `.nniseg` traffic to remote tails
    /// (`nni-live --connect`) on this address. `None`: no listener. The
    /// bound address is announced as `serving-segments <addr>` on stdout,
    /// so `127.0.0.1:0` picks a free port race-free.
    pub serve_segments: Option<String>,
}

impl DaemonConfig {
    /// A drain-mode config with defaults (2 workers, 3 attempts, 5-minute
    /// job timeout, 2 daemon-level runs per job).
    pub fn drain(spool: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            spool: spool.into(),
            workers: 2,
            worker_bin: None,
            drain: true,
            poll_ms: 200,
            max_attempts: nni_scenario::DEFAULT_MAX_ATTEMPTS,
            follow: false,
            job_timeout_ms: nni_scenario::DEFAULT_JOB_TIMEOUT_MS,
            job_retries: 2,
            retry_base_ms: 25,
            retry_cap_ms: 1_000,
            max_batch: 32,
            worker_env: Vec::new(),
            serve_segments: None,
        }
    }
}

/// What one daemon run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Jobs completed into `done/`.
    pub jobs_done: usize,
    /// Batches executed.
    pub batches: usize,
    /// Jobs recovered from `running/` at startup.
    pub recovered: usize,
    /// Worker processes respawned after crashes.
    pub respawns: usize,
    /// Jobs requeued after worker crashes.
    pub retries: usize,
    /// Hung workers killed on the job timeout.
    pub timeouts: usize,
    /// Quarantine events (a job may contribute several before parking).
    pub quarantined: usize,
    /// Jobs parked in `failed/` (undecodable or poison).
    pub parked: usize,
}

/// Why the daemon stopped.
#[derive(Debug)]
pub enum ServiceError {
    /// A filesystem or pipe failure.
    Io(std::io::Error),
    /// The worker pool failed terminally (spawn failure, protocol
    /// violation, undecodable worker bytes).
    Process(ProcessError),
    /// `nni-servicectl submit` was asked for a scenario the library does
    /// not contain.
    UnknownScenario(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Process(e) => write!(f, "worker pool failed: {e}"),
            ServiceError::UnknownScenario(name) => {
                write!(f, "no library scenario named {name:?}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> ServiceError {
        ServiceError::Io(e)
    }
}

impl From<ProcessError> for ServiceError {
    fn from(e: ProcessError) -> ServiceError {
        ServiceError::Process(e)
    }
}

fn job_name(path: &Path) -> String {
    path.file_name()
        .unwrap_or_default()
        .to_string_lossy()
        .into_owned()
}

fn verdict_line(job: &Path, exp: &Experiment, out: &nni_scenario::ExperimentOutcome) -> String {
    let s = exp.scenario();
    format!(
        "{{\"type\":\"verdict\",\"job\":\"{}\",\"scenario\":\"{}\",\"seed\":{},\
         \"fingerprint\":\"{:016x}\",\"flagged\":{},\"correct\":{}}}",
        escape(&job_name(job)),
        escape(&s.name),
        s.measurement.seed,
        s.measurement_fingerprint(),
        out.flagged_nonneutral,
        out.correct,
    )
}

/// Between-runs retry delay for a quarantined job: exponential in the
/// strike count, clamped, plus deterministic jitter hashed from the job
/// name — so a burst of poison jobs spreads out instead of thundering back
/// in lockstep, and a test can still predict the schedule.
fn retry_backoff(cfg: &DaemonConfig, name: &OsString, strike: u32) -> Duration {
    let shift = strike.saturating_sub(1).min(16);
    let exp = cfg
        .retry_base_ms
        .saturating_mul(1 << shift)
        .min(cfg.retry_cap_ms.max(cfg.retry_base_ms));
    let mut h = Fnv::new();
    h.bytes(name.to_string_lossy().as_bytes());
    h.word(strike as u64);
    let jitter = if cfg.retry_base_ms > 0 {
        h.0 % cfg.retry_base_ms
    } else {
        0
    };
    Duration::from_millis(exp + jitter)
}

/// Runs the daemon until drained (drain mode / drain marker) or a terminal
/// error. See the module docs for the durability contract.
/// Spawns the segment-relay accept loop on an already-bound listener:
/// each connection gets its own [`RelaySource`] over `dir` (full history
/// from byte zero) on its own thread. Connection endings are logged, not
/// fatal; the loop runs until the process exits.
pub fn spawn_segment_server(
    listener: TcpListener,
    dir: PathBuf,
    poll: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            match conn {
                Ok(stream) => {
                    let dir = dir.clone();
                    std::thread::spawn(move || {
                        let _ = stream.set_nodelay(true);
                        let mut out = std::io::BufWriter::new(stream);
                        let e = RelaySource::new(&dir).serve(&mut out, poll);
                        // A tail hanging up is how relay connections end.
                        eprintln!("segment relay connection ended: {e}");
                    });
                }
                Err(e) => eprintln!("segment relay accept failed: {e}"),
            }
        }
    })
}

pub fn run_daemon(cfg: &DaemonConfig) -> Result<DaemonSummary, ServiceError> {
    let spool = Spool::open(&cfg.spool)?;
    let corpus = Corpus::open(spool.corpus_dir())?;
    if let Some(addr) = &cfg.serve_segments {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        println!("serving-segments {bound}");
        let _ = std::io::stdout().flush();
        spawn_segment_server(
            listener,
            spool.corpus_dir().to_path_buf(),
            Duration::from_millis(cfg.poll_ms.max(1)),
        );
    }
    let mut exec = ProcessExecutor::new(cfg.workers)
        .with_max_attempts(cfg.max_attempts)
        .with_job_timeout(Duration::from_millis(cfg.job_timeout_ms.max(1)));
    if let Some(bin) = &cfg.worker_bin {
        exec = exec.with_worker_bin(bin);
    }
    for (key, value) in &cfg.worker_env {
        exec = exec.with_env(key, value);
    }
    // Delayed-spill fault hook: honored whether the plan arrives via the
    // worker-env override (tests) or the daemon's own environment.
    let spill_delay = cfg
        .worker_env
        .iter()
        .find(|(k, _)| k == nni_scenario::FAULT_PLAN_ENV)
        .and_then(|(_, v)| FaultPlan::parse(v).ok())
        .or_else(FaultPlan::from_env)
        .map(|p| Duration::from_millis(p.spill_delay_ms))
        .unwrap_or(Duration::ZERO);

    let recovered = spool.recover()?;
    let mut summary = DaemonSummary {
        recovered: recovered.len(),
        ..DaemonSummary::default()
    };
    if !recovered.is_empty() {
        let names: Vec<String> = recovered.iter().map(|p| escape(&job_name(p))).collect();
        spool.append_verdict(&format!(
            "{{\"type\":\"recovered\",\"jobs\":{},\"files\":[\"{}\"]}}",
            recovered.len(),
            names.join("\",\""),
        ))?;
    }

    // Quarantine strikes and retry-eligibility times per job file name.
    let mut strikes: HashMap<OsString, u32> = HashMap::new();
    let mut eligible_at: HashMap<OsString, Instant> = HashMap::new();

    loop {
        let pending = spool.pending()?;
        let now = Instant::now();
        let mut ready: Vec<PathBuf> = Vec::new();
        let mut next_eligible: Option<Instant> = None;
        for job in pending {
            let name = job
                .file_name()
                .expect("job files have names")
                .to_os_string();
            match eligible_at.get(&name) {
                Some(&at) if at > now => {
                    next_eligible = Some(next_eligible.map_or(at, |t: Instant| t.min(at)));
                }
                _ => ready.push(job),
            }
        }
        if ready.is_empty() {
            match next_eligible {
                // Jobs exist but are backing off: wait for the earliest.
                Some(at) => {
                    let wait = at.saturating_duration_since(now);
                    std::thread::sleep(wait.min(Duration::from_millis(cfg.poll_ms.max(1))));
                }
                None => {
                    if cfg.drain || spool.drain_requested() {
                        return Ok(summary);
                    }
                    std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
                }
            }
            continue;
        }
        ready.truncate(cfg.max_batch.max(1));

        // Claim, then decode. An undecodable submission is parked with a
        // reason and the rest of the batch proceeds — one bad file must
        // not loop or stop the service.
        let mut jobs: Vec<(PathBuf, Experiment)> = Vec::with_capacity(ready.len());
        for job in &ready {
            let path = spool.claim(job)?;
            let bytes = fs::read(&path)?;
            let error = match read_job(&mut bytes.as_slice()) {
                Ok(Some((_, scenario))) => {
                    jobs.push((path, scenario.compile()));
                    continue;
                }
                Ok(None) => nni_measure::codec::CodecError::UnexpectedEof,
                Err(FrameError::Codec(error)) => error,
                Err(FrameError::Io(e)) => return Err(ServiceError::Io(e)),
            };
            let reason = format!(
                "{{\"kind\":\"undecodable\",\"error\":\"{}\"}}",
                escape(&error.to_string())
            );
            let parked = spool.park_failed_with_reason(&path, &reason)?;
            spool.append_verdict(&format!(
                "{{\"type\":\"parked\",\"job\":\"{}\",\"reason\":\"undecodable\",\"error\":\"{}\"}}",
                escape(&job_name(&parked)),
                escape(&error.to_string()),
            ))?;
            summary.parked += 1;
        }
        if jobs.is_empty() {
            continue;
        }

        let scenarios: Vec<&Scenario> = jobs.iter().map(|(_, e)| e.scenario()).collect();
        let batch = match exec.try_batch(&scenarios) {
            Ok(b) => b,
            Err(e) => {
                // Terminal pool failure: put the whole batch back so a
                // restart re-runs it.
                for (path, _) in &jobs {
                    let _ = spool.requeue(path);
                }
                return Err(e.into());
            }
        };

        let mut quarantined: HashMap<usize, Quarantined> =
            batch.quarantined.into_iter().map(|q| (q.job, q)).collect();
        for (i, ((path, exp), report)) in jobs.iter().zip(batch.reports).enumerate() {
            let name = path
                .file_name()
                .expect("job files have names")
                .to_os_string();
            match report {
                Some(report) => {
                    let outcome = exp.outcome_from(report);
                    let set = exp.package(outcome.report.log.clone());
                    if cfg.follow {
                        spill_segment(corpus.dir(), &set, spill_delay)?;
                    } else {
                        corpus.store(&set).map_err(ServiceError::Io)?;
                    }
                    spool.append_verdict(&verdict_line(path, exp, &outcome))?;
                    spool.complete(path)?;
                    summary.jobs_done += 1;
                    strikes.remove(&name);
                    eligible_at.remove(&name);
                }
                None => {
                    let q = quarantined.remove(&i).expect("no report means quarantined");
                    summary.quarantined += 1;
                    let strike = strikes.entry(name.clone()).or_insert(0);
                    *strike += 1;
                    if *strike >= cfg.job_retries.max(1) {
                        let reason = format!(
                            "{{\"kind\":\"quarantined\",\"runs\":{},\"attempts_per_run\":{},\
                             \"last\":\"{}\"}}",
                            strike,
                            q.attempts,
                            escape(&q.last.to_string()),
                        );
                        let parked = spool.park_failed_with_reason(path, &reason)?;
                        spool.append_verdict(&format!(
                            "{{\"type\":\"parked\",\"job\":\"{}\",\"reason\":\"quarantined\",\
                             \"runs\":{},\"last\":\"{}\"}}",
                            escape(&job_name(&parked)),
                            strike,
                            escape(&q.last.to_string()),
                        ))?;
                        summary.parked += 1;
                        strikes.remove(&name);
                        eligible_at.remove(&name);
                    } else {
                        let delay = retry_backoff(cfg, &name, *strike);
                        spool.requeue(path)?;
                        eligible_at.insert(name.clone(), Instant::now() + delay);
                        spool.append_verdict(&format!(
                            "{{\"type\":\"requeued\",\"job\":\"{}\",\"strike\":{},\
                             \"backoff_ms\":{},\"last\":\"{}\"}}",
                            escape(&job_name(path)),
                            strike,
                            delay.as_millis(),
                            escape(&q.last.to_string()),
                        ))?;
                    }
                }
            }
        }
        spool.append_verdict(&format!(
            "{{\"type\":\"batch\",\"jobs\":{},\"executor\":\"{}\",\
             \"respawns\":{},\"retries\":{},\"timeouts\":{},\"quarantined\":{}}}",
            jobs.len(),
            exec.describe(),
            batch.stats.respawns,
            batch.stats.retries,
            batch.stats.timeouts,
            batch.stats.quarantined,
        ))?;
        summary.batches += 1;
        summary.respawns += batch.stats.respawns;
        summary.retries += batch.stats.retries;
        summary.timeouts += batch.stats.timeouts;
    }
}

/// Segment chunk size in `--follow` mode: small enough that a concurrent
/// tail sees several interval batches land per job, large enough to keep
/// chunk overhead negligible.
const FOLLOW_CHUNK_INTERVALS: usize = 10;

/// Spills one completed job's measurement set as a chunked `.nniseg`
/// segment under the corpus directory (follow mode): header chunk first,
/// then interval chunks, each flushed — a tailing consumer never sees a
/// torn entry. `delay` (a fault-plan knob) is inserted between chunks to
/// exercise followers against slow producers.
fn spill_segment(dir: &Path, set: &MeasurementSet, delay: Duration) -> Result<(), ServiceError> {
    let path = dir.join(nni_measure::segment_file_name(&set.provenance));
    let mut w = SegmentWriter::create(&path, set).map_err(segment_err)?;
    let total = set.log.interval_count();
    let mut from = 0;
    while from < total {
        let to = (from + FOLLOW_CHUNK_INTERVALS).min(total);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        w.append_intervals(&set.log, from, to)
            .map_err(segment_err)?;
        from = to;
    }
    Ok(())
}

fn segment_err(e: nni_measure::SegmentError) -> ServiceError {
    match e {
        nni_measure::SegmentError::Io(e) => ServiceError::Io(e),
        other => ServiceError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            other.to_string(),
        )),
    }
}
