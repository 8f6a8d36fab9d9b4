//! [`ProcessExecutor`]: fan experiment runs across worker *subprocesses*.
//!
//! Each worker is an `nni-worker` binary speaking the frame protocol of
//! [`crate::proto`] over stdin/stdout: the parent sends serialized
//! [`Scenario`]s, the worker emulates and ships the [`SimReport`] back, and
//! the parent re-derives outcomes and measurement sets exactly as the
//! in-process executors do ([`Experiment::outcome_from`] /
//! [`Experiment::package`]). Reports land in per-index slots, so results
//! are deterministic and input-ordered — the bit-identity contract of
//! [`SerialExecutor`](crate::SerialExecutor) and
//! [`ShardedExecutor`](crate::ShardedExecutor) generalizes unchanged to a
//! three-way serial/sharded/process gate.
//!
//! # Failure semantics
//!
//! Every result is read through a dedicated reader thread, so the parent
//! waits with a *wall-clock job timeout* ([`DEFAULT_JOB_TIMEOUT_MS`],
//! [`ProcessExecutor::with_job_timeout`]): a worker that hangs is killed
//! and counted ([`ProcessStats::timeouts`]), not waited on forever. Each
//! retriable failure is typed ([`WorkerFailure`]) so a clean
//! exit-under-a-job, a hang, a torn frame, and a checksum-corrupt frame
//! are distinguishable in errors and logs. A worker that dies mid-job is
//! killed, respawned (with exponential backoff per consecutive death, so a
//! crash loop cannot spin the host) and the job requeued with a bounded
//! attempt budget. A job that exhausts its budget is **quarantined** into
//! the typed partial [`BatchOutcome`] of [`ProcessExecutor::try_batch`] —
//! the rest of the batch completes; only the strict all-or-nothing entry
//! points ([`try_reports`](ProcessExecutor::try_reports) and the
//! [`Executor`] impl) convert a quarantine into
//! [`ProcessError::JobFailed`]. Bytes that arrive, checksum correctly, but
//! fail to *decode* are never retried — rerunning cannot fix a wrong
//! stream, so the batch fails with the typed [`ProcessError::Codec`]. A
//! checksum mismatch, by contrast, is transport corruption and retriable
//! ([`WorkerFailure::CorruptFrame`]).

use std::collections::VecDeque;
use std::ffi::OsString;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nni_emu::SimReport;
use nni_measure::codec::CodecError;
use nni_measure::wire::FrameError;
use nni_measure::MeasurementSet;

use crate::executor::Executor;
use crate::experiment::{Experiment, ExperimentOutcome};
use crate::proto::{read_result, write_job};
use crate::spec::Scenario;

/// Environment variable overriding the worker binary path (how tests and
/// the daemon point an executor at a specific build).
pub const WORKER_BIN_ENV: &str = "NNI_WORKER_BIN";

/// Default number of times one job may be attempted before it is
/// quarantined.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Default per-job wall-clock timeout in milliseconds (five minutes —
/// generous next to any emulation in the suite, tight next to forever).
pub const DEFAULT_JOB_TIMEOUT_MS: u64 = 300_000;

/// Default base delay before respawning after a worker death; doubles per
/// consecutive death up to [`DEFAULT_BACKOFF_CAP_MS`].
pub const DEFAULT_BACKOFF_BASE_MS: u64 = 10;

/// Default ceiling of the respawn backoff.
pub const DEFAULT_BACKOFF_CAP_MS: u64 = 1_000;

/// How long the pool waits for a spawned TCP-mode worker to connect back
/// (or for a dial-out connection to a remote worker to establish) before
/// calling the spawn failed.
pub const DEFAULT_CONNECT_TIMEOUT_MS: u64 = 10_000;

/// How the pool reaches its workers. The `NNIWJOB`/`NNIWRES` frame
/// protocol — and every crash/hang/timeout semantic built on it — is
/// byte-identical on all three transports; only the plumbing differs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WorkerTransport {
    /// Frames over the spawned child's stdin/stdout pipes (the default).
    #[default]
    Stdio,
    /// Connect-back TCP over loopback: the pool binds an ephemeral
    /// `127.0.0.1` port per worker, spawns `nni-worker --connect <addr>`,
    /// and accepts exactly that worker's connection. Killing the child
    /// closes its socket, so hang/crash detection carries over unchanged.
    Tcp,
    /// Dial out to already-running `nni-worker --listen` processes —
    /// possibly on other machines. The pool cannot kill a remote worker:
    /// on a hang it drops the connection (the worker's serve loop sees
    /// EOF) and redials. Per-spawn environment (`with_env`) does not
    /// apply; a remote worker's fault plan rides its own environment.
    Remote(Vec<SocketAddr>),
}

/// Where the worker binary lives when no override is given: next to the
/// current executable (stepping out of cargo's `deps/` directory when the
/// caller is a test binary).
pub fn default_worker_bin() -> PathBuf {
    if let Some(p) = std::env::var_os(WORKER_BIN_ENV) {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().unwrap_or_default();
    let mut dir = exe.parent().unwrap_or_else(|| Path::new(".")).to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    dir.join(format!("nni-worker{}", std::env::consts::EXE_SUFFIX))
}

/// The last-seen state of a worker when a retriable job attempt failed —
/// the typed payload of [`ProcessError::JobFailed`] and
/// [`Quarantined::last`], distinguishing failure modes that demand
/// different operator responses (a clean EOF is a worker bug or poison
/// job; a hang is an environment problem; torn/corrupt frames point at
/// the transport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFailure {
    /// The worker exited cleanly (EOF between frames) with the job still
    /// outstanding — a deliberate abort or a worker bug, not a transport
    /// failure.
    CleanEof,
    /// No result arrived within the job timeout; the worker was killed.
    Hang {
        /// The timeout that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// The stream died mid-frame (EOF inside a frame): a crash while
    /// writing the answer.
    TornFrame,
    /// The result frame arrived but its FNV trailer did not match:
    /// transport corruption, retriable on a fresh worker.
    CorruptFrame,
    /// A pipe-level I/O failure (write or read side).
    Io(String),
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerFailure::CleanEof => {
                write!(f, "worker exited cleanly with the job outstanding")
            }
            WorkerFailure::Hang { timeout_ms } => {
                write!(f, "no result within {timeout_ms} ms (worker killed)")
            }
            WorkerFailure::TornFrame => write!(f, "worker died mid-frame"),
            WorkerFailure::CorruptFrame => write!(f, "result frame failed its checksum"),
            WorkerFailure::Io(e) => write!(f, "worker pipe failed: {e}"),
        }
    }
}

/// Why a process-pool batch failed outright (partial completion is not a
/// failure — see [`BatchOutcome`]).
#[derive(Debug)]
pub enum ProcessError {
    /// The worker binary could not be spawned at all.
    Spawn {
        /// The binary the pool tried to run.
        bin: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// One job exhausted its attempt budget (strict entry points only;
    /// [`ProcessExecutor::try_batch`] quarantines instead).
    JobFailed {
        /// Input index of the job.
        job: usize,
        /// Attempts consumed.
        attempts: u32,
        /// The worker's last-seen state.
        last: WorkerFailure,
    },
    /// A worker's bytes arrived and checksummed but did not decode — not
    /// retriable.
    Codec {
        /// Input index of the job.
        job: usize,
        /// The decode failure.
        error: CodecError,
    },
    /// A worker answered with the wrong job id — a protocol violation.
    Mismatch {
        /// The job the parent sent.
        job: usize,
        /// The id the worker answered with.
        got: u64,
    },
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::Spawn { bin, error } => {
                write!(f, "failed to spawn worker {}: {error}", bin.display())
            }
            ProcessError::JobFailed {
                job,
                attempts,
                last,
            } => write!(f, "job {job} failed after {attempts} attempts: {last}"),
            ProcessError::Codec { job, error } => {
                write!(f, "job {job}: worker result failed to decode: {error}")
            }
            ProcessError::Mismatch { job, got } => {
                write!(f, "job {job}: worker answered for job {got}")
            }
        }
    }
}

impl std::error::Error for ProcessError {}

/// What a batch cost beyond the results: how often workers died, hung,
/// and jobs were retried or quarantined — the observability hook the
/// crash-injection and chaos tests assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Worker processes respawned after a death (crash, hang kill, torn
    /// stream).
    pub respawns: usize,
    /// Jobs requeued for another attempt.
    pub retries: usize,
    /// Hung workers killed on job timeout (a subset of `respawns`).
    pub timeouts: usize,
    /// Jobs that exhausted their attempt budget and were quarantined.
    pub quarantined: usize,
}

/// One job that exhausted its attempt budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Input index of the job.
    pub job: usize,
    /// Attempts consumed.
    pub attempts: u32,
    /// The worker's last-seen state on the final attempt.
    pub last: WorkerFailure,
}

/// The typed partial result of [`ProcessExecutor::try_batch`]: every job
/// either has its report (in its input slot) or an entry in
/// [`quarantined`](Self::quarantined) — never both, never neither, no
/// duplicates.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// Per-input-index reports; `None` exactly for quarantined jobs.
    pub reports: Vec<Option<SimReport>>,
    /// Jobs that exhausted their budget, sorted by input index.
    pub quarantined: Vec<Quarantined>,
    /// Crash/retry/timeout accounting for the batch.
    pub stats: ProcessStats,
}

impl BatchOutcome {
    /// Strict view: all reports in input order, or the first quarantine as
    /// a [`ProcessError::JobFailed`].
    pub fn into_reports(self) -> Result<(Vec<SimReport>, ProcessStats), ProcessError> {
        if let Some(q) = self.quarantined.into_iter().next() {
            return Err(ProcessError::JobFailed {
                job: q.job,
                attempts: q.attempts,
                last: q.last,
            });
        }
        let reports = self
            .reports
            .into_iter()
            .map(|r| r.expect("no quarantines, so every slot is filled"))
            .collect();
        Ok((reports, self.stats))
    }
}

/// Fans experiment batches across `nni-worker` subprocesses.
#[derive(Debug, Clone)]
pub struct ProcessExecutor {
    workers: usize,
    worker_bin: PathBuf,
    max_attempts: u32,
    job_timeout: Duration,
    backoff_base: Duration,
    backoff_cap: Duration,
    envs: Vec<(OsString, OsString)>,
    transport: WorkerTransport,
}

impl ProcessExecutor {
    /// A pool of `workers` subprocesses (at least one) running the
    /// [`default_worker_bin`].
    pub fn new(workers: usize) -> ProcessExecutor {
        ProcessExecutor {
            workers: workers.max(1),
            worker_bin: default_worker_bin(),
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            job_timeout: Duration::from_millis(DEFAULT_JOB_TIMEOUT_MS),
            backoff_base: Duration::from_millis(DEFAULT_BACKOFF_BASE_MS),
            backoff_cap: Duration::from_millis(DEFAULT_BACKOFF_CAP_MS),
            envs: Vec::new(),
            transport: WorkerTransport::default(),
        }
    }

    /// Same pool, explicit worker transport (stdio pipes, connect-back
    /// TCP, or dial-out to remote `--listen` workers).
    pub fn with_transport(mut self, transport: WorkerTransport) -> ProcessExecutor {
        if let WorkerTransport::Remote(addrs) = &transport {
            // One connection per pool thread: cap the pool at the number
            // of addresses only if none were given (a misconfiguration
            // that would otherwise spin on an empty modulus).
            assert!(!addrs.is_empty(), "remote transport needs addresses");
        }
        self.transport = transport;
        self
    }

    /// The configured transport.
    pub fn transport(&self) -> &WorkerTransport {
        &self.transport
    }

    /// Same pool, explicit worker binary.
    pub fn with_worker_bin(mut self, bin: impl Into<PathBuf>) -> ProcessExecutor {
        self.worker_bin = bin.into();
        self
    }

    /// Same pool, explicit per-job attempt budget (at least one).
    pub fn with_max_attempts(mut self, attempts: u32) -> ProcessExecutor {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Same pool, explicit per-job wall-clock timeout (floored at one
    /// millisecond).
    pub fn with_job_timeout(mut self, timeout: Duration) -> ProcessExecutor {
        self.job_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Same pool, explicit respawn backoff (base delay, doubling per
    /// consecutive death up to `cap`).
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> ProcessExecutor {
        self.backoff_base = base;
        self.backoff_cap = cap.max(base);
        self
    }

    /// Same pool, one extra environment variable set on every spawned
    /// worker — how tests ship a `FaultPlan` to workers without touching
    /// the parent's (process-global) environment.
    pub fn with_env(
        mut self,
        key: impl Into<OsString>,
        value: impl Into<OsString>,
    ) -> ProcessExecutor {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker binary the pool spawns.
    pub fn worker_bin(&self) -> &Path {
        &self.worker_bin
    }

    /// Runs every scenario on the pool, quarantining jobs that exhaust
    /// their attempt budget instead of failing the batch — the primitive
    /// the daemon builds on. Errors only on failures retrying cannot
    /// help: spawn, decode, protocol violation.
    pub fn try_batch(&self, scenarios: &[&Scenario]) -> Result<BatchOutcome, ProcessError> {
        let n = scenarios.len();
        if n == 0 {
            return Ok(BatchOutcome::default());
        }
        let workers = self.workers.min(n);
        let queue: Mutex<VecDeque<(usize, u32)>> = Mutex::new((0..n).map(|i| (i, 1)).collect());
        let slots: Vec<Mutex<Option<SimReport>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let quarantined: Mutex<Vec<Quarantined>> = Mutex::new(Vec::new());
        let failure: Mutex<Option<ProcessError>> = Mutex::new(None);
        let respawns = AtomicUsize::new(0);
        let retries = AtomicUsize::new(0);
        let timeouts = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for widx in 0..workers {
                let (failure, queue, slots, quarantined) = (&failure, &queue, &slots, &quarantined);
                let (respawns, retries, timeouts) = (&respawns, &retries, &timeouts);
                scope.spawn(move || {
                    let mut worker: Option<Worker> = None;
                    // Consecutive deaths seen by this thread; drives the
                    // respawn backoff and resets on a completed job.
                    let mut deaths: u32 = 0;
                    loop {
                        if failure.lock().expect("unpoisoned").is_some() {
                            break;
                        }
                        let Some((job, attempt)) = queue.lock().expect("unpoisoned").pop_front()
                        else {
                            break;
                        };
                        if worker.is_none() {
                            if deaths > 0 {
                                std::thread::sleep(backoff_delay(
                                    self.backoff_base,
                                    self.backoff_cap,
                                    deaths,
                                ));
                            }
                            match Worker::spawn_for(self, widx) {
                                Ok(w) => worker = Some(w),
                                Err(error) => {
                                    fail(
                                        failure,
                                        ProcessError::Spawn {
                                            bin: self.worker_bin.clone(),
                                            error,
                                        },
                                    );
                                    break;
                                }
                            }
                        }
                        let w = worker.as_mut().expect("just spawned");
                        match w.run_job(job, scenarios[job], self.job_timeout) {
                            JobResult::Done(report) => {
                                *slots[job].lock().expect("unpoisoned") = Some(report);
                                deaths = 0;
                            }
                            JobResult::WorkerDied(last) => {
                                // The process is gone (or its stream is, or
                                // it hung past the timeout): reap it, count
                                // the respawn, and requeue the job unless
                                // its budget is spent — then quarantine it
                                // and keep going.
                                worker.take().expect("had a worker").reap();
                                respawns.fetch_add(1, Ordering::Relaxed);
                                deaths += 1;
                                if matches!(last, WorkerFailure::Hang { .. }) {
                                    timeouts.fetch_add(1, Ordering::Relaxed);
                                }
                                if attempt >= self.max_attempts {
                                    quarantined.lock().expect("unpoisoned").push(Quarantined {
                                        job,
                                        attempts: attempt,
                                        last,
                                    });
                                } else {
                                    retries.fetch_add(1, Ordering::Relaxed);
                                    queue
                                        .lock()
                                        .expect("unpoisoned")
                                        .push_back((job, attempt + 1));
                                }
                            }
                            JobResult::Fatal(error) => {
                                fail(failure, error);
                                break;
                            }
                        }
                    }
                    if let Some(w) = worker {
                        w.shutdown();
                    }
                });
            }
        });

        if let Some(error) = failure.into_inner().expect("unpoisoned") {
            return Err(error);
        }
        let mut quarantined = quarantined.into_inner().expect("unpoisoned");
        quarantined.sort_by_key(|q| q.job);
        let reports: Vec<Option<SimReport>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("unpoisoned slot"))
            .collect();
        let stats = ProcessStats {
            respawns: respawns.into_inner(),
            retries: retries.into_inner(),
            timeouts: timeouts.into_inner(),
            quarantined: quarantined.len(),
        };
        debug_assert!(reports
            .iter()
            .enumerate()
            .all(|(i, r)| r.is_some() != quarantined.iter().any(|q| q.job == i)));
        Ok(BatchOutcome {
            reports,
            quarantined,
            stats,
        })
    }

    /// Runs every scenario on the pool, returning reports in input order
    /// plus the crash/retry statistics. Strict: the first quarantined job
    /// fails the whole batch with [`ProcessError::JobFailed`].
    pub fn try_reports(
        &self,
        scenarios: &[&Scenario],
    ) -> Result<(Vec<SimReport>, ProcessStats), ProcessError> {
        self.try_batch(scenarios)?.into_reports()
    }

    /// [`Executor::execute`] with the error surfaced instead of panicking,
    /// plus the batch statistics.
    pub fn try_execute(
        &self,
        experiments: &[Experiment],
    ) -> Result<(Vec<ExperimentOutcome>, ProcessStats), ProcessError> {
        let scenarios: Vec<&Scenario> = experiments.iter().map(Experiment::scenario).collect();
        let (reports, stats) = self.try_reports(&scenarios)?;
        let outcomes = experiments
            .iter()
            .zip(reports)
            .map(|(exp, report)| exp.outcome_from(report))
            .collect();
        Ok((outcomes, stats))
    }

    /// [`Executor::acquire`] with the error surfaced instead of panicking,
    /// plus the batch statistics.
    pub fn try_acquire(
        &self,
        experiments: &[Experiment],
    ) -> Result<(Vec<MeasurementSet>, ProcessStats), ProcessError> {
        let scenarios: Vec<&Scenario> = experiments.iter().map(Experiment::scenario).collect();
        let (reports, stats) = self.try_reports(&scenarios)?;
        let sets = experiments
            .iter()
            .zip(reports)
            .map(|(exp, report)| exp.package(report.log))
            .collect();
        Ok((sets, stats))
    }
}

impl Executor for ProcessExecutor {
    fn execute(&self, experiments: &[Experiment]) -> Vec<ExperimentOutcome> {
        self.try_execute(experiments)
            .unwrap_or_else(|e| panic!("process executor batch failed: {e}"))
            .0
    }

    fn acquire(&self, experiments: &[Experiment]) -> Vec<MeasurementSet> {
        self.try_acquire(experiments)
            .unwrap_or_else(|e| panic!("process executor batch failed: {e}"))
            .0
    }

    fn describe(&self) -> String {
        match &self.transport {
            WorkerTransport::Stdio => format!("process({})", self.workers),
            WorkerTransport::Tcp => format!("process_tcp({})", self.workers),
            WorkerTransport::Remote(addrs) => {
                format!("process_remote({}x{})", self.workers, addrs.len())
            }
        }
    }
}

fn fail(failure: &Mutex<Option<ProcessError>>, error: ProcessError) {
    let mut slot = failure.lock().expect("unpoisoned");
    if slot.is_none() {
        *slot = Some(error);
    }
}

/// Exponential backoff: `base << (deaths - 1)` clamped to `cap`.
fn backoff_delay(base: Duration, cap: Duration, deaths: u32) -> Duration {
    let shift = deaths.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << shift).min(cap)
}

/// How one job round trip ended.
enum JobResult {
    /// The worker answered.
    Done(SimReport),
    /// The worker (or its stream) died before answering — retriable, with
    /// its last-seen state for the attempt-budget error.
    WorkerDied(WorkerFailure),
    /// A non-retriable protocol failure.
    Fatal(ProcessError),
}

/// The job-write half of a worker connection: a child's stdin pipe or the
/// write side of a TCP stream.
enum WorkerIo {
    Stdio(ChildStdin),
    Tcp(TcpStream),
}

impl Write for WorkerIo {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WorkerIo::Stdio(s) => s.write(buf),
            WorkerIo::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            WorkerIo::Stdio(s) => s.flush(),
            WorkerIo::Tcp(s) => s.flush(),
        }
    }
}

impl WorkerIo {
    /// Signals end-of-jobs to the worker. Dropping a `ChildStdin` closes
    /// the pipe, but dropping a cloned `TcpStream` handle does not close
    /// the socket — the read half still holds it — so TCP needs an
    /// explicit write-side shutdown.
    fn close(self) {
        match self {
            WorkerIo::Stdio(stdin) => drop(stdin),
            WorkerIo::Tcp(stream) => {
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
    }

    /// Tears the whole connection down (post-crash/hang cleanup): for a
    /// remote worker this is the only kill the pool has.
    fn sever(self) {
        match self {
            WorkerIo::Stdio(stdin) => drop(stdin),
            WorkerIo::Tcp(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// One live worker: a spawned subprocess (stdio or connect-back TCP) or a
/// dialed-out connection to a remote `--listen` worker (no child to
/// manage). Results are pulled by a dedicated reader thread and handed
/// over a channel, so the parent can bound its wait (`recv_timeout`) and
/// kill a hung worker instead of blocking forever.
struct Worker {
    child: Option<Child>,
    io: WorkerIo,
    results: Receiver<ResultMsg>,
    reader: std::thread::JoinHandle<()>,
}

impl Worker {
    /// Spawns (or dials) one worker per the executor's transport. `widx`
    /// picks the remote address round-robin in `Remote` mode.
    fn spawn_for(exec: &ProcessExecutor, widx: usize) -> Result<Worker, std::io::Error> {
        match &exec.transport {
            WorkerTransport::Stdio => Worker::spawn_stdio(&exec.worker_bin, &exec.envs),
            WorkerTransport::Tcp => Worker::spawn_tcp(&exec.worker_bin, &exec.envs),
            WorkerTransport::Remote(addrs) => Worker::dial(addrs[widx % addrs.len()]),
        }
    }

    fn spawn_stdio(bin: &Path, envs: &[(OsString, OsString)]) -> Result<Worker, std::io::Error> {
        let mut cmd = Command::new(bin);
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        for (key, value) in envs {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (results, reader) = spawn_reader(stdout);
        Ok(Worker {
            child: Some(child),
            io: WorkerIo::Stdio(stdin),
            results,
            reader,
        })
    }

    /// Connect-back TCP: bind an ephemeral loopback port, hand it to the
    /// worker via `--connect`, and accept with a deadline so a worker
    /// that dies before connecting cannot wedge the pool.
    fn spawn_tcp(bin: &Path, envs: &[(OsString, OsString)]) -> Result<Worker, std::io::Error> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let mut cmd = Command::new(bin);
        cmd.arg("--connect")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        for (key, value) in envs {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn()?;
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + Duration::from_millis(DEFAULT_CONNECT_TIMEOUT_MS);
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(std::io::Error::other(format!(
                            "worker exited ({status}) before connecting back"
                        )));
                    }
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(std::io::Error::other(
                            "worker did not connect back within the connect timeout",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(e);
                }
            }
        };
        stream.set_nonblocking(false)?;
        let _ = stream.set_nodelay(true);
        let write = stream.try_clone()?;
        let (results, reader) = spawn_reader(stream);
        Ok(Worker {
            child: Some(child),
            io: WorkerIo::Tcp(write),
            results,
            reader,
        })
    }

    /// Dial-out to a remote `--listen` worker.
    fn dial(addr: SocketAddr) -> Result<Worker, std::io::Error> {
        let timeout = Duration::from_millis(DEFAULT_CONNECT_TIMEOUT_MS);
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        let _ = stream.set_nodelay(true);
        let write = stream.try_clone()?;
        let (results, reader) = spawn_reader(stream);
        Ok(Worker {
            child: None,
            io: WorkerIo::Tcp(write),
            results,
            reader,
        })
    }

    fn run_job(&mut self, job: usize, scenario: &Scenario, timeout: Duration) -> JobResult {
        if let Err(e) = write_job(&mut self.io, job as u64, scenario) {
            // A write failure (EPIPE) means the worker is gone.
            return JobResult::WorkerDied(WorkerFailure::Io(format!("job write failed: {e}")));
        }
        match self.results.recv_timeout(timeout) {
            Ok(Ok(Some((id, report)))) if id == job as u64 => JobResult::Done(report),
            Ok(Ok(Some((id, _)))) => JobResult::Fatal(ProcessError::Mismatch { job, got: id }),
            // EOF between frames: the worker exited under the job.
            Ok(Ok(None)) => JobResult::WorkerDied(WorkerFailure::CleanEof),
            // A stream dying mid-frame is a crash while answering.
            Err(RecvTimeoutError::Timeout) => JobResult::WorkerDied(WorkerFailure::Hang {
                timeout_ms: timeout.as_millis() as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => {
                JobResult::WorkerDied(WorkerFailure::Io("reader thread ended".into()))
            }
            Ok(Err(FrameError::Codec(CodecError::UnexpectedEof))) => {
                JobResult::WorkerDied(WorkerFailure::TornFrame)
            }
            // Checksum mismatch is transport corruption: retriable on a
            // fresh worker. Any other decode failure means the bytes are
            // simply wrong and retrying cannot help.
            Ok(Err(FrameError::Codec(CodecError::ChecksumMismatch))) => {
                JobResult::WorkerDied(WorkerFailure::CorruptFrame)
            }
            Ok(Err(FrameError::Io(e))) => {
                JobResult::WorkerDied(WorkerFailure::Io(format!("result read failed: {e}")))
            }
            Ok(Err(FrameError::Codec(error))) => {
                JobResult::Fatal(ProcessError::Codec { job, error })
            }
        }
    }

    /// Orderly shutdown: signal end-of-jobs (close stdin / shut down the
    /// socket's write side — the worker reads EOF and exits or moves to
    /// its next connection), reap any child, and join the reader.
    fn shutdown(self) {
        let Worker {
            child,
            io,
            results,
            reader,
        } = self;
        io.close();
        if let Some(mut child) = child {
            let _ = child.wait();
        }
        drop(results);
        let _ = reader.join();
    }

    /// Post-crash (or post-hang) cleanup: make sure the process is gone
    /// (for a remote worker, that the connection is), reap any child, and
    /// join the reader (the kill or socket shutdown closes the stream, so
    /// the reader's blocking read returns).
    fn reap(self) {
        let Worker {
            child,
            io,
            results,
            reader,
        } = self;
        io.sever();
        if let Some(mut child) = child {
            let _ = child.kill();
            let _ = child.wait();
        }
        drop(results);
        let _ = reader.join();
    }
}

/// What the reader thread delivers per result frame: `Some((job id,
/// report))`, `None` on a clean end-of-stream, or the frame error.
type ResultMsg = Result<Option<(u64, SimReport)>, FrameError>;

/// Starts the dedicated result-reader thread over a worker's byte stream,
/// returning the channel the parent waits on and the thread's handle.
fn spawn_reader(
    mut input: impl std::io::Read + Send + 'static,
) -> (Receiver<ResultMsg>, std::thread::JoinHandle<()>) {
    let (tx, results) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || loop {
        let msg = read_result(&mut input);
        // Anything but a result ends the stream; forward it and stop.
        let stop = !matches!(msg, Ok(Some(_)));
        if tx.send(msg).is_err() || stop {
            break;
        }
    });
    (results, reader)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_names_the_strategy_and_floors_workers() {
        assert_eq!(ProcessExecutor::new(3).describe(), "process(3)");
        assert_eq!(ProcessExecutor::new(0).workers(), 1);
    }

    #[test]
    fn builders_override_bin_attempts_and_timeout() {
        let exec = ProcessExecutor::new(2)
            .with_worker_bin("/tmp/custom-worker")
            .with_max_attempts(0)
            .with_job_timeout(Duration::ZERO);
        assert_eq!(exec.worker_bin(), Path::new("/tmp/custom-worker"));
        assert_eq!(exec.max_attempts, 1, "attempt budget floors at one");
        assert_eq!(
            exec.job_timeout,
            Duration::from_millis(1),
            "timeout floors at one millisecond"
        );
    }

    #[test]
    fn empty_batches_spawn_nothing() {
        // A missing binary only matters once there is work.
        let exec = ProcessExecutor::new(2).with_worker_bin("/nonexistent/nni-worker");
        let (reports, stats) = exec.try_reports(&[]).expect("empty batch");
        assert!(reports.is_empty());
        assert_eq!(stats, ProcessStats::default());
        assert!(exec.execute(&[]).is_empty());
        let batch = exec.try_batch(&[]).expect("empty batch");
        assert!(batch.quarantined.is_empty());
    }

    #[test]
    fn missing_worker_binary_is_a_spawn_error() {
        let scenario = crate::library::topology_a_scenario(crate::library::ExperimentParams {
            duration_s: 2.0,
            ..crate::library::ExperimentParams::default()
        });
        let exec = ProcessExecutor::new(1).with_worker_bin("/nonexistent/nni-worker");
        let err = exec.try_reports(&[&scenario]).unwrap_err();
        assert!(matches!(err, ProcessError::Spawn { .. }), "got {err}");
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(10));
        assert_eq!(backoff_delay(base, cap, 2), Duration::from_millis(20));
        assert_eq!(backoff_delay(base, cap, 3), Duration::from_millis(40));
        assert_eq!(backoff_delay(base, cap, 5), cap, "clamped");
        assert_eq!(backoff_delay(base, cap, 60), cap, "shift saturates");
    }

    #[test]
    fn batch_outcome_strict_view_surfaces_the_first_quarantine() {
        let outcome = BatchOutcome {
            reports: vec![None],
            quarantined: vec![Quarantined {
                job: 0,
                attempts: 3,
                last: WorkerFailure::CleanEof,
            }],
            stats: ProcessStats::default(),
        };
        match outcome.into_reports() {
            Err(ProcessError::JobFailed {
                job: 0,
                attempts: 3,
                last: WorkerFailure::CleanEof,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
