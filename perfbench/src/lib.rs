//! The repository benchmark: closed-loop workloads, one client each,
//! that together put every layer of the pipeline where it dominates and
//! where it is absent (see `README.md` for why each workload exists and
//! which metrics a change to each layer should move).
//!
//! A run sets its workload up several times (reporting the median as
//! `setup_s`), then measures ops for a fixed wall-clock budget in whole
//! passes over the workload's inputs. Every op's output is checked outside
//! the timed region: against fingerprints pinned in `pins/` for
//! [`PIN_SEED`], and against the repository's own identities on every seed.
//!
//! End-to-end metrics are always taken with tracing off. A traced run
//! (`--trace 1`) instead splits each op into timed calls to the layers'
//! public functions, made from this crate — nothing inside the measured
//! crates is instrumented — and reports per-layer medians and counts.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use nni_emu::SimReport;
use nni_measure::interval_eval_count;
use nni_scenario::{simulation_count, Experiment};

pub mod live;
pub mod pins;
pub mod pool;
pub mod reinfer;
pub mod table2;

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 3] = ["table2_sweep", "isp_reinfer", "isp_live"];

/// Workloads that run by name and in the self-tests but are left out of
/// `BENCHMARK.json`: on a two-core virtual machine their run-to-run spread
/// exceeds the largest regression bound the benchmark may set.
pub const UNLISTED: [&str; 1] = ["pool_small_batches"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
///
/// The median op latency is not among them: on a two-core virtual machine
/// whose speed alternates between two modes, ops fall into two latency
/// clusters and the median jumps between them from run to run (see
/// `README.md`). `trace.overhead` still compares medians within one run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p90", "ms"),
    ("ops_ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. Times
/// are medians per call, counts are means per op (`emu.*` counts: per
/// emulate call). A layer that a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("scenario.compile_ms", "ms"),
    ("emu.emulate_ms", "ms"),
    ("emu.segments_per_s", "1/s"),
    ("emu.segments_sent", "count"),
    ("emu.segments_dropped", "count"),
    ("scenario.simulations", "count"),
    ("measure.codec.decode_ms", "ms"),
    ("measure.codec.bytes", "bytes"),
    ("measure.codec.encode_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("measure.alg2_ms", "ms"),
    ("measure.alg2_evals", "count"),
    ("core.decide_ms", "ms"),
    ("scenario.stream.advance_ms", "ms"),
    ("scenario.stream.verdict_ms", "ms"),
    ("scenario.outcome_ms", "ms"),
    ("scenario.process.batch_ms", "ms"),
    ("scenario.process.overhead_ms", "ms"),
    ("scenario.process.respawns", "count"),
    ("scenario.process.retries", "count"),
    ("scenario.process.quarantined", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("ops_failed_ratio", "ratio"),
];

/// The seed whose per-op outputs are pinned in `pins/`.
pub const PIN_SEED: u64 = 1;

/// An untraced run keeps measuring past its time budget until it has this
/// many ops, so that at least ten samples lie beyond `op_ms.p90`.
pub const MIN_OPS: usize = 100;

/// Input size: `Full` is what the benchmark measures; `Tiny` is the
/// smallest instance of each workload, which the self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What one op's output is checked against: a fingerprint and an auxiliary
/// count (`segments_sent` for emulated members, 0 otherwise).
pub type Check = (u64, u64);

/// Expected checks per input index.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Pinned values; an op whose output differs has failed.
    Pinned(Vec<Check>),
    /// Learned from the first op on each input; later ops must repeat it.
    Learned(Vec<Option<Check>>),
}

impl Expected {
    /// The pins for `workload` when `seed` is the pinned seed at full size;
    /// otherwise learn from the run.
    pub fn for_run(workload: &str, seed: u64, size: Size) -> Expected {
        match pins::for_workload(workload) {
            Some(pinned) if seed == PIN_SEED && size == Size::Full => Expected::Pinned(pinned),
            _ => Expected::Learned(Vec::new()),
        }
    }

    fn check(&mut self, key: usize, got: Check) -> bool {
        match self {
            Expected::Pinned(pins) => pins.get(key) == Some(&got),
            Expected::Learned(seen) => {
                if seen.len() <= key {
                    seen.resize(key + 1, None);
                }
                *seen[key].get_or_insert(got) == got
            }
        }
    }

    /// Every value checked so far, in input order (the pins a run at the
    /// pinned seed should carry).
    pub fn values(&self) -> Vec<Check> {
        match self {
            Expected::Pinned(pins) => pins.clone(),
            Expected::Learned(seen) => seen.iter().map(|c| c.unwrap_or_default()).collect(),
        }
    }
}

/// How a run is driven.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall-clock measurement budget.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// What each op's output is checked against.
    pub expected: Expected,
}

/// Per-layer samples, kept in memory and summarized when the run ends.
#[derive(Debug, Default)]
pub struct Trace {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Total milliseconds inside [`Trace::time`] spans — the numerator of
    /// `trace.coverage` when read around an op.
    busy_ms: f64,
}

impl Trace {
    /// Times one call into a layer, recording its duration under `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.busy_ms += ms;
        self.sample(layer, ms);
        out
    }

    /// Records one value of a count or derived quantity.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The most recent sample of `name`.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.samples.get(name)?.last().copied()
    }

    fn summary(&self, name: &str, unit: &str) -> f64 {
        let Some(values) = self.samples.get(name) else {
            return 0.0;
        };
        if unit == "ms" {
            quantile(values, 0.5)
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// Times `f` under `layer` when tracing; calls it plainly otherwise.
pub fn span<T>(trace: &mut Option<&mut Trace>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.time(layer, f),
        None => f(),
    }
}

/// `Experiment::emulate`, recording its time and segment counters when
/// tracing.
pub fn emulate(exp: &Experiment, trace: &mut Option<&mut Trace>) -> SimReport {
    let report = span(trace, "emu.emulate_ms", || exp.emulate());
    if let Some(t) = trace {
        t.sample("emu.segments_sent", report.segments_sent as f64);
        t.sample("emu.segments_dropped", report.segments_dropped as f64);
    }
    report
}

/// One benchmark workload: set up, then ops cycling over its inputs.
pub trait Workload {
    /// One op's raw output, checked by [`Workload::verify`].
    type Out;

    /// Ops in one pass over the inputs; op indices cycle `0..pass_len`.
    fn pass_len(&self) -> usize;

    /// Untimed work after set-up: references the checks compare against.
    fn prepare(&mut self) {}

    /// Runs op `i`: the plain public call when `trace` is `None`, the same
    /// work split into timed layer calls otherwise.
    fn op(&mut self, i: usize, trace: Option<&mut Trace>) -> Self::Out;

    /// Checks op `i`'s output outside the timed region. Returns the
    /// `(input index, check)` pairs to compare with the expectations, or
    /// why the op failed.
    fn verify(
        &mut self,
        i: usize,
        out: Self::Out,
        trace: Option<&mut Trace>,
    ) -> Result<Vec<(usize, Check)>, String>;
}

/// What a run measured.
#[derive(Debug)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)`: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The checks every input produced (or was pinned to).
    pub expected: Expected,
}

impl Report {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity: a ratio over no samples reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Set-up repeats: at least this many, and more while under the budget.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 0.5;

/// Runs one workload as `settings` says; `setup` builds it from scratch.
pub fn run<W: Workload>(
    settings: Settings,
    mut setup: impl FnMut(Option<&mut Trace>) -> W,
) -> Report {
    let mut trace = Trace::default();
    let mut expected = settings.expected;

    // Set-up: repeated untraced for `setup_s`; once, traced, for the layers.
    let mut setup_s = Vec::new();
    let mut workload = if settings.trace {
        setup(Some(&mut trace))
    } else {
        loop {
            let start = Instant::now();
            let w = setup(None);
            setup_s.push(start.elapsed().as_secs_f64());
            let spent: f64 = setup_s.iter().sum();
            if setup_s.len() >= MAX_SETUPS || setup_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S
            {
                break w;
            }
        }
    };
    workload.prepare();
    // One untimed pass first: caches fill and first-touch allocations are
    // made before timing. Its ops are still checked and counted.
    let warm = measure(&mut workload, &mut expected, None, 0.0, 1);

    let min_ops = if settings.size == Size::Full {
        MIN_OPS
    } else {
        1
    };
    let mut metrics = Vec::new();
    let (attempted, failed);
    if settings.trace {
        let half = settings.seconds / 2.0;
        let plain = measure(&mut workload, &mut expected, None, half, 1);
        let traced = measure(&mut workload, &mut expected, Some(&mut trace), half, 1);
        attempted = warm.attempted + plain.attempted + traced.attempted;
        failed = warm.failed + plain.failed + traced.failed;
        for (name, unit) in PER_LAYER {
            let value = match name {
                "emu.segments_per_s" => {
                    trace.sum("emu.segments_sent") / (trace.sum("emu.emulate_ms") / 1e3)
                }
                "trace.coverage" => traced.busy_ms / traced.op_ms.iter().sum::<f64>(),
                "trace.overhead" => quantile(&traced.op_ms, 0.5) / quantile(&plain.op_ms, 0.5),
                "ops_failed_ratio" => failed as f64 / attempted as f64,
                _ => trace.summary(name, unit),
            };
            metrics.push((name, finite(value), unit));
        }
    } else {
        let plain = measure(
            &mut workload,
            &mut expected,
            None,
            settings.seconds,
            min_ops,
        );
        attempted = warm.attempted + plain.attempted;
        failed = warm.failed + plain.failed;
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => quantile(&setup_s, 0.5),
                "ops_per_s" => plain.attempted as f64 / plain.wall_s,
                "op_ms.p90" => quantile(&plain.op_ms, 0.9),
                "ops_ok_ratio" => (attempted - failed) as f64 / attempted as f64,
                "peak_rss_mb" => peak_rss_mb(),
                _ => unreachable!("every end-to-end metric is computed"),
            };
            metrics.push((name, finite(value), unit));
        }
    }
    Report {
        attempted,
        failed,
        metrics,
        expected,
    }
}

/// One measured phase.
struct Phase {
    attempted: usize,
    failed: usize,
    op_ms: Vec<f64>,
    wall_s: f64,
    /// Milliseconds of traced layer calls made inside ops.
    busy_ms: f64,
}

/// Runs whole passes until `seconds` have elapsed and at least `min_ops`
/// ops were made (or a hard cap, so a slow build still exits in time).
fn measure<W: Workload>(
    w: &mut W,
    expected: &mut Expected,
    mut trace: Option<&mut Trace>,
    seconds: f64,
    min_ops: usize,
) -> Phase {
    let cap_s = 2.0 * seconds + 10.0;
    let mut phase = Phase {
        attempted: 0,
        failed: 0,
        op_ms: Vec::new(),
        wall_s: 0.0,
        busy_ms: 0.0,
    };
    let start = Instant::now();
    loop {
        for i in 0..w.pass_len() {
            let busy = trace.as_ref().map_or(0.0, |t| t.busy_ms);
            let (sims, evals) = (simulation_count(), interval_eval_count());
            let op_start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| w.op(i, trace.as_deref_mut())));
            let ms = op_start.elapsed().as_secs_f64() * 1e3;
            phase.op_ms.push(ms);
            phase.attempted += 1;
            if let Some(t) = trace.as_deref_mut() {
                phase.busy_ms += t.busy_ms - busy;
                t.sample("scenario.simulations", (simulation_count() - sims) as f64);
                t.sample("measure.alg2_evals", (interval_eval_count() - evals) as f64);
            }
            let verdict = match out {
                Ok(out) => {
                    catch_unwind(AssertUnwindSafe(|| w.verify(i, out, trace.as_deref_mut())))
                        .unwrap_or_else(|_| Err("panic while checking".into()))
                }
                Err(_) => Err("panic in op".into()),
            };
            let ok = match verdict {
                Ok(checks) => checks
                    .into_iter()
                    .all(|(key, check)| expected.check(key, check) || note(i, "output mismatch")),
                Err(reason) => note(i, &reason),
            };
            if !ok {
                phase.failed += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= cap_s || elapsed >= seconds && phase.attempted >= min_ops {
            phase.wall_s = elapsed;
            return phase;
        }
    }
}

/// Reports a failed op on stderr; always `false`.
fn note(op: usize, reason: &str) -> bool {
    eprintln!("op {op} failed: {reason}");
    false
}

/// Nearest-rank quantile (0 for no samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs workload `name`, or `None` if there is no such workload.
pub fn run_named(name: &str, settings: Settings) -> Option<Report> {
    let (seed, size) = (settings.seed, settings.size);
    Some(match name {
        "table2_sweep" => run(settings, |t| table2::Table2::setup(seed, size, t)),
        "isp_reinfer" => run(settings, |t| reinfer::Reinfer::setup(seed, size, t)),
        "isp_live" => run(settings, |t| live::Live::setup(seed, size, t)),
        "pool_small_batches" => run(settings, |t| pool::Pool::setup(seed, size, t)),
        _ => return None,
    })
}
