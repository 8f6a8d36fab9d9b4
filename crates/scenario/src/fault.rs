//! [`FaultPlan`]: deterministic, seeded fault injection for the chaos
//! harness.
//!
//! A plan is a set of *rates* (probabilities in `[0, 1]`) for the failure
//! modes the robustness layers must survive — worker hangs, slow answers,
//! aborts before/after the result frame, torn frame writes, bit-flipped
//! checksums, delayed segment spills — plus a seed that makes every draw a
//! pure function of `(seed, fault kind, job token)`. The same plan over the
//! same population injects the same faults on every run and on every
//! *retry*, which is what lets `tests/chaos.rs` predict the exact
//! quarantine set instead of asserting on vague counts.
//!
//! Transport is one environment variable, [`FAULT_PLAN_ENV`]
//! (`NNI_FAULT_PLAN`), holding the [`FaultPlan::to_env`] encoding — the
//! same pattern as `NNI_WORKER_CRASH_ONCE`, generalized. A worker probes
//! the variable once; when it is unset the hooks cost one branch on a
//! cached `None` (zero overhead in production, gated by the `perf` bench
//! trajectory).
//!
//! # Job tokens
//!
//! Draws key on a *job token* — [`job_token`] over the scenario's
//! measurement fingerprint and seed — not on the wire job id. Wire ids are
//! batch-relative (a daemon that parks one job renumbers the next batch),
//! while the token names the work itself: a poisoned scenario is poisoned
//! on every attempt, in every batch, in every process, until a human
//! removes it from the spool.
//!
//! # One-shot transients
//!
//! Poison faults fire on every attempt — that is what makes them poison.
//! Every other fault is *transient*: it should fire once and let the retry
//! succeed, proving the recovery path. With a `state` directory configured,
//! a transient claims a token file (atomic `create_new`) before firing;
//! the second attempt finds the token and runs clean. Without a state
//! directory transients fire on every attempt — useful for forcing an
//! attempt-budget exhaustion in a test.

use std::path::PathBuf;

use nni_measure::Fnv;

/// Environment variable carrying a [`FaultPlan::to_env`] encoding into
/// worker subprocesses (and the daemon's spill path).
pub const FAULT_PLAN_ENV: &str = "NNI_FAULT_PLAN";

/// The fault kinds a plan can inject into the worker protocol. At most one
/// transient fault is drawn per job (cumulative buckets over one roll), so
/// a job's failure mode is as deterministic as its poison status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Abort before answering (the parent sees a clean EOF mid-batch).
    CrashBefore,
    /// Answer correctly, then abort (the *next* job on this worker sees a
    /// broken pipe).
    CrashAfter,
    /// Write half the result frame, then abort (mid-frame EOF).
    TornFrame,
    /// Flip a bit in the result frame's FNV trailer (checksum mismatch).
    BitFlip,
    /// Sleep past the parent's job timeout before answering.
    Hang,
    /// Answer late but within the timeout.
    Slow,
}

/// A seeded description of which faults to inject at what rates.
///
/// All rate fields are probabilities in `[0, 1]`; values outside clamp at
/// draw time. Construct with struct-update syntax over [`FaultPlan::seeded`]
/// and ship through the environment with [`FaultPlan::to_env`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every draw; two plans with different seeds poison
    /// different jobs.
    pub seed: u64,
    /// Rate of [`Fault::CrashBefore`].
    pub crash_before: f64,
    /// Rate of [`Fault::CrashAfter`].
    pub crash_after: f64,
    /// Rate of [`Fault::TornFrame`].
    pub torn: f64,
    /// Rate of [`Fault::BitFlip`].
    pub bitflip: f64,
    /// Rate of [`Fault::Hang`].
    pub hang: f64,
    /// Rate of [`Fault::Slow`].
    pub slow: f64,
    /// Rate of poison jobs: abort before answering on *every* attempt.
    pub poison: f64,
    /// How long a hung worker sleeps (must exceed the parent's job
    /// timeout for the hang to be observed as one).
    pub hang_ms: u64,
    /// How long a slow worker sleeps (must stay inside the job timeout).
    pub slow_ms: u64,
    /// Delay the daemon adds before each segment spill — exercises
    /// followers against slow producers.
    pub spill_delay_ms: u64,
    /// Directory of one-shot claim tokens; `None` means transients fire
    /// on every attempt.
    pub state: Option<PathBuf>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            crash_before: 0.0,
            crash_after: 0.0,
            torn: 0.0,
            bitflip: 0.0,
            hang: 0.0,
            slow: 0.0,
            poison: 0.0,
            hang_ms: 120_000,
            slow_ms: 50,
            spill_delay_ms: 0,
            state: None,
        }
    }
}

/// The token all fault draws key on: a stable name for one unit of work,
/// derived from the scenario's measurement fingerprint and seed (not the
/// batch-relative wire job id).
pub fn job_token(measurement_fingerprint: u64, seed: u64) -> u64 {
    let mut h = Fnv::new();
    h.word(measurement_fingerprint);
    h.word(seed);
    h.0
}

/// A malformed [`FAULT_PLAN_ENV`] value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanParseError {
    /// The offending `key=value` entry.
    pub entry: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault-plan entry {:?}: {}", self.entry, self.reason)
    }
}

impl std::error::Error for FaultPlanParseError {}

impl FaultPlan {
    /// A plan with the given seed and every rate at zero.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether any fault can fire at all — the one branch production pays.
    pub fn active(&self) -> bool {
        self.crash_before > 0.0
            || self.crash_after > 0.0
            || self.torn > 0.0
            || self.bitflip > 0.0
            || self.hang > 0.0
            || self.slow > 0.0
            || self.poison > 0.0
            || self.spill_delay_ms > 0
    }

    /// A uniform draw in `[0, 1)` — a pure function of the plan seed, a
    /// per-kind salt, and the job token.
    fn roll(&self, salt: &str, token: u64) -> f64 {
        let mut h = Fnv::new();
        h.word(self.seed);
        h.bytes(salt.as_bytes());
        h.word(token);
        (h.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether this job is poisoned: it aborts before answering on every
    /// attempt, exhausts its budget, and must be quarantined.
    pub fn poisoned(&self, token: u64) -> bool {
        self.poison > 0.0 && self.roll("poison", token) < self.poison.min(1.0)
    }

    /// The transient fault (if any) drawn for this job. One roll, stacked
    /// buckets — at most one transient per job. Poison is checked
    /// separately and wins.
    pub fn transient(&self, token: u64) -> Option<Fault> {
        let roll = self.roll("transient", token);
        let buckets = [
            (self.crash_before, Fault::CrashBefore),
            (self.crash_after, Fault::CrashAfter),
            (self.torn, Fault::TornFrame),
            (self.bitflip, Fault::BitFlip),
            (self.hang, Fault::Hang),
            (self.slow, Fault::Slow),
        ];
        let mut acc = 0.0;
        for (rate, fault) in buckets {
            acc += rate.clamp(0.0, 1.0);
            if roll < acc {
                return Some(fault);
            }
        }
        None
    }

    /// Claims the one-shot right to fire a transient for this job. With a
    /// `state` directory the claim is an atomic token-file create: the
    /// first attempt fires, retries run clean. Without one, every attempt
    /// fires.
    pub fn claim(&self, token: u64) -> bool {
        let Some(dir) = &self.state else {
            return true;
        };
        let _ = std::fs::create_dir_all(dir);
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(dir.join(format!("claim-{token:016x}")))
            .is_ok()
    }

    /// Encodes the plan as the `key=value …` string [`parse`](Self::parse)
    /// accepts — the [`FAULT_PLAN_ENV`] payload.
    pub fn to_env(&self) -> String {
        let mut s = format!(
            "seed={} crash_before={} crash_after={} torn={} bitflip={} hang={} slow={} \
             poison={} hang_ms={} slow_ms={} spill_delay_ms={}",
            self.seed,
            self.crash_before,
            self.crash_after,
            self.torn,
            self.bitflip,
            self.hang,
            self.slow,
            self.poison,
            self.hang_ms,
            self.slow_ms,
            self.spill_delay_ms,
        );
        if let Some(state) = &self.state {
            s.push_str(" state=");
            s.push_str(&state.display().to_string());
        }
        s
    }

    /// Parses a `key=value …` encoding (whitespace-separated, unknown keys
    /// rejected so typos fail loudly).
    pub fn parse(s: &str) -> Result<FaultPlan, FaultPlanParseError> {
        let err = |entry: &str, reason: &'static str| FaultPlanParseError {
            entry: entry.to_string(),
            reason,
        };
        let mut plan = FaultPlan::default();
        for entry in s.split_whitespace() {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| err(entry, "expected key=value"))?;
            let rate = |plan_field: &mut f64| -> Result<(), FaultPlanParseError> {
                *plan_field = value
                    .parse::<f64>()
                    .map_err(|_| err(entry, "rate is not a number"))?;
                Ok(())
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| err(entry, "bad seed"))?;
                }
                "crash_before" => rate(&mut plan.crash_before)?,
                "crash_after" => rate(&mut plan.crash_after)?,
                "torn" => rate(&mut plan.torn)?,
                "bitflip" => rate(&mut plan.bitflip)?,
                "hang" => rate(&mut plan.hang)?,
                "slow" => rate(&mut plan.slow)?,
                "poison" => rate(&mut plan.poison)?,
                "hang_ms" => {
                    plan.hang_ms = value.parse().map_err(|_| err(entry, "bad duration"))?;
                }
                "slow_ms" => {
                    plan.slow_ms = value.parse().map_err(|_| err(entry, "bad duration"))?;
                }
                "spill_delay_ms" => {
                    plan.spill_delay_ms = value.parse().map_err(|_| err(entry, "bad duration"))?;
                }
                "state" => plan.state = Some(PathBuf::from(value)),
                _ => return Err(err(entry, "unknown key")),
            }
        }
        Ok(plan)
    }

    /// Reads the plan from [`FAULT_PLAN_ENV`]; `None` when unset. A value
    /// that fails to parse panics — the variable is a test-infrastructure
    /// knob and a typo must not silently disable a chaos run.
    pub fn from_env() -> Option<FaultPlan> {
        let raw = std::env::var(FAULT_PLAN_ENV).ok()?;
        match FaultPlan::parse(&raw) {
            Ok(plan) => Some(plan),
            Err(e) => panic!("{FAULT_PLAN_ENV}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan {
            poison: 0.3,
            ..FaultPlan::seeded(42)
        };
        let poisoned: Vec<u64> = (0..100).filter(|&t| a.poisoned(t)).collect();
        assert_eq!(
            poisoned,
            (0..100).filter(|&t| a.poisoned(t)).collect::<Vec<_>>(),
            "same plan, same draws"
        );
        assert!(!poisoned.is_empty() && poisoned.len() < 100, "rate bites");
        let b = FaultPlan {
            poison: 0.3,
            ..FaultPlan::seeded(43)
        };
        assert_ne!(
            poisoned,
            (0..100).filter(|&t| b.poisoned(t)).collect::<Vec<_>>(),
            "different seed, different poison set"
        );
    }

    #[test]
    fn transient_buckets_cover_all_kinds_and_respect_zero() {
        assert_eq!(FaultPlan::seeded(1).transient(7), None, "all-zero plan");
        let plan = FaultPlan {
            crash_before: 0.17,
            crash_after: 0.17,
            torn: 0.17,
            bitflip: 0.17,
            hang: 0.16,
            slow: 0.16,
            ..FaultPlan::seeded(9)
        };
        let mut seen = std::collections::HashSet::new();
        for t in 0..500 {
            if let Some(f) = plan.transient(t) {
                seen.insert(format!("{f:?}"));
            }
        }
        assert_eq!(seen.len(), 6, "every bucket reachable: {seen:?}");
    }

    #[test]
    fn env_encoding_round_trips() {
        let plan = FaultPlan {
            crash_before: 0.125,
            bitflip: 0.5,
            hang_ms: 7_000,
            slow_ms: 3,
            spill_delay_ms: 11,
            state: Some(PathBuf::from("/tmp/claims")),
            ..FaultPlan::seeded(42)
        };
        assert_eq!(FaultPlan::parse(&plan.to_env()), Ok(plan));
        assert!(FaultPlan::parse("poison=0.1 typo=1").is_err());
        assert!(FaultPlan::parse("poison=abc").is_err());
    }

    #[test]
    fn claims_fire_once_with_a_state_dir() {
        let dir = std::env::temp_dir().join(format!("nni-fault-claims-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan {
            state: Some(dir.clone()),
            ..FaultPlan::seeded(1)
        };
        assert!(plan.claim(5), "first attempt fires");
        assert!(!plan.claim(5), "second attempt runs clean");
        assert!(plan.claim(6), "independent per job token");
        let stateless = FaultPlan::seeded(1);
        assert!(stateless.claim(5) && stateless.claim(5), "no dir: always");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inactive_plans_say_so() {
        assert!(!FaultPlan::seeded(3).active());
        assert!(FaultPlan {
            slow: 0.1,
            ..FaultPlan::seeded(3)
        }
        .active());
    }
}
