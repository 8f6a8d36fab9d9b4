//! The one-entry plan memo behind [`infer`](crate::infer()) and
//! [`StreamingInference`](crate::StreamingInference).
//!
//! Algorithm 1's slices are a function of the topology alone (§4.1), so a
//! run of re-inferences over one topology — threshold sweeps, another set
//! recorded on it, a live session's batch check — needs its
//! [`IdentifyPlan`] and the layout of its Algorithm 2 engine only once.
//! The memo holds the last topology's plan and unwindowed engine (its
//! counters and the slices' scores):
//!
//! * **One entry.** A call on another topology drops the held entry before
//!   it builds, so at most one memoized plan is resident.
//! * **An exact key.** `min_pairs`, the link count and every path's link
//!   list: everything [`IdentifyPlan::new`] reads, compared in full, so a
//!   hit can never serve a plan built for a different topology.
//! * **Results independent of history.** A hit re-arms the engine
//!   ([`SlidingCounts::rearm`](nni_measure::SlidingCounts::rearm),
//!   [`SliceScores::rearm`](nni_core::SliceScores::rearm)), which leaves it
//!   exactly as a fresh build.
//!
//! A caller takes the entry out of the slot and puts it back when done; a
//! concurrent caller that finds the slot empty builds its own, and never
//! waits on another thread's fold.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use nni_core::{Config, DecisionMode, IdentifyPlan};
use nni_measure::NormalizeConfig;
use nni_topology::{LinkId, Topology};

use crate::stream::PlanEngine;

/// What [`IdentifyPlan::new`] reads of a topology and config.
#[derive(Debug)]
struct PlanKey {
    min_pairs: usize,
    links: usize,
    /// Every path's links, end to end: path `i`'s are
    /// `path_links[ends[i]..ends[i + 1]]`.
    path_links: Vec<LinkId>,
    ends: Vec<usize>,
}

impl PlanKey {
    fn new(topology: &Topology, min_pairs: usize) -> PlanKey {
        let mut ends = Vec::with_capacity(topology.path_count() + 1);
        ends.push(0);
        let mut path_links = Vec::new();
        for path in topology.paths() {
            path_links.extend_from_slice(path.links());
            ends.push(path_links.len());
        }
        PlanKey {
            min_pairs,
            links: topology.link_count(),
            path_links,
            ends,
        }
    }

    fn matches(&self, topology: &Topology, min_pairs: usize) -> bool {
        self.min_pairs == min_pairs
            && self.links == topology.link_count()
            && self.ends.len() == topology.path_count() + 1
            && topology
                .paths()
                .iter()
                .zip(self.ends.windows(2))
                .all(|(path, run)| path.links() == &self.path_links[run[0]..run[1]])
    }
}

/// A topology's plan and, once a batch caller has needed it, the plan's
/// unwindowed Algorithm 2 engine.
#[derive(Debug)]
pub(crate) struct Entry {
    key: PlanKey,
    plan: Arc<IdentifyPlan>,
    engine: Option<PlanEngine>,
}

impl Entry {
    fn build(topology: &Topology, cfg: &Config) -> Entry {
        Entry {
            key: PlanKey::new(topology, cfg.min_pairs),
            plan: Arc::new(IdentifyPlan::new(topology, cfg)),
            engine: None,
        }
    }

    /// The plan.
    pub(crate) fn plan(&self) -> &Arc<IdentifyPlan> {
        &self.plan
    }

    /// The plan's unwindowed engine, armed for `cfg` and `mode` with
    /// nothing consumed (the engine is built on first use).
    pub(crate) fn engine(&mut self, cfg: NormalizeConfig, mode: DecisionMode) -> &mut PlanEngine {
        let engine = self
            .engine
            .get_or_insert_with(|| PlanEngine::new(&self.plan, cfg, mode, None));
        engine.rearm(cfg, mode);
        engine
    }
}

/// A one-entry slot of plans ([`PLANS`] is the process's).
#[derive(Debug)]
pub(crate) struct PlanMemo(Mutex<Option<Entry>>);

/// The memo [`infer`](crate::infer()) and
/// [`StreamingInference`](crate::StreamingInference) share.
pub(crate) static PLANS: PlanMemo = PlanMemo::new();

impl PlanMemo {
    const fn new() -> PlanMemo {
        PlanMemo(Mutex::new(None))
    }

    /// The slot. It is only ever emptied or filled whole, so a poisoned
    /// lock still guards a valid value.
    fn slot(&self) -> MutexGuard<'_, Option<Entry>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Empties the slot and returns its entry if that was built for
    /// `topology` under `min_pairs`; a stale entry is dropped here.
    fn held(&self, topology: &Topology, min_pairs: usize) -> Option<Entry> {
        let held = self.slot().take();
        held.filter(|entry| entry.key.matches(topology, min_pairs))
    }

    /// The entry for `topology` under `cfg.min_pairs`: the held one on a
    /// key match, otherwise a new one, built after the held one is dropped.
    pub(crate) fn take(&self, topology: &Topology, cfg: &Config) -> Entry {
        self.held(topology, cfg.min_pairs)
            .unwrap_or_else(|| Entry::build(topology, cfg))
    }

    /// Puts `entry` in the slot, replacing (and dropping, outside the lock)
    /// any entry another caller put there meanwhile.
    pub(crate) fn put(&self, entry: Entry) {
        let replaced = self.slot().replace(entry);
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_topology::library::{topology_a, topology_b};

    #[test]
    fn key_is_exactly_what_the_plan_reads() {
        let a = topology_a(0.05, 0.05).topology;
        let b = topology_b().topology;
        let key = PlanKey::new(&a, 1);
        assert!(key.matches(&a, 1));
        assert!(!key.matches(&a, 2), "min_pairs is part of the key");
        assert!(!key.matches(&b, 1));
        assert!(PlanKey::new(&b, 2).matches(&b, 2));
    }

    #[test]
    fn a_hit_reuses_the_plan() {
        let memo = PlanMemo::new();
        let a = topology_a(0.05, 0.05).topology;
        let cfg = Config::clustered();
        let first = memo.take(&a, &cfg);
        let plan = Arc::clone(first.plan());
        memo.put(first);
        let again = memo.take(&a, &cfg);
        assert!(Arc::ptr_eq(&plan, again.plan()), "same topology, same plan");
        memo.put(again);
        let looser = memo.take(
            &a,
            &Config {
                min_pairs: cfg.min_pairs - 1,
                ..cfg
            },
        );
        assert!(!Arc::ptr_eq(&plan, looser.plan()), "min_pairs is keyed");
    }

    #[test]
    fn a_miss_drops_the_held_entry_before_it_builds() {
        let memo = PlanMemo::new();
        let cfg = Config::clustered();
        let a = memo.take(&topology_a(0.05, 0.05).topology, &cfg);
        let stale = Arc::downgrade(a.plan());
        memo.put(a);
        // `take` builds only after `held` has returned: by then the stale
        // plan must be gone and the slot empty.
        assert!(memo.held(&topology_b().topology, cfg.min_pairs).is_none());
        assert!(stale.upgrade().is_none(), "the stale plan is dropped");
        assert!(memo.slot().is_none());
    }
}
