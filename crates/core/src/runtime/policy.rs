//! Pluggable task scheduling policies (§3.2.3).
//!
//! "With a pluggable scheduling policy, the user can schedule each task on
//! a particular executor with an available task slot. By default, the
//! policy schedules tasks in a round-robin manner, while utilizing data
//! locality information as much as possible."
//!
//! A policy picks among candidate executors (alive, right container kind,
//! free slot). The default [`RoundRobinCacheAware`] first looks for an
//! executor caching the task's input; custom policies can implement any
//! other strategy.

use std::fmt;

use crate::compiler::FopId;
use crate::runtime::message::ExecId;
use crate::runtime::store::CacheKey;

/// What a policy knows about each candidate executor.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Executor id.
    pub exec: ExecId,
    /// Free task slots.
    pub free_slots: usize,
    /// Whether the executor caches the task's preferred input.
    pub has_cached_input: bool,
}

/// The task being placed.
#[derive(Debug, Clone, Copy)]
pub struct TaskToPlace {
    /// Fused operator.
    pub fop: FopId,
    /// Task index.
    pub index: usize,
    /// The cacheable input this task would like to find locally, if any.
    pub cache_pref: Option<CacheKey>,
}

/// A task-to-executor placement policy.
pub trait SchedulingPolicy: Send + Sync {
    /// Picks one of the candidates (all are alive with at least one free
    /// slot). Returning `None` defers the task to a later pass.
    fn pick(&mut self, task: TaskToPlace, candidates: &[Candidate]) -> Option<ExecId>;

    /// Policy name for diagnostics.
    fn name(&self) -> &'static str {
        "custom"
    }
}

impl fmt::Debug for dyn SchedulingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchedulingPolicy({})", self.name())
    }
}

/// The paper's default policy: prefer an executor with the task's input
/// cached; otherwise round-robin.
///
/// Rotation is keyed on the last-picked [`ExecId`], not a call counter:
/// when the candidate set churns (evictions, blacklisting, replacements
/// with fresh ids), a counter-based cursor skips or repeats executors,
/// starving some of work. Advancing past the last-picked id stays fair
/// under any membership change, because candidates always arrive in
/// ascending id order.
#[derive(Debug, Default)]
pub struct RoundRobinCacheAware {
    last: Option<ExecId>,
}

impl SchedulingPolicy for RoundRobinCacheAware {
    fn pick(&mut self, task: TaskToPlace, candidates: &[Candidate]) -> Option<ExecId> {
        if candidates.is_empty() {
            return None;
        }
        if task.cache_pref.is_some() {
            if let Some(c) = candidates.iter().find(|c| c.has_cached_input) {
                // Locality picks do not move the rotation point.
                return Some(c.exec);
            }
        }
        let pick = match self.last {
            Some(last) => {
                candidates
                    .iter()
                    .find(|c| c.exec > last)
                    .unwrap_or(&candidates[0])
                    .exec
            }
            None => candidates[0].exec,
        };
        self.last = Some(pick);
        Some(pick)
    }

    fn name(&self) -> &'static str {
        "round-robin-cache-aware"
    }
}

/// Packs tasks onto the executor with the most free slots (spreads load
/// by headroom instead of rotation).
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl SchedulingPolicy for LeastLoaded {
    fn pick(&mut self, _task: TaskToPlace, candidates: &[Candidate]) -> Option<ExecId> {
        candidates
            .iter()
            .max_by_key(|c| (c.free_slots, std::cmp::Reverse(c.exec)))
            .map(|c| c.exec)
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(pref: Option<CacheKey>) -> TaskToPlace {
        TaskToPlace {
            fop: 0,
            index: 0,
            cache_pref: pref,
        }
    }

    fn cand(exec: ExecId, free: usize, cached: bool) -> Candidate {
        Candidate {
            exec,
            free_slots: free,
            has_cached_input: cached,
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut p = RoundRobinCacheAware::default();
        let cs = vec![cand(1, 1, false), cand(2, 1, false)];
        assert_eq!(p.pick(task(None), &cs), Some(1));
        assert_eq!(p.pick(task(None), &cs), Some(2));
        assert_eq!(p.pick(task(None), &cs), Some(1));
    }

    #[test]
    fn cache_preference_wins() {
        let mut p = RoundRobinCacheAware::default();
        let cs = vec![cand(1, 1, false), cand(2, 1, true)];
        assert_eq!(p.pick(task(Some(7)), &cs), Some(2));
        // Without a preference the cache flag is ignored.
        assert_eq!(p.pick(task(None), &cs), Some(1));
    }

    #[test]
    fn round_robin_stays_fair_under_churn() {
        // A call-count cursor indexes into whatever slice it is handed, so
        // membership churn makes it skip or repeat executors. Keying on the
        // last-picked id keeps the rotation fair across churn.
        let mut p = RoundRobinCacheAware::default();
        let before = vec![cand(1, 1, false), cand(2, 1, false), cand(3, 1, false)];
        assert_eq!(p.pick(task(None), &before), Some(1));
        assert_eq!(p.pick(task(None), &before), Some(2));
        // Executor 2 dies; a replacement joins with a fresh id.
        let after = vec![cand(1, 1, false), cand(3, 1, false), cand(4, 1, false)];
        // Rotation resumes after the last pick (2): 3, then 4, then wraps.
        assert_eq!(p.pick(task(None), &after), Some(3));
        assert_eq!(p.pick(task(None), &after), Some(4));
        assert_eq!(p.pick(task(None), &after), Some(1));
    }

    #[test]
    fn round_robin_wraps_when_last_pick_was_highest() {
        let mut p = RoundRobinCacheAware::default();
        let cs = vec![cand(5, 1, false), cand(9, 1, false)];
        assert_eq!(p.pick(task(None), &cs), Some(5));
        assert_eq!(p.pick(task(None), &cs), Some(9));
        // Whole set replaced by lower ids: wrap to the first candidate.
        let fresh = vec![cand(2, 1, false), cand(3, 1, false)];
        assert_eq!(p.pick(task(None), &fresh), Some(2));
    }

    #[test]
    fn empty_candidates_defer() {
        let mut p = RoundRobinCacheAware::default();
        assert_eq!(p.pick(task(None), &[]), None);
        let mut l = LeastLoaded;
        assert_eq!(l.pick(task(None), &[]), None);
    }

    #[test]
    fn least_loaded_prefers_headroom() {
        let mut p = LeastLoaded;
        let cs = vec![cand(1, 1, false), cand(2, 3, false), cand(3, 2, false)];
        assert_eq!(p.pick(task(None), &cs), Some(2));
    }

    #[test]
    fn least_loaded_breaks_ties_by_lowest_id() {
        let mut p = LeastLoaded;
        let cs = vec![cand(5, 2, false), cand(3, 2, false)];
        assert_eq!(p.pick(task(None), &cs), Some(3));
    }
}
