//! Job-level execution metrics.

/// Counters collected by the master over one job execution.
///
/// `relaunched_tasks` mirrors the paper's "ratio of relaunched tasks to
/// original tasks" metric (Figures 5–7): every task launch beyond the
/// first attempt of each task counts as a relaunch. `tasks_launched`
/// therefore decomposes as `original_tasks + relaunched_tasks +
/// speculative_launches` in runs where every task eventually commits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Tasks in the physical plan (the denominator of the relaunch ratio).
    pub original_tasks: usize,
    /// Task launches, including relaunches.
    pub tasks_launched: usize,
    /// Launches beyond each task's first attempt.
    pub relaunched_tasks: usize,
    /// Transient container evictions handled.
    pub evictions: usize,
    /// Reserved executor failures handled.
    pub reserved_failures: usize,
    /// Bytes of task output pushed from transient to reserved executors.
    pub bytes_pushed: usize,
    /// Bytes of side input shipped to executors (cache misses).
    pub side_bytes_sent: usize,
    /// Bytes of side input served from executor caches instead of being
    /// re-sent (cache hits).
    pub side_bytes_saved: usize,
    /// Side-input cache hits across all tasks.
    pub cache_hits: usize,
    /// Side-input cache misses across all tasks.
    pub cache_misses: usize,
    /// Records removed by transient-side partial aggregation.
    pub records_preaggregated: usize,
    /// Completed-stage recomputations triggered by reserved failures.
    pub stage_recomputations: usize,
    /// Committed outputs that lost their last copy with every consumer
    /// already committed: dropped, not recomputed.
    pub outputs_dropped: usize,
    /// Task attempts that failed in user code (error or caught panic).
    pub task_failures: usize,
    /// Speculative duplicate attempts launched against stragglers.
    pub speculative_launches: usize,
    /// Tasks whose speculative attempt committed before the original.
    pub speculative_wins: usize,
    /// Executors blacklisted for repeated user-code failures.
    pub blacklisted_executors: usize,
    /// Control-plane messages the (simulated) network dropped, including
    /// partition black-holes.
    pub messages_dropped: usize,
    /// Control-plane messages the network delivered twice.
    pub messages_duplicated: usize,
    /// Retransmissions of unacknowledged control messages.
    pub messages_retransmitted: usize,
    /// Received duplicates suppressed by a dedup window.
    pub messages_deduplicated: usize,
    /// Highest retransmission count any single message needed (0 when
    /// every message was acknowledged on its first transmission) — the
    /// per-message boundedness witness.
    pub max_message_retransmissions: usize,
    /// Heartbeat-staleness flags raised by the failure detector (an
    /// executor went quiet past the miss threshold, dead or not).
    pub heartbeats_missed: usize,
    /// Executors declared dead by the heartbeat failure detector.
    pub executors_declared_dead: usize,
    /// Blocks spilled from executor stores to the disk tier.
    pub blocks_spilled: usize,
    /// Bytes written to the disk tier by spills (column-codec
    /// compressed sizes — what the spill files actually hold).
    pub spill_bytes: usize,
    /// Bytes the same spilled blocks would have occupied in the row
    /// (per-record) encoding; `spill_bytes < spill_raw_bytes` whenever
    /// the column codecs saved anything.
    pub spill_raw_bytes: usize,
    /// Spilled blocks reloaded into memory before use.
    pub blocks_loaded: usize,
    /// `TaskDone` pushes deferred by reserved-store backpressure.
    pub pushes_deferred: usize,
    /// Deferred pushes later admitted on retry.
    pub pushes_resumed: usize,
    /// Allocation failures injected by the OOM chaos family.
    pub oom_injected: usize,
    /// Highest combined store occupancy (blocks + cache, bytes) any
    /// executor self-reported; always ≤ the configured budget.
    pub peak_store_bytes: usize,
    /// Executor-observed input-cache hits (one per side-input lookup
    /// served from cache; `cache_hits` counts per-task summaries).
    pub store_cache_hits: usize,
    /// Executor-observed input-cache misses.
    pub store_cache_misses: usize,
    /// Master recoveries that rebuilt state from the write-ahead log.
    pub wal_recoveries: usize,
    /// WAL frames replayed across all recoveries.
    pub wal_frames_replayed: usize,
    /// WAL frames discarded by recovery scans (torn tails, corrupt
    /// frames, frames stranded beyond interior corruption).
    pub wal_frames_truncated: usize,
    /// Recoveries that fell back to the last good snapshot because of
    /// interior WAL corruption.
    pub wal_snapshot_restores: usize,
}

impl JobMetrics {
    /// Relaunched-to-original task ratio (0 when the plan is empty).
    pub fn relaunch_ratio(&self) -> f64 {
        if self.original_tasks == 0 {
            0.0
        } else {
            self.relaunched_tasks as f64 / self.original_tasks as f64
        }
    }

    /// Compares the counters that must agree between execution backends
    /// for the same plan and fault schedule, returning the disagreeing
    /// `(counter, self, other)` triples (empty = no drift).
    ///
    /// Only logically determined counters participate: plan-shaped totals
    /// (`original_tasks`), fault-schedule echoes (`evictions`,
    /// `reserved_failures`, `oom_injected`, `task_failures`), and recovery
    /// counts (`wal_recoveries`, `stage_recomputations`).
    ///
    /// Deliberately excluded:
    /// - placement/timing-sensitive counters (`bytes_pushed`,
    ///   `side_bytes_*`, cache and spill counters, `speculative_*`,
    ///   `relaunched_tasks`, `heartbeats_missed`, `peak_store_bytes`,
    ///   `records_preaggregated`) — both backends are correct while
    ///   disagreeing on these;
    /// - wire counters (`messages_dropped` / `_duplicated` /
    ///   `_retransmitted` / `_deduplicated`,
    ///   `max_message_retransmissions`) — real wall-clock retransmission
    ///   timers make these inherently nondeterministic.
    pub fn backend_drift(&self, other: &JobMetrics) -> Vec<(&'static str, usize, usize)> {
        let pairs: [(&'static str, usize, usize); 7] = [
            ("original_tasks", self.original_tasks, other.original_tasks),
            ("task_failures", self.task_failures, other.task_failures),
            ("evictions", self.evictions, other.evictions),
            (
                "reserved_failures",
                self.reserved_failures,
                other.reserved_failures,
            ),
            ("oom_injected", self.oom_injected, other.oom_injected),
            (
                "stage_recomputations",
                self.stage_recomputations,
                other.stage_recomputations,
            ),
            ("wal_recoveries", self.wal_recoveries, other.wal_recoveries),
        ];
        pairs.into_iter().filter(|(_, a, b)| a != b).collect()
    }

    /// Side-input cache hit rate over all lookups (0 when none).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let m = JobMetrics::default();
        assert_eq!(m.relaunch_ratio(), 0.0);
        assert_eq!(m.cache_hit_rate(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let m = JobMetrics {
            original_tasks: 10,
            relaunched_tasks: 3,
            cache_hits: 3,
            cache_misses: 1,
            ..JobMetrics::default()
        };
        assert!((m.relaunch_ratio() - 0.3).abs() < 1e-12);
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn backend_drift_reports_only_deterministic_disagreements() {
        let a = JobMetrics {
            original_tasks: 8,
            task_failures: 1,
            bytes_pushed: 1000,
            messages_retransmitted: 4,
            ..JobMetrics::default()
        };
        // Placement- and wire-sensitive differences are tolerated...
        let b = JobMetrics {
            bytes_pushed: 2400,
            messages_retransmitted: 0,
            ..a.clone()
        };
        assert!(a.backend_drift(&b).is_empty());
        // ...but a deterministic counter disagreeing is drift.
        let c = JobMetrics {
            task_failures: 2,
            wal_recoveries: 3,
            ..a.clone()
        };
        let drift = a.backend_drift(&c);
        assert_eq!(
            drift,
            vec![("task_failures", 1, 2), ("wal_recoveries", 0, 3)]
        );
    }
}
