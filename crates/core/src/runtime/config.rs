//! Runtime configuration.

/// Tunables of the in-process Pado runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Task slots (worker threads) per executor (§3.2.3). Bounds
    /// transient executors only: a reserved task goes to its pre-assigned
    /// receiver whatever that executor already holds (§3.2.3 sets
    /// receivers up first), so reserved launches are not gated on it.
    pub slots_per_executor: usize,
    /// Capacity of each executor's task-input cache in bytes (§3.2.7).
    /// The cache lives *inside* the executor store budget, so this must
    /// not exceed `executor_memory_bytes`.
    pub cache_capacity_bytes: usize,
    /// Byte budget of each executor's block store — preserved outputs,
    /// pushed partitions, and the input cache combined. `usize::MAX`
    /// (the default) disables accounting; anything smaller makes the
    /// store spill unpinned blocks to disk under pressure, defers
    /// pushes without headroom, and refuses launches whose inputs
    /// cannot be pinned.
    pub executor_memory_bytes: usize,
    /// Whether transient tasks pre-aggregate their combine-bound outputs
    /// before pushing (task output partial aggregation, §3.2.7).
    pub partial_aggregation: bool,
    /// Milliseconds the master waits for progress (a report or a
    /// resource-manager notice; heartbeats and acks do not count) before
    /// declaring the job wedged, on either backend. The threaded
    /// backend's backstop against a stuck master thread is twice this.
    pub event_timeout_ms: u64,
    /// Retry budget per task: total attempts (first launch included) a
    /// task may consume through user-code failures before the job fails
    /// terminally with [`crate::RuntimeError::TaskFailed`]. Eviction- and
    /// reserved-failure-driven relaunches do not count against it.
    pub max_task_attempts: usize,
    /// User-code failures on one executor before the master blacklists it
    /// (stops scheduling onto it) and spawns a replacement container.
    pub executor_fault_threshold: usize,
    /// Whether the master launches speculative duplicates of straggling
    /// task attempts (first-commit-wins).
    pub speculation: bool,
    /// An attempt is a straggler when its elapsed time exceeds this
    /// multiple of the fop's median attempt duration.
    pub speculation_multiplier: f64,
    /// Attempts are never speculated before running at least this long,
    /// whatever the median says (guards against duplicating sub-millisecond
    /// tasks whose median rounds to zero).
    pub speculation_floor_ms: u64,
    /// Master scheduling-loop tick in milliseconds: the longest the loop
    /// waits for a frame, and the interval of its straggler checks.
    pub tick_ms: u64,
    /// Milliseconds between executor heartbeats.
    pub heartbeat_interval_ms: u64,
    /// Heartbeat silence after which the master declares an executor dead
    /// and relaunches its uncommitted tasks (its committed blocks stay
    /// served). Must leave room for several retransmission rounds, so a
    /// lossy-but-connected executor is never mistaken for a dead one.
    pub dead_executor_timeout_ms: u64,
    /// Initial retransmission backoff for an unacknowledged control
    /// message, in milliseconds; doubles per retry.
    pub retransmit_base_ms: u64,
    /// Ceiling of the exponential retransmission backoff, in milliseconds.
    pub retransmit_max_ms: u64,
    /// Maximum unacknowledged control messages in flight per link
    /// direction; further sends queue in order behind the window.
    pub transport_inflight_cap: usize,
    /// Receiver-side dedup window: out-of-order sequence numbers tracked
    /// per link direction. Must be at least the in-flight cap, or fresh
    /// messages could evict dedup state for live ones.
    pub transport_dedup_window: usize,
    /// Path of the master's durable write-ahead log (master fault
    /// tolerance, §3.2.6). `None` (the default) writes no log, unless the
    /// fault plan restarts the master: then the master logs to a temp
    /// file it removes when the run ends.
    pub wal_path: Option<String>,
    /// Sync (make durable) the WAL after this many appends. `1` syncs
    /// every frame — the strongest guarantee and the default; larger
    /// values batch, accepting that a crash loses the unsynced suffix.
    pub wal_sync_every: usize,
    /// Append a compacting state snapshot after this many event frames,
    /// bounding the suffix recovery must replay and providing the
    /// fallback target for interior corruption.
    pub wal_snapshot_every: usize,
    /// Worker threads in the threaded backend's shared pool (ignored by
    /// the sim backend, which gives each executor dedicated slot
    /// threads).
    pub threaded_workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            slots_per_executor: 4,
            cache_capacity_bytes: 64 << 20,
            executor_memory_bytes: usize::MAX,
            partial_aggregation: true,
            event_timeout_ms: 30_000,
            max_task_attempts: 4,
            executor_fault_threshold: 3,
            speculation: true,
            speculation_multiplier: 3.0,
            speculation_floor_ms: 200,
            tick_ms: 25,
            heartbeat_interval_ms: 50,
            dead_executor_timeout_ms: 1_500,
            retransmit_base_ms: 80,
            retransmit_max_ms: 640,
            transport_inflight_cap: 64,
            transport_dedup_window: 1_024,
            wal_path: None,
            wal_sync_every: 1,
            wal_snapshot_every: 64,
            threaded_workers: 4,
        }
    }
}

impl RuntimeConfig {
    /// Rejects configurations whose interactions are nonsensical — e.g. a
    /// retransmission backoff that outlives the dead-executor timeout
    /// would declare every executor dead before a single lost message
    /// could be retried. Called by the cluster harness before a job runs.
    pub fn validate(&self) -> Result<(), String> {
        if self.tick_ms == 0 {
            return Err("tick_ms must be at least 1".into());
        }
        if self.tick_ms >= self.event_timeout_ms {
            return Err(format!(
                "tick_ms ({}) must be below event_timeout_ms ({}) or one idle \
                 wait outlasts the wedge timeout",
                self.tick_ms, self.event_timeout_ms
            ));
        }
        if self.transport_dedup_window == 0 {
            return Err("transport_dedup_window must be at least 1".into());
        }
        if self.transport_inflight_cap == 0 {
            return Err("transport_inflight_cap must be at least 1".into());
        }
        if self.transport_inflight_cap > self.transport_dedup_window {
            return Err(format!(
                "transport_inflight_cap ({}) must not exceed transport_dedup_window \
                 ({}): more in-flight messages than dedup slots lets fresh sends \
                 evict dedup state for live ones",
                self.transport_inflight_cap, self.transport_dedup_window
            ));
        }
        if self.retransmit_base_ms == 0 {
            return Err("retransmit_base_ms must be at least 1".into());
        }
        if self.retransmit_base_ms > self.retransmit_max_ms {
            return Err(format!(
                "retransmit_base_ms ({}) must not exceed retransmit_max_ms ({})",
                self.retransmit_base_ms, self.retransmit_max_ms
            ));
        }
        if self.retransmit_base_ms >= self.dead_executor_timeout_ms {
            return Err(format!(
                "retransmit_base_ms ({}) must be below dead_executor_timeout_ms \
                 ({}): a lost message must get at least one retry before its \
                 executor can be declared dead",
                self.retransmit_base_ms, self.dead_executor_timeout_ms
            ));
        }
        if self.executor_memory_bytes == 0 {
            return Err(
                "executor_memory_bytes must be at least 1 (use usize::MAX for \
                        unlimited)"
                    .into(),
            );
        }
        if self.cache_capacity_bytes > self.executor_memory_bytes {
            return Err(format!(
                "cache_capacity_bytes ({}) must not exceed executor_memory_bytes \
                 ({}): the input cache lives inside the executor store budget",
                self.cache_capacity_bytes, self.executor_memory_bytes
            ));
        }
        if self.heartbeat_interval_ms == 0 {
            return Err("heartbeat_interval_ms must be at least 1".into());
        }
        if self.heartbeat_interval_ms >= self.dead_executor_timeout_ms {
            return Err(format!(
                "heartbeat_interval_ms ({}) must be below dead_executor_timeout_ms \
                 ({}) or every executor is declared dead before its first beat",
                self.heartbeat_interval_ms, self.dead_executor_timeout_ms
            ));
        }
        if self.wal_sync_every == 0 {
            return Err(
                "wal_sync_every must be at least 1: a zero sync interval would \
                 never make any appended frame durable"
                    .into(),
            );
        }
        if self.wal_path.is_some() {
            if self.wal_snapshot_every == 0 {
                return Err(
                    "wal_snapshot_every must be at least 1 when a WAL path is set: \
                     a zero snapshot interval demands a compaction after every \
                     event, which degenerates the log into snapshot spam with no \
                     replayable suffix"
                        .into(),
                );
            }
            if self.wal_sync_every > self.wal_snapshot_every {
                return Err(format!(
                    "wal_sync_every ({}) must not exceed wal_snapshot_every ({}): \
                     batching syncs past a snapshot boundary could make a \
                     compacting snapshot durable before the events it compacts, \
                     leaving the recovery scan a hole the simulated backend \
                     cannot order around",
                    self.wal_sync_every, self.wal_snapshot_every
                ));
            }
            if let Some(p) = &self.wal_path {
                if p.is_empty() {
                    return Err("wal_path must not be an empty string".into());
                }
            }
        }
        if self.threaded_workers == 0 {
            return Err("threaded_workers must be at least 1".into());
        }
        Ok(())
    }

    /// [`RuntimeConfig::validate`] under the names `perf/` compiles
    /// against; no check depends on the backend or the cluster shape.
    /// They go when `perf/` is next editable (ROADMAP item 1(b)).
    pub fn validate_for_backend(&self, _: crate::runtime::BackendKind) -> Result<(), String> {
        self.validate()
    }

    /// See [`RuntimeConfig::validate_for_backend`].
    pub fn validate_with_cluster(&self, _n_executors: usize) -> Result<(), String> {
        self.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = RuntimeConfig::default();
        assert!(c.slots_per_executor >= 1);
        assert!(c.cache_capacity_bytes > 0);
        assert!(c.partial_aggregation);
        assert!(c.max_task_attempts >= 1);
        assert!(c.executor_fault_threshold >= 1);
        assert!(c.speculation_multiplier > 1.0);
        assert!(c.tick_ms >= 1);
        // Ticks must subdivide the wedge timeout, or one wait outlasts it.
        assert!(c.tick_ms < c.event_timeout_ms);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_tick() {
        let c = RuntimeConfig {
            tick_ms: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("tick_ms"));
    }

    #[test]
    fn validate_rejects_tick_at_or_above_event_timeout() {
        let c = RuntimeConfig {
            tick_ms: 500,
            event_timeout_ms: 500,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("event_timeout_ms"));
    }

    #[test]
    fn validate_rejects_zero_dedup_window() {
        let c = RuntimeConfig {
            transport_dedup_window: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("transport_dedup_window"));
    }

    #[test]
    fn validate_rejects_inflight_cap_beyond_dedup_window() {
        let c = RuntimeConfig {
            transport_inflight_cap: 128,
            transport_dedup_window: 64,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("transport_inflight_cap"));
    }

    #[test]
    fn validate_rejects_backoff_at_or_above_dead_timeout() {
        let c = RuntimeConfig {
            retransmit_base_ms: 2_000,
            retransmit_max_ms: 4_000,
            dead_executor_timeout_ms: 1_500,
            ..RuntimeConfig::default()
        };
        assert!(c
            .validate()
            .unwrap_err()
            .contains("dead_executor_timeout_ms"));
    }

    #[test]
    fn validate_rejects_inverted_backoff_bounds() {
        let c = RuntimeConfig {
            retransmit_base_ms: 100,
            retransmit_max_ms: 50,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("retransmit_max_ms"));
    }

    #[test]
    fn validate_rejects_cache_beyond_executor_budget() {
        let c = RuntimeConfig {
            cache_capacity_bytes: 2 << 20,
            executor_memory_bytes: 1 << 20,
            ..RuntimeConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("cache_capacity_bytes"));
        assert!(err.contains("executor_memory_bytes"));
    }

    #[test]
    fn validate_rejects_zero_executor_budget() {
        let c = RuntimeConfig {
            executor_memory_bytes: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("executor_memory_bytes"));
    }

    #[test]
    fn validate_rejects_zero_wal_sync_interval() {
        let c = RuntimeConfig {
            wal_sync_every: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("wal_sync_every"));
    }

    #[test]
    fn validate_rejects_zero_wal_snapshot_interval() {
        let c = RuntimeConfig {
            wal_path: Some("/tmp/pado-test.wal".into()),
            wal_snapshot_every: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("wal_snapshot_every"));
        // Without a WAL path the snapshot interval is inert and ignored.
        let c = RuntimeConfig {
            wal_snapshot_every: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_sync_interval_beyond_snapshot_interval() {
        let c = RuntimeConfig {
            wal_path: Some("/tmp/pado-test.wal".into()),
            wal_sync_every: 128,
            wal_snapshot_every: 64,
            ..RuntimeConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("wal_sync_every"));
        assert!(err.contains("wal_snapshot_every"));
    }

    #[test]
    fn validate_rejects_empty_wal_path() {
        let c = RuntimeConfig {
            wal_path: Some(String::new()),
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("wal_path"));
    }

    #[test]
    fn validate_rejects_zero_threaded_workers() {
        let c = RuntimeConfig {
            threaded_workers: 0,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("threaded_workers"));
    }

    #[test]
    fn the_aliases_check_exactly_what_validate_checks() {
        use crate::runtime::BackendKind;
        let bad = RuntimeConfig {
            tick_ms: 0,
            ..RuntimeConfig::default()
        };
        for c in [RuntimeConfig::default(), bad] {
            for backend in [BackendKind::Sim, BackendKind::Threaded] {
                assert_eq!(c.validate_for_backend(backend), c.validate());
            }
            assert_eq!(c.validate_with_cluster(6), c.validate());
        }
    }

    #[test]
    fn validate_rejects_heartbeat_at_or_above_dead_timeout() {
        let c = RuntimeConfig {
            heartbeat_interval_ms: 1_500,
            dead_executor_timeout_ms: 1_500,
            ..RuntimeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("heartbeat_interval_ms"));
    }
}
