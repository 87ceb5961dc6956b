//! Behavioral tests of the runtime: scheduling shapes, dependency kinds,
//! degenerate clusters, and fault-handling corner cases.

use pado_core::compiler::{compile, Placement};
use pado_core::runtime::{FaultPlan, LocalCluster, RuntimeConfig};
use pado_dag::{CombineFn, ParDoFn, Pipeline, SourceFn, TaskInput, Value};

mod common;
use common::ints;

#[test]
fn group_by_key_end_to_end() {
    let p = Pipeline::new();
    p.read(
        "Read",
        3,
        SourceFn::from_vec(
            (0..12)
                .map(|i| Value::pair(Value::from(i % 4), Value::from(i)))
                .collect(),
        ),
    )
    .group_by_key("Group")
    .sink("Out");
    let dag = p.build().unwrap();
    let result = LocalCluster::new(3, 2).run(&dag).unwrap();
    let out = &result.outputs["Out"];
    assert_eq!(out.len(), 4, "four distinct keys");
    let total: usize = out
        .iter()
        .map(|r| r.val().unwrap().as_list().unwrap().len())
        .sum();
    assert_eq!(total, 12, "every record grouped somewhere");
}

#[test]
fn tree_aggregation_matches_flat_aggregation() {
    let build = |tree_par: usize| {
        let p = Pipeline::new();
        let read = p.read("Read", 8, SourceFn::from_vec(ints(100)));
        let first = read.aggregate_with("Tree", CombineFn::sum_i64(), tree_par);
        first.aggregate("Total", CombineFn::sum_i64()).sink("Out");
        p.build().unwrap()
    };
    let flat = LocalCluster::new(3, 2).run(&build(1)).unwrap();
    let tree = LocalCluster::new(3, 2).run(&build(4)).unwrap();
    assert_eq!(flat.outputs["Out"], tree.outputs["Out"]);
    assert_eq!(flat.outputs["Out"][0], Value::from((0..100).sum::<i64>()));
}

#[test]
fn created_only_pipeline_runs_on_reserved() {
    let p = Pipeline::new();
    let created = p.create("Make", ints(10));
    created
        .par_do(
            "Double",
            ParDoFn::per_element(|v, e| e(Value::from(v.as_i64().unwrap() * 2))),
        )
        .sink("Out");
    let dag = p.build().unwrap();
    // All reserved placement: works even with zero transient executors.
    let plan = compile(&dag).unwrap();
    assert!(plan.fops.iter().all(|f| f.placement == Placement::Reserved));
    let result = LocalCluster::new(0, 2).run(&dag).unwrap();
    assert_eq!(result.outputs["Out"].len(), 10);
}

#[test]
fn transient_terminal_output_is_collected() {
    // A DAG that ends on transient containers (no reserved anchor at the
    // end): outputs must still reach the job result.
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(20))).par_do(
        "Inc",
        ParDoFn::per_element(|v, e| e(Value::from(v.as_i64().unwrap() + 1))),
    );
    let dag = p.build().unwrap();
    let result = LocalCluster::new(2, 1).run(&dag).unwrap();
    let mut got: Vec<i64> = result.outputs["Inc"]
        .iter()
        .map(|v| v.as_i64().unwrap())
        .collect();
    got.sort_unstable();
    assert_eq!(got, (1..=20).collect::<Vec<_>>());
}

#[test]
fn no_transient_executors_wedges_and_aborts() {
    let p = Pipeline::new();
    p.read("Read", 2, SourceFn::from_vec(ints(4)))
        .combine_per_key("Agg", CombineFn::sum_i64());
    let dag = p.build().unwrap();
    let config = RuntimeConfig {
        event_timeout_ms: 200,
        ..Default::default()
    };
    let err = LocalCluster::new(0, 1)
        .with_config(config)
        .run(&dag)
        .unwrap_err();
    assert!(err.to_string().contains("aborted"), "{err}");
}

#[test]
fn repeated_evictions_of_every_transient_container() {
    let p = Pipeline::new();
    p.read("Read", 6, SourceFn::from_vec(ints(60)))
        .par_do(
            "Slow",
            ParDoFn::new(|input: TaskInput<'_>, emit| {
                // A little work per task so evictions interleave.
                let mut acc = 0i64;
                for v in input.main() {
                    acc += v.as_i64().unwrap_or(0);
                }
                emit(Value::pair(Value::from(acc % 3), Value::from(acc)));
            }),
        )
        .combine_per_key("Sum", CombineFn::sum_i64())
        .sink("Out");
    let dag = p.build().unwrap();
    // Evict someone after every single completion for a while.
    let faults = FaultPlan {
        evictions: (1..=10).map(|k| (k, k % 2)).collect(),
        ..Default::default()
    };
    let result = LocalCluster::new(2, 1)
        .run_with_faults(&dag, faults)
        .unwrap();
    assert_eq!(result.metrics.evictions, 10);
    let total: i64 = result.outputs["Out"]
        .iter()
        .map(|r| r.val().unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, (0..60).sum::<i64>());
}

#[test]
fn eviction_after_commit_never_recomputes_parent_stage() {
    // Two-stage job; evict transient executors only after the first
    // stage fully committed: no map task should relaunch.
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(16)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, e| {
                e(Value::pair(Value::from(v.as_i64().unwrap() % 2), v.clone()))
            }),
        )
        .group_by_key("Group")
        .par_do("Post", ParDoFn::per_element(|v, e| e(v.clone())))
        .sink("Out");
    let dag = p.build().unwrap();
    let plan = compile(&dag).unwrap();
    let stage0_tasks: usize = plan
        .fops
        .iter()
        .filter(|f| f.stage == 0 && f.placement == Placement::Transient)
        .map(|f| f.parallelism)
        .sum();
    // Stage 0's transient tasks are the first 4 completions; evict later.
    let faults = FaultPlan {
        evictions: vec![(stage0_tasks + 2, 0)],
        ..Default::default()
    };
    let result = LocalCluster::new(2, 2)
        .run_with_faults(&dag, faults)
        .unwrap();
    assert_eq!(result.metrics.evictions, 1);
    assert_eq!(
        result.metrics.relaunched_tasks, 0,
        "committed stage outputs live on reserved executors; nothing to redo"
    );
}

#[test]
fn side_input_from_multi_partition_producer() {
    // Broadcast from a producer with parallelism > 1: consumers must see
    // the concatenation of all partitions.
    let p = Pipeline::new();
    let bcast = p.read("Bcast", 3, SourceFn::from_vec(ints(9)));
    let data = p.read("Data", 2, SourceFn::from_vec(ints(4)));
    data.par_do_with_side(
        "Check",
        &bcast,
        ParDoFn::new(|input: TaskInput<'_>, emit| {
            let side_sum: i64 = input
                .side
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_i64().unwrap_or(0))
                .sum();
            for v in input.main() {
                emit(Value::from(v.as_i64().unwrap() + side_sum));
            }
        }),
    )
    .aggregate("Total", CombineFn::sum_i64())
    .sink("Out");
    let dag = p.build().unwrap();
    let result = LocalCluster::new(3, 2).run(&dag).unwrap();
    // side_sum = 36 added to each of 4 records summing 6: 4*36 + 6.
    assert_eq!(result.outputs["Out"][0], Value::from(4 * 36 + 6));
}

#[test]
fn fusion_disabled_produces_same_results() {
    use pado_core::compiler::PlanConfig;
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(40)))
        .par_do(
            "A",
            ParDoFn::per_element(|v, e| e(Value::from(v.as_i64().unwrap() * 3))),
        )
        .par_do(
            "B",
            ParDoFn::per_element(|v, e| {
                e(Value::pair(Value::from(v.as_i64().unwrap() % 5), v.clone()))
            }),
        )
        .combine_per_key("Sum", CombineFn::sum_i64())
        .sink("Out");
    let dag = p.build().unwrap();
    let fused = LocalCluster::new(2, 1).run(&dag).unwrap();
    let unfused = LocalCluster::new(2, 1)
        .with_plan_config(PlanConfig {
            fusion: false,
            ..PlanConfig::default()
        })
        .run(&dag)
        .unwrap();
    let sort = |r: &Vec<Value>| {
        let mut v = r.clone();
        v.sort();
        v
    };
    assert_eq!(sort(&fused.outputs["Out"]), sort(&unfused.outputs["Out"]));
}

#[test]
fn many_to_one_with_parallel_consumers_partitions_by_source() {
    // aggregate_with(par 3) over 9 sources: each consumer merges the
    // sources congruent to its index.
    let p = Pipeline::new();
    let read = p.read(
        "Read",
        9,
        SourceFn::new(|i, _| vec![Value::from(1i64 << i)]),
    );
    read.aggregate_with("Tree", CombineFn::sum_i64(), 3)
        .sink("Out");
    let dag = p.build().unwrap();
    let result = LocalCluster::new(3, 2).run(&dag).unwrap();
    let mut got: Vec<i64> = result.outputs["Out"]
        .iter()
        .map(|v| v.as_i64().unwrap())
        .collect();
    got.sort_unstable();
    let mut want: Vec<i64> = (0..3)
        .map(|d| (0..9).filter(|i| i % 3 == d).map(|i| 1i64 << i).sum())
        .collect();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn metrics_account_bytes_pushed_for_transient_stages() {
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(100)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, e| {
                e(Value::pair(Value::from(v.as_i64().unwrap() % 7), v.clone()))
            }),
        )
        .combine_per_key("Sum", CombineFn::sum_i64())
        .sink("Out");
    let dag = p.build().unwrap();
    let result = LocalCluster::new(2, 2).run(&dag).unwrap();
    assert!(
        result.metrics.bytes_pushed > 0,
        "map outputs pushed to reserved"
    );
    assert_eq!(result.metrics.tasks_launched, result.metrics.original_tasks);
}

#[test]
fn event_log_orders_stages_and_records_faults() {
    use pado_core::runtime::master::JobEvent;
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(20)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, e| {
                e(Value::pair(Value::from(v.as_i64().unwrap() % 3), v.clone()))
            }),
        )
        .combine_per_key("Sum", CombineFn::sum_i64())
        .sink("Out");
    let dag = p.build().unwrap();
    let faults = FaultPlan {
        evictions: vec![(2, 0)],
        ..Default::default()
    };
    let result = LocalCluster::new(2, 2)
        .run_with_faults(&dag, faults)
        .unwrap();
    pado_core::runtime::assert_clean(&result.journal, true);
    let events = result.journal.to_events();
    let events = &events;

    // The eviction and the replacement both appear, in order.
    let evicted_at = events
        .iter()
        .position(|e| matches!(e, JobEvent::ContainerEvicted(_)))
        .expect("eviction logged");
    let added_at = events
        .iter()
        .position(|e| matches!(e, JobEvent::ContainerAdded(_)))
        .expect("replacement logged");
    assert!(evicted_at < added_at);

    // Every stage completes exactly once (no reopen without reserved
    // failures), and stage 0 completes before the last stage.
    let completions: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::StageCompleted(s) => Some(*s),
            _ => None,
        })
        .collect();
    let n_stages = pado_core::compiler::compile(&dag)
        .unwrap()
        .stage_dag
        .stages
        .len();
    assert_eq!(completions.len(), n_stages);
    assert!(!events
        .iter()
        .any(|e| matches!(e, JobEvent::StageReopened { .. })));

    // Commits never precede their own launch.
    for (i, e) in events.iter().enumerate() {
        if let JobEvent::TaskCommitted { fop, index, .. } = e {
            assert!(
                events[..i].iter().any(|l| matches!(
                    l,
                    JobEvent::TaskLaunched { fop: lf, index: li, .. } if lf == fop && li == index
                )),
                "commit of ({fop},{index}) before any launch"
            );
        }
    }
}

#[test]
fn event_log_notes_reserved_failure_reopening_stages() {
    use pado_core::runtime::master::JobEvent;
    let p = Pipeline::new();
    p.read("Read", 4, SourceFn::from_vec(ints(16)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, e| {
                e(Value::pair(Value::from(v.as_i64().unwrap() % 2), v.clone()))
            }),
        )
        .group_by_key("Group")
        .par_do("Post", ParDoFn::per_element(|v, e| e(v.clone())))
        .sink("Out");
    let dag = p.build().unwrap();
    let faults = FaultPlan {
        reserved_failures: vec![(6, 0)],
        ..Default::default()
    };
    let result = LocalCluster::new(2, 2)
        .run_with_faults(&dag, faults)
        .unwrap();
    assert!(result
        .journal
        .to_events()
        .iter()
        .any(|e| matches!(e, JobEvent::ReservedFailed(_))));
    pado_core::runtime::assert_clean(&result.journal, true);
}

#[test]
fn fixed_seed_journal_is_deterministic() {
    use pado_core::runtime::ChaosPlan;

    // A serial chain (parallelism 1 everywhere) so only one task is in
    // flight at a time: with a fixed chaos seed the canonical journal
    // must come out byte-identical run over run.
    let build = || {
        let p = Pipeline::new();
        p.read("Read", 1, SourceFn::from_vec(ints(12)))
            .par_do(
                "Key",
                ParDoFn::per_element(|v, e| {
                    e(Value::pair(Value::from(v.as_i64().unwrap() % 2), v.clone()))
                }),
            )
            .combine_per_key("Sum", CombineFn::sum_i64())
            .sink("Out");
        p.build().unwrap()
    };
    let config = RuntimeConfig {
        slots_per_executor: 1,
        speculation: false,
        // No blacklisting: a replacement container would run concurrently
        // with the blacklisted one and their commit interleaving is
        // thread-timing, not seed.
        executor_fault_threshold: 100,
        heartbeat_interval_ms: 1_000,
        dead_executor_timeout_ms: 60_000,
        ..Default::default()
    };
    let faults = FaultPlan {
        evictions: vec![(1, 0)],
        chaos: Some(ChaosPlan {
            seed: 7,
            error_prob: 0.5,
            panic_prob: 0.0,
            oom_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 0,
            max_faults_per_task: 1,
        }),
        ..Default::default()
    };
    let run = || {
        let dag = build();
        LocalCluster::new(1, 1)
            .with_config(config.clone())
            .run_with_faults(&dag, faults.clone())
            .unwrap()
    };
    let a = run();
    let b = run();
    pado_core::runtime::assert_clean(&a.journal, true);
    assert_eq!(
        a.journal.to_events(),
        b.journal.to_events(),
        "canonical event sequence must be identical for a fixed seed"
    );
    assert_eq!(
        a.journal.render_timeline(false),
        b.journal.render_timeline(false),
        "time-elided timeline must be byte-stable for a fixed seed"
    );
}

#[test]
fn custom_scheduling_policy_is_used() {
    use pado_core::runtime::{LeastLoaded, SchedulingPolicy};

    // A policy that counts its decisions.
    struct Counting {
        inner: LeastLoaded,
        picks: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }
    impl SchedulingPolicy for Counting {
        fn pick(
            &mut self,
            task: pado_core::runtime::TaskToPlace,
            candidates: &[pado_core::runtime::Candidate],
        ) -> Option<usize> {
            self.picks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.pick(task, candidates)
        }
        fn name(&self) -> &'static str {
            "counting-least-loaded"
        }
    }

    let picks = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let picks_in = std::sync::Arc::clone(&picks);
    let p = Pipeline::new();
    p.read("Read", 6, SourceFn::from_vec(ints(30)))
        .par_do(
            "Key",
            ParDoFn::per_element(|v, e| {
                e(Value::pair(Value::from(v.as_i64().unwrap() % 3), v.clone()))
            }),
        )
        .combine_per_key("Sum", CombineFn::sum_i64())
        .sink("Out");
    let dag = p.build().unwrap();
    let result = LocalCluster::new(3, 2)
        .with_policy(move || {
            Box::new(Counting {
                inner: LeastLoaded,
                picks: std::sync::Arc::clone(&picks_in),
            })
        })
        .run(&dag)
        .unwrap();
    assert!(picks.load(std::sync::atomic::Ordering::Relaxed) > 0);
    let total: i64 = result.outputs["Out"]
        .iter()
        .map(|r| r.val().unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, (0..30).sum::<i64>());
}

#[test]
fn fixed_seed_drain_timeline_is_golden() {
    // Same serial-chain recipe as `fixed_seed_journal_is_deterministic`
    // (parallelism 1, one slot, no speculation, no blacklisting) plus a
    // mid-job drain of the first of two transient executors: it must
    // land at the same journal position run over run, and the rendered
    // timeline must say so.
    let build = || {
        let p = Pipeline::new();
        p.read("Read", 1, SourceFn::from_vec(ints(12)))
            .par_do(
                "Key",
                ParDoFn::per_element(|v, e| {
                    e(Value::pair(Value::from(v.as_i64().unwrap() % 2), v.clone()))
                }),
            )
            .combine_per_key("Sum", CombineFn::sum_i64())
            .sink("Out");
        p.build().unwrap()
    };
    let config = RuntimeConfig {
        slots_per_executor: 1,
        speculation: false,
        executor_fault_threshold: 100,
        heartbeat_interval_ms: 1_000,
        dead_executor_timeout_ms: 60_000,
        ..Default::default()
    };
    let run = || {
        let dag = build();
        LocalCluster::new(2, 1)
            .with_config(config.clone())
            .with_drain(1, 0)
            .run(&dag)
            .unwrap()
    };
    let a = run();
    let b = run();
    pado_core::runtime::assert_clean(&a.journal, true);
    let timeline = a.journal.render_timeline(false);
    assert_eq!(
        timeline,
        b.journal.render_timeline(false),
        "time-elided drain timeline must be byte-stable for a fixed seed"
    );
    // Executor 0 is the reserved one; 1 is the first transient.
    assert!(
        timeline.contains("executor-drained exec 1"),
        "timeline must narrate the drain:\n{timeline}"
    );
}

#[test]
fn fixed_seed_crash_recovery_timeline_is_golden() {
    use pado_core::runtime::{temp_wal_path, CrashPlan};

    // Same serial-chain recipe as `fixed_seed_journal_is_deterministic`
    // (parallelism 1, one slot, no speculation, no blacklisting) plus a
    // deterministic master crash: the kill lands after a fixed number of
    // handled frames, so the WAL prefix, the recovery, and the journal
    // it produces must be byte-stable run over run.
    let build = || {
        let p = Pipeline::new();
        p.read("Read", 1, SourceFn::from_vec(ints(12)))
            .par_do(
                "Key",
                ParDoFn::per_element(|v, e| {
                    e(Value::pair(Value::from(v.as_i64().unwrap() % 2), v.clone()))
                }),
            )
            .combine_per_key("Sum", CombineFn::sum_i64())
            .sink("Out");
        p.build().unwrap()
    };
    let run = |tag: &str| {
        let wal = temp_wal_path(tag);
        let config = RuntimeConfig {
            slots_per_executor: 1,
            speculation: false,
            executor_fault_threshold: 100,
            heartbeat_interval_ms: 1_000,
            dead_executor_timeout_ms: 60_000,
            wal_path: Some(wal.to_string_lossy().into_owned()),
            wal_sync_every: 1,
            wal_snapshot_every: 8,
            ..Default::default()
        };
        let faults = FaultPlan {
            crashes: Some(CrashPlan {
                seed: 7,
                after_handled_frames: Some(3),
                max_crashes: 1,
                ..Default::default()
            }),
            ..Default::default()
        };
        let dag = build();
        let result = LocalCluster::new(1, 1)
            .with_config(config)
            .run_with_faults(&dag, faults)
            .unwrap();
        std::fs::remove_file(&wal).ok();
        result
    };
    let a = run("golden-crash-a");
    let b = run("golden-crash-b");
    pado_core::runtime::assert_clean(&a.journal, true);
    assert_eq!(a.metrics.wal_recoveries, 1);
    // The replayed-frame count is wall-clock (it includes whatever
    // executor-side events were in flight when the kill landed), so it
    // is elided from the golden comparison exactly like timestamps; the
    // semantic sequence — what crashed, what reverted, what relaunched,
    // with which fenced attempt ids — must be byte-stable.
    let canon = |r: &pado_core::runtime::JobResult| -> Vec<pado_core::runtime::JobEvent> {
        r.journal
            .to_events()
            .into_iter()
            .map(|e| match e {
                pado_core::runtime::JobEvent::WalRecovered {
                    snapshot_restored, ..
                } => pado_core::runtime::JobEvent::WalRecovered {
                    frames_replayed: 0,
                    frames_truncated: 0,
                    snapshot_restored,
                },
                e => e,
            })
            .collect()
    };
    assert_eq!(
        canon(&a),
        canon(&b),
        "canonical crash-recovery event sequence must be identical for a fixed seed"
    );
    let strip = |t: &str| -> String {
        t.lines()
            .filter(|l| !l.contains("wal-recovered"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let timeline = a.journal.render_timeline(false);
    assert_eq!(
        strip(&timeline),
        strip(&b.journal.render_timeline(false)),
        "time-elided crash-recovery timeline must be byte-stable for a fixed seed"
    );
    for needle in ["master-recovered", "wal-recovered"] {
        assert!(
            timeline.contains(needle),
            "timeline must narrate the recovery (missing {needle:?}):\n{timeline}"
        );
    }
    let totals = |r: &pado_core::runtime::JobResult| -> i64 {
        r.outputs["Out"]
            .iter()
            .map(|rec| rec.val().unwrap().as_i64().unwrap())
            .sum()
    };
    assert_eq!(totals(&a), (0..12).sum::<i64>());
}
