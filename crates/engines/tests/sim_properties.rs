//! Property tests of the simulated engines: completion, accounting
//! invariants, and determinism across arbitrary seeds and eviction rates.

use proptest::prelude::*;

use pado_dag::{CombineFn, LogicalDag, Pipeline, SourceFn};
use pado_engines::{simulate, CostModel, Mode, OpCost, RunMetrics, SimConfig};
use pado_simcluster::{LifetimeDist, SEC};

fn small_job(maps: usize, reduces: usize) -> (LogicalDag, CostModel) {
    let p = Pipeline::new();
    let read = p.read("Read", maps, SourceFn::from_vec(vec![]));
    let red = read
        .combine_per_key("Reduce", CombineFn::sum_i64())
        .with_parallelism(reduces);
    let mut model = CostModel::new();
    model
        .set(
            read.op_id(),
            OpCost {
                compute_us: 1_500_000,
                read_store_bytes: 16e6,
                output_bytes: 8e6,
            },
        )
        .set(
            red.op_id(),
            OpCost {
                compute_us: 500_000,
                read_store_bytes: 0.0,
                output_bytes: 1e6,
            },
        );
    (p.build().unwrap(), model)
}

/// Every field of a run's metrics, floats by bit pattern.
fn fields(m: &RunMetrics) -> [u64; 8] {
    [
        m.jct_us,
        m.original_tasks as u64,
        m.tasks_launched as u64,
        m.relaunched_tasks as u64,
        m.evictions as u64,
        m.bytes_transferred.to_bits(),
        m.bytes_checkpointed.to_bits(),
        m.bytes_pushed.to_bits(),
    ]
}

/// Many equal transfers share links and finish in the same microsecond
/// here; the order they are delivered in must not depend on anything but
/// the seed. (It followed a `HashMap`'s iteration order once, and
/// Spark-checkpoint's JCT moved by a few microseconds run to run.)
#[test]
fn every_mode_repeats_bit_for_bit_under_heavy_evictions() {
    let (dag, model) = small_job(96, 8);
    for mode in [Mode::Spark, Mode::SparkCkpt, Mode::Pado] {
        let run = || {
            let config = SimConfig {
                n_transient: 8,
                n_reserved: 2,
                lifetimes: LifetimeDist::Exponential {
                    mean_us: (5 * SEC) as f64,
                },
                seed: 17,
                ..SimConfig::default()
            };
            simulate(mode, &dag, &model, config).unwrap()
        };
        let first = run();
        assert!(first.evictions > 10, "{mode:?}: {}", first.evictions);
        for _ in 0..2 {
            assert_eq!(fields(&run()), fields(&first), "{mode:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every engine completes small jobs for arbitrary seeds and eviction
    /// pressure, with consistent launch accounting.
    #[test]
    fn engines_complete_with_consistent_accounting(
        seed in 0u64..1000,
        mean_secs in 20u64..600,
        maps in 4usize..24,
        mode_sel in 0usize..3,
    ) {
        let (dag, model) = small_job(maps, 4);
        let mode = [Mode::Spark, Mode::SparkCkpt, Mode::Pado][mode_sel];
        let config = SimConfig {
            n_transient: 4,
            n_reserved: 2,
            lifetimes: LifetimeDist::Exponential {
                mean_us: (mean_secs * SEC) as f64,
            },
            seed,
            ..SimConfig::default()
        };
        let m = simulate(mode, &dag, &model, config).unwrap();
        prop_assert!(m.jct_us > 0);
        prop_assert_eq!(m.tasks_launched, m.original_tasks + m.relaunched_tasks);
        prop_assert!(m.bytes_transferred >= 0.0);
        if mode != Mode::SparkCkpt {
            prop_assert_eq!(m.bytes_checkpointed, 0.0);
        }
        if mode != Mode::Pado {
            prop_assert_eq!(m.bytes_pushed, 0.0);
        }
    }

    /// Identical configuration implies identical results, to the bit, in
    /// every mode (the simulator is fully deterministic).
    #[test]
    fn simulation_is_deterministic(seed in 0u64..1000, mode_sel in 0usize..3) {
        let (dag, model) = small_job(8, 3);
        let mode = [Mode::Spark, Mode::SparkCkpt, Mode::Pado][mode_sel];
        let config = SimConfig {
            n_transient: 3,
            n_reserved: 2,
            lifetimes: LifetimeDist::Exponential {
                mean_us: (60 * SEC) as f64,
            },
            seed,
            ..SimConfig::default()
        };
        let a = simulate(mode, &dag, &model, config.clone()).unwrap();
        let b = simulate(mode, &dag, &model, config).unwrap();
        prop_assert_eq!(fields(&a), fields(&b));
    }

    /// Without evictions, no engine ever relaunches a task.
    #[test]
    fn no_evictions_no_relaunches(maps in 4usize..32, mode_sel in 0usize..3) {
        let (dag, model) = small_job(maps, 4);
        let mode = [Mode::Spark, Mode::SparkCkpt, Mode::Pado][mode_sel];
        let m = simulate(
            mode,
            &dag,
            &model,
            SimConfig {
                n_transient: 4,
                n_reserved: 2,
                ..SimConfig::default()
            },
        )
        .unwrap();
        prop_assert_eq!(m.relaunched_tasks, 0);
        prop_assert_eq!(m.evictions, 0);
    }
}

/// Reproduces Figure 2 of the paper: a Map-Reduce job on 3 transient + 1
/// reserved containers where the transient containers are evicted while
/// the Reduce operator runs. Spark must recompute lost map outputs (the
/// critical chain), Spark-checkpoint only relaunches in-flight reduce
/// work, and Pado relaunches nothing — the map outputs were already
/// pushed to the reserved container.
#[test]
fn figure2_eviction_during_reduce() {
    let p = Pipeline::new();
    let read = p.read("Map", 6, SourceFn::from_vec(vec![]));
    let red = read
        .combine_per_key("Reduce", CombineFn::sum_i64())
        .with_parallelism(3);
    let mut model = CostModel::new();
    model
        .set(
            read.op_id(),
            OpCost {
                compute_us: 10 * SEC,
                read_store_bytes: 8e6,
                output_bytes: 8e6,
            },
        )
        .set(
            red.op_id(),
            OpCost {
                compute_us: 60 * SEC,
                read_store_bytes: 0.0,
                output_bytes: 1e6,
            },
        );
    let dag = p.build().unwrap();

    // Maps finish within ~25s; reduces run for ~60s after that. Evict all
    // three transient containers at t = 60s, squarely inside the reduce
    // phase.
    let config = SimConfig {
        n_transient: 3,
        n_reserved: 1,
        scripted_evictions: vec![(60 * SEC, 0), (60 * SEC, 1), (60 * SEC, 2)],
        ..SimConfig::default()
    };

    let spark = simulate(Mode::Spark, &dag, &model, config.clone()).unwrap();
    let ckpt = simulate(Mode::SparkCkpt, &dag, &model, config.clone()).unwrap();
    let pado = simulate(Mode::Pado, &dag, &model, config).unwrap();

    // Pado: reduces run on the reserved container with pushed inputs; the
    // evictions cost nothing.
    assert_eq!(pado.relaunched_tasks, 0, "pado relaunches nothing");
    // Spark-checkpoint relaunches the reduce work that was in flight on
    // the evicted containers, but no maps (they were checkpointed).
    assert!(ckpt.relaunched_tasks > 0, "ckpt redoes in-flight reduces");
    // Spark additionally recomputes the lost map outputs: strictly more
    // relaunches than checkpoint-enabled Spark.
    assert!(
        spark.relaunched_tasks > ckpt.relaunched_tasks,
        "spark {} vs ckpt {}",
        spark.relaunched_tasks,
        ckpt.relaunched_tasks
    );
    assert!(pado.jct_us <= ckpt.jct_us && ckpt.jct_us <= spark.jct_us);
}
