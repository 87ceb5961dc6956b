//! The Map-Reduce workload (§5.1.3): summing page views per document
//! over a month of hourly pageview records, as in the paper's 280 GB
//! Wikipedia dump experiment.

use std::collections::BTreeMap;
use std::fmt::Write;

use pado_dag::{CombineFn, LogicalDag, ParDoFn, Pipeline, SourceFn, Value};
use pado_engines::{CostModel, OpCost};

/// Scale of a real (in-process) Map-Reduce run.
#[derive(Debug, Clone)]
pub struct MrConfig {
    /// Distinct documents.
    pub pages: usize,
    /// Pageview records.
    pub records: usize,
    /// Read/map parallelism.
    pub partitions: usize,
    /// Reduce parallelism.
    pub reducers: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            pages: 50,
            records: 2_000,
            partitions: 8,
            reducers: 4,
            seed: 7,
        }
    }
}

/// Generates hourly pageview lines: `"<page> <hour> <count>"`.
pub fn generate_pageviews(cfg: &MrConfig) -> Vec<Value> {
    let mut line = String::new();
    (0..cfg.records)
        .map(|i| {
            let h = crate::util::hash_unit(cfg.seed, i as u64);
            let page = ((h + 0.5) * cfg.pages as f64) as usize % cfg.pages.max(1);
            let hour = i % 24;
            let count = 1 + (i * 31 + page * 7) % 100;
            line.clear();
            write!(line, "page-{page} {hour} {count}").expect("a String takes any write");
            Value::from(line.as_str())
        })
        .collect()
}

/// Builds the Map-Reduce dataflow of Figure 3(a) over real data.
pub fn dag(cfg: &MrConfig) -> LogicalDag {
    let data = generate_pageviews(cfg);
    let p = Pipeline::new();
    p.read("Read", cfg.partitions, SourceFn::from_vec(data))
        .par_do(
            "Map",
            ParDoFn::per_element(|line, emit| {
                let line = line.as_str().unwrap_or("");
                let mut it = line.split_whitespace();
                if let (Some(page), Some(_hour), Some(count)) = (it.next(), it.next(), it.next()) {
                    if let Ok(c) = count.parse::<i64>() {
                        emit(Value::pair(Value::from(page), Value::from(c)));
                    }
                }
            }),
        )
        .combine_per_key("Reduce", CombineFn::sum_i64())
        .with_parallelism(cfg.reducers)
        .sink("Out");
    p.build().expect("map-reduce DAG is valid")
}

/// Single-threaded reference: total views per page.
pub fn reference(cfg: &MrConfig) -> BTreeMap<String, i64> {
    let mut out = BTreeMap::new();
    for line in generate_pageviews(cfg) {
        let line = line.as_str().unwrap_or("");
        let mut it = line.split_whitespace();
        if let (Some(page), Some(_h), Some(count)) = (it.next(), it.next(), it.next()) {
            *out.entry(page.to_string()).or_insert(0) += count.parse::<i64>().unwrap_or(0);
        }
    }
    out
}

/// Extracts the engine's `Out` sink into a comparable map.
pub fn result_to_map(records: &[Value]) -> BTreeMap<String, i64> {
    records
        .iter()
        .filter_map(|r| {
            let k = r.key()?.as_str()?.to_string();
            let v = r.val()?.as_i64()?;
            Some((k, v))
        })
        .collect()
}

/// The paper-scale Map-Reduce job for the simulator: 280 GB of pageview
/// records in 128 MB blocks (2240 map tasks), reduced by 160 tasks.
/// Text-processing throughput of ~10 MB/s/core and a ~5× in-map reduction
/// of the shuffle volume.
pub fn paper() -> (LogicalDag, CostModel) {
    let p = Pipeline::new();
    let read = p.read("Read", 2240, SourceFn::from_vec(vec![]));
    let map = read.par_do("Map", ParDoFn::per_element(|_, _| {}));
    let red = map
        .combine_per_key("Reduce", CombineFn::sum_i64())
        .with_parallelism(160);
    let sink = red.sink("Write");
    let mut cost = CostModel::new();
    cost.set(
        read.op_id(),
        OpCost {
            compute_us: 4_000_000,
            read_store_bytes: 128e6,
            output_bytes: 128e6,
        },
    )
    .set(
        map.op_id(),
        OpCost {
            compute_us: 9_000_000,
            read_store_bytes: 0.0,
            output_bytes: 25.6e6,
        },
    )
    .set(
        red.op_id(),
        OpCost {
            compute_us: 3_000_000,
            read_store_bytes: 0.0,
            output_bytes: 1e6,
        },
    )
    .set(
        sink.op_id(),
        OpCost {
            compute_us: 500_000,
            read_store_bytes: 0.0,
            output_bytes: 1e6,
        },
    );
    // Reduce is a commutative/associative sum: Pado pre-aggregates map
    // outputs per transient container before the push. With ~56 map
    // tasks per container per wave merging keys, the pushed volume
    // shrinks to roughly 60 % (hot keys collapse, the long tail does
    // not).
    cost.set_preagg(red.op_id(), 0.6);
    (p.build().expect("valid paper MR DAG"), cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let cfg = MrConfig::default();
        assert_eq!(generate_pageviews(&cfg), generate_pageviews(&cfg));
    }

    /// The dataset `perf` runs the `mr-*` workloads on for seed 1,
    /// fingerprinted (FNV-1a over every line and a newline after it).
    #[test]
    fn the_seed_1_perf_dataset_is_pinned() {
        let cfg = MrConfig {
            pages: 100_000,
            records: 250_000,
            partitions: 32,
            reducers: 8,
            seed: 1,
        };
        let lines = generate_pageviews(&cfg);
        let bytes = lines
            .iter()
            .flat_map(|l| l.as_str().expect("a line").bytes().chain([b'\n']));
        let fnv = bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (lines.len(), fnv),
            (250_000, 0x7367_05c0_cef7_604e),
            "{fnv:#018x}"
        );
    }

    #[test]
    fn reference_counts_every_record() {
        let cfg = MrConfig {
            pages: 3,
            records: 100,
            ..Default::default()
        };
        let m = reference(&cfg);
        assert!(m.len() <= 3);
        assert!(m.values().all(|&v| v > 0));
    }

    #[test]
    fn dag_has_expected_shape() {
        let dag = dag(&MrConfig::default());
        assert_eq!(dag.len(), 4);
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn paper_dag_compiles() {
        let (dag, _) = paper();
        let plan = pado_core::compiler::compile(&dag).unwrap();
        // Read+Map fused transient; Reduce and Write reserved.
        assert_eq!(plan.total_tasks(), 2240 + 160 + 160);
    }
}
