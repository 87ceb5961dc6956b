//! Criterion micro-benchmarks of the engine's hot paths: compilation,
//! record routing, partial aggregation, the input cache, the fair-share
//! network model, and B-spline trace refinement.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pado_core::compiler::compile;
use pado_core::exec::route;
use pado_core::runtime::store::UNLIMITED;
use pado_core::runtime::{ExecutorStore, Journal};
use pado_dag::{block_from_vec, Block, CombineFn, DepType, Value};
use pado_simcluster::Network;

fn bench_compile(c: &mut Criterion) {
    let (als, _) = pado_workloads::als::paper();
    c.bench_function("compile_als_paper_dag", |b| {
        b.iter(|| compile(black_box(&als)).unwrap())
    });
    let (mlr, _) = pado_workloads::mlr::paper();
    c.bench_function("compile_mlr_paper_dag", |b| {
        b.iter(|| compile(black_box(&mlr)).unwrap())
    });
}

fn bench_route(c: &mut Criterion) {
    let records: Block = block_from_vec(
        (0..10_000)
            .map(|i| Value::pair(Value::from(i % 500), Value::from(i)))
            .collect(),
    );
    c.bench_function("route_shuffle_10k_records_64_parts", |b| {
        b.iter(|| route(black_box(&records), DepType::ManyToMany, 0, 64))
    });
    c.bench_function("route_broadcast_10k_records_8_parts", |b| {
        b.iter(|| route(black_box(&records), DepType::OneToMany, 0, 8))
    });
}

fn bench_partial_aggregation(c: &mut Criterion) {
    let records: Vec<Value> = (0..10_000)
        .map(|i| Value::pair(Value::from(i % 200), Value::from(1i64)))
        .collect();
    let f = CombineFn::sum_i64();
    c.bench_function("preaggregate_10k_records_200_keys", |b| {
        b.iter(|| {
            let block = block_from_vec(black_box(records.clone()));
            pado_core::runtime::executor::preaggregate(block, &f, true)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("lru_cache_put_get_churn", |b| {
        b.iter(|| {
            let mut store = ExecutorStore::new(0, UNLIMITED, 64 * 1024, Journal::new());
            for k in 0..256usize {
                let data = block_from_vec(vec![Value::from(k as i64); 64]);
                store.cache_put(k, data);
                black_box(store.cache_get(k / 2));
            }
            store.cache_keys().len()
        })
    });
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("network_500_concurrent_transfers", |b| {
        b.iter(|| {
            let mut n = Network::new();
            let nodes: Vec<_> = (0..50).map(|_| n.add_node(125.0, 125.0)).collect();
            let mut dues = Vec::new();
            for i in 0..500 {
                let (_, d) = n.start(0, nodes[i % 50], nodes[(i * 7 + 1) % 50], 1e6);
                for due in d {
                    dues.retain(|p: &pado_simcluster::network::Due| p.id != due.id);
                    dues.push(due);
                }
            }
            while n.active() > 0 {
                dues.sort_by_key(|d| d.at);
                let d = dues.remove(0);
                if let Ok(re) = n.complete(d.at, d.id, d.gen) {
                    for r in re {
                        dues.retain(|p| p.id != r.id);
                        dues.push(r);
                    }
                }
            }
            n.bytes_completed
        })
    });
}

fn bench_bspline(c: &mut Criterion) {
    let samples: Vec<f64> = (0..8352).map(|i| (i as f64 * 0.01).sin()).collect();
    c.bench_function("bspline_refine_29_days_5min_to_1min", |b| {
        b.iter(|| pado_trace::refine(black_box(&samples), 5))
    });
}

fn bench_sim_end_to_end(c: &mut Criterion) {
    let (dag, cost) = pado_workloads::mr::paper();
    c.bench_function("simulate_mr_paper_no_evictions", |b| {
        b.iter(|| {
            pado_engines::simulate(
                pado_engines::Mode::Pado,
                black_box(&dag),
                &cost,
                pado_engines::SimConfig::default(),
            )
            .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_compile, bench_route, bench_partial_aggregation, bench_cache,
              bench_network, bench_bspline, bench_sim_end_to_end
}
criterion_main!(benches);
