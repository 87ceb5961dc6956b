//! End-to-end integration tests: the three paper workloads executed for
//! real by the in-process Pado runtime, checked against single-threaded
//! references — with and without container evictions.

use pado::core::runtime::{FaultPlan, LocalCluster};
use pado::workloads::{als, mlr, mr, AlsConfig, MlrConfig, MrConfig};

fn assert_vec_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

#[test]
fn map_reduce_matches_reference() {
    let cfg = MrConfig::default();
    let result = LocalCluster::new(4, 2).run(&mr::dag(&cfg)).unwrap();
    let got = mr::result_to_map(&result.outputs["Out"]);
    assert_eq!(got, mr::reference(&cfg));
}

#[test]
fn map_reduce_matches_reference_under_evictions() {
    let cfg = MrConfig {
        records: 4_000,
        partitions: 12,
        ..MrConfig::default()
    };
    let faults = FaultPlan {
        evictions: vec![(2, 0), (5, 1), (9, 0)],
        ..Default::default()
    };
    let result = LocalCluster::new(4, 2)
        .run_with_faults(&mr::dag(&cfg), faults)
        .unwrap();
    let got = mr::result_to_map(&result.outputs["Out"]);
    assert_eq!(got, mr::reference(&cfg));
    assert_eq!(result.metrics.evictions, 3);
    assert!(result.metrics.relaunched_tasks > 0 || result.metrics.evictions > 0);
}

#[test]
fn mlr_matches_reference() {
    let cfg = MlrConfig::default();
    let result = LocalCluster::new(4, 2).run(&mlr::dag(&cfg)).unwrap();
    let out = &result.outputs["Model Out"];
    assert_eq!(out.len(), 1);
    let got = out[0].as_vector().unwrap();
    let want = mlr::reference(&cfg);
    assert_vec_close(got, &want, 1e-9, "model");
}

#[test]
fn mlr_matches_reference_under_evictions() {
    let cfg = MlrConfig {
        iterations: 4,
        ..MlrConfig::default()
    };
    let faults = FaultPlan {
        evictions: vec![(3, 0), (8, 1), (14, 0), (20, 1)],
        ..Default::default()
    };
    let result = LocalCluster::new(3, 2)
        .run_with_faults(&mlr::dag(&cfg), faults)
        .unwrap();
    let got = result.outputs["Model Out"][0].as_vector().unwrap().to_vec();
    let want = mlr::reference(&cfg);
    assert_vec_close(&got, &want, 1e-9, "model under evictions");
    assert_eq!(result.metrics.evictions, 4);
}

#[test]
fn mlr_learns() {
    let cfg = MlrConfig {
        iterations: 20,
        ..MlrConfig::default()
    };
    let result = LocalCluster::new(4, 2).run(&mlr::dag(&cfg)).unwrap();
    let model = result.outputs["Model Out"][0].as_vector().unwrap().to_vec();
    assert!(mlr::accuracy(&cfg, &model) > 0.9);
}

#[test]
fn als_matches_reference() {
    let cfg = AlsConfig::default();
    let result = LocalCluster::new(4, 2).run(&als::dag(&cfg)).unwrap();
    let got = als::result_to_map(&result.outputs["Factors Out"]);
    let want = als::reference(&cfg);
    assert_eq!(got.len(), want.len());
    for (k, v) in &want {
        assert_vec_close(&got[k], v, 1e-9, "item factor");
    }
}

#[test]
fn als_matches_reference_under_evictions() {
    let cfg = AlsConfig {
        iterations: 3,
        ..AlsConfig::default()
    };
    let faults = FaultPlan {
        evictions: vec![(4, 0), (11, 1), (19, 2), (30, 0)],
        ..Default::default()
    };
    let result = LocalCluster::new(4, 2)
        .run_with_faults(&als::dag(&cfg), faults)
        .unwrap();
    let got = als::result_to_map(&result.outputs["Factors Out"]);
    let want = als::reference(&cfg);
    assert_eq!(got.len(), want.len());
    for (k, v) in &want {
        assert_vec_close(&got[k], v, 1e-9, "item factor under evictions");
    }
    assert_eq!(result.metrics.evictions, 4);
}

#[test]
fn als_factorization_fits_ratings() {
    let cfg = AlsConfig {
        iterations: 5,
        ..AlsConfig::default()
    };
    let result = LocalCluster::new(4, 2).run(&als::dag(&cfg)).unwrap();
    let got = als::result_to_map(&result.outputs["Factors Out"]);
    assert!(als::rmse(&cfg, &got) < 0.25);
}

#[test]
fn master_failure_resumes_from_the_wal() {
    let cfg = MrConfig {
        records: 3_000,
        partitions: 10,
        ..MrConfig::default()
    };
    let faults = FaultPlan {
        master_failure_after: Some(7),
        ..Default::default()
    };
    let result = LocalCluster::new(4, 2)
        .run_with_faults(&mr::dag(&cfg), faults)
        .unwrap();
    let got = mr::result_to_map(&result.outputs["Out"]);
    assert_eq!(got, mr::reference(&cfg));
}

#[test]
fn reserved_failure_recomputes_ancestor_stages() {
    let cfg = MlrConfig {
        iterations: 3,
        ..MlrConfig::default()
    };
    let faults = FaultPlan {
        reserved_failures: vec![(10, 0)],
        ..Default::default()
    };
    let result = LocalCluster::new(3, 2)
        .run_with_faults(&mlr::dag(&cfg), faults)
        .unwrap();
    let got = result.outputs["Model Out"][0].as_vector().unwrap().to_vec();
    let want = mlr::reference(&cfg);
    assert_vec_close(&got, &want, 1e-9, "model after reserved failure");
    assert_eq!(result.metrics.reserved_failures, 1);
}

#[test]
fn combined_faults_still_produce_correct_results() {
    let cfg = MrConfig {
        records: 3_000,
        partitions: 12,
        ..MrConfig::default()
    };
    let faults = FaultPlan {
        evictions: vec![(2, 0), (6, 1)],
        reserved_failures: vec![(4, 0)],
        ..Default::default()
    };
    let result = LocalCluster::new(4, 3)
        .run_with_faults(&mr::dag(&cfg), faults)
        .unwrap();
    let got = mr::result_to_map(&result.outputs["Out"]);
    assert_eq!(got, mr::reference(&cfg));
}

#[test]
fn partial_aggregation_does_not_change_results() {
    let cfg = MrConfig::default();
    let config = pado::core::runtime::RuntimeConfig {
        partial_aggregation: false,
        ..Default::default()
    };
    let without = LocalCluster::new(4, 2)
        .with_config(config)
        .run(&mr::dag(&cfg))
        .unwrap();
    let with = LocalCluster::new(4, 2).run(&mr::dag(&cfg)).unwrap();
    assert_eq!(
        mr::result_to_map(&without.outputs["Out"]),
        mr::result_to_map(&with.outputs["Out"])
    );
    assert!(with.metrics.records_preaggregated > 0);
}

#[test]
fn caching_saves_side_input_bytes_on_iterative_jobs() {
    let cfg = MlrConfig {
        iterations: 6,
        ..MlrConfig::default()
    };
    // One slot per executor forces several waves of gradient tasks per
    // iteration; waves after the first find the model already cached.
    let config = pado::core::runtime::RuntimeConfig {
        slots_per_executor: 1,
        ..Default::default()
    };
    let result = LocalCluster::new(2, 1)
        .with_config(config)
        .run(&mlr::dag(&cfg))
        .unwrap();
    assert!(
        result.metrics.cache_hits > 0,
        "repeated gradient tasks on the same executor should hit the model cache"
    );
    assert!(result.metrics.side_bytes_saved > 0);
}
