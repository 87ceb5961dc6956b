//! Every workload at the smoke scale (about a fiftieth of the real sizes),
//! through the same binary and flags the driver uses: the names printed
//! are exactly the names `BENCHMARK.json` declares, and the seed reaches
//! the inputs without changing the names.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use pado_perf::metrics::{Decl, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The value of `"field"` in the flat JSON object `object`, quotes dropped.
fn field(object: &str, field: &str) -> String {
    let key = format!("\"{field}\":");
    let rest = object[object
        .find(&key)
        .unwrap_or_else(|| panic!("no {field} in {object}"))
        + key.len()..]
        .trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    match rest.strip_prefix('"') {
        Some(quoted) => quoted[..quoted.find('"').expect("closing quote")].to_string(),
        None => rest[..end].trim().to_string(),
    }
}

/// The objects of the array under `"key"`; none of them nests another.
fn objects(key: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key}"));
    let array = &BENCHMARK_JSON[start..];
    let array = &array[..array.find(']').expect("closing bracket")];
    array
        .split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("closing brace")])
        .collect()
}

fn declared(key: &str) -> Vec<(String, String, String)> {
    objects(key)
        .iter()
        .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
        .collect()
}

fn owned(decls: &[Decl]) -> Vec<(String, String, String)> {
    decls
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_binary_prints() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = objects("workloads")
        .iter()
        .map(|o| field(o, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        field(BENCHMARK_JSON, "run_seconds").parse::<f64>().unwrap(),
        RUN_SECONDS
    );
    for metric in objects("end_to_end") {
        let bound: f64 = field(metric, "bound").parse().unwrap();
        assert!(bound > 0.0, "{metric}");
    }
}

struct Report {
    /// `inputs=` of the header line.
    inputs: String,
    /// Names in the result line's `metrics`, in order.
    names: Vec<String>,
    /// Names the table prints a measured value for.
    measured: BTreeSet<String>,
}

/// One smoke run of the binary, as the driver would start it.
fn run(workload: &str, seed: u64, trace: bool) -> Report {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    let done = Command::new(env!("CARGO_BIN_EXE_pado-perf"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary starts");
    let text = String::from_utf8_lossy(&done.stdout).into_owned();
    assert!(
        done.status.success(),
        "{workload} exited {:?}:\n{text}",
        done.status.code()
    );
    let result = text.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{result}"
    );
    assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
    let names = result
        .split("\": {\"value\": ")
        .filter_map(|before| before.rsplit('"').next())
        .map(str::to_string)
        .collect::<Vec<_>>();
    // The last piece is what follows the last value, not a name.
    let names = names[..names.len() - 1].to_vec();
    let inputs = text
        .split_whitespace()
        .find_map(|w| w.strip_prefix("inputs="))
        .expect("inputs= in the header")
        .to_string();
    let decls = if trace { PER_LAYER } else { END_TO_END };
    let measured = text
        .lines()
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            let name = words.next()?;
            let value = words.next()?;
            (decls.iter().any(|d| d.0 == name) && value.parse::<f64>().is_ok())
                .then(|| name.to_string())
        })
        .collect();
    if trace {
        assert!(
            out.join(format!("trace-{workload}.json")).is_file(),
            "no trace for {workload}"
        );
    }
    Report {
        inputs,
        names,
        measured,
    }
}

fn names_of(decls: &[Decl]) -> Vec<String> {
    decls.iter().map(|d| d.0.to_string()).collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_names_and_follows_its_seed() {
    let mut reached = BTreeSet::new();
    for workload in WORKLOADS {
        let first = run(workload, 1, false);
        let second = run(workload, 2, false);
        assert_eq!(first.names, names_of(END_TO_END), "{workload}");
        assert_eq!(
            second.names, first.names,
            "{workload}: the seed changed the names"
        );
        assert_ne!(
            second.inputs, first.inputs,
            "{workload}: the seed did not reach the inputs"
        );
        assert_eq!(
            run(workload, 1, false).inputs,
            first.inputs,
            "{workload}: same seed, other inputs"
        );
        assert_eq!(
            first.measured.len(),
            END_TO_END.len(),
            "{workload} bypassed an end-to-end metric"
        );
        let traced = run(workload, 1, true);
        assert_eq!(traced.names, names_of(PER_LAYER), "{workload}");
        reached.extend(traced.measured);
    }
    let every: BTreeSet<String> = names_of(PER_LAYER).into_iter().collect();
    assert_eq!(reached, every, "a per-layer metric no workload measures");
}
