//! The benchmark's own checks: tiny runs of every workload print every
//! metric `BENCHMARK.json` names, with its unit and no failures; a new
//! seed changes the inputs but not the metric names; a corrupted
//! reference is caught.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mobicore_telemetry::Json;
use std::path::Path;
use std::process::Command;

/// `BENCHMARK.json` at the repository root.
fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(doc: &Json) -> Vec<String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// One tiny run: (run-facts object, result object).
fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", &trace.to_string(), "--tiny"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: {stdout}");
    let facts = Json::parse(lines[lines.len() - 2]).expect("run-facts line parses");
    let result = Json::parse(lines[lines.len() - 1]).expect("result line parses");
    (facts.get("run").cloned().expect("run facts"), result)
}

fn metrics(result: &Json) -> Vec<(String, String, f64)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(k, v)| {
            let unit = v
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            let value = v.get("value").and_then(Json::as_f64).expect("value");
            (k.clone(), unit, value)
        })
        .collect()
}

fn counts(result: &Json) -> (u64, u64) {
    let n = |k| result.get(k).and_then(Json::as_u64).expect("count");
    (n("attempted"), n("failed"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_no_failures() {
    let doc = benchmark();
    for w in workloads(&doc) {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (_, result) = run(&w, 1, trace, &[]);
            let got = metrics(&result);
            let want = names(&doc, key);
            let got_names: Vec<(String, String)> =
                got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
            assert_eq!(got_names, want, "{w} trace {trace}");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            let (attempted, failed) = counts(&result);
            assert!(attempted >= 1 && failed == 0, "{w} trace {trace}");
            for (name, _, value) in &got {
                assert!(value.is_finite(), "{w} {name}");
            }
            if trace == 0 {
                assert!(
                    got.iter().all(|m| m.2 > 0.0),
                    "{w}: end-to-end metrics are never 0"
                );
            } else {
                let frac = got
                    .iter()
                    .find(|m| m.0 == "failed_frac")
                    .expect("failed_frac");
                assert_eq!(frac.2, 0.0, "{w}");
            }
        }
    }
}

#[test]
fn a_new_seed_changes_the_inputs_but_not_the_metric_names() {
    let doc = benchmark();
    for w in workloads(&doc) {
        let (facts1, result1) = run(&w, 1, 0, &[]);
        let (facts2, result2) = run(&w, 2, 0, &[]);
        let digest = |f: &Json| {
            f.get("input_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert!(digest(&facts1).is_some(), "{w}");
        assert_ne!(
            digest(&facts1),
            digest(&facts2),
            "{w}: seeds 1 and 2 give the same inputs"
        );
        let names = |r: &Json| metrics(r).into_iter().map(|m| m.0).collect::<Vec<_>>();
        assert_eq!(names(&result1), names(&result2), "{w}");
    }
}

#[test]
fn a_corrupted_reference_drives_failures_above_zero() {
    let doc = benchmark();
    for w in workloads(&doc) {
        let (_, result) = run(&w, 1, 0, &["--corrupt-reference"]);
        let (attempted, failed) = counts(&result);
        assert!(
            failed > 0 && failed <= attempted,
            "{w}: the checks missed a corrupted reference"
        );
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    }
    let (_, traced) = run("fleet-idle", 1, 1, &["--corrupt-reference"]);
    let frac = metrics(&traced).into_iter().find(|m| m.0 == "failed_frac");
    assert!(
        frac.is_some_and(|m| m.2 > 0.0),
        "the traced composition missed it"
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        vec!["--workload", "no-such-path"],
        vec!["--workload", "device-busy", "--trace", "2"],
        vec!["--workload", "device-busy", "--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
