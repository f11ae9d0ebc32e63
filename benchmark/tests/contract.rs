//! The contract between `BENCHMARK.json`, the metric catalogue and what a
//! run actually prints.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use btadt_bench::json::{parse, Json};
use btadt_benchmark::metrics::{END_TO_END, PER_LAYER};
use btadt_benchmark::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn keys(value: &Json) -> BTreeSet<String> {
    match value {
        Json::Object(map) => map.keys().cloned().collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn str_of<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {value:?}"))
}

fn set(items: &[&str]) -> BTreeSet<String> {
    items.iter().map(|s| s.to_string()).collect()
}

#[test]
fn benchmark_json_has_the_contract_shape_and_matches_the_catalogue() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        set(&[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let paths = doc.get("paths").and_then(Json::as_array).expect("paths");
    assert_eq!(paths, [Json::String("benchmark".into())]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), set(&["name", "why"]));
        let why = str_of(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let e2e = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, def) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), set(&["name", "unit", "better", "bound"]));
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "unit"), def.unit);
        assert_eq!(str_of(entry, "better"), def.better.word());
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(def.bound));
    }
    let layers = doc
        .get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, def) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), set(&["name", "unit", "better"]));
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "unit"), def.unit);
        assert_eq!(str_of(entry, "better"), def.better.word());
    }
}

/// Runs the binary as the driver does and returns the parsed last line.
fn drive(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
        ])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn assert_result(result: &Json, names: &[(&str, &str)], nonzero: bool) {
    assert_eq!(
        keys(result),
        set(&["correct", "attempted", "failed", "metrics"])
    );
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result.get("metrics").expect("metrics");
    let expected: BTreeSet<String> = names.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(
        keys(metrics),
        expected,
        "every metric, no more and no fewer"
    );
    for (name, unit) in names {
        let m = metrics.get(name).expect("present");
        assert_eq!(keys(m), set(&["value", "unit"]));
        assert_eq!(str_of(m, "unit"), *unit, "{name}");
        let value = m.get("value").and_then(Json::as_f64).expect("a number");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(!nonzero || value > 0.0, "{name} = {value}");
    }
}

#[test]
fn every_workload_prints_exactly_the_end_to_end_metrics() {
    let names: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for workload in WORKLOADS {
        assert_result(&drive(workload, "0"), &names, true);
    }
}

#[test]
fn every_workload_prints_exactly_the_per_layer_metrics_when_traced() {
    let names: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for workload in WORKLOADS {
        assert_result(&drive(workload, "1"), &names, false);
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.json"));
        let spans = parse(&std::fs::read_to_string(&trace).expect("the span file was written"))
            .expect("the span file is JSON");
        let spans = spans.get("spans").and_then(Json::as_array).expect("spans");
        assert!(!spans.is_empty(), "{workload} recorded spans");
        assert_eq!(
            keys(&spans[0]),
            set(&["name", "start_ns", "end_ns", "parent", "rep", "thread"])
        );
    }
}

#[test]
fn bad_invocations_and_stalls_exit_non_zero_without_a_result() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary starts")
    };
    let unknown = run(&["run", "--workload", "nope"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(unknown.stdout.is_empty());
    // The watchdog: a wall cap the workload cannot meet.
    let stalled = run(&[
        "run",
        "--workload",
        "ingest_forkdense",
        "--wall-cap",
        "0.05",
    ]);
    assert_eq!(stalled.status.code(), Some(3));
    assert!(stalled.stdout.is_empty());
    assert!(String::from_utf8_lossy(&stalled.stderr).contains("counts as failed"));
}
