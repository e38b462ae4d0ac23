//! Smoke-size self-test of the harness: every part at probe size, both
//! passes of a traced run, and the output contract against
//! `BENCHMARK.json` (every listed metric present, finite, in its unit).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use iabc_serve::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the harness and returns its exit status and parsed last line.
fn run(workload: &str, trace: &str) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("run the harness");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        json::parse(last).expect("the last line is JSON"),
    )
}

/// Asserts the result is correct and carries every metric of `section`.
fn assert_contract(result: &Json, section: &str) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = result.get("metrics").expect("metrics object");
    let spec = benchmark_json();
    for m in spec
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
    {
        let name = m.get("name").and_then(Json::as_str).expect("metric name");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("missing metric {name}"));
        let value = got.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
        assert_eq!(
            got.get("unit").and_then(Json::as_str),
            m.get("unit").and_then(Json::as_str),
            "{name}"
        );
    }
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let (ok, result) = run("serve-mix", "0");
    assert!(ok, "harness exit status");
    assert_contract(&result, "end_to_end");
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let (ok, result) = run("deploy", "1");
    assert!(ok, "harness exit status");
    assert_contract(&result, "per_layer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run the harness");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
