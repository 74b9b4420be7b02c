//! Runs every workload through the library entry point with a short
//! measured phase and checks the benchmark against `BENCHMARK.json`:
//! every declared metric is emitted with its unit, the deterministic
//! counts repeat for a seed and across seeds, the seed changes only the
//! input order, and every run passes its correctness checks — for a
//! traced run these include each exercised layer reporting above 0, so a
//! renamed pipeline span fails here.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use extractocol_benchmark::{run, Outcome, RunConfig, Workload, END_TO_END, PER_LAYER};
use extractocol_http::JsonValue;
use std::path::PathBuf;
use std::time::Duration;

fn config(workload: Workload, seed: u64, trace: bool, tag: &str) -> RunConfig {
    RunConfig {
        workload,
        seed,
        measure: Duration::from_millis(300),
        trace,
        cache_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-{tag}", workload.name())),
    }
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("{key} in {v:?}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let Some(JsonValue::Array(items)) = json.get(section) else { panic!("{section} array") };
    items
        .iter()
        .map(|m| (str_field(m, "name").to_string(), str_field(m, "unit").to_string()))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_emits() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let json = benchmark_json();
    let Some(JsonValue::Array(workloads)) = json.get("workloads") else { panic!("workloads") };
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    let emitted: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, emitted);
}

/// The result line parses and carries exactly `expected`, each with
/// its unit and a finite value.
fn assert_reports(outcome: &Outcome, expected: &[(&str, &str)]) {
    let line = JsonValue::parse(&outcome.to_json_line()).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)), "{:?}", outcome.notes);
    assert_eq!(line.get("failed").and_then(JsonValue::as_num), Some(0.0));
    assert!(line.get("attempted").and_then(JsonValue::as_num).is_some_and(|n| n >= 1.0));
    let metrics = line.get("metrics").expect("metrics object");
    for (name, unit) in expected {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(str_field(m, "unit"), *unit, "{name}");
        let v = m.get("value").and_then(JsonValue::as_num).expect("numeric value");
        assert!(v.is_finite(), "{name} = {v}");
    }
    let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
}

fn check_workload(workload: Workload) {
    let a = run(&config(workload, 7, false, "a"));
    let b = run(&config(workload, 7, false, "b"));
    let c = run(&config(workload, 8, false, "c"));
    for o in [&a, &b, &c] {
        assert_reports(o, END_TO_END);
        for (name, value) in &o.metrics {
            assert!(*value > 0.0, "{}: end-to-end metric {name} is {value}", workload.name());
        }
    }
    assert!(!a.counts.is_empty());
    assert_eq!(a.counts, b.counts, "same seed, same counts");
    assert_eq!(a.counts, c.counts, "another seed, same counts");
    assert_eq!(a.order_digest, b.order_digest, "same seed, same order");
    assert_ne!(a.order_digest, c.order_digest, "another seed, another order");

    let traced = run(&config(workload, 7, true, "t"));
    assert_reports(&traced, PER_LAYER);
    assert_eq!(traced.counts, a.counts);
}

#[test]
fn analyze_cold() {
    check_workload(Workload::AnalyzeCold);
}

#[test]
fn analyze_incremental() {
    check_workload(Workload::AnalyzeIncremental);
}

#[test]
fn classify_uri() {
    check_workload(Workload::ClassifyUri);
}

#[test]
fn classify_body() {
    check_workload(Workload::ClassifyBody);
}

#[test]
fn daemon_tcp() {
    check_workload(Workload::DaemonTcp);
}
