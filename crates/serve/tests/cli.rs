//! End-to-end tests of the `extractocol-serve` binary: classify traffic
//! files against corpus, `.jimple` and archived indexes, and round-trip
//! an index through `compile --out` then `classify --index`.

use std::process::Command;

fn serve_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_extractocol-serve"))
}

fn write_app(name: &str) -> std::path::PathBuf {
    let app = extractocol_corpus::app(name).expect("corpus app");
    let mut path = std::env::temp_dir();
    path.push(format!("extractocol-serve-cli-{}.jimple", name.replace(' ', "-")));
    std::fs::write(&path, extractocol_ir::printer::print_apk(&app.apk)).expect("write");
    path
}

#[test]
fn serve_cli_classifies_a_traffic_file() {
    // Serialize an app's own fuzzer traffic to the wire format and
    // classify it against that app's signatures — everything must match
    // and carry provenance.
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let trace = extractocol_dynamic::run_perfect_fuzzer(&app);
    let mut traffic = std::env::temp_dir();
    traffic.push("extractocol-serve-cli-traffic.txt");
    std::fs::write(&traffic, trace.to_request_text()).unwrap();

    let out = serve_cli()
        .args(["classify", "--app", "radio reddit", "--traffic"])
        .arg(&traffic)
        .output()
        .expect("run extractocol-serve");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-> radio reddit #"), "{stdout}");
    assert!(stdout.contains("unmatched:         0"), "{stdout}");

    // JSON mode carries the same verdicts, machine-readably.
    let out = serve_cli()
        .args(["classify", "--app", "radio reddit", "--json", "--traffic"])
        .arg(&traffic)
        .output()
        .expect("run extractocol-serve");
    assert!(out.status.success());
    let v = extractocol_http::JsonValue::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("well-formed JSON");
    assert_eq!(v.get("unmatched").and_then(|n| n.as_num()), Some(0.0));
    let row = v.get("verdicts").unwrap().at(0).unwrap();
    assert_eq!(row.get("app").unwrap().as_str(), Some("radio reddit"));
    assert!(row.get("dp").is_some(), "provenance includes the DP class");
}

#[test]
fn serve_cli_classifies_jimple_reports_and_flags_foreign_traffic() {
    let apk_path = write_app("blippex");
    let mut traffic = std::env::temp_dir();
    traffic.push("extractocol-serve-cli-foreign.txt");
    std::fs::write(
        &traffic,
        "# one request the app never sends\nGET\thttp://nowhere.example/zzz\n",
    )
    .unwrap();
    let out = serve_cli()
        .args(["classify", "--report"])
        .arg(&apk_path)
        .arg("--traffic")
        .arg(&traffic)
        .output()
        .expect("run extractocol-serve");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-> unmatched"), "{stdout}");
    assert!(stdout.contains("matched:           0"), "{stdout}");
}

#[test]
fn serve_cli_rejects_malformed_traffic() {
    let mut traffic = std::env::temp_dir();
    traffic.push("extractocol-serve-cli-bad.txt");
    std::fs::write(&traffic, "FETCH http://h/x\n").unwrap();
    let out = serve_cli()
        .args(["classify", "--app", "blippex", "--traffic"])
        .arg(&traffic)
        .output()
        .expect("run extractocol-serve");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"), "line-anchored error");
}

#[test]
fn serve_cli_bench_metrics_out_writes_exposition_text() {
    // Smallest possible bench: classify with metrics against one app, so
    // the latency/candidate instruments flow through the CLI surface.
    let traffic = {
        let app = extractocol_corpus::app("radio reddit").expect("corpus app");
        let trace = extractocol_dynamic::run_perfect_fuzzer(&app);
        let mut p = std::env::temp_dir();
        p.push("extractocol-serve-cli-metrics-traffic.txt");
        std::fs::write(&p, trace.to_request_text()).unwrap();
        p
    };
    let mut metrics_path = std::env::temp_dir();
    metrics_path.push("extractocol-serve-cli-metrics.txt");
    let out = serve_cli()
        .args(["classify", "--app", "radio reddit", "--traffic"])
        .arg(&traffic)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .output()
        .expect("run extractocol-serve");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
    for family in [
        "serve_classify_requests_total",
        "serve_classify_verdict_total",
        "serve_classify_candidate_fraction_bucket",
        "serve_classify_latency_us_bucket",
        "serve_index_signatures",
        "serve_phase_compile_seconds",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }
}

#[test]
fn serve_cli_compile_then_classify_index_round_trips() {
    let tmp = std::env::temp_dir();
    let archive = tmp.join(format!("extractocol-archive-cli-{}.exsv", std::process::id()));
    let traffic = tmp.join(format!("extractocol-archive-cli-{}.txt", std::process::id()));
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let trace = extractocol_dynamic::run_perfect_fuzzer(&app);
    std::fs::write(&traffic, trace.to_request_text()).unwrap();

    let out = serve_cli()
        .args(["compile", "--app", "radio reddit", "--out"])
        .arg(&archive)
        .output()
        .expect("run compile");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("compiled"), "compile output");

    let out = serve_cli()
        .args(["classify", "--index"])
        .arg(&archive)
        .arg("--traffic")
        .arg(&traffic)
        .output()
        .expect("run classify --index");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-> radio reddit #"), "{stdout}");
    assert!(stdout.contains("unmatched:         0"), "{stdout}");

    // A corrupted archive is refused with the typed error on stderr.
    let mut bytes = std::fs::read(&archive).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&archive, &bytes).unwrap();
    let out = serve_cli()
        .args(["classify", "--index"])
        .arg(&archive)
        .arg("--traffic")
        .arg(&traffic)
        .output()
        .expect("run classify --index (corrupt)");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_file(&archive);
    let _ = std::fs::remove_file(&traffic);
}
