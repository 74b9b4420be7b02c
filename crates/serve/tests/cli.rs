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

/// The value of the unlabelled series `name` in an exposition.
fn gauge(exposition: &str, name: &str) -> f64 {
    let prefix = format!("{name} ");
    let line = exposition.lines().find(|l| l.starts_with(&prefix));
    let line = line.unwrap_or_else(|| panic!("no {name} series in:\n{exposition}"));
    line[prefix.len()..].parse().expect("numeric sample")
}

#[test]
fn serve_cli_classify_metrics_out_writes_exposition_text() {
    // Classify one app's traffic with metrics, once compiling the index
    // from the corpus and once loading it from an archive, so the
    // instruments flow through the CLI surface in both index modes.
    let tmp = std::env::temp_dir();
    let id = std::process::id();
    let traffic = tmp.join(format!("extractocol-serve-cli-metrics-traffic-{id}.txt"));
    let archive = tmp.join(format!("extractocol-serve-cli-metrics-{id}.exsv"));
    let metrics_path = tmp.join(format!("extractocol-serve-cli-metrics-{id}.txt"));
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    std::fs::write(&traffic, extractocol_dynamic::run_perfect_fuzzer(&app).to_request_text())
        .unwrap();
    let out = serve_cli()
        .args(["compile", "--app", "radio reddit", "--out"])
        .arg(&archive)
        .output()
        .expect("run compile");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let classify = |source: &[&std::ffi::OsStr]| {
        let out = serve_cli()
            .arg("classify")
            .args(source)
            .arg("--traffic")
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
            "serve_phase_load_seconds",
            "serve_phase_compile_seconds",
            "serve_phase_classify_seconds",
        ] {
            assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
        }
        assert!(gauge(&metrics, "serve_phase_classify_seconds") > 0.0, "{metrics}");
        metrics
    };

    // From sources: analysis + compile is timed, nothing is loaded.
    let compiled = classify(&["--app".as_ref(), "radio reddit".as_ref()]);
    assert!(gauge(&compiled, "serve_phase_compile_seconds") > 0.0, "{compiled}");
    assert_eq!(gauge(&compiled, "serve_phase_load_seconds"), 0.0, "{compiled}");

    // From an archive: the load is timed, nothing is compiled.
    let loaded = classify(&["--index".as_ref(), archive.as_os_str()]);
    assert!(gauge(&loaded, "serve_phase_load_seconds") > 0.0, "{loaded}");
    assert_eq!(gauge(&loaded, "serve_phase_compile_seconds"), 0.0, "{loaded}");

    for p in [traffic, archive, metrics_path] {
        let _ = std::fs::remove_file(p);
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

/// The usage text `extractocol-serve` prints on a malformed command line
/// and on `--help`, byte for byte.
const USAGE: &str =
    "usage: extractocol-serve compile (--report <app.jimple> ... | --corpus | --app <name>) \
     --out <index.exsv> [--jobs <n>]\n       \
     extractocol-serve classify (--index <index.exsv> | --report <app.jimple> ... | \
     --corpus | --app <name>) --traffic <file> [--jobs <n>] [--json] \
     [--metrics-out <file>] [--trace-out <file>]\n       \
     extractocol-serve daemon --index <index.exsv> (--stdin | --listen <addr>) \
     [--port-file <file>] [--metrics-out <file>] [--trace-out <file>] \
     [--log-out <file>] [--log-level trace|debug|info|warn|error]\n       \
     extractocol-serve send (--addr <host:port> | --port-file <file>) --traffic <file>\n       \
     extractocol-serve scrape (--addr <host:port> | --port-file <file>) \
     --verb METRICS|HEALTH|SLOW|STATS [--out <file>]\n       \
     extractocol-serve attack [--index <index.exsv>] [--seed <n>] [--per-class <n>] \
     [--jobs <n>] [--out <file>] [--metrics-out <file>] [--json]\n";

/// Runs `extractocol-serve args` and checks its exit code and exact
/// stderr, with nothing on stdout.
fn assert_exit(args: &[&str], code: i32, stderr: &str) {
    let out = serve_cli().args(args).output().expect("run extractocol-serve");
    assert_eq!(out.status.code(), Some(code), "exit code of {args:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "stderr of {args:?}");
    assert!(out.stdout.is_empty(), "stdout of {args:?}");
}

#[test]
fn serve_cli_usage_contract() {
    assert_exit(&["--help"], 0, USAGE);
    assert_exit(&["-h"], 0, USAGE);
    assert_exit(&[], 2, USAGE);
    assert_exit(&["bogus"], 2, USAGE);
    // Every subcommand: an unknown flag is a usage error, `--help` the
    // help.
    for sub in ["compile", "classify", "daemon", "send", "scrape", "attack"] {
        assert_exit(&[sub, "--bogus"], 2, USAGE);
        assert_exit(&[sub, "--help"], 0, USAGE);
        assert_exit(&[sub, "-h"], 0, USAGE);
    }
    // `--help`/`-h` in a flag's value position is the help too, not a
    // value that a later check rejects.
    assert_exit(&["scrape", "--verb", "-h", "--addr", "127.0.0.1:1"], 0, USAGE);
    assert_exit(&["compile", "--out", "--help", "--corpus"], 0, USAGE);
    // A value flag with no value.
    assert_exit(&["compile", "--corpus", "--out"], 2, USAGE);
    assert_exit(&["classify", "--corpus", "--traffic"], 2, USAGE);
    assert_exit(&["daemon", "--stdin", "--index"], 2, USAGE);
    assert_exit(&["daemon", "--index", "ix.exsv", "--log-level", "loud"], 2, USAGE);
    assert_exit(&["send", "--addr", "127.0.0.1:1", "--traffic"], 2, USAGE);
    assert_exit(&["scrape", "--addr", "127.0.0.1:1", "--verb"], 2, USAGE);
    assert_exit(&["attack", "--out"], 2, USAGE);
    // A non-numeric number.
    assert_exit(&["compile", "--corpus", "--jobs", "x"], 2, USAGE);
    assert_exit(&["classify", "--corpus", "--jobs", "x"], 2, USAGE);
    assert_exit(&["attack", "--jobs", "x"], 2, USAGE);
    assert_exit(&["attack", "--seed", "x"], 2, USAGE);
    assert_exit(&["attack", "--per-class", "x"], 2, USAGE);
    // Missing or conflicting required flags.
    assert_exit(&["compile", "--corpus"], 2, USAGE);
    assert_exit(&["classify", "--traffic", "t.txt"], 2, USAGE);
    assert_exit(&["daemon", "--index", "ix.exsv"], 2, USAGE);
    assert_exit(&["send", "--traffic", "t.txt"], 2, USAGE);
    assert_exit(
        &["classify", "--index", "ix.exsv", "--corpus", "--traffic", "t.txt"],
        2,
        &format!("extractocol-serve: --index excludes --report/--corpus/--app\n{USAGE}"),
    );
    assert_exit(
        &["scrape", "--addr", "127.0.0.1:1", "--verb", "SHUTDOWN"],
        2,
        &format!("extractocol-serve: scrape verb must be METRICS|HEALTH|SLOW|STATS|PING\n{USAGE}"),
    );
    // A failed run: `<tool>: <message>` and exit 1.
    assert_exit(
        &["send", "--addr", "127.0.0.1:1", "--traffic", "/nonexistent/t.txt"],
        1,
        "extractocol-serve: cannot read /nonexistent/t.txt: No such file or directory (os error 2)\n",
    );
}
