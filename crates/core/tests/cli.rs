//! End-to-end CLI test: serialize a corpus app to the text IR format,
//! run the `extractocol` binary on it, and check the report — the full
//! text-in/analysis-out loop a standalone user would drive.

use std::io::Write;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_extractocol"))
}

/// Writes `name` to a temp file of its own: tests run in parallel, and a
/// path shared between two of them lets one truncate the file while the
/// other's CLI run reads it.
fn write_app(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let app = extractocol_corpus::app(name).expect("corpus app");
    let txt = extractocol_ir::printer::print_apk(&app.apk);
    let mut path = std::env::temp_dir();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    path.push(format!("extractocol-cli-{n}-{}.jimple", name.replace(' ', "-")));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(txt.as_bytes()).expect("write");
    path
}

#[test]
fn cli_analyzes_a_serialized_app() {
    let path = write_app("radio reddit");
    let out = cli().arg(&path).output().expect("run extractocol");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("6 transactions"), "{stdout}");
    assert!(stdout.contains("api/login"), "{stdout}");
    assert!(stdout.contains("dependency graph"), "{stdout}");
}

#[test]
fn cli_regex_mode_prints_one_signature_per_line() {
    let path = write_app("blippex");
    let out = cli().arg(&path).arg("--regex").output().expect("run extractocol");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(lines[0].starts_with("GET "), "{stdout}");
    assert!(lines[0].contains("blippex"), "{stdout}");
}

#[test]
fn cli_scope_filters_demarcation_points() {
    let path = write_app("radio reddit");
    let out = cli()
        .arg(&path)
        .args(["--regex", "--scope", "com.nonexistent"])
        .output()
        .expect("run extractocol");
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "scoped-out analysis must be empty");
}

#[test]
fn cli_json_export_parses() {
    let path = write_app("radio reddit");
    let out = cli().arg(&path).arg("--json").output().expect("run extractocol");
    assert!(out.status.success());
    let v = extractocol_http::JsonValue::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("well-formed JSON");
    assert_eq!(v.get("app").unwrap().as_str(), Some("radio reddit"));
    let txns = v.get("transactions").unwrap();
    assert!(txns.at(5).is_some(), "six transactions exported");
    assert!(v.get("dependencies").unwrap().at(0).is_some(), "dependency edges exported");
}

#[test]
fn cli_jobs_flag_changes_nothing_but_the_worker_count() {
    let path = write_app("radio reddit");
    let table = |jobs: &str| {
        let out = cli().arg(&path).args(["--jobs", jobs]).output().expect("run extractocol");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let seq = table("1");
    assert!(seq.contains("1 worker(s)"), "{seq}");
    assert!(seq.contains("summary cache"), "{seq}");
    let par = table("4");
    assert!(par.contains("4 worker(s)"), "{par}");
    // Everything except the trailing stats lines (duration, workers) is
    // byte-identical across worker counts.
    let body = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("demarcation sites") && !l.contains("worker(s)"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(body(&seq), body(&par), "report differs between --jobs 1 and --jobs 4");
}

#[test]
fn cli_lints_surface_precision_diagnostics_in_stable_order() {
    use extractocol_ir::{ApkBuilder, Type, Value};
    // A small pathological app: a virtual site resolving to nothing, a
    // bodyless library callee no API model covers, and a dead block.
    let mut b = ApkBuilder::new("linty", "com.linty");
    b.class("com.linty.Lib", |c| {
        c.stub_method("mystery", vec![], Type::Void);
    });
    b.class("com.linty.Main", |c| {
        c.method("go", vec![], Type::Void, |m| {
            m.recv("com.linty.Main");
            let lib = m.new_obj("com.linty.Lib", vec![]);
            m.vcall_void(lib, "com.linty.Lib", "mystery", vec![]);
            let ghost = m.temp(Type::object("com.linty.Ghost"));
            m.vcall_void(ghost, "com.linty.Ghost", "haunt", vec![]);
            m.goto("done");
            let dead = m.temp(Type::string());
            m.cstr(dead, "unreachable");
            m.label("done");
            m.ret_void();
        });
    });
    let _ = Value::int(0);
    let txt = extractocol_ir::printer::print_apk(&b.build());
    let mut path = std::env::temp_dir();
    path.push("extractocol-cli-lints.jimple");
    std::fs::write(&path, txt).unwrap();

    let run = || {
        let out = cli().arg(&path).arg("--lints").output().expect("run extractocol");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    for cat in ["unresolved-virtual-site", "model-gap", "dead-block"] {
        assert!(first.contains(cat), "missing {cat} lint:\n{first}");
        assert!(first.contains(&format!("# {cat}: ")), "missing {cat} summary:\n{first}");
    }
    // Stable ordering: the lint section (everything before the report
    // table, which ends with a wall-clock line) renders byte-identically
    // on a second run.
    let lint_section =
        |s: &str| s.lines().take_while(|l| !l.starts_with("==")).collect::<Vec<_>>().join("\n");
    assert_eq!(lint_section(&first), lint_section(&run()), "--lints output must be deterministic");
}

#[test]
fn cli_no_pointsto_keeps_the_protocol_report_identical() {
    let path = write_app("Diode");
    let run = |extra: &[&str]| {
        let out = cli().arg(&path).arg("--regex").args(extra).output().expect("run extractocol");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Devirtualization prunes never-executed callees; the signatures the
    // slices extract must not move.
    assert_eq!(run(&[]), run(&["--no-pointsto"]));
}

#[test]
fn cli_rejects_garbage_input() {
    let mut path = std::env::temp_dir();
    path.push("extractocol-cli-garbage.jimple");
    std::fs::write(&path, "this is not an apk").unwrap();
    let out = cli().arg(&path).output().expect("run extractocol");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
}

#[test]
fn cli_trace_and_metrics_flags_emit_valid_artifacts() {
    let path = write_app("radio reddit");
    let mut trace_path = std::env::temp_dir();
    trace_path.push("extractocol-cli-trace.json");
    let mut metrics_path = std::env::temp_dir();
    metrics_path.push("extractocol-cli-metrics.txt");
    let out = cli()
        .arg(&path)
        .args(["--trace-summary", "--trace-out"])
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .output()
        .expect("run extractocol");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self"), "summary table header present: {stdout}");
    assert!(stdout.contains("slicing"), "phase rows present: {stdout}");

    // The trace artifact passes the strict round-trip validator.
    let json = std::fs::read_to_string(&trace_path).expect("trace written");
    let stats = extractocol_obs::validate_chrome_trace(&json).expect("valid chrome trace");
    assert!(stats.events > 0);
    assert!(stats.max_depth >= 2, "run -> phase -> dp nesting");

    // The metrics artifact is exposition-format text with the pipeline
    // instrument families.
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
    assert!(metrics.contains("# TYPE pipeline_dp_sites_total counter"), "{metrics}");
    assert!(metrics.contains("pipeline_phase_seconds"), "{metrics}");
    assert!(metrics.contains("pipeline_dp_slice_stmts_bucket"), "{metrics}");
}

/// The usage text `extractocol` prints on a malformed command line and
/// on `--help`, byte for byte.
const USAGE: &str = "usage: extractocol <app.jimple> [--regex] [--scope <prefix>] \
     [--json] [--no-async] [--no-augment] [--hops <n>] [--depth <n>] \
     [--jobs <n>] [--lints] [--no-pointsto] [--targeted] \
     [--summary-cache-path <file>] [--no-incremental] \
     [--trace-out <file>] [--trace-summary] [--flame-out <file>] \
     [--metrics-out <file>] [--log-out <file>] [--log-level <level>]\n";

/// Runs `extractocol args` and checks its exit code and exact stderr,
/// with nothing on stdout.
fn assert_exit(args: &[&str], code: i32, stderr: &str) {
    let out = cli().args(args).output().expect("run extractocol");
    assert_eq!(out.status.code(), Some(code), "exit code of {args:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "stderr of {args:?}");
    assert!(out.stdout.is_empty(), "stdout of {args:?}");
}

#[test]
fn cli_usage_contract() {
    assert_exit(&["--bogus"], 2, USAGE);
    assert_exit(&["--scope"], 2, USAGE);
    assert_exit(&["--log-level", "loud"], 2, USAGE);
    assert_exit(&["--jobs", "many"], 2, USAGE);
    assert_exit(&[], 2, USAGE);
    assert_exit(&["--help"], 0, USAGE);
    assert_exit(&["-h"], 0, USAGE);
    assert_exit(&["--scope", "-h"], 0, USAGE);
    assert_exit(
        &["/nonexistent/app.jimple"],
        1,
        "extractocol: cannot read /nonexistent/app.jimple: No such file or directory (os error 2)\n",
    );
}
