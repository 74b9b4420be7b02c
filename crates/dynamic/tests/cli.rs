//! End-to-end tests of the `extractocol-eval` binary: its usage contract
//! and one conformance run over a single corpus app.

use std::process::Command;

fn eval_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_extractocol-eval"))
}

/// The usage text `extractocol-eval` prints on a malformed command line
/// and on `--help`, byte for byte.
const USAGE: &str = "usage: extractocol-eval (--conformance | --conformance-mutate) \
     [--app <name>] [--jobs <n>] [--seed <n>] [--sites <n>] [--timings] \
     [--targeted] [--summary-cache-dir <dir>] [--no-incremental] \
     [--report-out <file>] [--trace-out <file>] [--trace-summary] \
     [--metrics-out <file>] [--log-out <file>] [--log-level <level>]\n";

/// Runs `extractocol-eval args` and checks its exit code and exact
/// stderr, with nothing on stdout.
fn assert_exit(args: &[&str], code: i32, stderr: &str) {
    let out = eval_cli().args(args).output().expect("run extractocol-eval");
    assert_eq!(out.status.code(), Some(code), "exit code of {args:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "stderr of {args:?}");
    assert!(out.stdout.is_empty(), "stdout of {args:?}");
}

#[test]
fn eval_cli_usage_contract() {
    assert_exit(&["--conformance", "--bogus"], 2, USAGE);
    assert_exit(&["--conformance", "--app"], 2, USAGE);
    assert_exit(&["--conformance", "--jobs", "many"], 2, USAGE);
    assert_exit(&["--conformance-mutate", "--seed", "x"], 2, USAGE);
    assert_exit(&["--conformance", "--log-level", "loud"], 2, USAGE);
    // Exactly one mode.
    assert_exit(&[], 2, USAGE);
    assert_exit(&["--conformance", "--conformance-mutate"], 2, USAGE);
    assert_exit(&["--help"], 0, USAGE);
    assert_exit(
        &["--conformance", "--app", "no such app"],
        1,
        "extractocol-eval: no corpus app named \"no such app\"\n",
    );
}

#[test]
fn eval_cli_conformance_run_on_one_app() {
    let out = eval_cli()
        .args(["--conformance", "--app", "blippex"])
        .output()
        .expect("run extractocol-eval");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.ends_with("conformance: all 1 app(s) clean\n"), "{stdout}");
}
