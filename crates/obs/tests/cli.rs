//! The usage contract of the two `extractocol-obs` binaries: exit code
//! and exact stderr for malformed command lines and `--help`.

use std::process::Command;

/// Runs binary `bin` with `args` and checks its exit code and exact
/// stderr, with nothing on stdout.
fn assert_exit(bin: &str, args: &[&str], code: i32, stderr: &str) {
    let out = Command::new(bin).args(args).output().expect("run the binary");
    assert_eq!(out.status.code(), Some(code), "exit code of {args:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "stderr of {args:?}");
    assert!(out.stdout.is_empty(), "stdout of {args:?}");
}

#[test]
fn obs_diff_usage_contract() {
    let bin = env!("CARGO_BIN_EXE_extractocol-obs-diff");
    let usage = "usage: extractocol-obs-diff <baseline> <current> \
         [--per-run-threshold <0..1>] [--ignore-per-run] [--quiet]\n";
    assert_exit(bin, &["a", "b", "--bogus"], 2, usage);
    assert_exit(bin, &["a", "b", "--per-run-threshold"], 2, usage);
    assert_exit(bin, &["a", "b", "--per-run-threshold", "x"], 2, usage);
    assert_exit(bin, &["a", "b", "--per-run-threshold", "-1"], 2, usage);
    assert_exit(bin, &["a"], 2, usage);
    assert_exit(bin, &["--help"], 0, usage);
    // An unreadable snapshot is an input error (2), not a regression (1).
    assert_exit(
        bin,
        &["/nonexistent/a.txt", "/nonexistent/b.txt"],
        2,
        "extractocol-obs-diff: cannot read /nonexistent/a.txt: \
         No such file or directory (os error 2)\n",
    );
}

#[test]
fn trace_validate_usage_contract() {
    let bin = env!("CARGO_BIN_EXE_extractocol-trace-validate");
    let usage = "usage: extractocol-trace-validate <trace.json>\n";
    assert_exit(bin, &[], 2, usage);
    assert_exit(bin, &["--help"], 0, usage);
    assert_exit(bin, &["-h"], 0, usage);
    // The tool takes no flags and one trace path.
    assert_exit(bin, &["--bogus"], 2, usage);
    assert_exit(bin, &["a.json", "b.json"], 2, usage);
    assert_exit(
        bin,
        &["/nonexistent/trace.json"],
        1,
        "extractocol-trace-validate: cannot read /nonexistent/trace.json: \
         No such file or directory (os error 2)\n",
    );
}
