//! The `extractocol-obs-diff` regression gate, driven through the real
//! binary on a real daemon exposition: identical snapshots pass, a
//! seeded deterministic-counter perturbation exits 1, and
//! `--ignore-per-run` forgives per-run drift but not deterministic drift.

use extractocol_obs::{EventLog, Level, Registry, TraceCollector};
use extractocol_serve::{Daemon, DaemonConfig, SignatureIndex};
use std::process::Command;

fn app_index(name: &str) -> SignatureIndex {
    let app = extractocol_corpus::app(name).expect("corpus app");
    let report = extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, 1);
    SignatureIndex::compile(&[report])
}

fn app_traffic(name: &str) -> Vec<String> {
    let app = extractocol_corpus::app(name).expect("corpus app");
    extractocol_dynamic::run_perfect_fuzzer(&app)
        .to_request_text()
        .lines()
        .map(str::to_string)
        .collect()
}

fn observed_daemon(index: SignatureIndex) -> Daemon {
    Daemon::with_observability(
        index,
        DaemonConfig::default(),
        Registry::new(),
        TraceCollector::enabled(),
        EventLog::enabled(Level::Debug),
    )
}

fn obs_diff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_extractocol-obs-diff"))
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("extractocol-obsdiff-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file");
    path
}

/// The daemon exposition after serving radio reddit's fuzzer traffic.
fn radio_exposition() -> String {
    let daemon = observed_daemon(app_index("radio reddit"));
    for line in &app_traffic("radio reddit") {
        daemon.process_line(line);
    }
    let exposition = daemon.registry.render();
    assert!(exposition.contains("serve_daemon_requests_total"), "{exposition}");
    exposition
}

/// Acceptance: obs-diff passes on identical snapshots and exits nonzero
/// on a seeded deterministic-counter perturbation — through the real
/// binary, on a real daemon exposition.
#[test]
fn obs_diff_gate_detects_a_seeded_counter_perturbation() {
    let exposition = radio_exposition();
    let baseline = temp_file("base.txt", &exposition);
    let identical = temp_file("same.txt", &exposition);
    let out = obs_diff().args([&baseline, &identical]).output().expect("run obs-diff");
    assert!(
        out.status.success(),
        "identical snapshots must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Seed a perturbation in a deterministic counter.
    let perturbed =
        temp_file("perturbed.txt", &set_series(&exposition, "serve_daemon_requests_total"));
    let out = obs_diff().args([&baseline, &perturbed]).output().expect("run obs-diff");
    assert_eq!(out.status.code(), Some(1), "perturbation must be a regression");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("serve_daemon_requests_total"), "{stdout}");

    for p in [baseline, identical, perturbed] {
        let _ = std::fs::remove_file(p);
    }
}

/// `--ignore-per-run` (the cross-machine baseline mode) forgives a
/// per-run series drifting far past the relative threshold, but a
/// deterministic counter drift still exits 1.
#[test]
fn ignore_per_run_forgives_only_per_run_drift() {
    let exposition = radio_exposition();
    let baseline = temp_file("ipr-base.txt", &exposition);
    let drifted = temp_file(
        "ipr-drifted.txt",
        &set_series(&exposition, "serve_daemon_request_latency_us_sum"),
    );
    let out = obs_diff().args([&baseline, &drifted]).output().expect("run obs-diff");
    assert_eq!(out.status.code(), Some(1), "per-run drift must fail the default gate");
    let out = obs_diff().args([&baseline, &drifted]).arg("--ignore-per-run").output().expect("run");
    assert!(
        out.status.success(),
        "--ignore-per-run must forgive per-run drift: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let perturbed =
        temp_file("ipr-perturbed.txt", &set_series(&exposition, "serve_daemon_requests_total"));
    let out =
        obs_diff().args([&baseline, &perturbed]).arg("--ignore-per-run").output().expect("run");
    assert_eq!(out.status.code(), Some(1), "deterministic drift must still be a regression");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("serve_daemon_requests_total"), "{stdout}");

    for p in [baseline, drifted, perturbed] {
        let _ = std::fs::remove_file(p);
    }
}

/// `exposition` with the sample line of the unlabelled series `name`
/// set to 999999.
fn set_series(exposition: &str, name: &str) -> String {
    let prefix = format!("{name} ");
    assert!(exposition.lines().any(|l| l.starts_with(&prefix)), "no {name} line");
    exposition
        .lines()
        .map(|l| if l.starts_with(&prefix) { format!("{name} 999999") } else { l.to_string() })
        .collect::<Vec<_>>()
        .join("\n")
}
