//! The `extractocol-obs-diff` regression gate, driven through the real
//! binary on a real daemon exposition: identical snapshots pass, and a
//! seeded deterministic-counter perturbation exits 1.

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

/// Acceptance: obs-diff passes on identical snapshots and exits nonzero
/// on a seeded deterministic-counter perturbation — through the real
/// binary, on a real daemon exposition.
#[test]
fn obs_diff_gate_detects_a_seeded_counter_perturbation() {
    let daemon = observed_daemon(app_index("radio reddit"));
    for line in &app_traffic("radio reddit") {
        daemon.process_line(line);
    }
    let exposition = daemon.registry.render();
    assert!(exposition.contains("serve_daemon_requests_total"), "{exposition}");

    let baseline = temp_file("base.txt", &exposition);
    let identical = temp_file("same.txt", &exposition);
    let out = obs_diff().args([&baseline, &identical]).output().expect("run obs-diff");
    assert!(
        out.status.success(),
        "identical snapshots must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Seed a perturbation in a deterministic counter.
    let perturbed_text = exposition
        .lines()
        .map(|l| {
            if l.starts_with("serve_daemon_requests_total ") {
                "serve_daemon_requests_total 999999".to_string()
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let perturbed = temp_file("perturbed.txt", &perturbed_text);
    let out = obs_diff().args([&baseline, &perturbed]).output().expect("run obs-diff");
    assert_eq!(out.status.code(), Some(1), "perturbation must be a regression");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("serve_daemon_requests_total"), "{stdout}");

    for p in [baseline, identical, perturbed] {
        let _ = std::fs::remove_file(p);
    }
}
