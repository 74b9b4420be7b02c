//! The `extractocol-obs-diff` tool: regression-gate two observability
//! snapshots (Prometheus-text expositions from `--metrics-out` /
//! `METRICS` scrapes).
//!
//! ```bash
//! extractocol-obs-diff baseline.txt current.txt
//! extractocol-obs-diff baseline.txt current.txt --per-run-threshold 0.5
//! extractocol-obs-diff METRICS_classify.baseline.txt METRICS_classify.txt \
//!     --ignore-per-run      # cross-machine: deterministic tier only
//! ```
//!
//! Deterministic series must match exactly; per-run series are held to a
//! symmetric relative threshold (default 25%). Exits 0 when clean, 1 on
//! any regression, 2 on usage or parse errors.

use extractocol_obs::{diff, parse_prometheus, DiffConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: extractocol-obs-diff <baseline> <current> \
         [--per-run-threshold <0..1>] [--ignore-per-run] [--quiet]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut quiet = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ignore-per-run" => cfg.ignore_per_run = true,
            "--quiet" => quiet = true,
            "--per-run-threshold" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(t) if t.is_finite() && t >= 0.0 => cfg.per_run_threshold = t,
                _ => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            _ => return usage(),
        }
    }
    if paths.len() != 2 {
        return usage();
    }

    let mut snaps = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("extractocol-obs-diff: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match parse_prometheus(&text) {
            Ok(s) => snaps.push(s),
            Err(e) => {
                eprintln!("extractocol-obs-diff: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = diff(&snaps[0], &snaps[1], &cfg);
    if !quiet {
        print!("{}", report.to_text());
    }
    if report.is_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
