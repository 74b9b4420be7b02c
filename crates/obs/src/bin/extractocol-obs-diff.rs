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

use extractocol_obs::cli::{self, Args, CliError};
use extractocol_obs::{diff, parse_prometheus, DiffConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: extractocol-obs-diff <baseline> <current> \
     [--per-run-threshold <0..1>] [--ignore-per-run] [--quiet]";

fn main() -> ExitCode {
    match run() {
        // The regression table is already on stdout.
        Ok(true) => ExitCode::FAILURE,
        outcome => cli::finish("extractocol-obs-diff", USAGE, outcome.map(|_| ())),
    }
}

/// Diffs the two snapshots; `Ok(true)` is a regression.
fn run() -> Result<bool, CliError> {
    let mut paths: Vec<String> = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut quiet = false;

    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ignore-per-run" => cfg.ignore_per_run = true,
            "--quiet" => quiet = true,
            "--per-run-threshold" => match args.parse::<f64>()? {
                t if t.is_finite() && t >= 0.0 => cfg.per_run_threshold = t,
                _ => return Err(CliError::Usage),
            },
            other if !other.starts_with('-') => paths.push(other.to_string()),
            _ => return Err(CliError::Usage),
        }
    }
    if paths.len() != 2 {
        return Err(CliError::Usage);
    }

    let mut snaps = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
        snaps.push(parse_prometheus(&text).map_err(|e| CliError::Input(format!("{path}: {e}")))?);
    }
    let report = diff(&snaps[0], &snaps[1], &cfg);
    if !quiet {
        print!("{}", report.to_text());
    }
    Ok(report.is_regression())
}
