//! The `extractocol-trace-validate` tool: strict round-trip validation of
//! a Chrome-trace JSON file produced by `--trace-out`.
//!
//! ```bash
//! extractocol-trace-validate trace.json
//! ```
//!
//! Exits zero when the trace is well-formed (complete events only,
//! per-thread monotonic timestamps, proper nesting) and prints the trace
//! statistics; exits non-zero with the first violation otherwise.

use extractocol_obs::cli::{self, Args, CliError};
use extractocol_obs::validate_chrome_trace;
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::finish(
        "extractocol-trace-validate",
        "usage: extractocol-trace-validate <trace.json>",
        run(),
    )
}

fn run() -> Result<(), CliError> {
    let path = Args::from_env().next().ok_or(CliError::Usage)?;
    let text = cli::read(&path)?;
    let stats = validate_chrome_trace(&text).map_err(|e| CliError::Fail(format!("{path}: {e}")))?;
    println!(
        "{path}: valid trace — {} event(s), {} thread(s), max depth {}, {}us span",
        stats.events, stats.threads, stats.max_depth, stats.span_end_us
    );
    Ok(())
}
