//! The `extractocol-trace-validate` tool: strict round-trip validation of
//! a Chrome-trace JSON file produced by `--trace-out`.
//!
//! ```bash
//! extractocol-trace-validate trace.json
//! ```
//!
//! Exits zero when the trace is well-formed (complete events only,
//! per-thread monotonic timestamps, proper nesting) and prints the trace
//! statistics; exits 1 with the first violation otherwise. A flag or a
//! second argument is a usage error (exit 2); `--help` prints the usage.

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
    let mut args = Args::from_env();
    // One positional argument; the tool takes no flags.
    let path = match (args.next(), args.next()) {
        (Some(path), None) if !path.starts_with('-') => path,
        _ => return Err(CliError::Usage),
    };
    let text = cli::read(&path)?;
    let stats = validate_chrome_trace(&text).map_err(|e| CliError::Fail(format!("{path}: {e}")))?;
    println!(
        "{path}: valid trace — {} event(s), {} thread(s), max depth {}, {}us span",
        stats.events, stats.threads, stats.max_depth, stats.span_end_us
    );
    Ok(())
}
