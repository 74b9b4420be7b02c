//! The command-line layer shared by the workspace's binaries: an argument
//! cursor, one error type with one exit path, and the instrument actions
//! every tool's flags perform (open the `--log-out` event log, write an
//! artifact to an `--*-out` path).
//!
//! A binary's `main` is `cli::finish(TOOL, USAGE, run())`, and `run`
//! reports every failure with `?`:
//!
//! ```no_run
//! use extractocol_obs::cli::{self, Args, CliError};
//! # const TOOL: &str = "tool";
//! # const USAGE: &str = "usage: tool [--jobs <n>] [--out <file>]";
//! fn run() -> Result<(), CliError> {
//!     let mut args = Args::from_env();
//!     let (mut jobs, mut out) = (1usize, None);
//!     while let Some(flag) = args.next() {
//!         match flag.as_str() {
//!             "--jobs" => jobs = args.parse()?,
//!             "--out" => out = Some(args.value()?),
//!             _ => return Err(CliError::Usage),
//!         }
//!     }
//!     cli::write_out(out.as_deref(), || format!("{jobs}\n"))
//! }
//! # let _ = cli::finish(TOOL, USAGE, run());
//! ```

use crate::{EventLog, Level, SinkFormat, TraceCollector};
use std::process::ExitCode;
use std::str::FromStr;

/// Why a command-line run stopped.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// A malformed command line: the tool prints its usage text and
    /// exits 2.
    Usage,
    /// A failed run: the tool prints `<tool>: <message>` and exits 1.
    Fail(String),
    /// An input the tool cannot read, for a tool whose exit 1 is a
    /// verdict (a regression): `<tool>: <message>`, exit 2.
    Input(String),
}

/// Maps a run's outcome to the process exit code, printing what the
/// error variant says to stderr.
///
/// `--help` and `-h` are not flags of any tool: the cursor yields them
/// like any unknown flag and refuses them as a flag's value, so the tool
/// reports a usage error, and this turns it into the help — the usage on
/// stderr and exit 0 — for every tool and subcommand alike.
pub fn finish(tool: &str, usage: &str, outcome: Result<(), CliError>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage) => {
            eprintln!("{usage}");
            if asks_for_help(std::env::args().skip(1)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(CliError::Fail(msg)) => {
            eprintln!("{tool}: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Input(msg)) => {
            eprintln!("{tool}: {msg}");
            ExitCode::from(2)
        }
    }
}

/// True when a command line holds `--help` or `-h`.
fn asks_for_help(mut args: impl Iterator<Item = String>) -> bool {
    args.any(|a| is_help(&a))
}

fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// A cursor over a command line. Iterating yields the next flag (or
/// positional argument); [`Args::value`] and [`Args::parse`] take the
/// value that follows a flag.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The process's arguments, without the program name.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// The flag's string value; a missing value, or `--help`/`-h` in its
    /// place, is a usage error.
    pub fn value(&mut self) -> Result<String, CliError> {
        self.0.next().filter(|v| !is_help(v)).ok_or(CliError::Usage)
    }

    /// The flag's value parsed as `T`; a missing or malformed value is a
    /// usage error.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, CliError> {
        self.value()?.parse().map_err(|_| CliError::Usage)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Reads a whole text file; failure names the path.
pub fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Fail(format!("cannot read {path}: {e}")))
}

/// Writes `contents()` to `path` when the flag gave one; the contents
/// are only rendered then.
pub fn write_out(path: Option<&str>, contents: impl FnOnce() -> String) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, contents())
        .map_err(|e| CliError::Fail(format!("cannot write {path}: {e}")))
}

/// A span collector that records only when `on`: a disabled collector
/// costs one branch per span site.
pub fn collector(on: bool) -> TraceCollector {
    if on {
        TraceCollector::enabled()
    } else {
        TraceCollector::disabled()
    }
}

/// The `--log-out` event log: records at `level` and above stream to the
/// file as text, unbuffered, so the file can be read while the tool
/// runs. Without a path the log is disabled.
pub fn event_log(path: Option<&str>, level: Level) -> Result<EventLog, CliError> {
    let Some(path) = path else { return Ok(EventLog::disabled()) };
    let file = std::fs::File::create(path)
        .map_err(|e| CliError::Fail(format!("cannot create {path}: {e}")))?;
    let log = EventLog::enabled(level);
    log.set_sink(Box::new(file), SinkFormat::Text);
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cursor_takes_flag_values_and_numbers() {
        let mut a = args(&["--out", "x.txt", "--jobs", "4", "pos"]);
        assert_eq!(a.next().as_deref(), Some("--out"));
        assert_eq!(a.value(), Ok("x.txt".to_string()));
        assert_eq!(a.next().as_deref(), Some("--jobs"));
        assert_eq!(a.parse::<usize>(), Ok(4));
        assert_eq!(a.next().as_deref(), Some("pos"));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn help_is_asked_for_anywhere_on_the_line() {
        let line = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(asks_for_help(line(&["--help"]).into_iter()));
        assert!(asks_for_help(line(&["compile", "--corpus", "-h"]).into_iter()));
        assert!(!asks_for_help(line(&["compile", "--helpful", "-hx"]).into_iter()));
        assert!(!asks_for_help(line(&[]).into_iter()));
    }

    #[test]
    fn missing_or_malformed_values_are_usage_errors() {
        assert_eq!(args(&[]).value(), Err(CliError::Usage));
        assert_eq!(args(&[]).parse::<u64>(), Err(CliError::Usage));
        assert_eq!(args(&["many"]).parse::<usize>(), Err(CliError::Usage));
        assert_eq!(args(&["-1"]).parse::<usize>(), Err(CliError::Usage));
        // The help is never a flag's value.
        assert_eq!(args(&["--help"]).value(), Err(CliError::Usage));
        assert_eq!(args(&["-h"]).value(), Err(CliError::Usage));
        assert_eq!(args(&["-hx"]).value(), Ok("-hx".to_string()));
    }
}
