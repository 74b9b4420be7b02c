//! Benchmark command line:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress notes on stderr and the result as the last line of
//! stdout; exits 1 when a correctness check failed and 2 on bad usage.

use extractocol_benchmark::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        // The summary cache lives in the working directory's
        // `.bench_cache`, one directory per process.
        cache_dir: PathBuf::from(".bench_cache").join(format!("run-{}", std::process::id())),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.cache_dir);
    let _ = std::fs::remove_dir(".bench_cache");
    eprintln!("{} seed {} trace {}:", cfg.workload.name(), cfg.seed, cfg.trace);
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for (name, value) in &outcome.metrics {
        eprintln!("  {name:<36} {value:>16.4} {}", extractocol_benchmark::unit_of(name));
    }
    println!("{}", outcome.to_json_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
