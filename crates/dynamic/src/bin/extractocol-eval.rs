//! The `extractocol-eval` command-line tool: corpus-wide validation of the
//! static pipeline against the dynamic interpreter.
//!
//! ```bash
//! extractocol-eval --conformance                # oracle over every corpus app
//! extractocol-eval --conformance --app "TED"    # one app only
//! extractocol-eval --conformance --jobs 0       # one worker per core
//! extractocol-eval --conformance --timings      # per-phase breakdown per app
//! extractocol-eval --conformance --trace-out trace.json --trace-summary
//! extractocol-eval --conformance --metrics-out metrics.txt
//! extractocol-eval --conformance --log-out events.log --log-level debug
//! extractocol-eval --conformance --targeted     # demand-driven cone analysis
//! extractocol-eval --conformance --summary-cache-dir cache/  # persistent summaries
//! extractocol-eval --conformance --report-out reports.txt    # canonical JSON per app
//! extractocol-eval --conformance-mutate         # seeded mutation self-test
//! extractocol-eval --conformance-mutate --seed 7 --sites 3
//! ```
//!
//! `--conformance` exits non-zero when any app yields a diagnostic;
//! `--conformance-mutate` exits non-zero when the oracle detects < 90% of
//! the seeded perturbations. `--trace-out` records the whole run as one
//! span tree (per app → per phase → per DP) in Chrome-trace JSON;
//! `--timings` prints the `PhaseTimings` table — including the
//! conformance slot, so the total matches the end-to-end run.

use extractocol_core::{EventLog, Level, SinkFormat, TraceCollector};
use extractocol_dynamic::conformance::{conformance_check_with, mutation_self_test, EvalConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: extractocol-eval (--conformance | --conformance-mutate) \
         [--app <name>] [--jobs <n>] [--seed <n>] [--sites <n>] [--timings] \
         [--targeted] [--summary-cache-dir <dir>] [--no-incremental] \
         [--report-out <file>] [--trace-out <file>] [--trace-summary] \
         [--metrics-out <file>] [--log-out <file>] [--log-level <level>]"
    );
    ExitCode::from(2)
}

/// A per-app `.exsm` filename inside the cache dir: the app name with
/// anything outside `[A-Za-z0-9._-]` mapped to `_`.
fn cache_file(dir: &str, app: &str) -> std::path::PathBuf {
    let safe: String = app
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || ".-_".contains(c) { c } else { '_' })
        .collect();
    std::path::Path::new(dir).join(format!("{safe}.exsm"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut conformance = false;
    let mut mutate = false;
    let mut app_filter: Option<String> = None;
    let mut jobs = 1usize;
    let mut seed = 0xE7_AC_0C_01u64;
    let mut sites = 2usize;
    let mut timings = false;
    let mut trace_summary = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut log_out: Option<String> = None;
    let mut log_level = Level::Info;
    let mut report_out: Option<String> = None;
    let mut targeted = false;
    let mut no_incremental = false;
    let mut cache_dir: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--conformance" => conformance = true,
            "--conformance-mutate" => mutate = true,
            "--timings" => timings = true,
            "--targeted" => targeted = true,
            "--no-incremental" => no_incremental = true,
            "--summary-cache-dir" => match it.next() {
                Some(d) => cache_dir = Some(d),
                None => return usage(),
            },
            "--report-out" => match it.next() {
                Some(p) => report_out = Some(p),
                None => return usage(),
            },
            "--trace-summary" => trace_summary = true,
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p),
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p),
                None => return usage(),
            },
            "--log-out" => match it.next() {
                Some(p) => log_out = Some(p),
                None => return usage(),
            },
            "--log-level" => match it.next().and_then(|l| Level::parse(&l)) {
                Some(l) => log_level = l,
                None => return usage(),
            },
            "--app" => match it.next() {
                Some(n) => app_filter = Some(n),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => seed = n,
                None => return usage(),
            },
            "--sites" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => sites = n,
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    if conformance == mutate {
        return usage();
    }
    if no_incremental {
        cache_dir = None;
    }

    let mut apps = extractocol_corpus::all_apps();
    if let Some(name) = &app_filter {
        apps.retain(|a| &a.truth.name == name);
        if apps.is_empty() {
            eprintln!("extractocol-eval: no corpus app named {name:?}");
            return ExitCode::FAILURE;
        }
    }

    // Driver-level structured events: one record per app plus run
    // start/finish milestones (the per-phase pipeline events live behind
    // `extractocol --log-out`; the eval driver reports outcomes).
    let events = if let Some(out) = &log_out {
        let log = EventLog::enabled(log_level);
        match std::fs::File::create(out) {
            Ok(file) => log.set_sink(Box::new(file), SinkFormat::Text),
            Err(e) => {
                eprintln!("extractocol-eval: cannot create {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
        log
    } else {
        EventLog::disabled()
    };

    if conformance {
        let trace = if trace_out.is_some() || trace_summary {
            TraceCollector::enabled()
        } else {
            TraceCollector::disabled()
        };
        events
            .info("eval", "conformance run started")
            .field("apps", apps.len() as u64)
            .field("jobs", jobs as u64)
            .field("targeted", targeted)
            .emit();
        if let Some(dir) = &cache_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("extractocol-eval: cannot create {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
        let mut dirty = 0usize;
        let mut report_lines = String::new();
        for app in &apps {
            let cfg = EvalConfig {
                jobs,
                targeted,
                summary_cache_path: cache_dir.as_ref().map(|d| cache_file(d, &app.truth.name)),
                ..EvalConfig::default()
            };
            let (report, conf) = conformance_check_with(app, &cfg, &trace);
            print!("{}", conf.to_text());
            if let Some(incr) = &report.metrics.incr {
                println!("incr[{}]: {}", app.truth.name, incr.to_line());
                if let Some(e) = &incr.load_error {
                    println!("incr[{}]: cache load failed ({e}); ran cold", app.truth.name);
                }
                if let Some(e) = &incr.save_error {
                    println!("incr[{}]: cache save failed ({e})", app.truth.name);
                }
            }
            if let Some(tg) = &report.metrics.targeted {
                println!(
                    "targeted[{}]: cone {}/{} methods; skipped {}/{} classes",
                    app.truth.name,
                    tg.cone_methods,
                    tg.total_methods,
                    tg.skipped_classes,
                    tg.total_classes
                );
            }
            if report_out.is_some() {
                report_lines.push_str(&format!(
                    "{}\t{}\n",
                    app.truth.name,
                    report.to_json().to_json()
                ));
            }
            if timings {
                println!("{} phase timings:", app.truth.name);
                print!("{}", report.metrics.phases.to_text());
            }
            if let Some(path) = &metrics_out {
                // One exposition file per run; last app wins per-app
                // instruments, aggregate files belong to serve's batch path.
                let text = report.metrics.export_registry().render();
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("extractocol-eval: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if !conf.is_clean() {
                dirty += 1;
            }
            let level = if conf.is_clean() { Level::Info } else { Level::Warn };
            events
                .event(level, "eval", "app analyzed")
                .field("app", app.truth.name.as_str())
                .field("transactions", report.transactions.len() as u64)
                .field("diagnostics", conf.diags.len() as u64)
                .field("duration_us", report.stats.duration.as_micros() as u64)
                .emit();
        }
        if let Some(path) = &report_out {
            if let Err(e) = std::fs::write(path, report_lines) {
                eprintln!("extractocol-eval: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        let spans = trace.drain();
        if let Some(path) = &trace_out {
            let json = extractocol_obs::chrome_trace_json(&spans);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("extractocol-eval: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} span(s) to {path} ({} dropped)", spans.len(), trace.dropped());
        }
        if trace_summary {
            print!("{}", extractocol_obs::summary_table(&spans, 20));
        }
        events
            .info("eval", "conformance run finished")
            .field("apps", apps.len() as u64)
            .field("dirty", dirty as u64)
            .emit();
        if dirty > 0 {
            eprintln!("extractocol-eval: {dirty} app(s) with conformance diagnostics");
            return ExitCode::FAILURE;
        }
        println!("conformance: all {} app(s) clean", apps.len());
        return ExitCode::SUCCESS;
    }

    let summary = mutation_self_test(&apps, seed, sites, jobs);
    print!("{}", summary.to_text());
    if summary.total() == 0 {
        eprintln!("extractocol-eval: no mutation sites found");
        return ExitCode::FAILURE;
    }
    if summary.rate() < 0.9 {
        eprintln!(
            "extractocol-eval: detection rate {:.1}% below the 90% gate",
            100.0 * summary.rate()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
