//! The `extractocol` command-line tool: analyze an app serialized in the
//! Jimple-flavoured text format (see `extractocol-ir::parser`) and print
//! its reconstructed protocol behavior.
//!
//! ```bash
//! extractocol app.jimple                 # full report
//! extractocol app.jimple --json         # machine-readable export
//! extractocol app.jimple --regex        # one compiled regex per line
//! extractocol app.jimple --scope com.x  # restrict DPs to a package (§5.3)
//! extractocol app.jimple --no-async     # disable the §3.4 heuristic
//! extractocol app.jimple --hops 3       # multi-hop async chains (§4)
//! extractocol app.jimple --jobs 8       # worker threads (0 = one per core)
//! extractocol app.jimple --lints        # precision diagnostics, then report
//! extractocol app.jimple --no-pointsto  # pure-CHA call graph (no SPARK layer)
//! extractocol app.jimple --trace-out trace.json   # Chrome-trace span tree
//! extractocol app.jimple --trace-summary          # top spans by self-time
//! extractocol app.jimple --flame-out stacks.txt   # collapsed flamegraph stacks
//! extractocol app.jimple --metrics-out metrics.txt  # exposition-format metrics
//! extractocol app.jimple --log-out events.log       # structured event log
//! extractocol app.jimple --log-out events.log --log-level debug  # + phases
//! extractocol app.jimple --targeted     # demand-driven cone analysis
//! extractocol app.jimple --summary-cache-path app.exsm  # persistent summaries
//! extractocol app.jimple --no-incremental  # clear the summary-cache path
//! ```

use extractocol_core::slicing::SliceOptions;
use extractocol_core::{Extractocol, Level, Options};
use extractocol_obs::cli::{self, Args, CliError};
use std::process::ExitCode;

const USAGE: &str = "usage: extractocol <app.jimple> [--regex] [--scope <prefix>] \
     [--json] [--no-async] [--no-augment] [--hops <n>] [--depth <n>] \
     [--jobs <n>] [--lints] [--no-pointsto] [--targeted] \
     [--summary-cache-path <file>] [--no-incremental] \
     [--trace-out <file>] [--trace-summary] [--flame-out <file>] \
     [--metrics-out <file>] [--log-out <file>] [--log-level <level>]";

fn main() -> ExitCode {
    cli::finish("extractocol", USAGE, run())
}

fn run() -> Result<(), CliError> {
    let mut path: Option<String> = None;
    let mut regex_only = false;
    let mut json_out = false;
    let mut show_lints = false;
    let mut trace_out: Option<String> = None;
    let mut flame_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut log_out: Option<String> = None;
    let mut log_level = Level::Info;
    let mut trace_summary = false;
    let mut no_incremental = false;
    let mut opts = Options::default();
    let mut slice = SliceOptions::default();

    let mut args = Args::from_env();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--regex" => regex_only = true,
            "--json" => json_out = true,
            "--lints" => show_lints = true,
            "--trace-summary" => trace_summary = true,
            "--trace-out" => trace_out = Some(args.value()?),
            "--flame-out" => flame_out = Some(args.value()?),
            "--metrics-out" => metrics_out = Some(args.value()?),
            "--log-out" => log_out = Some(args.value()?),
            "--log-level" => log_level = Level::parse(&args.value()?).ok_or(CliError::Usage)?,
            "--no-pointsto" => opts.pointsto = false,
            "--pointsto" => opts.pointsto = true,
            "--targeted" => opts.targeted = true,
            "--no-incremental" => no_incremental = true,
            "--summary-cache-path" => opts.summary_cache_path = Some(args.value()?.into()),
            "--no-async" => slice.async_heuristic = false,
            "--no-augment" => slice.augmentation = false,
            "--scope" => opts.scope_prefix = Some(args.value()?),
            "--hops" => slice.async_hops = args.parse()?,
            "--depth" => slice.max_field_depth = args.parse()?,
            "--jobs" => opts.jobs = args.parse()?,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => return Err(CliError::Usage),
        }
    }
    let path = path.ok_or(CliError::Usage)?;
    opts.slice = slice;
    if no_incremental {
        opts.summary_cache_path = None;
    }

    let src = cli::read(&path)?;
    let apk = extractocol_ir::parser::parse_apk(&src)
        .map_err(|e| CliError::Fail(format!("{path}: parse error at {e}")))?;
    let errs = extractocol_ir::validate::validate_apk(&apk);
    if !errs.is_empty() {
        let lines: Vec<String> =
            errs.iter().take(5).map(|e| format!("{path}: invalid IR: {e}")).collect();
        return Err(CliError::Fail(lines.join("\nextractocol: ")));
    }

    // Tracing is off-by-default: the disabled collector costs one branch
    // per span site, so the plain path stays within the perf gates.
    let trace = cli::collector(trace_out.is_some() || flame_out.is_some() || trace_summary);
    let mut analyzer = Extractocol::with_options(opts);
    analyzer.set_instruments(trace.clone(), cli::event_log(log_out.as_deref(), log_level)?);
    let report = analyzer.analyze(&apk);
    let spans = trace.drain();
    cli::write_out(trace_out.as_deref(), || extractocol_obs::chrome_trace_json(&spans))?;
    cli::write_out(flame_out.as_deref(), || extractocol_obs::collapsed_stacks(&spans))?;
    if trace_summary {
        // Enough rows that every pipeline phase stays visible for a
        // single-app run; dp/txn spans beyond that are still in the
        // chrome-trace artifact.
        print!("{}", extractocol_obs::summary_table(&spans, 32));
        if trace.dropped() > 0 {
            println!("({} span(s) dropped at the collector capacity)", trace.dropped());
        }
    }
    cli::write_out(metrics_out.as_deref(), || report.metrics.export_registry().render())?;
    if show_lints {
        print!("{}", report.metrics.lints.to_text());
        if report.metrics.lints.lints.is_empty() {
            println!("no lints");
        }
    }
    if json_out {
        println!("{}", report.to_json().to_json());
    } else if regex_only {
        for t in &report.transactions {
            println!("{} {}", t.method, t.uri_regex);
        }
    } else {
        print!("{}", report.to_table());
        println!(
            "\n{} demarcation sites; slices cover {:.1}% of {} statements; {:?}",
            report.stats.dp_sites,
            100.0 * report.stats.slice_fraction(),
            report.stats.total_stmts,
            report.stats.duration
        );
        let m = &report.metrics;
        println!(
            "{} worker(s); summary cache {}/{} hits ({:.1}%)",
            m.jobs,
            m.cache.hits,
            m.cache.lookups(),
            100.0 * m.cache.hit_rate()
        );
        if let Some(tg) = &m.targeted {
            println!(
                "targeted: cone {}/{} methods; skipped {}/{} classes",
                tg.cone_methods, tg.total_methods, tg.skipped_classes, tg.total_classes
            );
        }
        if let Some(incr) = &m.incr {
            println!("incremental: {}", incr.to_line());
            if let Some(e) = &incr.load_error {
                println!("incremental: cache load failed ({e}); ran cold");
            }
            if let Some(e) = &incr.save_error {
                println!("incremental: cache save failed ({e})");
            }
        }
    }
    Ok(())
}
