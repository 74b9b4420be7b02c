//! The `extractocol-serve` command-line tool: compile signatures into the
//! serving index (in-memory or as a persistent archive), classify
//! traffic, run the long-lived daemon, or run the adversarial bench.
//!
//! ```bash
//! # Compile the corpus index once into a persistent archive:
//! extractocol-serve compile --corpus --out index.exsv --jobs 0
//!
//! # Classify a traffic file — from an archive (fast) or from sources:
//! extractocol-serve classify --index index.exsv --traffic requests.txt
//! extractocol-serve classify --report app.jimple --traffic requests.txt
//! extractocol-serve classify --corpus --traffic requests.txt --jobs 0
//!
//! # Long-running daemon over TCP (or --stdin), with hot swap:
//! extractocol-serve daemon --index index.exsv --listen 127.0.0.1:0 \
//!     --port-file daemon.port --metrics-out METRICS_daemon.txt \
//!     --log-out daemon_events.log --log-level debug
//! extractocol-serve send --port-file daemon.port --traffic requests.txt
//!
//! # Live introspection of a running daemon (no restart):
//! extractocol-serve scrape --port-file daemon.port --verb METRICS \
//!     --out METRICS_live.txt
//! extractocol-serve scrape --port-file daemon.port --verb HEALTH
//! ```
//!
//! The traffic file is line-based, one request per line —
//! `METHOD<TAB>URI[<TAB>MIME<TAB>BODY]` with `#` comments (the
//! `TrafficTrace::to_request_text` format). The daemon speaks the same
//! lines plus the `PING`/`STATS`/`SWAP`/`METRICS`/`HEALTH`/`SLOW`/
//! `SHUTDOWN` control verbs.

use extractocol_obs::cli::{self, Args, CliError};
use extractocol_obs::Level;
use extractocol_serve::bench as serve_bench;
use extractocol_serve::{
    classify_batch, classify_batch_observed, Daemon, DaemonConfig, ServeMetrics, SignatureIndex,
    Verdict,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: extractocol-serve compile (--report <app.jimple> ... | --corpus | --app <name>) \
     --out <index.exsv> [--jobs <n>]\n       \
     extractocol-serve classify (--index <index.exsv> | --report <app.jimple> ... | \
     --corpus | --app <name>) --traffic <file> [--jobs <n>] [--json] \
     [--metrics-out <file>] [--trace-out <file>]\n       \
     extractocol-serve daemon --index <index.exsv> (--stdin | --listen <addr>) \
     [--port-file <file>] [--metrics-out <file>] [--trace-out <file>] \
     [--log-out <file>] [--log-level trace|debug|info|warn|error]\n       \
     extractocol-serve send (--addr <host:port> | --port-file <file>) --traffic <file>\n       \
     extractocol-serve scrape (--addr <host:port> | --port-file <file>) \
     --verb METRICS|HEALTH|SLOW|STATS [--out <file>]\n       \
     extractocol-serve attack [--index <index.exsv>] [--seed <n>] [--per-class <n>] \
     [--jobs <n>] [--out <file>] [--metrics-out <file>] [--json]";

fn main() -> ExitCode {
    cli::finish("extractocol-serve", USAGE, run())
}

fn run() -> Result<(), CliError> {
    let mut args = Args::from_env();
    match args.next().as_deref() {
        Some("compile") => cmd_compile(args),
        Some("classify") => cmd_classify(args),
        Some("daemon") => cmd_daemon(args),
        Some("send") => cmd_send(args),
        Some("scrape") => cmd_scrape(args),
        Some("attack") => cmd_attack(args),
        _ => Err(CliError::Usage),
    }
}

/// Builds the report set shared by `compile` and `classify`: explicit
/// jimple files, the whole corpus, or one corpus app by name.
fn build_reports(
    report_paths: &[String],
    use_corpus: bool,
    app_filter: Option<&str>,
    jobs: usize,
) -> Result<Vec<extractocol_core::report::AnalysisReport>, CliError> {
    let mut reports = Vec::new();
    for path in report_paths {
        let apk = extractocol_ir::parser::parse_apk(&cli::read(path)?)
            .map_err(|e| CliError::Fail(format!("{path}: parse error at {e}")))?;
        reports.push(extractocol_dynamic::conformance::analyze_app(&apk, false, jobs));
    }
    if use_corpus || app_filter.is_some() {
        let mut apps = extractocol_corpus::all_apps();
        if let Some(name) = app_filter {
            apps.retain(|a| a.truth.name == name);
            if apps.is_empty() {
                return Err(CliError::Fail(format!("no corpus app named {name:?}")));
            }
        }
        for app in &apps {
            reports.push(extractocol_dynamic::conformance::analyze_app(
                &app.apk,
                app.truth.open_source,
                jobs,
            ));
        }
    }
    Ok(reports)
}

/// Loads a compiled index from a persistent archive, with the typed
/// error rendered for humans.
fn load_index(path: &str) -> Result<SignatureIndex, CliError> {
    extractocol_serve::read_archive_file(path)
        .map_err(|e| CliError::Fail(format!("cannot load index {path}: {e}")))
}

/// The daemon address from `--addr`, or from the port a daemon wrote to
/// `--port-file`.
fn daemon_addr(addr: Option<String>, port_file: Option<String>) -> Result<String, CliError> {
    match (addr, port_file) {
        (Some(a), _) => Ok(a),
        (None, Some(path)) => Ok(format!("127.0.0.1:{}", cli::read(&path)?.trim())),
        (None, None) => Err(CliError::Usage),
    }
}

/// `extractocol-serve compile`: build the index once, write the archive.
fn cmd_compile(mut args: Args) -> Result<(), CliError> {
    let mut report_paths: Vec<String> = Vec::new();
    let mut use_corpus = false;
    let mut app_filter: Option<String> = None;
    let mut out: Option<String> = None;
    let mut jobs = 0usize;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => report_paths.push(args.value()?),
            "--corpus" => use_corpus = true,
            "--app" => app_filter = Some(args.value()?),
            "--out" => out = Some(args.value()?),
            "--jobs" => jobs = args.parse()?,
            _ => return Err(CliError::Usage),
        }
    }
    let out_path = out.ok_or(CliError::Usage)?;
    if report_paths.is_empty() && !use_corpus && app_filter.is_none() {
        return Err(CliError::Usage);
    }

    let t = Instant::now();
    let reports = build_reports(&report_paths, use_corpus, app_filter.as_deref(), jobs)?;
    let index = SignatureIndex::compile(&reports);
    let compile_secs = t.elapsed().as_secs_f64();
    extractocol_serve::write_archive_file(&index, &out_path)
        .map_err(|e| CliError::Fail(format!("cannot write {out_path}: {e}")))?;
    let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "compiled {} signatures ({} trie nodes) in {compile_secs:.2}s -> {out_path} ({bytes} bytes)",
        index.len(),
        index.trie_nodes(),
    );
    Ok(())
}

/// `extractocol-serve daemon`: serve the line protocol until SHUTDOWN.
fn cmd_daemon(mut args: Args) -> Result<(), CliError> {
    let mut index_path: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut use_stdin = false;
    let mut port_file: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut log_out: Option<String> = None;
    let mut log_level = Level::Info;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--index" => index_path = Some(args.value()?),
            "--listen" => listen = Some(args.value()?),
            "--stdin" => use_stdin = true,
            "--port-file" => port_file = Some(args.value()?),
            "--metrics-out" => metrics_out = Some(args.value()?),
            "--trace-out" => trace_out = Some(args.value()?),
            "--log-out" => log_out = Some(args.value()?),
            "--log-level" => log_level = Level::parse(&args.value()?).ok_or(CliError::Usage)?,
            _ => return Err(CliError::Usage),
        }
    }
    let index_path = index_path.ok_or(CliError::Usage)?;
    if use_stdin == listen.is_some() {
        // Exactly one transport.
        return Err(CliError::Usage);
    }

    let t_load = Instant::now();
    let index = load_index(&index_path)?;
    let load_secs = t_load.elapsed().as_secs_f64();
    // The CI gate greps the event log while the daemon is still serving;
    // `cli::event_log` writes each record at emit time.
    let events = cli::event_log(log_out.as_deref(), log_level)?;
    let daemon = Arc::new(Daemon::with_observability(
        index,
        DaemonConfig::default(),
        extractocol_obs::Registry::new(),
        cli::collector(trace_out.is_some()),
        events,
    ));
    daemon.metrics_index_load(load_secs);
    daemon
        .events
        .info("daemon", "daemon started")
        .field("signatures", daemon.index().len())
        .field("index_path", index_path.as_str())
        .emit();
    eprintln!(
        "daemon: serving {} signatures (loaded {index_path} in {:.1}ms)",
        daemon.index().len(),
        load_secs * 1e3,
    );

    let result = if use_stdin {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        daemon.run_lines(stdin.lock(), stdout.lock())
    } else {
        let addr = listen.expect("checked above");
        let listener = std::net::TcpListener::bind(&addr)
            .map_err(|e| CliError::Fail(format!("cannot bind {addr}: {e}")))?;
        let local = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
        cli::write_out(port_file.as_deref(), || {
            format!("{}\n", local.rsplit(':').next().unwrap_or(""))
        })?;
        eprintln!("daemon: listening on {local}");
        daemon.serve_tcp(listener)
    };
    result.map_err(|e| CliError::Fail(format!("daemon: {e}")))?;

    cli::write_out(metrics_out.as_deref(), || daemon.registry.render())?;
    cli::write_out(trace_out.as_deref(), || {
        extractocol_obs::chrome_trace_json(&daemon.trace.drain())
    })?;
    eprintln!("daemon: drained and shut down ({})", daemon.stats_line().replace('\t', " "));
    Ok(())
}

/// `extractocol-serve send`: line-protocol client. Streams a traffic
/// file to a running daemon and prints one response per request line;
/// exits non-zero if the daemon drops any response.
fn cmd_send(mut args: Args) -> Result<(), CliError> {
    let mut addr: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut traffic: Option<String> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = Some(args.value()?),
            "--port-file" => port_file = Some(args.value()?),
            "--traffic" => traffic = Some(args.value()?),
            _ => return Err(CliError::Usage),
        }
    }
    let traffic_path = traffic.ok_or(CliError::Usage)?;
    let addr = daemon_addr(addr, port_file)?;
    let input = cli::read(&traffic_path)?;
    let responses = extractocol_serve::daemon::send_lines(&addr, &input)
        .map_err(|e| CliError::Fail(format!("send: {e}")))?;
    for r in &responses {
        println!("{r}");
    }
    eprintln!("send: {} request(s), {} response(s)", responses.len(), responses.len());
    Ok(())
}

/// `extractocol-serve scrape`: one-shot live introspection. Sends a
/// single control verb to a running daemon and prints (or writes) the
/// reply payload — the Prometheus exposition for `METRICS`, the health
/// line for `HEALTH`, the exemplar dump for `SLOW`.
fn cmd_scrape(mut args: Args) -> Result<(), CliError> {
    let mut addr: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut verb: Option<String> = None;
    let mut out: Option<String> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = Some(args.value()?),
            "--port-file" => port_file = Some(args.value()?),
            "--verb" => verb = Some(args.value()?),
            "--out" => out = Some(args.value()?),
            _ => return Err(CliError::Usage),
        }
    }
    let verb = verb.ok_or(CliError::Usage)?;
    // Only introspection verbs: scrape must never mutate daemon state.
    if !matches!(verb.as_str(), "METRICS" | "HEALTH" | "SLOW" | "STATS" | "PING") {
        eprintln!("extractocol-serve: scrape verb must be METRICS|HEALTH|SLOW|STATS|PING");
        return Err(CliError::Usage);
    }
    let addr = daemon_addr(addr, port_file)?;
    let payload = extractocol_serve::daemon::scrape(&addr, &verb)
        .map_err(|e| CliError::Fail(format!("scrape: {e}")))?;
    if out.is_none() {
        print!("{payload}");
    }
    cli::write_out(out.as_deref(), || payload)
}

fn cmd_classify(mut args: Args) -> Result<(), CliError> {
    let mut report_paths: Vec<String> = Vec::new();
    let mut use_corpus = false;
    let mut app_filter: Option<String> = None;
    let mut index_path: Option<String> = None;
    let mut traffic: Option<String> = None;
    let mut jobs = 1usize;
    let mut json_out = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => report_paths.push(args.value()?),
            "--corpus" => use_corpus = true,
            "--app" => app_filter = Some(args.value()?),
            "--index" => index_path = Some(args.value()?),
            "--traffic" => traffic = Some(args.value()?),
            "--jobs" => jobs = args.parse()?,
            "--json" => json_out = true,
            "--metrics-out" => metrics_out = Some(args.value()?),
            "--trace-out" => trace_out = Some(args.value()?),
            _ => return Err(CliError::Usage),
        }
    }
    let traffic_path = traffic.ok_or(CliError::Usage)?;
    let have_sources = !report_paths.is_empty() || use_corpus || app_filter.is_some();
    if index_path.is_none() && !have_sources {
        return Err(CliError::Usage);
    }

    // Index source: a persistent archive (fast path), or compile from
    // jimple files / the corpus. Each is timed into its own phase gauge.
    let t_index = Instant::now();
    let (index, load_dur, compile_dur) = if let Some(path) = &index_path {
        if have_sources {
            eprintln!("extractocol-serve: --index excludes --report/--corpus/--app");
            return Err(CliError::Usage);
        }
        let index = load_index(path)?;
        (index, t_index.elapsed(), Duration::ZERO)
    } else {
        let reports = build_reports(&report_paths, use_corpus, app_filter.as_deref(), jobs)?;
        let index = SignatureIndex::compile(&reports);
        (index, Duration::ZERO, t_index.elapsed())
    };

    let text = cli::read(&traffic_path)?;
    let trace = extractocol_dynamic::TrafficTrace::parse_request_text("traffic", &text)
        .map_err(|e| CliError::Fail(format!("{traffic_path}: {e}")))?;
    let requests: Vec<_> = trace.transactions.into_iter().map(|t| t.request).collect();

    // Instruments/spans only on request — the plain path stays the
    // uninstrumented classifier.
    let observed = metrics_out.is_some() || trace_out.is_some();
    let serve_metrics = ServeMetrics::new();
    let collector = cli::collector(trace_out.is_some());
    let t_classify = Instant::now();
    let (verdicts, stats) = if observed {
        classify_batch_observed(&index, &requests, jobs, &serve_metrics, &collector)
    } else {
        classify_batch(&index, &requests, jobs)
    };
    if observed {
        serve_metrics.observe_phases(load_dur, compile_dur, t_classify.elapsed());
    }
    cli::write_out(metrics_out.as_deref(), || serve_metrics.registry.render())?;
    cli::write_out(trace_out.as_deref(), || {
        extractocol_obs::chrome_trace_json(&collector.drain())
    })?;

    if json_out {
        use extractocol_http::JsonValue;
        let mut o = JsonValue::object();
        let rows: Vec<JsonValue> = verdicts
            .iter()
            .zip(&requests)
            .map(|(v, req)| {
                let mut row = JsonValue::object();
                row.insert("method", JsonValue::str(req.method.as_str()));
                row.insert("uri", JsonValue::str(&req.uri.raw));
                match v {
                    Verdict::Match(id) => {
                        let sig = index.sig(*id);
                        row.insert("app", JsonValue::str(&sig.app));
                        row.insert("txn", JsonValue::num(sig.txn_id as f64));
                        row.insert("dp", JsonValue::str(&sig.dp_class));
                    }
                    Verdict::Unmatched => {
                        row.insert("unmatched", JsonValue::Bool(true));
                    }
                }
                row
            })
            .collect();
        o.insert("verdicts", JsonValue::Array(rows));
        o.insert("matched", JsonValue::num(stats.matched as f64));
        o.insert("unmatched", JsonValue::num(stats.unmatched as f64));
        println!("{}", o.to_json());
    } else {
        for (v, req) in verdicts.iter().zip(&requests) {
            match v {
                Verdict::Match(id) => {
                    let sig = index.sig(*id);
                    println!(
                        "{} {} -> {} #{} ({})",
                        req.method, req.uri.raw, sig.app, sig.txn_id, sig.dp_class
                    );
                }
                Verdict::Unmatched => println!("{} {} -> unmatched", req.method, req.uri.raw),
            }
        }
        print!("{}", stats.to_text());
    }
    Ok(())
}

/// `extractocol-serve attack`: the adversarial robustness bench. Runs the
/// seeded attack suite against the corpus index, prints the per-class
/// outcome table and the p99-under-attack latency, writes the attack
/// metrics families on request, and fails when the trie and brute-force
/// paths ever disagree on an adversarial input.
fn cmd_attack(mut args: Args) -> Result<(), CliError> {
    let mut seed = 0xE57A_AC70u64;
    let mut per_class = 64usize;
    let mut jobs = 0usize;
    let mut index_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut json_out = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.parse()?,
            "--index" => index_path = Some(args.value()?),
            "--per-class" => per_class = args.parse()?,
            "--jobs" => jobs = args.parse()?,
            "--out" => out = Some(args.value()?),
            "--metrics-out" => metrics_out = Some(args.value()?),
            "--json" => json_out = true,
            _ => return Err(CliError::Usage),
        }
    }

    let index = match &index_path {
        Some(path) => load_index(path)?,
        None => SignatureIndex::compile(&serve_bench::corpus_reports(jobs)),
    };
    let (report, metrics) = serve_bench::run_attack(&index, seed, per_class);

    cli::write_out(metrics_out.as_deref(), || metrics.registry.render())?;
    let json = report.to_json().to_json();
    if json_out {
        println!("{json}");
    } else {
        println!(
            "attack suite seed={} ({} cases, {} classes): p50 {:.1}us, p99 {:.1}us",
            report.seed,
            report.cases,
            report.per_class_tally.len(),
            report.p50_latency_us,
            report.p99_latency_us,
        );
        for (name, t) in &report.per_class_tally {
            println!(
                "  {name:<18} cases {:<5} parse_err {:<5} matched {:<5} unmatched {:<5} \
                 budget_exhausted {}",
                t.cases, t.parse_errors, t.matched, t.unmatched, t.budget_exhausted
            );
        }
        println!(
            "differential: {} checked, {} disagreements",
            report.differential_checked, report.differential_disagreements
        );
    }
    cli::write_out(out.as_deref(), || format!("{json}\n"))?;

    if report.differential_disagreements > 0 {
        return Err(CliError::Fail(format!(
            "trie and brute-force verdicts disagree on {} adversarial case(s)",
            report.differential_disagreements
        )));
    }
    Ok(())
}
