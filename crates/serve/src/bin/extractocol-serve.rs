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

use extractocol_core::TraceCollector;
use extractocol_obs::{EventLog, Level, SinkFormat};
use extractocol_serve::bench as serve_bench;
use extractocol_serve::{
    classify_batch, classify_batch_observed, Daemon, DaemonConfig, ServeMetrics, SignatureIndex,
    Verdict,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
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
         [--jobs <n>] [--out <file>] [--metrics-out <file>] [--json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("compile") => cmd_compile(args.collect()),
        Some("classify") => cmd_classify(args.collect()),
        Some("daemon") => cmd_daemon(args.collect()),
        Some("send") => cmd_send(args.collect()),
        Some("scrape") => cmd_scrape(args.collect()),
        Some("attack") => cmd_attack(args.collect()),
        Some("--help") | Some("-h") => {
            usage();
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Builds the report set shared by `compile` and `classify`: explicit
/// jimple files, the whole corpus, or one corpus app by name.
fn build_reports(
    report_paths: &[String],
    use_corpus: bool,
    app_filter: Option<&str>,
    jobs: usize,
) -> Result<Vec<extractocol_core::report::AnalysisReport>, ExitCode> {
    let mut reports = Vec::new();
    for path in report_paths {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("extractocol-serve: cannot read {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
        };
        let apk = match extractocol_ir::parser::parse_apk(&src) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("extractocol-serve: {path}: parse error at {e}");
                return Err(ExitCode::FAILURE);
            }
        };
        reports.push(extractocol_dynamic::conformance::analyze_app(&apk, false, jobs));
    }
    if use_corpus || app_filter.is_some() {
        let mut apps = extractocol_corpus::all_apps();
        if let Some(name) = app_filter {
            apps.retain(|a| a.truth.name == name);
            if apps.is_empty() {
                eprintln!("extractocol-serve: no corpus app named {name:?}");
                return Err(ExitCode::FAILURE);
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
fn load_index(path: &str) -> Result<SignatureIndex, ExitCode> {
    match extractocol_serve::read_archive_file(path) {
        Ok(index) => Ok(index),
        Err(e) => {
            eprintln!("extractocol-serve: cannot load index {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `extractocol-serve compile`: build the index once, write the archive.
fn cmd_compile(args: Vec<String>) -> ExitCode {
    let mut report_paths: Vec<String> = Vec::new();
    let mut use_corpus = false;
    let mut app_filter: Option<String> = None;
    let mut out: Option<String> = None;
    let mut jobs = 0usize;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report" => match it.next() {
                Some(p) => report_paths.push(p),
                None => return usage(),
            },
            "--corpus" => use_corpus = true,
            "--app" => match it.next() {
                Some(n) => app_filter = Some(n),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(out_path) = out else { return usage() };
    if report_paths.is_empty() && !use_corpus && app_filter.is_none() {
        return usage();
    }

    let t = Instant::now();
    let reports = match build_reports(&report_paths, use_corpus, app_filter.as_deref(), jobs) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let index = SignatureIndex::compile(&reports);
    let compile_secs = t.elapsed().as_secs_f64();
    if let Err(e) = extractocol_serve::write_archive_file(&index, &out_path) {
        eprintln!("extractocol-serve: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "compiled {} signatures ({} trie nodes) in {compile_secs:.2}s -> {out_path} ({bytes} bytes)",
        index.len(),
        index.trie_nodes(),
    );
    ExitCode::SUCCESS
}

/// `extractocol-serve daemon`: serve the line protocol until SHUTDOWN.
fn cmd_daemon(args: Vec<String>) -> ExitCode {
    let mut index_path: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut use_stdin = false;
    let mut port_file: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut log_out: Option<String> = None;
    let mut log_level = Level::Info;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--index" => match it.next() {
                Some(p) => index_path = Some(p),
                None => return usage(),
            },
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr),
                None => return usage(),
            },
            "--stdin" => use_stdin = true,
            "--port-file" => match it.next() {
                Some(p) => port_file = Some(p),
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p),
                None => return usage(),
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p),
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
            _ => return usage(),
        }
    }
    let Some(index_path) = index_path else { return usage() };
    if use_stdin == listen.is_some() {
        // Exactly one transport.
        return usage();
    }

    let t_load = Instant::now();
    let index = match load_index(&index_path) {
        Ok(i) => i,
        Err(code) => return code,
    };
    let load_secs = t_load.elapsed().as_secs_f64();
    let trace =
        if trace_out.is_some() { TraceCollector::enabled() } else { TraceCollector::disabled() };
    let events = match &log_out {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("extractocol-serve: cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Unbuffered on purpose: the CI gate greps the log while the
            // daemon is still serving, so records must hit disk at emit
            // time, not at shutdown.
            let log = EventLog::enabled(log_level);
            log.set_sink(Box::new(file), SinkFormat::Text);
            log
        }
        None => EventLog::disabled(),
    };
    let daemon = Arc::new(Daemon::with_observability(
        index,
        DaemonConfig::default(),
        extractocol_obs::Registry::new(),
        trace,
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
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("extractocol-serve: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let local = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
        if let Some(path) = &port_file {
            let port = local.rsplit(':').next().unwrap_or("");
            if let Err(e) = std::fs::write(path, format!("{port}\n")) {
                eprintln!("extractocol-serve: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("daemon: listening on {local}");
        daemon.serve_tcp(listener)
    };
    if let Err(e) = result {
        eprintln!("extractocol-serve: daemon: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, daemon.registry.render()) {
            eprintln!("extractocol-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &trace_out {
        let spans = daemon.trace.drain();
        if let Err(e) = std::fs::write(path, extractocol_obs::chrome_trace_json(&spans)) {
            eprintln!("extractocol-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("daemon: drained and shut down ({})", daemon.stats_line().replace('\t', " "));
    ExitCode::SUCCESS
}

/// `extractocol-serve send`: line-protocol client. Streams a traffic
/// file to a running daemon and prints one response per request line;
/// exits non-zero if the daemon drops any response.
fn cmd_send(args: Vec<String>) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut traffic: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v),
                None => return usage(),
            },
            "--port-file" => match it.next() {
                Some(p) => port_file = Some(p),
                None => return usage(),
            },
            "--traffic" => match it.next() {
                Some(p) => traffic = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(traffic_path) = traffic else { return usage() };
    let addr = match (addr, port_file) {
        (Some(a), _) => a,
        (None, Some(path)) => match std::fs::read_to_string(&path) {
            Ok(port) => format!("127.0.0.1:{}", port.trim()),
            Err(e) => {
                eprintln!("extractocol-serve: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => return usage(),
    };
    let input = match std::fs::read_to_string(&traffic_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("extractocol-serve: cannot read {traffic_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match extractocol_serve::daemon::send_lines(&addr, &input) {
        Ok(responses) => {
            for r in &responses {
                println!("{r}");
            }
            eprintln!("send: {} request(s), {} response(s)", responses.len(), responses.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("extractocol-serve: send: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `extractocol-serve scrape`: one-shot live introspection. Sends a
/// single control verb to a running daemon and prints (or writes) the
/// reply payload — the Prometheus exposition for `METRICS`, the health
/// line for `HEALTH`, the exemplar dump for `SLOW`.
fn cmd_scrape(args: Vec<String>) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut verb: Option<String> = None;
    let mut out: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(v),
                None => return usage(),
            },
            "--port-file" => match it.next() {
                Some(p) => port_file = Some(p),
                None => return usage(),
            },
            "--verb" => match it.next() {
                Some(v) => verb = Some(v),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(verb) = verb else { return usage() };
    // Only introspection verbs: scrape must never mutate daemon state.
    if !matches!(verb.as_str(), "METRICS" | "HEALTH" | "SLOW" | "STATS" | "PING") {
        eprintln!("extractocol-serve: scrape verb must be METRICS|HEALTH|SLOW|STATS|PING");
        return usage();
    }
    let addr = match (addr, port_file) {
        (Some(a), _) => a,
        (None, Some(path)) => match std::fs::read_to_string(&path) {
            Ok(port) => format!("127.0.0.1:{}", port.trim()),
            Err(e) => {
                eprintln!("extractocol-serve: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => return usage(),
    };
    match extractocol_serve::daemon::scrape(&addr, &verb) {
        Ok(payload) => {
            if let Some(path) = &out {
                if let Err(e) = std::fs::write(path, &payload) {
                    eprintln!("extractocol-serve: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                print!("{payload}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("extractocol-serve: scrape: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_classify(args: Vec<String>) -> ExitCode {
    let mut report_paths: Vec<String> = Vec::new();
    let mut use_corpus = false;
    let mut app_filter: Option<String> = None;
    let mut index_path: Option<String> = None;
    let mut traffic: Option<String> = None;
    let mut jobs = 1usize;
    let mut json_out = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report" => match it.next() {
                Some(p) => report_paths.push(p),
                None => return usage(),
            },
            "--corpus" => use_corpus = true,
            "--app" => match it.next() {
                Some(n) => app_filter = Some(n),
                None => return usage(),
            },
            "--index" => match it.next() {
                Some(p) => index_path = Some(p),
                None => return usage(),
            },
            "--traffic" => match it.next() {
                Some(p) => traffic = Some(p),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage(),
            },
            "--json" => json_out = true,
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p),
                None => return usage(),
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(traffic_path) = traffic else { return usage() };
    let have_sources = !report_paths.is_empty() || use_corpus || app_filter.is_some();
    if index_path.is_none() && !have_sources {
        return usage();
    }

    // Index source: a persistent archive (fast path), or compile from
    // jimple files / the corpus.
    let t_compile = Instant::now();
    let index = if let Some(path) = &index_path {
        if have_sources {
            eprintln!("extractocol-serve: --index excludes --report/--corpus/--app");
            return usage();
        }
        match load_index(path) {
            Ok(i) => i,
            Err(code) => return code,
        }
    } else {
        let reports = match build_reports(&report_paths, use_corpus, app_filter.as_deref(), jobs) {
            Ok(r) => r,
            Err(code) => return code,
        };
        SignatureIndex::compile(&reports)
    };
    let compile_dur = t_compile.elapsed();

    let text = match std::fs::read_to_string(&traffic_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("extractocol-serve: cannot read {traffic_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match extractocol_dynamic::TrafficTrace::parse_request_text("traffic", &text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("extractocol-serve: {traffic_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let requests: Vec<_> = trace.transactions.into_iter().map(|t| t.request).collect();

    // Instruments/spans only on request — the plain path stays the
    // uninstrumented classifier.
    let observed = metrics_out.is_some() || trace_out.is_some();
    let serve_metrics = ServeMetrics::new();
    let collector =
        if trace_out.is_some() { TraceCollector::enabled() } else { TraceCollector::disabled() };
    let t_classify = Instant::now();
    let (verdicts, stats) = if observed {
        classify_batch_observed(&index, &requests, jobs, &serve_metrics, &collector)
    } else {
        classify_batch(&index, &requests, jobs)
    };
    if observed {
        serve_metrics.observe_phases(compile_dur, t_classify.elapsed());
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, serve_metrics.registry.render()) {
            eprintln!("extractocol-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &trace_out {
        let spans = collector.drain();
        if let Err(e) = std::fs::write(path, extractocol_obs::chrome_trace_json(&spans)) {
            eprintln!("extractocol-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

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
    ExitCode::SUCCESS
}

/// `extractocol-serve attack`: the adversarial robustness bench. Runs the
/// seeded attack suite against the corpus index, prints the per-class
/// outcome table and the p99-under-attack latency, writes the attack
/// metrics families on request, and fails when the trie and brute-force
/// paths ever disagree on an adversarial input.
fn cmd_attack(args: Vec<String>) -> ExitCode {
    let mut seed = 0xE57A_AC70u64;
    let mut per_class = 64usize;
    let mut jobs = 0usize;
    let mut index_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut json_out = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => seed = n,
                None => return usage(),
            },
            "--index" => match it.next() {
                Some(p) => index_path = Some(p),
                None => return usage(),
            },
            "--per-class" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => per_class = n,
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p),
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p),
                None => return usage(),
            },
            "--json" => json_out = true,
            _ => return usage(),
        }
    }

    let index = match &index_path {
        Some(path) => match load_index(path) {
            Ok(index) => index,
            Err(code) => return code,
        },
        None => SignatureIndex::compile(&serve_bench::corpus_reports(jobs)),
    };
    let (report, metrics) = serve_bench::run_attack(&index, seed, per_class);

    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, metrics.registry.render()) {
            eprintln!("extractocol-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
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
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("extractocol-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if report.differential_disagreements > 0 {
        eprintln!(
            "extractocol-serve: trie and brute-force verdicts disagree on {} adversarial case(s)",
            report.differential_disagreements
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
