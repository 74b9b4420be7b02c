//! Live daemon introspection (ISSUE 10): per-request trace ids stitch
//! the span tree, the event log, and the `SLOW` exemplar store together;
//! and the `METRICS`/`HEALTH`/`SLOW` verbs answer mid-traffic over TCP.

use extractocol_obs::{AttrValue, EventLog, Level, Registry, TraceCollector};
use extractocol_serve::{
    scrape, send_lines, trace_id_for, Daemon, DaemonConfig, Reply, SignatureIndex,
};
use std::sync::Arc;

fn app_index(name: &str, jobs: usize) -> SignatureIndex {
    let app = extractocol_corpus::app(name).expect("corpus app");
    let report =
        extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, jobs);
    SignatureIndex::compile(&[report])
}

fn app_traffic(name: &str) -> Vec<String> {
    let app = extractocol_corpus::app(name).expect("corpus app");
    extractocol_dynamic::run_perfect_fuzzer(&app)
        .to_request_text()
        .lines()
        .map(str::to_string)
        .collect()
}

fn observed_daemon(index: SignatureIndex) -> Daemon {
    Daemon::with_observability(
        index,
        DaemonConfig::default(),
        Registry::new(),
        TraceCollector::enabled(),
        EventLog::enabled(Level::Debug),
    )
}

fn span_trace_id(span: &extractocol_obs::SpanRecord) -> Option<String> {
    span.attrs.iter().find_map(|(k, v)| match (k.as_str(), v) {
        ("trace_id", AttrValue::Str(s)) => Some(s.clone()),
        _ => None,
    })
}

/// Satellite (d): every answered request has exactly one
/// `daemon_request` span, and its trace id resolves to exactly one
/// "request classified" event-log record.
#[test]
fn trace_ids_stitch_spans_to_event_log_records() {
    let daemon = Arc::new(observed_daemon(app_index("radio reddit", 1)));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || d.serve_tcp(listener).expect("serve"))
    };

    let traffic = app_traffic("radio reddit");
    assert!(!traffic.is_empty());
    let mut input = traffic.join("\n");
    input.push_str("\nSHUTDOWN\n");
    let responses = send_lines(&addr, &input).expect("send");
    server.join().expect("server thread");
    assert_eq!(responses.len(), traffic.len() + 1, "zero dropped replies");

    // Exactly one daemon_request span per answered request, each with a
    // trace id deterministic from (conn_id=1, seq).
    let spans = daemon.trace.drain();
    let request_spans: Vec<_> = spans.iter().filter(|s| s.name == "daemon_request").collect();
    assert_eq!(request_spans.len(), traffic.len());
    let mut span_ids: Vec<String> =
        request_spans.iter().map(|s| span_trace_id(s).expect("span carries trace_id")).collect();
    span_ids.sort();
    let mut expected: Vec<String> =
        (1..=traffic.len() as u64).map(|seq| trace_id_for(1, seq)).collect();
    expected.sort();
    assert_eq!(span_ids, expected, "span ids are the deterministic (conn, seq) series");

    // Each span id resolves to exactly one "request classified" record.
    let records = daemon.events.snapshot();
    let classified: Vec<_> = records.iter().filter(|r| r.message == "request classified").collect();
    assert_eq!(classified.len(), traffic.len());
    for id in &expected {
        let hits = classified.iter().filter(|r| r.trace_id.as_deref() == Some(id)).count();
        assert_eq!(hits, 1, "exactly one event record for trace id {id}");
    }

    // The SLOW exemplar store only holds ids from the same series.
    for ex in daemon.exemplars.snapshot() {
        assert!(expected.contains(&ex.trace_id), "exemplar id {} unknown", ex.trace_id);
    }
}

/// Satellite (d): the id series is a pure function of (connection,
/// sequence) — rebuilding the index under a different worker count and
/// replaying the same traffic yields byte-identical ids and verdicts.
#[test]
fn trace_ids_and_verdicts_are_stable_across_jobs_settings() {
    let traffic = app_traffic("radio reddit");
    let mut runs: Vec<(Vec<String>, Vec<String>)> = Vec::new();
    for jobs in [1, 4] {
        let daemon = observed_daemon(app_index("radio reddit", jobs));
        let replies: Vec<String> = traffic
            .iter()
            .map(|l| match daemon.process_line(l) {
                Reply::Line(r) => r,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let ids: Vec<String> = daemon
            .events
            .snapshot()
            .iter()
            .filter(|r| r.message == "request classified")
            .map(|r| r.trace_id.clone().expect("classified record has id"))
            .collect();
        runs.push((replies, ids));
    }
    assert_eq!(runs[0].0, runs[1].0, "verdicts identical across jobs");
    assert_eq!(runs[0].1, runs[1].1, "trace ids identical across jobs");
    let expected: Vec<String> =
        (1..=traffic.len() as u64).map(|seq| trace_id_for(0, seq)).collect();
    assert_eq!(runs[0].1, expected, "stdin ids are trace_id_for(0, seq)");
}

/// The three introspection verbs answer over TCP mid-traffic, and the
/// `scrape` client strips block framing for file capture.
#[test]
fn metrics_health_and_slow_answer_over_tcp_mid_traffic() {
    let daemon = Arc::new(observed_daemon(app_index("radio reddit", 1)));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || d.serve_tcp(listener).expect("serve"))
    };

    // Interleave control verbs with traffic on one connection: control
    // verbs must not consume request sequence numbers.
    let traffic = app_traffic("radio reddit");
    let mut input = String::new();
    input.push_str(&traffic[0]);
    input.push_str("\nMETRICS\nHEALTH\n");
    for l in &traffic[1..] {
        input.push_str(l);
        input.push('\n');
    }
    input.push_str("SLOW\n");
    let responses = send_lines(&addr, &input).expect("send");
    assert_eq!(responses.len(), traffic.len() + 3, "one logical response per request");

    let metrics = &responses[1];
    assert!(metrics.starts_with("metrics\tlines="), "{metrics}");
    assert!(metrics.contains("serve_daemon_requests_total 1"), "{metrics}");
    assert!(metrics.contains("# VOLATILITY serve_daemon_requests_total deterministic"));

    let health = &responses[2];
    assert!(health.starts_with("health\tstatus=ok"), "{health}");
    assert!(health.contains("generation=1"), "{health}");
    assert!(health.contains("last_swap=none"), "{health}");

    let slow = responses.last().unwrap();
    assert!(slow.starts_with("slow\tlines="), "{slow}");
    assert!(slow.contains(&format!("trace_id={}", trace_id_for(1, 1))), "{slow}");

    // A second connection scrapes concurrently; the payload is frameless.
    let scraped = scrape(&addr, "HEALTH").expect("scrape");
    assert!(scraped.starts_with("health\tstatus=ok"), "{scraped}");
    let scraped_metrics = scrape(&addr, "METRICS").expect("scrape");
    assert!(scraped_metrics.starts_with("# HELP"), "{scraped_metrics}");
    assert!(!scraped_metrics.contains("metrics\tlines="), "frame header stripped");

    let bye = send_lines(&addr, "SHUTDOWN\n").expect("shutdown");
    assert_eq!(bye, vec!["bye".to_string()]);
    server.join().expect("server thread");
    let final_metrics = daemon.registry.render();
    assert!(
        final_metrics.contains(&format!("serve_daemon_requests_total {}", traffic.len())),
        "control verbs are not counted as classify requests: {final_metrics}"
    );
}
