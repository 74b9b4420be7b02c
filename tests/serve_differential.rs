//! Differential property tests for the serving subsystem:
//!
//! * **Trie vs brute force** — for every request in the perfect-fuzzer
//!   traces of all 34 corpus apps, `SignatureIndex::classify` (byte-trie
//!   candidate pruning) must return exactly the verdict of
//!   `classify_brute` (linear scan over every signature). Pruning is an
//!   optimization, never a semantics change.
//! * **Jobs invariance** — batch classification at `jobs=1` and `jobs=8`
//!   must produce identical verdict vectors *and* identical stats
//!   (fixed-size shards + order-independent merging).
//! * **Pruning bite** — on corpus traffic the trie must keep the average
//!   structural-matcher workload at ≤ 20% of the compiled signatures per
//!   request.
//! * **Metrics baseline** — the deterministic serving instruments over
//!   50,000 tiled corpus requests equal `METRICS_classify.baseline.txt`.

use extractocol_core::TraceCollector;
use extractocol_obs::{diff, parse_prometheus, DiffConfig};
use extractocol_serve::bench::{corpus_reports, corpus_requests};
use extractocol_serve::{
    classify_batch, classify_batch_observed, ServeMetrics, SignatureIndex, Verdict,
};
use std::time::{Duration, Instant};

fn corpus_index_and_requests() -> (SignatureIndex, Vec<extractocol_http::Request>) {
    (SignatureIndex::compile(&corpus_reports(1)), corpus_requests())
}

#[test]
fn classify_agrees_with_brute_force_on_all_corpus_traffic() {
    let (index, requests) = corpus_index_and_requests();
    assert!(index.len() > 100, "corpus index unexpectedly small: {}", index.len());
    assert!(requests.len() > 100, "corpus traffic unexpectedly small: {}", requests.len());

    let mut matched = 0usize;
    for req in &requests {
        let (fast, probe) = index.classify(req);
        let (brute, brute_probe) = index.classify_brute(req);
        assert_eq!(
            fast, brute,
            "trie-pruned verdict diverges from brute force on {} {}",
            req.method, req.uri.raw
        );
        // Pruning only ever removes work.
        assert!(probe.candidates <= brute_probe.candidates);
        assert!(probe.structural_evals <= brute_probe.structural_evals);
        if let Verdict::Match(id) = fast {
            matched += 1;
            // Provenance resolves to a real corpus app.
            assert!(!index.sig(id).app.is_empty());
        }
    }
    // The perfect fuzzer exercises extracted signatures, so the vast
    // majority of its requests must classify. (A small orphan share —
    // raw-socket ad/analytics traffic — is statically invisible by
    // design.)
    assert!(
        matched as f64 >= 0.9 * requests.len() as f64,
        "only {matched}/{} fuzzer requests classified",
        requests.len()
    );
}

#[test]
fn batch_classification_is_jobs_invariant() {
    let (index, requests) = corpus_index_and_requests();
    let (v1, s1) = classify_batch(&index, &requests, 1);
    let (v8, s8) = classify_batch(&index, &requests, 8);
    assert_eq!(v1, v8, "verdict vectors differ between jobs=1 and jobs=8");
    assert_eq!(s1, s8, "stats differ between jobs=1 and jobs=8");
    assert_eq!(s1.requests, requests.len());
    assert_eq!(s1.matched + s1.unmatched, s1.requests);
}

#[test]
fn trie_pruning_meets_the_twenty_percent_bar() {
    let (index, requests) = corpus_index_and_requests();
    let (_, stats) = classify_batch(&index, &requests, 1);
    let frac = stats.avg_eval_fraction();
    assert!(
        frac <= 0.20,
        "structural matcher ran on {:.1}% of signatures per request (bar: 20%)",
        100.0 * frac
    );
    // The candidate sets themselves stay small in absolute terms too.
    assert!(
        stats.avg_candidates() < index.len() as f64 * 0.20,
        "avg candidate set {:.1} of {} signatures",
        stats.avg_candidates(),
        index.len()
    );
}

#[test]
fn index_compilation_is_deterministic() {
    let apps = extractocol_corpus::all_apps();
    let reports: Vec<_> = apps
        .iter()
        .take(6)
        .map(|app| {
            extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, 1)
        })
        .collect();
    let a = SignatureIndex::compile(&reports);
    let b = SignatureIndex::compile(&reports);
    assert_eq!(a.len(), b.len());
    assert_eq!(a.trie_nodes(), b.trie_nodes());
    for (x, y) in a.sigs().iter().zip(b.sigs()) {
        assert_eq!(x.app, y.app);
        assert_eq!(x.txn_id, y.txn_id);
        assert_eq!(x.prefix, y.prefix);
    }
}

#[test]
fn traffic_wire_format_round_trips_corpus_traces() {
    // The CLI's line-based traffic format preserves classification:
    // serialize each app's fuzzer trace, parse it back, and classify —
    // verdicts must be identical to classifying the in-memory requests.
    let (index, _) = corpus_index_and_requests();
    for app in extractocol_corpus::all_apps().iter().take(8) {
        let trace = extractocol_dynamic::run_perfect_fuzzer(app);
        let text = trace.to_request_text();
        let reparsed = extractocol_dynamic::TrafficTrace::parse_request_text(&trace.app, &text)
            .expect("round trip");
        assert_eq!(reparsed.transactions.len(), trace.transactions.len());
        for (orig, rt) in trace.transactions.iter().zip(&reparsed.transactions) {
            assert_eq!(
                index.classify(&orig.request).0,
                index.classify(&rt.request).0,
                "{}: wire format changed the verdict of {} {}",
                trace.app,
                orig.request.method,
                orig.request.uri.raw
            );
        }
    }
}

/// The serving instruments over 50,000 tiled corpus requests: every
/// mandatory family is exported, and every deterministic series equals
/// the checked-in `METRICS_classify.baseline.txt` exactly (per-run
/// timings are machine-dependent and skipped). On failure the current
/// exposition is written under the test target dir; copying it over the
/// baseline regenerates it.
#[test]
fn classify_metrics_match_the_checked_in_baseline() {
    let t = Instant::now();
    let index = SignatureIndex::compile(&corpus_reports(1));
    let compile = t.elapsed();
    let requests: Vec<_> = corpus_requests().iter().cycle().take(50_000).cloned().collect();
    let metrics = ServeMetrics::new();
    let t = Instant::now();
    classify_batch_observed(&index, &requests, 0, &metrics, &TraceCollector::disabled());
    metrics.observe_phases(Duration::ZERO, compile, t.elapsed());
    let exposition = metrics.registry.render();

    let fail = |why: String| -> ! {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("METRICS_classify.txt");
        std::fs::write(&path, &exposition).expect("write the current exposition");
        panic!("{why}\ncurrent exposition: {}", path.display())
    };
    for family in [
        "serve_classify_requests_total",
        "serve_classify_verdict_total",
        "serve_classify_candidate_fraction_bucket",
        "serve_classify_latency_us_bucket",
        "serve_index_signatures",
        "serve_shards_total",
        "serve_phase_classify_seconds",
    ] {
        if !exposition.contains(family) {
            fail(format!("missing instrument family {family}"));
        }
    }
    let baseline = parse_prometheus(include_str!("../METRICS_classify.baseline.txt"))
        .expect("baseline parses");
    let current = parse_prometheus(&exposition).expect("exposition parses");
    let report =
        diff(&baseline, &current, &DiffConfig { ignore_per_run: true, ..DiffConfig::default() });
    if report.is_regression() {
        fail(format!(
            "deterministic drift against METRICS_classify.baseline.txt:\n{}",
            report.to_text()
        ));
    }
}
