//! The observability contract (ISSUE 5): traces exported from real
//! pipeline runs round-trip through the strict Chrome-trace validator
//! with the promised nesting (per app run → per phase → per DP), the
//! collapsed-stack exporter emits well-formed flamegraph lines, and the
//! *deterministic* metrics snapshot is byte-identical across worker
//! counts — instrumentation must never make `--jobs` observable.

use extractocol_core::{EventLog, Extractocol, Options, TraceCollector};
use extractocol_obs::{
    chrome_trace_json, collapsed_stacks, validate_chrome_trace, SpanRecord, Volatility,
};
use std::collections::BTreeMap;

fn corpus() -> Vec<extractocol_corpus::AppSpec> {
    extractocol_corpus::open_source_apps()
        .into_iter()
        .chain(extractocol_corpus::closed_source_apps())
        .collect()
}

fn traced_analyze(
    app: &extractocol_corpus::AppSpec,
    jobs: usize,
) -> (extractocol_core::AnalysisReport, Vec<SpanRecord>) {
    let trace = TraceCollector::enabled();
    let mut analyzer = Extractocol::with_options(Options { jobs, ..Options::default() });
    analyzer.set_instruments(trace.clone(), EventLog::disabled());
    let report = analyzer.analyze(&app.apk);
    let spans = trace.drain();
    assert_eq!(trace.dropped(), 0, "{}: collector capacity exceeded", app.truth.name);
    (report, spans)
}

#[test]
fn chrome_trace_round_trips_with_phase_dp_nesting() {
    for app in corpus() {
        let (report, spans) = traced_analyze(&app, 1);
        let json = chrome_trace_json(&spans);
        let stats = validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{}: invalid chrome trace: {e}", app.truth.name));
        assert_eq!(stats.events, spans.len(), "{}", app.truth.name);

        // Phase spans exist and are children of the run span.
        let slicing = spans
            .iter()
            .find(|r| r.cat == "phase" && r.name == "slicing")
            .unwrap_or_else(|| panic!("{}: no slicing phase span", app.truth.name));
        assert!(slicing.depth > 0, "{}: phase span must nest under the run", app.truth.name);

        // With jobs=1 the per-DP fan-out runs inline, so every DP span
        // nests strictly below its phase span.
        let dp_spans: Vec<_> = spans.iter().filter(|r| r.cat == "dp").collect();
        assert_eq!(dp_spans.len(), report.stats.dp_sites, "{}", app.truth.name);
        for dp in &dp_spans {
            assert!(dp.depth > slicing.depth, "{}: DP span outside a phase", app.truth.name);
            assert!(
                dp.start_ns >= slicing.start_ns && dp.end_ns <= slicing.end_ns,
                "{}: DP span not contained in the slicing phase",
                app.truth.name
            );
        }
    }
}

/// One clock per phase: every `phase` span of a run has a nonzero
/// `PhaseTimings` slot of the same name and vice versa, and no slot holds
/// more time than the spans charged to it.
#[test]
fn phase_spans_and_phase_slots_are_one_clock() {
    use extractocol_dynamic::conformance::{analyze_app_with, EvalConfig};
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let dir = std::env::temp_dir().join(format!("one_clock_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = EvalConfig {
        jobs: 1,
        targeted: true,
        summary_cache_path: Some(dir.join("app.exsm")),
        ..EvalConfig::default()
    };
    let trace = TraceCollector::enabled();
    let report = analyze_app_with(&app.apk, app.truth.open_source, &cfg, &trace);
    let spans = trace.drain();
    let _ = std::fs::remove_dir_all(&dir);

    let span_ns = |cat: &str, name: &str| -> Option<u64> {
        spans.iter().find(|r| r.cat == cat && r.name == name).map(SpanRecord::dur_ns)
    };
    let mut phase_names: Vec<&str> =
        spans.iter().filter(|r| r.cat == "phase").map(|r| r.name.as_str()).collect();
    phase_names.sort_unstable();
    let slots = report.metrics.phases.slots();
    let mut slot_names: Vec<&str> =
        slots.iter().filter(|(_, d)| !d.is_zero()).map(|(name, _)| *name).collect();
    slot_names.sort_unstable();
    assert_eq!(phase_names, slot_names);
    let mut expected = vec![
        "deobfuscation",
        "indexing",
        "demarcation",
        "targeted",
        "incremental",
        "slicing",
        "pairing",
        "signatures",
        "dependencies",
    ];
    expected.sort_unstable();
    assert_eq!(slot_names, expected);

    for (name, d) in slots.iter().filter(|(_, d)| !d.is_zero()) {
        let mut charged = span_ns("phase", name).unwrap();
        if *name == "incremental" {
            charged += span_ns("step", "incremental_save").expect("summary-cache save step");
        }
        assert!(d.as_nanos() as u64 <= charged, "{name}: slot {d:?} exceeds its spans");
    }
}

#[test]
fn span_profile_is_jobs_invariant() {
    // Wall-clock aside, the *set* of spans (grouped by category and name,
    // with multiplicity) must not depend on the worker count.
    let profile = |spans: &[SpanRecord]| -> BTreeMap<(String, String), usize> {
        let mut m = BTreeMap::new();
        for r in spans {
            *m.entry((r.cat.clone(), r.name.clone())).or_insert(0) += 1;
        }
        m
    };
    for app in corpus() {
        let (_, seq) = traced_analyze(&app, 1);
        let (_, par) = traced_analyze(&app, 8);
        assert_eq!(
            profile(&seq),
            profile(&par),
            "{}: span profile differs between jobs=1 and jobs=8",
            app.truth.name
        );
    }
}

#[test]
fn collapsed_stacks_are_well_formed() {
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let (_, spans) = traced_analyze(&app, 1);
    let text = collapsed_stacks(&spans);
    assert!(!text.is_empty());
    let mut saw_nested = false;
    for line in text.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`frames weight` shape");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        weight.parse::<u64>().unwrap_or_else(|_| panic!("non-integer weight in {line:?}"));
        saw_nested |= stack.contains(';');
    }
    assert!(saw_nested, "no nested frame in the flamegraph output:\n{text}");
}

#[test]
fn pipeline_deterministic_metrics_are_jobs_invariant() {
    for app in corpus() {
        let snapshot = |jobs: usize| {
            let report =
                Extractocol::with_options(Options { jobs, ..Options::default() }).analyze(&app.apk);
            report.metrics.export_registry().render_deterministic()
        };
        let seq = snapshot(1);
        assert!(!seq.is_empty());
        assert_eq!(
            seq,
            snapshot(8),
            "{}: deterministic metrics snapshot differs between jobs=1 and jobs=8",
            app.truth.name
        );
    }
}

#[test]
fn per_run_metrics_stay_out_of_the_deterministic_snapshot() {
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let report = Extractocol::new().analyze(&app.apk);
    let registry = report.metrics.export_registry();
    let det = registry.render_deterministic();
    let all = registry.render();
    // Phase seconds and cache hit counts are wall-clock/schedule artifacts.
    assert!(!det.contains("pipeline_phase_seconds"));
    assert!(!det.contains("summary_cache_lookups_total"));
    assert!(all.contains("pipeline_phase_seconds"));
    assert!(all.contains("summary_cache_lookups_total"));
    assert!(det.contains("pipeline_dp_sites_total"));
    let _ = Volatility::PerRun; // the split under test
}

#[test]
fn serve_deterministic_snapshot_is_jobs_invariant_on_corpus_traffic() {
    use extractocol_serve::{classify_batch_observed, ServeMetrics, SignatureIndex};
    // A corpus slice keeps the debug-mode runtime sane while still
    // crossing shard boundaries (> 512 requests after tiling).
    let apps: Vec<_> = corpus().into_iter().take(6).collect();
    let reports: Vec<_> = apps
        .iter()
        .map(|a| extractocol_dynamic::conformance::analyze_app(&a.apk, a.truth.open_source, 0))
        .collect();
    let index = SignatureIndex::compile(&reports);
    let base: Vec<_> = apps
        .iter()
        .flat_map(|a| {
            extractocol_dynamic::run_perfect_fuzzer(a).transactions.into_iter().map(|t| t.request)
        })
        .collect();
    let requests: Vec<_> = base.iter().cycle().take(2000).cloned().collect();

    let snapshot = |jobs: usize| {
        let metrics = ServeMetrics::new();
        let (verdicts, _) =
            classify_batch_observed(&index, &requests, jobs, &metrics, &TraceCollector::disabled());
        (verdicts, metrics.registry.render_deterministic())
    };
    let (v1, s1) = snapshot(1);
    let (v8, s8) = snapshot(8);
    assert_eq!(v1, v8, "verdicts must be jobs-invariant");
    assert_eq!(s1, s8, "deterministic serve metrics must be jobs-invariant");
    assert!(s1.contains("serve_classify_requests_total 2000"), "{s1}");
    assert!(s1.contains("serve_classify_candidate_fraction_count 2000"), "{s1}");
    assert!(!s1.contains("serve_classify_latency_us"), "latency is per-run:\n{s1}");
}
