//! The parallel pipeline contract: `Options { jobs }` changes wall-clock
//! behavior only. For every corpus app, the report produced with any
//! worker count is byte-identical to the sequential one, the shared
//! method-summary cache actually gets hits, and one analyzer can be
//! driven from many threads at once.

use extractocol_core::{Extractocol, Options};

fn analyze(app: &extractocol_corpus::AppSpec, jobs: usize) -> extractocol_core::AnalysisReport {
    Extractocol::with_options(Options { jobs, ..Options::default() }).analyze(&app.apk)
}

/// Canonical serialization: everything observable, no volatile metrics.
fn canon(r: &extractocol_core::AnalysisReport) -> (String, String) {
    (r.to_table(), r.to_json().to_json())
}

#[test]
fn reports_identical_across_job_counts() {
    let apps: Vec<_> = extractocol_corpus::open_source_apps()
        .into_iter()
        .chain(extractocol_corpus::closed_source_apps())
        .collect();
    assert!(!apps.is_empty());
    for app in &apps {
        let seq = analyze(app, 1);
        for jobs in [2, 4, 0] {
            let par = analyze(app, jobs);
            assert_eq!(
                canon(&seq),
                canon(&par),
                "{}: report differs between jobs=1 and jobs={jobs}",
                app.truth.name
            );
        }
    }
}

#[test]
fn summary_cache_hits_on_corpus() {
    let mut total_hits = 0;
    let mut total_misses = 0;
    for app in extractocol_corpus::open_source_apps()
        .into_iter()
        .chain(extractocol_corpus::closed_source_apps())
    {
        let report = analyze(&app, 0);
        let cache = &report.metrics.cache;
        assert_eq!(cache.lookups(), cache.hits + cache.misses, "{}", app.truth.name);
        total_hits += cache.hits;
        total_misses += cache.misses;
    }
    assert!(
        total_hits > 0,
        "at least one corpus app must reuse method summaries across DPs \
         (hits {total_hits} / misses {total_misses})"
    );
    assert!(total_misses > 0, "every first segment is a miss");
}

#[test]
fn metrics_are_populated() {
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let report = analyze(&app, 0);
    let m = &report.metrics;
    assert!(m.jobs >= 1, "resolved worker count");
    assert_eq!(m.per_dp.len(), report.stats.dp_sites, "one slice metric per DP");
    for (i, dp) in m.per_dp.iter().enumerate() {
        assert_eq!(dp.dp_id, i, "per-DP metrics ordered by DP id");
        assert!(dp.total_stmts() >= dp.request_stmts);
    }
    // Phase windows are disjoint sub-intervals of the run.
    assert!(m.phases.total() <= report.stats.duration);
    assert!(m.phases.slicing.as_nanos() > 0, "slicing phase timed");
}

/// The points-to solve and the lint pass obey the same determinism
/// contract as the report: byte-identical output whether the per-DP
/// fan-out ran sequentially or across every core.
#[test]
fn pointsto_and_lints_identical_across_job_counts() {
    for app in extractocol_corpus::open_source_apps()
        .into_iter()
        .chain(extractocol_corpus::closed_source_apps())
    {
        let seq = analyze(&app, 1);
        let par = analyze(&app, 0);
        assert_eq!(
            seq.metrics.lints.to_text(),
            par.metrics.lints.to_text(),
            "{}: lint output differs between jobs=1 and jobs=0",
            app.truth.name
        );
        assert_eq!(
            seq.metrics.pts, par.metrics.pts,
            "{}: points-to stats differ between jobs=1 and jobs=0",
            app.truth.name
        );
        assert!(seq.metrics.pts.is_some(), "{}: pointsto runs by default", app.truth.name);
    }
}

/// The conformance oracle obeys the same contract: its diagnostic text is
/// byte-identical whether the analysis behind it ran sequentially or
/// across every core (ISSUE 3 satellite: `--jobs 1` vs `--jobs 0`).
#[test]
fn conformance_output_identical_across_job_counts() {
    use extractocol_dynamic::conformance::conformance_check;
    for app in extractocol_corpus::open_source_apps()
        .into_iter()
        .chain(extractocol_corpus::closed_source_apps())
    {
        let (_, seq) = conformance_check(&app, 1);
        let (_, par) = conformance_check(&app, 0);
        assert_eq!(
            seq.to_text(),
            par.to_text(),
            "{}: conformance output differs between jobs=1 and jobs=0",
            app.truth.name
        );
        assert_eq!(seq, par, "{}: conformance reports differ structurally", app.truth.name);
    }
}

/// Concurrency smoke test: one analyzer instance, many threads.
#[test]
fn analyzer_is_shareable_across_threads() {
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let analyzer = Extractocol::with_options(Options { jobs: 2, ..Options::default() });
    let baseline = canon(&analyzer.analyze(&app.apk));
    std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..4).map(|_| s.spawn(|| canon(&analyzer.analyze(&app.apk)))).collect();
        for h in handles {
            assert_eq!(h.join().expect("analysis thread"), baseline);
        }
    });
}
