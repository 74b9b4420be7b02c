//! `analyze-cold` and `analyze-incremental`: repeated 34-app passes of
//! `analyze_app_with`, one app after another in seeded order.
//!
//! Set-up loads the corpus and analyses every app once without any cache
//! (the reference reports); `analyze-incremental` then warms its `.exsm`
//! cache with one untimed targeted pass. Each measured pass checks every
//! report against the corpus ground truth and, byte for byte, against
//! the reference — so warm targeted reports must equal cold ones.

use crate::{median, outcome, ratio, timed_setup, Checks, Layers, Measured, Outcome, RunConfig};
use crate::{seeded_order, Workload};
use extractocol_core::report::AnalysisReport;
use extractocol_core::TraceCollector;
use extractocol_corpus::AppSpec;
use extractocol_dynamic::conformance::{analyze_app_with, EvalConfig};
use extractocol_http::HttpMethod;
use extractocol_obs::SpanRecord;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Whole-program analysis on one worker (see the crate docs for why one)
/// with no summary cache.
const COLD: EvalConfig =
    EvalConfig { jobs: 1, targeted: false, incremental: false, summary_cache_path: None };

struct Prepared {
    apps: Vec<AppSpec>,
    order: Vec<u32>,
    /// `to_json` of each app's cold report, by corpus index.
    reference: Vec<String>,
}

/// One pass over every app.
#[derive(Default)]
struct Pass {
    /// `(app, seconds)` of every analysis that finished.
    app_secs: Vec<(usize, f64)>,
    failed: u64,
    transactions: u64,
    dependencies: u64,
}

pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let mut checks = Checks::default();
    let (p, setup_s) = timed_setup(|| setup(cfg, &mut checks));
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut counts = BTreeMap::new();
    let mut note_pass = |pass: &Pass, counts: &mut BTreeMap<&'static str, u64>| {
        attempted += pass.app_secs.len() as u64 + pass.failed;
        failed += pass.failed;
        counts.insert("apps", p.apps.len() as u64);
        counts.insert("transactions_per_pass", pass.transactions);
        counts.insert("dependencies_per_pass", pass.dependencies);
    };

    let (metrics, notes) = if cfg.trace {
        // Untraced and traced passes alternate, so both sample the whole
        // measured phase.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let mut layers = Layers::default();
        let started = Instant::now();
        while started.elapsed() < cfg.measure {
            untraced.extend(passes(&p, cfg, Duration::ZERO, None, &mut checks));
            traced.extend(passes(&p, cfg, Duration::ZERO, Some(&mut layers), &mut checks));
        }
        for pass in untraced.iter().chain(&traced) {
            note_pass(pass, &mut counts);
        }
        let mut per_pass = Layers::default();
        for (name, _) in crate::PER_LAYER {
            per_pass.set(name, layers.get(name) / traced.len() as f64);
        }
        per_pass.set(
            "analysis.taint.summary_hit_ratio",
            ratio(layers.get("summary_hits"), layers.get("analysis.taint.summary_lookups")),
        );
        per_pass.set(
            "incr.hit_rate",
            ratio(layers.get("incr_reused"), layers.get("incr.summary_lookups")),
        );
        let mean_secs = |ps: &[Pass]| {
            let secs: f64 = ps.iter().flat_map(|p| &p.app_secs).map(|(_, s)| s).sum();
            secs / ps.iter().map(|p| p.app_secs.len()).sum::<usize>().max(1) as f64
        };
        per_pass.set("trace_overhead_frac", mean_secs(&traced) / mean_secs(&untraced) - 1.0);
        let note = format!("{} untraced + {} traced passes", untraced.len(), traced.len());
        (per_pass.finish(), vec![note])
    } else {
        let all = passes(&p, cfg, cfg.measure, None, &mut checks);
        let mut m = Measured::new(p.apps.len());
        let mut pass_secs = Vec::new();
        for pass in &all {
            note_pass(pass, &mut counts);
            let secs: f64 = pass.app_secs.iter().map(|(_, s)| s).sum();
            pass_secs.push(secs);
            m.rates.push(pass.app_secs.len() as f64 / secs);
            for &(app, s) in &pass.app_secs {
                m.record(app, s * 1e6);
            }
        }
        let median_pass = median(&mut pass_secs);
        let (metrics, note) = m.end_to_end(setup_s);
        (metrics, vec![note, format!("{} passes, median {median_pass:.4} s per pass", all.len())])
    };
    let _ = std::fs::remove_dir_all(&cfg.cache_dir);
    outcome(checks, attempted, failed, metrics, counts, &p.order, notes)
}

fn eval_config(cfg: &RunConfig, app: usize) -> EvalConfig {
    match cfg.workload {
        Workload::AnalyzeIncremental => EvalConfig {
            targeted: true,
            incremental: true,
            summary_cache_path: Some(cache_path(cfg, app)),
            ..COLD
        },
        _ => COLD,
    }
}

fn cache_path(cfg: &RunConfig, app: usize) -> PathBuf {
    cfg.cache_dir.join(format!("app{app}.exsm"))
}

fn setup(cfg: &RunConfig, checks: &mut Checks) -> Prepared {
    let apps = extractocol_corpus::all_apps();
    let order = seeded_order(apps.len(), apps.len(), cfg.seed);
    let reference = apps
        .iter()
        .map(|app| {
            let report = analyze_app_with(
                &app.apk,
                app.truth.open_source,
                &COLD,
                &TraceCollector::disabled(),
            );
            check_truth(app, &report, checks);
            report.to_json().to_json()
        })
        .collect();
    let p = Prepared { apps, order, reference };
    if cfg.workload == Workload::AnalyzeIncremental {
        let _ = std::fs::remove_dir_all(&cfg.cache_dir);
        std::fs::create_dir_all(&cfg.cache_dir).expect("create the summary-cache directory");
        passes(&p, cfg, Duration::ZERO, None, checks);
    }
    p
}

/// The report's GET/POST/PUT/DELETE and pair counts equal the corpus
/// ground truth (async heuristic off for open-source apps, as in §5.1).
fn check_truth(app: &AppSpec, report: &AnalysisReport, checks: &mut Checks) {
    let truth = app.truth.static_counts_with(!app.truth.open_source);
    let got = [
        report.method_count(HttpMethod::Get),
        report.method_count(HttpMethod::Post),
        report.method_count(HttpMethod::Put),
        report.method_count(HttpMethod::Delete),
        report.pair_count(),
    ];
    let want = [truth.get, truth.post, truth.put, truth.delete, truth.pairs];
    checks.ensure(got == want, || {
        format!("{}: GET/POST/PUT/DELETE/pairs {got:?}, ground truth {want:?}", app.truth.name)
    });
}

/// Runs whole passes until `budget` has elapsed (at least one pass).
/// With `layers`, each app runs under an enabled trace collector and its
/// spans and report counters are added to `layers`.
fn passes(
    p: &Prepared,
    cfg: &RunConfig,
    budget: Duration,
    mut layers: Option<&mut Layers>,
    checks: &mut Checks,
) -> Vec<Pass> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let mut pass = Pass::default();
        for &i in &p.order {
            let i = i as usize;
            let app = &p.apps[i];
            let trace = match layers {
                Some(_) => TraceCollector::enabled(),
                None => TraceCollector::disabled(),
            };
            let ecfg = eval_config(cfg, i);
            let t = Instant::now();
            let report = catch_unwind(AssertUnwindSafe(|| {
                analyze_app_with(&app.apk, app.truth.open_source, &ecfg, &trace)
            }));
            let secs = t.elapsed().as_secs_f64();
            let Ok(report) = report else {
                pass.failed += 1;
                continue;
            };
            pass.app_secs.push((i, secs));
            pass.transactions += report.transactions.len() as u64;
            pass.dependencies += report.dependencies.len() as u64;
            check_truth(app, &report, checks);
            checks.ensure(report.to_json().to_json() == p.reference[i], || {
                format!("{}: report differs from the cold reference", app.truth.name)
            });
            if let Some(layers) = layers.as_deref_mut() {
                add_layers(layers, &trace.drain(), &report);
            }
        }
        out.push(pass);
        if started.elapsed() >= budget {
            return out;
        }
    }
}

/// Folds one app's spans and report counters into the per-layer totals.
fn add_layers(layers: &mut Layers, spans: &[SpanRecord], report: &AnalysisReport) {
    for s in spans {
        let (name, ns) = match (s.cat.as_str(), s.name.as_str()) {
            ("phase", "deobfuscation") => ("core.deobf.ms", s.dur_ns()),
            // Self time: the points-to and call-graph steps nest inside.
            ("phase", "indexing") => ("ir.index.ms", s.self_ns),
            ("step", "pointsto_solve" | "pointsto_solve_scoped") => {
                ("analysis.pointsto.ms", s.dur_ns())
            }
            ("step", "callgraph_build") => ("analysis.callgraph.ms", s.dur_ns()),
            ("step", "lint") => ("analysis.lint.ms", s.dur_ns()),
            ("phase", "demarcation") => ("core.demarcation.ms", s.dur_ns()),
            // Self time: the scoped points-to step nests inside.
            ("phase", "targeted") => ("incr.cone.ms", s.self_ns),
            ("phase", "incremental") | ("step", "incremental_save") => {
                ("incr.cache.ms", s.dur_ns())
            }
            ("phase", "slicing") => ("core.slicing.ms", s.dur_ns()),
            ("phase", "pairing") => ("core.pairing.ms", s.dur_ns()),
            ("phase", "signatures") => ("core.sigbuild.ms", s.dur_ns()),
            ("phase", "dependencies") => ("core.interdep.ms", s.dur_ns()),
            _ => continue,
        };
        layers.add(name, ns as f64 / 1e6);
    }
    // `summary_hits` and `incr_reused` are the numerators of the two
    // hit ratios, which `run` divides out.
    let m = &report.metrics;
    layers.add("analysis.taint.summary_lookups", m.cache.lookups() as f64);
    layers.add("summary_hits", m.cache.hits as f64);
    layers.add("core.slicing.slice_stmts", report.stats.sliced_stmts as f64);
    if let Some(pts) = &m.pts {
        layers.add("analysis.pointsto.propagations", pts.propagations as f64);
    }
    if let Some(incr) = &m.incr {
        layers.add(
            "incr.summary_lookups",
            (incr.reused_summaries + incr.recomputed_summaries) as f64,
        );
        layers.add("incr_reused", incr.reused_summaries as f64);
        layers.add("incr.recomputed_methods", incr.recomputed_methods as f64);
    }
    if let Some(t) = &m.targeted {
        layers.add("incr.cone_methods", t.cone_methods as f64);
        layers.add("incr.skipped_classes", t.skipped_classes as f64);
    }
}
