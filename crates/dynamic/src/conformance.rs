//! Driver for the differential conformance oracle
//! ([`extractocol_core::conformance`]): runs each corpus app under the
//! perfect fuzzer to collect its concrete traffic, then cross-checks every
//! static signature against it — plus a seeded *mutation self-test* that
//! perturbs IR string constants and asserts the oracle flags the resulting
//! signature drift (an oracle with no teeth would pass the clean corpus
//! trivially).

use crate::fuzz::run_perfect_fuzzer;
use extractocol_core::conformance::{check, ConformanceReport};
use extractocol_core::report::AnalysisReport;
use extractocol_core::{EventLog, Extractocol, Options, TraceCollector};
use extractocol_corpus::AppSpec;
use extractocol_ir::rng::Rng;
use extractocol_ir::{Apk, Const, Expr, Place, Stmt, Value};

/// Evaluation-side analysis knobs beyond the per-app defaults: worker
/// count, targeted mode, and the persistent summary cache.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Worker threads (`0` = one per core).
    pub jobs: usize,
    /// Demand-driven cone analysis (`Options::targeted`).
    pub targeted: bool,
    /// Honor `summary_cache_path`; off runs without the persistent cache
    /// (the path is neither read nor written).
    pub incremental: bool,
    /// Persistent `.exsm` summary-cache location for this app.
    pub summary_cache_path: Option<std::path::PathBuf>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig { jobs: 0, targeted: false, incremental: true, summary_cache_path: None }
    }
}

impl EvalConfig {
    /// Just a worker count — the configuration every pre-existing driver
    /// entry point uses.
    pub fn with_jobs(jobs: usize) -> EvalConfig {
        EvalConfig { jobs, ..EvalConfig::default() }
    }
}

/// Analyzes one app with the evaluation options (paper §5.1: the async
/// heuristic is disabled for open-source apps) at the given worker count.
pub fn analyze_app(apk: &Apk, open_source: bool, jobs: usize) -> AnalysisReport {
    analyze_app_with(apk, open_source, &EvalConfig::with_jobs(jobs), &TraceCollector::disabled())
}

/// [`analyze_app`] under a full [`EvalConfig`] (targeted mode, persistent
/// summary cache), recording pipeline spans into `trace`.
pub fn analyze_app_with(
    apk: &Apk,
    open_source: bool,
    cfg: &EvalConfig,
    trace: &TraceCollector,
) -> AnalysisReport {
    let opts = Options {
        slice: extractocol_core::slicing::SliceOptions {
            async_heuristic: !open_source,
            ..Default::default()
        },
        jobs: cfg.jobs,
        targeted: cfg.targeted,
        summary_cache_path: cfg.summary_cache_path.clone().filter(|_| cfg.incremental),
        ..Options::default()
    };
    let mut analyzer = Extractocol::with_options(opts);
    analyzer.set_instruments(trace.clone(), EventLog::disabled());
    analyzer.analyze(apk)
}

/// Runs the oracle for one app: static report vs. perfect-fuzzer trace.
/// The conformance result is also attached to `report.metrics`.
pub fn conformance_check(app: &AppSpec, jobs: usize) -> (AnalysisReport, ConformanceReport) {
    conformance_check_with(app, &EvalConfig::with_jobs(jobs), &TraceCollector::disabled())
}

/// [`conformance_check`] under a full [`EvalConfig`], recording spans into
/// `trace` (one `app` span per app, `phase` spans for the fuzzer run and
/// the oracle check) and filling the `conformance` slot of
/// [`PhaseTimings`] — without it `total()` under-reports an end-to-end
/// evaluation run.
///
/// [`PhaseTimings`]: extractocol_core::PhaseTimings
pub fn conformance_check_with(
    app: &AppSpec,
    cfg: &EvalConfig,
    trace: &TraceCollector,
) -> (AnalysisReport, ConformanceReport) {
    let mut app_span = trace.span_in("app", format!("conformance:{}", app.truth.name));
    app_span.attr("app", app.truth.name.as_str());
    let mut report = analyze_app_with(&app.apk, app.truth.open_source, cfg, trace);
    let dyn_trace = {
        let _s = trace.span_in("phase", "perfect_fuzzer");
        run_perfect_fuzzer(app)
    };
    let mut phases = report.metrics.phases;
    let conf = {
        let mut s = phases.phase(trace, "conformance");
        let conf = check(&report, &dyn_trace.transactions);
        s.attr("signatures_checked", conf.signatures_checked)
            .attr("messages_checked", conf.messages_checked)
            .attr("diags", conf.diags.len());
        conf
    };
    report.metrics.phases = phases;
    report.metrics.conformance = Some(conf.clone());
    (report, conf)
}

// ---------------------------------------------------------------------------
// Seeded mutation self-test
// ---------------------------------------------------------------------------

/// Outcome of one seeded constant perturbation.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// App the mutation was applied to.
    pub app: String,
    /// The original string constant.
    pub original: String,
    /// The perturbed string constant.
    pub mutated: String,
    /// True when the oracle reported at least one diagnostic.
    pub detected: bool,
}

/// Aggregate result of a mutation run.
#[derive(Clone, Debug, Default)]
pub struct MutationSummary {
    pub outcomes: Vec<MutationOutcome>,
}

impl MutationSummary {
    /// Seeded mutations the oracle flagged.
    pub fn detected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.detected).count()
    }

    /// Total seeded mutations.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Detection rate in `[0, 1]`; `1.0` when nothing was seeded.
    pub fn rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.detected() as f64 / self.total() as f64
    }

    /// Stable text rendering (summary line + one line per miss).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "mutation seeded={} detected={} rate={:.1}%\n",
            self.total(),
            self.detected(),
            100.0 * self.rate()
        );
        for o in self.outcomes.iter().filter(|o| !o.detected) {
            out.push_str(&format!("missed [{}] {:?} -> {:?}\n", o.app, o.original, o.mutated));
        }
        out
    }
}

/// Visits every string-constant slot in the APK in deterministic order
/// (class order, method order, statement order, operand order), calling
/// `f(ordinal, string)` for each.
fn visit_strings(apk: &mut Apk, mut f: impl FnMut(usize, &mut String)) {
    let mut idx = 0usize;
    let mut on_value = |v: &mut Value, f: &mut dyn FnMut(usize, &mut String)| {
        if let Value::Const(Const::Str(s)) = v {
            f(idx, s);
            idx += 1;
        }
    };
    for class in &mut apk.classes {
        for m in &mut class.methods {
            for st in &mut m.body {
                match st {
                    Stmt::Assign { place, expr } => {
                        if let Place::ArrayElem { index, .. } = place {
                            on_value(index, &mut f);
                        }
                        match expr {
                            Expr::Use(v)
                            | Expr::Un(_, v)
                            | Expr::NewArray(_, v)
                            | Expr::Cast(_, v)
                            | Expr::InstanceOf(_, v) => on_value(v, &mut f),
                            Expr::Bin(_, a, b) => {
                                on_value(a, &mut f);
                                on_value(b, &mut f);
                            }
                            Expr::Load(p) => {
                                if let Place::ArrayElem { index, .. } = p {
                                    on_value(index, &mut f);
                                }
                            }
                            Expr::Invoke(c) => {
                                if let Some(r) = &mut c.receiver {
                                    on_value(r, &mut f);
                                }
                                for a in &mut c.args {
                                    on_value(a, &mut f);
                                }
                            }
                            Expr::New(_) => {}
                        }
                    }
                    Stmt::Invoke(c) => {
                        if let Some(r) = &mut c.receiver {
                            on_value(r, &mut f);
                        }
                        for a in &mut c.args {
                            on_value(a, &mut f);
                        }
                    }
                    Stmt::If { cond, .. } => {
                        on_value(&mut cond.lhs, &mut f);
                        on_value(&mut cond.rhs, &mut f);
                    }
                    Stmt::Switch { scrutinee, .. } => on_value(scrutinee, &mut f),
                    Stmt::Return(Some(v)) | Stmt::Throw(v) => on_value(v, &mut f),
                    Stmt::Return(None) | Stmt::Goto { .. } | Stmt::Identity { .. } | Stmt::Nop => {}
                }
            }
        }
    }
}

/// Perturbs one character of `s` with the PRNG, guaranteeing the result
/// differs from the original.
fn perturb(s: &str, rng: &mut Rng) -> String {
    const ALPHABET: &[char] =
        &['x', 'z', 'Q', '7', '3', '_', 'k', 'w', 'J', '9', 'm', 'T', 'v', '4'];
    let chars: Vec<char> = s.chars().collect();
    let i = rng.below(chars.len());
    let mut repl = *rng.pick(ALPHABET);
    while repl == chars[i] {
        repl = *rng.pick(ALPHABET);
    }
    let mut out: String = chars[..i].iter().collect();
    out.push(repl);
    out.extend(&chars[i + 1..]);
    out
}

/// Seeds constant perturbations into each app's IR and checks that the
/// oracle flags them. Only constants that feed URI signatures are mutated
/// (those are the ones the oracle is contractually sensitive to): a site
/// qualifies when its string occurs inside some URI-signature constant of
/// the app's clean report. The *dynamic* side always runs the original
/// app, so only the static signature drifts.
pub fn mutation_self_test(
    apps: &[AppSpec],
    seed: u64,
    max_sites_per_app: usize,
    jobs: usize,
) -> MutationSummary {
    let mut rng = Rng::new(seed);
    let mut summary = MutationSummary::default();
    for app in apps {
        let trace = run_perfect_fuzzer(app);
        let clean = analyze_app(&app.apk, app.truth.open_source, jobs);
        let uri_consts: Vec<String> =
            clean.transactions.iter().flat_map(|t| t.uri.constants()).map(str::to_string).collect();

        // Deterministic site discovery: string constants (len ≥ 3) that
        // appear verbatim inside some URI constant.
        let mut sites: Vec<(usize, String)> = Vec::new();
        let mut probe = app.apk.clone();
        visit_strings(&mut probe, |idx, s| {
            if s.len() >= 3 && uri_consts.iter().any(|c| c.contains(s.as_str())) {
                sites.push((idx, s.clone()));
            }
        });
        sites.truncate(max_sites_per_app);

        for (ordinal, original) in sites {
            let mutated_str = perturb(&original, &mut rng);
            let mut mutated_apk = app.apk.clone();
            visit_strings(&mut mutated_apk, |idx, s| {
                if idx == ordinal {
                    *s = mutated_str.clone();
                }
            });
            let report = analyze_app(&mutated_apk, app.truth.open_source, jobs);
            let conf = check(&report, &trace.transactions);
            summary.outcomes.push(MutationOutcome {
                app: app.truth.name.clone(),
                original,
                mutated: mutated_str,
                detected: !conf.is_clean(),
            });
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radio_reddit_is_conformant() {
        let app = extractocol_corpus::app("radio reddit").unwrap();
        let (report, conf) = conformance_check(&app, 1);
        assert!(conf.is_clean(), "{}", conf.to_text());
        assert_eq!(conf.signatures_checked, report.transactions.len());
        assert!(conf.messages_checked > 0);
        assert_eq!(report.metrics.conformance.as_ref(), Some(&conf));
    }

    #[test]
    fn mutation_is_detected_on_radio_reddit() {
        let app = extractocol_corpus::app("radio reddit").unwrap();
        let summary = mutation_self_test(std::slice::from_ref(&app), 0xDEC0DE, 2, 1);
        assert!(summary.total() > 0, "no mutation sites found");
        assert!(summary.rate() >= 0.9, "oracle missed seeded mutations:\n{}", summary.to_text());
    }
}
