//! Corpus-driven serving benches: the shared corpus inputs (every
//! app's analysis report and perfect-fuzzer request set, in corpus
//! order) and the adversarial bench behind `extractocol-serve attack`.

use crate::index::SignatureIndex;
use crate::metrics::ServeMetrics;
use extractocol_core::report::AnalysisReport;
use extractocol_http::{JsonValue, Request};
use std::time::Instant;

/// Analyzes every corpus app and returns the reports in corpus order
/// (deterministic, so the compiled index is too).
pub fn corpus_reports(jobs: usize) -> Vec<AnalysisReport> {
    extractocol_corpus::all_apps()
        .iter()
        .map(|app| {
            extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, jobs)
        })
        .collect()
}

/// The perfect-fuzzer request set of every corpus app, in corpus order.
pub fn corpus_requests() -> Vec<Request> {
    extractocol_corpus::all_apps()
        .iter()
        .flat_map(|app| {
            extractocol_dynamic::run_perfect_fuzzer(app).transactions.into_iter().map(|t| t.request)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Adversarial bench (`extractocol-serve attack`)
// ---------------------------------------------------------------------------

/// Per-attack-class outcome tally for the printed table / JSON output.
#[derive(Clone, Debug, Default)]
pub struct AttackClassTally {
    pub cases: usize,
    pub parse_errors: usize,
    pub matched: usize,
    pub unmatched: usize,
    pub budget_exhausted: usize,
}

/// Result of one adversarial bench run.
#[derive(Clone, Debug)]
pub struct AttackBenchReport {
    pub seed: u64,
    pub per_class: usize,
    pub cases: usize,
    pub per_class_tally: Vec<(&'static str, AttackClassTally)>,
    /// Parse+classify latency percentiles over all cases (µs).
    pub p50_latency_us: f64,
    pub p99_latency_us: f64,
    pub elapsed_secs: f64,
    /// Cases re-checked through the brute-force path.
    pub differential_checked: usize,
    /// Trie vs brute-force verdict disagreements (must be 0).
    pub differential_disagreements: usize,
}

impl AttackBenchReport {
    /// Serializes the report for `ATTACK_bench.json`.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.insert("seed", JsonValue::num(self.seed as f64));
        o.insert("per_class", JsonValue::num(self.per_class as f64));
        o.insert("cases", JsonValue::num(self.cases as f64));
        o.insert("p50_latency_us", JsonValue::num(self.p50_latency_us));
        o.insert("p99_latency_us", JsonValue::num(self.p99_latency_us));
        o.insert("elapsed_secs", JsonValue::num(self.elapsed_secs));
        o.insert("differential_checked", JsonValue::num(self.differential_checked as f64));
        o.insert(
            "differential_disagreements",
            JsonValue::num(self.differential_disagreements as f64),
        );
        let mut classes = JsonValue::object();
        for (name, t) in &self.per_class_tally {
            let mut c = JsonValue::object();
            c.insert("cases", JsonValue::num(t.cases as f64));
            c.insert("parse_errors", JsonValue::num(t.parse_errors as f64));
            c.insert("matched", JsonValue::num(t.matched as f64));
            c.insert("unmatched", JsonValue::num(t.unmatched as f64));
            c.insert("budget_exhausted", JsonValue::num(t.budget_exhausted as f64));
            classes.insert(name, c);
        }
        o.insert("classes", classes);
        o
    }
}

/// Runs the adversarial bench against `index` (compiled from the corpus,
/// or loaded from an archive via `attack --index`): generates the seeded
/// attack suite over real fuzzer traffic as base material, then parses +
/// classifies every case sequentially (timing each), filling the
/// [`AttackMetrics`](crate::metrics::AttackMetrics) families on the
/// returned [`ServeMetrics`] registry. A spread subsample of parsed
/// cases is re-classified through the brute-force path; any verdict
/// disagreement is reported (and must fail the caller).
pub fn run_attack(
    index: &SignatureIndex,
    seed: u64,
    per_class: usize,
) -> (AttackBenchReport, ServeMetrics) {
    use extractocol_dynamic::{generate_attacks, AdversarialConfig, AttackClass};

    let base = corpus_requests();
    let metrics = ServeMetrics::new();
    metrics.observe_index(index.len(), index.trie_nodes());
    let attack_metrics = crate::metrics::AttackMetrics::on(&metrics.registry);

    let config = AdversarialConfig { seed, per_class };
    let cases = generate_attacks(&config, &base);

    let mut tallies: Vec<(&'static str, AttackClassTally)> =
        AttackClass::ALL.iter().map(|c| (c.name(), AttackClassTally::default())).collect();
    let tally_idx = |class: AttackClass| AttackClass::ALL.iter().position(|c| *c == class).unwrap();

    // A spread subsample for the brute-force differential check: full
    // brute force on every giant probe would dominate the bench without
    // adding signal (the exhaustive check lives in tests/adversarial.rs).
    let check_budget = 150usize.min(cases.len()).max(1);
    let check_step = cases.len().div_ceil(check_budget).max(1);

    let run_started = Instant::now();
    let mut lat_us: Vec<f64> = Vec::with_capacity(cases.len());
    let mut differential_checked = 0usize;
    let mut differential_disagreements = 0usize;
    for case in &cases {
        let tally = &mut tallies[tally_idx(case.class)].1;
        tally.cases += 1;
        let t = Instant::now();
        let parsed = case.parse();
        match parsed {
            Err(_) => {
                let d = t.elapsed();
                tally.parse_errors += 1;
                attack_metrics.observe_parse_error(case.class, Some(d));
                lat_us.push(d.as_secs_f64() * 1e6);
            }
            Ok(None) => {
                // Truncation degenerated the line into a blank — nothing
                // to classify, nothing to count beyond the case itself.
            }
            Ok(Some(req)) => {
                let (verdict, probe) = index.classify(&req);
                let d = t.elapsed();
                match verdict {
                    crate::index::Verdict::Match(_) => tally.matched += 1,
                    crate::index::Verdict::Unmatched => tally.unmatched += 1,
                }
                tally.budget_exhausted += probe.budget_exhausted;
                attack_metrics.observe_classified(case.class, &verdict, &probe, Some(d));
                lat_us.push(d.as_secs_f64() * 1e6);
                if case.id % check_step == 0 {
                    differential_checked += 1;
                    if index.classify_brute(&req).0 != verdict {
                        differential_disagreements += 1;
                    }
                }
            }
        }
    }
    let elapsed = run_started.elapsed().as_secs_f64();

    lat_us.sort_unstable_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if lat_us.is_empty() {
            return 0.0;
        }
        let i = ((lat_us.len() - 1) as f64 * p).round() as usize;
        lat_us[i]
    };

    let report = AttackBenchReport {
        seed,
        per_class,
        cases: cases.len(),
        per_class_tally: tallies,
        p50_latency_us: pct(0.50),
        p99_latency_us: pct(0.99),
        elapsed_secs: elapsed,
        differential_checked,
        differential_disagreements,
    };
    (report, metrics)
}
