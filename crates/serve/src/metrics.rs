//! Serving-side instruments: a [`Registry`]-backed bundle covering the
//! classifier (request/verdict counters, candidate-fraction distribution,
//! per-verdict-class latency histograms) and the batch machinery (shard
//! counts, shard imbalance, phase timings).
//!
//! The deterministic/per-run split matters here: verdict counters,
//! candidate totals, and the candidate-fraction histogram depend only on
//! the index and the request set, so they are registered
//! [`Volatility::Deterministic`] and must render byte-identically for any
//! `--jobs` value (pinned by the jobs-invariance test). Latencies, shard
//! imbalance, and phase seconds are wall-clock and register
//! [`Volatility::PerRun`].

use extractocol_dynamic::AttackClass;
use extractocol_obs::metrics::{FRACTION_BUCKETS, LATENCY_US_BUCKETS};
use extractocol_obs::{Counter, Gauge, Histogram, Registry, Volatility};
use std::sync::Arc;
use std::time::Duration;

use crate::index::{Probe, Verdict};

/// The serving subsystem's instrument bundle. Cheap to clone (every
/// instrument is an `Arc`); safe to update from classify workers.
#[derive(Clone)]
pub struct ServeMetrics {
    /// The backing registry — render with
    /// [`Registry::render`] / [`Registry::render_deterministic`].
    pub registry: Registry,
    requests: Arc<Counter>,
    verdict_match: Arc<Counter>,
    verdict_unmatched: Arc<Counter>,
    candidates: Arc<Counter>,
    structural_evals: Arc<Counter>,
    budget_exhausted: Arc<Counter>,
    shards: Arc<Counter>,
    candidate_fraction: Arc<Histogram>,
    latency_match: Arc<Histogram>,
    latency_unmatched: Arc<Histogram>,
    index_signatures: Arc<Gauge>,
    index_trie_nodes: Arc<Gauge>,
    shard_imbalance: Arc<Gauge>,
    load_seconds: Arc<Gauge>,
    compile_seconds: Arc<Gauge>,
    classify_seconds: Arc<Gauge>,
}

impl ServeMetrics {
    /// Builds the bundle on a fresh registry.
    pub fn new() -> ServeMetrics {
        let registry = Registry::new();
        let det = Volatility::Deterministic;
        let run = Volatility::PerRun;
        let requests =
            registry.counter("serve_classify_requests_total", &[], det, "Requests classified");
        let verdict_match = registry.counter(
            "serve_classify_verdict_total",
            &[("verdict", "match")],
            det,
            "Verdicts by class",
        );
        let verdict_unmatched = registry.counter(
            "serve_classify_verdict_total",
            &[("verdict", "unmatched")],
            det,
            "Verdicts by class",
        );
        let candidates = registry.counter(
            "serve_classify_candidates_total",
            &[],
            det,
            "Candidate-set sizes summed over all requests",
        );
        let structural_evals = registry.counter(
            "serve_classify_structural_evals_total",
            &[],
            det,
            "Structural-matcher invocations",
        );
        let budget_exhausted = registry.counter(
            "serve_classify_budget_exhausted_total",
            &[],
            det,
            "Candidates that exhausted the match budget",
        );
        let shards = registry.counter(
            "serve_shards_total",
            &[],
            det,
            "Fixed-size classify shards processed",
        );
        let candidate_fraction = registry.histogram(
            "serve_classify_candidate_fraction",
            &[],
            det,
            "Per-request fraction of signatures surviving trie pruning",
            FRACTION_BUCKETS,
        );
        let latency_match = registry.histogram(
            "serve_classify_latency_us",
            &[("verdict", "match")],
            run,
            "Single-request classify latency (us) by verdict class",
            LATENCY_US_BUCKETS,
        );
        let latency_unmatched = registry.histogram(
            "serve_classify_latency_us",
            &[("verdict", "unmatched")],
            run,
            "Single-request classify latency (us) by verdict class",
            LATENCY_US_BUCKETS,
        );
        let index_signatures =
            registry.gauge("serve_index_signatures", &[], det, "Compiled signatures in the index");
        let index_trie_nodes =
            registry.gauge("serve_index_trie_nodes", &[], det, "Trie nodes in the index");
        let shard_imbalance = registry.gauge(
            "serve_shard_imbalance_ratio",
            &[],
            run,
            "Slowest shard wall-clock over the mean shard wall-clock",
        );
        let load_seconds = registry.gauge(
            "serve_phase_load_seconds",
            &[],
            run,
            "Index archive load wall-clock (0 when the index is compiled from reports)",
        );
        let compile_seconds = registry.gauge(
            "serve_phase_compile_seconds",
            &[],
            run,
            "Report analysis + index compile wall-clock (0 when the index is loaded from an archive)",
        );
        let classify_seconds = registry.gauge(
            "serve_phase_classify_seconds",
            &[],
            run,
            "Batch classification wall-clock",
        );
        ServeMetrics {
            registry,
            requests,
            verdict_match,
            verdict_unmatched,
            candidates,
            structural_evals,
            budget_exhausted,
            shards,
            candidate_fraction,
            latency_match,
            latency_unmatched,
            index_signatures,
            index_trie_nodes,
            shard_imbalance,
            load_seconds,
            compile_seconds,
            classify_seconds,
        }
    }

    /// Records the static shape of the compiled index.
    pub fn observe_index(&self, signatures: usize, trie_nodes: usize) {
        self.index_signatures.set(signatures as f64);
        self.index_trie_nodes.set(trie_nodes as f64);
    }

    /// Records one classified request: counters, the candidate-fraction
    /// distribution, and (when timed) the per-verdict latency histogram.
    pub fn observe_request(
        &self,
        verdict: &Verdict,
        probe: &Probe,
        signatures: usize,
        latency: Option<Duration>,
    ) {
        self.requests.inc();
        self.candidates.add(probe.candidates as u64);
        self.structural_evals.add(probe.structural_evals as u64);
        self.budget_exhausted.add(probe.budget_exhausted as u64);
        if signatures > 0 {
            self.candidate_fraction.observe(probe.candidates as f64 / signatures as f64);
        }
        let latency_hist = match verdict {
            Verdict::Match(_) => {
                self.verdict_match.inc();
                &self.latency_match
            }
            Verdict::Unmatched => {
                self.verdict_unmatched.inc();
                &self.latency_unmatched
            }
        };
        if let Some(d) = latency {
            latency_hist.observe(d.as_secs_f64() * 1e6);
        }
    }

    /// Records the shard fan-out: count, plus the imbalance ratio
    /// (slowest shard over mean shard) — the number that tells you when
    /// one hot shard serializes the pool.
    pub fn observe_shards(&self, durations: &[Duration]) {
        self.shards.add(durations.len() as u64);
        if durations.is_empty() {
            return;
        }
        let total: f64 = durations.iter().map(Duration::as_secs_f64).sum();
        let mean = total / durations.len() as f64;
        let max = durations.iter().map(Duration::as_secs_f64).fold(0.0f64, f64::max);
        if mean > 0.0 {
            self.shard_imbalance.set(max / mean);
        }
    }

    /// Records the phase wall-clocks. The index comes either from an
    /// archive (`load`) or from analysing sources and compiling them
    /// (`compile`); the phase that did not run is [`Duration::ZERO`].
    pub fn observe_phases(&self, load: Duration, compile: Duration, classify: Duration) {
        self.load_seconds.set(load.as_secs_f64());
        self.compile_seconds.set(compile.as_secs_f64());
        self.classify_seconds.set(classify.as_secs_f64());
    }
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

/// Adversarial-bench instruments: per-attack-class counters (cases,
/// parse rejections, budget exhaustions, verdicts — all
/// [`Volatility::Deterministic`], so they are jobs-invariant and
/// grep-gateable in CI) plus the p99-under-attack latency histogram
/// (wall-clock, [`Volatility::PerRun`]).
#[derive(Clone)]
pub struct AttackMetrics {
    per_class: Vec<AttackClassInstruments>,
    latency: Arc<Histogram>,
}

#[derive(Clone)]
struct AttackClassInstruments {
    class: AttackClass,
    cases: Arc<Counter>,
    parse_errors: Arc<Counter>,
    budget_exhausted: Arc<Counter>,
    verdict_match: Arc<Counter>,
    verdict_unmatched: Arc<Counter>,
}

impl AttackMetrics {
    /// Registers the attack families on an existing registry (usually the
    /// one inside a [`ServeMetrics`], so one exposition carries both).
    pub fn on(registry: &Registry) -> AttackMetrics {
        let det = Volatility::Deterministic;
        let per_class = AttackClass::ALL
            .iter()
            .map(|&class| {
                let c = class.name();
                AttackClassInstruments {
                    class,
                    cases: registry.counter(
                        "serve_attack_cases_total",
                        &[("class", c)],
                        det,
                        "Adversarial cases processed, by attack class",
                    ),
                    parse_errors: registry.counter(
                        "serve_attack_parse_errors_total",
                        &[("class", c)],
                        det,
                        "Adversarial cases rejected by the wire-format parser",
                    ),
                    budget_exhausted: registry.counter(
                        "serve_attack_budget_exhausted_total",
                        &[("class", c)],
                        det,
                        "Match-budget exhaustions while classifying adversarial cases",
                    ),
                    verdict_match: registry.counter(
                        "serve_attack_verdict_total",
                        &[("class", c), ("verdict", "match")],
                        det,
                        "Adversarial verdicts, by attack class",
                    ),
                    verdict_unmatched: registry.counter(
                        "serve_attack_verdict_total",
                        &[("class", c), ("verdict", "unmatched")],
                        det,
                        "Adversarial verdicts, by attack class",
                    ),
                }
            })
            .collect();
        let latency = registry.histogram(
            "serve_attack_latency_us",
            &[],
            Volatility::PerRun,
            "Per-case parse+classify latency under attack (us)",
            LATENCY_US_BUCKETS,
        );
        AttackMetrics { per_class, latency }
    }

    fn for_class(&self, class: AttackClass) -> &AttackClassInstruments {
        self.per_class.iter().find(|i| i.class == class).expect("every attack class registered")
    }

    /// Records one case the wire-format parser rejected (a structured
    /// error — the deterministic verdict for malformed input).
    pub fn observe_parse_error(&self, class: AttackClass, latency: Option<Duration>) {
        let i = self.for_class(class);
        i.cases.inc();
        i.parse_errors.inc();
        if let Some(d) = latency {
            self.latency.observe(d.as_secs_f64() * 1e6);
        }
    }

    /// Records one case that parsed and went through the classifier.
    pub fn observe_classified(
        &self,
        class: AttackClass,
        verdict: &Verdict,
        probe: &Probe,
        latency: Option<Duration>,
    ) {
        let i = self.for_class(class);
        i.cases.inc();
        i.budget_exhausted.add(probe.budget_exhausted as u64);
        match verdict {
            Verdict::Match(_) => i.verdict_match.inc(),
            Verdict::Unmatched => i.verdict_unmatched.inc(),
        }
        if let Some(d) = latency {
            self.latency.observe(d.as_secs_f64() * 1e6);
        }
    }

    /// The observed p99 of the under-attack latency histogram, in µs.
    pub fn latency_p99_us(&self) -> f64 {
        self.latency.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_observation_updates_the_expected_families() {
        let m = ServeMetrics::new();
        m.observe_index(40, 900);
        m.observe_request(
            &Verdict::Match(3),
            &Probe { candidates: 4, structural_evals: 2, budget_exhausted: 0 },
            40,
            Some(Duration::from_micros(12)),
        );
        m.observe_request(
            &Verdict::Unmatched,
            &Probe { candidates: 0, structural_evals: 0, budget_exhausted: 0 },
            40,
            None,
        );
        let text = m.registry.render();
        assert!(text.contains("serve_classify_requests_total 2"));
        assert!(text.contains("serve_classify_verdict_total{verdict=\"match\"} 1"));
        assert!(text.contains("serve_classify_verdict_total{verdict=\"unmatched\"} 1"));
        assert!(text.contains("serve_classify_candidates_total 4"));
        assert!(text.contains("serve_index_signatures 40"));
        assert!(text.contains("serve_classify_latency_us_count{verdict=\"match\"} 1"));
    }

    #[test]
    fn latency_and_phases_stay_out_of_the_deterministic_snapshot() {
        let m = ServeMetrics::new();
        m.observe_phases(Duration::ZERO, Duration::from_millis(5), Duration::from_millis(9));
        m.observe_shards(&[Duration::from_millis(2), Duration::from_millis(4)]);
        let det = m.registry.render_deterministic();
        assert!(det.contains("serve_shards_total"));
        assert!(det.contains("serve_classify_candidate_fraction"));
        assert!(!det.contains("serve_classify_latency_us"));
        assert!(!det.contains("serve_shard_imbalance_ratio"));
        assert!(!det.contains("serve_phase_load_seconds"));
        assert!(!det.contains("serve_phase_compile_seconds"));
    }

    #[test]
    fn attack_metrics_families_render_per_class() {
        let m = ServeMetrics::new();
        let a = AttackMetrics::on(&m.registry);
        a.observe_parse_error(AttackClass::MalformedWire, Some(Duration::from_micros(3)));
        a.observe_classified(
            AttackClass::RegexExhaustion,
            &Verdict::Unmatched,
            &Probe { candidates: 2, structural_evals: 2, budget_exhausted: 1 },
            Some(Duration::from_micros(40)),
        );
        let text = m.registry.render();
        assert!(text.contains("serve_attack_cases_total{class=\"malformed_wire\"} 1"));
        assert!(text.contains("serve_attack_parse_errors_total{class=\"malformed_wire\"} 1"));
        assert!(text.contains("serve_attack_budget_exhausted_total{class=\"regex_exhaustion\"} 1"));
        assert!(text.contains(
            "serve_attack_verdict_total{class=\"regex_exhaustion\",verdict=\"unmatched\"} 1"
        ));
        assert!(text.contains("serve_attack_latency_us_bucket"));
        // The per-class counters are jobs-invariant and survive in the
        // deterministic snapshot; the latency histogram does not.
        let det = m.registry.render_deterministic();
        assert!(det.contains("serve_attack_cases_total"));
        assert!(!det.contains("serve_attack_latency_us"));
    }

    #[test]
    fn shard_imbalance_is_max_over_mean() {
        let m = ServeMetrics::new();
        m.observe_shards(&[
            Duration::from_millis(10),
            Duration::from_millis(10),
            Duration::from_millis(40),
        ]);
        let text = m.registry.render();
        assert!(text.contains("serve_shards_total 3"));
        assert!(text.contains("serve_shard_imbalance_ratio 2"));
    }
}
