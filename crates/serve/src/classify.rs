//! Batch/streaming classification over the compiled index, driven by the
//! `core::par` worker pool.
//!
//! Requests are split into **fixed-size shards** (512 requests) regardless
//! of the jobs count, each shard is classified independently, and the
//! per-shard stats are merged with order-independent operations (sums,
//! max, and a `BTreeMap` for per-app counts). Because the shard
//! boundaries don't depend on the worker count, `jobs=1` and `jobs=8`
//! produce **byte-identical** verdict vectors *and* stats — pinned by the
//! corpus-wide differential test.

use crate::index::{Probe, SignatureIndex, Verdict};
use crate::metrics::ServeMetrics;
use extractocol_core::par::parallel_map;
use extractocol_core::TraceCollector;
use extractocol_http::Request;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Shard size for batch classification. Fixed (not derived from `jobs`)
/// so stats aggregation is invariant under the worker count.
pub const SHARD_SIZE: usize = 512;

/// Aggregated, order-independent statistics of one batch run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassifyStats {
    /// Requests classified.
    pub requests: usize,
    /// Signatures in the index the batch ran against.
    pub signatures: usize,
    /// Requests that matched some signature.
    pub matched: usize,
    /// Requests with a deterministic `Unmatched` verdict.
    pub unmatched: usize,
    /// Sum of candidate-set sizes over all requests.
    pub candidates_total: usize,
    /// Sum of structural-matcher invocations over all requests.
    pub structural_evals: usize,
    /// Candidates that exhausted the match budget (counted as non-matches).
    pub budget_exhausted: usize,
    /// Largest single-request candidate set seen.
    pub max_candidates: usize,
    /// Matches attributed per app, sorted by app name.
    pub per_app: BTreeMap<String, usize>,
}

impl ClassifyStats {
    /// Merges another shard's stats in (order-independent).
    pub fn merge(&mut self, other: &ClassifyStats) {
        self.requests += other.requests;
        self.matched += other.matched;
        self.unmatched += other.unmatched;
        self.candidates_total += other.candidates_total;
        self.structural_evals += other.structural_evals;
        self.budget_exhausted += other.budget_exhausted;
        self.max_candidates = self.max_candidates.max(other.max_candidates);
        for (app, n) in &other.per_app {
            *self.per_app.entry(app.clone()).or_insert(0) += n;
        }
    }

    /// Counts one classified request.
    #[inline]
    fn record(&mut self, index: &SignatureIndex, verdict: Verdict, probe: &Probe) {
        self.requests += 1;
        self.candidates_total += probe.candidates;
        self.structural_evals += probe.structural_evals;
        self.budget_exhausted += probe.budget_exhausted;
        self.max_candidates = self.max_candidates.max(probe.candidates);
        match verdict {
            Verdict::Match(id) => {
                self.matched += 1;
                *self.per_app.entry(index.sig(id).app.clone()).or_insert(0) += 1;
            }
            Verdict::Unmatched => self.unmatched += 1,
        }
    }

    /// Mean candidate-set size per request.
    pub fn avg_candidates(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.candidates_total as f64 / self.requests as f64
        }
    }

    /// Mean fraction of the index's signatures that reach the structural
    /// matcher per request — the pruning-effectiveness headline (the
    /// acceptance bar is ≤ 0.20).
    pub fn avg_eval_fraction(&self) -> f64 {
        if self.requests == 0 || self.signatures == 0 {
            0.0
        } else {
            self.structural_evals as f64 / (self.requests * self.signatures) as f64
        }
    }

    /// Mean fraction of signatures surviving trie pruning per request.
    pub fn avg_candidate_fraction(&self) -> f64 {
        if self.requests == 0 || self.signatures == 0 {
            0.0
        } else {
            self.candidates_total as f64 / (self.requests * self.signatures) as f64
        }
    }

    /// Human-readable rendering for the CLI.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "requests:          {}", self.requests);
        let _ = writeln!(out, "signatures:        {}", self.signatures);
        let _ = writeln!(out, "matched:           {}", self.matched);
        let _ = writeln!(out, "unmatched:         {}", self.unmatched);
        let _ = writeln!(out, "avg candidates:    {:.2}", self.avg_candidates());
        let _ = writeln!(out, "max candidates:    {}", self.max_candidates);
        let _ = writeln!(
            out,
            "candidate frac:    {:.4} (structural-eval frac {:.4})",
            self.avg_candidate_fraction(),
            self.avg_eval_fraction()
        );
        let _ = writeln!(out, "budget exhausted:  {}", self.budget_exhausted);
        for (app, n) in &self.per_app {
            let _ = writeln!(out, "  {app}: {n}");
        }
        out
    }
}

/// Classifies a batch of requests on `jobs` workers. Verdicts come back
/// in input order; stats are identical for any `jobs` value.
pub fn classify_batch(
    index: &SignatureIndex,
    requests: &[Request],
    jobs: usize,
) -> (Vec<Verdict>, ClassifyStats) {
    let shards: Vec<&[Request]> = requests.chunks(SHARD_SIZE).collect();
    let shard_results = parallel_map(&shards, jobs, |_, shard| classify_shard(index, shard));
    let mut verdicts = Vec::with_capacity(requests.len());
    let mut stats = ClassifyStats { signatures: index.len(), ..ClassifyStats::default() };
    for (vs, shard_stats) in shard_results {
        verdicts.extend(vs);
        stats.merge(&shard_stats);
    }
    (verdicts, stats)
}

/// [`classify_batch`] with instruments and spans: per-request counters,
/// the candidate-fraction distribution, per-verdict latency histograms,
/// and shard-imbalance telemetry into `metrics`; a `shard → request →
/// trie_probe/structural_match` span tree into `trace` when it records.
///
/// Verdicts and stats are identical to the plain path — only the
/// per-request timer and the metric updates ride along. Throughput is
/// measured on [`classify_batch`].
pub fn classify_batch_observed(
    index: &SignatureIndex,
    requests: &[Request],
    jobs: usize,
    metrics: &ServeMetrics,
    trace: &TraceCollector,
) -> (Vec<Verdict>, ClassifyStats) {
    metrics.observe_index(index.len(), index.trie_nodes());
    let shards: Vec<&[Request]> = requests.chunks(SHARD_SIZE).collect();
    let shard_results = parallel_map(&shards, jobs, |i, shard| {
        let mut span = trace.span_in("shard", format!("shard:{i}"));
        span.attr("shard", i).attr("requests", shard.len());
        let t = Instant::now();
        let out = classify_shard_observed(index, shard, metrics, trace);
        (out, t.elapsed())
    });
    let mut verdicts = Vec::with_capacity(requests.len());
    let mut stats = ClassifyStats { signatures: index.len(), ..ClassifyStats::default() };
    let mut shard_durs = Vec::with_capacity(shard_results.len());
    for ((vs, shard_stats), dur) in shard_results {
        verdicts.extend(vs);
        stats.merge(&shard_stats);
        shard_durs.push(dur);
    }
    metrics.observe_shards(&shard_durs);
    (verdicts, stats)
}

/// Sequentially classifies one shard, feeding `metrics` and `trace`.
fn classify_shard_observed(
    index: &SignatureIndex,
    shard: &[Request],
    metrics: &ServeMetrics,
    trace: &TraceCollector,
) -> (Vec<Verdict>, ClassifyStats) {
    let mut verdicts = Vec::with_capacity(shard.len());
    let mut stats = ClassifyStats::default();
    for req in shard {
        let mut rspan = trace.span_in("request", "request");
        // The trie probe runs once more under its own span when tracing;
        // the metric path below times the real (single) classify call.
        if rspan.is_recording() {
            let mut ps = trace.span_in("step", "trie_probe");
            ps.attr("candidates", index.candidates(&req.uri.raw).len());
        }
        let t = Instant::now();
        let (verdict, probe) = {
            let mut ms = trace.span_in("step", "structural_match");
            let (verdict, probe) = index.classify(req);
            if ms.is_recording() {
                ms.attr("structural_evals", probe.structural_evals)
                    .attr("matched", matches!(verdict, Verdict::Match(_)));
            }
            (verdict, probe)
        };
        let latency = t.elapsed();
        metrics.observe_request(&verdict, &probe, index.len(), Some(latency));
        if rspan.is_recording() {
            rspan.attr("method", req.method.as_str()).attr("candidates", probe.candidates);
            if let Verdict::Match(id) = verdict {
                rspan.attr("sig_id", id as u64);
            }
        }
        stats.record(index, verdict, &probe);
        verdicts.push(verdict);
    }
    (verdicts, stats)
}

/// Sequentially classifies one shard.
fn classify_shard(index: &SignatureIndex, shard: &[Request]) -> (Vec<Verdict>, ClassifyStats) {
    let mut verdicts = Vec::with_capacity(shard.len());
    let mut stats = ClassifyStats::default();
    for req in shard {
        let (verdict, probe) = index.classify(req);
        stats.record(index, verdict, &probe);
        verdicts.push(verdict);
    }
    (verdicts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_core::metrics::Metrics;
    use extractocol_core::pairing::Pairing;
    use extractocol_core::report::{AnalysisReport, Stats, TxnReport};
    use extractocol_core::siglang::SigPat;
    use extractocol_http::HttpMethod;

    fn small_index() -> SignatureIndex {
        let txns = (0..8)
            .map(|i| TxnReport {
                id: i,
                dp_class: "java.net.HttpURLConnection".into(),
                root: "t.C.go".into(),
                method: HttpMethod::Get,
                uri_regex: String::new(),
                uri: SigPat::Concat(vec![
                    SigPat::lit(&format!("http://h/api/{i}/")),
                    SigPat::any_str(),
                ]),
                headers: Vec::new(),
                header_sigs: Vec::new(),
                request_body: None,
                response: None,
                pairing: Pairing::Unique,
                origins: Vec::new(),
                consumptions: Vec::new(),
            })
            .collect();
        SignatureIndex::compile(&[AnalysisReport {
            app: "demo".into(),
            transactions: txns,
            dependencies: Vec::new(),
            stats: Stats::default(),
            metrics: Metrics::default(),
        }])
    }

    #[test]
    fn batch_stats_are_jobs_invariant() {
        let idx = small_index();
        let reqs: Vec<Request> = (0..1500)
            .map(|i| Request::get(&format!("http://h/api/{}/item{}", i % 10, i)))
            .collect();
        let (v1, s1) = classify_batch(&idx, &reqs, 1);
        let (v8, s8) = classify_batch(&idx, &reqs, 8);
        assert_eq!(v1, v8);
        assert_eq!(s1, s8);
        assert_eq!(s1.requests, 1500);
        assert_eq!(s1.matched + s1.unmatched, 1500);
        // 8 of every 10 request shapes exist in the index.
        assert_eq!(
            s1.matched,
            reqs.iter()
                .filter(|r| !r.uri.raw.contains("/8/") && !r.uri.raw.contains("/9/"))
                .count()
        );
        assert_eq!(s1.per_app.get("demo"), Some(&s1.matched));
    }

    #[test]
    fn observed_batch_matches_the_plain_path() {
        let idx = small_index();
        let reqs: Vec<Request> =
            (0..700).map(|i| Request::get(&format!("http://h/api/{}/item{}", i % 10, i))).collect();
        let (v, s) = classify_batch(&idx, &reqs, 2);
        let metrics = ServeMetrics::new();
        let trace = TraceCollector::enabled();
        let (vo, so) = classify_batch_observed(&idx, &reqs, 1, &metrics, &trace);
        assert_eq!(v, vo);
        assert_eq!(s, so);
        let det = metrics.registry.render_deterministic();
        assert!(det.contains(&format!("serve_classify_requests_total {}", s.requests)));
        assert!(det
            .contains(&format!("serve_classify_verdict_total{{verdict=\"match\"}} {}", s.matched)));
        // jobs=1 runs shards inline: request spans nest under shard spans,
        // probe/match steps under requests.
        let spans = trace.drain();
        let shard = spans.iter().find(|r| r.cat == "shard").expect("shard span");
        assert_eq!(shard.depth, 0);
        assert!(spans.iter().any(|r| r.cat == "request" && r.depth == 1));
        assert!(spans.iter().any(|r| r.cat == "step" && r.name == "trie_probe" && r.depth == 2));
        assert!(spans
            .iter()
            .any(|r| r.cat == "step" && r.name == "structural_match" && r.depth == 2));
    }

    #[test]
    fn observed_metrics_are_jobs_invariant() {
        let idx = small_index();
        let reqs: Vec<Request> = (0..1200)
            .map(|i| Request::get(&format!("http://h/api/{}/item{}", i % 10, i)))
            .collect();
        let snapshot = |jobs: usize| {
            let metrics = ServeMetrics::new();
            classify_batch_observed(&idx, &reqs, jobs, &metrics, &TraceCollector::disabled());
            metrics.registry.render_deterministic()
        };
        assert_eq!(snapshot(1), snapshot(8));
    }

    #[test]
    fn empty_batch_yields_default_stats() {
        let idx = small_index();
        let (v, s) = classify_batch(&idx, &[], 4);
        assert!(v.is_empty());
        assert_eq!(s.requests, 0);
        assert_eq!(s.signatures, 8);
        assert_eq!(s.avg_candidates(), 0.0);
    }

    #[test]
    fn stats_text_mentions_the_headline_numbers() {
        let idx = small_index();
        let reqs = vec![Request::get("http://h/api/3/x")];
        let (_, s) = classify_batch(&idx, &reqs, 1);
        let text = s.to_text();
        assert!(text.contains("requests:          1"));
        assert!(text.contains("demo: 1"));
    }
}
