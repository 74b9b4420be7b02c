//! `classify-uri` and `classify-body`: the perfect-fuzzer request set of
//! the whole corpus against the compiled 34-app signature index.
//!
//! The measured phase alternates `classify_batch` windows (throughput)
//! with sequential windows that time each request (latency), all walking
//! one tiled order. Every verdict is checked against the verdict set-up
//! computed for its base request, which itself equals `classify_brute`.

use crate::{outcome, ratio, seeded_order, timed_setup, Checks, Layers, Measured, Outcome};
use crate::{RunConfig, Workload};
use extractocol_core::conformance::request_body_matches_budgeted;
use extractocol_http::regexlite::DEFAULT_MATCH_BUDGET;
use extractocol_http::Request;
use extractocol_serve::bench::corpus_reports;
use extractocol_serve::{classify_batch, SignatureIndex, Verdict};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Positions in the tiled, shuffled request order.
const TILED_REQUESTS: usize = 65_536;
/// Requests per `classify_batch` call in the throughput phase.
const BATCH: usize = 4096;
/// Length of one measured window (throughput, latency or traced).
pub(crate) const WINDOW: Duration = Duration::from_millis(250);

/// Which fuzzer requests a workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mix {
    Bodiless,
    BodyBearing,
    Natural,
}

impl Mix {
    fn admits(self, req: &Request) -> bool {
        match self {
            Mix::Bodiless => req.body.is_empty(),
            Mix::BodyBearing => !req.body.is_empty(),
            Mix::Natural => true,
        }
    }

    /// Pinned `(requests, matched)` of the base set: any drift in the
    /// corpus, the fuzzer or the index shows up here.
    fn pinned(self) -> (usize, usize) {
        match self {
            Mix::Bodiless => (662, 662),
            Mix::BodyBearing => (551, 537),
            Mix::Natural => (1213, 1199),
        }
    }
}

/// The compiled index plus the base request set of one mix and its
/// expected verdicts, and the seeded tiled order over it.
pub(crate) struct ServeSetup {
    pub index: SignatureIndex,
    pub base: Vec<Request>,
    /// Wire lines of `base`, same positions.
    pub lines: Vec<String>,
    pub expected: Vec<Verdict>,
    pub order: Vec<u32>,
}

impl ServeSetup {
    pub(crate) fn counts(&self) -> BTreeMap<&'static str, u64> {
        let matched = self.expected.iter().filter(|v| matches!(v, Verdict::Match(_))).count();
        BTreeMap::from([
            ("signatures", self.index.len() as u64),
            ("base_requests", self.base.len() as u64),
            ("matched", matched as u64),
            ("unmatched", (self.base.len() - matched) as u64),
        ])
    }
}

/// Analyses the corpus, compiles the index, harvests the mix's fuzzer
/// requests and checks every base verdict against `classify_brute` and
/// the pinned totals.
pub(crate) fn serve_setup(mix: Mix, seed: u64, checks: &mut Checks) -> ServeSetup {
    let index = SignatureIndex::compile(&corpus_reports(1));
    let mut base = Vec::new();
    let mut lines = Vec::new();
    for app in &extractocol_corpus::all_apps() {
        let trace = extractocol_dynamic::run_perfect_fuzzer(app);
        let text = trace.to_request_text();
        for (t, line) in trace.transactions.into_iter().zip(text.lines()) {
            if mix.admits(&t.request) {
                base.push(t.request);
                lines.push(line.to_string());
            }
        }
    }
    let expected: Vec<Verdict> = base.iter().map(|r| index.classify(r).0).collect();
    for (req, want) in base.iter().zip(&expected) {
        let brute = index.classify_brute(req).0;
        checks.ensure(brute == *want, || {
            format!("{} {}: trie {want:?}, brute {brute:?}", req.method, req.uri.raw)
        });
    }
    let s = ServeSetup {
        order: seeded_order(base.len(), TILED_REQUESTS, seed),
        index,
        base,
        lines,
        expected,
    };
    let counts = s.counts();
    let (requests, matched) = mix.pinned();
    checks.ensure(
        (counts["base_requests"], counts["matched"]) == (requests as u64, matched as u64),
        || format!("{mix:?} base set: {counts:?}, pinned {requests} requests / {matched} matched"),
    );
    s
}

pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let mix = if cfg.workload == Workload::ClassifyUri { Mix::Bodiless } else { Mix::BodyBearing };
    let mut checks = Checks::default();
    let ((s, requests), setup_s) = timed_setup(|| {
        let s = serve_setup(mix, cfg.seed, &mut checks);
        let requests: Vec<Request> = s.order.iter().map(|&b| s.base[b as usize].clone()).collect();
        (s, requests)
    });
    // The two kinds of window alternate, so each metric samples the whole
    // measured phase and a short host slowdown lands in few windows.
    let started = Instant::now();
    let mut pos = 0;
    let mut plain = |req: &Request| s.index.classify(req).0;
    let (attempted, metrics, notes) = if cfg.trace {
        let mut tally = LayerTally::default();
        let mut layered = |req: &Request| classify_layered(&s.index, req, &mut tally);
        let (mut plain_ops, mut plain_secs, mut ops, mut secs) = (0, 0.0, 0, 0.0);
        while started.elapsed() < cfg.measure {
            let (o, t) = sequential(&s, &requests, &mut pos, &mut checks, &mut plain, None);
            (plain_ops, plain_secs) = (plain_ops + o, plain_secs + t);
            let (o, t) = sequential(&s, &requests, &mut pos, &mut checks, &mut layered, None);
            (ops, secs) = (ops + o, secs + t);
        }
        let mut layers = tally.finish();
        let overhead = (secs / ops as f64) / (plain_secs / plain_ops as f64) - 1.0;
        layers.set("trace_overhead_frac", overhead);
        let note = format!("{plain_ops} untraced + {ops} traced requests");
        (plain_ops + ops, layers.finish(), vec![note])
    } else {
        let mut m = Measured::new(s.base.len());
        let mut ops = 0;
        while started.elapsed() < cfg.measure {
            ops += batch_window(&s, &requests, &mut pos, &mut checks, &mut m.rates);
            ops += sequential(&s, &requests, &mut pos, &mut checks, &mut plain, Some(&mut m)).0;
        }
        let (metrics, note) = m.end_to_end(setup_s);
        (ops, metrics, vec![note])
    };
    outcome(checks, attempted, 0, metrics, s.counts(), &s.order, notes)
}

/// One throughput window: `classify_batch` at `jobs = 1` over consecutive
/// chunks of the tiled order from `*pos` until it has spent [`WINDOW`]
/// classifying. Pushes the window's rate to `rates`; returns requests
/// classified.
fn batch_window(
    s: &ServeSetup,
    requests: &[Request],
    pos: &mut usize,
    checks: &mut Checks,
    rates: &mut Vec<f64>,
) -> u64 {
    let (mut ops, mut busy) = (0usize, Duration::ZERO);
    while busy < WINDOW {
        let end = (*pos + BATCH).min(requests.len());
        let t = Instant::now();
        let (verdicts, _) = classify_batch(&s.index, black_box(&requests[*pos..end]), 1);
        busy += t.elapsed();
        ops += end - *pos;
        for (v, &b) in verdicts.iter().zip(&s.order[*pos..end]) {
            check_verdict(s, b, *v, checks);
        }
        *pos = if end == requests.len() { 0 } else { end };
    }
    rates.push(ops as f64 / busy.as_secs_f64());
    ops as u64
}

/// One latency window: classifies the tiled order from `*pos` one
/// request at a time with `classify` for [`WINDOW`]; with `latencies`,
/// times each request. Returns requests classified and seconds spent.
fn sequential(
    s: &ServeSetup,
    requests: &[Request],
    pos: &mut usize,
    checks: &mut Checks,
    mut classify: impl FnMut(&Request) -> Verdict,
    mut latencies: Option<&mut Measured>,
) -> (u64, f64) {
    const CHUNK: usize = 1024;
    let started = Instant::now();
    let mut ops = 0u64;
    let mut verdicts = Vec::with_capacity(CHUNK);
    while started.elapsed() < WINDOW {
        let end = (*pos + CHUNK).min(requests.len());
        verdicts.clear();
        for (req, &b) in requests[*pos..end].iter().zip(&s.order[*pos..end]) {
            match latencies.as_deref_mut() {
                Some(m) => {
                    let t = Instant::now();
                    let v = classify(black_box(req));
                    m.record(b as usize, t.elapsed().as_secs_f64() * 1e6);
                    verdicts.push(v);
                }
                None => verdicts.push(classify(black_box(req))),
            }
        }
        ops += (end - *pos) as u64;
        for (v, &b) in verdicts.iter().zip(&s.order[*pos..end]) {
            check_verdict(s, b, *v, checks);
        }
        *pos = if end == requests.len() { 0 } else { end };
    }
    (ops, started.elapsed().as_secs_f64())
}

fn check_verdict(s: &ServeSetup, base: u32, got: Verdict, checks: &mut Checks) {
    let want = s.expected[base as usize];
    checks.ensure(got == want, || {
        let req = &s.base[base as usize];
        format!("{} {}: verdict {got:?}, expected {want:?}", req.method, req.uri.raw)
    });
}

/// Per-layer work and time of the composed classify path.
#[derive(Debug, Default)]
pub(crate) struct LayerTally {
    requests: u64,
    pub parse_ns: u64,
    pub parsed: u64,
    probe_ns: u64,
    candidates: u64,
    uri_ns: u64,
    uri_evals: u64,
    uri_matches: u64,
    body_ns: u64,
    body_evals: u64,
    budget_exhausted: u64,
}

impl LayerTally {
    pub(crate) fn finish(&self) -> Layers {
        let n = self.requests as f64;
        let mut l = Layers::default();
        l.set("serve.trie_probe.ns_per_req", ratio(self.probe_ns as f64, n));
        l.set("serve.candidates_per_req", ratio(self.candidates as f64, n));
        l.set("serve.uri_match.ns_per_req", ratio(self.uri_ns as f64, n));
        l.set("serve.uri_evals_per_req", ratio(self.uri_evals as f64, n));
        l.set("serve.useful_eval_ratio", ratio(self.uri_matches as f64, self.uri_evals as f64));
        l.set("serve.body_match.ns_per_req", ratio(self.body_ns as f64, n));
        l.set("serve.body_evals_per_req", ratio(self.body_evals as f64, n));
        l.set("serve.budget_exhausted_per_req", ratio(self.budget_exhausted as f64, n));
        l.set("dynamic.wire_parse.ns_per_req", ratio(self.parse_ns as f64, self.parsed as f64));
        l
    }
}

/// `SignatureIndex::classify` composed from its layers' public calls —
/// trie probe, method filter + structural URI match, body match — in the
/// same order, with the same per-candidate budget and the same
/// first-match rule, timing each layer into `tally`.
pub(crate) fn classify_layered(
    index: &SignatureIndex,
    req: &Request,
    tally: &mut LayerTally,
) -> Verdict {
    let t0 = Instant::now();
    let candidates = index.candidates(&req.uri.raw);
    let t1 = Instant::now();
    tally.requests += 1;
    tally.candidates += candidates.len() as u64;
    let mut body = Duration::ZERO;
    let mut verdict = Verdict::Unmatched;
    for id in candidates {
        let sig = index.sig(id);
        if sig.method != req.method {
            continue;
        }
        tally.uri_evals += 1;
        match sig.uri.matches_budgeted(&req.uri.raw, DEFAULT_MATCH_BUDGET) {
            Ok(true) => tally.uri_matches += 1,
            Ok(false) => continue,
            Err(_) => {
                tally.budget_exhausted += 1;
                continue;
            }
        }
        if let (Some(body_sig), false) = (&sig.body, req.body.is_empty()) {
            tally.body_evals += 1;
            let t = Instant::now();
            let matched = request_body_matches_budgeted(body_sig, &req.body, DEFAULT_MATCH_BUDGET);
            body += t.elapsed();
            match matched {
                Ok(true) => {}
                Ok(false) => continue,
                Err(_) => {
                    tally.budget_exhausted += 1;
                    continue;
                }
            }
        }
        verdict = Verdict::Match(id);
        break;
    }
    let total = t1.elapsed();
    tally.probe_ns += (t1 - t0).as_nanos() as u64;
    tally.uri_ns += total.saturating_sub(body).as_nanos() as u64;
    tally.body_ns += body.as_nanos() as u64;
    verdict
}

/// The daemon's reply line for a verdict.
pub(crate) fn reply_for(index: &SignatureIndex, verdict: Verdict) -> String {
    match verdict {
        Verdict::Match(id) => {
            let sig = index.sig(id);
            format!("match\t{}\t{}\t{}", sig.app, sig.txn_id, sig.dp_class)
        }
        Verdict::Unmatched => "unmatched".into(),
    }
}
