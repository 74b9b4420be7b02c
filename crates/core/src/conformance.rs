//! Differential signature-conformance oracle.
//!
//! Cross-checks a statically extracted [`AnalysisReport`] against a
//! concrete traffic trace (the transactions the dynamic interpreter
//! observed for the same app). The paper validates signatures by replaying
//! reconstructed transactions against real servers (§4, §5.1 "All such
//! signatures generated a valid match with the actual traffic trace");
//! this module is the in-repo analogue and the correctness backstop for
//! the whole signature pipeline.
//!
//! Every check is *differential* where possible: URI and header values are
//! matched both through the compiled regex ([`SigPat::to_regex`] +
//! regexlite) and through direct structural matching on the signature tree
//! ([`SigPat::matches`]), so a bug in the regex compiler or the regex
//! engine shows up as an [`MismatchKind::EngineDisagreement`] instead of
//! silently biasing the verdict. Structured bodies go through
//! [`JsonSig::matches`](crate::siglang::JsonSig::matches) /
//! [`XmlSig::matches`](crate::siglang::XmlSig::matches), and dependency
//! edges are checked against the observed transaction order.
//!
//! All matching is step-budgeted ([`DEFAULT_MATCH_BUDGET`]); running out
//! of budget is a definitive diagnostic, never a silent no-match.

use crate::report::{AnalysisReport, TxnReport};
use crate::sigbuild::{BodySig, ResponseSig};
use crate::siglang::SigPat;
use extractocol_http::regexlite::{BudgetExceeded, DEFAULT_MATCH_BUDGET};
use extractocol_http::{Body, Regex, Transaction};
use std::fmt;

/// Which part of the transaction a diagnostic is about.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConformanceField {
    Method,
    Uri,
    Header(String),
    RequestBody,
    ResponseBody,
    Pairing,
}

impl fmt::Display for ConformanceField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceField::Method => write!(f, "method"),
            ConformanceField::Uri => write!(f, "uri"),
            ConformanceField::Header(h) => write!(f, "header:{h}"),
            ConformanceField::RequestBody => write!(f, "request-body"),
            ConformanceField::ResponseBody => write!(f, "response-body"),
            ConformanceField::Pairing => write!(f, "pairing"),
        }
    }
}

/// How the concrete traffic disagreed with the signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MismatchKind {
    /// The signature matched none of the observed messages.
    Unmatched,
    /// The compiled regex and the structural matcher returned different
    /// verdicts for the same input — a signature-compilation bug.
    EngineDisagreement,
    /// `SigPat::to_regex` produced something regexlite rejects.
    RegexCompile,
    /// The match-step budget ran out before a verdict.
    BudgetExceeded,
    /// A matched message's header value violates the header signature.
    HeaderMismatch,
    /// A matched message's body violates the body signature.
    BodyMismatch,
    /// A dependency edge's producer was first observed only after its
    /// consumer — the observed order cannot realize the data flow.
    PairingViolation,
}

impl fmt::Display for MismatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MismatchKind::Unmatched => "unmatched",
            MismatchKind::EngineDisagreement => "engine-disagreement",
            MismatchKind::RegexCompile => "regex-compile",
            MismatchKind::BudgetExceeded => "budget-exceeded",
            MismatchKind::HeaderMismatch => "header-mismatch",
            MismatchKind::BodyMismatch => "body-mismatch",
            MismatchKind::PairingViolation => "pairing-violation",
        };
        f.write_str(s)
    }
}

/// One structured mismatch record.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConformanceDiag {
    /// App display name.
    pub app: String,
    /// Static transaction id (`TxnReport::id`), if the diagnostic is
    /// anchored to one.
    pub txn_id: Option<usize>,
    /// Demarcation-point class of that transaction.
    pub dp_class: String,
    /// The field that failed.
    pub field: ConformanceField,
    /// The failure kind.
    pub kind: MismatchKind,
    /// The concrete observed value (truncated for display).
    pub concrete: String,
    /// The signature, rendered in the intermediate language.
    pub signature: String,
    /// The compiled regex the signature rendered to, when relevant.
    pub regex: String,
}

impl ConformanceDiag {
    /// One-line stable rendering (also the dedup key).
    pub fn to_line(&self) -> String {
        let txn = match self.txn_id {
            Some(id) => format!("txn#{id}"),
            None => "txn#-".to_string(),
        };
        format!(
            "[{}] {} dp={} field={} kind={} concrete={:?} sig={:?} regex={:?}",
            self.app,
            txn,
            self.dp_class,
            self.field,
            self.kind,
            self.concrete,
            self.signature,
            self.regex
        )
    }
}

/// Oracle result for one app.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConformanceReport {
    /// App display name.
    pub app: String,
    /// Static transaction signatures checked.
    pub signatures_checked: usize,
    /// Concrete trace messages checked.
    pub messages_checked: usize,
    /// Trace messages no signature matched. These are informational:
    /// raw-socket ad/analytics traffic is statically invisible by design
    /// (the calibrated corpus contains such messages on purpose).
    pub orphan_messages: usize,
    /// Mismatch diagnostics, deduplicated, in deterministic order.
    pub diags: Vec<ConformanceDiag>,
}

impl ConformanceReport {
    /// True when the oracle found no mismatches.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Stable text rendering: a summary line plus one line per diagnostic.
    /// Byte-identical across worker counts for the same inputs.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "conformance app={} signatures={} messages={} orphans={} diags={}\n",
            self.app,
            self.signatures_checked,
            self.messages_checked,
            self.orphan_messages,
            self.diags.len()
        );
        for d in &self.diags {
            out.push_str(&d.to_line());
            out.push('\n');
        }
        out
    }
}

/// Truncation cap for concrete values embedded in diagnostics.
const CONCRETE_CAP: usize = 120;

fn clip(s: &str) -> String {
    if s.len() <= CONCRETE_CAP {
        return s.to_string();
    }
    let mut end = CONCRETE_CAP;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// A dual-engine verdict for one signature/input pair.
enum Verdict {
    Match,
    NoMatch,
    /// Engines disagree: (structural, regex) verdicts.
    Disagree(bool, bool),
    Budget,
}

/// Matches `input` against `sig` through both the structural matcher and
/// the pre-compiled regex, comparing verdicts.
fn dual_match(sig: &SigPat, re: &Regex, input: &str) -> Verdict {
    let structural = sig.matches_budgeted(input, DEFAULT_MATCH_BUDGET);
    let compiled = re.is_match_budgeted(input, DEFAULT_MATCH_BUDGET);
    match (structural, compiled) {
        (Ok(a), Ok(b)) if a == b => {
            if a {
                Verdict::Match
            } else {
                Verdict::NoMatch
            }
        }
        (Ok(a), Ok(b)) => Verdict::Disagree(a, b),
        _ => Verdict::Budget,
    }
}

/// The request-body check: constant form keys must be present (by the
/// structural matcher and by the compiled regex), JSON/XML bodies must
/// satisfy the tree signature, text signatures accept anything, and
/// mismatched representation kinds fail.
///
/// Public because the signature-serving classifier (`extractocol-serve`)
/// applies the *same* body semantics to surviving candidates — a request
/// must never classify differently under the oracle and under the index.
pub fn request_body_matches(sig: &BodySig, body: &Body) -> bool {
    request_body_matches_budgeted(sig, body, usize::MAX)
        .expect("unbounded budget cannot be exceeded")
}

/// Budgeted variant of [`request_body_matches`]: the same semantics, but
/// every structural/regex comparison runs under a step budget so a
/// pathological body (deeply nested JSON, giant forms, regex-exhaustion
/// text) cannot burn unbounded work. `Err(BudgetExceeded)` is distinct
/// from `Ok(false)`; callers on the serving hot path treat it as a
/// non-match *and* count it, keeping trie and brute-force verdicts
/// identical on adversarial traffic.
pub fn request_body_matches_budgeted(
    sig: &BodySig,
    body: &Body,
    budget: usize,
) -> Result<bool, BudgetExceeded> {
    match (sig, body) {
        (BodySig::Form(pairs), Body::Form(concrete)) => {
            for (k, _) in pairs {
                let mut structural = false;
                for (ck, _) in concrete {
                    if k.matches_budgeted(ck, budget)? {
                        structural = true;
                        break;
                    }
                }
                if !structural {
                    return Ok(false);
                }
                let mut compiled = false;
                if let Ok(re) = Regex::new(&k.to_regex()) {
                    for (ck, _) in concrete {
                        if re.is_match_budgeted(ck, budget)? {
                            compiled = true;
                            break;
                        }
                    }
                }
                if !compiled {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        (BodySig::Json(js), Body::Json(j)) => js.matches_budgeted(j, budget),
        (BodySig::Xml(xs), Body::Xml(x)) => xs.matches_budgeted(x, budget),
        (BodySig::Text(_), _) => Ok(true),
        _ => Ok(false),
    }
}

/// Stable display of a body signature for diagnostics.
fn body_sig_display(sig: &BodySig) -> String {
    match sig {
        BodySig::Form(pairs) => {
            let kv: Vec<String> =
                pairs.iter().map(|(k, v)| format!("{}={}", k.display(), v.display())).collect();
            format!("form({})", kv.join("&"))
        }
        BodySig::Json(j) => j.display(),
        BodySig::Xml(x) => x.to_dtd().replace('\n', " "),
        BodySig::Text(p) => format!("text({})", p.display()),
    }
}

/// Checks one static transaction signature against the whole trace,
/// returning the indices of trace lines it matched.
fn check_txn(
    app: &str,
    txn: &TxnReport,
    trace: &[Transaction],
    diags: &mut Vec<ConformanceDiag>,
) -> Vec<usize> {
    let diag = |field: ConformanceField, kind: MismatchKind, concrete: &str| ConformanceDiag {
        app: app.to_string(),
        txn_id: Some(txn.id),
        dp_class: txn.dp_class.clone(),
        field,
        kind,
        concrete: clip(concrete),
        signature: txn.uri.display(),
        regex: txn.uri_regex.clone(),
    };

    let re = match Regex::new(&txn.uri_regex) {
        Ok(re) => re,
        Err(e) => {
            diags.push(diag(ConformanceField::Uri, MismatchKind::RegexCompile, &e.to_string()));
            return Vec::new();
        }
    };

    let mut hits = Vec::new();
    for (i, t) in trace.iter().enumerate() {
        if t.request.method != txn.method {
            continue;
        }
        let uri = t.request.uri.to_uri_string();
        match dual_match(&txn.uri, &re, &uri) {
            Verdict::Match => hits.push(i),
            Verdict::NoMatch => {}
            Verdict::Disagree(s, r) => diags.push(diag(
                ConformanceField::Uri,
                MismatchKind::EngineDisagreement,
                &format!("{uri} (structural={s} regex={r})"),
            )),
            Verdict::Budget => {
                diags.push(diag(ConformanceField::Uri, MismatchKind::BudgetExceeded, &uri))
            }
        }
    }
    if hits.is_empty() {
        diags.push(diag(
            ConformanceField::Uri,
            MismatchKind::Unmatched,
            &format!("no {} message matched", txn.method),
        ));
        return hits;
    }

    for &i in &hits {
        let t = &trace[i];
        // Headers: every signature-constrained header must be present on
        // the concrete request with a value both engines accept.
        for (name, sig) in &txn.header_sigs {
            let mk = |concrete: &str, kind| ConformanceDiag {
                app: app.to_string(),
                txn_id: Some(txn.id),
                dp_class: txn.dp_class.clone(),
                field: ConformanceField::Header(name.clone()),
                kind,
                concrete: clip(concrete),
                signature: sig.display(),
                regex: sig.to_regex(),
            };
            let Some(value) = t.request.headers.get(name) else {
                diags.push(mk("<absent>", MismatchKind::HeaderMismatch));
                continue;
            };
            let hre = match Regex::new(&sig.to_regex()) {
                Ok(r) => r,
                Err(e) => {
                    diags.push(mk(&e.to_string(), MismatchKind::RegexCompile));
                    continue;
                }
            };
            match dual_match(sig, &hre, value) {
                Verdict::Match => {}
                Verdict::NoMatch => diags.push(mk(value, MismatchKind::HeaderMismatch)),
                Verdict::Disagree(s, r) => diags.push(mk(
                    &format!("{value} (structural={s} regex={r})"),
                    MismatchKind::EngineDisagreement,
                )),
                Verdict::Budget => diags.push(mk(value, MismatchKind::BudgetExceeded)),
            }
        }

        // Request body: checked when the signature constrains one and the
        // concrete message carries one.
        if let Some(bs) = &txn.request_body {
            if !t.request.body.is_empty() && !request_body_matches(bs, &t.request.body) {
                diags.push(ConformanceDiag {
                    app: app.to_string(),
                    txn_id: Some(txn.id),
                    dp_class: txn.dp_class.clone(),
                    field: ConformanceField::RequestBody,
                    kind: MismatchKind::BodyMismatch,
                    concrete: clip(&t.request.body.to_bytes_string()),
                    signature: body_sig_display(bs),
                    regex: String::new(),
                });
            }
        }

        // Response body: the static signature describes only the parts the
        // app *reads*, so it is checked against structurally aligned
        // representations (JSON sig vs JSON body, XML sig vs XML body).
        let resp_ok = match (&txn.response, &t.response.body) {
            (Some(ResponseSig::Json(js)), Body::Json(j)) => js.matches(j),
            (Some(ResponseSig::Xml(xs)), Body::Xml(x)) => xs.matches(x),
            _ => true,
        };
        if !resp_ok {
            let sig_disp = match &txn.response {
                Some(ResponseSig::Json(js)) => js.display(),
                Some(ResponseSig::Xml(xs)) => xs.to_dtd(),
                _ => String::new(),
            };
            diags.push(ConformanceDiag {
                app: app.to_string(),
                txn_id: Some(txn.id),
                dp_class: txn.dp_class.clone(),
                field: ConformanceField::ResponseBody,
                kind: MismatchKind::BodyMismatch,
                concrete: clip(&t.response.body.to_bytes_string()),
                signature: sig_disp,
                regex: String::new(),
            });
        }
    }
    hits
}

/// Runs the full oracle: every static signature against every concrete
/// message, plus dependency-order checks. Deterministic: diagnostics are
/// produced in (transaction id, trace order) and deduplicated.
pub fn check(report: &AnalysisReport, trace: &[Transaction]) -> ConformanceReport {
    let mut diags = Vec::new();
    let mut matched_by_txn: Vec<(usize, Vec<usize>)> = Vec::new();
    for txn in &report.transactions {
        let hits = check_txn(&report.app, txn, trace, &mut diags);
        matched_by_txn.push((txn.id, hits));
    }

    // Request/response pairing vs observed order: a dependency edge
    // `from → to` carries response data of `from` into the request of
    // `to`, so `to`'s request cannot *only* be observed before `from`'s
    // earliest response. (Repeated transactions legitimately interleave,
    // hence min-vs-max, not strict adjacency.)
    for edge in &report.dependencies {
        let hits = |id: usize| {
            matched_by_txn.iter().find(|(t, _)| *t == id).map(|(_, h)| h.as_slice()).unwrap_or(&[])
        };
        let (from, to) = (hits(edge.from), hits(edge.to));
        if from.is_empty() || to.is_empty() {
            continue;
        }
        let first_producer = *from.iter().min().unwrap();
        let last_consumer = *to.iter().max().unwrap();
        if first_producer >= last_consumer {
            let txn = report.transactions.iter().find(|t| t.id == edge.to);
            diags.push(ConformanceDiag {
                app: report.app.clone(),
                txn_id: Some(edge.to),
                dp_class: txn.map(|t| t.dp_class.clone()).unwrap_or_default(),
                field: ConformanceField::Pairing,
                kind: MismatchKind::PairingViolation,
                concrete: format!(
                    "producer txn#{} first at line {}, consumer txn#{} last at line {}",
                    edge.from, first_producer, edge.to, last_consumer
                ),
                signature: format!(
                    "dep {} -> {} via {:?}/{:?}",
                    edge.from, edge.to, edge.resp_field, edge.req_field
                ),
                regex: String::new(),
            });
        }
    }

    let mut seen = std::collections::BTreeSet::new();
    diags.retain(|d| seen.insert(d.to_line()));

    let matched_lines: std::collections::BTreeSet<usize> =
        matched_by_txn.iter().flat_map(|(_, h)| h.iter().copied()).collect();
    ConformanceReport {
        app: report.app.clone(),
        signatures_checked: report.transactions.len(),
        messages_checked: trace.len(),
        orphan_messages: trace.len() - matched_lines.len(),
        diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::pairing::Pairing;
    use crate::report::Stats;
    use extractocol_http::{HttpMethod, Request, Response};

    fn txn(id: usize, uri: SigPat, method: HttpMethod) -> TxnReport {
        TxnReport {
            id,
            dp_class: "org.apache.http.client.HttpClient".into(),
            root: "t.C.go".into(),
            method,
            uri_regex: uri.to_regex(),
            uri,
            headers: Vec::new(),
            header_sigs: Vec::new(),
            request_body: None,
            response: None,
            pairing: Pairing::Unique,
            origins: Vec::new(),
            consumptions: Vec::new(),
        }
    }

    fn report(txns: Vec<TxnReport>) -> AnalysisReport {
        AnalysisReport {
            app: "test-app".into(),
            transactions: txns,
            dependencies: Vec::new(),
            stats: Stats::default(),
            metrics: Metrics::default(),
        }
    }

    fn get(uri: &str) -> Transaction {
        Transaction { request: Request::get(uri), response: Response::ok(Body::Empty) }
    }

    #[test]
    fn clean_trace_produces_no_diags() {
        let uri = SigPat::Concat(vec![SigPat::lit("http://h/api?q="), SigPat::any_str()]);
        let r = report(vec![txn(0, uri, HttpMethod::Get)]);
        let trace = vec![get("http://h/api?q=cats"), get("http://other/untracked")];
        let c = check(&r, &trace);
        assert!(c.is_clean(), "{}", c.to_text());
        assert_eq!(c.signatures_checked, 1);
        assert_eq!(c.messages_checked, 2);
        assert_eq!(c.orphan_messages, 1);
    }

    #[test]
    fn unmatched_signature_is_flagged() {
        let r = report(vec![txn(0, SigPat::lit("http://h/exact"), HttpMethod::Get)]);
        let trace = vec![get("http://h/other")];
        let c = check(&r, &trace);
        assert_eq!(c.diags.len(), 1);
        assert_eq!(c.diags[0].kind, MismatchKind::Unmatched);
        assert_eq!(c.diags[0].field, ConformanceField::Uri);
    }

    #[test]
    fn header_mismatch_is_flagged() {
        let mut t = txn(0, SigPat::lit("http://h/a"), HttpMethod::Get);
        t.header_sigs = vec![("Cookie".into(), SigPat::lit("session=fixed"))];
        t.headers = vec![("Cookie".into(), "session=fixed".into())];
        let r = report(vec![t]);
        let mut msg = get("http://h/a");
        msg.request.headers.add("Cookie", "session=other");
        let c = check(&r, &[msg]);
        assert_eq!(c.diags.len(), 1);
        assert_eq!(c.diags[0].kind, MismatchKind::HeaderMismatch);
        assert_eq!(c.diags[0].field, ConformanceField::Header("Cookie".into()));
        // absent header also flags
        let c2 = check(&r, &[get("http://h/a")]);
        assert_eq!(c2.diags.len(), 1);
        assert_eq!(c2.diags[0].concrete, "<absent>");
    }

    #[test]
    fn pairing_order_violation_is_flagged() {
        let login = txn(0, SigPat::lit("http://h/login"), HttpMethod::Get);
        let feed = txn(1, SigPat::lit("http://h/feed"), HttpMethod::Get);
        let mut r = report(vec![login, feed]);
        r.dependencies.push(crate::interdep::DependencyEdge {
            from: 0,
            to: 1,
            via: crate::interdep::DepVia::Direct,
            resp_field: None,
            req_field: Some("header:Cookie".into()),
        });
        // Correct order: login observed before feed.
        let ok = check(&r, &[get("http://h/login"), get("http://h/feed")]);
        assert!(ok.is_clean(), "{}", ok.to_text());
        // Inverted order: consumer strictly before producer.
        let bad = check(&r, &[get("http://h/feed"), get("http://h/login")]);
        assert_eq!(bad.diags.len(), 1);
        assert_eq!(bad.diags[0].kind, MismatchKind::PairingViolation);
    }

    #[test]
    fn text_output_is_stable_and_dedups() {
        let r = report(vec![txn(3, SigPat::lit("http://h/x"), HttpMethod::Get)]);
        let trace = vec![get("http://h/no")];
        let a = check(&r, &trace);
        let b = check(&r, &trace);
        assert_eq!(a.to_text(), b.to_text());
        assert!(a
            .to_text()
            .starts_with("conformance app=test-app signatures=1 messages=1 orphans=1 diags=1\n"));
        assert!(a.to_text().contains("txn#3"));
    }
}
