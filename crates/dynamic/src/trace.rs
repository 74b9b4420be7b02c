//! Captured traffic and the paper's trace-level metrics.
//!
//! * **Signature validity** (§5.1): every static signature with a
//!   corresponding trace must match it (URI regex + method + body
//!   signature).
//! * **Constant keywords** (Fig. 7): query keys, form keys, JSON keys, and
//!   XML tags/attributes found in requests/responses.
//! * **Byte attribution** (Table 2): what fraction of message bytes is
//!   covered by constant keywords (Rk), by the values of identified
//!   key/value pairs (Rv), and by fully-wildcard content (Rn).

use extractocol_core::report::{AnalysisReport, TxnReport};
use extractocol_core::sigbuild::{BodySig, ResponseSig};
use extractocol_http::{Body, HttpMethod, Regex, Transaction};
use std::collections::BTreeSet;
use std::fmt;

/// A captured traffic trace for one app.
#[derive(Clone, Debug)]
pub struct TrafficTrace {
    pub app: String,
    pub transactions: Vec<Transaction>,
}

impl TrafficTrace {
    /// Unique request URIs observed.
    pub fn unique_uris(&self) -> BTreeSet<String> {
        self.transactions.iter().map(|t| t.request.uri.to_uri_string()).collect()
    }

    /// Count of unique requests per method.
    pub fn method_count(&self, m: HttpMethod) -> usize {
        self.transactions
            .iter()
            .filter(|t| t.request.method == m)
            .map(|t| t.request.uri.to_uri_string())
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Constant keywords in request query strings and bodies (Fig. 7,
    /// left bars): query keys, form keys, JSON body keys.
    pub fn request_keywords(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for t in &self.transactions {
            for (k, _) in &t.request.uri.query {
                out.insert(k.clone());
            }
            match &t.request.body {
                Body::Form(pairs) => {
                    for (k, _) in pairs {
                        out.insert(k.clone());
                    }
                }
                Body::Json(j) => {
                    for k in j.all_keys() {
                        out.insert(k.to_string());
                    }
                }
                Body::Xml(x) => {
                    for k in x.all_keywords() {
                        out.insert(k.to_string());
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Constant keywords in response bodies (Fig. 7, right bars).
    pub fn response_keywords(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for t in &self.transactions {
            match &t.response.body {
                Body::Json(j) => {
                    for k in j.all_keys() {
                        out.insert(k.to_string());
                    }
                }
                Body::Xml(x) => {
                    for k in x.all_keywords() {
                        out.insert(k.to_string());
                    }
                }
                _ => {}
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Line-based request serialization (the serving subsystem's wire format)
// ---------------------------------------------------------------------------

/// Hard cap on one wire-format line. Anything longer is an attack or a
/// corrupted file, never legitimate traffic: the body-parse limits
/// ([`extractocol_http::JsonLimits`]) stop at 8 MiB, so 16 MiB leaves
/// room for the URI and framing around the largest legal body.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Hard cap on the byte length a `application/octet-stream` body may
/// declare. The length is *modelled*, not allocated, but an absurd value
/// (or a u64-overflow probe) is still a malformed line, not a request.
pub const MAX_BINARY_BYTES: usize = 1 << 30;

/// A structured, line-anchored wire-format parse error. The parser is
/// total: every input — including adversarial bytes — yields either a
/// trace or one of these, never a panic and never a silently dropped
/// field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number the error is anchored to.
    pub line: usize,
    pub kind: TraceParseErrorKind,
}

/// What exactly was wrong with the line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceParseErrorKind {
    /// Line exceeds [`MAX_LINE_BYTES`].
    LineTooLong { len: usize, max: usize },
    /// First field is not a known HTTP method.
    UnknownMethod(String),
    /// No URI field, or an empty one.
    MissingUri,
    /// A MIME field with no body field after it.
    MimeWithoutBody(String),
    /// More than the four `METHOD URI MIME BODY` fields. Rejected rather
    /// than ignored: silent truncation would hide framing corruption.
    TrailingFields { extra: usize },
    /// Unknown MIME tag in the third field.
    UnknownMime(String),
    /// Body field failed to decode under its MIME tag (with parse limits).
    BadBody(String),
    /// Dangling or unknown `\` escape inside a field.
    BadEscape(String),
    /// `application/octet-stream` length is not a number within
    /// [`MAX_BINARY_BYTES`].
    BadBinaryLength(String),
    /// Input is not valid UTF-8 (from [`TrafficTrace::parse_request_bytes`]).
    InvalidUtf8 { byte_offset: usize },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceParseErrorKind as K;
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            K::LineTooLong { len, max } => write!(f, "line too long ({len} bytes > max {max})"),
            K::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            K::MissingUri => write!(f, "missing URI"),
            K::MimeWithoutBody(m) => write!(f, "MIME {m:?} without a body field"),
            K::TrailingFields { extra } => {
                write!(f, "{extra} trailing field(s) after the body")
            }
            K::UnknownMime(m) => write!(f, "unknown MIME {m:?}"),
            K::BadBody(e) => write!(f, "bad body: {e}"),
            K::BadEscape(e) => write!(f, "bad escape: {e}"),
            K::BadBinaryLength(raw) => write!(f, "bad binary length {raw:?}"),
            K::InvalidUtf8 { byte_offset } => {
                write!(f, "invalid UTF-8 at byte offset {byte_offset}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Escapes a wire-format field so the framing bytes (tab, newline, CR)
/// and the escape character itself survive one tab-separated line.
/// JSON/XML writers already never emit control characters, but free-text
/// bodies, form values, and hostile URIs can contain anything.
fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_field`]. Unknown or dangling escapes are errors —
/// passing them through silently would un-anchor the round-trip property.
fn unescape_field(s: &str) -> Result<String, TraceParseErrorKind> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                return Err(TraceParseErrorKind::BadEscape(format!("\\{other}")));
            }
            None => return Err(TraceParseErrorKind::BadEscape("dangling \\".into())),
        }
    }
    Ok(out)
}

impl TrafficTrace {
    /// Serializes the trace's *requests* as one tab-separated line each:
    ///
    /// ```text
    /// METHOD<TAB>URI[<TAB>MIME<TAB>BODY]
    /// ```
    ///
    /// Blank lines and `#` comments are permitted in files. This is the
    /// traffic source format of `extractocol-serve classify --traffic`;
    /// responses are deliberately not serialized — classification is a
    /// request-side workload. The URI and body fields are escaped
    /// (`escape_field`) so tabs/newlines/CRs in free-text bodies or
    /// hostile URIs cannot break the framing; binary bodies serialize as
    /// their byte length.
    pub fn to_request_text(&self) -> String {
        let mut out = String::new();
        for t in &self.transactions {
            let req = &t.request;
            out.push_str(req.method.as_str());
            out.push('\t');
            out.push_str(&escape_field(&req.uri.to_uri_string()));
            match &req.body {
                Body::Empty => {}
                Body::Binary(n) => {
                    out.push('\t');
                    out.push_str(req.body.mime());
                    out.push('\t');
                    out.push_str(&n.to_string());
                }
                other => {
                    out.push('\t');
                    out.push_str(other.mime());
                    out.push('\t');
                    out.push_str(&escape_field(&other.to_bytes_string()));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses the [`TrafficTrace::to_request_text`] format back into a
    /// trace. Responses come back empty (`200`, no body): the format
    /// carries exactly what a classifier consumes.
    ///
    /// The parser is **total**: malformed input yields a structured,
    /// line-anchored [`TraceParseError`] — never a panic, never a silently
    /// ignored field — and per-line/body byte caps bound the work done on
    /// any input.
    pub fn parse_request_text(app: &str, text: &str) -> Result<TrafficTrace, TraceParseError> {
        let mut transactions = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let err = |kind: TraceParseErrorKind| TraceParseError { line: lineno, kind };
            if line.len() > MAX_LINE_BYTES {
                return Err(err(TraceParseErrorKind::LineTooLong {
                    len: line.len(),
                    max: MAX_LINE_BYTES,
                }));
            }
            let line = line.trim_end_matches('\r');
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split('\t');
            let method_str = fields.next().unwrap_or("");
            let method = HttpMethod::parse(method_str)
                .ok_or_else(|| err(TraceParseErrorKind::UnknownMethod(method_str.into())))?;
            let uri = fields
                .next()
                .filter(|u| !u.is_empty())
                .ok_or_else(|| err(TraceParseErrorKind::MissingUri))?;
            let uri = unescape_field(uri).map_err(&err)?;
            let body = match (fields.next(), fields.next()) {
                (None, _) => Body::Empty,
                (Some(mime), Some(raw)) => parse_body(mime, raw).map_err(&err)?,
                (Some(mime), None) => {
                    return Err(err(TraceParseErrorKind::MimeWithoutBody(mime.into())))
                }
            };
            let extra = fields.count();
            if extra > 0 {
                return Err(err(TraceParseErrorKind::TrailingFields { extra }));
            }
            transactions.push(Transaction {
                request: extractocol_http::Request {
                    method,
                    uri: extractocol_http::Uri::parse(&uri),
                    headers: Default::default(),
                    body,
                },
                response: extractocol_http::Response::ok(Body::Empty),
            });
        }
        Ok(TrafficTrace { app: app.to_string(), transactions })
    }

    /// Byte-level entry point for untrusted input: validates UTF-8 first
    /// and reports a structured, line-anchored error instead of forcing
    /// callers through a lossy conversion (or a panic on `from_utf8`).
    pub fn parse_request_bytes(app: &str, bytes: &[u8]) -> Result<TrafficTrace, TraceParseError> {
        match std::str::from_utf8(bytes) {
            Ok(text) => Self::parse_request_text(app, text),
            Err(e) => {
                let byte_offset = e.valid_up_to();
                let line = bytes[..byte_offset].iter().filter(|&&b| b == b'\n').count() + 1;
                Err(TraceParseError {
                    line,
                    kind: TraceParseErrorKind::InvalidUtf8 { byte_offset },
                })
            }
        }
    }
}

/// Parses a single wire-format line into a request. The streaming
/// counterpart of [`TrafficTrace::parse_request_text`] for line-at-a-time
/// consumers (the serve daemon): same grammar, same total-parser
/// guarantees, but no trace allocation per line. Blank lines and `#`
/// comments yield `Ok(None)`. Errors are anchored to line 1.
pub fn parse_request_line(
    line: &str,
) -> Result<Option<extractocol_http::Request>, TraceParseError> {
    let trimmed = line.trim_end_matches(['\r', '\n']);
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut trace = TrafficTrace::parse_request_text("line", trimmed)?;
    Ok(trace.transactions.pop().map(|t| t.request))
}

/// Decodes one serialized body field by its MIME tag, under the HTTP
/// layer's parse limits (depth/node/byte budgets for JSON and XML).
fn parse_body(mime: &str, raw: &str) -> Result<Body, TraceParseErrorKind> {
    use TraceParseErrorKind as K;
    match mime {
        "application/x-www-form-urlencoded" => {
            Ok(Body::Form(extractocol_http::uri::parse_query(&unescape_field(raw)?)))
        }
        "application/json" => extractocol_http::JsonValue::parse(&unescape_field(raw)?)
            .map(Body::Json)
            .map_err(|e| K::BadBody(format!("JSON: {e}"))),
        "application/xml" => extractocol_http::XmlElement::parse(&unescape_field(raw)?)
            .map(Body::Xml)
            .map_err(|e| K::BadBody(format!("XML: {e}"))),
        "text/plain" => Ok(Body::Text(unescape_field(raw)?)),
        "application/octet-stream" => match raw.parse::<usize>() {
            Ok(n) if n <= MAX_BINARY_BYTES => Ok(Body::Binary(n)),
            _ => Err(K::BadBinaryLength(raw.into())),
        },
        other => Err(K::UnknownMime(other.into())),
    }
}

/// Which trace transactions a static transaction signature matches.
pub fn matching_transactions<'t>(txn: &TxnReport, trace: &'t TrafficTrace) -> Vec<&'t Transaction> {
    let Ok(re) = Regex::new(&txn.uri_regex) else { return Vec::new() };
    trace
        .transactions
        .iter()
        .filter(|t| t.request.method == txn.method && re.is_match(&t.request.uri.to_uri_string()))
        .collect()
}

/// Signature-validity result for one app (§5.1: "All such signatures
/// generated a valid match with the actual traffic trace").
#[derive(Debug, Default, Clone)]
pub struct Validity {
    /// Signatures with at least one matching trace transaction.
    pub matched: usize,
    /// Signatures with no corresponding traffic (untriggered messages —
    /// the coverage advantage of static analysis).
    pub no_traffic: usize,
    /// Trace lines no signature matched. On a calibrated corpus these are
    /// exactly the messages static analysis cannot see (raw-socket
    /// ad/analytics traffic); anything else is a signature bug.
    pub orphan_lines: Vec<(HttpMethod, String)>,
}

/// Validates every reconstructed transaction against a trace.
pub fn validate(report: &AnalysisReport, trace: &TrafficTrace) -> Validity {
    let mut v = Validity::default();
    for txn in &report.transactions {
        if matching_transactions(txn, trace).is_empty() {
            v.no_traffic += 1;
        } else {
            v.matched += 1;
        }
    }
    for t in &trace.transactions {
        let uri = t.request.uri.to_uri_string();
        let matched = report.transactions.iter().any(|txn| {
            txn.method == t.request.method
                && Regex::new(&txn.uri_regex).map(|re| re.is_match(&uri)).unwrap_or(false)
        });
        if !matched {
            v.orphan_lines.push((t.request.method, uri));
        }
    }
    v
}

/// Byte-attribution fractions (Table 2): `Rk` = bytes matching constant
/// keywords, `Rv` = bytes of values whose keys were identified, `Rn` =
/// bytes covered only by wildcards.
#[derive(Debug, Default, Clone, Copy)]
pub struct ByteFractions {
    pub keyword_bytes: usize,
    pub value_bytes: usize,
    pub wildcard_bytes: usize,
}

impl ByteFractions {
    fn total(&self) -> usize {
        self.keyword_bytes + self.value_bytes + self.wildcard_bytes
    }

    /// `(Rk, Rv, Rn)` percentages.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.keyword_bytes as f64 / t as f64,
            100.0 * self.value_bytes as f64 / t as f64,
            100.0 * self.wildcard_bytes as f64 / t as f64,
        )
    }

    fn add(&mut self, other: ByteFractions) {
        self.keyword_bytes += other.keyword_bytes;
        self.value_bytes += other.value_bytes;
        self.wildcard_bytes += other.wildcard_bytes;
    }
}

/// Attributes the bytes of key/value pairs against a set of known keys.
fn attribute_pairs(pairs: &[(String, String)], known: &BTreeSet<String>) -> ByteFractions {
    let mut f = ByteFractions::default();
    for (k, v) in pairs {
        if known.contains(k) {
            f.keyword_bytes += k.len();
            f.value_bytes += v.len();
        } else {
            f.wildcard_bytes += k.len() + v.len();
        }
    }
    f
}

fn attribute_json(j: &extractocol_http::JsonValue, known: &BTreeSet<String>) -> ByteFractions {
    use extractocol_http::JsonValue as J;
    let mut f = ByteFractions::default();
    match j {
        J::Object(m) => {
            for (k, v) in m {
                if known.contains(k) {
                    f.keyword_bytes += k.len();
                    match v {
                        J::Object(_) | J::Array(_) => f.add(attribute_json(v, known)),
                        leaf => f.value_bytes += leaf.to_json().len(),
                    }
                } else {
                    f.wildcard_bytes += k.len() + v.to_json().len();
                }
            }
        }
        J::Array(items) => {
            for it in items {
                f.add(attribute_json(it, known));
            }
        }
        leaf => f.wildcard_bytes += leaf.to_json().len(),
    }
    f
}

/// Table 2 byte attribution for request bodies/query strings: matches each
/// trace transaction against its signature and classifies the bytes.
pub fn request_byte_fractions(report: &AnalysisReport, trace: &TrafficTrace) -> ByteFractions {
    let mut total = ByteFractions::default();
    for txn in &report.transactions {
        let known: BTreeSet<String> = txn.request_keywords().into_iter().collect();
        for t in matching_transactions(txn, trace) {
            total.add(attribute_pairs(
                &t.request
                    .uri
                    .query
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
                &known,
            ));
            match &t.request.body {
                Body::Form(pairs) => total.add(attribute_pairs(pairs, &known)),
                Body::Json(j) => total.add(attribute_json(j, &known)),
                Body::Text(s) => total.wildcard_bytes += s.len(),
                _ => {}
            }
        }
    }
    total
}

/// Table 2 byte attribution for response bodies.
pub fn response_byte_fractions(report: &AnalysisReport, trace: &TrafficTrace) -> ByteFractions {
    let mut total = ByteFractions::default();
    for txn in &report.transactions {
        let known: BTreeSet<String> = match &txn.response {
            Some(ResponseSig::Json(j)) => j.keys().into_iter().map(str::to_string).collect(),
            Some(ResponseSig::Xml(x)) => x.keywords().into_iter().map(str::to_string).collect(),
            _ => BTreeSet::new(),
        };
        for t in matching_transactions(txn, trace) {
            match &t.response.body {
                Body::Json(j) => total.add(attribute_json(j, &known)),
                Body::Xml(x) => {
                    // Tags/attrs as keywords; text content as values.
                    let mut stack = vec![x.clone()];
                    while let Some(e) = stack.pop() {
                        if known.contains(&e.name) {
                            total.keyword_bytes += e.name.len();
                            total.value_bytes += e.text_content().len();
                        } else {
                            total.wildcard_bytes += e.name.len() + e.text_content().len();
                        }
                        for (k, v) in &e.attrs {
                            if known.contains(k) {
                                total.keyword_bytes += k.len();
                                total.value_bytes += v.len();
                            } else {
                                total.wildcard_bytes += k.len() + v.len();
                            }
                        }
                        for c in &e.children {
                            if let extractocol_http::XmlNode::Element(ce) = c {
                                stack.push(ce.clone());
                            }
                        }
                    }
                }
                Body::Text(s) => total.wildcard_bytes += s.len(),
                _ => {}
            }
        }
    }
    total
}

/// Validates a request body against its static body signature (used by
/// integration tests for the logical-equivalence check).
pub fn body_matches(sig: &BodySig, body: &Body) -> bool {
    match (sig, body) {
        (BodySig::Form(pairs), Body::Form(concrete)) => pairs.iter().all(|(k, _)| {
            let key_re = Regex::new(&k.to_regex());
            key_re.map(|re| concrete.iter().any(|(ck, _)| re.is_match(ck))).unwrap_or(false)
        }),
        (BodySig::Json(js), Body::Json(j)) => js.matches(j),
        (BodySig::Xml(xs), Body::Xml(x)) => xs.matches(x),
        (BodySig::Text(_), _) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_http::{Request, Response};

    fn trace_with(uri: &str, body: Body, resp_body: Body) -> TrafficTrace {
        TrafficTrace {
            app: "t".into(),
            transactions: vec![Transaction {
                request: Request {
                    method: HttpMethod::Post,
                    uri: extractocol_http::Uri::parse(uri),
                    headers: Default::default(),
                    body,
                },
                response: Response::ok(resp_body),
            }],
        }
    }

    #[test]
    fn keywords_extracted_from_trace() {
        let t = trace_with(
            "https://h/api/login?user=bob&passwd=x",
            Body::Form(vec![("api_type".into(), "json".into())]),
            Body::Json(
                extractocol_http::JsonValue::parse(r#"{"modhash":"m","cookie":"c"}"#).unwrap(),
            ),
        );
        let req = t.request_keywords();
        assert!(req.contains("user") && req.contains("passwd") && req.contains("api_type"));
        let resp = t.response_keywords();
        assert!(resp.contains("modhash") && resp.contains("cookie"));
    }

    #[test]
    fn request_text_round_trips_every_body_kind() {
        let mk = |body: Body| Transaction {
            request: Request {
                method: HttpMethod::Post,
                uri: extractocol_http::Uri::parse("https://h/api?x=1"),
                headers: Default::default(),
                body,
            },
            response: Response::ok(Body::Json(
                extractocol_http::JsonValue::parse(r#"{"ignored":1}"#).unwrap(),
            )),
        };
        let trace = TrafficTrace {
            app: "rt".into(),
            transactions: vec![
                Transaction {
                    request: Request::get("https://h/plain"),
                    response: Response::ok(Body::Empty),
                },
                mk(Body::Form(vec![("user".into(), "bob".into()), ("uh".into(), "h".into())])),
                mk(Body::Json(extractocol_http::JsonValue::parse(r#"{"id":"42"}"#).unwrap())),
                mk(Body::Xml(extractocol_http::XmlElement::parse("<q><a>1</a></q>").unwrap())),
                mk(Body::Text("raw payload".into())),
                mk(Body::Binary(16)),
            ],
        };
        let text = trace.to_request_text();
        let parsed = TrafficTrace::parse_request_text("rt", &text).unwrap();
        assert_eq!(parsed.transactions.len(), trace.transactions.len());
        for (orig, back) in trace.transactions.iter().zip(&parsed.transactions) {
            assert_eq!(orig.request.method, back.request.method);
            assert_eq!(orig.request.uri.to_uri_string(), back.request.uri.to_uri_string());
            assert_eq!(orig.request.body, back.request.body);
            // Responses are intentionally not carried.
            assert_eq!(back.response.body, Body::Empty);
        }
        // Comments and blank lines are tolerated; garbage is anchored.
        let commented = format!("# header\n\n{text}");
        assert_eq!(
            TrafficTrace::parse_request_text("rt", &commented).unwrap().transactions.len(),
            trace.transactions.len()
        );
        let err = TrafficTrace::parse_request_text("rt", "FETCH https://h/x").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, TraceParseErrorKind::UnknownMethod(_)), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn wire_format_parse_errors_are_structured_and_total() {
        use TraceParseErrorKind as K;
        let parse = |s: &str| TrafficTrace::parse_request_text("adv", s);

        // Regression: trailing fields used to be silently dropped —
        // framing corruption must surface, not truncate.
        let err = parse("GET\thttps://h/a\ttext/plain\tbody\textra").unwrap_err();
        assert_eq!(err.kind, K::TrailingFields { extra: 1 });

        // Regression: a MIME tag with no body field.
        let err = parse("POST\thttps://h/a\tapplication/json").unwrap_err();
        assert!(matches!(err.kind, K::MimeWithoutBody(_)));

        // Regression: u64-overflow and absurd binary lengths are
        // structured errors, not panics or silent acceptance.
        let overflow = format!("POST\thttps://h/a\tapplication/octet-stream\t{}", u128::MAX);
        assert!(matches!(parse(&overflow).unwrap_err().kind, K::BadBinaryLength(_)));
        let absurd = format!("POST\thttps://h/a\tapplication/octet-stream\t{}", u64::MAX);
        assert!(matches!(parse(&absurd).unwrap_err().kind, K::BadBinaryLength(_)));
        assert!(parse("POST\thttps://h/a\tapplication/octet-stream\t1024").is_ok());

        // Regression: lone CR lines and empty lines are skipped, not
        // misparsed as a request with an empty method.
        assert_eq!(parse("\r\n\n# c\r\n").unwrap().transactions.len(), 0);

        // Regression: an oversized line is rejected up front with its
        // length, before any body parsing happens.
        let giant = format!("GET\thttps://h/{}", "a".repeat(MAX_LINE_BYTES));
        assert!(matches!(parse(&giant).unwrap_err().kind, K::LineTooLong { .. }));

        // Unknown escapes and dangling backslashes are anchored errors.
        let err = parse("GET\thttps://h/a\ttext/plain\tbad\\q").unwrap_err();
        assert!(matches!(err.kind, K::BadEscape(_)));
        let err = parse("GET\thttps://h/a\ttext/plain\tdangling\\").unwrap_err();
        assert!(matches!(err.kind, K::BadEscape(_)));

        // Non-UTF-8 bytes get a line-anchored structured error.
        let err =
            TrafficTrace::parse_request_bytes("adv", b"GET\thttps://h/a\n\xff\xfe").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, K::InvalidUtf8 { byte_offset: 16 }));
    }

    #[test]
    fn control_characters_in_text_bodies_round_trip() {
        // Regression: free-text bodies (and hostile URIs) containing the
        // framing bytes used to corrupt the wire format — a tab in a text
        // body silently became a trailing field.
        let trace = trace_with(
            "https://h/api?x=1",
            Body::Text("line1\nline2\ttabbed\rcr and \\backslash".into()),
            Body::Empty,
        );
        let text = trace.to_request_text();
        assert_eq!(text.lines().count(), 1, "framing broken: {text:?}");
        let back = TrafficTrace::parse_request_text("t", &text).unwrap();
        assert_eq!(back.transactions[0].request.body, trace.transactions[0].request.body);

        // Form values with embedded control characters survive too.
        let trace = trace_with(
            "https://h/api",
            Body::Form(vec![("k".into(), "v1\tv2\nv3".into())]),
            Body::Empty,
        );
        let text = trace.to_request_text();
        assert_eq!(text.lines().count(), 1);
        let back = TrafficTrace::parse_request_text("t", &text).unwrap();
        assert_eq!(back.transactions[0].request.body, trace.transactions[0].request.body);
    }

    #[test]
    fn byte_attribution_splits_known_and_unknown() {
        let known: BTreeSet<String> = ["user".to_string()].into_iter().collect();
        let f = attribute_pairs(
            &[("user".into(), "bob".into()), ("mystery".into(), "zz".into())],
            &known,
        );
        assert_eq!(f.keyword_bytes, 4);
        assert_eq!(f.value_bytes, 3);
        assert_eq!(f.wildcard_bytes, 9);
        let (rk, rv, rn) = f.percentages();
        assert!((rk + rv + rn - 100.0).abs() < 1e-9);
    }
}
