//! Flow-sensitive signature building (paper §3.2).
//!
//! Given the request/response slices of one demarcation point, this module
//! abstract-interprets the sliced code over the API semantic model and
//! maintains, for every variable, a signature in the intermediate language
//! of [`crate::siglang`]:
//!
//! * statements are processed "in basic blocks in topological order of the
//!   intra-procedural control flow graph";
//! * at confluence points signatures merge with logical disjunction (`∨`);
//! * at loop headers/latches the loop-variant part is widened into
//!   `rep{..}`;
//! * string objects track literals and written objects with offsets
//!   (modelled here as `Concat` chains); JSON/XML objects are trees;
//! * the *request* side yields the URI, method, headers, and body
//!   signatures; the *response* side yields the tree of keys the app
//!   actually parses (so unread server keys are absent, exactly as §5.1
//!   observes).
//!
//! Interprocedural evaluation inlines concrete callees (depth-limited) and
//! models instance/static fields as global cells stabilized over two
//! rounds — sufficient for the event-handler-to-heap-object flows the
//! asynchronous-event heuristic introduces.

use crate::demarcation::DpSite;
use crate::semantics::{ApiOp, CalleeTable, DpRequestLoc, DpResponseLoc, JsonAccess};
use crate::siglang::{JsonSig, SigPat, TypeHint, XmlSig};
use crate::slicing::SliceSet;
use extractocol_analysis::{CallGraph, Cfg};
use extractocol_http::uri::url_encode;
use extractocol_http::HttpMethod;
use extractocol_ir::{
    Call, Const, Expr, IdentityKind, Local, MethodId, Place, ProgramIndex, Stmt, Type, Value,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};

/// A request signature: the paper's per-transaction output (URI, query
/// string, request method, headers, body).
#[derive(Clone, Debug, PartialEq)]
pub struct RequestSignature {
    pub method: Option<HttpMethod>,
    pub uri: SigPat,
    pub headers: Vec<(String, SigPat)>,
    pub body: Option<BodySig>,
}

impl RequestSignature {
    /// The effective method: explicit, DP-implied, or GET by default (the
    /// Java URL-connection default).
    pub fn effective_method(&self, dp_implied: Option<HttpMethod>) -> HttpMethod {
        self.method.or(dp_implied).unwrap_or(HttpMethod::Get)
    }
}

/// A body signature, by representation.
#[derive(Clone, Debug, PartialEq)]
pub enum BodySig {
    /// URL-encoded form: ordered key/value signature pairs.
    Form(Vec<(SigPat, SigPat)>),
    /// JSON tree signature.
    Json(JsonSig),
    /// XML tree signature.
    Xml(XmlSig),
    /// Unstructured text.
    Text(SigPat),
}

impl BodySig {
    /// Constant keywords for the Fig. 7 metric: form keys, JSON keys, XML
    /// tags and attributes.
    pub fn keywords(&self) -> Vec<String> {
        match self {
            BodySig::Form(pairs) => pairs
                .iter()
                .filter_map(|(k, _)| match k {
                    SigPat::Const(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            BodySig::Json(j) => j.keys().into_iter().map(str::to_string).collect(),
            BodySig::Xml(x) => x.keywords().into_iter().map(str::to_string).collect(),
            BodySig::Text(_) => Vec::new(),
        }
    }
}

/// The response-side signature.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseSig {
    /// The JSON keys/shape the app reads.
    Json(JsonSig),
    /// The XML tags/attributes the app reads.
    Xml(XmlSig),
    /// The app consumes the body without structured parsing.
    Raw,
}

/// Signatures extracted for one demarcation point.
#[derive(Clone, Debug)]
pub struct DpSignatures {
    pub request: RequestSignature,
    /// `None` when no response body is processed by the app (paper Table 1
    /// counts only responses "with bodies processed by the apps").
    pub response: Option<ResponseSig>,
    /// Device/user data origins feeding the request (§2: microphone,
    /// camera, GPS, user input).
    pub origins: Vec<String>,
    /// Where the response data is consumed (§2: media player, file, …).
    pub consumptions: Vec<String>,
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// Abstract value of a variable during signature interpretation.
#[derive(Clone, Debug, PartialEq)]
enum AbsVal {
    /// A string/number with a signature pattern.
    Str(SigPat),
    /// A JSON document under construction (request side).
    Json(JsonSig),
    /// A name/value pair (`BasicNameValuePair`).
    Pair(SigPat, SigPat),
    /// A list of abstract values (form-entity input, JSON arrays).
    List(Vec<AbsVal>),
    /// A map of key signature → value (`HashMap`, `ContentValues`).
    Map(Vec<(SigPat, AbsVal)>),
    /// An HTTP request object under construction.
    Request(Box<RequestAbs>),
    /// A value derived from the response, carrying the access path from
    /// the response root (JSON keys / XML tags; `[]` = array element).
    Response(Vec<String>),
    /// Nothing known.
    Unknown,
}

/// An HTTP request object being assembled.
#[derive(Clone, Debug, PartialEq, Default)]
struct RequestAbs {
    method: Option<HttpMethod>,
    uri: Option<SigPat>,
    headers: Vec<(String, SigPat)>,
    body: Option<BodySig>,
}

impl AbsVal {
    /// The string signature of this value when written into a string
    /// context; `ty` supplies the wildcard hint for unknowns.
    fn to_sig(&self, ty: Option<&Type>) -> SigPat {
        match self {
            AbsVal::Str(p) => p.clone(),
            AbsVal::Json(j) => SigPat::Json(j.clone()),
            AbsVal::Response(_)
            | AbsVal::Unknown
            | AbsVal::List(_)
            | AbsVal::Map(_)
            | AbsVal::Pair(_, _)
            | AbsVal::Request(_) => match ty {
                Some(t) if t.is_numeric() => SigPat::Unknown(TypeHint::Num),
                Some(Type::Bool) => SigPat::Unknown(TypeHint::Bool),
                _ => SigPat::Unknown(TypeHint::Str),
            },
        }
    }

    /// Confluence merge (the `∨` of the signature language, lifted to all
    /// abstract shapes).
    fn merge(a: AbsVal, b: AbsVal) -> AbsVal {
        if a == b {
            return a;
        }
        match (a, b) {
            (AbsVal::Unknown, x) | (x, AbsVal::Unknown) => {
                // An unknown on one path poisons strings (paper: merge with
                // ∨ only when "all the instances of a variable are
                // well-defined"); structured values keep their structure.
                match x {
                    AbsVal::Str(_) => AbsVal::Str(SigPat::Unknown(TypeHint::Str)),
                    other => other,
                }
            }
            (AbsVal::Str(x), AbsVal::Str(y)) => AbsVal::Str(x.or(y)),
            (AbsVal::Json(x), AbsVal::Json(y)) => AbsVal::Json(JsonSig::merge(x, y)),
            (AbsVal::List(mut x), AbsVal::List(y)) => {
                for (i, v) in y.into_iter().enumerate() {
                    if i < x.len() {
                        let old = x[i].clone();
                        x[i] = AbsVal::merge(old, v);
                    } else {
                        x.push(v);
                    }
                }
                AbsVal::List(x)
            }
            (AbsVal::Map(mut x), AbsVal::Map(y)) => {
                for (k, v) in y {
                    if let Some((_, old)) = x.iter_mut().find(|(kk, _)| *kk == k) {
                        let prev = old.clone();
                        *old = AbsVal::merge(prev, v);
                    } else {
                        x.push((k, v));
                    }
                }
                AbsVal::Map(x)
            }
            (AbsVal::Request(x), AbsVal::Request(y)) => {
                let (mut x, y) = (*x, *y);
                x.method = match (x.method, y.method) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    (Some(a), None) | (None, Some(a)) => Some(a),
                    _ => None,
                };
                x.uri = match (x.uri, y.uri) {
                    (Some(a), Some(b)) => Some(a.or(b)),
                    (a, None) | (None, a) => a,
                };
                for (k, v) in y.headers {
                    if !x.headers.iter().any(|(kk, _)| *kk == k) {
                        x.headers.push((k, v));
                    }
                }
                x.body = match (x.body, y.body) {
                    (Some(BodySig::Json(a)), Some(BodySig::Json(b))) => {
                        Some(BodySig::Json(JsonSig::merge(a, b)))
                    }
                    (a, None) | (None, a) => a,
                    (Some(a), Some(_)) => Some(a),
                };
                AbsVal::Request(Box::new(x))
            }
            (AbsVal::Response(x), AbsVal::Response(y)) => {
                if x == y {
                    AbsVal::Response(x)
                } else {
                    AbsVal::Unknown
                }
            }
            _ => AbsVal::Unknown,
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Per-DP signature extraction.
pub struct SignatureBuilder<'a> {
    prog: &'a ProgramIndex<'a>,
    callees: &'a CalleeTable,
    graph: &'a CallGraph,
    /// Global heap cells: `class#field` → value (two-round stabilized).
    heap: RefCell<HashMap<String, AbsVal>>,
    /// Response reader tree (JSON mode).
    resp_json: RefCell<JsonSig>,
    /// Response reader tree (XML mode); root name empty = unconstrained.
    resp_xml: RefCell<Option<XmlSig>>,
    /// Did the response slice parse anything structured?
    resp_touched: RefCell<bool>,
    /// Origin/consumption notes.
    origins: RefCell<BTreeSet<String>>,
    consumptions: RefCell<BTreeSet<String>>,
    /// Captured request operand values at the DP.
    captured_request: RefCell<Option<AbsVal>>,
    /// Evaluation budget to bound inlining.
    budget: RefCell<usize>,
    /// Methods currently on the inline stack (recursion guard).
    in_progress: RefCell<HashSet<MethodId>>,
    dp: &'a DpSite,
    slice_methods: HashSet<MethodId>,
    /// Entry methods to exclude (other transaction roots of a shared DP).
    excluded_entries: Vec<MethodId>,
    /// Whether this transaction has response statements at all.
    has_response: bool,
}

impl<'a> SignatureBuilder<'a> {
    /// Extracts signatures for one transaction candidate of a shared DP:
    /// the other candidates' root methods (`excluded_entries`) are
    /// excluded from evaluation, so the captured request reflects only
    /// this candidate's paths (the per-transaction split behind Fig. 5).
    /// With no exclusions, all of the DP's roots are merged.
    pub fn extract_scoped(
        prog: &'a ProgramIndex<'a>,
        callees: &'a CalleeTable,
        graph: &'a CallGraph,
        slice: &'a SliceSet,
        excluded_entries: &[MethodId],
        has_response: bool,
    ) -> DpSignatures {
        let mut slice_methods: HashSet<MethodId> =
            slice.all_stmts().into_iter().map(|(m, _)| m).collect();
        slice_methods.insert(slice.dp.method);
        let b = SignatureBuilder {
            prog,
            callees,
            graph,
            heap: RefCell::new(HashMap::new()),
            resp_json: RefCell::new(JsonSig::Unknown),
            resp_xml: RefCell::new(None),
            resp_touched: RefCell::new(false),
            origins: RefCell::new(BTreeSet::new()),
            consumptions: RefCell::new(BTreeSet::new()),
            captured_request: RefCell::new(None),
            budget: RefCell::new(20_000),
            in_progress: RefCell::new(HashSet::new()),
            dp: &slice.dp,
            slice_methods,
            excluded_entries: excluded_entries.to_vec(),
            has_response,
        };
        b.run()
    }

    fn run(&self) -> DpSignatures {
        // Entry methods of the slice: no in-slice callers, minus the other
        // candidates' roots when scoped to one transaction.
        let mut entries: Vec<MethodId> = Vec::new();
        for &m in &self.slice_methods {
            if self.excluded_entries.contains(&m) {
                continue;
            }
            let called_from_slice = self
                .graph
                .callers
                .get(&m)
                .map(|cs| cs.iter().any(|(cm, _)| self.slice_methods.contains(cm)))
                .unwrap_or(false);
            if !called_from_slice {
                entries.push(m);
            }
        }
        entries.sort();
        // Two heap-stabilization rounds, then a final capture round.
        for _ in 0..2 {
            for &e in &entries {
                self.eval_entry(e);
            }
        }
        for &e in &entries {
            self.eval_entry(e);
        }
        // Make sure the DP's own method ran (it is always in the slice set,
        // but may be callee of an entry — evaluation then captured it).
        if self.captured_request.borrow().is_none() {
            self.eval_entry(self.dp.method);
        }
        // Callback-style DPs deliver the response through implicit edges;
        // the callback methods have in-slice callers (the DP's method) and
        // so are not entries — evaluate them explicitly with the response
        // root seeded on their framework-fed parameters.
        if self.dp.spec.response == DpResponseLoc::Callback {
            for e in self.graph.implicit_of((self.dp.method, self.dp.stmt)).to_vec() {
                self.eval_entry(e.target);
            }
        }

        // ---- assemble the request signature ----
        let captured = self.captured_request.borrow().clone().unwrap_or(AbsVal::Unknown);
        let request = match captured {
            AbsVal::Request(r) => RequestSignature {
                method: r.method,
                uri: r.uri.unwrap_or(SigPat::Unknown(TypeHint::Str)).normalize(),
                headers: r.headers,
                body: r.body,
            },
            AbsVal::Str(p) => RequestSignature {
                method: None,
                uri: p.normalize(),
                headers: Vec::new(),
                body: None,
            },
            _ => RequestSignature {
                method: None,
                uri: SigPat::Unknown(TypeHint::Str),
                headers: Vec::new(),
                body: None,
            },
        };

        // ---- assemble the response signature ----
        let response = if !self.has_response {
            None
        } else if *self.resp_touched.borrow() {
            if let Some(x) = self.resp_xml.borrow().clone() {
                Some(ResponseSig::Xml(x))
            } else {
                let j = self.resp_json.borrow().clone();
                match j {
                    JsonSig::Unknown => Some(ResponseSig::Raw),
                    tree => Some(ResponseSig::Json(tree)),
                }
            }
        } else {
            // No body-consuming operation observed: the DP fired but the
            // app never read the payload (fire-and-forget).
            None
        };

        DpSignatures {
            request,
            response,
            origins: self.origins.borrow().iter().cloned().collect(),
            consumptions: self.consumptions.borrow().iter().cloned().collect(),
        }
    }

    fn eval_entry(&self, mid: MethodId) {
        let method = self.prog.method(mid);
        let this = AbsVal::Unknown;
        let args: Vec<AbsVal> = method.params.iter().map(|_| AbsVal::Unknown).collect();
        // Response callbacks get the Response root seeded on the
        // framework-fed parameter.
        let args = self.seed_callback_args(mid, args);
        self.eval_method(mid, this, args);
    }

    /// Seeds `Response([])` on callback parameters fed by the framework at
    /// this DP (Volley's `parseNetworkResponse`, retrofit's `onResponse`…).
    fn seed_callback_args(&self, mid: MethodId, mut args: Vec<AbsVal>) -> Vec<AbsVal> {
        if self.dp.spec.response != DpResponseLoc::Callback {
            return args;
        }
        for e in self.graph.implicit_of((self.dp.method, self.dp.stmt)) {
            if e.target != mid {
                continue;
            }
            for (pi, from) in e.param_from.iter().enumerate() {
                if from.is_none() && pi < args.len() {
                    args[pi] = AbsVal::Response(Vec::new());
                    *self.resp_touched.borrow_mut() = true;
                }
            }
        }
        args
    }

    /// Evaluates a method body; returns `(return value, this after exit)`.
    fn eval_method(&self, mid: MethodId, this: AbsVal, args: Vec<AbsVal>) -> (AbsVal, AbsVal) {
        let method = self.prog.method(mid);
        if !method.has_body || method.body.is_empty() {
            return (AbsVal::Unknown, this);
        }
        {
            let mut budget = self.budget.borrow_mut();
            if *budget == 0 {
                return (AbsVal::Unknown, this);
            }
            *budget -= 1;
        }
        if !self.in_progress.borrow_mut().insert(mid) {
            return (AbsVal::Unknown, this); // recursion
        }
        let result = self.eval_body(mid, this, args);
        self.in_progress.borrow_mut().remove(&mid);
        result
    }

    fn eval_body(&self, mid: MethodId, this: AbsVal, args: Vec<AbsVal>) -> (AbsVal, AbsVal) {
        let method = self.prog.method(mid);
        let cfg = Cfg::build(method);
        type Env = HashMap<Local, AbsVal>;
        let mut env_out: Vec<Option<Env>> = vec![None; cfg.blocks.len()];
        let mut this_local: Option<Local> = None;
        let mut ret_val: Option<AbsVal> = None;
        let mut this_out: Option<AbsVal> = None;

        // Widening over loops (§3.2's loop-header/latch handling),
        // innermost loops first so an inner `rep{..}` is part of the
        // enclosing loop's delta:
        //   pass 0 — ignore back edges (loop bodies see pre-loop values);
        //   pass p (1..=depth) — headers of loops at nesting depth
        //            ≥ depth+1-p widen accumulators (latch value
        //            structurally extends the header value) to
        //            `base · rep{delta}`; the delta is *pinned* on first
        //            widening, so outer prefixes may change on later
        //            passes without re-deriving it. Headers not yet
        //            scheduled keep accumulators at their base so their
        //            delta can stabilize. Loop-carried *scalars* merge
        //            with the latch value (e.g. a counter becomes
        //            0 ∨ unknown-number) on every pass;
        //   final pass — every header applies its pinned delta;
        //            captures/returns are taken from this pass only.
        let mut loop_members: Vec<(usize, std::collections::BTreeSet<usize>)> = Vec::new();
        for &(latch, header) in &cfg.back_edges {
            let body = cfg.natural_loop(latch, header);
            if let Some(entry) = loop_members.iter_mut().find(|(h, _)| *h == header) {
                entry.1.extend(body);
            } else {
                loop_members.push((header, body));
            }
        }
        let depth_of =
            |h: usize| loop_members.iter().filter(|(_, blocks)| blocks.contains(&h)).count();
        let max_depth = loop_members.iter().map(|(h, _)| depth_of(*h)).max().unwrap_or(0);
        // First pass on which each header widens (deeper loops earlier,
        // and never before pass 2 so loop-carried scalars get one merge
        // pass to stabilize first).
        let widen_from: HashMap<usize, usize> =
            loop_members.iter().map(|(h, _)| (*h, max_depth + 2 - depth_of(*h))).collect();
        let mut deltas: HashMap<(usize, Local), SigPat> = HashMap::new();
        let passes = if cfg.back_edges.is_empty() { 1 } else { 2 + max_depth };
        for pass in 0..passes {
            let last = pass + 1 == passes;
            for &bi in &cfg.rpo {
                let block = &cfg.blocks[bi];
                // Confluence: merge forward-edge predecessor environments.
                let mut env: Env = if bi == cfg.rpo[0] {
                    Env::new()
                } else {
                    let mut merged: Option<Env> = None;
                    for &p in &block.preds {
                        if cfg.back_edges.contains(&(p, bi)) {
                            continue;
                        }
                        let Some(pe) = env_out[p].clone() else { continue };
                        merged = Some(match merged {
                            None => pe,
                            Some(acc) => merge_env(acc, pe, false),
                        });
                    }
                    merged.unwrap_or_default()
                };
                if pass > 0 {
                    let latch_envs: Vec<Env> = cfg
                        .back_edges
                        .iter()
                        .filter(|&&(_, h)| h == bi)
                        .filter_map(|&(l, _)| env_out[l].clone())
                        .collect();
                    if !latch_envs.is_empty() {
                        let widen_now = widen_from.get(&bi).is_some_and(|&w| pass >= w);
                        env = widen_env(&env, &latch_envs, widen_now, bi, &mut deltas);
                    }
                }
                for si in block.stmts() {
                    self.eval_stmt(
                        mid,
                        si,
                        &method.body[si],
                        &mut env,
                        &this,
                        &args,
                        &mut this_local,
                        &mut ret_val,
                        &mut this_out,
                        last,
                    );
                }
                env_out[bi] = Some(env);
            }
        }
        (ret_val.unwrap_or(AbsVal::Unknown), this_out.unwrap_or(this))
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_stmt(
        &self,
        mid: MethodId,
        si: usize,
        stmt: &Stmt,
        env: &mut HashMap<Local, AbsVal>,
        this: &AbsVal,
        args: &[AbsVal],
        this_local: &mut Option<Local>,
        ret_val: &mut Option<AbsVal>,
        this_out: &mut Option<AbsVal>,
        final_pass: bool,
    ) {
        let is_dp_stmt = mid == self.dp.method && si == self.dp.stmt;
        match stmt {
            Stmt::Identity { local, kind } => match kind {
                IdentityKind::This => {
                    *this_local = Some(*local);
                    env.insert(*local, this.clone());
                }
                IdentityKind::Param(p) => {
                    let v = args.get(*p as usize).cloned().unwrap_or(AbsVal::Unknown);
                    env.insert(*local, v);
                }
                IdentityKind::CaughtException => {
                    env.insert(*local, AbsVal::Unknown);
                }
            },
            Stmt::Assign { place, expr } => {
                let v = self.eval_expr(mid, si, expr, env, is_dp_stmt);
                let v = if is_dp_stmt && self.dp.spec.response == DpResponseLoc::Return {
                    // The DP's result is the response root. (Consumption is
                    // only recorded when the body is actually read.)
                    AbsVal::Response(Vec::new())
                } else {
                    v
                };
                self.write_place(place, v, env);
            }
            Stmt::Invoke(call) => {
                let _ = self.eval_call(mid, si, call, env, is_dp_stmt);
            }
            Stmt::Return(v) if final_pass => {
                let rv = match v {
                    Some(val) => self.eval_value(val, env),
                    None => AbsVal::Unknown,
                };
                *ret_val = Some(match ret_val.take() {
                    None => rv,
                    Some(old) => AbsVal::merge(old, rv),
                });
                if let Some(tl) = this_local {
                    let tv = env.get(tl).cloned().unwrap_or(AbsVal::Unknown);
                    *this_out = Some(match this_out.take() {
                        None => tv,
                        Some(old) => AbsVal::merge(old, tv),
                    });
                }
            }
            _ => {}
        }
        // Capture the request operand at the DP (merged across paths of
        // the final pass).
        if is_dp_stmt && final_pass {
            if let Some(Value::Local(req)) = &self.dp.request_value {
                let v = env.get(req).cloned().unwrap_or(AbsVal::Unknown);
                let mut cap = self.captured_request.borrow_mut();
                *cap = Some(match cap.take() {
                    None => v,
                    Some(old) => AbsVal::merge(old, v),
                });
            } else if let Some(Value::Const(Const::Str(s))) = &self.dp.request_value {
                let mut cap = self.captured_request.borrow_mut();
                *cap = Some(AbsVal::Str(SigPat::lit(s)));
            }
        }
    }

    fn write_place(&self, place: &Place, v: AbsVal, env: &mut HashMap<Local, AbsVal>) {
        match place {
            Place::Local(l) => {
                env.insert(*l, v);
            }
            Place::InstanceField { field, .. } => {
                let key = format!("{}#{}", field.class, field.name);
                let mut heap = self.heap.borrow_mut();
                let merged = match heap.remove(&key) {
                    Some(old) => AbsVal::merge(old, v),
                    None => v,
                };
                heap.insert(key, merged);
            }
            Place::StaticField(field) => {
                let key = format!("{}#{}", field.class, field.name);
                let mut heap = self.heap.borrow_mut();
                let merged = match heap.remove(&key) {
                    Some(old) => AbsVal::merge(old, v),
                    None => v,
                };
                heap.insert(key, merged);
            }
            Place::ArrayElem { .. } => {}
        }
    }

    fn eval_value(&self, v: &Value, env: &HashMap<Local, AbsVal>) -> AbsVal {
        match v {
            Value::Local(l) => env.get(l).cloned().unwrap_or(AbsVal::Unknown),
            Value::Const(c) => match c {
                Const::Str(s) => AbsVal::Str(SigPat::lit(s)),
                Const::Int(i) => AbsVal::Str(SigPat::lit(&i.to_string())),
                Const::Float(f) => AbsVal::Str(SigPat::lit(&f.to_string())),
                Const::Bool(b) => AbsVal::Str(SigPat::lit(if *b { "true" } else { "false" })),
                Const::Null => AbsVal::Unknown,
                Const::Class(c) => AbsVal::Str(SigPat::lit(c)),
            },
            Value::Resource(key) => match self.prog.apk().resources.string(key) {
                Some(s) => AbsVal::Str(SigPat::lit(s)),
                None => AbsVal::Str(SigPat::Unknown(TypeHint::Str)),
            },
        }
    }

    fn eval_expr(
        &self,
        mid: MethodId,
        si: usize,
        expr: &Expr,
        env: &mut HashMap<Local, AbsVal>,
        is_dp_stmt: bool,
    ) -> AbsVal {
        match expr {
            Expr::Use(v) => self.eval_value(v, env),
            Expr::Load(place) => match place {
                Place::InstanceField { field, .. } | Place::StaticField(field) => {
                    // Resources stored via the Resources class are resolved
                    // by cell; unknown cells stay unknown.
                    let key = format!("{}#{}", field.class, field.name);
                    self.heap.borrow().get(&key).cloned().unwrap_or(AbsVal::Unknown)
                }
                Place::ArrayElem { .. } | Place::Local(_) => AbsVal::Unknown,
            },
            Expr::New(class) => self.new_object(class),
            Expr::NewArray(_, _) => AbsVal::List(Vec::new()),
            Expr::Cast(_, v) | Expr::Un(_, v) => self.eval_value(v, env),
            Expr::InstanceOf(_, _) => AbsVal::Str(SigPat::Unknown(TypeHint::Bool)),
            Expr::Bin(_, a, b) => {
                // Numeric arithmetic on abstract strings: unknown number
                // unless both constants (kept symbolic — arithmetic results
                // are dynamic in signatures).
                let _ = (a, b);
                AbsVal::Str(SigPat::Unknown(TypeHint::Num))
            }
            Expr::Invoke(call) => self.eval_call(mid, si, call, env, is_dp_stmt),
        }
    }

    fn new_object(&self, class: &str) -> AbsVal {
        match class {
            "java.lang.StringBuilder" => AbsVal::Str(SigPat::empty()),
            "org.json.JSONObject"
            | "com.google.gson.JsonObject"
            | "com.alibaba.fastjson.JSONObject" => AbsVal::Json(JsonSig::object()),
            "org.json.JSONArray" => AbsVal::List(Vec::new()),
            c if c.ends_with("ArrayList") || c.ends_with("LinkedList") => AbsVal::List(Vec::new()),
            c if c.ends_with("HashMap") || c.ends_with("ContentValues") => AbsVal::Map(Vec::new()),
            _ => AbsVal::Unknown,
        }
    }

    /// Type hint of a value for wildcard derivation.
    fn value_type(&self, mid: MethodId, v: &Value) -> Option<Type> {
        match v {
            Value::Local(l) => self.prog.method(mid).locals.get(l.index()).map(|d| d.ty.clone()),
            Value::Const(c) => Some(c.ty()),
            Value::Resource(_) => Some(Type::string()),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval_call(
        &self,
        mid: MethodId,
        si: usize,
        call: &Call,
        env: &mut HashMap<Local, AbsVal>,
        is_dp_stmt: bool,
    ) -> AbsVal {
        let recv_val =
            call.receiver.as_ref().map(|v| self.eval_value(v, env)).unwrap_or(AbsVal::Unknown);
        let arg_vals: Vec<AbsVal> = call.args.iter().map(|v| self.eval_value(v, env)).collect();
        let arg_sig = |i: usize| -> SigPat {
            arg_vals
                .get(i)
                .map(|v| v.to_sig(call.args.get(i).and_then(|a| self.value_type(mid, a)).as_ref()))
                .unwrap_or(SigPat::Unknown(TypeHint::Str))
        };
        let set_recv = |env: &mut HashMap<Local, AbsVal>, v: AbsVal| {
            if let Some(Value::Local(l)) = &call.receiver {
                env.insert(*l, v);
            }
        };

        match self.callees.op_at(self.prog, mid, si) {
            // ---- strings ----
            ApiOp::SbNew => {
                let init = arg_vals
                    .first()
                    .map(|v| {
                        v.to_sig(call.args.first().and_then(|a| self.value_type(mid, a)).as_ref())
                    })
                    .unwrap_or(SigPat::empty());
                set_recv(env, AbsVal::Str(init));
                AbsVal::Unknown
            }
            ApiOp::SbAppend => {
                let cur = match &recv_val {
                    AbsVal::Str(p) => p.clone(),
                    _ => SigPat::empty(),
                };
                let appended = cur.concat(arg_sig(0));
                let out = AbsVal::Str(appended);
                set_recv(env, out.clone());
                out
            }
            ApiOp::SbToString | ApiOp::StrIdentity => recv_val,
            ApiOp::StrConcat => {
                let base = recv_val.to_sig(None);
                AbsVal::Str(base.concat(arg_sig(0)))
            }
            ApiOp::Stringify => {
                let hint = call.args.first().and_then(|a| self.value_type(mid, a));
                AbsVal::Str(
                    arg_vals
                        .first()
                        .map(|v| v.to_sig(hint.as_ref()))
                        .unwrap_or(SigPat::Unknown(TypeHint::Str)),
                )
            }
            ApiOp::StrFormat => {
                // Expand %s/%d in a constant format string.
                match arg_vals.first() {
                    Some(AbsVal::Str(SigPat::Const(fmt))) => {
                        let mut parts: Vec<SigPat> = Vec::new();
                        let mut rest = fmt.as_str();
                        let mut argi = 1;
                        while let Some(pos) = rest.find('%') {
                            parts.push(SigPat::lit(&rest[..pos]));
                            let spec = rest.as_bytes().get(pos + 1).copied();
                            match spec {
                                Some(b'd') => parts.push(
                                    arg_vals
                                        .get(argi)
                                        .map(|v| v.to_sig(Some(&Type::Int)))
                                        .unwrap_or(SigPat::Unknown(TypeHint::Num)),
                                ),
                                Some(b's') => parts.push(
                                    arg_vals
                                        .get(argi)
                                        .map(|v| v.to_sig(None))
                                        .unwrap_or(SigPat::any_str()),
                                ),
                                _ => parts.push(SigPat::lit("%")),
                            }
                            argi += 1;
                            rest = &rest[(pos + 2).min(rest.len())..];
                        }
                        parts.push(SigPat::lit(rest));
                        AbsVal::Str(SigPat::Concat(parts).normalize())
                    }
                    _ => AbsVal::Str(SigPat::Unknown(TypeHint::Str)),
                }
            }
            ApiOp::UrlEncode => match arg_vals.first() {
                Some(AbsVal::Str(SigPat::Const(s))) => AbsVal::Str(SigPat::lit(&url_encode(s))),
                _ => AbsVal::Str(SigPat::Unknown(TypeHint::Str)),
            },

            // ---- request objects ----
            ApiOp::ApacheRequestNew(m) => {
                let r =
                    RequestAbs { method: Some(*m), uri: Some(arg_sig(0)), ..RequestAbs::default() };
                set_recv(env, AbsVal::Request(Box::new(r)));
                AbsVal::Unknown
            }
            ApiOp::UrlNew => {
                let r = RequestAbs { uri: Some(arg_sig(0)), ..RequestAbs::default() };
                set_recv(env, AbsVal::Request(Box::new(r)));
                AbsVal::Unknown
            }
            ApiOp::SetRequestMethod => {
                if let AbsVal::Request(mut r) = recv_val {
                    if let Some(AbsVal::Str(SigPat::Const(m))) = arg_vals.first() {
                        r.method = HttpMethod::parse(m);
                    }
                    set_recv(env, AbsVal::Request(r));
                }
                AbsVal::Unknown
            }
            ApiOp::SetHeader => {
                if let AbsVal::Request(mut r) = recv_val {
                    let name = match arg_vals.first() {
                        Some(AbsVal::Str(SigPat::Const(k))) => k.clone(),
                        _ => "*".to_string(),
                    };
                    r.headers.push((name, arg_sig(1)));
                    set_recv(env, AbsVal::Request(r));
                }
                AbsVal::Unknown
            }
            ApiOp::SetBody => {
                if let AbsVal::Request(mut r) = recv_val {
                    r.body = Some(body_from(arg_vals.first().cloned().unwrap_or(AbsVal::Unknown)));
                    set_recv(env, AbsVal::Request(r));
                }
                AbsVal::Unknown
            }
            ApiOp::FormEntityNew => {
                let v = arg_vals.first().cloned().unwrap_or(AbsVal::Unknown);
                set_recv(env, v);
                AbsVal::Unknown
            }
            ApiOp::NameValuePairNew => {
                set_recv(env, AbsVal::Pair(arg_sig(0), arg_sig(1)));
                AbsVal::Unknown
            }
            ApiOp::StringEntityNew => {
                let v = arg_vals.first().cloned().unwrap_or(AbsVal::Unknown);
                set_recv(env, v);
                AbsVal::Unknown
            }
            ApiOp::OkBuilderNew => {
                set_recv(env, AbsVal::Request(Box::default()));
                AbsVal::Unknown
            }
            ApiOp::OkUrl => {
                let out = if let AbsVal::Request(mut r) = recv_val {
                    r.uri = Some(arg_sig(0));
                    AbsVal::Request(r)
                } else {
                    recv_val
                };
                set_recv(env, out.clone());
                out
            }
            ApiOp::OkGet => {
                let out = if let AbsVal::Request(mut r) = recv_val {
                    r.method = Some(HttpMethod::Get);
                    AbsVal::Request(r)
                } else {
                    recv_val
                };
                set_recv(env, out.clone());
                out
            }
            ApiOp::OkMethodBody(m) => {
                let out = if let AbsVal::Request(mut r) = recv_val {
                    r.method = Some(*m);
                    if let Some(b) = arg_vals.first() {
                        r.body = Some(body_from(b.clone()));
                    }
                    AbsVal::Request(r)
                } else {
                    recv_val
                };
                set_recv(env, out.clone());
                out
            }
            ApiOp::OkHeader => {
                let out = if let AbsVal::Request(mut r) = recv_val {
                    let name = match arg_vals.first() {
                        Some(AbsVal::Str(SigPat::Const(k))) => k.clone(),
                        _ => "*".to_string(),
                    };
                    r.headers.push((name, arg_sig(1)));
                    AbsVal::Request(r)
                } else {
                    recv_val
                };
                set_recv(env, out.clone());
                out
            }
            ApiOp::OkBuild | ApiOp::OkNewCall => {
                if matches!(op_kind(&call.callee.name), "newCall") {
                    arg_vals.first().cloned().unwrap_or(AbsVal::Unknown)
                } else {
                    recv_val
                }
            }
            ApiOp::OkBodyCreate => {
                // create(mediaType, content) or create(content, mediaType)
                arg_vals
                    .iter()
                    .find(|v| matches!(v, AbsVal::Json(_) | AbsVal::Str(_)))
                    .cloned()
                    .unwrap_or(AbsVal::Unknown)
            }
            ApiOp::VolleyRequestNew => {
                let method = match arg_vals.first() {
                    Some(AbsVal::Str(SigPat::Const(code))) => match code.as_str() {
                        "0" => Some(HttpMethod::Get),
                        "1" => Some(HttpMethod::Post),
                        "2" => Some(HttpMethod::Put),
                        "3" => Some(HttpMethod::Delete),
                        other => HttpMethod::parse(other),
                    },
                    _ => None,
                };
                let body = arg_vals.get(2).and_then(|v| match v {
                    AbsVal::Json(j) => Some(BodySig::Json(j.clone())),
                    _ => None,
                });
                let r = RequestAbs { method, uri: Some(arg_sig(1)), headers: Vec::new(), body };
                set_recv(env, AbsVal::Request(Box::new(r)));
                AbsVal::Unknown
            }
            ApiOp::RetrofitCreate => {
                let method = match arg_vals.first() {
                    Some(AbsVal::Str(SigPat::Const(m))) => HttpMethod::parse(m),
                    _ => None,
                };
                let body = arg_vals.get(2).map(|v| body_from(v.clone()));
                AbsVal::Request(Box::new(RequestAbs {
                    method,
                    uri: Some(arg_sig(1)),
                    headers: Vec::new(),
                    body: body.filter(|b| !matches!(b, BodySig::Text(SigPat::Unknown(_)))),
                }))
            }
            ApiOp::GoogleUrlNew => {
                set_recv(
                    env,
                    AbsVal::Request(Box::new(RequestAbs {
                        uri: Some(arg_sig(0)),
                        ..RequestAbs::default()
                    })),
                );
                AbsVal::Unknown
            }
            ApiOp::GoogleBuildRequest(m) => {
                let mut r = match arg_vals.first() {
                    Some(AbsVal::Request(r)) => (**r).clone(),
                    Some(AbsVal::Str(p)) => {
                        RequestAbs { uri: Some(p.clone()), ..RequestAbs::default() }
                    }
                    _ => RequestAbs::default(),
                };
                r.method = Some(*m);
                if let Some(b) = arg_vals.get(1) {
                    r.body = Some(body_from(b.clone()));
                }
                AbsVal::Request(Box::new(r))
            }

            // ---- response reading ----
            ApiOp::RespEntity | ApiOp::RespToString => {
                // The response may be the receiver (resp.getEntity()) or an
                // argument (static EntityUtils.toString(entity)).
                let src = std::iter::once(recv_val.clone())
                    .chain(arg_vals.iter().cloned())
                    .find(|v| matches!(v, AbsVal::Response(_)));
                match src {
                    Some(AbsVal::Response(p)) => {
                        *self.resp_touched.borrow_mut() = true;
                        AbsVal::Response(p)
                    }
                    _ => recv_val,
                }
            }
            ApiOp::RespStatus | ApiOp::JsonArrayLen => AbsVal::Str(SigPat::Unknown(TypeHint::Num)),

            // ---- JSON ----
            ApiOp::JsonNewObj => {
                set_recv(env, AbsVal::Json(JsonSig::object()));
                AbsVal::Unknown
            }
            ApiOp::JsonNewArr => {
                set_recv(env, AbsVal::List(Vec::new()));
                AbsVal::Unknown
            }
            ApiOp::JsonParse => {
                let src = arg_vals.first().cloned().unwrap_or(recv_val.clone());
                let out = match src {
                    AbsVal::Response(p) => {
                        *self.resp_touched.borrow_mut() = true;
                        self.ensure_resp_json();
                        AbsVal::Response(p)
                    }
                    AbsVal::Str(SigPat::Json(j)) => AbsVal::Json(j),
                    AbsVal::Json(j) => AbsVal::Json(j),
                    _ => AbsVal::Unknown,
                };
                // `new JSONObject(text)` binds the receiver.
                if call.callee.name == "<init>" {
                    set_recv(env, out.clone());
                    AbsVal::Unknown
                } else {
                    out
                }
            }
            ApiOp::JsonPut => {
                if let AbsVal::Json(mut j) = recv_val {
                    if let Some(AbsVal::Str(SigPat::Const(k))) = arg_vals.first() {
                        let child = match arg_vals.get(1) {
                            Some(AbsVal::Json(cj)) => cj.clone(),
                            Some(v) => JsonSig::Value(Box::new(v.to_sig(
                                call.args.get(1).and_then(|a| self.value_type(mid, a)).as_ref(),
                            ))),
                            None => JsonSig::Unknown,
                        };
                        j.put(k, child);
                    }
                    set_recv(env, AbsVal::Json(j));
                }
                AbsVal::Unknown
            }
            ApiOp::JsonGet(access) => {
                match recv_val {
                    AbsVal::Response(mut path) => {
                        if let Some(AbsVal::Str(SigPat::Const(k))) = arg_vals.first() {
                            path.push(k.clone());
                            self.record_json_read(&path, *access);
                            AbsVal::Response(path)
                        } else {
                            AbsVal::Unknown
                        }
                    }
                    AbsVal::Json(j) => {
                        // Reading back a request-side JSON object.
                        if let Some(AbsVal::Str(SigPat::Const(k))) = arg_vals.first() {
                            if let JsonSig::Object(m) = &j {
                                if let Some(child) = m.get(k) {
                                    return match child {
                                        JsonSig::Value(p) => AbsVal::Str((**p).clone()),
                                        other => AbsVal::Json(other.clone()),
                                    };
                                }
                            }
                        }
                        AbsVal::Unknown
                    }
                    _ => AbsVal::Unknown,
                }
            }
            ApiOp::JsonArrayGet => match recv_val {
                AbsVal::Response(mut path) => {
                    path.push("[]".to_string());
                    self.record_json_read(&path, JsonAccess::Object);
                    AbsVal::Response(path)
                }
                AbsVal::List(items) => {
                    items.into_iter().reduce(AbsVal::merge).unwrap_or(AbsVal::Unknown)
                }
                _ => AbsVal::Unknown,
            },
            ApiOp::JsonArrayPut | ApiOp::ListAdd => {
                if let AbsVal::List(mut items) = recv_val {
                    items.push(arg_vals.first().cloned().unwrap_or(AbsVal::Unknown));
                    set_recv(env, AbsVal::List(items));
                }
                AbsVal::Unknown
            }
            ApiOp::JsonToString => match recv_val {
                AbsVal::Json(j) => AbsVal::Str(SigPat::Json(j)),
                AbsVal::Response(p) => AbsVal::Response(p),
                AbsVal::List(items) => {
                    // A JSONArray body serializes as [elem,…].
                    let elem = items
                        .into_iter()
                        .map(|v| match v {
                            AbsVal::Json(j) => j,
                            other => JsonSig::Value(Box::new(other.to_sig(None))),
                        })
                        .reduce(JsonSig::merge)
                        .unwrap_or(JsonSig::Unknown);
                    AbsVal::Str(SigPat::Json(JsonSig::Array(Box::new(elem))))
                }
                _ => AbsVal::Str(SigPat::Unknown(TypeHint::Str)),
            },
            ApiOp::ReflectToJson => {
                // Gson.toJson(obj): signature from the argument's class.
                let cls = call
                    .args
                    .first()
                    .and_then(|a| self.value_type(mid, a))
                    .and_then(|t| t.class_name().map(str::to_string));
                match cls {
                    Some(c) => AbsVal::Str(SigPat::Json(self.class_json_sig(&c, 3))),
                    None => AbsVal::Str(SigPat::Unknown(TypeHint::Str)),
                }
            }
            ApiOp::ReflectFromJson => {
                // fromJson(text, C.class): the response shape is C's fields.
                if let Some(AbsVal::Response(path)) = arg_vals.first() {
                    *self.resp_touched.borrow_mut() = true;
                    if let Some(AbsVal::Str(SigPat::Const(cls))) = arg_vals.get(1) {
                        let shape = self.class_json_sig(cls, 3);
                        self.merge_resp_json_at(path, shape);
                    }
                    AbsVal::Response(arg_vals[0].clone().into_path())
                } else {
                    AbsVal::Unknown
                }
            }

            // ---- XML ----
            ApiOp::XmlParse => {
                let src = arg_vals.first().cloned().unwrap_or(recv_val);
                match src {
                    AbsVal::Response(p) => {
                        *self.resp_touched.borrow_mut() = true;
                        self.ensure_resp_xml();
                        AbsVal::Response(p)
                    }
                    _ => AbsVal::Unknown,
                }
            }
            ApiOp::XmlGetElements => match recv_val {
                AbsVal::Response(mut path) => {
                    if let Some(AbsVal::Str(SigPat::Const(tag))) = arg_vals.first() {
                        path.push(tag.clone());
                        self.record_xml_tag(&path);
                        AbsVal::Response(path)
                    } else {
                        AbsVal::Unknown
                    }
                }
                _ => AbsVal::Unknown,
            },
            ApiOp::XmlGetAttr => match recv_val {
                AbsVal::Response(path) => {
                    if let Some(AbsVal::Str(SigPat::Const(k))) = arg_vals.first() {
                        self.record_xml_attr(&path, k);
                    }
                    AbsVal::Response(path)
                }
                _ => AbsVal::Unknown,
            },
            ApiOp::XmlGetText => match recv_val {
                AbsVal::Response(path) => AbsVal::Response(path),
                _ => AbsVal::Unknown,
            },

            // ---- containers ----
            ApiOp::ListNew => {
                set_recv(env, AbsVal::List(Vec::new()));
                AbsVal::Unknown
            }
            ApiOp::ListGet => match recv_val {
                AbsVal::List(items) => {
                    items.into_iter().reduce(AbsVal::merge).unwrap_or(AbsVal::Unknown)
                }
                _ => AbsVal::Unknown,
            },
            ApiOp::MapNew | ApiOp::ContentValuesNew => {
                set_recv(env, AbsVal::Map(Vec::new()));
                AbsVal::Unknown
            }
            ApiOp::MapPut | ApiOp::ContentValuesPut => {
                if let AbsVal::Map(mut m) = recv_val {
                    m.push((arg_sig(0), arg_vals.get(1).cloned().unwrap_or(AbsVal::Unknown)));
                    set_recv(env, AbsVal::Map(m));
                }
                AbsVal::Unknown
            }
            ApiOp::MapGet => match (&recv_val, arg_vals.first()) {
                (AbsVal::Map(m), Some(AbsVal::Str(k))) => m
                    .iter()
                    .find(|(kk, _)| kk == k)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(AbsVal::Unknown),
                _ => AbsVal::Unknown,
            },

            // ---- Android state ----
            ApiOp::ResGetString => arg_vals.first().cloned().unwrap_or(AbsVal::Unknown),
            ApiOp::CellGet(_) | ApiOp::DbQuery | ApiOp::CursorGet => {
                AbsVal::Str(SigPat::Unknown(TypeHint::Str))
            }
            ApiOp::CellPut(_) => AbsVal::Unknown,

            // ---- origins and sinks ----
            ApiOp::Origin(kind) => {
                self.origins.borrow_mut().insert(kind.to_string());
                AbsVal::Str(SigPat::Unknown(TypeHint::Str))
            }
            ApiOp::Sink(kind) => {
                let consumes_response = std::iter::once(&recv_val)
                    .chain(arg_vals.iter())
                    .any(|v| matches!(v, AbsVal::Response(_)));
                if consumes_response || self.dp.spec.response == DpResponseLoc::Consumed {
                    self.consumptions.borrow_mut().insert(kind.to_string());
                }
                AbsVal::Unknown
            }

            // ---- inner demarcation (chained okhttp execute etc.) ----
            ApiOp::Demarcation(spec) => {
                if is_dp_stmt {
                    // handled by the caller (response root assignment)
                    AbsVal::Unknown
                } else if spec.request == DpRequestLoc::Receiver {
                    // e.g. call.execute(): response flows from the call obj
                    match recv_val {
                        AbsVal::Response(p) => {
                            // Stream reads on the connection object mean the
                            // app actually consumes the body (vs. connect()).
                            if matches!(
                                call.callee.name.as_str(),
                                "getInputStream" | "openStream" | "getContent"
                            ) {
                                *self.resp_touched.borrow_mut() = true;
                            }
                            AbsVal::Response(p)
                        }
                        _ => AbsVal::Unknown,
                    }
                } else {
                    AbsVal::Unknown
                }
            }

            ApiOp::Unknown => self.eval_unknown_call(call, recv_val, arg_vals, env),
        }
    }

    /// Inlines app-level callees; passes receiver mutations back.
    fn eval_unknown_call(
        &self,
        call: &Call,
        recv_val: AbsVal,
        arg_vals: Vec<AbsVal>,
        env: &mut HashMap<Local, AbsVal>,
    ) -> AbsVal {
        // Resolve a single concrete target through the hierarchy.
        let target = self.prog.resolve_method(
            &call.callee.class,
            &call.callee.name,
            call.callee.params.len(),
        );
        let Some(t) = target else { return AbsVal::Unknown };
        if !self.prog.method(t).has_body {
            return AbsVal::Unknown;
        }
        let (ret, this_out) = self.eval_method(t, recv_val, arg_vals);
        if let Some(Value::Local(l)) = &call.receiver {
            env.insert(*l, this_out);
        }
        ret
    }

    /// Builds a JSON signature from a class's fields (reflection-based
    /// serialization, §3.2).
    fn class_json_sig(&self, class: &str, depth: usize) -> JsonSig {
        if depth == 0 {
            return JsonSig::Unknown;
        }
        let Some(cid) = self.prog.class_id(class) else { return JsonSig::Unknown };
        let mut sig = JsonSig::object();
        for f in &self.prog.class(cid).fields {
            let child = match &f.ty {
                t if t.is_numeric() => JsonSig::Value(Box::new(SigPat::Unknown(TypeHint::Num))),
                Type::Bool => JsonSig::Value(Box::new(SigPat::Unknown(TypeHint::Bool))),
                Type::Object(c) if c == "java.lang.String" => {
                    JsonSig::Value(Box::new(SigPat::any_str()))
                }
                Type::Object(c) if c.starts_with("java.util.") => {
                    JsonSig::Array(Box::new(JsonSig::Unknown))
                }
                Type::Object(c) => self.class_json_sig(c, depth - 1),
                Type::Array(_) => JsonSig::Array(Box::new(JsonSig::Unknown)),
                _ => JsonSig::Unknown,
            };
            sig.put(&f.name, child);
        }
        sig
    }

    fn ensure_resp_json(&self) {
        let mut j = self.resp_json.borrow_mut();
        if matches!(*j, JsonSig::Unknown) {
            *j = JsonSig::object();
        }
    }

    fn ensure_resp_xml(&self) {
        let mut x = self.resp_xml.borrow_mut();
        if x.is_none() {
            *x = Some(XmlSig::tag(""));
        }
    }

    /// Records a JSON read at `path` in the response tree.
    fn record_json_read(&self, path: &[String], access: JsonAccess) {
        self.ensure_resp_json();
        let mut tree = self.resp_json.borrow_mut();
        let mut node: &mut JsonSig = &mut tree;
        for (i, key) in path.iter().enumerate() {
            let last = i + 1 == path.len();
            if key == "[]" {
                node = node.element_mut();
                continue;
            }
            node = node.child_mut(key);
            if last {
                match access {
                    JsonAccess::Leaf => {
                        if matches!(node, JsonSig::Unknown) {
                            *node = JsonSig::Value(Box::new(SigPat::any_str()));
                        }
                    }
                    JsonAccess::Array => {
                        let _ = node.element_mut();
                    }
                    JsonAccess::Object => {}
                }
            }
        }
    }

    /// Merges a class-shaped signature at a path (reflection parse).
    fn merge_resp_json_at(&self, path: &[String], shape: JsonSig) {
        self.ensure_resp_json();
        let mut tree = self.resp_json.borrow_mut();
        if path.is_empty() {
            let old = tree.clone();
            *tree = JsonSig::merge(old, shape);
            return;
        }
        let mut node: &mut JsonSig = &mut tree;
        for key in path {
            if key == "[]" {
                node = node.element_mut();
            } else {
                node = node.child_mut(key);
            }
        }
        let old = node.clone();
        *node = JsonSig::merge(old, shape);
    }

    /// Records an XML tag read at a tag path.
    fn record_xml_tag(&self, path: &[String]) {
        self.ensure_resp_xml();
        let mut guard = self.resp_xml.borrow_mut();
        let root = guard.as_mut().expect("xml root ensured");
        let mut node = root;
        for tag in path.iter().filter(|t| *t != "[]") {
            node = node.child_mut(tag);
        }
    }

    /// Records an attribute read on the element at a tag path.
    fn record_xml_attr(&self, path: &[String], attr: &str) {
        self.ensure_resp_xml();
        let mut guard = self.resp_xml.borrow_mut();
        let root = guard.as_mut().expect("xml root ensured");
        let mut node = root;
        for tag in path.iter().filter(|t| *t != "[]") {
            node = node.child_mut(tag);
        }
        if !node.attrs.iter().any(|(k, _)| k == attr) {
            node.attrs.push((attr.to_string(), SigPat::any_str()));
        }
    }
}

impl AbsVal {
    fn into_path(self) -> Vec<String> {
        match self {
            AbsVal::Response(p) => p,
            _ => Vec::new(),
        }
    }
}

fn op_kind(name: &str) -> &str {
    name
}

/// Converts an abstract value into a body signature.
fn body_from(v: AbsVal) -> BodySig {
    match v {
        AbsVal::Json(j) => BodySig::Json(j),
        AbsVal::Str(SigPat::Json(j)) => BodySig::Json(j),
        AbsVal::Str(p) => BodySig::Text(p),
        AbsVal::List(items) => {
            let pairs: Vec<(SigPat, SigPat)> = items
                .into_iter()
                .filter_map(|it| match it {
                    AbsVal::Pair(k, v) => Some((k, v)),
                    _ => None,
                })
                .collect();
            BodySig::Form(pairs)
        }
        AbsVal::Map(m) => BodySig::Form(m.into_iter().map(|(k, v)| (k, v.to_sig(None))).collect()),
        _ => BodySig::Text(SigPat::Unknown(TypeHint::Str)),
    }
}

/// Merges two environments at a confluence point.
fn merge_env(
    mut a: HashMap<Local, AbsVal>,
    b: HashMap<Local, AbsVal>,
    _at_loop: bool,
) -> HashMap<Local, AbsVal> {
    for (k, v) in b {
        match a.remove(&k) {
            Some(old) => {
                a.insert(k, AbsVal::merge(old, v));
            }
            None => {
                a.insert(k, v);
            }
        }
    }
    a
}

/// Widens a loop header environment against a latch environment.
///
/// A variable is an *accumulator* when its latch value structurally
/// extends its header value (a `StringBuilder` appended to in the loop).
/// On intermediate passes accumulators stay at their base value so the
/// loop delta can stabilize; on the final pass they widen to
/// `base · rep{delta}`. All other loop-carried variables merge with `∨`.
fn widen_env(
    before: &HashMap<Local, AbsVal>,
    latches: &[HashMap<Local, AbsVal>],
    widen_accumulators: bool,
    header: usize,
    deltas: &mut HashMap<(usize, Local), SigPat>,
) -> HashMap<Local, AbsVal> {
    let mut out = HashMap::new();
    for (k, b) in before {
        let afters: Vec<&AbsVal> =
            latches.iter().filter_map(|e| e.get(k)).filter(|a| *a != b).collect();
        if afters.is_empty() {
            out.insert(*k, b.clone());
            continue;
        }
        if let AbsVal::Str(pb) = b {
            // Accumulator: every latch value structurally extends the
            // header value (or a delta was already pinned for this cell).
            let mut ds: Vec<SigPat> = Vec::new();
            let all_extend = afters.iter().all(|a| match a {
                AbsVal::Str(pa) => match SigPat::loop_delta(pb, pa) {
                    Some(d) => {
                        if !d.is_epsilon() {
                            ds.push(d);
                        }
                        true
                    }
                    None => false,
                },
                _ => false,
            });
            let pinned = deltas.contains_key(&(header, *k));
            if all_extend || pinned {
                let mut val = b.clone();
                if widen_accumulators {
                    let delta = match deltas.get(&(header, *k)) {
                        Some(d) => Some(d.clone()),
                        None if ds.is_empty() => None,
                        None => {
                            let mut it = ds.into_iter();
                            let first = it.next().expect("non-empty deltas");
                            let merged = it.fold(first, |acc, d| acc.or(d));
                            deltas.insert((header, *k), merged.clone());
                            Some(merged)
                        }
                    };
                    if let Some(d) = delta {
                        val = AbsVal::Str(
                            SigPat::Concat(vec![pb.clone(), SigPat::Rep(Box::new(d))]).normalize(),
                        );
                    }
                }
                out.insert(*k, val);
                continue;
            }
        }
        // Scalar / non-accumulator: ∨-merge with every latch value.
        let mut val = b.clone();
        for a in afters {
            val = AbsVal::merge(val, a.clone());
        }
        out.insert(*k, val);
    }
    // Locals first defined inside the loop body.
    for latch in latches {
        for (k, a) in latch {
            out.entry(*k).or_insert_with(|| a.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demarcation;
    use crate::semantics::SemanticModel;
    use crate::slicing::{slice_all, SliceOptions};
    use extractocol_analysis::CallbackRegistry;
    use extractocol_http::Regex;
    use extractocol_ir::{Apk, ApkBuilder, CondOp};

    fn http_stubs(b: &mut ApkBuilder) {
        b.class("org.apache.http.client.HttpClient", |c| {
            c.stub_method(
                "execute",
                vec![Type::obj_root()],
                Type::object("org.apache.http.HttpResponse"),
            );
        });
    }

    fn extract_all(apk: &Apk) -> Vec<DpSignatures> {
        let prog = ProgramIndex::new(apk);
        let callees = CalleeTable::build(&SemanticModel::standard(), &prog);
        let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
        let sites = demarcation::scan(&prog, &callees);
        let slices = slice_all(&prog, &graph, &callees, &sites, &SliceOptions::default());
        slices
            .iter()
            .map(|s| {
                let has_response = !s.response_slice.is_empty();
                SignatureBuilder::extract_scoped(&prog, &callees, &graph, s, &[], has_response)
            })
            .collect()
    }

    /// URI built by StringBuilder with branches: the diode-like shape.
    #[test]
    fn branchy_uri_produces_disjunction() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![Type::Int, Type::string()], Type::Void, |m| {
                m.recv("t.C");
                let mode = m.arg(0, "mode");
                let q = m.arg(1, "q");
                let sb = m.temp(Type::object("java.lang.StringBuilder"));
                m.iff(CondOp::Eq, mode, Value::int(0), "search");
                m.new_obj_into(sb, "java.lang.StringBuilder", vec![Value::str("http://r.com/r/")]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(q)]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("/.json")]);
                m.goto("send");
                m.label("search");
                m.new_obj_into(
                    sb,
                    "java.lang.StringBuilder",
                    vec![Value::str("http://r.com/search/.json?q=")],
                );
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(q)]);
                m.label("send");
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                m.vcall_void(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                );
                m.ret_void();
            });
        });
        let apk = b.build();
        let sigs = extract_all(&apk);
        assert_eq!(sigs.len(), 1);
        let req = &sigs[0].request;
        assert_eq!(req.method, Some(HttpMethod::Get));
        let arms = req.uri.disjuncts();
        assert_eq!(arms.len(), 2, "uri: {}", req.uri.display());
        let re = Regex::new(&req.uri.to_regex()).unwrap();
        assert!(re.is_match("http://r.com/r/pics/.json"));
        assert!(re.is_match("http://r.com/search/.json?q=cats"));
        assert!(!re.is_match("http://other.com/"));
    }

    /// Swapping which branch is the fallthrough (and therefore which arm
    /// reaches the confluence merge first) must not change the extracted
    /// signature: canonical `Or` makes confluence order-invariant.
    #[test]
    fn confluence_merge_order_is_invariant() {
        let build = |swap: bool| {
            let mut b = ApkBuilder::new("t", "t");
            http_stubs(&mut b);
            b.class("t.C", |c| {
                c.method("go", vec![Type::Int, Type::string()], Type::Void, |m| {
                    m.recv("t.C");
                    let mode = m.arg(0, "mode");
                    let q = m.arg(1, "q");
                    let sb = m.temp(Type::object("java.lang.StringBuilder"));
                    m.iff(CondOp::Eq, mode, Value::int(0), "other");
                    let (first, second) = if swap {
                        ("http://r.com/search/.json?q=", "http://r.com/r/")
                    } else {
                        ("http://r.com/r/", "http://r.com/search/.json?q=")
                    };
                    m.new_obj_into(sb, "java.lang.StringBuilder", vec![Value::str(first)]);
                    m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(q)]);
                    m.goto("send");
                    m.label("other");
                    m.new_obj_into(sb, "java.lang.StringBuilder", vec![Value::str(second)]);
                    m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(q)]);
                    m.label("send");
                    let url =
                        m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                    let req = m
                        .new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                    let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                    m.vcall_void(
                        client,
                        "org.apache.http.client.HttpClient",
                        "execute",
                        vec![Value::Local(req)],
                    );
                    m.ret_void();
                });
            });
            b.build()
        };
        let a = extract_all(&build(false));
        let b = extract_all(&build(true));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a[0].request.uri, b[0].request.uri, "confluence order leaked into the sig");
        assert_eq!(a[0].request.uri.to_regex(), b[0].request.uri.to_regex());
        assert_eq!(a[0].request.uri.disjuncts().len(), 2);
    }

    /// Loops produce rep{..} (Kleene star in the regex).
    #[test]
    fn loop_variant_query_becomes_rep() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![Type::Int], Type::Void, |m| {
                m.recv("t.C");
                let n = m.arg(0, "n");
                let i = m.local("i", Type::Int);
                let sb = m.new_obj("java.lang.StringBuilder", vec![Value::str("http://x/?")]);
                m.cint(i, 0);
                m.label("head");
                m.iff(CondOp::Ge, i, n, "done");
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("id=")]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(i)]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("&")]);
                m.assign(i, Expr::Bin(extractocol_ir::BinOp::Add, Value::Local(i), Value::int(1)));
                m.goto("head");
                m.label("done");
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                m.vcall_void(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                );
                m.ret_void();
            });
        });
        let apk = b.build();
        let sigs = extract_all(&apk);
        let uri = &sigs[0].request.uri;
        let re = Regex::new(&uri.to_regex()).unwrap();
        assert!(re.is_match("http://x/?"), "{}", uri.to_regex());
        assert!(re.is_match("http://x/?id=1&"), "{}", uri.to_regex());
        assert!(re.is_match("http://x/?id=1&id=2&id=3&"), "{}", uri.to_regex());
        assert!(!re.is_match("http://y/?id=1&"));
    }

    /// Diamond CFG: one StringBuilder, two arms appending different
    /// constants, a join, then a common suffix. The confluence ∨-merge
    /// (Fig. 4's join rule) must keep both arm values while sharing the
    /// prefix and suffix — not drop an arm, not cross-combine.
    #[test]
    fn diamond_confluence_keeps_both_arms_and_common_suffix() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![Type::Int], Type::Void, |m| {
                m.recv("t.C");
                let mode = m.arg(0, "mode");
                let sb =
                    m.new_obj("java.lang.StringBuilder", vec![Value::str("http://d.com/api/")]);
                m.iff(CondOp::Eq, mode, Value::int(0), "right");
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("hot")]);
                m.goto("join");
                m.label("right");
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("new")]);
                m.label("join");
                m.vcall_void(
                    sb,
                    "java.lang.StringBuilder",
                    "append",
                    vec![Value::str("/page.json")],
                );
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                m.vcall_void(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                );
                m.ret_void();
            });
        });
        let apk = b.build();
        let sigs = extract_all(&apk);
        assert_eq!(sigs.len(), 1);
        let uri = &sigs[0].request.uri;
        let re = Regex::new(&uri.to_regex()).unwrap();
        assert!(re.is_match("http://d.com/api/hot/page.json"), "{}", uri.display());
        assert!(re.is_match("http://d.com/api/new/page.json"), "{}", uri.display());
        // Neither arm may be dropped at the join, and the suffix applies
        // to both arms (no arm escapes the merge without it).
        assert!(!re.is_match("http://d.com/api/hot"), "{}", uri.display());
        assert!(!re.is_match("http://d.com/api//page.json"), "{}", uri.display());
        assert!(!re.is_match("http://d.com/api/hotnew/page.json"), "{}", uri.display());
    }

    /// Nested loops: the inner loop's rep must live *inside* the outer
    /// loop's rep — `(g=(i&)*;)*` — so any number of outer iterations,
    /// each with any number of inner iterations, matches.
    #[test]
    fn nested_loops_produce_nested_rep() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![Type::Int, Type::Int], Type::Void, |m| {
                m.recv("t.C");
                let n = m.arg(0, "n");
                let k = m.arg(1, "k");
                let i = m.local("i", Type::Int);
                let j = m.local("j", Type::Int);
                let sb = m.new_obj("java.lang.StringBuilder", vec![Value::str("http://x/?")]);
                m.cint(i, 0);
                m.label("outer");
                m.iff(CondOp::Ge, i, n, "done_outer");
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("g=")]);
                m.cint(j, 0);
                m.label("inner");
                m.iff(CondOp::Ge, j, k, "done_inner");
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("i&")]);
                m.assign(j, Expr::Bin(extractocol_ir::BinOp::Add, Value::Local(j), Value::int(1)));
                m.goto("inner");
                m.label("done_inner");
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str(";")]);
                m.assign(i, Expr::Bin(extractocol_ir::BinOp::Add, Value::Local(i), Value::int(1)));
                m.goto("outer");
                m.label("done_outer");
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                m.vcall_void(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                );
                m.ret_void();
            });
        });
        let apk = b.build();
        let sigs = extract_all(&apk);
        assert_eq!(sigs.len(), 1);
        let uri = &sigs[0].request.uri;
        let re = Regex::new(&uri.to_regex()).unwrap();
        // zero outer iterations
        assert!(re.is_match("http://x/?"), "{}", uri.display());
        // one outer, zero inner
        assert!(re.is_match("http://x/?g=;"), "{}", uri.display());
        // one outer, several inner
        assert!(re.is_match("http://x/?g=i&i&i&;"), "{}", uri.display());
        // several outer with differing inner counts — only possible when
        // the inner rep is nested inside the outer rep
        assert!(re.is_match("http://x/?g=i&;g=;g=i&i&;"), "{}", uri.display());
        // inner content cannot appear outside an outer iteration
        assert!(!re.is_match("http://x/?i&"), "{}", uri.display());
        assert!(!re.is_match("http://y/?g=;"));
    }

    /// JSON request bodies and response reader trees.
    #[test]
    fn json_body_and_response_tree() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.class("t.C", |c| {
            c.method("login", vec![Type::string(), Type::string()], Type::Void, |m| {
                m.recv("t.C");
                let user = m.arg(0, "user");
                let pw = m.arg(1, "pw");
                // body: {"user": <u>, "passwd": <p>}
                let json = m.new_obj("org.json.JSONObject", vec![]);
                m.vcall_void(
                    json,
                    "org.json.JSONObject",
                    "put",
                    vec![Value::str("user"), Value::Local(user)],
                );
                m.vcall_void(
                    json,
                    "org.json.JSONObject",
                    "put",
                    vec![Value::str("passwd"), Value::Local(pw)],
                );
                let text = m.vcall(json, "org.json.JSONObject", "toString", vec![], Type::string());
                let ent =
                    m.new_obj("org.apache.http.entity.StringEntity", vec![Value::Local(text)]);
                let req = m.new_obj(
                    "org.apache.http.client.methods.HttpPost",
                    vec![Value::str("https://s.com/api/login")],
                );
                m.vcall_void(
                    req,
                    "org.apache.http.client.methods.HttpPost",
                    "setEntity",
                    vec![Value::Local(ent)],
                );
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                let resp = m.vcall(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                    Type::object("org.apache.http.HttpResponse"),
                );
                // parse response: {"json": {"data": {"modhash": .., "cookie": ..}}}
                let ent2 = m.vcall(
                    resp,
                    "org.apache.http.HttpResponse",
                    "getEntity",
                    vec![],
                    Type::object("org.apache.http.HttpEntity"),
                );
                let body = m.scall(
                    "org.apache.http.util.EntityUtils",
                    "toString",
                    vec![Value::Local(ent2)],
                    Type::string(),
                );
                let root = m.new_obj("org.json.JSONObject", vec![Value::Local(body)]);
                let data = m.vcall(
                    root,
                    "org.json.JSONObject",
                    "getJSONObject",
                    vec![Value::str("json")],
                    Type::object("org.json.JSONObject"),
                );
                let modhash = m.vcall(
                    data,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("modhash")],
                    Type::string(),
                );
                let cookie = m.vcall(
                    data,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("cookie")],
                    Type::string(),
                );
                let _ = (modhash, cookie);
                m.ret_void();
            });
        });
        let apk = b.build();
        let sigs = extract_all(&apk);
        assert_eq!(sigs.len(), 1);
        let s = &sigs[0];
        assert_eq!(s.request.method, Some(HttpMethod::Post));
        match &s.request.body {
            Some(BodySig::Json(j)) => {
                let mut keys = j.keys();
                keys.sort();
                assert_eq!(keys, vec!["passwd", "user"]);
            }
            other => panic!("expected json body, got {other:?}"),
        }
        match &s.response {
            Some(ResponseSig::Json(tree)) => {
                let mut keys = tree.keys();
                keys.sort();
                assert_eq!(keys, vec!["cookie", "json", "modhash"]);
            }
            other => panic!("expected json response, got {other:?}"),
        }
    }

    /// Resource references resolve to their strings.xml values (§3.1) and
    /// form bodies carry pair keys.
    #[test]
    fn resources_and_form_bodies() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.resource("base_url", "https://api.svc.com/v2/");
        b.class("t.C", |c| {
            c.method("post", vec![Type::string()], Type::Void, |m| {
                m.recv("t.C");
                let tok = m.arg(0, "tok");
                let base = m.temp(Type::string());
                m.cres(base, "base_url");
                let sb = m.new_obj("java.lang.StringBuilder", vec![Value::Local(base)]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("vote")]);
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let list = m.new_obj("java.util.ArrayList", vec![]);
                let p1 = m.new_obj(
                    "org.apache.http.message.BasicNameValuePair",
                    vec![Value::str("id"), Value::Local(tok)],
                );
                m.vcall_void(list, "java.util.ArrayList", "add", vec![Value::Local(p1)]);
                let p2 = m.new_obj(
                    "org.apache.http.message.BasicNameValuePair",
                    vec![Value::str("dir"), Value::str("1")],
                );
                m.vcall_void(list, "java.util.ArrayList", "add", vec![Value::Local(p2)]);
                let ent = m.new_obj(
                    "org.apache.http.client.entity.UrlEncodedFormEntity",
                    vec![Value::Local(list)],
                );
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpPost", vec![Value::Local(url)]);
                m.vcall_void(
                    req,
                    "org.apache.http.client.methods.HttpPost",
                    "setEntity",
                    vec![Value::Local(ent)],
                );
                m.vcall_void(
                    req,
                    "org.apache.http.client.methods.HttpPost",
                    "setHeader",
                    vec![Value::str("Cookie"), Value::Local(tok)],
                );
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                m.vcall_void(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                );
                m.ret_void();
            });
        });
        let apk = b.build();
        let sigs = extract_all(&apk);
        let s = &sigs[0];
        let re = Regex::new(&s.request.uri.to_regex()).unwrap();
        assert!(re.is_match("https://api.svc.com/v2/vote"), "{}", s.request.uri.to_regex());
        match &s.request.body {
            Some(BodySig::Form(pairs)) => {
                let keys: Vec<String> = pairs.iter().map(|(k, _)| k.to_regex()).collect();
                assert_eq!(keys, vec!["id", "dir"]);
            }
            other => panic!("expected form body, got {other:?}"),
        }
        assert_eq!(s.request.headers.len(), 1);
        assert_eq!(s.request.headers[0].0, "Cookie");
    }

    /// Reflection-based serialization derives the JSON shape from class
    /// fields (gson; §3.2).
    #[test]
    fn gson_reflection_body() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.class("t.LoginReq", |c| {
            c.field("username", Type::string());
            c.field("password", Type::string());
            c.field("remember", Type::Bool);
        });
        b.class("t.C", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.C");
                let obj = m.temp(Type::object("t.LoginReq"));
                m.assign(obj, Expr::New("t.LoginReq".into()));
                let gson = m.new_obj("com.google.gson.Gson", vec![]);
                let text = m.vcall(
                    gson,
                    "com.google.gson.Gson",
                    "toJson",
                    vec![Value::Local(obj)],
                    Type::string(),
                );
                let ent =
                    m.new_obj("org.apache.http.entity.StringEntity", vec![Value::Local(text)]);
                let req = m.new_obj(
                    "org.apache.http.client.methods.HttpPost",
                    vec![Value::str("https://x/login")],
                );
                m.vcall_void(
                    req,
                    "org.apache.http.client.methods.HttpPost",
                    "setEntity",
                    vec![Value::Local(ent)],
                );
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                m.vcall_void(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                );
                m.ret_void();
            });
        });
        let apk = b.build();
        let sigs = extract_all(&apk);
        match &sigs[0].request.body {
            Some(BodySig::Json(j)) => {
                let mut keys = j.keys();
                keys.sort();
                assert_eq!(keys, vec!["password", "remember", "username"]);
            }
            other => panic!("expected reflective json body, got {other:?}"),
        }
    }
}
