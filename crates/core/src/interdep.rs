//! Inter-transaction dependency analysis (paper §3.3).
//!
//! "Extractocol also identifies fine-grained dependencies by inferring
//! whether objects that are derived from a response are used to construct
//! another request. … We identify all objects modified/set as a result of
//! response processing (response-originated objects) … and all objects
//! that make up a request (request-originating objects). Extractocol
//! infers potential dependency by checking whether the two sets overlap."
//!
//! Overlap is detected three ways, matching the paper's case studies:
//!
//! * **direct** — a statement belongs to both transaction A's response
//!   segment and transaction B's request segment (the login-token flow of
//!   radio reddit, Table 3);
//! * **state cells** — A's response slice writes an instance/static field,
//!   a `SharedPreferences` entry, or a SQLite table that B's request slice
//!   reads (TED stores thumbnail/media URIs in its SQLite DB, Table 4);
//! * and each edge carries **field granularity** where recoverable: the
//!   JSON response key the value came from and the request part (header /
//!   body key / form key / URI) it feeds — "Extractocol finally outputs
//!   which request fields originate from which response fields".

use crate::pairing::Transaction;
use crate::semantics::{ApiOp, CalleeTable, CellKind};
use crate::slicing::SliceSet;
use extractocol_ir::{Call, Expr, Local, MethodId, Place, ProgramIndex, Stmt, Value};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// The channel a dependency flows through.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepVia {
    /// Response-derived value used directly in request construction.
    Direct,
    /// Through an instance field (`class#field`).
    Field(String),
    /// Through a static field (`class#field`).
    Static(String),
    /// Through `SharedPreferences` (key).
    Prefs(String),
    /// Through a SQLite table (table name).
    Database(String),
}

impl fmt::Display for DepVia {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepVia::Direct => write!(f, "direct"),
            DepVia::Field(c) => write!(f, "field {c}"),
            DepVia::Static(c) => write!(f, "static {c}"),
            DepVia::Prefs(k) => write!(f, "prefs \"{k}\""),
            DepVia::Database(t) => write!(f, "db {t}"),
        }
    }
}

/// A fine-grained dependency edge between transactions.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DependencyEdge {
    /// Producing transaction id (its response originates the data).
    pub from: usize,
    /// Consuming transaction id (its request uses the data).
    pub to: usize,
    /// The channel.
    pub via: DepVia,
    /// JSON key of the response field, when recoverable.
    pub resp_field: Option<String>,
    /// Request part consuming it (`header:Cookie`, `body:uh`, `form:id`,
    /// `uri`), when recoverable.
    pub req_field: Option<String>,
}

/// What a transaction's response slice writes / request slice reads.
#[derive(Debug, Default)]
struct TxnCells {
    resp_writes: BTreeMap<DepViaKey, Option<String>>, // cell → resp json key
    req_reads: BTreeMap<DepViaKey, Option<String>>,   // cell → req part
}

type DepViaKey = DepVia;

/// Infers all dependency edges over the paired transactions.
pub fn dependencies(
    prog: &ProgramIndex<'_>,
    callees: &CalleeTable,
    slices: &[SliceSet],
    txns: &[Transaction],
) -> Vec<DependencyEdge> {
    let cells: Vec<TxnCells> =
        txns.iter().map(|t| collect_cells(prog, callees, &slices[t.dp_index], t)).collect();

    let mut out: BTreeSet<DependencyEdge> = BTreeSet::new();

    // Direct overlap: response stmts of A ∩ request stmts of B.
    for (ai, a) in txns.iter().enumerate() {
        for (bi, b) in txns.iter().enumerate() {
            if ai == bi {
                continue;
            }
            let mut shared: Vec<(MethodId, usize)> =
                a.response_stmts.intersection(&b.request_stmts).copied().collect();
            // HashSet intersection order is randomized; sort so the
            // reported field below is stable run-to-run.
            shared.sort();
            // The DP statements themselves are plumbing, not data overlap.
            let meaningful = shared.iter().any(|site| {
                *site != (slices[a.dp_index].dp.method, slices[a.dp_index].dp.stmt)
                    && *site != (slices[b.dp_index].dp.method, slices[b.dp_index].dp.stmt)
            });
            if meaningful {
                let resp_field = shared.iter().find_map(|&(m, s)| json_key_of(prog, callees, m, s));
                out.insert(DependencyEdge {
                    from: a.id,
                    to: b.id,
                    via: DepVia::Direct,
                    resp_field,
                    req_field: None,
                });
            }
        }
    }

    // Cell overlap: writes(A) ∩ reads(B).
    for (ai, a) in txns.iter().enumerate() {
        for (bi, b) in txns.iter().enumerate() {
            if ai == bi {
                continue;
            }
            for (cell, resp_field) in &cells[ai].resp_writes {
                if let Some(req_field) = cells[bi].req_reads.get(cell) {
                    out.insert(DependencyEdge {
                        from: a.id,
                        to: b.id,
                        via: cell.clone(),
                        resp_field: resp_field.clone(),
                        req_field: req_field.clone(),
                    });
                }
            }
        }
    }

    out.into_iter().collect()
}

/// Collects the state cells a transaction's slices touch.
fn collect_cells(
    prog: &ProgramIndex<'_>,
    callees: &CalleeTable,
    _slice: &SliceSet,
    txn: &Transaction,
) -> TxnCells {
    let mut cells = TxnCells::default();

    // Response side: writes.
    for &(m, s) in &txn.response_stmts {
        let stmt = &prog.method(m).body[s];
        match stmt {
            Stmt::Assign { place: Place::InstanceField { field, .. }, expr } => {
                let key = DepVia::Field(format!("{}#{}", field.class, field.name));
                let jf = expr_json_key(prog, callees, m, s, expr);
                cells.resp_writes.entry(key).or_insert(jf);
            }
            Stmt::Assign { place: Place::StaticField(field), expr } => {
                let key = DepVia::Static(format!("{}#{}", field.class, field.name));
                let jf = expr_json_key(prog, callees, m, s, expr);
                cells.resp_writes.entry(key).or_insert(jf);
            }
            _ => {}
        }
        if let Some(call) = stmt.call() {
            match callees.op_at(prog, m, s) {
                ApiOp::CellPut(CellKind::Prefs) => {
                    if let Some(Value::Const(extractocol_ir::Const::Str(k))) = call.args.first() {
                        // Field granularity: which response key produced the
                        // stored value.
                        let jf =
                            call.args.get(1).and_then(|v| value_json_key(prog, callees, m, s, v));
                        cells.resp_writes.entry(DepVia::Prefs(k.clone())).or_insert(jf);
                    }
                }
                ApiOp::CellPut(CellKind::Database) => {
                    if let Some(Value::Const(extractocol_ir::Const::Str(t))) = call.args.first() {
                        cells.resp_writes.entry(DepVia::Database(t.clone())).or_insert(None);
                    }
                }
                _ => {}
            }
        }
    }

    // Request side: reads.
    for &(m, s) in &txn.request_stmts {
        let stmt = &prog.method(m).body[s];
        match stmt {
            Stmt::Assign { expr: Expr::Load(Place::InstanceField { field, .. }), place } => {
                let key = DepVia::Field(format!("{}#{}", field.class, field.name));
                let part = place.base_local().and_then(|_| match place {
                    Place::Local(l) => request_part_of(prog, callees, m, s, *l),
                    _ => None,
                });
                cells.req_reads.entry(key).or_insert(part);
            }
            Stmt::Assign { expr: Expr::Load(Place::StaticField(field)), place } => {
                let key = DepVia::Static(format!("{}#{}", field.class, field.name));
                let part = match place {
                    Place::Local(l) => request_part_of(prog, callees, m, s, *l),
                    _ => None,
                };
                cells.req_reads.entry(key).or_insert(part);
            }
            _ => {}
        }
        if let Some(call) = stmt.call() {
            match callees.op_at(prog, m, s) {
                ApiOp::CellGet(CellKind::Prefs) => {
                    if let Some(Value::Const(extractocol_ir::Const::Str(k))) = call.args.first() {
                        let part = result_local(stmt)
                            .and_then(|l| request_part_of(prog, callees, m, s, l));
                        cells.req_reads.entry(DepVia::Prefs(k.clone())).or_insert(part);
                    }
                }
                ApiOp::DbQuery => {
                    if let Some(Value::Const(extractocol_ir::Const::Str(t))) = call.args.first() {
                        cells.req_reads.entry(DepVia::Database(t.clone())).or_insert(None);
                    }
                }
                _ => {}
            }
        }
    }
    cells
}

fn result_local(stmt: &Stmt) -> Option<Local> {
    match stmt {
        Stmt::Assign { place: Place::Local(l), .. } => Some(*l),
        _ => None,
    }
}

/// The JSON key whose `get` produced this value, walking copies backward
/// within the method from statement `s`.
fn value_json_key(
    prog: &ProgramIndex<'_>,
    callees: &CalleeTable,
    m: MethodId,
    s: usize,
    v: &Value,
) -> Option<String> {
    match v {
        Value::Local(l) => expr_json_key(prog, callees, m, s, &Expr::Use(Value::Local(*l))),
        _ => None,
    }
}

/// The JSON key whose `get` produced this statement's RHS, walking copies
/// backward within the method.
fn expr_json_key(
    prog: &ProgramIndex<'_>,
    callees: &CalleeTable,
    m: MethodId,
    s: usize,
    expr: &Expr,
) -> Option<String> {
    let mut cur: Local = match expr {
        Expr::Use(Value::Local(l)) => *l,
        Expr::Invoke(c) => return call_json_key(callees.op_at(prog, m, s), c),
        _ => return None,
    };
    let body = &prog.method(m).body;
    for i in (0..s).rev() {
        match &body[i] {
            Stmt::Assign { place: Place::Local(l), expr } if *l == cur => match expr {
                Expr::Use(Value::Local(src)) => cur = *src,
                Expr::Invoke(c) => return call_json_key(callees.op_at(prog, m, i), c),
                _ => return None,
            },
            _ => {}
        }
    }
    None
}

/// The key of a JSON `get` call `c` whose op is `op`.
fn call_json_key(op: &ApiOp, c: &Call) -> Option<String> {
    match op {
        ApiOp::JsonGet(_) => match c.args.first() {
            Some(Value::Const(extractocol_ir::Const::Str(k))) => Some(k.clone()),
            _ => None,
        },
        _ => None,
    }
}

/// The JSON key read at a specific sliced statement (for direct overlaps).
fn json_key_of(
    prog: &ProgramIndex<'_>,
    callees: &CalleeTable,
    m: MethodId,
    s: usize,
) -> Option<String> {
    prog.method(m).body[s].call().and_then(|c| call_json_key(callees.op_at(prog, m, s), c))
}

/// Where a loaded value ends up in the request being built: follows copies
/// forward within the method and reports the consuming part.
fn request_part_of(
    prog: &ProgramIndex<'_>,
    callees: &CalleeTable,
    m: MethodId,
    s: usize,
    start: Local,
) -> Option<String> {
    let body = &prog.method(m).body;
    let mut aliases: HashSet<Local> = HashSet::new();
    aliases.insert(start);
    for (i, stmt) in body.iter().enumerate().skip(s + 1) {
        // Track copies.
        if let Stmt::Assign { place: Place::Local(dst), expr: Expr::Use(Value::Local(src)) } = stmt
        {
            if aliases.contains(src) {
                aliases.insert(*dst);
            }
        }
        let Some(call) = stmt.call() else { continue };
        let uses_alias =
            call.args.iter().any(|v| matches!(v, Value::Local(l) if aliases.contains(l)));
        if !uses_alias {
            continue;
        }
        match callees.op_at(prog, m, i) {
            ApiOp::SetHeader | ApiOp::OkHeader => {
                if let Some(Value::Const(extractocol_ir::Const::Str(k))) = call.args.first() {
                    return Some(format!("header:{k}"));
                }
            }
            ApiOp::JsonPut => {
                if let Some(Value::Const(extractocol_ir::Const::Str(k))) = call.args.first() {
                    // only when the alias is the value, not the key
                    if matches!(call.args.get(1), Some(Value::Local(l)) if aliases.contains(l)) {
                        return Some(format!("body:{k}"));
                    }
                }
            }
            ApiOp::NameValuePairNew => {
                if let Some(Value::Const(extractocol_ir::Const::Str(k))) = call.args.first() {
                    if matches!(call.args.get(1), Some(Value::Local(l)) if aliases.contains(l)) {
                        return Some(format!("form:{k}"));
                    }
                }
            }
            ApiOp::SbAppend
            | ApiOp::StrConcat
            | ApiOp::UrlNew
            | ApiOp::ApacheRequestNew(_)
            | ApiOp::OkUrl
            | ApiOp::VolleyRequestNew => {
                return Some("uri".to_string());
            }
            _ => {
                // Track results of transforming calls as aliases.
                if let Some(l) = result_local(stmt) {
                    aliases.insert(l);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demarcation;
    use crate::pairing::pair;
    use crate::semantics::SemanticModel;
    use crate::slicing::{slice_all, SliceOptions};
    use extractocol_analysis::{CallGraph, CallbackRegistry};
    use extractocol_ir::{ApkBuilder, Type};

    /// A login transaction whose response token feeds a second request's
    /// form body and header — the radio reddit shape (Table 3).
    fn login_then_vote() -> extractocol_ir::Apk {
        let mut b = ApkBuilder::new("rr", "t");
        b.class("org.apache.http.client.HttpClient", |c| {
            c.stub_method(
                "execute",
                vec![Type::obj_root()],
                Type::object("org.apache.http.HttpResponse"),
            );
        });
        b.class("t.Api", |c| {
            let modhash = c.field("mModhash", Type::string());
            let cookie = c.field("mCookie", Type::string());
            c.method("login", vec![Type::string(), Type::string()], Type::Void, |m| {
                let this = m.recv("t.Api");
                let user = m.arg(0, "user");
                let pw = m.arg(1, "pw");
                let sb = m.new_obj(
                    "java.lang.StringBuilder",
                    vec![Value::str("https://ssl.reddit.com/api/login?user=")],
                );
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(user)]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("&passwd=")]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(pw)]);
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpPost", vec![Value::Local(url)]);
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                let resp = m.vcall(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                    Type::object("org.apache.http.HttpResponse"),
                );
                let ent = m.vcall(
                    resp,
                    "org.apache.http.HttpResponse",
                    "getEntity",
                    vec![],
                    Type::object("org.apache.http.HttpEntity"),
                );
                let body = m.scall(
                    "org.apache.http.util.EntityUtils",
                    "toString",
                    vec![Value::Local(ent)],
                    Type::string(),
                );
                let j = m.new_obj("org.json.JSONObject", vec![Value::Local(body)]);
                let mh = m.vcall(
                    j,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("modhash")],
                    Type::string(),
                );
                m.put_field(this, &modhash, mh);
                let ck = m.vcall(
                    j,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("cookie")],
                    Type::string(),
                );
                m.put_field(this, &cookie, ck);
                m.ret_void();
            });
            c.method("vote", vec![Type::string()], Type::Void, |m| {
                let this = m.recv("t.Api");
                let id = m.arg(0, "id");
                let mh = m.temp(Type::string());
                m.get_field(mh, this, &modhash);
                let ck = m.temp(Type::string());
                m.get_field(ck, this, &cookie);
                let list = m.new_obj("java.util.ArrayList", vec![]);
                let p1 = m.new_obj(
                    "org.apache.http.message.BasicNameValuePair",
                    vec![Value::str("id"), Value::Local(id)],
                );
                m.vcall_void(list, "java.util.ArrayList", "add", vec![Value::Local(p1)]);
                let p2 = m.new_obj(
                    "org.apache.http.message.BasicNameValuePair",
                    vec![Value::str("uh"), Value::Local(mh)],
                );
                m.vcall_void(list, "java.util.ArrayList", "add", vec![Value::Local(p2)]);
                let ent = m.new_obj(
                    "org.apache.http.client.entity.UrlEncodedFormEntity",
                    vec![Value::Local(list)],
                );
                let req = m.new_obj(
                    "org.apache.http.client.methods.HttpPost",
                    vec![Value::str("http://www.reddit.com/api/vote")],
                );
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
                    vec![Value::str("Cookie"), Value::Local(ck)],
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
        b.build()
    }

    #[test]
    fn login_token_feeds_vote_request() {
        let apk = login_then_vote();
        let prog = ProgramIndex::new(&apk);
        let callees = CalleeTable::build(&SemanticModel::standard(), &prog);
        let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
        let sites = demarcation::scan(&prog, &callees);
        assert_eq!(sites.len(), 2);
        let slices = slice_all(&prog, &graph, &callees, &sites, &SliceOptions::default());
        let txns = pair(&prog, &graph, &slices);
        assert_eq!(txns.len(), 2);
        let deps = dependencies(&prog, &callees, &slices, &txns);
        assert!(!deps.is_empty(), "must find login→vote dependency");
        // Find the modhash field edge with field granularity.
        let field_edges: Vec<&DependencyEdge> = deps
            .iter()
            .filter(|d| matches!(&d.via, DepVia::Field(c) if c.contains("mModhash")))
            .collect();
        assert_eq!(field_edges.len(), 1, "deps: {deps:?}");
        let e = field_edges[0];
        assert_eq!(e.resp_field.as_deref(), Some("modhash"));
        assert_eq!(e.req_field.as_deref(), Some("form:uh"));
        // And the cookie → header edge.
        assert!(
            deps.iter().any(|d| matches!(&d.via, DepVia::Field(c) if c.contains("mCookie"))
                && d.req_field.as_deref() == Some("header:Cookie")),
            "deps: {deps:?}"
        );
        // Direction: login (txn of login method) → vote.
        let login_root = prog.resolve_method("t.Api", "login", 2).unwrap();
        for d in &deps {
            let from_txn = &txns[d.from];
            assert_eq!(from_txn.root, login_root, "dependency must originate at login");
        }
    }
}
