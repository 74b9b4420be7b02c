//! Demarcation-point discovery.
//!
//! "Our main idea is to start from network access methods and taint network
//! buffers. … We refer to such HTTP access functions as demarcation points
//! (DPs) because they separate the forward and backward program slices"
//! (§3.1). This module scans every concrete method for calls matching the
//! semantic model's DP specs and records, per site, where the request
//! object and the response surface.

use crate::semantics::{CalleeTable, DpRequestLoc, DpResponseLoc, DpSpec};
use extractocol_http::HttpMethod;
use extractocol_ir::{MethodId, Place, ProgramIndex, Stmt, Value};

/// One demarcation-point occurrence in app code.
#[derive(Clone, Debug)]
pub struct DpSite {
    /// Unique id (index into the scan result).
    pub id: usize,
    /// Containing method and statement index.
    pub method: MethodId,
    pub stmt: usize,
    /// The matched spec.
    pub spec: DpSpec,
    /// The request operand at this site (receiver or argument).
    pub request_value: Option<Value>,
    /// Where the response lands, for Return-style DPs with a used result.
    pub response_place: Option<Place>,
}

impl DpSite {
    /// The request method implied by the DP itself, if any.
    pub fn implied_method(&self) -> Option<HttpMethod> {
        self.spec.implied_method
    }
}

/// Scans the program for demarcation points.
///
/// Chained DPs are deduplicated: when a site's request operand is itself
/// the result of another DP at the outer boundary (okhttp's
/// `client.newCall(req)` followed by `call.execute()`), the *outer* site —
/// the one whose request operand carries the protocol content — is kept
/// and the inner one dropped, so one network interaction yields one
/// transaction.
pub fn scan(prog: &ProgramIndex<'_>, callees: &CalleeTable) -> Vec<DpSite> {
    let mut sites = Vec::new();
    for mid in prog.concrete_methods() {
        let body = &prog.method(mid).body;
        for (si, stmt) in body.iter().enumerate() {
            let Some(spec) = prog.callee_at(mid, si).and_then(|c| callees.dp(c)) else {
                continue;
            };
            let call = stmt.call().expect("a statement with a callee id is a call");
            let request_value = match spec.request {
                DpRequestLoc::Receiver => call.receiver.clone(),
                DpRequestLoc::Arg(i) => call.args.get(i).cloned(),
            };
            let response_place = match (spec.response, stmt) {
                (DpResponseLoc::Return, Stmt::Assign { place, .. }) => Some(place.clone()),
                _ => None,
            };
            sites.push(DpSite {
                id: 0, // assigned after dedup
                method: mid,
                stmt: si,
                spec: spec.clone(),
                request_value,
                response_place,
            });
        }
    }
    // Dedup chained DPs: drop a site whose request operand is defined (in
    // the same method, by simple local def) by another DP site's result.
    let dp_result_locals: Vec<(MethodId, extractocol_ir::Local)> = sites
        .iter()
        .filter_map(|s| match &s.response_place {
            Some(Place::Local(l)) => Some((s.method, *l)),
            _ => None,
        })
        .collect();
    let mut kept: Vec<DpSite> = sites
        .into_iter()
        .filter(|s| {
            let Some(Value::Local(req)) = &s.request_value else { return true };
            // If the request operand is another DP's response local in the
            // same method, this is the chained inner site — drop it.
            !dp_result_locals.iter().any(|(m, l)| *m == s.method && l == req)
        })
        .collect();
    for (i, s) in kept.iter_mut().enumerate() {
        s.id = i;
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::SemanticModel;
    use extractocol_ir::{ApkBuilder, Type};

    fn stubs(b: &mut ApkBuilder) {
        b.class("org.apache.http.client.HttpClient", |c| {
            c.stub_method(
                "execute",
                vec![Type::obj_root()],
                Type::object("org.apache.http.HttpResponse"),
            );
        });
        b.class("okhttp3.OkHttpClient", |c| {
            c.stub_method("newCall", vec![Type::obj_root()], Type::object("okhttp3.Call"));
        });
        b.class("okhttp3.Call", |c| {
            c.stub_method("execute", vec![], Type::object("okhttp3.Response"));
        });
    }

    #[test]
    fn finds_apache_execute_site() {
        let mut b = ApkBuilder::new("t", "t");
        stubs(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.C");
                let req = m.new_obj(
                    "org.apache.http.client.methods.HttpGet",
                    vec![Value::str("http://x/")],
                );
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                let resp = m.vcall(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                    Type::object("org.apache.http.HttpResponse"),
                );
                let _ = resp;
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let model = SemanticModel::standard();
        let sites = scan(&prog, &CalleeTable::build(&model, &prog));
        assert_eq!(sites.len(), 1);
        let s = &sites[0];
        assert!(s.request_value.is_some());
        assert!(matches!(s.response_place, Some(Place::Local(_))));
    }

    #[test]
    fn chained_okhttp_dps_deduplicate_to_newcall() {
        let mut b = ApkBuilder::new("t", "t");
        stubs(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.C");
                let req = m.temp(Type::object("okhttp3.Request"));
                m.assign(req, extractocol_ir::Expr::New("okhttp3.Request".into()));
                let client = m.new_obj("okhttp3.OkHttpClient", vec![]);
                let call = m.vcall(
                    client,
                    "okhttp3.OkHttpClient",
                    "newCall",
                    vec![Value::Local(req)],
                    Type::object("okhttp3.Call"),
                );
                let resp = m.vcall(
                    call,
                    "okhttp3.Call",
                    "execute",
                    vec![],
                    Type::object("okhttp3.Response"),
                );
                let _ = resp;
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let model = SemanticModel::standard();
        let sites = scan(&prog, &CalleeTable::build(&model, &prog));
        assert_eq!(sites.len(), 1, "chained DP must deduplicate");
        assert_eq!(sites[0].spec.class, "okhttp3.OkHttpClient");
    }
}
