//! Fig. 5: request/response pairing under code reuse. Two transactions
//! share a demarcation point through a common helper; disjoint sub-slice
//! preprocessing pairs each request with its own response handler.

use extractocol_analysis::{CallGraph, CallbackRegistry};
use extractocol_core::semantics::{CalleeTable, SemanticModel};
use extractocol_core::{demarcation, pairing, slicing};
use extractocol_ir::{ApkBuilder, ProgramIndex, Type, Value};

fn main() {
    // The Fig. 5 fixture: requestA/requestB -> common2(DP) -> responseA/B.
    let mut b = ApkBuilder::new("fig5", "t");
    extractocol_core::stubs::install(&mut b);
    b.class("t.Net", |c| {
        c.static_method("common2", vec![Type::string()], Type::string(), |m| {
            let url = m.arg(0, "url");
            let req = m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
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
            m.ret(body);
        });
        for (name, path, key) in
            [("A", "http://svc/a.json", "alpha"), ("B", "http://svc/b.json", "beta")]
        {
            let req_m = format!("request{name}");
            let resp_m = format!("response{name}");
            let resp_m2 = resp_m.clone();
            c.static_method(&req_m, vec![], Type::Void, move |m| {
                let url = m.temp(Type::string());
                m.cstr(url, path);
                let body = m.scall("t.Net", "common2", vec![Value::Local(url)], Type::string());
                m.scall_void("t.Net", &resp_m2, vec![Value::Local(body)]);
                m.ret_void();
            });
            let key = key.to_string();
            c.static_method(&resp_m, vec![Type::string()], Type::Void, move |m| {
                let body = m.arg(0, "body");
                let j = m.new_obj("org.json.JSONObject", vec![Value::Local(body)]);
                let v = m.vcall(
                    j,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str(&key)],
                    Type::string(),
                );
                let _ = v;
                m.ret_void();
            });
        }
    });
    let apk = b.build();
    let prog = ProgramIndex::new(&apk);
    let callees = CalleeTable::build(&SemanticModel::standard(), &prog);
    let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
    let sites = demarcation::scan(&prog, &callees);
    println!("demarcation points: {} (shared by both transactions)", sites.len());
    let slices = slicing::slice_all(&prog, &graph, &callees, &sites, &Default::default());
    let txns = pairing::pair(&prog, &graph, &slices);
    println!("transaction candidates: {}", txns.len());
    for t in &txns {
        let root = prog.method(t.root).name.clone();
        let resp_methods: Vec<String> = {
            let mut v: Vec<String> = t
                .response_stmts
                .iter()
                .map(|(m, _)| prog.method(*m).name.clone())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            v.sort();
            v
        };
        println!("  {root} -> pairing {:?}, response code in {resp_methods:?}", t.pairing);
    }
    assert_eq!(sites.len(), 1);
    assert_eq!(txns.len(), 2);
    println!("\npaper: \"we can pair A's request with A's response slice and not");
    println!("with B's response slice\" — one-to-one pairing recovered.");
}
