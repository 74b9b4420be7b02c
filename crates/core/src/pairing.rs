//! Request–response pairing via disjoint sub-slices (paper §3.3, Fig. 5).
//!
//! Pairing a request with its response is trivial when a demarcation point
//! serves a single transaction. Code reuse breaks this: "When multiple
//! requests and responses share a common demarcation point, standard
//! information flow analysis … identifies multiple responses for a single
//! request URI." The paper's remedy: "If all request/response slices are
//! disjoint, one-to-one relationship would hold between them" — so the
//! slices are preprocessed into *disjoint sub-slices* (the parts unique to
//! one call chain), and information flow is traced between those.
//!
//! Here each *transaction candidate* is anchored at a **root**: a method
//! of the DP's slices that no other slice method calls (requestA(),
//! requestB() in Fig. 5, or the single enclosing method in the common
//! case). The statements reachable from exactly one root form its disjoint
//! segments; a candidate pairs with the response statements its root
//! (and only its root) reaches. Responses reachable from several roots are
//! a *common response handler* — "pairing may not always be one-to-one".

use crate::slicing::SliceSet;
use extractocol_analysis::CallGraph;
use extractocol_ir::{MethodId, ProgramIndex};
use std::collections::{HashMap, HashSet};

/// How a candidate's response side was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pairing {
    /// Exactly this candidate's disjoint segments process the response.
    Unique,
    /// The response is processed by code shared with other candidates
    /// (common response handler).
    SharedHandler,
    /// No response body is processed by the app.
    Unpaired,
}

/// One reconstructed transaction candidate.
#[derive(Clone, Debug)]
pub struct Transaction {
    /// Global transaction id (assigned by the pipeline).
    pub id: usize,
    /// Index of the DP slice set this came from.
    pub dp_index: usize,
    /// Root method anchoring the candidate.
    pub root: MethodId,
    /// Disjoint request statements (plus shared ones when unambiguous).
    pub request_stmts: HashSet<(MethodId, usize)>,
    /// Response statements attributed to this candidate.
    pub response_stmts: HashSet<(MethodId, usize)>,
    /// Pairing resolution.
    pub pairing: Pairing,
}

/// Splits each DP's slices into per-root transaction candidates.
pub fn pair(prog: &ProgramIndex<'_>, graph: &CallGraph, slices: &[SliceSet]) -> Vec<Transaction> {
    let mut out = Vec::new();
    for (dp_index, s) in slices.iter().enumerate() {
        let mut methods: HashSet<MethodId> = s.all_stmts().into_iter().map(|(m, _)| m).collect();
        methods.insert(s.dp.method);

        // Roots: slice methods not called from other slice methods, that
        // actually reach the DP's method through in-slice calls. (Methods
        // pulled in by the asynchronous-event heuristic — setters in other
        // event handlers — are slice members but not transaction anchors.)
        let mut roots: Vec<MethodId> = methods
            .iter()
            .copied()
            .filter(|m| {
                !graph
                    .callers
                    .get(m)
                    .map(|cs| cs.iter().any(|(cm, _)| methods.contains(cm)))
                    .unwrap_or(false)
            })
            .filter(|&m| {
                m == s.dp.method
                    || reachable_within(prog, graph, m, &methods).contains(&s.dp.method)
            })
            .collect();
        roots.sort();
        if roots.is_empty() {
            roots.push(s.dp.method); // recursive slice: fall back
        }

        // Reachability from each root within the slice subgraph.
        let reach: HashMap<MethodId, HashSet<MethodId>> =
            roots.iter().map(|&r| (r, reachable_within(prog, graph, r, &methods))).collect();
        // How many roots reach each method.
        let mut reach_count: HashMap<MethodId, usize> = HashMap::new();
        for set in reach.values() {
            for &m in set {
                *reach_count.entry(m).or_insert(0) += 1;
            }
        }

        for &root in &roots {
            let mine = &reach[&root];
            let disjoint =
                |m: &MethodId| mine.contains(m) && reach_count.get(m).copied().unwrap_or(0) == 1;
            // Request statements: in disjoint methods, plus shared ones when
            // this DP has a single root (no ambiguity to resolve).
            let request_stmts: HashSet<(MethodId, usize)> = s
                .request_slice
                .iter()
                .filter(|(m, _)| {
                    if roots.len() == 1 {
                        mine.contains(m) || !reach_count.contains_key(m)
                    } else {
                        disjoint(m)
                    }
                })
                .copied()
                .collect();
            let response_disjoint: HashSet<(MethodId, usize)> =
                s.response_slice.iter().filter(|(m, _)| disjoint(m)).copied().collect();
            let response_shared: HashSet<(MethodId, usize)> = s
                .response_slice
                .iter()
                .filter(|(m, _)| mine.contains(m) && !disjoint(m))
                .copied()
                .collect();

            let (response_stmts, pairing) = if roots.len() == 1 {
                // Include response work outside this root's cone too (e.g.
                // async callback targets seeded directly).
                let all: HashSet<(MethodId, usize)> = s.response_slice.clone();
                if all.is_empty() {
                    (all, Pairing::Unpaired)
                } else {
                    (all, Pairing::Unique)
                }
            } else if !response_disjoint.is_empty() {
                // Fig. 5: a disjoint path exists from this root's request
                // segment to this root's response segment.
                let mut all = response_disjoint;
                all.extend(response_shared);
                (all, Pairing::Unique)
            } else if !response_shared.is_empty() {
                (response_shared, Pairing::SharedHandler)
            } else {
                (HashSet::new(), Pairing::Unpaired)
            };

            out.push(Transaction {
                id: 0, // assigned by the pipeline
                dp_index,
                root,
                request_stmts,
                response_stmts,
                pairing,
            });
        }
    }
    for (i, t) in out.iter_mut().enumerate() {
        t.id = i;
    }
    out
}

/// Methods reachable from `root` through call-graph edges staying inside
/// `within`.
fn reachable_within(
    prog: &ProgramIndex<'_>,
    graph: &CallGraph,
    root: MethodId,
    within: &HashSet<MethodId>,
) -> HashSet<MethodId> {
    let mut seen = HashSet::new();
    let mut stack = vec![root];
    while let Some(m) = stack.pop() {
        if !seen.insert(m) {
            continue;
        }
        let body_len = prog.method(m).body.len();
        for si in 0..body_len {
            for &t in graph.targets_of((m, si)) {
                if within.contains(&t) {
                    stack.push(t);
                }
            }
            for e in graph.implicit_of((m, si)) {
                if within.contains(&e.target) {
                    stack.push(e.target);
                }
                if let Some((c, _)) = e.chains_to {
                    if within.contains(&c) {
                        stack.push(c);
                    }
                }
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demarcation;
    use crate::semantics::{CalleeTable, SemanticModel};
    use crate::slicing::{slice_all, SliceOptions};
    use extractocol_analysis::CallbackRegistry;
    use extractocol_ir::{ApkBuilder, Type, Value};

    /// The Fig. 5 fixture: requestA/requestB share common2() (which holds
    /// the DP); responseA/responseB are disjoint handlers invoked by the
    /// respective transaction methods.
    fn fig5_apk() -> extractocol_ir::Apk {
        let mut b = ApkBuilder::new("fig5", "t");
        b.class("org.apache.http.client.HttpClient", |c| {
            c.stub_method(
                "execute",
                vec![Type::obj_root()],
                Type::object("org.apache.http.HttpResponse"),
            );
        });
        b.class("t.Net", |c| {
            // common2: the shared demarcation point.
            c.static_method("common2", vec![Type::string()], Type::string(), |m| {
                let url = m.arg(0, "url");
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
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
            // Transaction A.
            c.static_method("requestA", vec![], Type::Void, |m| {
                let url = m.temp(Type::string());
                m.cstr(url, "http://svc/a.json");
                let body = m.scall("t.Net", "common2", vec![Value::Local(url)], Type::string());
                m.scall_void("t.Net", "responseA", vec![Value::Local(body)]);
                m.ret_void();
            });
            c.static_method("responseA", vec![Type::string()], Type::Void, |m| {
                let body = m.arg(0, "body");
                let j = m.new_obj("org.json.JSONObject", vec![Value::Local(body)]);
                let v = m.vcall(
                    j,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("alpha")],
                    Type::string(),
                );
                let _ = v;
                m.ret_void();
            });
            // Transaction B.
            c.static_method("requestB", vec![], Type::Void, |m| {
                let url = m.temp(Type::string());
                m.cstr(url, "http://svc/b.json");
                let body = m.scall("t.Net", "common2", vec![Value::Local(url)], Type::string());
                m.scall_void("t.Net", "responseB", vec![Value::Local(body)]);
                m.ret_void();
            });
            c.static_method("responseB", vec![Type::string()], Type::Void, |m| {
                let body = m.arg(0, "body");
                let j = m.new_obj("org.json.JSONObject", vec![Value::Local(body)]);
                let v = m.vcall(
                    j,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("beta")],
                    Type::string(),
                );
                let _ = v;
                m.ret_void();
            });
        });
        b.build()
    }

    #[test]
    fn fig5_shared_dp_pairs_one_to_one() {
        let apk = fig5_apk();
        let prog = ProgramIndex::new(&apk);
        let callees = CalleeTable::build(&SemanticModel::standard(), &prog);
        let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
        let sites = demarcation::scan(&prog, &callees);
        assert_eq!(sites.len(), 1, "one shared DP");
        let slices = slice_all(&prog, &graph, &callees, &sites, &SliceOptions::default());
        let txns = pair(&prog, &graph, &slices);
        assert_eq!(txns.len(), 2, "two transaction candidates from one DP");

        let name = |m: MethodId| prog.method(m).name.clone();
        for t in &txns {
            assert_eq!(t.pairing, Pairing::Unique, "root {}", name(t.root));
            let resp_methods: HashSet<String> =
                t.response_stmts.iter().map(|(m, _)| name(*m)).collect();
            match name(t.root).as_str() {
                "requestA" => {
                    assert!(resp_methods.contains("responseA"), "{resp_methods:?}");
                    assert!(!resp_methods.contains("responseB"), "{resp_methods:?}");
                }
                "requestB" => {
                    assert!(resp_methods.contains("responseB"), "{resp_methods:?}");
                    assert!(!resp_methods.contains("responseA"), "{resp_methods:?}");
                }
                other => panic!("unexpected root {other}"),
            }
        }
    }

    #[test]
    fn single_root_keeps_whole_slices() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("org.apache.http.client.HttpClient", |c| {
            c.stub_method(
                "execute",
                vec![Type::obj_root()],
                Type::object("org.apache.http.HttpResponse"),
            );
        });
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
                let ent = m.vcall(
                    resp,
                    "org.apache.http.HttpResponse",
                    "getEntity",
                    vec![],
                    Type::object("org.apache.http.HttpEntity"),
                );
                let _ = ent;
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let callees = CalleeTable::build(&SemanticModel::standard(), &prog);
        let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
        let sites = demarcation::scan(&prog, &callees);
        let slices = slice_all(&prog, &graph, &callees, &sites, &SliceOptions::default());
        let txns = pair(&prog, &graph, &slices);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].pairing, Pairing::Unique);
        assert!(!txns[0].request_stmts.is_empty());
        assert!(!txns[0].response_stmts.is_empty());
    }
}
