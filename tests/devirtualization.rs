//! Points-to devirtualization contract (the SPARK layer): on a site where
//! class-hierarchy analysis sees every subtype implementing an interface,
//! the points-to solver proves which concrete receiver actually flows
//! there. The call graph shrinks, slices shrink with it — and the
//! *extracted protocol signature does not move*, because the pruned
//! targets never execute.

use extractocol_analysis::{CallGraph, CallbackRegistry, MethodTable, PointsTo};
use extractocol_core::{stubs, Extractocol, Options};
use extractocol_ir::{Apk, ProgramIndex, Type, Value};

/// An app whose URL runs through an interface method with three
/// implementors. Only `Plain` is ever allocated; `Hex` and `Rot13` carry
/// junk statements that a CHA-built slice drags in.
fn polymorphic_app() -> Apk {
    let mut b = extractocol_ir::ApkBuilder::new("poly", "com.poly");
    stubs::install(&mut b);
    b.iface("com.poly.Enc", |c| {
        c.stub_method("pass", vec![Type::string()], Type::string());
    });
    // The receiver that actually flows to the call site.
    b.class("com.poly.Plain", |c| {
        c.implements("com.poly.Enc");
        c.method("pass", vec![Type::string()], Type::string(), |m| {
            m.recv("com.poly.Plain");
            let s = m.arg(0, "s");
            m.ret(s);
        });
    });
    // Two CHA-visible implementors that never execute. Their bodies return
    // the argument unchanged (so a CHA slice extracts the same signature)
    // but pad it with local shuffling a slicer must carry.
    for name in ["com.poly.Hex", "com.poly.Rot13"] {
        b.class(name, |c| {
            c.implements("com.poly.Enc");
            let scratch = c.field("scratch", Type::string());
            c.method("pass", vec![Type::string()], Type::string(), |m| {
                let this = m.recv(name);
                let s = m.arg(0, "s");
                let a = m.temp(Type::string());
                m.copy(a, s);
                let b2 = m.temp(Type::string());
                m.copy(b2, a);
                m.put_field(this, &scratch, b2);
                let c2 = m.temp(Type::string());
                m.get_field(c2, this, &scratch);
                m.ret(c2);
            });
        });
    }
    b.activity("com.poly.Main");
    b.class("com.poly.Main", |c| {
        c.extends("android.app.Activity");
        c.method("fetch", vec![Type::string()], Type::Void, |m| {
            m.recv("com.poly.Main");
            let user = m.arg(0, "user");
            let enc = m.new_obj("com.poly.Plain", vec![]);
            let clean =
                m.icall(enc, "com.poly.Enc", "pass", vec![Value::Local(user)], Type::string());
            let sb =
                m.new_obj("java.lang.StringBuilder", vec![Value::str("https://api.poly.com/u/")]);
            m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(clean)]);
            let url = m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
            let req = m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
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
    b.build()
}

fn analyze(apk: &Apk, pointsto: bool) -> extractocol_core::AnalysisReport {
    Extractocol::with_options(Options { pointsto, ..Options::default() }).analyze(apk)
}

#[test]
fn pta_prunes_cha_targets_at_the_interface_site() {
    let apk = polymorphic_app();
    let prog = ProgramIndex::new(&apk);
    let registry = CallbackRegistry::android_defaults();
    let cha = CallGraph::build(&prog, &registry);
    let pts = PointsTo::solve(&MethodTable::new(&prog));
    let pta = CallGraph::build_with_pointsto(&prog, &registry, &pts);

    // Find the interface call site in Main.fetch.
    let main =
        prog.concrete_methods().find(|&m| prog.method(m).name == "fetch").expect("Main.fetch");
    let site = prog
        .method(main)
        .body
        .iter()
        .enumerate()
        .find_map(|(i, s)| s.call().filter(|c| c.callee.name == "pass").map(|_| (main, i)))
        .expect("pass call site");

    assert_eq!(cha.targets_of(site).len(), 3, "CHA sees every implementor");
    assert_eq!(pta.targets_of(site).len(), 1, "points-to proves the one receiver");
    let only = pta.targets_of(site)[0];
    assert_eq!(prog.class(only.class).name, "com.poly.Plain");
    assert_eq!(prog.method(only).name, "pass");
    assert!(
        pta.total_explicit_targets() < cha.total_explicit_targets(),
        "devirtualization must strictly shrink the call graph \
         ({} -> {})",
        cha.total_explicit_targets(),
        pta.total_explicit_targets()
    );
}

/// Acceptance on the bundled corpus: the PTA-built call graph carries
/// strictly fewer explicit virtual-site targets than pure CHA, and the
/// leaner graph shows up as smaller slices — while every app's canonical
/// report stays byte-identical (the pruned targets never executed).
#[test]
fn corpus_pta_is_strictly_leaner_than_cha_with_identical_reports() {
    let mut cha_targets = 0usize;
    let mut pta_targets = 0usize;
    let mut cha_stmts = 0usize;
    let mut pta_stmts = 0usize;
    for app in extractocol_corpus::open_source_apps()
        .into_iter()
        .chain(extractocol_corpus::closed_source_apps())
    {
        let prog = ProgramIndex::new(&app.apk);
        let registry = CallbackRegistry::android_defaults();
        let cha_graph = CallGraph::build(&prog, &registry);
        let pts = PointsTo::solve(&MethodTable::new(&prog));
        let pta_graph = CallGraph::build_with_pointsto(&prog, &registry, &pts);
        assert!(
            pta_graph.total_explicit_targets() <= cha_graph.total_explicit_targets(),
            "{}: devirtualization may only prune targets",
            app.truth.name
        );
        cha_targets += cha_graph.total_explicit_targets();
        pta_targets += pta_graph.total_explicit_targets();

        let cha_report = analyze(&app.apk, false);
        let pta_report = analyze(&app.apk, true);
        assert_eq!(
            cha_report.to_table(),
            pta_report.to_table(),
            "{}: the protocol report must not depend on the call-graph mode",
            app.truth.name
        );
        cha_stmts += cha_report.metrics.per_dp.iter().map(|d| d.total_stmts()).sum::<usize>();
        pta_stmts += pta_report.metrics.per_dp.iter().map(|d| d.total_stmts()).sum::<usize>();
    }
    assert!(
        pta_targets < cha_targets,
        "corpus-wide, PTA must prune at least one CHA target ({cha_targets} -> {pta_targets})"
    );
    assert!(
        pta_stmts < cha_stmts,
        "corpus-wide, mean slice size must drop under devirtualization \
         ({cha_stmts} -> {pta_stmts} total sliced statements)"
    );
}

#[test]
fn slices_shrink_but_signatures_hold() {
    let apk = polymorphic_app();
    let cha = analyze(&apk, false);
    let pta = analyze(&apk, true);

    // Same protocol behavior out of both graphs.
    assert_eq!(cha.transactions.len(), 1);
    assert_eq!(pta.transactions.len(), 1);
    assert_eq!(cha.transactions[0].uri_regex, pta.transactions[0].uri_regex);
    assert_eq!(cha.transactions[0].method, pta.transactions[0].method);
    assert_eq!(cha.transactions[0].headers, pta.transactions[0].headers);

    // But the PTA request slice left the never-executed implementors out.
    let cha_req: usize = cha.metrics.per_dp.iter().map(|d| d.request_stmts).sum();
    let pta_req: usize = pta.metrics.per_dp.iter().map(|d| d.request_stmts).sum();
    assert!(
        pta_req < cha_req,
        "request slice must shrink under devirtualization ({cha_req} -> {pta_req})"
    );
}
