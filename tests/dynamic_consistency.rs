//! Static↔dynamic consistency: running every transaction concretely must
//! produce traffic the static signatures match — URI, method, and body
//! (the §5.1 "signature validity" and "logical equivalence" checks).

use extractocol_core::conformance::request_body_matches;
use extractocol_dynamic::eval::AppEval;
use extractocol_dynamic::run_perfect_fuzzer;
use extractocol_dynamic::trace::matching_transactions;
use extractocol_http::Body;

#[test]
fn every_statically_visible_transaction_is_matched_in_a_full_run() {
    for app in extractocol_corpus::all_apps() {
        let eval = AppEval::run(&app);
        let full = run_perfect_fuzzer(&app);
        for txn in &eval.report.transactions {
            let hits = matching_transactions(txn, &full);
            assert!(
                !hits.is_empty(),
                "{}: signature #{} ({} {}) matched no trace line",
                app.truth.name,
                txn.id + 1,
                txn.method,
                txn.uri_regex
            );
        }
    }
}

#[test]
fn body_signatures_match_concrete_bodies() {
    for app in extractocol_corpus::all_apps() {
        let eval = AppEval::run(&app);
        let full = run_perfect_fuzzer(&app);
        for txn in &eval.report.transactions {
            let Some(body_sig) = &txn.request_body else { continue };
            for hit in matching_transactions(txn, &full) {
                if matches!(hit.request.body, Body::Empty) {
                    continue;
                }
                assert!(
                    request_body_matches(body_sig, &hit.request.body),
                    "{}: #{} body signature {:?} vs concrete {:?}",
                    app.truth.name,
                    txn.id + 1,
                    body_sig,
                    hit.request.body
                );
            }
        }
    }
}

#[test]
fn response_signatures_match_served_bodies() {
    use extractocol_core::sigbuild::ResponseSig;
    for app in extractocol_corpus::all_apps() {
        let eval = AppEval::run(&app);
        let full = run_perfect_fuzzer(&app);
        for txn in &eval.report.transactions {
            let Some(resp) = &txn.response else { continue };
            for hit in matching_transactions(txn, &full) {
                match (resp, &hit.response.body) {
                    (ResponseSig::Json(sig), Body::Json(v)) => {
                        assert!(
                            sig.matches(v),
                            "{}: #{} JSON response signature {} vs {}",
                            app.truth.name,
                            txn.id + 1,
                            sig.display(),
                            v.to_json()
                        );
                    }
                    (ResponseSig::Xml(sig), Body::Xml(x)) => {
                        assert!(
                            sig.matches(x),
                            "{}: #{} XML response signature vs {}",
                            app.truth.name,
                            txn.id + 1,
                            x.to_xml()
                        );
                    }
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn interpreter_state_carries_across_triggers() {
    // The login-token flow only works if heap state persists between
    // trigger invocations (the paper's inter-transaction dependencies are
    // precisely about such state).
    let app = extractocol_corpus::app("radio reddit").unwrap();
    let trace = run_perfect_fuzzer(&app);
    let vote = trace
        .transactions
        .iter()
        .find(|t| t.request.uri.to_uri_string().contains("/api/vote"))
        .expect("vote request in trace");
    match &vote.request.body {
        Body::Form(pairs) => {
            let uh = pairs.iter().find(|(k, _)| k == "uh").expect("uh field");
            assert_eq!(uh.1, "mh-4242", "the modhash from the login response");
            let id = pairs.iter().find(|(k, _)| k == "id").expect("id field");
            assert_eq!(id.1, "t3_song837", "the fullname from info.json");
        }
        other => panic!("vote body: {other:?}"),
    }
    assert_eq!(vote.request.headers.get("Cookie"), Some("ck-9999"));
}
