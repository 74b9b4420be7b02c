//! The per-analysis callee table against the semantic model it is built
//! from. At every call statement of every corpus app — as shipped, with
//! its app code renamed, and with its libraries renamed and then mapped
//! back by the §3.4 de-obfuscator — the callee id the program records
//! must name that call's callee, and the table must give, for that id,
//! the op and the demarcation spec that `SemanticModel::op_for` and
//! `SemanticModel::demarcation` give for that one call.

use extractocol_core::deobf;
use extractocol_core::semantics::{CalleeTable, SemanticModel};
use extractocol_core::stubs;
use extractocol_ir::obfuscate::{obfuscate, ObfuscationOptions};
use extractocol_ir::{Apk, ProgramIndex};

/// Compares the table with the model at every call of `apk`; returns the
/// number of calls checked and of demarcation points among them.
fn check(label: &str, apk: &Apk, model: &SemanticModel, bad: &mut Vec<String>) -> (usize, usize) {
    let prog = ProgramIndex::new(apk);
    let table = CalleeTable::build(model, &prog);
    let (mut calls, mut dps) = (0, 0);
    for mid in prog.methods() {
        for (si, stmt) in prog.method(mid).body.iter().enumerate() {
            let Some(call) = stmt.call() else { continue };
            calls += 1;
            let (op, dp) =
                (model.op_for(&prog, &call.callee), model.demarcation(&prog, &call.callee));
            dps += usize::from(dp.is_some());
            let id = prog.callee_at(mid, si).expect("every call statement has a callee id");
            if prog.callee(id) != &call.callee || *table.op(id) != op || table.dp(id) != dp.as_ref()
            {
                bad.push(format!(
                    "{label}: {} stmt {si}: call to {}",
                    prog.method_display(mid),
                    call.callee.qualified()
                ));
            }
        }
    }
    (calls, dps)
}

#[test]
fn table_matches_the_model_at_every_corpus_call() {
    let model = SemanticModel::standard();
    let reference = stubs::library_reference();
    let rename_libraries =
        ObfuscationOptions { obfuscate_libraries: true, extra_keep_prefixes: vec![] };
    let mut bad = Vec::new();
    let (mut calls, mut dps, mut recovered) = (0, 0, 0);
    for app in extractocol_corpus::all_apps() {
        let name = &app.truth.name;
        let (renamed, _) = obfuscate(&app.apk, &ObfuscationOptions::default());
        let (lib_renamed, _) = obfuscate(&app.apk, &rename_libraries);
        let map = deobf::infer_library_map(&lib_renamed, reference);
        let mapped_back = deobf::deobfuscate(&lib_renamed, &map);
        recovered += usize::from(!map.is_empty());
        for (label, apk) in
            [("plain", &app.apk), ("obfuscated", &renamed), ("deobfuscated", &*mapped_back)]
        {
            let (c, d) = check(&format!("{name} ({label})"), apk, &model, &mut bad);
            calls += c;
            dps += d;
        }
    }
    assert!(bad.is_empty(), "{} call(s) differ from the model:\n{}", bad.len(), bad.join("\n"));
    // The comparison covers real work: modelled calls, DPs, and renamed
    // libraries the de-obfuscator mapped back.
    assert!(calls > 100_000 && dps > 0 && recovered > 0, "{calls} calls, {dps} DPs, {recovered}");
}
