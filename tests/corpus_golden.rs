//! The corpus outputs, pinned. Every corpus app is analysed at jobs 1,
//! whole-program and targeted, and the concatenated reports and
//! deterministic metric registries must hash to the checked-in digests.
//! A refactor that claims "same reports" is held to these bytes.
//!
//! Each digest is `ir::hash::fnv1a64` over the 34 apps in `all_apps()`
//! order: `to_json` with a newline after each app, `to_table`, and
//! `export_registry().render_deterministic()`. On a mismatch the current
//! outputs are written under the test target dir and the panic names
//! them; an intended change re-pins the digests from those files.

use extractocol_core::report::AnalysisReport;
use extractocol_core::TraceCollector;
use extractocol_dynamic::conformance::{analyze_app_with, EvalConfig};
use extractocol_ir::hash::fnv1a64;
use extractocol_ir::obfuscate::{obfuscate, ObfuscationOptions};
use std::path::PathBuf;

/// `(bytes, fnv1a64)` of one concatenated output.
type Digest = (usize, u64);

const TO_JSON: Digest = (483_423, 0xb9ce_bdda_a412_3667);
const TO_TABLE: Digest = (154_346, 0xe905_a459_7b68_9a78);
const REGISTRY_WHOLE: Digest = (75_862, 0xa575_8538_144f_fb87);
const REGISTRY_TARGETED: Digest = (91_890, 0x7750_31a7_702e_2f7e);

fn analyze(apk: &extractocol_ir::Apk, open_source: bool, targeted: bool) -> AnalysisReport {
    let cfg = EvalConfig { jobs: 1, targeted, ..EvalConfig::default() };
    analyze_app_with(apk, open_source, &cfg, &TraceCollector::disabled())
}

/// Writes `text` under the test target dir and returns its path.
fn dump(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write the current output");
    path
}

/// Checks one concatenated output against its pinned digest; a mismatch
/// is reported with the file holding the current output.
fn check(name: &str, text: &str, pinned: Digest, bad: &mut Vec<String>) {
    let got = (text.len(), fnv1a64(text.as_bytes()));
    if got != pinned {
        let path = dump(name, text);
        bad.push(format!(
            "{name}: {} B {:016x}, pinned {} B {:016x}; current output in {}",
            got.0,
            got.1,
            pinned.0,
            pinned.1,
            path.display()
        ));
    }
}

#[test]
fn corpus_reports_and_registries_match_the_pinned_digests() {
    let mut bad = Vec::new();
    for (mode, targeted, registry_pin) in
        [("whole", false, REGISTRY_WHOLE), ("targeted", true, REGISTRY_TARGETED)]
    {
        let (mut json, mut table, mut registry) = (String::new(), String::new(), String::new());
        for app in extractocol_corpus::all_apps() {
            let report = analyze(&app.apk, app.truth.open_source, targeted);
            json.push_str(&report.to_json().to_json());
            json.push('\n');
            table.push_str(&report.to_table());
            registry.push_str(&report.metrics.export_registry().render_deterministic());
        }
        check(&format!("corpus_{mode}.json.txt"), &json, TO_JSON, &mut bad);
        check(&format!("corpus_{mode}.table.txt"), &table, TO_TABLE, &mut bad);
        check(&format!("corpus_{mode}.registry.txt"), &registry, registry_pin, &mut bad);
    }
    assert!(bad.is_empty(), "corpus outputs differ from the pinned digests:\n{}", bad.join("\n"));
}

/// Targeted analysis must not change a report, also on obfuscated code,
/// where the cone cannot lean on readable names.
#[test]
fn targeted_equals_whole_program_on_obfuscated_apps() {
    let mut bad = Vec::new();
    for app in extractocol_corpus::all_apps() {
        let (apk, _) = obfuscate(&app.apk, &ObfuscationOptions::default());
        let open = app.truth.open_source;
        let whole = analyze(&apk, open, false).to_json().to_json();
        let targeted = analyze(&apk, open, true).to_json().to_json();
        if whole != targeted {
            let stem = app.truth.name.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
            let w = dump(&format!("obfuscated_{stem}.whole.json"), &whole);
            let t = dump(&format!("obfuscated_{stem}.targeted.json"), &targeted);
            bad.push(format!("{}: {} vs {}", app.truth.name, w.display(), t.display()));
        }
    }
    assert!(bad.is_empty(), "targeted reports differ on obfuscated apps:\n{}", bad.join("\n"));
}
