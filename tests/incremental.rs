//! Integration tests for the targeted + incremental analysis subsystem:
//! persistent `.exsm` summary caching, one-method invalidation bounds,
//! archive round-trip determinism, hostile-archive refusal, and the
//! byte-identity of targeted/incremental runs with the cold whole-program
//! pipeline at any worker count.

use extractocol_core::{AnalysisReport, Extractocol, Options, TraceCollector};
use extractocol_dynamic::conformance::{analyze_app_with, EvalConfig};
use extractocol_incr::archive;
use extractocol_ir::container::ContainerError;
use extractocol_ir::{Apk, Const, Expr, Stmt, Value};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("exsm_it_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn opts(jobs: usize, targeted: bool, cache: Option<PathBuf>) -> Options {
    Options { jobs, targeted, summary_cache_path: cache, ..Options::default() }
}

fn analyze(apk: &Apk, o: Options) -> AnalysisReport {
    Extractocol::with_options(o).analyze(apk)
}

fn json(r: &AnalysisReport) -> String {
    r.to_json().to_json()
}

/// Appends `"x"` to the first string constant in the named method,
/// returning whether a constant was found. Any such change alters the
/// method's canonical printed form and therefore its content hash.
fn perturb_method(apk: &mut Apk, class: &str, method: &str) -> bool {
    let on_value = |v: &mut Value| -> bool {
        if let Value::Const(Const::Str(s)) = v {
            s.push('x');
            return true;
        }
        false
    };
    for c in &mut apk.classes {
        if c.name != class {
            continue;
        }
        for m in &mut c.methods {
            if m.name != method {
                continue;
            }
            for st in &mut m.body {
                match st {
                    Stmt::Assign { expr: Expr::Invoke(call), .. } | Stmt::Invoke(call) => {
                        for a in &mut call.args {
                            if on_value(a) {
                                return true;
                            }
                        }
                    }
                    Stmt::Assign { expr: Expr::Use(Value::Const(Const::Str(s))), .. } => {
                        s.push('x');
                        return true;
                    }
                    _ => {}
                }
            }
        }
    }
    false
}

/// The `(class, method)` of the first transaction's root — a method that
/// is certainly inside every DP cone and whose strings feed a signature.
fn first_root(report: &AnalysisReport) -> (String, String) {
    let root = &report.transactions[0].root;
    let dot = root.rfind('.').unwrap();
    (root[..dot].to_string(), root[dot + 1..].to_string())
}

/// A warm re-run of an unchanged app answers every summary from the
/// persistent cache and reproduces the cold report byte-for-byte.
#[test]
fn warm_rerun_is_fully_cached_and_byte_identical() {
    let app = extractocol_corpus::app("iFixIt").unwrap();
    let dir = tmp_dir("warm");
    let path = dir.join("app.exsm");

    let cold = analyze(&app.apk, opts(1, false, Some(path.clone())));
    let ci = cold.metrics.incr.as_ref().expect("incr stats on cold run");
    assert_eq!(ci.preloaded, 0, "no archive existed yet");
    assert!(ci.saved > 0, "cold run must persist summaries: {}", ci.to_line());

    let warm = analyze(&app.apk, opts(1, false, Some(path)));
    let wi = warm.metrics.incr.as_ref().unwrap();
    assert_eq!(wi.invalidated, 0, "{}", wi.to_line());
    assert_eq!(wi.recomputed_summaries, 0, "{}", wi.to_line());
    assert!(wi.hit_rate() >= 0.9, "{}", wi.to_line());
    assert_eq!(json(&cold), json(&warm), "cache reuse must not change the report");
}

/// Editing one method invalidates only that method's one-hop neighborhood:
/// the warm re-run recomputes ≤5% of methods yet produces a report
/// byte-identical to a cold run of the mutated app.
#[test]
fn one_method_mutation_recomputes_at_most_five_percent() {
    let app = extractocol_corpus::app("5miles").unwrap();
    let dir = tmp_dir("mutation");
    let path = dir.join("app.exsm");

    let cold = analyze(&app.apk, opts(1, false, Some(path.clone())));
    let (class, method) = first_root(&cold);
    let mut mutated = app.apk.clone();
    assert!(
        perturb_method(&mut mutated, &class, &method),
        "no string constant in {class}.{method}"
    );

    let warm = analyze(&mutated, opts(1, false, Some(path)));
    let wi = warm.metrics.incr.as_ref().unwrap();
    assert!(wi.invalidated > 0, "the edited method's summaries must go stale: {}", wi.to_line());
    assert!(wi.reused_summaries > 0, "untouched summaries must survive: {}", wi.to_line());
    assert!(
        wi.recomputed_methods * 20 <= wi.total_methods,
        "recompute bound blown: {}",
        wi.to_line()
    );

    let fresh = analyze(&mutated, opts(1, false, None));
    assert!(fresh.metrics.incr.is_none(), "no cache path, no incr stats");
    assert_eq!(json(&fresh), json(&warm), "warm run must equal a cold run of the mutated app");
}

/// `write(read(write(x))) == write(x)`: the archive codec is idempotent on
/// a real engine export.
#[test]
fn archive_round_trip_is_idempotent() {
    let app = extractocol_corpus::app("radio reddit").unwrap();
    let dir = tmp_dir("roundtrip");
    let path = dir.join("app.exsm");
    analyze(&app.apk, opts(1, false, Some(path.clone())));

    let bytes = std::fs::read(&path).unwrap();
    let arch = archive::read_archive(&bytes).expect("self-written archive must parse");
    assert!(!arch.summaries.is_empty());
    assert_eq!(archive::write_archive(&arch), bytes);
}

/// Corrupt, truncated, or version-skewed archives are refused with typed
/// errors at the codec layer — and the pipeline degrades to a cold run
/// (recording the error) instead of failing or mis-analyzing.
#[test]
fn hostile_archives_are_refused_and_run_cold() {
    let app = extractocol_corpus::app("radio reddit").unwrap();
    let dir = tmp_dir("hostile");
    let path = dir.join("app.exsm");
    let clean = analyze(&app.apk, opts(1, false, Some(path.clone())));
    let bytes = std::fs::read(&path).unwrap();

    // Payload bit-flip → checksum mismatch.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    assert!(matches!(
        archive::read_archive(&corrupt),
        Err(ContainerError::ChecksumMismatch { .. })
    ));

    // Future format version → version mismatch (bytes 8..12 of the header).
    let mut skewed = bytes.clone();
    skewed[8] = skewed[8].wrapping_add(1);
    assert!(matches!(archive::read_archive(&skewed), Err(ContainerError::VersionMismatch { .. })));

    // Severed file → truncation, not a panic.
    assert!(archive::read_archive(&bytes[..bytes.len() / 2]).is_err());
    assert!(matches!(archive::read_archive(&bytes[..7]), Err(ContainerError::Truncated { .. })));

    // Wrong magic.
    let mut magic = bytes.clone();
    magic[0] = b'X';
    assert!(matches!(archive::read_archive(&magic), Err(ContainerError::BadMagic)));

    // Pipeline-level: a trashed cache file degrades to a cold run with the
    // error recorded, and the report is unaffected.
    std::fs::write(&path, &corrupt).unwrap();
    let recovered = analyze(&app.apk, opts(1, false, Some(path)));
    let ri = recovered.metrics.incr.as_ref().unwrap();
    assert!(ri.load_error.is_some(), "{}", ri.to_line());
    assert_eq!(ri.reused_summaries, 0);
    assert_eq!(json(&clean), json(&recovered));
}

/// Summaries computed under different options (or for a different app) are
/// incomparable: the epoch check invalidates the whole archive.
#[test]
fn epoch_mismatch_invalidates_everything() {
    let app = extractocol_corpus::app("radio reddit").unwrap();
    let dir = tmp_dir("epoch");
    let path = dir.join("app.exsm");
    analyze(&app.apk, opts(1, true, Some(path.clone())));

    // Same app, targeted off → different epoch.
    let other = analyze(&app.apk, opts(1, false, Some(path)));
    let oi = other.metrics.incr.as_ref().unwrap();
    assert!(oi.epoch_mismatch, "{}", oi.to_line());
    assert_eq!(oi.valid, 0);
    assert_eq!(oi.reused_summaries, 0);
}

/// Targeted + incremental analysis is jobs-invariant: reports and archive
/// bytes agree between a sequential and a parallel run.
#[test]
fn targeted_incremental_is_jobs_invariant() {
    let app = extractocol_corpus::app("Diode").unwrap();
    let dir = tmp_dir("jobs");
    let (p1, p8) = (dir.join("j1.exsm"), dir.join("j8.exsm"));

    let r1 = analyze(&app.apk, opts(1, true, Some(p1.clone())));
    let r8 = analyze(&app.apk, opts(8, true, Some(p8.clone())));
    assert_eq!(json(&r1), json(&r8));
    assert_eq!(
        std::fs::read(&p1).unwrap(),
        std::fs::read(&p8).unwrap(),
        "archive bytes must not depend on the worker count"
    );
    assert_eq!(r1.metrics.incr.as_ref().unwrap(), r8.metrics.incr.as_ref().unwrap());
}

/// Targeted mode skips whole classes (the demand-driven payoff), exports
/// the skip counters through the deterministic metrics registry, and still
/// reproduces the whole-program report byte-for-byte.
#[test]
fn targeted_skips_classes_and_exports_metrics() {
    let app = extractocol_corpus::app("5miles").unwrap();
    let whole = analyze(&app.apk, opts(1, false, None));
    let targeted = analyze(&app.apk, opts(1, true, None));

    let tg = targeted.metrics.targeted.as_ref().expect("targeted stats");
    assert!(tg.skipped_classes >= 1, "{tg:?}");
    assert!(tg.cone_methods < tg.total_methods, "{tg:?}");
    assert_eq!(json(&whole), json(&targeted), "targeted mode must not change the report");

    let det = targeted.metrics.export_registry().render_deterministic();
    assert!(det.contains("incr_targeted_skipped_classes_total"), "{det}");
    assert!(det.contains("incr_targeted_cone_methods_total"), "{det}");
}

/// The `--no-incremental` ablation: with the switch off the cache path is
/// neither read nor written.
#[test]
fn no_incremental_ignores_the_cache_path() {
    let app = extractocol_corpus::app("radio reddit").unwrap();
    let dir = tmp_dir("ablate");
    let path = dir.join("app.exsm");
    let cfg = EvalConfig {
        jobs: 1,
        incremental: false,
        summary_cache_path: Some(path.clone()),
        ..EvalConfig::default()
    };
    let r = analyze_app_with(&app.apk, app.truth.open_source, &cfg, &TraceCollector::disabled());
    assert!(r.metrics.incr.is_none());
    assert!(!path.exists(), "ablated run must not write the archive");
}
