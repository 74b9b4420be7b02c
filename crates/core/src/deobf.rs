//! Obfuscated-library mapping (paper §3.4).
//!
//! "When library code included in our semantic model is obfuscated … we
//! pre-process the code to generate a map between the obfuscated identifier
//! and the original one. For this, we compare the signatures of the method
//! contained in our semantic model to identify the class and method that
//! has the most similar signature patterns."
//!
//! The *shape signature* of a method — return/parameter types with class
//! names erased — survives identifier renaming ([`MethodRef::shape`]), so
//! an obfuscated bundled-library class is matched against the reference
//! library classes ([`crate::stubs::library_reference`]) by comparing
//! shape multisets. Methods then map by unique shape within the class.
//! An ambiguous mapping degrades signatures to wildcards rather than
//! failing, as the paper notes.

use extractocol_ir::obfuscate::{apply_map, ObfuscationMap};
use extractocol_ir::{Apk, Class, MethodRef};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// Minimum multiset-overlap score to accept a class match.
const MIN_SCORE: f64 = 0.6;

/// The inferred map, in obfuscated → original direction.
#[derive(Debug, Default, Clone)]
pub struct LibraryMap {
    /// Obfuscated class name → reference class name.
    pub classes: BTreeMap<String, String>,
    /// `(obfuscated class, obfuscated method, arity)` → reference name.
    pub methods: BTreeMap<(String, String, usize), String>,
}

impl LibraryMap {
    /// True when nothing was inferred (the common "libraries left
    /// unobfuscated" case, §3.4).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

fn shape_of(class: &str, m: &extractocol_ir::Method) -> String {
    MethodRef {
        class: class.to_string(),
        name: m.name.clone(),
        params: m.params.clone(),
        ret: m.ret.clone(),
    }
    .shape()
}

/// The level-0 shape multiset of a class's methods (constructors included —
/// their names are stable but their shapes still discriminate).
fn shape_multiset(c: &Class) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for m in &c.methods {
        *out.entry(shape_of(&c.name, m)).or_insert(0) += 1;
    }
    out
}

/// Canonical string of a level-0 multiset, used as a type color.
fn canon(ms: &BTreeMap<String, usize>) -> String {
    ms.iter().map(|(k, v)| format!("{k}*{v}")).collect::<Vec<_>>().join(";")
}

/// One round of Weisfeiler–Leman-style refinement: a method shape where
/// each referenced *library* class is replaced by the canonical form of
/// its own level-0 multiset. This separates structural twins such as
/// `okhttp3.Call` and `retrofit2.Call`, whose parameter/return types have
/// different shapes even though the classes themselves match.
fn refined_shape(m: &extractocol_ir::Method, colors: &HashMap<&str, String>) -> String {
    fn erase(t: &extractocol_ir::Type, colors: &HashMap<&str, String>) -> String {
        match t {
            extractocol_ir::Type::Object(n) => {
                colors.get(n.as_str()).map(|c| format!("C<{c}>")).unwrap_or_else(|| "L".to_string())
            }
            extractocol_ir::Type::Array(e) => format!("{}[]", erase(e, colors)),
            other => other.to_string(),
        }
    }
    let params: Vec<String> = m.params.iter().map(|t| erase(t, colors)).collect();
    format!("{}({})", erase(&m.ret, colors), params.join(","))
}

/// Level-1 refined multiset per class.
fn refined_multiset(c: &Class, colors: &HashMap<&str, String>) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for m in &c.methods {
        *out.entry(refined_shape(m, colors)).or_insert(0) += 1;
    }
    out
}

fn overlap_score(a: &BTreeMap<String, usize>, b: &BTreeMap<String, usize>) -> f64 {
    let inter: usize = a.iter().map(|(k, &ca)| ca.min(b.get(k).copied().unwrap_or(0))).sum();
    let total_a: usize = a.values().sum();
    let total_b: usize = b.values().sum();
    let denom = total_a.max(total_b);
    if denom == 0 {
        return 0.0;
    }
    inter as f64 / denom as f64
}

/// Infers the obfuscated→reference map for bundled library classes whose
/// names do not already match a reference class.
pub fn infer_library_map(apk: &Apk, reference: &[Class]) -> LibraryMap {
    let ref_names: HashMap<&str, &Class> = reference.iter().map(|c| (c.name.as_str(), c)).collect();

    // Type colors (level-0 canonical shapes) for both sides.
    let ref_colors: HashMap<&str, String> =
        reference.iter().map(|c| (c.name.as_str(), canon(&shape_multiset(c)))).collect();
    let obf_colors: HashMap<&str, String> = apk
        .classes
        .iter()
        .filter(|c| c.is_library)
        .map(|c| (c.name.as_str(), canon(&shape_multiset(c))))
        .collect();
    let ref_refined: Vec<(&Class, BTreeMap<String, usize>)> =
        reference.iter().map(|c| (c, refined_multiset(c, &ref_colors))).collect();

    let mut map = LibraryMap::default();
    for c in &apk.classes {
        if !c.is_library || ref_names.contains_key(c.name.as_str()) {
            continue;
        }
        let shapes = refined_multiset(c, &obf_colors);
        let mut scored: Vec<(&Class, f64)> =
            ref_refined.iter().map(|(rc, rs)| (*rc, overlap_score(&shapes, rs))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let Some(&(rc, score)) = scored.first() else { continue };
        // An inaccurate mapping is worse than none (the analysis then
        // degrades to wildcards, §3.4): require a clear, unambiguous win.
        if score < MIN_SCORE {
            continue;
        }
        if let Some(&(_, second)) = scored.get(1) {
            if (score - second).abs() < 1e-9 {
                continue; // structural twins (e.g. two callback-style clients)
            }
        }
        map.classes.insert(c.name.clone(), rc.name.clone());
    }

    // Anchor propagation: matched classes pin the identity of the classes
    // their method signatures reference (e.g. `Response.body()` returning
    // the obfuscated `ResponseBody`), resolving classes whose own shape is
    // too generic to match — to a fixpoint.
    let obf_by_name: HashMap<&str, &Class> =
        apk.classes.iter().filter(|c| c.is_library).map(|c| (c.name.as_str(), c)).collect();
    loop {
        let mut added: Vec<(String, String)> = Vec::new();
        for (obf_name, ref_name) in &map.classes {
            let (Some(c), Some(rc)) =
                (obf_by_name.get(obf_name.as_str()), ref_names.get(ref_name.as_str()))
            else {
                continue;
            };
            for (m, rm) in align_methods(c, rc, &obf_colors, &ref_colors) {
                let pairs =
                    m.params.iter().zip(&rm.params).chain(std::iter::once((&m.ret, &rm.ret)));
                for (ot, rt) in pairs {
                    if let (Some(on), Some(rn)) = (ot.class_name(), rt.class_name()) {
                        if obf_by_name.contains_key(on)
                            && ref_names.contains_key(rn)
                            && on != rn
                            && !map.classes.contains_key(on)
                            && !added.iter().any(|(a, _)| a == on)
                        {
                            added.push((on.to_string(), rn.to_string()));
                        }
                    }
                }
            }
        }
        if added.is_empty() {
            break;
        }
        for (o, r) in added {
            map.classes.insert(o, r);
        }
    }

    // Method-level mapping for every matched class.
    for (obf_name, ref_name) in map.classes.clone() {
        let (Some(c), Some(rc)) =
            (obf_by_name.get(obf_name.as_str()), ref_names.get(ref_name.as_str()))
        else {
            continue;
        };
        for (m, rm) in align_methods(c, rc, &obf_colors, &ref_colors) {
            if m.name.starts_with('<') {
                continue; // constructors keep their names
            }
            map.methods.insert((obf_name.clone(), m.name.clone(), m.params.len()), rm.name.clone());
        }
    }
    map
}

/// Aligns an obfuscated class's methods with a reference class's by
/// refined shape, declaration order within a shape group.
fn align_methods<'a>(
    c: &'a Class,
    rc: &'a Class,
    obf_colors: &HashMap<&str, String>,
    ref_colors: &HashMap<&str, String>,
) -> Vec<(&'a extractocol_ir::Method, &'a extractocol_ir::Method)> {
    let mut ref_by_shape: HashMap<String, Vec<&extractocol_ir::Method>> = HashMap::new();
    for m in &rc.methods {
        ref_by_shape.entry(refined_shape(m, ref_colors)).or_default().push(m);
    }
    let mut used: HashMap<String, usize> = HashMap::new();
    let mut out = Vec::new();
    for m in &c.methods {
        let sh = refined_shape(m, obf_colors);
        if let Some(cands) = ref_by_shape.get(&sh) {
            let idx = used.entry(sh).or_insert(0);
            if let Some(rm) = cands.get(*idx) {
                out.push((m, *rm));
                *idx += 1;
            }
        }
    }
    out
}

/// Rewrites the APK so inferred library classes/methods carry their
/// canonical names again; the analysis then proceeds unchanged. An empty
/// map — libraries left unobfuscated, the common case — lends the input
/// back ([`Cow::Borrowed`]) instead of copying it; only a real rename
/// builds a new APK ([`Cow::Owned`]).
pub fn deobfuscate<'a>(apk: &'a Apk, map: &LibraryMap) -> Cow<'a, Apk> {
    if map.is_empty() {
        return Cow::Borrowed(apk);
    }
    let om = ObfuscationMap {
        classes: map.classes.clone(),
        methods: map.methods.clone(),
        fields: BTreeMap::new(),
    };
    Cow::Owned(apply_map(apk, &om))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stubs;
    use extractocol_ir::obfuscate::{obfuscate, ObfuscationOptions};
    use extractocol_ir::{ApkBuilder, Type};

    #[test]
    fn recovers_obfuscated_okhttp_names() {
        // Build an app with library stubs, obfuscate *including* the
        // libraries, then infer the map back.
        let mut b = ApkBuilder::new("t", "t");
        stubs::install(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.C");
                let builder = m.new_obj("okhttp3.Request$Builder", vec![]);
                m.vcall_void(
                    builder,
                    "okhttp3.Request$Builder",
                    "url",
                    vec![extractocol_ir::Value::str("http://x/")],
                );
                m.ret_void();
            });
        });
        let apk = b.build();
        let (obf, omap) = obfuscate(
            &apk,
            &ObfuscationOptions { obfuscate_libraries: true, extra_keep_prefixes: vec![] },
        );
        // The builder class was renamed.
        let obf_builder = omap.classes.get("okhttp3.Request$Builder").expect("renamed");
        assert!(obf.class(obf_builder).is_some());

        let inferred = infer_library_map(&obf, stubs::library_reference());
        assert_eq!(
            inferred.classes.get(obf_builder).map(String::as_str),
            Some("okhttp3.Request$Builder"),
            "inferred: {:?}",
            inferred.classes
        );
        // And applying it restores analyzable names, in a new APK.
        let recovered = deobfuscate(&obf, &inferred);
        assert!(matches!(recovered, Cow::Owned(_)), "a rename builds a new APK");
        let rb = recovered.class("okhttp3.Request$Builder").expect("class back");
        assert!(rb.method("url", 1).is_some() || !inferred.methods.is_empty());
    }

    #[test]
    fn unobfuscated_apps_yield_empty_map() {
        let mut b = ApkBuilder::new("t", "t");
        stubs::install(&mut b);
        let apk = b.build();
        let map = infer_library_map(&apk, stubs::library_reference());
        assert!(map.is_empty());
        // deobfuscate is then the identity, and lends the input back.
        let out = deobfuscate(&apk, &map);
        assert!(matches!(out, Cow::Borrowed(a) if std::ptr::eq(a, &apk)), "no copy");
        assert_eq!(*out, apk);
    }
}
