//! The id-based dispatch tables against the by-name resolvers they
//! replace. At every call statement of every corpus app — as shipped,
//! with its app code renamed, and with its libraries renamed and then
//! mapped back by the §3.4 de-obfuscator — the callee id's static target,
//! the CHA graph's targets, the implicit edges and the points-to
//! dispatch must equal what a walk over class *names* gives. The walks
//! below are the name-keyed algorithms `ProgramIndex` used before it
//! stored the hierarchy as ids; they are the oracle.
//!
//! The last check pins the invariant that lets the taint engine step into
//! `CallGraph::targets_of` directly: re-narrowing a points-to graph's
//! targets by the receiver's classes never removes one.

use extractocol_analysis::{CallGraph, CallbackRegistry, MethodTable, PointsTo};
use extractocol_core::deobf;
use extractocol_core::stubs;
use extractocol_ir::obfuscate::{obfuscate, ObfuscationOptions};
use extractocol_ir::{Apk, Call, CallKind, ClassId, MethodId, ProgramIndex, Value};

/// Method resolution up the superclass chain, one name lookup per level.
fn resolve_by_name(
    prog: &ProgramIndex<'_>,
    class: &str,
    name: &str,
    arity: usize,
) -> Option<MethodId> {
    let mut cur = prog.class_id(class);
    while let Some(cid) = cur {
        if let Some(mid) = prog.declared_method(cid, name, arity) {
            return Some(mid);
        }
        cur = prog.class(cid).superclass.as_deref().and_then(|s| prog.class_id(s));
    }
    None
}

/// Subtyping through superclass and interface names.
fn is_subtype_by_name(prog: &ProgramIndex<'_>, sub: &str, sup: &str) -> bool {
    if sub == sup {
        return true;
    }
    let Some(mut cur) = prog.class_id(sub) else { return false };
    loop {
        let c = prog.class(cur);
        if c.interfaces.iter().any(|i| is_subtype_by_name(prog, i, sup)) {
            return true;
        }
        match c.superclass.as_deref() {
            Some(s) if s == sup => return true,
            Some(s) => match prog.class_id(s) {
                Some(id) => cur = id,
                None => return false,
            },
            None => return false,
        }
    }
}

/// The CHA subtype cone, walking direct subtypes by class name.
fn subtypes_by_name(prog: &ProgramIndex<'_>, name: &str) -> Vec<ClassId> {
    let mut out = Vec::new();
    let mut stack: Vec<ClassId> = prog.direct_subtypes(name).to_vec();
    while let Some(id) = stack.pop() {
        if out.contains(&id) {
            continue;
        }
        out.push(id);
        stack.extend_from_slice(prog.direct_subtypes(&prog.class(id).name));
    }
    out
}

/// `(concrete, bodyless)` targets of `candidates`, each deduplicated in
/// order — the split `CallGraph` makes.
fn split(prog: &ProgramIndex<'_>, candidates: &[MethodId]) -> (Vec<MethodId>, Vec<MethodId>) {
    let (mut concrete, mut stubs) = (Vec::new(), Vec::new());
    for &t in candidates {
        let bucket = if prog.method(t).has_body { &mut concrete } else { &mut stubs };
        if !bucket.contains(&t) {
            bucket.push(t);
        }
    }
    (concrete, stubs)
}

/// Dispatch of an object of `class` at `call`, by name.
fn dispatch_by_name(prog: &ProgramIndex<'_>, class: &str, call: &Call) -> Option<MethodId> {
    let c = &call.callee;
    is_subtype_by_name(prog, class, &c.class)
        .then(|| resolve_by_name(prog, class, &c.name, c.params.len()))
        .flatten()
}

#[derive(Default)]
struct Counts {
    calls: usize,
    virtual_sites: usize,
    implicit_sites: usize,
    dispatch_pairs: usize,
    devirtualized: usize,
}

fn check(label: &str, apk: &Apk, counts: &mut Counts, bad: &mut Vec<String>) {
    let prog = ProgramIndex::new(apk);
    let registry = CallbackRegistry::android_defaults();
    let methods = MethodTable::new(&prog);
    let pts = PointsTo::solve(&methods);
    let cha = CallGraph::build(&prog, &registry);
    let pta = CallGraph::build_with_pointsto(&prog, &registry, &pts);
    counts.devirtualized += pta.devirtualized.len();
    let mut fail = |what: &str, mid: MethodId, si: usize, call: &Call| {
        bad.push(format!(
            "{label}: {} stmt {si}: {what} differs for {}",
            prog.method_display(mid),
            call.callee.qualified()
        ));
    };
    for mid in prog.methods() {
        let concrete = prog.method(mid).has_body;
        for (si, stmt) in prog.method(mid).body.iter().enumerate() {
            let Some(call) = stmt.call() else { continue };
            counts.calls += 1;
            let c = &call.callee;
            let id = prog.callee_at(mid, si).expect("every call statement has a callee id");
            let by_name = resolve_by_name(&prog, &c.class, &c.name, c.params.len());
            if prog.callee(id) != c || prog.static_target(id) != by_name {
                fail("static target", mid, si, call);
            }
            if !concrete {
                continue;
            }
            let site = (mid, si);
            let implicit = registry.implicit_edges(&prog, call);
            counts.implicit_sites += usize::from(!implicit.is_empty());
            if cha.implicit_of(site) != implicit || pta.implicit_of(site) != implicit {
                fail("implicit edges", mid, si, call);
            }

            let virtual_site = matches!(call.kind, CallKind::Virtual | CallKind::Interface);
            let mut cha_candidates: Vec<MethodId> = by_name.into_iter().collect();
            if virtual_site {
                counts.virtual_sites += 1;
                for sub in subtypes_by_name(&prog, &c.class) {
                    cha_candidates.extend(prog.declared_method(sub, &c.name, c.params.len()));
                }
            }
            let (targets, stubs) = split(&prog, &cha_candidates);
            if cha.targets_of(site) != targets || cha.unresolved_of(site) != stubs {
                fail("CHA targets", mid, si, call);
            }
            if !virtual_site {
                continue;
            }

            // Devirtualization as the graph used to do it: one by-name
            // dispatch per class the receiver may hold, in allocation
            // order, falling back to CHA when that finds nothing.
            let recv = call.receiver.as_ref().and_then(Value::as_local);
            let classes = recv.map(|r| pts.classes_of(mid, r)).unwrap_or_default();
            let mut devirt = Vec::new();
            for class in &classes {
                if let Some(t) = dispatch_by_name(&prog, class, call) {
                    if !devirt.contains(&t) {
                        devirt.push(t);
                    }
                }
            }
            let (targets, stubs) =
                if devirt.is_empty() { (targets, stubs) } else { split(&prog, &devirt) };
            if pta.targets_of(site) != targets || pta.unresolved_of(site) != stubs {
                fail("points-to targets", mid, si, call);
            }

            // Every (allocated class, declared class) pair the solver
            // meets at this site: id-based subtyping and dispatch agree
            // with the names.
            for &a in recv.map(|r| pts.local_pts(mid, r)).unwrap_or_default() {
                let Some(class) = pts.alloc_class(a) else { continue };
                counts.dispatch_pairs += 1;
                let name = &prog.class(class).name;
                if prog.class_is_subtype(class, &c.class)
                    != is_subtype_by_name(&prog, name, &c.class)
                    || pts.dispatch(&prog, class, id) != dispatch_by_name(&prog, name, call)
                {
                    fail("dispatch of an allocated class", mid, si, call);
                }
            }

            // The taint engine's former per-visit narrowing: keep the
            // graph's targets that some receiver class dispatches to,
            // unless no class dispatches anywhere.
            let graph_targets = pta.targets_of(site);
            let allowed: Vec<MethodId> =
                classes.iter().filter_map(|class| dispatch_by_name(&prog, class, call)).collect();
            let narrowed: Vec<MethodId> = if allowed.is_empty() {
                graph_targets.to_vec()
            } else {
                graph_targets.iter().copied().filter(|t| allowed.contains(t)).collect()
            };
            if narrowed != graph_targets {
                fail("narrowed targets", mid, si, call);
            }
        }
    }
}

#[test]
fn id_tables_match_the_by_name_resolvers_at_every_corpus_call() {
    let reference = stubs::library_reference();
    let rename_libraries =
        ObfuscationOptions { obfuscate_libraries: true, extra_keep_prefixes: vec![] };
    let mut bad = Vec::new();
    let mut counts = Counts::default();
    for app in extractocol_corpus::all_apps() {
        let name = &app.truth.name;
        let (renamed, _) = obfuscate(&app.apk, &ObfuscationOptions::default());
        let (lib_renamed, _) = obfuscate(&app.apk, &rename_libraries);
        let map = deobf::infer_library_map(&lib_renamed, reference);
        let mapped_back = deobf::deobfuscate(&lib_renamed, &map);
        for (label, apk) in
            [("plain", &app.apk), ("obfuscated", &renamed), ("deobfuscated", &*mapped_back)]
        {
            check(&format!("{name} ({label})"), apk, &mut counts, &mut bad);
        }
    }
    bad.truncate(50);
    assert!(bad.is_empty(), "id tables differ from the by-name resolvers:\n{}", bad.join("\n"));
    // The comparison covers real work on every path.
    let Counts { calls, virtual_sites, implicit_sites, dispatch_pairs, devirtualized } = counts;
    assert!(
        calls > 100_000
            && virtual_sites > 10_000
            && implicit_sites > 0
            && dispatch_pairs > 10_000
            && devirtualized > 1_000,
        "{calls} calls, {virtual_sites} virtual sites, {implicit_sites} implicit-edge sites, \
         {dispatch_pairs} dispatch pairs, {devirtualized} devirtualized sites"
    );
}
