//! Class-hierarchy-analysis (CHA) call graph over explicit call sites,
//! plus the implicit edges materialized from the [`CallbackRegistry`].
//!
//! Soot's SPARK/CHA layer plays this role in the original system \[60\]. The
//! call graph serves two consumers: the taint engine (to step into callees
//! and back) and the slicer (to bound the code reachable from demarcation
//! points).

use crate::callbacks::{CallbackRegistry, ImplicitEdge};
use crate::pointsto::PointsTo;
use extractocol_ir::hash::{IdMap, IdSet};
use extractocol_ir::{CallKind, CalleeId, MethodId, ProgramIndex, Value};
use std::collections::HashSet;

/// A call site: `(containing method, statement index)`.
pub type CallSite = (MethodId, usize);

/// The whole-program call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Explicit targets (concrete methods only) per call site.
    pub targets: IdMap<CallSite, Vec<MethodId>>,
    /// Resolved-but-bodyless targets per call site: dispatch lands in a
    /// platform/library stub, so the edge is owed to an API model rather
    /// than the graph. Recorded (instead of silently dropped) so the
    /// diagnostics pass can count model-coverage gaps.
    pub unresolved: IdMap<CallSite, Vec<MethodId>>,
    /// Implicit callback edges per call site.
    pub implicit: IdMap<CallSite, Vec<ImplicitEdge>>,
    /// Reverse edges: callee → explicit call sites invoking it.
    pub callers: IdMap<MethodId, Vec<CallSite>>,
    /// Virtual/interface sites whose targets came from the receiver's
    /// points-to set (only populated by [`CallGraph::build_with_pointsto`]).
    pub devirtualized: IdSet<CallSite>,
}

/// What a callee resolves to wherever it is called, computed on its first
/// call site: the CHA target list of a virtual call and the implicit
/// callback edges.
#[derive(Default)]
struct CalleeTargets {
    /// The static target, then every subtype's declaration, deduplicated.
    cha: Option<Vec<MethodId>>,
    implicit: Option<Vec<ImplicitEdge>>,
}

impl CallGraph {
    /// Builds the call graph for the whole program.
    ///
    /// Virtual/interface sites resolve to the statically-typed receiver
    /// class's implementation (if concrete) plus every overriding subtype
    /// implementation — plain CHA. Static/special sites resolve directly.
    /// Bodyless targets (platform/library stubs) are *not* edges — they are
    /// handled by the taint engine's API model — but are recorded in
    /// [`CallGraph::unresolved`] for the diagnostics pass.
    pub fn build(prog: &ProgramIndex<'_>, registry: &CallbackRegistry) -> CallGraph {
        Self::build_inner(prog, registry, None)
    }

    /// Builds the call graph with on-the-fly devirtualization: a
    /// virtual/interface site whose receiver has a non-empty points-to set
    /// resolves against the *allocated* classes only, shedding the CHA
    /// subtype cone. Sites with an empty set (receivers fed by modeled
    /// APIs or unanalyzed contexts) fall back to CHA. The per-class
    /// dispatch answers are the solver's own ([`PointsTo::dispatch`]), so
    /// the graph and the points-to sets agree by construction.
    pub fn build_with_pointsto(
        prog: &ProgramIndex<'_>,
        registry: &CallbackRegistry,
        pts: &PointsTo,
    ) -> CallGraph {
        Self::build_inner(prog, registry, Some(pts))
    }

    fn build_inner(
        prog: &ProgramIndex<'_>,
        registry: &CallbackRegistry,
        pts: Option<&PointsTo>,
    ) -> CallGraph {
        let mut g = CallGraph::default();
        let mut per_callee: Vec<CalleeTargets> = Vec::new();
        per_callee.resize_with(prog.callee_count(), CalleeTargets::default);
        for mid in prog.concrete_methods() {
            let body = &prog.method(mid).body;
            for (si, stmt) in body.iter().enumerate() {
                let Some(call) = stmt.call() else { continue };
                let callee = prog.callee_at(mid, si).expect("a call statement has a callee id");
                let known = &mut per_callee[callee.0 as usize];
                let site: CallSite = (mid, si);
                let mut targets: Vec<MethodId> = Vec::new();
                let mut stubs: Vec<MethodId> = Vec::new();
                let mut push = |t: MethodId| {
                    let bucket = if prog.method(t).has_body { &mut targets } else { &mut stubs };
                    if !bucket.contains(&t) {
                        bucket.push(t);
                    }
                };
                match call.kind {
                    CallKind::Static | CallKind::Special => {
                        if let Some(t) = prog.static_target(callee) {
                            push(t);
                        }
                    }
                    CallKind::Virtual | CallKind::Interface => {
                        let devirt = pts.and_then(|p| {
                            devirtualize(prog, p, mid, call, callee).filter(|v| !v.is_empty())
                        });
                        if let Some(resolved) = devirt {
                            for t in resolved {
                                push(t);
                            }
                            g.devirtualized.insert(site);
                        } else {
                            let cha = known.cha.get_or_insert_with(|| cha_targets(prog, callee));
                            for &t in cha.iter() {
                                push(t);
                            }
                        }
                    }
                }
                let implicit =
                    known.implicit.get_or_insert_with(|| registry.implicit_edges(prog, call));
                for t in &targets {
                    g.callers.entry(*t).or_default().push(site);
                }
                for e in implicit.iter() {
                    g.callers.entry(e.target).or_default().push(site);
                }
                if !targets.is_empty() {
                    g.targets.insert(site, targets);
                }
                if !stubs.is_empty() {
                    g.unresolved.insert(site, stubs);
                }
                if !implicit.is_empty() {
                    g.implicit.insert(site, implicit.clone());
                }
            }
        }
        g
    }

    /// Explicit targets of a call site (empty slice when unresolved or
    /// library-modelled).
    pub fn targets_of(&self, site: CallSite) -> &[MethodId] {
        self.targets.get(&site).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolved-but-bodyless targets of a call site.
    pub fn unresolved_of(&self, site: CallSite) -> &[MethodId] {
        self.unresolved.get(&site).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total explicit targets across all sites — the precision figure the
    /// CHA-vs-PTA ablation compares (devirtualization can only shrink it).
    pub fn total_explicit_targets(&self) -> usize {
        self.targets.values().map(Vec::len).sum()
    }

    /// Implicit callback edges of a call site.
    pub fn implicit_of(&self, site: CallSite) -> &[ImplicitEdge] {
        self.implicit.get(&site).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All methods transitively reachable from the given roots through
    /// explicit and implicit edges (including the roots).
    pub fn reachable(&self, prog: &ProgramIndex<'_>, roots: &[MethodId]) -> HashSet<MethodId> {
        let mut seen: HashSet<MethodId> = HashSet::new();
        let mut stack: Vec<MethodId> = roots.to_vec();
        while let Some(m) = stack.pop() {
            if !seen.insert(m) {
                continue;
            }
            let body = &prog.method(m).body;
            for si in 0..body.len() {
                for &t in self.targets_of((m, si)) {
                    stack.push(t);
                }
                for e in self.implicit_of((m, si)) {
                    stack.push(e.target);
                    if let Some((c, _)) = e.chains_to {
                        stack.push(c);
                    }
                }
            }
        }
        seen
    }
}

/// The CHA targets of a virtual call: the static target, then each
/// subtype's own declaration, in [`ProgramIndex::all_subtypes`] order.
fn cha_targets(prog: &ProgramIndex<'_>, callee: CalleeId) -> Vec<MethodId> {
    let r = prog.callee(callee);
    let mut out: Vec<MethodId> = prog.static_target(callee).into_iter().collect();
    for sub in prog.all_subtypes(&r.class) {
        if let Some(t) = prog.declared_method(sub, &r.name, r.params.len()) {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    out
}

/// Resolves a virtual/interface call against the receiver's points-to set:
/// one dispatch per allocated class, in allocation order. Returns `None`
/// when the receiver is not a local or its set is empty (CHA fallback).
fn devirtualize(
    prog: &ProgramIndex<'_>,
    pts: &PointsTo,
    mid: MethodId,
    call: &extractocol_ir::Call,
    callee: CalleeId,
) -> Option<Vec<MethodId>> {
    let recv = call.receiver.as_ref().and_then(Value::as_local)?;
    let set = pts.local_pts(mid, recv);
    if set.is_empty() {
        return None;
    }
    let mut out = Vec::new();
    for &a in set {
        // Arrays and classes outside the program dispatch nowhere.
        let Some(class) = pts.alloc_class(a) else { continue };
        if let Some(t) = pts.dispatch(prog, class, callee) {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_ir::{ApkBuilder, Type};

    fn diamond_apk() -> extractocol_ir::Apk {
        let mut b = ApkBuilder::new("t", "t");
        b.iface("t.I", |c| {
            c.stub_method("work", vec![], Type::Void);
        });
        b.class("t.A", |c| {
            c.implements("t.I");
            c.method("work", vec![], Type::Void, |m| {
                m.recv("t.A");
                m.ret_void();
            });
        });
        b.class("t.B", |c| {
            c.implements("t.I");
            c.method("work", vec![], Type::Void, |m| {
                m.recv("t.B");
                m.ret_void();
            });
        });
        b.class("t.Main", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.Main");
                let a = m.new_obj("t.A", vec![]);
                // Interface-typed call: CHA sees both implementations.
                let i = m.temp(Type::object("t.I"));
                m.copy(i, a);
                m.icall(i, "t.I", "work", vec![], Type::Void);
                m.ret_void();
            });
            c.static_method("util", vec![], Type::Void, |m| {
                m.scall_void("t.Main", "util2", vec![]);
                m.ret_void();
            });
            c.static_method("util2", vec![], Type::Void, |m| {
                m.ret_void();
            });
        });
        b.build()
    }

    #[test]
    fn cha_resolves_interface_calls_to_all_impls() {
        let apk = diamond_apk();
        let prog = ProgramIndex::new(&apk);
        let g = CallGraph::build(&prog, &CallbackRegistry::empty());
        let main = prog.resolve_method("t.Main", "go", 0).unwrap();
        // find the interface call site
        let site = prog
            .method(main)
            .body
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.call().filter(|c| c.callee.name == "work").map(|_| (main, i)))
            .unwrap();
        let mut names: Vec<String> =
            g.targets_of(site).iter().map(|t| prog.class(t.class).name.clone()).collect();
        names.sort();
        assert_eq!(names, vec!["t.A", "t.B"]);
    }

    #[test]
    fn static_calls_resolve_directly_and_reachability_works() {
        let apk = diamond_apk();
        let prog = ProgramIndex::new(&apk);
        let g = CallGraph::build(&prog, &CallbackRegistry::empty());
        let util = prog.resolve_method("t.Main", "util", 0).unwrap();
        let util2 = prog.resolve_method("t.Main", "util2", 0).unwrap();
        let reach = g.reachable(&prog, &[util]);
        assert!(reach.contains(&util2));
        assert!(!reach.contains(&prog.resolve_method("t.A", "work", 0).unwrap()));
        // callers recorded
        assert_eq!(g.callers[&util2].len(), 1);
    }

    #[test]
    fn pointsto_devirtualizes_interface_call_to_one_target() {
        let apk = diamond_apk();
        let prog = ProgramIndex::new(&apk);
        let cha = CallGraph::build(&prog, &CallbackRegistry::empty());
        let pts = PointsTo::solve(&crate::MethodTable::new(&prog));
        let pta = CallGraph::build_with_pointsto(&prog, &CallbackRegistry::empty(), &pts);
        let main = prog.resolve_method("t.Main", "go", 0).unwrap();
        let site = prog
            .method(main)
            .body
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.call().filter(|c| c.callee.name == "work").map(|_| (main, i)))
            .unwrap();
        assert_eq!(cha.targets_of(site).len(), 2, "CHA sees both implementations");
        let names: Vec<String> =
            pta.targets_of(site).iter().map(|t| prog.class(t.class).name.clone()).collect();
        assert_eq!(names, vec!["t.A"], "the receiver only ever holds a t.A");
        assert!(pta.devirtualized.contains(&site));
        assert!(pta.total_explicit_targets() < cha.total_explicit_targets());
    }

    #[test]
    fn bodyless_targets_land_in_unresolved_not_dropped() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.Stubby", |c| {
            c.stub_method("api", vec![], Type::Void);
        });
        b.class("t.Main", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.Main");
                let s = m.new_obj("t.Stubby", vec![]);
                m.vcall_void(s, "t.Stubby", "api", vec![]);
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let g = CallGraph::build(&prog, &CallbackRegistry::empty());
        let main = prog.resolve_method("t.Main", "go", 0).unwrap();
        let site = prog
            .method(main)
            .body
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.call().filter(|c| c.callee.name == "api").map(|_| (main, i)))
            .unwrap();
        assert!(g.targets_of(site).is_empty(), "stub is not a taint edge");
        let stubs: Vec<String> =
            g.unresolved_of(site).iter().map(|t| prog.method_display(*t)).collect();
        assert_eq!(stubs.len(), 1, "but the resolution is recorded: {stubs:?}");
    }
}
