//! An indexed view over an [`Apk`]: stable class/method identifiers, name
//! lookup, and class-hierarchy queries (the substrate for CHA call-graph
//! construction in the analysis crate).

use crate::apk::Apk;
use crate::class::{Class, Method};
use crate::values::MethodRef;
use std::collections::HashMap;

/// Index of a class within the APK's class table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Index of a method: `(class, method-within-class)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId {
    pub class: ClassId,
    pub method: u32,
}

/// Dense id of one distinct callee [`MethodRef`] (class, name, parameter
/// and return types) named by some call statement of the program, in
/// first-occurrence order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CalleeId(pub u32);

/// A superclass or interface edge: the program's class of that name, or
/// the bare name of a type outside the program.
#[derive(Clone, Copy, Debug)]
enum Parent<'a> {
    In(ClassId),
    Out(&'a str),
}

/// `call_ids` entry of a statement that is not a call.
const NO_CALL: u32 = u32::MAX;

/// An indexed, read-only view over an [`Apk`].
///
/// Built once per analysis run; all analyses address code through
/// [`MethodId`]s obtained here. Names are hashed once, on the way in: the
/// hierarchy is stored as [`ClassId`] edges, every method has a dense
/// index, and every call statement carries the [`CalleeId`] of its
/// callee, whose static target is resolved here once.
pub struct ProgramIndex<'a> {
    apk: &'a Apk,
    by_name: HashMap<&'a str, ClassId>,
    /// Direct subclasses / implementors per class name.
    children: HashMap<&'a str, Vec<ClassId>>,
    /// Per class: the class [`ProgramIndex::class_id`] gives for its name
    /// (differs from the class itself only for a duplicate name).
    canon: Vec<ClassId>,
    /// Direct subclasses / implementors per canonical class.
    kids: Vec<Vec<ClassId>>,
    /// Per class: its superclass edge.
    supers: Vec<Option<Parent<'a>>>,
    /// Per class: its interface edges.
    interfaces: Vec<Vec<Parent<'a>>>,
    /// Per class: the dense index of its first method (one extra entry
    /// holds the method count).
    method_base: Vec<u32>,
    /// Per dense method index: the offset of its first statement in
    /// `call_ids` (one extra entry holds the statement count).
    stmt_base: Vec<u32>,
    /// Per statement: its callee id, or [`NO_CALL`].
    call_ids: Vec<u32>,
    callees: Vec<&'a MethodRef>,
    /// Per callee: [`ProgramIndex::resolve_method`] of its static class.
    static_targets: Vec<Option<MethodId>>,
}

impl<'a> ProgramIndex<'a> {
    /// Indexes the APK. Duplicate class names keep the first occurrence
    /// (matching dexer behavior for duplicate-in classpath).
    pub fn new(apk: &'a Apk) -> ProgramIndex<'a> {
        let n = apk.classes.len();
        let mut by_name = HashMap::with_capacity(n);
        let mut children: HashMap<&'a str, Vec<ClassId>> = HashMap::new();
        let mut canon = Vec::with_capacity(n);
        for (i, c) in apk.classes.iter().enumerate() {
            let id = ClassId(i as u32);
            canon.push(*by_name.entry(c.name.as_str()).or_insert(id));
            if let Some(sup) = &c.superclass {
                children.entry(sup.as_str()).or_default().push(id);
            }
            for itf in &c.interfaces {
                children.entry(itf.as_str()).or_default().push(id);
            }
        }
        let parent = |name: &'a str| match by_name.get(name) {
            Some(&id) => Parent::In(id),
            None => Parent::Out(name),
        };
        let mut kids = vec![Vec::new(); n];
        let mut supers = Vec::with_capacity(n);
        let mut interfaces = Vec::with_capacity(n);
        for (i, c) in apk.classes.iter().enumerate() {
            let sup = c.superclass.as_deref().map(parent);
            let itfs: Vec<Parent<'a>> = c.interfaces.iter().map(|s| parent(s)).collect();
            for p in sup.iter().chain(&itfs) {
                if let Parent::In(p) = p {
                    kids[p.0 as usize].push(ClassId(i as u32));
                }
            }
            supers.push(sup);
            interfaces.push(itfs);
        }

        let mut method_base = Vec::with_capacity(n + 1);
        let mut stmt_base = Vec::new();
        let mut call_ids = Vec::new();
        // Keyed by names from the analysed APK, so under std's hasher.
        let mut callee_ids: HashMap<&'a MethodRef, CalleeId> = HashMap::new();
        let mut callees = Vec::new();
        for c in &apk.classes {
            method_base.push(stmt_base.len() as u32);
            for m in &c.methods {
                stmt_base.push(call_ids.len() as u32);
                for stmt in &m.body {
                    let Some(call) = stmt.call() else {
                        call_ids.push(NO_CALL);
                        continue;
                    };
                    let id = *callee_ids.entry(&call.callee).or_insert_with(|| {
                        callees.push(&call.callee);
                        CalleeId(callees.len() as u32 - 1)
                    });
                    call_ids.push(id.0);
                }
            }
        }
        method_base.push(stmt_base.len() as u32);
        stmt_base.push(call_ids.len() as u32);

        let mut prog = ProgramIndex {
            apk,
            by_name,
            children,
            canon,
            kids,
            supers,
            interfaces,
            method_base,
            stmt_base,
            call_ids,
            callees,
            static_targets: Vec::new(),
        };
        prog.static_targets = prog
            .callees
            .iter()
            .map(|c| prog.resolve_method(&c.class, &c.name, c.params.len()))
            .collect();
        prog
    }

    /// The underlying APK.
    pub fn apk(&self) -> &'a Apk {
        self.apk
    }

    /// Resolves a class name to its id.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// The class for an id.
    pub fn class(&self, id: ClassId) -> &'a Class {
        &self.apk.classes[id.0 as usize]
    }

    /// The method for an id.
    pub fn method(&self, id: MethodId) -> &'a Method {
        &self.class(id.class).methods[id.method as usize]
    }

    /// Number of methods in the program, concrete or not.
    pub fn method_count(&self) -> usize {
        self.stmt_base.len() - 1
    }

    /// The dense index of a method, in `0..method_count()` and in
    /// [`ProgramIndex::methods`] order.
    pub fn method_index(&self, id: MethodId) -> usize {
        (self.method_base[id.class.0 as usize] + id.method) as usize
    }

    /// Iterates over all `(ClassId, &Class)` pairs.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &'a Class)> + '_ {
        self.apk.classes.iter().enumerate().map(|(i, c)| (ClassId(i as u32), c))
    }

    /// Iterates over every method id in the program.
    pub fn methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.classes().flat_map(|(cid, c)| {
            (0..c.methods.len() as u32).map(move |m| MethodId { class: cid, method: m })
        })
    }

    /// Iterates over every method with a concrete body.
    pub fn concrete_methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.methods().filter(|id| self.method(*id).has_body)
    }

    /// Number of distinct callees.
    pub fn callee_count(&self) -> usize {
        self.callees.len()
    }

    /// The callee behind an id.
    pub fn callee(&self, id: CalleeId) -> &'a MethodRef {
        self.callees[id.0 as usize]
    }

    /// The callee id of statement `stmt` of `method`, or `None` when that
    /// statement is not a call.
    pub fn callee_at(&self, method: MethodId, stmt: usize) -> Option<CalleeId> {
        let i = self.stmt_base[self.method_index(method)] as usize + stmt;
        Some(self.call_ids[i]).filter(|&c| c != NO_CALL).map(CalleeId)
    }

    /// The statically resolved target of a callee:
    /// [`ProgramIndex::resolve_method`] of its class, name and arity.
    pub fn static_target(&self, id: CalleeId) -> Option<MethodId> {
        self.static_targets[id.0 as usize]
    }

    /// Finds the declared method `name/arity` in `class` without walking the
    /// hierarchy.
    pub fn declared_method(&self, class: ClassId, name: &str, arity: usize) -> Option<MethodId> {
        self.class(class)
            .methods
            .iter()
            .position(|m| m.name == name && m.params.len() == arity)
            .map(|m| MethodId { class, method: m as u32 })
    }

    /// Resolves `name/arity` starting at `class` and walking up the
    /// superclass chain (Java virtual-dispatch resolution for the static
    /// type).
    pub fn resolve_method(&self, class: &str, name: &str, arity: usize) -> Option<MethodId> {
        self.resolve_in(self.class_id(class)?, name, arity)
    }

    /// [`ProgramIndex::resolve_method`] from a class id.
    pub fn resolve_in(&self, class: ClassId, name: &str, arity: usize) -> Option<MethodId> {
        let mut cur = class;
        loop {
            if let Some(mid) = self.declared_method(cur, name, arity) {
                return Some(mid);
            }
            match self.supers[cur.0 as usize] {
                Some(Parent::In(s)) => cur = s,
                _ => return None,
            }
        }
    }

    /// Direct subclasses (and implementors) of the named class/interface.
    pub fn direct_subtypes(&self, name: &str) -> &[ClassId] {
        self.children.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All transitive subtypes of the named class/interface, excluding the
    /// class itself, in depth-first discovery order. This is the cone used
    /// by CHA to resolve virtual calls.
    pub fn all_subtypes(&self, name: &str) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.canon.len()];
        let mut stack: Vec<ClassId> = self.direct_subtypes(name).to_vec();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0 as usize], true) {
                continue;
            }
            out.push(id);
            stack.extend_from_slice(&self.kids[self.canon[id.0 as usize].0 as usize]);
        }
        out
    }

    /// True if `sub` names the same type as `sup` or a transitive subtype of
    /// it (through superclasses and interfaces).
    pub fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        sub == sup || self.class_id(sub).is_some_and(|s| self.class_is_subtype(s, sup))
    }

    /// [`ProgramIndex::is_subtype`] for a class id as given by
    /// [`ProgramIndex::class_id`]: `sup` is looked up once, and the walk
    /// follows ids.
    pub fn class_is_subtype(&self, sub: ClassId, sup: &str) -> bool {
        match self.class_id(sup) {
            Some(t) => self.reaches(sub, t),
            None => self.reaches_outside(sub, sup),
        }
    }

    fn reaches(&self, mut cur: ClassId, sup: ClassId) -> bool {
        loop {
            if cur == sup {
                return true;
            }
            for p in &self.interfaces[cur.0 as usize] {
                if matches!(*p, Parent::In(i) if self.reaches(i, sup)) {
                    return true;
                }
            }
            match self.supers[cur.0 as usize] {
                Some(Parent::In(s)) => cur = s,
                _ => return false,
            }
        }
    }

    /// Subtyping against a type outside the program: only an edge that
    /// names it can reach it.
    fn reaches_outside(&self, mut cur: ClassId, sup: &str) -> bool {
        loop {
            for p in &self.interfaces[cur.0 as usize] {
                let hit = match *p {
                    Parent::In(i) => self.reaches_outside(i, sup),
                    Parent::Out(n) => n == sup,
                };
                if hit {
                    return true;
                }
            }
            match self.supers[cur.0 as usize] {
                Some(Parent::In(s)) => cur = s,
                Some(Parent::Out(n)) => return n == sup,
                None => return false,
            }
        }
    }

    /// The method ref display string `<class: ret name(params)>` for an id.
    pub fn method_display(&self, id: MethodId) -> String {
        let c = self.class(id.class);
        let m = self.method(id);
        m.make_ref(&c.name).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ApkBuilder;
    use crate::types::Type;

    fn sample() -> Apk {
        let mut b = ApkBuilder::new("t", "com.t");
        b.class("java.lang.Object", |c| {
            c.no_super();
        });
        b.class("com.t.A", |c| {
            c.extends("java.lang.Object");
            c.method("m", vec![], Type::Void, |_| {});
        });
        b.class("com.t.B", |c| {
            c.extends("com.t.A");
            c.implements("com.t.I");
            c.method("m", vec![], Type::Void, |_| {});
        });
        b.class("com.t.C", |c| {
            c.extends("com.t.B");
        });
        b.iface("com.t.I", |_| {});
        b.build()
    }

    #[test]
    fn hierarchy_queries() {
        let apk = sample();
        let p = ProgramIndex::new(&apk);
        assert!(p.is_subtype("com.t.C", "com.t.A"));
        assert!(p.is_subtype("com.t.C", "com.t.I"));
        assert!(p.is_subtype("com.t.B", "java.lang.Object"));
        assert!(!p.is_subtype("com.t.A", "com.t.B"));
        let subs: Vec<String> =
            p.all_subtypes("com.t.A").into_iter().map(|id| p.class(id).name.clone()).collect();
        assert!(subs.contains(&"com.t.B".to_string()));
        assert!(subs.contains(&"com.t.C".to_string()));
    }

    #[test]
    fn method_resolution_walks_superclasses() {
        let apk = sample();
        let p = ProgramIndex::new(&apk);
        // C declares no m(); resolution finds B's.
        let mid = p.resolve_method("com.t.C", "m", 0).unwrap();
        assert_eq!(p.class(mid.class).name, "com.t.B");
        assert!(p.resolve_method("com.t.C", "nope", 0).is_none());
    }

    #[test]
    fn subtyping_reaches_types_outside_the_program() {
        let mut b = ApkBuilder::new("t", "com.t");
        b.class("com.t.R", |c| {
            c.extends("java.lang.Thread");
            c.implements("java.lang.Runnable");
        });
        b.class("com.t.S", |c| {
            c.extends("com.t.R");
        });
        let apk = b.build();
        let p = ProgramIndex::new(&apk);
        for sup in ["java.lang.Thread", "java.lang.Runnable", "com.t.R", "com.t.S"] {
            assert!(p.is_subtype("com.t.S", sup), "S <: {sup}");
        }
        assert!(!p.is_subtype("com.t.R", "com.t.S"));
        assert!(!p.is_subtype("com.t.S", "java.lang.Object"));
        assert!(p.is_subtype("x.Outside", "x.Outside"));
        assert!(!p.is_subtype("x.Outside", "java.lang.Thread"));
    }

    #[test]
    fn every_call_statement_carries_its_callee_id() {
        let mut b = ApkBuilder::new("t", "com.t");
        b.class("com.t.A", |c| {
            c.method("m", vec![], Type::Void, |m| {
                m.recv("com.t.A");
                m.scall_void("com.t.A", "n", vec![]);
                m.scall_void("com.t.A", "n", vec![]);
                m.scall_void("com.t.Gone", "n", vec![]);
                m.ret_void();
            });
            c.static_method("n", vec![], Type::Void, |m| {
                m.ret_void();
            });
        });
        let apk = b.build();
        let p = ProgramIndex::new(&apk);
        assert_eq!(p.callee_count(), 2);
        let m = p.resolve_method("com.t.A", "m", 0).unwrap();
        let n = p.resolve_method("com.t.A", "n", 0).unwrap();
        let body = &p.method(m).body;
        let ids: Vec<Option<CalleeId>> = (0..body.len()).map(|si| p.callee_at(m, si)).collect();
        for (si, stmt) in body.iter().enumerate() {
            assert_eq!(ids[si].is_some(), stmt.call().is_some());
            if let (Some(id), Some(call)) = (ids[si], stmt.call()) {
                assert_eq!(p.callee(id), &call.callee);
            }
        }
        let first = ids.iter().flatten().next().copied().unwrap();
        assert_eq!(p.static_target(first), Some(n));
        let gone = ids.iter().flatten().last().copied().unwrap();
        assert_eq!(p.static_target(gone), None);
        assert_eq!(p.method_count(), 2);
        assert_eq!(p.method_index(n), 1);
    }
}
