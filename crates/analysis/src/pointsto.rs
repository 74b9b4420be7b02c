//! Andersen-style points-to analysis (the role SPARK \[60\] plays under
//! Soot in the original system).
//!
//! The analysis is *flow-insensitive* (one constraint system for the whole
//! program), *field-sensitive* (each abstract object tracks its instance
//! fields separately), and uses *allocation-site abstraction*: every
//! `new C` / `newarray` statement is one abstract object. Call targets are
//! resolved *on the fly*: a virtual/interface site only binds
//! receiver/argument/return edges to the implementations of classes that
//! actually reach its receiver, so the solved points-to sets and the
//! devirtualized call graph are mutually consistent — exactly SPARK's
//! on-the-fly call-graph mode.
//!
//! Everything the solver touches is addressed by dense ids, not names. A
//! local's node sits at a per-method offset (one `u32` per declared
//! local, filled on first use); field and static names are interned once
//! per solve; each call site carries its [`CalleeId`]. On-the-fly
//! dispatch is memoized per (allocated class, callee), and the solved
//! [`PointsTo`] keeps those results so that
//! [`crate::CallGraph::build_with_pointsto`] reads the same answers
//! instead of resolving each virtual site again. Entry/exit locals come
//! from the run's shared [`MethodTable`].
//!
//! Determinism: the solver is a FIFO worklist over `(node, allocation)`
//! pairs generated in program order, and a points-to set is a sorted
//! vector of [`AllocId`]s. Nothing is ordered by a hash, so two runs over
//! the same program produce identical results regardless of thread count,
//! preserving the byte-identical-report guarantee.

use crate::methods::{scope_flags, MethodTable};
use extractocol_ir::hash::{IdMap, IdSet};
use extractocol_ir::{
    CallKind, CalleeId, ClassId, Expr, Local, MethodId, Place, ProgramIndex, Stmt, Value,
};
use std::collections::{HashMap, HashSet, VecDeque};

/// An abstract object: one allocation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(pub u32);

/// Where (and what) an abstract object is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocSite {
    /// Method containing the `new`.
    pub method: MethodId,
    /// Statement index of the `new`.
    pub stmt: usize,
    /// Allocated class (array allocations use the `elem[]` spelling).
    pub class: String,
}

/// The pseudo-field under which array elements are merged (array
/// index-insensitivity, as in SPARK).
pub const ARRAY_FIELD: &str = "[]";

/// Marks a local with no constraint-graph node.
const NO_NODE: u32 = u32::MAX;

/// Where each method's locals sit: one node id (or [`NO_NODE`]) per
/// declared local, at a dense per-method offset. Locals beyond the
/// declared count (malformed input) fall back to a map.
#[derive(Debug, Default)]
struct LocalNodes {
    /// Per class: the dense index of its first method.
    class_base: Vec<u32>,
    /// Per dense method index: the offset of its first local (one extra
    /// entry holds the total).
    local_base: Vec<u32>,
    nodes: Vec<u32>,
    overflow: HashMap<(MethodId, Local), u32>,
}

impl LocalNodes {
    fn new(prog: &ProgramIndex<'_>) -> LocalNodes {
        let mut class_base = Vec::new();
        let mut local_base = Vec::with_capacity(prog.method_count() + 1);
        let mut total = 0u32;
        for (_, c) in prog.classes() {
            class_base.push(local_base.len() as u32);
            for m in &c.methods {
                local_base.push(total);
                total += m.locals.len() as u32;
            }
        }
        local_base.push(total);
        LocalNodes {
            class_base,
            local_base,
            nodes: vec![NO_NODE; total as usize],
            overflow: HashMap::new(),
        }
    }

    /// The slot of `(m, l)` in `nodes`, if `l` is a declared local.
    fn slot(&self, m: MethodId, l: Local) -> Option<usize> {
        let mi = (self.class_base[m.class.0 as usize] + m.method) as usize;
        let (base, end) = (self.local_base[mi], self.local_base[mi + 1]);
        (l.0 < end - base).then_some((base + l.0) as usize)
    }

    fn get(&self, m: MethodId, l: Local) -> Option<usize> {
        let id = match self.slot(m, l) {
            Some(i) => self.nodes[i],
            None => self.overflow.get(&(m, l)).copied().unwrap_or(NO_NODE),
        };
        (id != NO_NODE).then_some(id as usize)
    }

    /// Every local's node id.
    fn all(&self) -> impl Iterator<Item = usize> + '_ {
        let overflow = self.overflow.values();
        self.nodes.iter().chain(overflow).filter(|&&n| n != NO_NODE).map(|&n| n as usize)
    }
}

/// Solved points-to results.
#[derive(Debug, Default)]
pub struct PointsTo {
    allocs: Vec<AllocSite>,
    /// Per allocation: the program's class of that name, if any.
    alloc_classes: Vec<Option<ClassId>>,
    locals: LocalNodes,
    /// Per constraint-graph node: its points-to set, sorted.
    pts: Vec<Vec<AllocId>>,
    /// On-the-fly dispatch results per (allocated class, callee): the
    /// target when the class inhabits the callee's declared class.
    dispatch: IdMap<(ClassId, CalleeId), Option<MethodId>>,
    stats: PtsStats,
}

/// Aggregate solver statistics for reports and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PtsStats {
    /// Allocation sites discovered.
    pub allocs: usize,
    /// `(method, local)` variables with a non-empty points-to set.
    pub nonempty_locals: usize,
    /// Field cells `(alloc, field)` with a non-empty points-to set.
    pub field_cells: usize,
    /// Worklist items processed to fixpoint — the solver's work measure.
    /// The worklist order is deterministic, so this is too.
    pub propagations: usize,
}

impl PointsTo {
    /// Solves the whole-program constraint system.
    pub fn solve(methods: &MethodTable<'_>) -> PointsTo {
        Solver::new(methods, None).solve()
    }

    /// Solves the constraint system restricted to `scope` (the targeted
    /// mode's reachability cone): only scope methods contribute
    /// constraints or allocation sites. When the scope is closed under
    /// every inter-method coupling the solver traverses — calls in both
    /// directions, static fields, instance-field cells — the scoped
    /// solution equals the whole-program solution restricted to the
    /// scope's locals, which is what keeps targeted reports byte-identical.
    pub fn solve_scoped(methods: &MethodTable<'_>, scope: &HashSet<MethodId>) -> PointsTo {
        Solver::new(methods, Some(scope)).solve()
    }

    /// The allocation site behind an id.
    pub fn alloc(&self, id: AllocId) -> &AllocSite {
        &self.allocs[id.0 as usize]
    }

    /// All allocation sites, indexed by [`AllocId`].
    pub fn allocs(&self) -> &[AllocSite] {
        &self.allocs
    }

    /// The program's class an allocation instantiates (`None` for arrays
    /// and classes outside the program).
    pub fn alloc_class(&self, id: AllocId) -> Option<ClassId> {
        self.alloc_classes[id.0 as usize]
    }

    /// The points-to set of a local, sorted (empty when nothing reaches
    /// it).
    pub fn local_pts(&self, m: MethodId, l: Local) -> &[AllocId] {
        self.locals.get(m, l).map_or(&[], |n| &self.pts[n])
    }

    /// The distinct classes a local may point to, in [`AllocId`] order.
    pub fn classes_of(&self, m: MethodId, l: Local) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for &a in self.local_pts(m, l) {
            let c = self.alloc(a).class.as_str();
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// The target an object of `class` dispatches to at a virtual call of
    /// `callee`: `None` when the class does not inhabit the callee's
    /// declared class or resolves no method. Answered from the solver's
    /// dispatch results; a pair the solver never met is resolved here.
    pub fn dispatch(
        &self,
        prog: &ProgramIndex<'_>,
        class: ClassId,
        callee: CalleeId,
    ) -> Option<MethodId> {
        match self.dispatch.get(&(class, callee)) {
            Some(&t) => t,
            None => resolve_dispatch(prog, class, callee),
        }
    }

    /// May-alias query between two locals. Conservative: a local with an
    /// *empty* set is unknown (a parameter from an unanalyzed context, a
    /// modeled API return) and may alias anything.
    pub fn may_alias(&self, a: (MethodId, Local), b: (MethodId, Local)) -> bool {
        let pa = self.local_pts(a.0, a.1);
        let pb = self.local_pts(b.0, b.1);
        if pa.is_empty() || pb.is_empty() {
            return true;
        }
        let (mut i, mut j) = (0, 0);
        while i < pa.len() && j < pb.len() {
            match pa[i].cmp(&pb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Solver statistics.
    pub fn stats(&self) -> PtsStats {
        self.stats
    }
}

/// Dispatch of an object of `class` at a virtual call of `callee`. The
/// type filter ignores objects that cannot inhabit the declared receiver
/// type (flow-insensitive imprecision can wash unrelated allocations into
/// a set; an ill-typed dispatch would fabricate edges a real VM could
/// never take).
fn resolve_dispatch(prog: &ProgramIndex<'_>, class: ClassId, callee: CalleeId) -> Option<MethodId> {
    let r = prog.callee(callee);
    if !prog.class_is_subtype(class, &r.class) {
        return None;
    }
    prog.resolve_in(class, &r.name, r.params.len())
}

#[derive(Default)]
struct Node {
    /// Subset edges: everything here is a superset of this node.
    succ: Vec<usize>,
    /// Pending field loads `x = n.f`: `(field, destination node)`.
    loads: Vec<(u32, usize)>,
    /// Pending field stores `n.f = x`: `(field, source node)`.
    stores: Vec<(u32, usize)>,
    /// On-the-fly virtual sites dispatching on this node.
    sites: Vec<usize>,
}

/// A virtual/interface call site awaiting on-the-fly resolution.
struct FlySite {
    callee: CalleeId,
    /// Argument operand nodes (those that are pointer-typed locals).
    args: Vec<(usize, usize)>,
    /// Node receiving the return value, if the result is used.
    result: Option<usize>,
}

struct Solver<'a, 'p> {
    prog: &'p ProgramIndex<'p>,
    methods: &'a MethodTable<'p>,
    /// Per dense method index: inside the analysis scope (`None` = whole
    /// program). Methods outside the scope contribute no constraints —
    /// they are invisible to the solver.
    in_scope: Option<Vec<bool>>,
    locals: LocalNodes,
    /// Interned field names (`[]` is 0).
    field_ids: HashMap<&'p str, u32>,
    /// Instance-field cells per (object, field).
    cells: IdMap<(AllocId, u32), usize>,
    /// Static-field nodes per (class, field).
    statics: HashMap<(&'p str, &'p str), usize>,
    nodes: Vec<Node>,
    pts: Vec<Vec<AllocId>>,
    allocs: Vec<AllocSite>,
    alloc_classes: Vec<Option<ClassId>>,
    fly: Vec<FlySite>,
    dispatch: IdMap<(ClassId, CalleeId), Option<MethodId>>,
    /// `(fly-site, target)` pairs already bound.
    bound: IdSet<(usize, MethodId)>,
    /// `(node, alloc)` pairs still to be propagated.
    worklist: VecDeque<(usize, AllocId)>,
}

impl<'a, 'p> Solver<'a, 'p> {
    fn new(methods: &'a MethodTable<'p>, scope: Option<&HashSet<MethodId>>) -> Solver<'a, 'p> {
        let prog = methods.prog();
        Solver {
            prog,
            methods,
            in_scope: scope_flags(prog, scope),
            locals: LocalNodes::new(prog),
            field_ids: HashMap::from([(ARRAY_FIELD, 0)]),
            cells: IdMap::default(),
            statics: HashMap::new(),
            nodes: Vec::new(),
            pts: Vec::new(),
            allocs: Vec::new(),
            alloc_classes: Vec::new(),
            fly: Vec::new(),
            dispatch: IdMap::default(),
            bound: IdSet::default(),
            worklist: VecDeque::new(),
        }
    }

    fn in_scope(&self, m: MethodId) -> bool {
        self.in_scope.as_ref().is_none_or(|f| f[self.prog.method_index(m)])
    }

    fn new_node(&mut self) -> usize {
        self.nodes.push(Node::default());
        self.pts.push(Vec::new());
        self.nodes.len() - 1
    }

    fn local_node(&mut self, m: MethodId, l: Local) -> usize {
        if let Some(n) = self.locals.get(m, l) {
            return n;
        }
        let n = self.new_node();
        match self.locals.slot(m, l) {
            Some(i) => self.locals.nodes[i] = n as u32,
            None => {
                self.locals.overflow.insert((m, l), n as u32);
            }
        }
        n
    }

    fn static_node(&mut self, class: &'p str, name: &'p str) -> usize {
        if let Some(&n) = self.statics.get(&(class, name)) {
            return n;
        }
        let n = self.new_node();
        self.statics.insert((class, name), n);
        n
    }

    fn field_id(&mut self, name: &'p str) -> u32 {
        let next = self.field_ids.len() as u32;
        *self.field_ids.entry(name).or_insert(next)
    }

    fn cell(&mut self, a: AllocId, field: u32) -> usize {
        if let Some(&n) = self.cells.get(&(a, field)) {
            return n;
        }
        let n = self.new_node();
        self.cells.insert((a, field), n);
        n
    }

    fn add_alloc(&mut self, node: usize, a: AllocId) {
        let set = &mut self.pts[node];
        if let Err(pos) = set.binary_search(&a) {
            set.insert(pos, a);
            self.worklist.push_back((node, a));
        }
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        if from == to || self.nodes[from].succ.contains(&to) {
            return;
        }
        self.nodes[from].succ.push(to);
        // `to != from`, so the source set is stable while it is copied.
        for i in 0..self.pts[from].len() {
            let a = self.pts[from][i];
            self.add_alloc(to, a);
        }
    }

    /// Generates constraints for every in-scope method, in program order.
    /// Scoped generation visits a subsequence of the whole-program order,
    /// so surviving allocation sites keep their relative [`AllocId`] order
    /// and `classes_of` answers agree with the whole-program solve.
    fn generate(&mut self) {
        let prog = self.prog;
        for mid in prog.concrete_methods() {
            if !self.in_scope(mid) {
                continue;
            }
            for (si, stmt) in prog.method(mid).body.iter().enumerate() {
                match stmt {
                    Stmt::Assign { place, expr } => self.assign(mid, si, place, expr),
                    Stmt::Invoke(call) => self.call(mid, si, call, None),
                    _ => {}
                }
            }
        }
    }

    fn assign(&mut self, m: MethodId, si: usize, place: &'p Place, expr: &'p Expr) {
        let src: Option<usize> = match expr {
            Expr::New(class) => Some(self.alloc_node(m, si, class.clone())),
            Expr::NewArray(elem, _) => Some(self.alloc_node(m, si, format!("{elem}[]"))),
            Expr::Use(Value::Local(l)) | Expr::Cast(_, Value::Local(l)) => {
                Some(self.local_node(m, *l))
            }
            Expr::Load(loaded) => self.load_node(m, loaded),
            Expr::Invoke(call) => {
                let result = self.place_sink(m, place);
                self.call(m, si, call, result);
                return;
            }
            _ => None,
        };
        if let Some(src) = src {
            self.flow_into_place(m, src, place);
        }
    }

    /// A fresh node holding exactly one new abstract object.
    fn alloc_node(&mut self, m: MethodId, si: usize, class: String) -> usize {
        let id = AllocId(self.allocs.len() as u32);
        self.alloc_classes.push(self.prog.class_id(&class));
        self.allocs.push(AllocSite { method: m, stmt: si, class });
        let n = self.new_node();
        self.add_alloc(n, id);
        n
    }

    /// The node a load reads from (introducing a deferred constraint for
    /// instance/array cells). A statement's own value node is fresh: each
    /// statement is visited once.
    fn load_node(&mut self, m: MethodId, loaded: &'p Place) -> Option<usize> {
        match loaded {
            Place::Local(l) => Some(self.local_node(m, *l)),
            Place::StaticField(f) => Some(self.static_node(&f.class, &f.name)),
            Place::InstanceField { base, field } => {
                let dst = self.new_node();
                let b = self.local_node(m, *base);
                let f = self.field_id(&field.name);
                self.add_load(b, f, dst);
                Some(dst)
            }
            Place::ArrayElem { base, .. } => {
                let dst = self.new_node();
                let b = self.local_node(m, *base);
                self.add_load(b, 0, dst);
                Some(dst)
            }
        }
    }

    /// The node a statement's produced value should land in, given its
    /// destination place. Plain locals write directly; field/array/static
    /// destinations go through a per-site node then a store constraint.
    fn place_sink(&mut self, m: MethodId, place: &'p Place) -> Option<usize> {
        match place {
            Place::Local(l) => Some(self.local_node(m, *l)),
            _ => {
                let site = self.new_node();
                self.flow_into_place(m, site, place);
                Some(site)
            }
        }
    }

    fn flow_into_place(&mut self, m: MethodId, src: usize, place: &'p Place) {
        match place {
            Place::Local(l) => {
                let dst = self.local_node(m, *l);
                self.add_edge(src, dst);
            }
            Place::StaticField(f) => {
                let dst = self.static_node(&f.class, &f.name);
                self.add_edge(src, dst);
            }
            Place::InstanceField { base, field } => {
                let b = self.local_node(m, *base);
                let f = self.field_id(&field.name);
                self.add_store(b, f, src);
            }
            Place::ArrayElem { base, .. } => {
                let b = self.local_node(m, *base);
                self.add_store(b, 0, src);
            }
        }
    }

    // In both deferred constraints the base is a local and the cell is
    // not, so the base's set is stable while it is walked.
    fn add_load(&mut self, base: usize, field: u32, dst: usize) {
        for i in 0..self.pts[base].len() {
            let fnode = self.cell(self.pts[base][i], field);
            self.add_edge(fnode, dst);
        }
        self.nodes[base].loads.push((field, dst));
    }

    fn add_store(&mut self, base: usize, field: u32, src: usize) {
        for i in 0..self.pts[base].len() {
            let fnode = self.cell(self.pts[base][i], field);
            self.add_edge(src, fnode);
        }
        self.nodes[base].stores.push((field, src));
    }

    fn call(&mut self, m: MethodId, si: usize, call: &extractocol_ir::Call, result: Option<usize>) {
        let callee = self.prog.callee_at(m, si).expect("a call statement has a callee id");
        let args: Vec<(usize, usize)> = call
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_local().map(|l| (i, l)))
            .map(|(i, l)| (i, self.local_node(m, l)))
            .collect();
        match call.kind {
            CallKind::Static | CallKind::Special => {
                let Some(t) = self.prog.static_target(callee) else { return };
                if !self.prog.method(t).has_body || !self.in_scope(t) {
                    // Bodyless, or outside the analysis scope: treated like
                    // a platform stub (no constraints generated into it).
                    return;
                }
                if let Some(recv) = call.receiver.as_ref().and_then(Value::as_local) {
                    let rn = self.local_node(m, recv);
                    if let Some(this) = self.methods.info(t).this_local {
                        let tn = self.local_node(t, this);
                        self.add_edge(rn, tn);
                    }
                }
                self.bind_args_and_return(t, &args, result);
            }
            CallKind::Virtual | CallKind::Interface => {
                let Some(recv) = call.receiver.as_ref().and_then(Value::as_local) else {
                    return;
                };
                let rn = self.local_node(m, recv);
                let idx = self.fly.len();
                self.fly.push(FlySite { callee, args, result });
                // Binding can grow the receiver's own set (recursion);
                // objects added meanwhile reach this site from the
                // worklist, so walk a snapshot.
                for a in self.pts[rn].clone() {
                    self.dispatch(idx, a);
                }
                self.nodes[rn].sites.push(idx);
            }
        }
    }

    fn bind_args_and_return(
        &mut self,
        t: MethodId,
        args: &[(usize, usize)],
        result: Option<usize>,
    ) {
        let info = self.methods.info(t);
        for &(i, an) in args {
            if let Some(Some(pl)) = info.param_locals.get(i) {
                let pn = self.local_node(t, *pl);
                self.add_edge(an, pn);
            }
        }
        if let Some(rnode) = result {
            let body = &self.prog.method(t).body;
            for &ri in &info.returns {
                if let Stmt::Return(Some(Value::Local(rl))) = &body[ri] {
                    let sn = self.local_node(t, *rl);
                    self.add_edge(sn, rnode);
                }
            }
        }
    }

    /// On-the-fly dispatch: one abstract object reached one virtual site.
    fn dispatch(&mut self, site: usize, a: AllocId) {
        // Classes absent from the hierarchy (platform types, arrays)
        // resolve no method.
        let Some(class) = self.alloc_classes[a.0 as usize] else { return };
        let callee = self.fly[site].callee;
        let prog = self.prog;
        let target = *self
            .dispatch
            .entry((class, callee))
            .or_insert_with(|| resolve_dispatch(prog, class, callee));
        let Some(t) = target else { return };
        if !prog.method(t).has_body || !self.in_scope(t) || !self.bound.insert((site, t)) {
            return;
        }
        // Receiver binding is per-object: only `a` flows into the callee's
        // `this`, not the whole receiver set — the precision on-the-fly
        // resolution exists to provide.
        if let Some(this) = self.methods.info(t).this_local {
            let tn = self.local_node(t, this);
            self.add_alloc(tn, a);
        }
        // Binding only adds edges and allocations; it never reaches back
        // into `fly`, so the site's arguments can be lent out meanwhile.
        let args = std::mem::take(&mut self.fly[site].args);
        self.bind_args_and_return(t, &args, self.fly[site].result);
        self.fly[site].args = args;
    }

    fn solve(mut self) -> PointsTo {
        self.generate();
        let mut propagations = 0usize;
        // Each list only grows while it is walked, and a walk covers the
        // entries present when it starts — the snapshot a copy would take.
        while let Some((n, a)) = self.worklist.pop_front() {
            propagations += 1;
            for i in 0..self.nodes[n].succ.len() {
                let s = self.nodes[n].succ[i];
                self.add_alloc(s, a);
            }
            for i in 0..self.nodes[n].loads.len() {
                let (field, dst) = self.nodes[n].loads[i];
                let fnode = self.cell(a, field);
                self.add_edge(fnode, dst);
            }
            for i in 0..self.nodes[n].stores.len() {
                let (field, src) = self.nodes[n].stores[i];
                let fnode = self.cell(a, field);
                self.add_edge(src, fnode);
            }
            for i in 0..self.nodes[n].sites.len() {
                let site = self.nodes[n].sites[i];
                self.dispatch(site, a);
            }
        }

        let nonempty = |n: usize| !self.pts[n].is_empty();
        let stats = PtsStats {
            allocs: self.allocs.len(),
            nonempty_locals: self.locals.all().filter(|&n| nonempty(n)).count(),
            field_cells: self.cells.values().filter(|&&n| nonempty(n)).count(),
            propagations,
        };
        PointsTo {
            allocs: self.allocs,
            alloc_classes: self.alloc_classes,
            locals: self.locals,
            pts: self.pts,
            dispatch: self.dispatch,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_ir::{ApkBuilder, IdentityKind, Type};

    fn classes(pts: &PointsTo, prog: &ProgramIndex<'_>, class: &str, method: &str) -> Vec<String> {
        let mid = prog.resolve_method(class, method, 0).unwrap();
        // take the local assigned last (by convention the interesting one)
        let m = prog.method(mid);
        let mut last = None;
        for s in &m.body {
            if let Stmt::Assign { place: Place::Local(l), .. } = s {
                last = Some(*l);
            }
        }
        pts.classes_of(mid, last.unwrap()).into_iter().map(str::to_string).collect()
    }

    #[test]
    fn alloc_and_copy_chains() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.A", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.A");
                let a = m.new_obj("t.A", vec![]);
                let x = m.temp(Type::object("t.A"));
                m.copy(x, a);
                let y = m.temp(Type::object("t.A"));
                m.copy(y, x);
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let pts = PointsTo::solve(&MethodTable::new(&prog));
        assert_eq!(classes(&pts, &prog, "t.A", "go"), vec!["t.A"]);
        assert_eq!(pts.stats().allocs, 1);
    }

    #[test]
    fn field_sensitivity_separates_objects() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.Box", |c| {
            c.field("v", Type::obj_root());
        });
        b.class("t.P", |_| {});
        b.class("t.Q", |_| {});
        b.class("t.M", |c| {
            c.static_method("go", vec![], Type::Void, |m| {
                let f = extractocol_ir::FieldRef::new("t.Box", "v", Type::obj_root());
                let b1 = m.new_obj("t.Box", vec![]);
                let b2 = m.new_obj("t.Box", vec![]);
                let p = m.new_obj("t.P", vec![]);
                let q = m.new_obj("t.Q", vec![]);
                m.put_field(b1, &f, p);
                m.put_field(b2, &f, q);
                let got = m.temp(Type::obj_root());
                m.get_field(got, b1, &f);
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let pts = PointsTo::solve(&MethodTable::new(&prog));
        // b1.v only holds P — the two boxes are distinct abstract objects.
        assert_eq!(classes(&pts, &prog, "t.M", "go"), vec!["t.P"]);
    }

    #[test]
    fn calls_bind_params_returns_and_receiver() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.A", |c| {
            c.method("id", vec![Type::obj_root()], Type::obj_root(), |m| {
                m.recv("t.A");
                let p = m.arg(0, "p");
                m.ret(p);
            });
        });
        b.class("t.M", |c| {
            c.static_method("go", vec![], Type::Void, |m| {
                let a = m.new_obj("t.A", vec![]);
                let v = m.new_obj("t.M", vec![]);
                let r = m.vcall(a, "t.A", "id", vec![Value::Local(v)], Type::obj_root());
                let _ = r;
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let pts = PointsTo::solve(&MethodTable::new(&prog));
        let id = prog.resolve_method("t.A", "id", 1).unwrap();
        // receiver bound
        let this = prog
            .method(id)
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Identity { local, kind: IdentityKind::This } => Some(*local),
                _ => None,
            })
            .unwrap();
        assert_eq!(pts.classes_of(id, this), vec!["t.A"], "receiver flows into callee this");
        // return flows back: last assigned local in go is r
        assert_eq!(classes(&pts, &prog, "t.M", "go"), vec!["t.M"]);
    }

    #[test]
    fn on_the_fly_devirtualization_is_receiver_precise() {
        let mut b = ApkBuilder::new("t", "t");
        b.iface("t.I", |c| {
            c.stub_method("make", vec![], Type::obj_root());
        });
        b.class("t.A", |c| {
            c.implements("t.I");
            c.method("make", vec![], Type::obj_root(), |m| {
                m.recv("t.A");
                let o = m.new_obj("t.A", vec![]);
                m.ret(o);
            });
        });
        b.class("t.B", |c| {
            c.implements("t.I");
            c.method("make", vec![], Type::obj_root(), |m| {
                m.recv("t.B");
                let o = m.new_obj("t.B", vec![]);
                m.ret(o);
            });
        });
        b.class("t.M", |c| {
            c.static_method("go", vec![], Type::Void, |m| {
                let a = m.new_obj("t.A", vec![]);
                let i = m.temp(Type::object("t.I"));
                m.copy(i, a);
                let r = m.icall(i, "t.I", "make", vec![], Type::obj_root());
                let _ = r;
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let pts = PointsTo::solve(&MethodTable::new(&prog));
        // Only t.A::make is dispatched: the call result points to t.A,
        // never t.B, and t.B::make's receiver is never bound.
        assert_eq!(classes(&pts, &prog, "t.M", "go"), vec!["t.A"]);
        let b_make = prog.resolve_method("t.B", "make", 0).unwrap();
        let b_this = prog
            .method(b_make)
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Identity { local, kind: IdentityKind::This } => Some(*local),
                _ => None,
            })
            .unwrap();
        assert!(pts.local_pts(b_make, b_this).is_empty(), "t.B::make must stay unbound");
    }

    #[test]
    fn statics_and_arrays_propagate() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.G", |c| {
            c.static_field("cache", Type::obj_root());
        });
        b.class("t.M", |c| {
            c.static_method("go", vec![], Type::Void, |m| {
                let f = extractocol_ir::FieldRef::new("t.G", "cache", Type::obj_root());
                let o = m.new_obj("t.M", vec![]);
                m.put_static(&f, o);
                let back = m.temp(Type::obj_root());
                m.get_static(back, &f);
                let arr = m.temp(Type::obj_root().array_of());
                m.new_array(arr, Type::obj_root(), Value::int(2));
                m.store_elem(arr, Value::int(0), back);
                let out = m.temp(Type::obj_root());
                m.load_elem(out, arr, Value::int(0));
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let pts = PointsTo::solve(&MethodTable::new(&prog));
        assert_eq!(classes(&pts, &prog, "t.M", "go"), vec!["t.M"]);
        // One field cell: the array's `[]`; the static is not a cell.
        assert_eq!(pts.stats().field_cells, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut b = ApkBuilder::new("t", "t");
        for i in 0..6 {
            let cls = format!("t.C{i}");
            b.class(&cls, |c| {
                c.method("mk", vec![], Type::obj_root(), |m| {
                    m.recv("x");
                    let o = m.new_obj("java.lang.Object", vec![]);
                    m.ret(o);
                });
            });
        }
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let methods = MethodTable::new(&prog);
        let a = PointsTo::solve(&methods);
        let b2 = PointsTo::solve(&methods);
        assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b2.stats()));
        assert_eq!(a.allocs(), b2.allocs());
    }
}
