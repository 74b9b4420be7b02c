//! Bidirectional, flow- and field-sensitive taint propagation.
//!
//! This is the crate's stand-in for FlowDroid's IFDS data-flow layer
//! \[27, 73\], extended the way the paper extends it (§3.1):
//!
//! * **Forward** propagation follows assignments, loads/stores, calls, and
//!   returns — tracking objects that *originate from* the network buffer.
//! * **Backward** propagation runs over the reversed control-flow graph
//!   with inverted rules — "a tainted LHS taints RHS in an assignment
//!   statement, and the taint information of callee's arguments is
//!   propagated to caller's arguments"; "in backward taint propagation, an
//!   object is untainted at its definition."
//!
//! Facts are *access paths*: a root (local or static field) plus a capped
//! field chain, FlowDroid-style. The engine is whole-program and
//! flow-sensitive; callee returns flow to every call site (see the crate
//! docs for why context-insensitivity is acceptable here, and the
//! `ablation_taint_depth` bench for the field-depth trade-off).
//!
//! Unlike classic taint analysis — whose job ends at "does a path from
//! source to sink exist?" — the report keeps **every statement that touches
//! a tainted object**, because "omitting even a single statement that
//! operates on these objects would result in an inaccurate signature"
//! (§3.1). Slices are exactly those statement sets.

use crate::callbacks::OperandSource;
use crate::callgraph::{CallGraph, CallSite};
use crate::cfg::Cfg;
use crate::pointsto::PointsTo;
use extractocol_ir::{
    Call, CallKind, Expr, IdentityKind, Local, MethodId, MethodRef, Place, ProgramIndex, Stmt,
    Value,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Propagation direction. `Ord` so summary-cache exports sort into a
/// deterministic, jobs-invariant order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    Forward,
    Backward,
}

/// The root of an access path.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Root {
    /// A local slot of some method (paths are method-local; crossing a call
    /// re-roots the path).
    Local(Local),
    /// A static field, identified as `class#field` — global to the program.
    Static(String),
}

/// An access path: root plus a field chain capped at
/// [`TaintOptions::max_field_depth`]. The pseudo-field `"[]"` stands for
/// "any array element" (arrays are index-insensitive, as in FlowDroid).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessPath {
    pub root: Root,
    pub fields: Vec<String>,
}

impl AccessPath {
    /// A path rooted at a local with no fields.
    pub fn local(l: Local) -> AccessPath {
        AccessPath { root: Root::Local(l), fields: Vec::new() }
    }

    /// A path rooted at a static field.
    pub fn static_field(class: &str, field: &str) -> AccessPath {
        AccessPath { root: Root::Static(format!("{class}#{field}")), fields: Vec::new() }
    }

    /// Re-roots this path at another root, prefixing `prefix` fields and
    /// truncating to the depth cap (overapproximation, never loss).
    fn rebase(&self, root: Root, prefix: &[String], cap: usize) -> AccessPath {
        let mut fields: Vec<String> = prefix.to_vec();
        fields.extend(self.fields.iter().cloned());
        fields.truncate(cap);
        AccessPath { root, fields }
    }

    /// True when this path is rooted at the given local.
    fn rooted_at(&self, l: Local) -> bool {
        self.root == Root::Local(l)
    }
}

/// Slots of a modelled (bodyless) API call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Slot {
    Receiver,
    Arg(usize),
    Return,
}

/// Taint-transfer model for calls the engine cannot step into (platform
/// and library stubs). `extractocol-core` implements this over its API
/// semantic model; [`ConservativeModel`] is the default fallback.
pub trait ApiFlowModel {
    /// Directed taint flows `(from, to)` induced by a call to `callee`.
    fn flows(&self, callee: &MethodRef) -> Vec<(Slot, Slot)>;
}

/// Fallback model: taint on any input reaches the return value and the
/// receiver. Sound for value-producing APIs, imprecise for sanitizers —
/// which protocol-building code does not contain.
pub struct ConservativeModel;

impl ApiFlowModel for ConservativeModel {
    fn flows(&self, callee: &MethodRef) -> Vec<(Slot, Slot)> {
        let mut flows = Vec::new();
        for i in 0..callee.params.len() {
            flows.push((Slot::Arg(i), Slot::Return));
            flows.push((Slot::Arg(i), Slot::Receiver));
        }
        flows.push((Slot::Receiver, Slot::Return));
        flows
    }
}

/// A seeded fact: `fact` holds immediately *before* `stmt` when running
/// forward, immediately *after* it when running backward.
#[derive(Clone, Debug)]
pub struct Seed {
    pub method: MethodId,
    pub stmt: usize,
    pub fact: AccessPath,
}

/// Engine options.
#[derive(Clone, Debug)]
pub struct TaintOptions {
    /// Maximum access-path field depth (FlowDroid defaults to 5; protocol
    /// code rarely needs more than 2 — see `ablation_taint_depth`).
    pub max_field_depth: usize,
    /// Enable the interprocedural method-summary cache. Propagation
    /// results per `(method, statement, fact)` entry point are memoized on
    /// the engine and shared across runs (and threads), so distinct
    /// demarcation points stop re-analyzing shared helper methods. Results
    /// are identical either way; this is purely a work-avoidance cache.
    pub summary_cache: bool,
}

impl Default for TaintOptions {
    fn default() -> Self {
        TaintOptions { max_field_depth: 2, summary_cache: true }
    }
}

/// Method-summary cache hit/miss counters (monotonic over an engine's
/// lifetime, summed across every `run` and every thread using it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a memoized summary.
    pub hits: u64,
    /// Lookups that had to compute (and then memoize) a summary.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from cache (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The result of a propagation run.
#[derive(Debug, Default)]
pub struct TaintReport {
    /// Statements that operate on tainted objects — the program slice.
    pub slice: HashSet<(MethodId, usize)>,
    /// Facts observed at each program point (before the statement in
    /// forward mode, after it in backward mode).
    pub facts_at: HashMap<(MethodId, usize), HashSet<AccessPath>>,
    /// Tainted static fields (global, flow-insensitive).
    pub statics: HashSet<String>,
}

impl TaintReport {
    /// All methods that contribute at least one sliced statement.
    pub fn methods(&self) -> HashSet<MethodId> {
        self.slice.iter().map(|(m, _)| *m).collect()
    }

    /// The sliced statement indices within one method, sorted.
    pub fn stmts_in(&self, m: MethodId) -> Vec<usize> {
        let mut v: Vec<usize> =
            self.slice.iter().filter(|(mm, _)| *mm == m).map(|(_, s)| *s).collect();
        v.sort_unstable();
        v
    }
}

/// Per-method info the engine precomputes.
struct MethodInfo {
    cfg: Cfg,
    /// Local bound by `@this`, if any.
    this_local: Option<Local>,
    /// Locals bound by `@paramN`, indexed by N.
    param_locals: Vec<Option<Local>>,
    /// Statement indices of `Return` statements.
    returns: Vec<usize>,
}

/// One propagation node: a fact holding at a program point.
type Node = (MethodId, usize, AccessPath);

/// Cache key: direction plus the entry node. Locals are method-relative
/// and deterministic per program, so the access path itself is the
/// "taint-seed abstraction" — two DPs entering the same helper with the
/// same fact share one summary.
type SummaryKey = (Direction, MethodId, usize, AccessPath);

/// A memoized method-segment summary: everything propagation does from one
/// entry node before leaving the method. Replaying a summary is
/// observationally identical to re-running the segment — summaries are
/// context-free (they depend only on the program, options and direction).
#[derive(Debug, Default)]
struct Summary {
    /// Intra-method nodes visited, as `(stmt, fact)`.
    nodes: Vec<(usize, AccessPath)>,
    /// Sliced statement indices inside the method.
    marks: Vec<usize>,
    /// Statements marked outside the method (caller call sites reached by
    /// return-value flow).
    extern_marks: Vec<(MethodId, usize)>,
    /// Facts that leave the method (callee entries, caller continuations).
    exits: Vec<Node>,
    /// Static-field keys tainted while inside the segment.
    statics: Vec<String>,
}

/// A summary-cache entry in portable form: the cache key (direction +
/// entry node) plus the memoized segment closure, with every vector in
/// the deterministic order [`TaintEngine::export_summaries`] guarantees.
/// `extractocol-incr` serializes these into `.exsm` archives and replays
/// them through [`TaintEngine::preload_summaries`] on warm runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryExport {
    pub direction: Direction,
    pub method: MethodId,
    pub stmt: usize,
    pub fact: AccessPath,
    /// Intra-method nodes visited, as `(stmt, fact)`, sorted.
    pub nodes: Vec<(usize, AccessPath)>,
    /// Sliced statement indices inside the method, sorted.
    pub marks: Vec<usize>,
    /// Statements marked outside the method, sorted.
    pub extern_marks: Vec<(MethodId, usize)>,
    /// Facts that leave the method (deterministic discovery order).
    pub exits: Vec<(MethodId, usize, AccessPath)>,
    /// Static-field keys tainted inside the segment (discovery order).
    pub statics: Vec<String>,
}

/// The bidirectional taint engine. Shareable across threads (`&self` runs
/// only): the summary cache is behind a `RwLock` and its counters are
/// atomics, everything else is immutable after construction.
pub struct TaintEngine<'p, 'g, 'm> {
    prog: &'p ProgramIndex<'p>,
    graph: &'g CallGraph,
    model: &'m (dyn ApiFlowModel + Sync),
    /// Optional alias information: narrows virtual-call transfer to the
    /// targets the receiver's points-to set allows, so taint only enters
    /// callees that allocation sites can actually reach.
    pts: Option<&'g PointsTo>,
    options: TaintOptions,
    infos: HashMap<MethodId, MethodInfo>,
    /// static key → (method, stmt) sites that store to it.
    static_stores: HashMap<String, Vec<(MethodId, usize)>>,
    /// static key → (method, stmt) sites that load from it.
    static_loads: HashMap<String, Vec<(MethodId, usize)>>,
    /// The interprocedural method-summary cache, shared by every run.
    summaries: RwLock<HashMap<SummaryKey, Arc<Summary>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl<'p, 'g, 'm> TaintEngine<'p, 'g, 'm> {
    /// Prepares the engine: builds CFGs and static-field indexes.
    pub fn new(
        prog: &'p ProgramIndex<'p>,
        graph: &'g CallGraph,
        model: &'m (dyn ApiFlowModel + Sync),
        options: TaintOptions,
    ) -> Self {
        Self::with_scope(prog, graph, model, options, None, None)
    }

    /// Like [`TaintEngine::new`], with optional alias information and an
    /// optional analysis scope.
    ///
    /// With `pts` (a solved points-to analysis), virtual/interface call
    /// transfer consults the receiver's points-to set and skips CHA
    /// targets no reaching allocation site can dispatch to; empty sets
    /// keep every target (conservative fallback). Results are
    /// deterministic either way.
    ///
    /// When `scope` is `Some`, only methods in the set get CFGs and
    /// static-field index entries — methods outside the scope are never
    /// visited (the targeted mode's cone). `None` is whole-program.
    pub fn with_scope(
        prog: &'p ProgramIndex<'p>,
        graph: &'g CallGraph,
        model: &'m (dyn ApiFlowModel + Sync),
        options: TaintOptions,
        pts: Option<&'g PointsTo>,
        scope: Option<&HashSet<MethodId>>,
    ) -> Self {
        let mut infos = HashMap::new();
        let mut static_stores: HashMap<String, Vec<(MethodId, usize)>> = HashMap::new();
        let mut static_loads: HashMap<String, Vec<(MethodId, usize)>> = HashMap::new();
        for mid in prog.concrete_methods() {
            if let Some(scope) = scope {
                if !scope.contains(&mid) {
                    continue;
                }
            }
            let method = prog.method(mid);
            let cfg = Cfg::build(method);
            let mut this_local = None;
            let mut param_locals = vec![None; method.params.len()];
            let mut returns = Vec::new();
            for (i, s) in method.body.iter().enumerate() {
                match s {
                    Stmt::Identity { local, kind } => match kind {
                        IdentityKind::This => this_local = Some(*local),
                        IdentityKind::Param(p) => {
                            if let Some(slot) = param_locals.get_mut(*p as usize) {
                                *slot = Some(*local);
                            }
                        }
                        IdentityKind::CaughtException => {}
                    },
                    Stmt::Return(_) => returns.push(i),
                    Stmt::Assign { place, expr } => {
                        if let Place::StaticField(f) = place {
                            static_stores
                                .entry(format!("{}#{}", f.class, f.name))
                                .or_default()
                                .push((mid, i));
                        }
                        if let Expr::Load(Place::StaticField(f)) = expr {
                            static_loads
                                .entry(format!("{}#{}", f.class, f.name))
                                .or_default()
                                .push((mid, i));
                        }
                    }
                    _ => {}
                }
            }
            infos.insert(mid, MethodInfo { cfg, this_local, param_locals, returns });
        }
        TaintEngine {
            prog,
            graph,
            model,
            pts,
            options,
            infos,
            static_stores,
            static_loads,
            summaries: RwLock::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }

    /// Runs propagation from the seeds and returns the slice/facts report.
    pub fn run(&self, direction: Direction, seeds: &[Seed]) -> TaintReport {
        Propagation::new(self, direction).run(seeds)
    }

    /// Method-summary cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized summaries currently in the cache.
    pub fn summary_count(&self) -> usize {
        self.summaries.read().unwrap().len()
    }

    /// Snapshots every memoized summary in a deterministic order (sorted
    /// by cache key). Summary values are themselves deterministic — the
    /// segment BFS is single-entry and its result vectors are sorted or in
    /// deterministic insertion order — so the export is byte-stable across
    /// worker counts. This is the persistence surface for the `.exsm`
    /// archives in `extractocol-incr`.
    pub fn export_summaries(&self) -> Vec<SummaryExport> {
        let map = self.summaries.read().unwrap();
        let mut out: Vec<SummaryExport> = map
            .iter()
            .map(|((dir, m, stmt, fact), s)| SummaryExport {
                direction: *dir,
                method: *m,
                stmt: *stmt,
                fact: fact.clone(),
                nodes: s.nodes.clone(),
                marks: s.marks.clone(),
                extern_marks: s.extern_marks.clone(),
                exits: s.exits.clone(),
                statics: s.statics.clone(),
            })
            .collect();
        drop(map);
        out.sort_by(|a, b| {
            (a.direction, a.method, a.stmt, &a.fact).cmp(&(b.direction, b.method, b.stmt, &b.fact))
        });
        out
    }

    /// Seeds the summary cache with previously exported entries (a warm
    /// start from a `.exsm` archive). The caller is responsible for
    /// validity: an entry may only be preloaded when the program state its
    /// summary was computed from is provably unchanged — that is what the
    /// incremental engine's fingerprints establish. Existing entries win.
    pub fn preload_summaries(&self, entries: Vec<SummaryExport>) {
        let mut map = self.summaries.write().unwrap();
        for e in entries {
            let key: SummaryKey = (e.direction, e.method, e.stmt, e.fact);
            map.entry(key).or_insert_with(|| {
                Arc::new(Summary {
                    nodes: e.nodes,
                    marks: e.marks,
                    extern_marks: e.extern_marks,
                    exits: e.exits,
                    statics: e.statics,
                })
            });
        }
    }

    /// Explicit targets of a call site, narrowed by the receiver's
    /// points-to set when alias information is available. A fact entering
    /// a virtual call only steps into implementations some allocation
    /// site flowing to the receiver can dispatch to; with no alias info,
    /// an empty set, or a non-virtual site, the graph's targets stand.
    fn call_targets(&self, site: CallSite, call: &Call) -> Vec<MethodId> {
        let targets = self.graph.targets_of(site);
        let Some(pts) = self.pts else { return targets.to_vec() };
        if !matches!(call.kind, CallKind::Virtual | CallKind::Interface) {
            return targets.to_vec();
        }
        let Some(recv) = call.receiver.as_ref().and_then(Value::as_local) else {
            return targets.to_vec();
        };
        let classes = pts.classes_of(site.0, recv);
        if classes.is_empty() {
            return targets.to_vec();
        }
        let mut allowed: Vec<MethodId> = Vec::new();
        for class in classes {
            if !self.prog.is_subtype(class, &call.callee.class) {
                continue;
            }
            if let Some(t) =
                self.prog.resolve_method(class, &call.callee.name, call.callee.params.len())
            {
                if !allowed.contains(&t) {
                    allowed.push(t);
                }
            }
        }
        if allowed.is_empty() {
            // Every reaching object was ill-typed for this site — keep the
            // CHA answer rather than inventing an unsound "no callees".
            return targets.to_vec();
        }
        targets.iter().copied().filter(|t| allowed.contains(t)).collect()
    }

    /// True when `callee` survives alias narrowing at `site`.
    fn calls_into(&self, site: CallSite, call: &Call, callee: MethodId) -> bool {
        self.call_targets(site, call).contains(&callee)
    }

    /// Public view of the per-site alias narrowing — the exact target list
    /// propagation steps into at `site`. The incremental engine folds this
    /// into validity fingerprints so a summary is invalidated whenever the
    /// narrowed dispatch at any of its call sites changes.
    pub fn narrowed_targets(&self, site: CallSite, call: &Call) -> Vec<MethodId> {
        self.call_targets(site, call)
    }

    /// True when `m` is inside this engine's analysis scope (always true
    /// for whole-program engines).
    pub fn in_scope(&self, m: MethodId) -> bool {
        self.infos.contains_key(&m) || !self.prog.method(m).has_body
    }

    fn info(&self, m: MethodId) -> &MethodInfo {
        self.infos
            .get(&m)
            .unwrap_or_else(|| panic!("no method info for {}", self.prog.method_display(m)))
    }

    /// Statement-level successors in the given direction.
    fn neighbors(&self, m: MethodId, stmt: usize, dir: Direction) -> Vec<usize> {
        let info = self.info(m);
        let body_len = self.prog.method(m).body.len();
        if body_len == 0 {
            return Vec::new();
        }
        let bi = info.cfg.block_of_stmt[stmt];
        let block = &info.cfg.blocks[bi];
        match dir {
            Direction::Forward => {
                if stmt + 1 < block.end {
                    vec![stmt + 1]
                } else {
                    block.succs.iter().map(|&s| info.cfg.blocks[s].start).collect()
                }
            }
            Direction::Backward => {
                if stmt > block.start {
                    vec![stmt - 1]
                } else {
                    block.preds.iter().map(|&p| info.cfg.blocks[p].end - 1).collect()
                }
            }
        }
    }
}

/// In-flight state of one method-segment (summary) computation. While a
/// segment is active, `enqueue`/`mark`/`taint_static` record into it
/// instead of the global run state, which keeps the resulting summary
/// context-free and therefore cacheable.
struct SegState {
    method: MethodId,
    queue: VecDeque<(usize, AccessPath)>,
    visited: HashSet<(usize, AccessPath)>,
    marks: HashSet<usize>,
    extern_marks: HashSet<(MethodId, usize)>,
    exits: Vec<Node>,
    exit_set: HashSet<Node>,
    statics: Vec<String>,
    static_set: HashSet<String>,
}

impl SegState {
    fn new(method: MethodId) -> SegState {
        SegState {
            method,
            queue: VecDeque::new(),
            visited: HashSet::new(),
            marks: HashSet::new(),
            extern_marks: HashSet::new(),
            exits: Vec::new(),
            exit_set: HashSet::new(),
            statics: Vec::new(),
            static_set: HashSet::new(),
        }
    }

    fn into_summary(self) -> Summary {
        let mut nodes: Vec<(usize, AccessPath)> = self.visited.into_iter().collect();
        nodes.sort();
        let mut marks: Vec<usize> = self.marks.into_iter().collect();
        marks.sort_unstable();
        let mut extern_marks: Vec<(MethodId, usize)> = self.extern_marks.into_iter().collect();
        extern_marks.sort();
        Summary { nodes, marks, extern_marks, exits: self.exits, statics: self.statics }
    }
}

/// One propagation run's mutable state.
struct Propagation<'e, 'p, 'g, 'm> {
    eng: &'e TaintEngine<'p, 'g, 'm>,
    dir: Direction,
    queue: VecDeque<Node>,
    visited: HashSet<Node>,
    /// Nodes whose effects are fully in the report — either stepped
    /// directly or covered by an applied summary. Popping a covered node
    /// is a no-op (its closure is already accounted for).
    processed: HashSet<Node>,
    report: TaintReport,
    tainted_statics: HashSet<String>,
    /// Active summary computation, if any.
    seg: Option<SegState>,
}

impl<'e, 'p, 'g, 'm> Propagation<'e, 'p, 'g, 'm> {
    fn new(eng: &'e TaintEngine<'p, 'g, 'm>, dir: Direction) -> Self {
        Propagation {
            eng,
            dir,
            queue: VecDeque::new(),
            visited: HashSet::new(),
            processed: HashSet::new(),
            report: TaintReport::default(),
            tainted_statics: HashSet::new(),
            seg: None,
        }
    }

    fn cap(&self) -> usize {
        self.eng.options.max_field_depth
    }

    fn enqueue(&mut self, m: MethodId, stmt: usize, fact: AccessPath) {
        if self.eng.prog.method(m).body.is_empty() || !self.eng.in_scope(m) {
            return;
        }
        let stmt = stmt.min(self.eng.prog.method(m).body.len() - 1);
        if let Some(seg) = &mut self.seg {
            if m == seg.method {
                let key = (stmt, fact);
                if seg.visited.insert(key.clone()) {
                    seg.queue.push_back(key);
                }
            } else {
                let node: Node = (m, stmt, fact);
                if seg.exit_set.insert(node.clone()) {
                    seg.exits.push(node);
                }
            }
            return;
        }
        let key = (m, stmt, fact);
        if self.visited.insert(key.clone()) {
            self.report.facts_at.entry((m, stmt)).or_default().insert(key.2.clone());
            self.queue.push_back(key);
        }
    }

    fn mark(&mut self, m: MethodId, stmt: usize) {
        if let Some(seg) = &mut self.seg {
            if m == seg.method {
                seg.marks.insert(stmt);
            } else {
                seg.extern_marks.insert((m, stmt));
            }
            return;
        }
        self.report.slice.insert((m, stmt));
    }

    fn taint_static(&mut self, key: String) {
        if let Some(seg) = &mut self.seg {
            if seg.static_set.insert(key.clone()) {
                seg.statics.push(key);
            }
            return;
        }
        if self.tainted_statics.insert(key.clone()) {
            self.report.statics.insert(key.clone());
            // Flow-insensitive for statics: re-seed at every load (forward)
            // or store (backward) of this field.
            match self.dir {
                Direction::Forward => {
                    if let Some(loads) = self.eng.static_loads.get(&key) {
                        for &(m, s) in loads {
                            self.enqueue(
                                m,
                                s,
                                AccessPath { root: Root::Static(key.clone()), fields: Vec::new() },
                            );
                        }
                    }
                }
                Direction::Backward => {
                    if let Some(stores) = self.eng.static_stores.get(&key) {
                        for &(m, s) in stores {
                            self.enqueue(
                                m,
                                s,
                                AccessPath { root: Root::Static(key.clone()), fields: Vec::new() },
                            );
                        }
                    }
                }
            }
        }
    }

    fn step(&mut self, m: MethodId, stmt: usize, fact: &AccessPath) {
        match self.dir {
            Direction::Forward => self.step_forward(m, stmt, fact),
            Direction::Backward => self.step_backward(m, stmt, fact),
        }
    }

    fn run(mut self, seeds: &[Seed]) -> TaintReport {
        for s in seeds {
            if let Root::Static(k) = &s.fact.root {
                self.taint_static(k.clone());
            }
            self.enqueue(s.method, s.stmt, s.fact.clone());
        }
        let use_cache = self.eng.options.summary_cache;
        while let Some((m, stmt, fact)) = self.queue.pop_front() {
            if !use_cache {
                self.step(m, stmt, &fact);
                continue;
            }
            if !self.processed.insert((m, stmt, fact.clone())) {
                continue; // already covered by an applied summary
            }
            let summary = self.summary_for(m, stmt, fact);
            self.apply_summary(m, &summary);
        }
        self.report
    }

    /// Looks up (or computes and memoizes) the segment summary for one
    /// entry node.
    fn summary_for(&mut self, m: MethodId, stmt: usize, fact: AccessPath) -> Arc<Summary> {
        let key: SummaryKey = (self.dir, m, stmt, fact.clone());
        if let Some(hit) = self.eng.summaries.read().unwrap().get(&key) {
            self.eng.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.eng.cache_misses.fetch_add(1, Ordering::Relaxed);
        let summary = Arc::new(self.compute_segment(m, stmt, fact));
        // Under contention another thread may have raced us to the same
        // key; keep the first insertion (both are equivalent closures).
        Arc::clone(self.eng.summaries.write().unwrap().entry(key).or_insert(summary))
    }

    /// Computes the intra-method closure from one entry node, recording
    /// every cross-method effect as an exit. Context-free: touches no
    /// global run state.
    fn compute_segment(&mut self, m: MethodId, stmt: usize, fact: AccessPath) -> Summary {
        debug_assert!(self.seg.is_none(), "segments do not nest");
        let mut seg = SegState::new(m);
        seg.visited.insert((stmt, fact.clone()));
        seg.queue.push_back((stmt, fact));
        self.seg = Some(seg);
        while let Some((s, f)) = self.seg.as_mut().and_then(|seg| seg.queue.pop_front()) {
            self.step(m, s, &f);
        }
        self.seg.take().expect("segment state present").into_summary()
    }

    /// Replays a memoized summary into the global run state.
    fn apply_summary(&mut self, m: MethodId, summary: &Summary) {
        for (s, f) in &summary.nodes {
            let node: Node = (m, *s, f.clone());
            if self.visited.insert(node.clone()) {
                self.report.facts_at.entry((m, *s)).or_default().insert(f.clone());
            }
            self.processed.insert(node);
        }
        for &s in &summary.marks {
            self.report.slice.insert((m, s));
        }
        for &(em, es) in &summary.extern_marks {
            self.report.slice.insert((em, es));
        }
        for k in &summary.statics {
            self.taint_static(k.clone());
        }
        for (xm, xs, xf) in &summary.exits {
            self.enqueue(*xm, *xs, xf.clone());
        }
    }

    // ---- shared helpers ------------------------------------------------------

    /// Does `v` read the root of `fact`?
    fn value_matches(&self, v: &Value, fact: &AccessPath) -> bool {
        matches!(v, Value::Local(l) if fact.rooted_at(*l))
    }

    /// Facts generated on `place` when a tainted value with `extra_fields`
    /// below the matched operand flows into it.
    fn fact_for_place(&self, place: &Place, suffix: &[String]) -> Option<AccessPath> {
        let cap = self.cap();
        match place {
            Place::Local(l) => Some(AccessPath {
                root: Root::Local(*l),
                fields: suffix.iter().take(cap).cloned().collect(),
            }),
            Place::InstanceField { base, field } => {
                let mut fields = vec![field.name.clone()];
                fields.extend(suffix.iter().cloned());
                fields.truncate(cap);
                Some(AccessPath { root: Root::Local(*base), fields })
            }
            Place::StaticField(f) => Some(AccessPath {
                root: Root::Static(format!("{}#{}", f.class, f.name)),
                fields: suffix.iter().take(cap).cloned().collect(),
            }),
            Place::ArrayElem { base, .. } => {
                let mut fields = vec!["[]".to_string()];
                fields.extend(suffix.iter().cloned());
                fields.truncate(cap);
                Some(AccessPath { root: Root::Local(*base), fields })
            }
        }
    }

    /// If `fact` is covered by reading `place`, the remaining field suffix
    /// below the place. `x.f.g` read via `x.f` → suffix `[g]`; read via
    /// `x.f.g` → `[]`; a whole-object fact `x` covers any read of `x.*`.
    fn place_reads_fact(&self, place: &Place, fact: &AccessPath) -> Option<Vec<String>> {
        let (root_local, lead): (Local, Vec<String>) = match place {
            Place::Local(l) => (*l, vec![]),
            Place::InstanceField { base, field } => (*base, vec![field.name.clone()]),
            Place::ArrayElem { base, .. } => (*base, vec!["[]".to_string()]),
            Place::StaticField(f) => {
                let key = format!("{}#{}", f.class, f.name);
                return match &fact.root {
                    Root::Static(k) if *k == key => Some(fact.fields.clone()),
                    _ => None,
                };
            }
        };
        if !fact.rooted_at(root_local) {
            return None;
        }
        // fact.fields vs lead: fact covers the read if lead is a prefix of
        // fact.fields (suffix remains) or fact.fields is a prefix of lead
        // (whole-object taint, suffix empty).
        if fact.fields.len() >= lead.len() {
            if fact.fields[..lead.len()] == lead[..] {
                Some(fact.fields[lead.len()..].to_vec())
            } else {
                None
            }
        } else if lead[..fact.fields.len()] == fact.fields[..] {
            Some(Vec::new())
        } else {
            None
        }
    }

    /// Whether assigning to `place` strongly kills `fact` (exact local
    /// overwrite; field/array stores are weak updates).
    fn place_kills_fact(&self, place: &Place, fact: &AccessPath) -> bool {
        match place {
            Place::Local(l) => fact.rooted_at(*l),
            _ => false,
        }
    }

    fn call_operand_value<'a>(&self, call: &'a Call, src: OperandSource) -> Option<&'a Value> {
        match src {
            OperandSource::Receiver => call.receiver.as_ref(),
            OperandSource::Arg(i) => call.args.get(i),
        }
    }

    // ---- forward ------------------------------------------------------------

    fn step_forward(&mut self, m: MethodId, stmt_idx: usize, fact: &AccessPath) {
        let body = &self.eng.prog.method(m).body;
        let stmt = &body[stmt_idx];
        let mut out: Vec<AccessPath> = Vec::new();
        let mut killed = false;
        let mut touched = false;

        match stmt {
            Stmt::Assign { place, expr } => {
                // gen from expr
                match expr {
                    Expr::Invoke(call) => {
                        touched |= self.forward_call(m, stmt_idx, call, Some(place), fact);
                    }
                    Expr::Use(v) => {
                        if self.value_matches(v, fact) {
                            if let Some(nf) = self.fact_for_place(place, &fact.fields) {
                                out.push(nf);
                                touched = true;
                            }
                        }
                    }
                    Expr::Load(p) => {
                        if let Some(suffix) = self.place_reads_fact(p, fact) {
                            if let Some(nf) = self.fact_for_place(place, &suffix) {
                                out.push(nf);
                                touched = true;
                            }
                        }
                    }
                    Expr::Un(_, v) | Expr::Cast(_, v) | Expr::InstanceOf(_, v) => {
                        if self.value_matches(v, fact) {
                            if let Some(nf) = self.fact_for_place(place, &[]) {
                                out.push(nf);
                                touched = true;
                            }
                        }
                    }
                    Expr::Bin(_, a, b) => {
                        if self.value_matches(a, fact) || self.value_matches(b, fact) {
                            if let Some(nf) = self.fact_for_place(place, &[]) {
                                out.push(nf);
                                touched = true;
                            }
                        }
                    }
                    Expr::New(_) | Expr::NewArray(_, _) => {}
                }
                killed = self.place_kills_fact(place, fact);
                if killed {
                    touched = true;
                }
            }
            Stmt::Invoke(call) => {
                touched |= self.forward_call(m, stmt_idx, call, None, fact);
            }
            Stmt::Return(v) => {
                if let Some(v) = v {
                    if self.value_matches(v, fact) {
                        touched = true;
                        self.forward_return_value(m, fact);
                    }
                }
                // Mutated parameter objects flow back to caller arguments.
                if !fact.fields.is_empty() {
                    self.forward_exit_params(m, fact);
                }
            }
            Stmt::If { cond, .. } => {
                touched |=
                    self.value_matches(&cond.lhs, fact) || self.value_matches(&cond.rhs, fact);
            }
            Stmt::Switch { scrutinee, .. } => {
                touched |= self.value_matches(scrutinee, fact);
            }
            Stmt::Throw(v) => {
                touched |= self.value_matches(v, fact);
            }
            Stmt::Identity { .. } | Stmt::Goto { .. } | Stmt::Nop => {}
        }

        if touched {
            self.mark(m, stmt_idx);
        }
        // propagate to successors
        let succs = self.eng.neighbors(m, stmt_idx, Direction::Forward);
        for nf in out {
            if let Root::Static(k) = &nf.root {
                self.taint_static(k.clone());
            }
            for &s in &succs {
                self.enqueue(m, s, nf.clone());
            }
        }
        if !killed {
            for &s in &succs {
                self.enqueue(m, s, fact.clone());
            }
        }
    }

    /// Forward transfer across a call site; returns whether the statement
    /// touched the fact.
    fn forward_call(
        &mut self,
        m: MethodId,
        stmt_idx: usize,
        call: &Call,
        result: Option<&Place>,
        fact: &AccessPath,
    ) -> bool {
        let mut touched = false;
        let site: CallSite = (m, stmt_idx);
        let succs = self.eng.neighbors(m, stmt_idx, Direction::Forward);

        // 1. Explicit concrete targets (alias-narrowed): map into callee
        //    entry.
        let targets = self.eng.call_targets(site, call);
        for &t in &targets {
            let info = self.eng.info(t);
            // receiver
            if let Some(rv) = &call.receiver {
                if self.value_matches(rv, fact) {
                    if let Some(this) = info.this_local {
                        let nf = fact.rebase(Root::Local(this), &[], self.cap());
                        self.enqueue(t, 0, nf);
                        touched = true;
                    }
                }
            }
            // args
            for (i, av) in call.args.iter().enumerate() {
                if self.value_matches(av, fact) {
                    if let Some(Some(pl)) = info.param_locals.get(i) {
                        let nf = fact.rebase(Root::Local(*pl), &[], self.cap());
                        self.enqueue(t, 0, nf);
                        touched = true;
                    }
                }
            }
        }

        // 2. Implicit callback edges.
        let implicit = self.eng.graph.implicit_of(site).to_vec();
        for e in &implicit {
            let info = self.eng.info(e.target);
            if let Some(src) = e.recv_from {
                if let Some(v) = self.call_operand_value(call, src) {
                    if self.value_matches(v, fact) {
                        if let Some(this) = info.this_local {
                            let nf = fact.rebase(Root::Local(this), &[], self.cap());
                            self.enqueue(e.target, 0, nf);
                            touched = true;
                        }
                    }
                }
            }
            for (pi, src) in e.param_from.iter().enumerate() {
                let Some(src) = src else { continue };
                if let Some(v) = self.call_operand_value(call, *src) {
                    if self.value_matches(v, fact) {
                        if let Some(Some(pl)) = info.param_locals.get(pi) {
                            let nf = fact.rebase(Root::Local(*pl), &[], self.cap());
                            self.enqueue(e.target, 0, nf);
                            touched = true;
                        }
                    }
                }
            }
        }

        // 3. Modelled call (no concrete targets): apply the API flow model.
        if targets.is_empty() && implicit.is_empty() {
            let mut in_slots: Vec<Slot> = Vec::new();
            if let Some(rv) = &call.receiver {
                if self.value_matches(rv, fact) {
                    in_slots.push(Slot::Receiver);
                }
            }
            for (i, av) in call.args.iter().enumerate() {
                if self.value_matches(av, fact) {
                    in_slots.push(Slot::Arg(i));
                }
            }
            if !in_slots.is_empty() {
                touched = true;
                for (from, to) in self.eng.model.flows(&call.callee) {
                    if !in_slots.contains(&from) {
                        continue;
                    }
                    let target_value: Option<AccessPath> = match to {
                        Slot::Return => result.and_then(|p| self.fact_for_place(p, &[])),
                        Slot::Receiver => {
                            call.receiver.as_ref().and_then(Value::as_local).map(AccessPath::local)
                        }
                        Slot::Arg(i) => {
                            call.args.get(i).and_then(Value::as_local).map(AccessPath::local)
                        }
                    };
                    if let Some(nf) = target_value {
                        if let Root::Static(k) = &nf.root {
                            self.taint_static(k.clone());
                        }
                        for &s in &succs {
                            self.enqueue(m, s, nf.clone());
                        }
                    }
                }
            }
        }
        touched
    }

    /// A tainted value is returned from `callee`: taint the result place at
    /// every call site, and follow implicit `chains_to` links.
    fn forward_return_value(&mut self, callee: MethodId, fact: &AccessPath) {
        let callers = match self.eng.graph.callers.get(&callee) {
            Some(c) => c.clone(),
            None => return,
        };
        for (cm, cs) in callers {
            let body = &self.eng.prog.method(cm).body;
            let stmt = &body[cs];
            // Explicit call with an assigned result.
            if let Stmt::Assign { place, expr: Expr::Invoke(call) } = stmt {
                if self.eng.calls_into((cm, cs), call, callee) {
                    if let Some(nf) = self.fact_for_place(place, &fact.fields) {
                        self.mark(cm, cs);
                        if let Root::Static(k) = &nf.root {
                            self.taint_static(k.clone());
                        }
                        for s in self.eng.neighbors(cm, cs, Direction::Forward) {
                            self.enqueue(cm, s, nf.clone());
                        }
                    }
                }
            }
            // Implicit chain: the callback's return feeds the follow-up
            // callback's parameter (e.g. doInBackground → onPostExecute).
            for e in self.eng.graph.implicit_of((cm, cs)).to_vec() {
                if e.target != callee {
                    continue;
                }
                if let Some((chained, pidx)) = e.chains_to {
                    let info = self.eng.info(chained);
                    if let Some(Some(pl)) = info.param_locals.get(pidx as usize) {
                        let nf = fact.rebase(Root::Local(*pl), &[], self.cap());
                        self.enqueue(chained, 0, nf);
                    }
                    // The chained callback runs on the same receiver object:
                    // carry receiver-rooted facts over as well.
                    if let (Some(OperandSource::Receiver), Some(this)) =
                        (e.recv_from, self.eng.info(chained).this_local)
                    {
                        let callee_info = self.eng.info(callee);
                        if let Some(callee_this) = callee_info.this_local {
                            // Any fact rooted at callee's `this` with fields
                            // persists on the object; re-seed in chained cb.
                            if fact.rooted_at(callee_this) && !fact.fields.is_empty() {
                                let nf = fact.rebase(Root::Local(this), &[], self.cap());
                                self.enqueue(chained, 0, nf);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A parameter/receiver object was mutated (`fact` has fields) and the
    /// callee is exiting: propagate the mutation back to caller operands.
    fn forward_exit_params(&mut self, callee: MethodId, fact: &AccessPath) {
        let info = self.eng.info(callee);
        // Which entry binding is the fact rooted at?
        let as_operand: Option<OperandSource> =
            if info.this_local.map(|t| fact.rooted_at(t)).unwrap_or(false) {
                Some(OperandSource::Receiver)
            } else {
                info.param_locals.iter().enumerate().find_map(|(i, pl)| {
                    pl.filter(|pl| fact.rooted_at(*pl)).map(|_| OperandSource::Arg(i))
                })
            };
        let Some(op) = as_operand else { return };
        let callers = match self.eng.graph.callers.get(&callee) {
            Some(c) => c.clone(),
            None => return,
        };
        for (cm, cs) in callers {
            let body = &self.eng.prog.method(cm).body;
            let Some(call) = body[cs].call() else { continue };
            let Some(v) = self.call_operand_value(call, op) else { continue };
            let Some(l) = v.as_local() else { continue };
            let nf = fact.rebase(Root::Local(l), &[], self.cap());
            for s in self.eng.neighbors(cm, cs, Direction::Forward) {
                self.enqueue(cm, s, nf.clone());
            }
        }
    }

    // ---- backward -----------------------------------------------------------

    fn step_backward(&mut self, m: MethodId, stmt_idx: usize, fact: &AccessPath) {
        let body = &self.eng.prog.method(m).body;
        let stmt = &body[stmt_idx];
        let mut out: Vec<AccessPath> = Vec::new();
        let mut killed = false;
        let mut touched = false;

        match stmt {
            Stmt::Assign { place, expr } => {
                // Does this statement define (part of) the fact?
                let defines = self.place_reads_fact(place, fact);
                if let Some(suffix) = defines {
                    touched = true;
                    // "an object is untainted at its definition" — but only
                    // strong definitions (whole locals) kill.
                    killed = self.place_kills_fact(place, fact);
                    match expr {
                        Expr::Invoke(call) => {
                            self.backward_call(m, stmt_idx, call, &suffix, fact);
                        }
                        Expr::Use(v) => {
                            if let Some(l) = v.as_local() {
                                out.push(AccessPath {
                                    root: Root::Local(l),
                                    fields: suffix.clone(),
                                });
                            }
                        }
                        Expr::Load(p) => {
                            // fact came from reading p: taint p (+suffix)
                            if let Some(nf) = self.fact_for_place(p, &suffix) {
                                out.push(nf);
                            }
                        }
                        Expr::Un(_, v) | Expr::Cast(_, v) | Expr::InstanceOf(_, v) => {
                            if let Some(l) = v.as_local() {
                                out.push(AccessPath::local(l));
                            }
                        }
                        Expr::Bin(_, a, b) => {
                            for v in [a, b] {
                                if let Some(l) = v.as_local() {
                                    out.push(AccessPath::local(l));
                                }
                            }
                        }
                        Expr::New(_) | Expr::NewArray(_, _) => {
                            // Allocation: origin reached; nothing upstream.
                        }
                    }
                } else if let Expr::Invoke(call) = expr {
                    // The call may have mutated a tainted operand object.
                    touched |= self.backward_call_mutation(m, stmt_idx, call, fact);
                }
            }
            Stmt::Invoke(call) => {
                touched |= self.backward_call_mutation(m, stmt_idx, call, fact);
            }
            Stmt::Return(_) | Stmt::Goto { .. } | Stmt::Nop | Stmt::Throw(_) => {}
            Stmt::If { cond, .. } => {
                // Conditions do not generate backward facts, but note use.
                let _ = cond;
            }
            Stmt::Switch { .. } => {}
            Stmt::Identity { local, kind } => {
                // Backward flow reaching a parameter binding exits to
                // callers ("the taint information of callee's arguments is
                // propagated to caller's arguments").
                if fact.rooted_at(*local) {
                    touched = true;
                    self.backward_exit_to_callers(m, *kind, fact);
                }
            }
        }

        if touched {
            self.mark(m, stmt_idx);
        }
        let preds = self.eng.neighbors(m, stmt_idx, Direction::Backward);
        for nf in out {
            if let Root::Static(k) = &nf.root {
                self.taint_static(k.clone());
            }
            for &p in &preds {
                self.enqueue(m, p, nf.clone());
            }
        }
        if !killed {
            for &p in &preds {
                self.enqueue(m, p, fact.clone());
            }
        }
        // Entry statement with a parameter-rooted fact and no preds: the
        // identity handler above covers it because identity stmts are at
        // the entry block.
    }

    /// Backward transfer when the fact was defined by this call's result:
    /// enter the callee at its return statements.
    fn backward_call(
        &mut self,
        m: MethodId,
        stmt_idx: usize,
        call: &Call,
        suffix: &[String],
        _fact: &AccessPath,
    ) {
        let site: CallSite = (m, stmt_idx);
        let targets = self.eng.call_targets(site, call);
        let mut modeled = targets.is_empty();
        for &t in &targets {
            let info = self.eng.info(t);
            let body = &self.eng.prog.method(t).body;
            for &ri in &info.returns {
                if let Stmt::Return(Some(v)) = &body[ri] {
                    if let Some(l) = v.as_local() {
                        let mut fields = suffix.to_vec();
                        fields.truncate(self.cap());
                        self.enqueue(t, ri, AccessPath { root: Root::Local(l), fields });
                    }
                }
            }
        }
        if self.eng.graph.implicit_of(site).is_empty() && modeled {
            modeled = true;
        } else if !targets.is_empty() {
            modeled = false;
        }
        if modeled {
            // Reverse the API model: result tainted ⇒ inputs tainted.
            for (from, to) in self.eng.model.flows(&call.callee) {
                if to != Slot::Return {
                    continue;
                }
                let v = match from {
                    Slot::Receiver => call.receiver.as_ref(),
                    Slot::Arg(i) => call.args.get(i),
                    Slot::Return => None,
                };
                if let Some(l) = v.and_then(Value::as_local) {
                    let nf = AccessPath::local(l);
                    for p in self.eng.neighbors(m, stmt_idx, Direction::Backward) {
                        self.enqueue(m, p, nf.clone());
                    }
                }
            }
        }
    }

    /// Backward transfer when a tainted object may have been mutated by
    /// this call (fact rooted at one of its operands): enter the callee
    /// backward from its exits with the fact re-rooted at the matching
    /// parameter, and for modelled calls reverse receiver/arg flows.
    fn backward_call_mutation(
        &mut self,
        m: MethodId,
        stmt_idx: usize,
        call: &Call,
        fact: &AccessPath,
    ) -> bool {
        let mut touched = false;
        let site: CallSite = (m, stmt_idx);
        let op_of_fact: Option<OperandSource> =
            if call.receiver.as_ref().map(|v| self.value_matches(v, fact)).unwrap_or(false) {
                Some(OperandSource::Receiver)
            } else {
                call.args.iter().position(|v| self.value_matches(v, fact)).map(OperandSource::Arg)
            };
        let Some(op) = op_of_fact else { return false };
        let targets = self.eng.call_targets(site, call);
        for &t in &targets {
            let info = self.eng.info(t);
            let entry_local = match op {
                OperandSource::Receiver => info.this_local,
                OperandSource::Arg(i) => info.param_locals.get(i).copied().flatten(),
            };
            if let Some(el) = entry_local {
                let nf = fact.rebase(Root::Local(el), &[], self.cap());
                let body_len = self.eng.prog.method(t).body.len();
                for &ri in &info.returns {
                    self.enqueue(t, ri, nf.clone());
                }
                if info.returns.is_empty() && body_len > 0 {
                    self.enqueue(t, body_len - 1, nf.clone());
                }
                touched = true;
            }
        }
        if targets.is_empty() && self.eng.graph.implicit_of(site).is_empty() {
            // Modelled call: receiver/arg mutated from other inputs — e.g.
            // `sb.append(x)` backward: tainted sb ⇒ taint x.
            let mut any = false;
            for (from, to) in self.eng.model.flows(&call.callee) {
                let to_matches = match to {
                    Slot::Receiver => op == OperandSource::Receiver,
                    Slot::Arg(i) => op == OperandSource::Arg(i),
                    Slot::Return => false,
                };
                if !to_matches {
                    continue;
                }
                any = true;
                let v = match from {
                    Slot::Receiver => call.receiver.as_ref(),
                    Slot::Arg(i) => call.args.get(i),
                    Slot::Return => None,
                };
                if let Some(l) = v.and_then(Value::as_local) {
                    let nf = AccessPath::local(l);
                    for p in self.eng.neighbors(m, stmt_idx, Direction::Backward) {
                        self.enqueue(m, p, nf.clone());
                    }
                }
            }
            touched = any;
        }
        touched
    }

    /// A backward fact reached a parameter/this binding: continue at every
    /// caller, re-rooted at the corresponding operand.
    fn backward_exit_to_callers(&mut self, m: MethodId, kind: IdentityKind, fact: &AccessPath) {
        let callers = match self.eng.graph.callers.get(&m) {
            Some(c) => c.clone(),
            None => return,
        };
        for (cm, cs) in callers {
            let body = &self.eng.prog.method(cm).body;
            let Some(call) = body[cs].call() else { continue };
            // Figure out the operand for this binding, both for explicit
            // calls and implicit callback edges.
            let mut operand: Option<&Value> = None;
            if self.eng.calls_into((cm, cs), call, m) {
                operand = match kind {
                    IdentityKind::This => call.receiver.as_ref(),
                    IdentityKind::Param(i) => call.args.get(i as usize),
                    IdentityKind::CaughtException => None,
                };
            } else {
                for e in self.eng.graph.implicit_of((cm, cs)) {
                    if e.target != m {
                        continue;
                    }
                    operand = match kind {
                        IdentityKind::This => {
                            e.recv_from.and_then(|src| self.call_operand_value(call, src))
                        }
                        IdentityKind::Param(i) => e
                            .param_from
                            .get(i as usize)
                            .copied()
                            .flatten()
                            .and_then(|src| self.call_operand_value(call, src)),
                        IdentityKind::CaughtException => None,
                    };
                    if operand.is_some() {
                        break;
                    }
                }
            }
            if let Some(l) = operand.and_then(Value::as_local) {
                let nf = fact.rebase(Root::Local(l), &[], self.cap());
                self.mark(cm, cs);
                for p in self.eng.neighbors(cm, cs, Direction::Backward) {
                    self.enqueue(cm, p, nf.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callbacks::CallbackRegistry;
    use extractocol_ir::{Apk, ApkBuilder, Type, Value};

    fn analyze(
        apk: &Apk,
        dir: Direction,
        seed_method: (&str, &str, usize),
        seed_builder: impl FnOnce(&ProgramIndex<'_>, MethodId) -> Seed,
    ) -> (TaintReport, Vec<String>) {
        let prog = ProgramIndex::new(apk);
        let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
        let engine = TaintEngine::new(&prog, &graph, &ConservativeModel, TaintOptions::default());
        let mid = prog.resolve_method(seed_method.0, seed_method.1, seed_method.2).unwrap();
        let seed = seed_builder(&prog, mid);
        let report = engine.run(dir, &[seed]);
        let mut methods: Vec<String> =
            report.methods().into_iter().map(|m| prog.method_display(m)).collect();
        methods.sort();
        (report, methods)
    }

    /// Straight-line forward flow through locals and fields.
    #[test]
    fn forward_through_locals_and_fields() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.C", |c| {
            let f = c.field("data", Type::string());
            c.method("m", vec![Type::string()], Type::Void, |m| {
                let this = m.recv("t.C");
                let p = m.arg(0, "p");
                let x = m.temp(Type::string());
                m.copy(x, p); // x = p (tainted)
                m.put_field(this, &f, x); // this.data = x
                let y = m.temp(Type::string());
                m.get_field(y, this, &f); // y = this.data
                let z = m.temp(Type::string());
                m.copy(z, y);
                m.ret_void();
            });
        });
        let apk = b.build();
        let (report, _) = analyze(&apk, Direction::Forward, ("t.C", "m", 1), |prog, mid| {
            // seed: parameter local tainted at entry
            let info_local = prog
                .method(mid)
                .body
                .iter()
                .find_map(|s| match s {
                    Stmt::Identity { local, kind: IdentityKind::Param(0) } => Some(*local),
                    _ => None,
                })
                .unwrap();
            Seed { method: mid, stmt: 0, fact: AccessPath::local(info_local) }
        });
        // The copies, the store, the load, and the final copy are all sliced.
        assert!(report.slice.len() >= 4, "slice: {:?}", report.slice);
    }

    /// Forward flow across a call: argument → parameter → return value.
    #[test]
    fn forward_across_calls_and_returns() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.C", |c| {
            c.static_method("id", vec![Type::string()], Type::string(), |m| {
                let p = m.arg(0, "p");
                m.ret(p);
            });
            c.static_method("main", vec![Type::string()], Type::Void, |m| {
                let p = m.arg(0, "src");
                let r = m.scall("t.C", "id", vec![Value::Local(p)], Type::string());
                let s = m.temp(Type::string());
                m.copy(s, r);
                m.ret_void();
            });
        });
        let apk = b.build();
        let (report, methods) =
            analyze(&apk, Direction::Forward, ("t.C", "main", 1), |prog, mid| {
                let p = prog
                    .method(mid)
                    .body
                    .iter()
                    .find_map(|s| match s {
                        Stmt::Identity { local, kind: IdentityKind::Param(0) } => Some(*local),
                        _ => None,
                    })
                    .unwrap();
                Seed { method: mid, stmt: 0, fact: AccessPath::local(p) }
            });
        assert!(methods.iter().any(|m| m.contains("id(")), "methods: {methods:?}");
        // the copy after the call is reached via return flow
        let prog = ProgramIndex::new(&apk);
        let main = prog.resolve_method("t.C", "main", 1).unwrap();
        let copy_idx = prog.method(main).body.len() - 2;
        assert!(report.facts_at.contains_key(&(main, copy_idx)));
    }

    /// Backward flow: from a sink argument to its string origins.
    #[test]
    fn backward_collects_uri_construction() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.C", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.C");
                let base = m.temp(Type::string());
                m.cstr(base, "http://x/"); // origin
                let u = m.temp(Type::string());
                m.copy(u, base);
                let unrelated = m.temp(Type::string());
                m.cstr(unrelated, "other"); // must NOT be sliced
                m.scall_void("t.Http", "send", vec![Value::Local(u)]);
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let graph = CallGraph::build(&prog, &CallbackRegistry::empty());
        let engine = TaintEngine::new(&prog, &graph, &ConservativeModel, TaintOptions::default());
        let mid = prog.resolve_method("t.C", "go", 0).unwrap();
        // seed: backward from the send() call on its argument local
        let (send_idx, u_local) = prog
            .method(mid)
            .body
            .iter()
            .enumerate()
            .find_map(|(i, s)| {
                s.call()
                    .filter(|c| c.callee.name == "send")
                    .and_then(|c| c.args[0].as_local())
                    .map(|l| (i, l))
            })
            .unwrap();
        let report = engine.run(
            Direction::Backward,
            &[Seed { method: mid, stmt: send_idx, fact: AccessPath::local(u_local) }],
        );
        let sliced = report.stmts_in(mid);
        // body: 0 recv, 1 `base = "http://x/"`, 2 `u = base`, 3 unrelated,
        // 4 send, 5 return. The construction chain is sliced; the
        // unrelated constant is not.
        assert!(sliced.contains(&1), "sliced: {sliced:?}");
        assert!(sliced.contains(&2), "sliced: {sliced:?}");
        assert!(!sliced.contains(&3), "sliced: {sliced:?}");
    }

    /// Backward propagation crosses call boundaries caller←callee.
    #[test]
    fn backward_across_call_boundary() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.C", |c| {
            c.static_method("mk", vec![Type::string()], Type::string(), |m| {
                let p = m.arg(0, "p");
                let r = m.temp(Type::string());
                m.copy(r, p);
                m.ret(r);
            });
            c.static_method("main", vec![], Type::Void, |m| {
                let s = m.temp(Type::string());
                m.cstr(s, "http://api/"); // origin, reached via mk()
                let u = m.scall("t.C", "mk", vec![Value::Local(s)], Type::string());
                m.scall_void("t.Http", "send", vec![Value::Local(u)]);
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let graph = CallGraph::build(&prog, &CallbackRegistry::empty());
        let engine = TaintEngine::new(&prog, &graph, &ConservativeModel, TaintOptions::default());
        let main = prog.resolve_method("t.C", "main", 0).unwrap();
        let (send_idx, u_local) = prog
            .method(main)
            .body
            .iter()
            .enumerate()
            .find_map(|(i, s)| {
                s.call()
                    .filter(|c| c.callee.name == "send")
                    .and_then(|c| c.args[0].as_local())
                    .map(|l| (i, l))
            })
            .unwrap();
        let report = engine.run(
            Direction::Backward,
            &[Seed { method: main, stmt: send_idx, fact: AccessPath::local(u_local) }],
        );
        let mk = prog.resolve_method("t.C", "mk", 1).unwrap();
        assert!(
            report.slice.iter().any(|(m, _)| *m == mk),
            "mk() must appear in the backward slice"
        );
        // The origin constant in main is sliced too.
        assert!(report.stmts_in(main).contains(&0), "slice: {:?}", report.stmts_in(main));
    }

    /// Static fields carry taint across methods (flow-insensitively).
    #[test]
    fn statics_bridge_methods_forward() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.C", |c| {
            let sf = c.static_field("TOKEN", Type::string());
            c.static_method("setter", vec![Type::string()], Type::Void, |m| {
                let p = m.arg(0, "p");
                m.put_static(&sf, p);
                m.ret_void();
            });
            c.static_method("getter", vec![], Type::string(), |m| {
                let v = m.temp(Type::string());
                m.get_static(v, &sf);
                m.ret(v);
            });
        });
        let apk = b.build();
        let (report, methods) =
            analyze(&apk, Direction::Forward, ("t.C", "setter", 1), |prog, mid| {
                let p = prog
                    .method(mid)
                    .body
                    .iter()
                    .find_map(|s| match s {
                        Stmt::Identity { local, kind: IdentityKind::Param(0) } => Some(*local),
                        _ => None,
                    })
                    .unwrap();
                Seed { method: mid, stmt: 0, fact: AccessPath::local(p) }
            });
        assert!(report.statics.contains("t.C#TOKEN"));
        assert!(methods.iter().any(|m| m.contains("getter")), "methods: {methods:?}");
    }

    /// Implicit AsyncTask edges: execute(arg) reaches doInBackground and
    /// its return reaches onPostExecute.
    #[test]
    fn forward_through_asynctask_chain() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("android.os.AsyncTask", |c| {
            c.stub_method("execute", vec![Type::obj_root()], Type::Void);
        });
        b.class("t.Task", |c| {
            c.extends("android.os.AsyncTask");
            c.method("doInBackground", vec![Type::obj_root()], Type::obj_root(), |m| {
                m.recv("t.Task");
                let p = m.arg(0, "p");
                let r = m.temp(Type::obj_root());
                m.copy(r, p);
                m.ret(r);
            });
            c.method("onPostExecute", vec![Type::obj_root()], Type::Void, |m| {
                m.recv("t.Task");
                let r = m.arg(0, "r");
                let sink = m.temp(Type::obj_root());
                m.copy(sink, r);
                m.ret_void();
            });
        });
        b.class("t.Main", |c| {
            c.static_method("go", vec![Type::string()], Type::Void, |m| {
                let p = m.arg(0, "url");
                let task = m.new_obj("t.Task", vec![]);
                m.vcall_void(task, "t.Task", "execute", vec![Value::Local(p)]);
                m.ret_void();
            });
        });
        let apk = b.build();
        let (_, methods) = analyze(&apk, Direction::Forward, ("t.Main", "go", 1), |prog, mid| {
            let p = prog
                .method(mid)
                .body
                .iter()
                .find_map(|s| match s {
                    Stmt::Identity { local, kind: IdentityKind::Param(0) } => Some(*local),
                    _ => None,
                })
                .unwrap();
            Seed { method: mid, stmt: 0, fact: AccessPath::local(p) }
        });
        assert!(methods.iter().any(|m| m.contains("doInBackground")), "methods: {methods:?}");
        assert!(methods.iter().any(|m| m.contains("onPostExecute")), "methods: {methods:?}");
    }

    /// Strong updates kill facts: overwriting a local stops propagation.
    #[test]
    fn forward_strong_update_kills() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.C", |c| {
            c.static_method("m", vec![Type::string()], Type::Void, |m| {
                let p = m.arg(0, "p");
                let x = m.temp(Type::string());
                m.copy(x, p);
                m.cstr(x, "clean"); // kills taint on x
                let y = m.temp(Type::string());
                m.copy(y, x); // should NOT be sliced via x
                m.ret_void();
            });
        });
        let apk = b.build();
        let (report, _) = analyze(&apk, Direction::Forward, ("t.C", "m", 1), |prog, mid| {
            let p = prog
                .method(mid)
                .body
                .iter()
                .find_map(|s| match s {
                    Stmt::Identity { local, kind: IdentityKind::Param(0) } => Some(*local),
                    _ => None,
                })
                .unwrap();
            Seed { method: mid, stmt: 0, fact: AccessPath::local(p) }
        });
        let prog = ProgramIndex::new(&apk);
        let mid = prog.resolve_method("t.C", "m", 1).unwrap();
        let sliced = report.stmts_in(mid);
        // body: ident, x=p (1), x="clean" (2, kill), y=x (3)
        assert!(sliced.contains(&1));
        assert!(sliced.contains(&2), "kill site is part of the slice");
        assert!(!sliced.contains(&3), "flow must stop at the strong update");
    }

    /// Field-depth cap truncates instead of losing facts.
    #[test]
    fn depth_cap_overapproximates() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.N", |c| {
            c.field("inner", Type::object("t.N"));
            c.field("leaf", Type::string());
        });
        b.class("t.C", |c| {
            c.static_method("m", vec![Type::string()], Type::Void, |m| {
                let p = m.arg(0, "p");
                let n1 = m.new_obj("t.N", vec![]);
                let n2 = m.new_obj("t.N", vec![]);
                let leaf = extractocol_ir::FieldRef::new("t.N", "leaf", Type::string());
                let inner = extractocol_ir::FieldRef::new("t.N", "inner", Type::object("t.N"));
                m.put_field(n2, &leaf, p); // n2.leaf = p
                m.put_field(n1, &inner, n2); // n1.inner = n2
                let out = m.temp(Type::object("t.N"));
                m.get_field(out, n1, &inner); // out = n1.inner (tainted at depth 2)
                let s = m.temp(Type::string());
                m.get_field(s, out, &leaf); // s = out.leaf → tainted
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let graph = CallGraph::build(&prog, &CallbackRegistry::empty());
        // depth 1: n1.inner.leaf truncates to n1.inner — still found.
        let engine = TaintEngine::new(
            &prog,
            &graph,
            &ConservativeModel,
            TaintOptions { max_field_depth: 1, ..TaintOptions::default() },
        );
        let mid = prog.resolve_method("t.C", "m", 1).unwrap();
        let p = prog
            .method(mid)
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Identity { local, kind: IdentityKind::Param(0) } => Some(*local),
                _ => None,
            })
            .unwrap();
        let report = engine
            .run(Direction::Forward, &[Seed { method: mid, stmt: 0, fact: AccessPath::local(p) }]);
        let sliced = report.stmts_in(mid);
        let last_load = prog.method(mid).body.len() - 2;
        assert!(sliced.contains(&last_load), "sliced: {sliced:?}");
    }

    /// Two entry points funnelling into one helper chain — the shape the
    /// method-summary cache exists for.
    fn shared_helper_apk() -> Apk {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.C", |c| {
            for i in 0..3usize {
                let next = format!("h{}", i + 1);
                let last = i == 2;
                c.static_method(&format!("h{i}"), vec![Type::string()], Type::string(), move |m| {
                    let p = m.arg(0, "p");
                    if last {
                        m.ret(p);
                    } else {
                        let r = m.scall("t.C", &next, vec![Value::Local(p)], Type::string());
                        m.ret(r);
                    }
                });
            }
            for entry in ["a", "b"] {
                c.static_method(entry, vec![Type::string()], Type::Void, |m| {
                    let p = m.arg(0, "p");
                    let r = m.scall("t.C", "h0", vec![Value::Local(p)], Type::string());
                    let s = m.temp(Type::string());
                    m.copy(s, r);
                    m.ret_void();
                });
            }
        });
        b.build()
    }

    fn entry_seed(prog: &ProgramIndex<'_>, name: &str) -> Seed {
        let mid = prog.resolve_method("t.C", name, 1).unwrap();
        let p = prog
            .method(mid)
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Identity { local, kind: IdentityKind::Param(0) } => Some(*local),
                _ => None,
            })
            .unwrap();
        Seed { method: mid, stmt: 0, fact: AccessPath::local(p) }
    }

    fn sorted_slice(r: &TaintReport) -> Vec<(MethodId, usize)> {
        let mut v: Vec<_> = r.slice.iter().copied().collect();
        v.sort();
        v
    }

    /// Distinct seeds re-entering shared helpers hit the cache, and the
    /// cached engine's slices equal the uncached engine's.
    #[test]
    fn summary_cache_hits_on_shared_helpers_without_changing_results() {
        let apk = shared_helper_apk();
        let prog = ProgramIndex::new(&apk);
        let graph = CallGraph::build(&prog, &CallbackRegistry::empty());
        let cached = TaintEngine::new(&prog, &graph, &ConservativeModel, TaintOptions::default());
        let plain = TaintEngine::new(
            &prog,
            &graph,
            &ConservativeModel,
            TaintOptions { summary_cache: false, ..TaintOptions::default() },
        );
        for entry in ["a", "b"] {
            let seed = entry_seed(&prog, entry);
            let with = cached.run(Direction::Forward, std::slice::from_ref(&seed));
            let without = plain.run(Direction::Forward, &[seed]);
            assert_eq!(sorted_slice(&with), sorted_slice(&without), "entry {entry}");
            assert_eq!(with.statics, without.statics);
        }
        let stats = cached.cache_stats();
        assert!(stats.hits > 0, "helper segments reused: {stats:?}");
        assert!(stats.misses > 0);
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        assert_eq!(plain.cache_stats(), CacheStats::default());
        assert_eq!(plain.cache_stats().hit_rate(), 0.0);
    }

    /// Re-running identical seeds is answered entirely from the cache.
    #[test]
    fn summary_cache_repeat_run_is_all_hits() {
        let apk = shared_helper_apk();
        let prog = ProgramIndex::new(&apk);
        let graph = CallGraph::build(&prog, &CallbackRegistry::empty());
        let engine = TaintEngine::new(&prog, &graph, &ConservativeModel, TaintOptions::default());
        let seed = entry_seed(&prog, "a");
        let first = engine.run(Direction::Forward, std::slice::from_ref(&seed));
        let after_first = engine.cache_stats();
        let second = engine.run(Direction::Forward, &[seed]);
        let after_second = engine.cache_stats();
        assert_eq!(sorted_slice(&first), sorted_slice(&second));
        assert_eq!(after_second.misses, after_first.misses, "no new segments on a repeat run");
        assert!(after_second.hits > after_first.hits);
    }

    /// Concurrency smoke test: one engine, many threads, identical
    /// per-thread results and coherent counters.
    #[test]
    fn summary_cache_is_shareable_across_threads() {
        let apk = shared_helper_apk();
        let prog = ProgramIndex::new(&apk);
        let graph = CallGraph::build(&prog, &CallbackRegistry::empty());
        let engine = TaintEngine::new(&prog, &graph, &ConservativeModel, TaintOptions::default());
        let baseline = sorted_slice(&engine.run(Direction::Forward, &[entry_seed(&prog, "a")]));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let r = engine.run(Direction::Forward, &[entry_seed(&prog, "a")]);
                        sorted_slice(&r)
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), baseline);
            }
        });
        let stats = engine.cache_stats();
        assert!(stats.hits >= 8, "repeat runs served from cache: {stats:?}");
    }
}
