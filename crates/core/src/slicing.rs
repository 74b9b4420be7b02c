//! Network-aware program slicing (paper §3.1).
//!
//! From every demarcation point, Extractocol runs *bi-directional* taint
//! propagation: backward from the request operand (yielding the **request
//! slice** — "the code and objects for constructing a request") and forward
//! from the response object (the **response slice** — "the code and objects
//! used for processing a response"). Two refinements follow:
//!
//! * **Object-aware slice augmentation**: a forward slice "may not be
//!   self-contained … if an object used in a forward slice is initialized
//!   before the demarcation point"; such initialization statements are
//!   pulled in from backward slices sharing the DP, to a fixpoint.
//! * **Asynchronous events** (§3.4): request-constructing heap objects may
//!   be written by one event handler and read by another; for each field
//!   cell read in a request slice, backward propagation re-runs from every
//!   out-of-slice store to that cell (one hop, matching the paper's stated
//!   limitation).

use crate::demarcation::DpSite;
use crate::flowmodel::SemanticFlowModel;
use crate::semantics::{DpResponseLoc, SemanticModel};
use extractocol_analysis::{
    AccessPath, CallGraph, Direction, PointsTo, Seed, TaintEngine, TaintOptions, TaintReport,
};
use extractocol_ir::{Expr, Local, MethodId, Place, ProgramIndex, Stmt, Value};
use extractocol_obs::TraceCollector;
use std::collections::HashSet;

/// Options for the slicing phase.
#[derive(Clone, Debug)]
pub struct SliceOptions {
    /// Enable the §3.4 asynchronous-event heuristic (the evaluation turns
    /// it off for open-source apps and on for closed-source ones, §5.1).
    pub async_heuristic: bool,
    /// How many asynchronous hops to chase. The paper's implementation
    /// "only detects dependencies across one hop" but notes that "one can
    /// perform multiple iterations until it does not discover new
    /// dependencies" (§4) — values > 1 implement that extension.
    pub async_hops: usize,
    /// Enable object-aware forward-slice augmentation (ablation toggle).
    pub augmentation: bool,
    /// Access-path depth for the taint engine.
    pub max_field_depth: usize,
}

impl Default for SliceOptions {
    fn default() -> Self {
        SliceOptions {
            async_heuristic: true,
            async_hops: 1,
            augmentation: true,
            max_field_depth: 2,
        }
    }
}

/// The slices of one demarcation point.
#[derive(Debug)]
pub struct SliceSet {
    pub dp: DpSite,
    /// Backward (request) slice statements.
    pub request_slice: HashSet<(MethodId, usize)>,
    /// Forward (response) slice statements, after augmentation.
    pub response_slice: HashSet<(MethodId, usize)>,
    /// Full backward report (facts, statics) for downstream phases.
    pub request_report: TaintReport,
    /// Full forward report.
    pub response_report: TaintReport,
}

impl SliceSet {
    /// All statements in either slice.
    pub fn all_stmts(&self) -> HashSet<(MethodId, usize)> {
        self.request_slice.union(&self.response_slice).copied().collect()
    }
}

/// Aggregate slice statistics (paper Fig. 3 reports Diode's slices cover
/// 6.3% of all code).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStats {
    pub total_stmts: usize,
    pub sliced_stmts: usize,
}

impl SliceStats {
    /// Sliced fraction of the program.
    pub fn fraction(&self) -> f64 {
        if self.total_stmts == 0 {
            0.0
        } else {
            self.sliced_stmts as f64 / self.total_stmts as f64
        }
    }
}

/// Runs bidirectional slicing for every DP site, sequentially, over a
/// fresh whole-program [`TaintEngine`] without points-to information.
pub fn slice_all(
    prog: &ProgramIndex<'_>,
    graph: &CallGraph,
    model: &SemanticModel,
    sites: &[DpSite],
    opts: &SliceOptions,
) -> Vec<SliceSet> {
    let flow_model = SemanticFlowModel::new(model, prog);
    let engine = TaintEngine::new(
        prog,
        graph,
        &flow_model,
        TaintOptions { max_field_depth: opts.max_field_depth, ..TaintOptions::default() },
    );
    slice_all_on(&engine, prog, graph, sites, opts, 1, None, &TraceCollector::disabled())
}

/// Runs bidirectional slicing for every DP site over a caller-owned
/// [`TaintEngine`], fanning independent DPs across up to `jobs` worker
/// threads (`0` = one per core, `1` = sequential). The engine — and
/// therefore its method-summary cache — is shared by every worker, so
/// helper methods reached from several DPs are analyzed once
/// ([`TaintEngine::cache_stats`] quantifies that sharing). Owning the
/// engine lets the incremental pipeline preload persisted summaries
/// before slicing and export the final summary set afterwards. Results
/// are ordered by DP site regardless of `jobs`.
///
/// The engine must have been built over `prog`/`graph` with the same
/// `pts` and field depth. With `pts`, the §3.4 async heuristic only
/// bridges field cells whose base objects may alias, and augmentation
/// seeds initialization contexts from allocation sites.
///
/// Records one `dp` span per demarcation point into `trace` (attributes:
/// `dp_id`, `method`, slice sizes, summary-cache delta). Worker threads
/// record into the same collector; with `jobs <= 1` the spans nest under
/// the caller's open `phase:slicing` span.
#[allow(clippy::too_many_arguments)]
pub fn slice_all_on(
    engine: &TaintEngine<'_, '_, '_>,
    prog: &ProgramIndex<'_>,
    graph: &CallGraph,
    sites: &[DpSite],
    opts: &SliceOptions,
    jobs: usize,
    pts: Option<&PointsTo>,
    trace: &TraceCollector,
) -> Vec<SliceSet> {
    crate::par::parallel_map(sites, jobs, |_, dp| {
        let mut span = trace.span_in("dp", format!("dp:{}", dp.id));
        let before = engine.cache_stats();
        let set = slice_one(prog, graph, engine, dp, opts, pts);
        if span.is_recording() {
            let after = engine.cache_stats();
            let m = prog.method(dp.method);
            span.attr("dp_id", dp.id)
                .attr("method", format!("{}.{}", prog.class(dp.method.class).name, m.name))
                .attr("dp_class", dp.spec.class.as_str())
                .attr("request_stmts", set.request_slice.len())
                .attr("response_stmts", set.response_slice.len())
                .attr("cache_lookups_during", after.lookups() - before.lookups());
        }
        set
    })
}

fn slice_one(
    prog: &ProgramIndex<'_>,
    graph: &CallGraph,
    engine: &TaintEngine<'_, '_, '_>,
    dp: &DpSite,
    opts: &SliceOptions,
    pts: Option<&PointsTo>,
) -> SliceSet {
    // ---- backward (request) slice ----
    let mut request_report = TaintReport::default();
    if let Some(Value::Local(req)) = &dp.request_value {
        request_report = engine.run(
            Direction::Backward,
            &[Seed { method: dp.method, stmt: dp.stmt, fact: AccessPath::local(*req) }],
        );
        if opts.async_heuristic {
            for _ in 0..opts.async_hops.max(1) {
                if !async_augment(prog, engine, &mut request_report, pts) {
                    break; // fixpoint: no new dependencies discovered
                }
            }
        }
    }
    let mut request_slice = request_report.slice.clone();
    request_slice.insert((dp.method, dp.stmt));

    // ---- forward (response) slice ----
    let mut seeds: Vec<Seed> = Vec::new();
    match dp.spec.response {
        DpResponseLoc::Return => {
            if let Some(Place::Local(resp)) = &dp.response_place {
                // The fact holds after the DP statement: seed at the DP and
                // let the engine's successor propagation carry it; seeding
                // directly at successors keeps the DP out of the kill path.
                let body_len = prog.method(dp.method).body.len();
                if dp.stmt + 1 < body_len {
                    seeds.push(Seed {
                        method: dp.method,
                        stmt: dp.stmt + 1,
                        fact: AccessPath::local(*resp),
                    });
                }
            }
        }
        DpResponseLoc::Callback => {
            // The response arrives as a framework-fed callback parameter:
            // seed every implicit-edge parameter with no app-side source.
            for e in graph.implicit_of((dp.method, dp.stmt)) {
                let target = prog.method(e.target);
                if target.body.is_empty() {
                    continue;
                }
                for (pi, from) in e.param_from.iter().enumerate() {
                    if from.is_some() {
                        continue;
                    }
                    if let Some(l) = param_local(prog, e.target, pi) {
                        seeds.push(Seed { method: e.target, stmt: 0, fact: AccessPath::local(l) });
                    }
                }
            }
        }
        DpResponseLoc::Consumed => {}
    }
    let mut response_report = if seeds.is_empty() {
        TaintReport::default()
    } else {
        engine.run(Direction::Forward, &seeds)
    };

    // ---- object-aware augmentation ----
    if opts.augmentation {
        augment(prog, &request_report, &mut response_report, (dp.method, dp.stmt), pts);
    }
    let mut response_slice = response_report.slice.clone();
    if !seeds.is_empty() {
        response_slice.insert((dp.method, dp.stmt));
    }

    SliceSet { dp: dp.clone(), request_slice, response_slice, request_report, response_report }
}

/// The local bound to parameter `pi` of `mid`.
fn param_local(prog: &ProgramIndex<'_>, mid: MethodId, pi: usize) -> Option<Local> {
    prog.method(mid).body.iter().find_map(|s| match s {
        Stmt::Identity { local, kind: extractocol_ir::IdentityKind::Param(p) }
            if *p as usize == pi =>
        {
            Some(*local)
        }
        _ => None,
    })
}

/// The local defined by a statement, if it assigns a whole local.
fn defined_local(stmt: &Stmt) -> Option<Local> {
    match stmt {
        Stmt::Assign { place: Place::Local(l), .. } => Some(*l),
        _ => None,
    }
}

/// The `<init>` call paired with the allocation at `(mid, alloc_stmt)`:
/// the first `specialinvoke <init>` on the allocated local after the
/// allocation, stopping if the local is reassigned first.
fn constructor_after(prog: &ProgramIndex<'_>, mid: MethodId, alloc_stmt: usize) -> Option<usize> {
    let body = &prog.method(mid).body;
    let obj = defined_local(body.get(alloc_stmt)?)?;
    for (off, stmt) in body[alloc_stmt + 1..].iter().enumerate() {
        let si = alloc_stmt + 1 + off;
        if let Stmt::Invoke(c) = stmt {
            if c.callee.name == "<init>"
                && c.receiver.as_ref().and_then(Value::as_local) == Some(obj)
            {
                return Some(si);
            }
        }
        if defined_local(stmt) == Some(obj) {
            return None;
        }
    }
    None
}

/// All locals read by a statement.
fn used_locals(stmt: &Stmt) -> Vec<Local> {
    fn add_value(out: &mut Vec<Local>, v: &Value) {
        if let Value::Local(l) = v {
            out.push(*l);
        }
    }
    let mut out = Vec::new();
    match stmt {
        Stmt::Assign { place, expr } => {
            match place {
                Place::InstanceField { base, .. } => out.push(*base),
                Place::ArrayElem { base, index } => {
                    out.push(*base);
                    add_value(&mut out, index);
                }
                _ => {}
            }
            match expr {
                Expr::Load(p) => {
                    if let Some(b) = p.base_local() {
                        out.push(b);
                    }
                    if let Place::ArrayElem { index, .. } = p {
                        add_value(&mut out, index);
                    }
                }
                other => {
                    for v in other.operands() {
                        add_value(&mut out, v);
                    }
                }
            }
        }
        Stmt::Invoke(c) => {
            for v in c.operands() {
                add_value(&mut out, v);
            }
        }
        Stmt::If { cond, .. } => {
            add_value(&mut out, &cond.lhs);
            add_value(&mut out, &cond.rhs);
        }
        Stmt::Switch { scrutinee, .. } => add_value(&mut out, scrutinee),
        Stmt::Return(Some(v)) | Stmt::Throw(v) => add_value(&mut out, v),
        _ => {}
    }
    out
}

/// Object-aware augmentation: make forward slices self-contained by
/// pulling in the initialization context of objects they use — both from
/// the request slice sharing the DP and from the surrounding method bodies
/// ("if an object used in a forward slice is initialized before the
/// demarcation point, the slice does not contain the initialization
/// parameters", §3.1) — repeating "until no statements are added".
fn augment(
    prog: &ProgramIndex<'_>,
    request: &TaintReport,
    response: &mut TaintReport,
    dp_site: (MethodId, usize),
    pts: Option<&PointsTo>,
) {
    // Candidate statements: the request slice plus every statement of a
    // method the response slice already touches. The DP statement itself is
    // never a candidate: pulling it in would chain backwards through the
    // request operand and drag the entire request construction into the
    // response slice.
    let mut candidates: Vec<(MethodId, usize)> =
        request.slice.iter().copied().filter(|site| *site != dp_site).collect();
    let mut touched: HashSet<MethodId> = response.slice.iter().map(|(m, _)| *m).collect();

    // With points-to results, initialization contexts come from the
    // objects' actual allocation sites — which may live in a method
    // neither slice has touched (a factory, a shared setup helper) that
    // the declared-type/def-chain candidates above can never reach.
    if let Some(pts) = pts {
        let mut extra: Vec<(MethodId, usize)> = Vec::new();
        for &(m, s) in &response.slice {
            for l in used_locals(&prog.method(m).body[s]) {
                for &a in pts.local_pts(m, l) {
                    let alloc = pts.alloc(a);
                    extra.push((alloc.method, alloc.stmt));
                    // The paired constructor call directly follows the
                    // allocation in three-address form.
                    if let Some(ctor) = constructor_after(prog, alloc.method, alloc.stmt) {
                        extra.push((alloc.method, ctor));
                    }
                }
            }
        }
        extra.sort_unstable();
        extra.dedup();
        for site in extra {
            // Allocations inside the DP's own method are left to the
            // def-chain fixpoint below — importing them wholesale would
            // pull request-side construction into the response slice.
            if site != dp_site && site.0 != dp_site.0 {
                response.slice.insert(site);
                touched.insert(site.0);
            }
        }
    }

    for m in touched {
        for s in 0..prog.method(m).body.len() {
            if (m, s) != dp_site {
                candidates.push((m, s));
            }
        }
    }
    loop {
        let mut added = false;
        // Locals used by the current response slice, per method.
        let mut used: HashSet<(MethodId, Local)> = HashSet::new();
        for &(m, s) in &response.slice {
            for l in used_locals(&prog.method(m).body[s]) {
                used.insert((m, l));
            }
        }
        for &(m, s) in &candidates {
            if response.slice.contains(&(m, s)) {
                continue;
            }
            let stmt = &prog.method(m).body[s];
            // A statement belongs if it defines a local the slice uses, or
            // is the constructor call of such a local.
            let defines_used =
                defined_local(stmt).map(|def| used.contains(&(m, def))).unwrap_or(false);
            let constructs_used = matches!(
                stmt,
                Stmt::Invoke(c) if c.callee.name == "<init>"
                    && c.receiver.as_ref().and_then(Value::as_local)
                        .map(|l| used.contains(&(m, l)))
                        .unwrap_or(false)
            );
            if defines_used || constructs_used {
                response.slice.insert((m, s));
                added = true;
            }
        }
        if !added {
            break;
        }
    }
}

/// §3.4 asynchronous-event heuristic: for each instance-field cell *read*
/// inside the request slice, find stores to the same cell outside the
/// slice and re-run backward propagation from the stored value, merging
/// the result. Each invocation chases one hop; returns whether it grew
/// the slice (callers iterate for the §4 multi-hop extension).
///
/// Cells are `(class, field)` pairs, so without alias information every
/// store to `C.f` bridges to every read of `C.f` — taint bleeds across
/// unrelated heap objects. With points-to results, a store only bridges
/// when its base object may alias some base object the slice reads.
fn async_augment(
    prog: &ProgramIndex<'_>,
    engine: &TaintEngine<'_, '_, '_>,
    report: &mut TaintReport,
    pts: Option<&PointsTo>,
) -> bool {
    // Field cells read by sliced statements, with the base locals reading
    // them (the alias side of the bridge).
    let mut cells: HashSet<(String, String)> = HashSet::new();
    let mut read_bases: Vec<(MethodId, extractocol_ir::Local)> = Vec::new();
    for &(m, s) in &report.slice {
        if let Stmt::Assign { expr: Expr::Load(Place::InstanceField { base, field }), .. } =
            &prog.method(m).body[s]
        {
            cells.insert((field.class.clone(), field.name.clone()));
            read_bases.push((m, *base));
        }
    }
    if cells.is_empty() {
        return false;
    }
    // Out-of-slice stores to those cells (alias-compatible ones only,
    // when points-to results are available).
    let may_bridge = |mid: MethodId, store_base: extractocol_ir::Local| -> bool {
        match pts {
            None => true,
            Some(p) => read_bases.iter().any(|&rb| p.may_alias((mid, store_base), rb)),
        }
    };
    let mut seeds: Vec<Seed> = Vec::new();
    let mut store_sites: Vec<(MethodId, usize)> = Vec::new();
    // Restricted to the engine's scope: in targeted mode a store outside
    // the cone cannot bridge (the cone is closed over field couplings, so
    // any store to a cell the slice reads is already inside it).
    for mid in prog.concrete_methods().filter(|&m| engine.in_scope(m)) {
        for (si, stmt) in prog.method(mid).body.iter().enumerate() {
            if report.slice.contains(&(mid, si)) {
                continue;
            }
            if let Stmt::Assign { place: Place::InstanceField { base, field }, expr } = stmt {
                if cells.contains(&(field.class.clone(), field.name.clone()))
                    && may_bridge(mid, *base)
                {
                    store_sites.push((mid, si));
                    if let Expr::Use(Value::Local(v)) = expr {
                        seeds.push(Seed { method: mid, stmt: si, fact: AccessPath::local(*v) });
                    }
                }
            }
        }
    }
    if store_sites.is_empty() {
        return false;
    }
    let before = report.slice.len();
    let extra = engine.run(Direction::Backward, &seeds);
    report.slice.extend(extra.slice);
    report.slice.extend(store_sites);
    for (k, v) in extra.facts_at {
        report.facts_at.entry(k).or_default().extend(v);
    }
    report.statics.extend(extra.statics);
    report.slice.len() > before
}

/// Computes slice statistics over a set of slices.
pub fn stats(prog: &ProgramIndex<'_>, slices: &[SliceSet]) -> SliceStats {
    let total: usize = prog.concrete_methods().map(|m| prog.method(m).body.len()).sum();
    let mut sliced: HashSet<(MethodId, usize)> = HashSet::new();
    for s in slices {
        sliced.extend(s.all_stmts());
    }
    SliceStats { total_stmts: total, sliced_stmts: sliced.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demarcation;
    use extractocol_analysis::CallbackRegistry;
    use extractocol_ir::{ApkBuilder, Type};

    fn http_stubs(b: &mut ApkBuilder) {
        b.class("org.apache.http.client.HttpClient", |c| {
            c.stub_method(
                "execute",
                vec![Type::obj_root()],
                Type::object("org.apache.http.HttpResponse"),
            );
        });
    }

    fn run(apk: &extractocol_ir::Apk, opts: &SliceOptions) -> Vec<(usize, usize)> {
        let prog = ProgramIndex::new(apk);
        let model = SemanticModel::standard();
        let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
        let sites = demarcation::scan(&prog, &model);
        let slices = slice_all(&prog, &graph, &model, &sites, opts);
        slices.iter().map(|s| (s.request_slice.len(), s.response_slice.len())).collect()
    }

    /// Request + response slices exist for a straightforward transaction.
    #[test]
    fn slices_cover_request_and_response() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.C");
                let sb = m.new_obj("java.lang.StringBuilder", vec![Value::str("http://api/v1/")]);
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::str("items")]);
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                let resp = m.vcall(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                    Type::object("org.apache.http.HttpResponse"),
                );
                let ent = m.vcall(
                    resp,
                    "org.apache.http.HttpResponse",
                    "getEntity",
                    vec![],
                    Type::object("org.apache.http.HttpEntity"),
                );
                let body = m.scall(
                    "org.apache.http.util.EntityUtils",
                    "toString",
                    vec![Value::Local(ent)],
                    Type::string(),
                );
                let _ = body;
                // unrelated statement, must stay out of both slices
                let dead = m.temp(Type::string());
                m.cstr(dead, "unrelated");
                m.ret_void();
            });
        });
        let apk = b.build();
        let counts = run(&apk, &SliceOptions::default());
        assert_eq!(counts.len(), 1);
        let (req, resp) = counts[0];
        assert!(req >= 5, "request slice too small: {req}");
        assert!(resp >= 2, "response slice too small: {resp}");
        // the unrelated statement is excluded: slice smaller than the body
        let prog = ProgramIndex::new(&apk);
        let model = SemanticModel::standard();
        let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
        let sites = demarcation::scan(&prog, &model);
        let slices = slice_all(&prog, &graph, &model, &sites, &SliceOptions::default());
        let st = stats(&prog, &slices);
        assert!(st.sliced_stmts < st.total_stmts);
        assert!(st.fraction() > 0.0 && st.fraction() < 1.0);
    }

    /// The async heuristic pulls in setter code from another event handler
    /// (the weather-app pattern of §3.4).
    #[test]
    fn async_heuristic_bridges_heap_objects() {
        let build = |on: bool| {
            let mut b = ApkBuilder::new("t", "t");
            http_stubs(&mut b);
            b.class("t.C", |c| {
                let city = c.field("mCity", Type::string());
                // Event 1: location callback writes the field.
                c.method("onLocationChanged", vec![Type::string()], Type::Void, |m| {
                    let this = m.recv("t.C");
                    let loc = m.arg(0, "loc");
                    let s = m.temp(Type::string());
                    m.copy(s, loc);
                    m.put_field(this, &city, s);
                    m.ret_void();
                });
                // Event 2: click handler reads it into the URL.
                c.method("onClick", vec![], Type::Void, |m| {
                    let this = m.recv("t.C");
                    let sb =
                        m.new_obj("java.lang.StringBuilder", vec![Value::str("http://w/api?q=")]);
                    let cityv = m.temp(Type::string());
                    m.get_field(cityv, this, &city);
                    m.vcall_void(
                        sb,
                        "java.lang.StringBuilder",
                        "append",
                        vec![Value::Local(cityv)],
                    );
                    let url =
                        m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                    let req = m
                        .new_obj("org.apache.http.client.methods.HttpGet", vec![Value::Local(url)]);
                    let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                    m.vcall_void(
                        client,
                        "org.apache.http.client.HttpClient",
                        "execute",
                        vec![Value::Local(req)],
                    );
                    m.ret_void();
                });
            });
            let apk = b.build();
            let prog = ProgramIndex::new(&apk);
            let model = SemanticModel::standard();
            let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
            let sites = demarcation::scan(&prog, &model);
            let opts = SliceOptions { async_heuristic: on, ..SliceOptions::default() };
            let slices = slice_all(&prog, &graph, &model, &sites, &opts);
            let setter = prog.resolve_method("t.C", "onLocationChanged", 1).unwrap();
            slices[0].request_slice.iter().any(|(m, _)| *m == setter)
        };
        assert!(!build(false), "without the heuristic the setter is missed");
        assert!(build(true), "with the heuristic the setter is included");
    }

    /// Object-aware augmentation pulls initialization context into the
    /// forward slice.
    #[test]
    fn augmentation_makes_forward_slice_self_contained() {
        let mut b = ApkBuilder::new("t", "t");
        http_stubs(&mut b);
        b.class("t.C", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.C");
                // A list initialized BEFORE the DP and used to process the
                // response after it.
                let list = m.new_obj("java.util.ArrayList", vec![]);
                let req = m.new_obj(
                    "org.apache.http.client.methods.HttpGet",
                    vec![Value::str("http://x/")],
                );
                let client = m.new_obj("org.apache.http.impl.client.DefaultHttpClient", vec![]);
                let resp = m.vcall(
                    client,
                    "org.apache.http.client.HttpClient",
                    "execute",
                    vec![Value::Local(req)],
                    Type::object("org.apache.http.HttpResponse"),
                );
                m.vcall_void(list, "java.util.ArrayList", "add", vec![Value::Local(resp)]);
                m.ret_void();
            });
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let model = SemanticModel::standard();
        let graph = CallGraph::build(&prog, &CallbackRegistry::android_defaults());
        let sites = demarcation::scan(&prog, &model);

        let with = slice_all(&prog, &graph, &model, &sites, &SliceOptions::default());
        let without = slice_all(
            &prog,
            &graph,
            &model,
            &sites,
            &SliceOptions { augmentation: false, ..SliceOptions::default() },
        );
        assert!(
            with[0].response_slice.len() > without[0].response_slice.len(),
            "augmentation must add the list initialization: {} vs {}",
            with[0].response_slice.len(),
            without[0].response_slice.len()
        );
    }
}
