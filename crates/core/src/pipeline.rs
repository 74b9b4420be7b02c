//! The end-to-end Extractocol pipeline (paper Fig. 2): demarcation-point
//! identification → bidirectional slicing (with augmentation and the
//! async heuristic) → signature building → HTTP-transaction
//! reconstruction → inter-transaction dependency analysis.

use crate::demarcation;
use crate::deobf;
use crate::flowmodel::SemanticFlowModel;
use crate::interdep;
use crate::metrics::{DpSliceMetrics, Metrics, PhaseTimings};
use crate::pairing::{self, Pairing};
use crate::par;
use crate::report::{AnalysisReport, Stats, TxnReport};
use crate::semantics::ApiOp;
use crate::semantics::SemanticModel;
use crate::sigbuild::SignatureBuilder;
use crate::slicing::{self, SliceOptions};
use crate::stubs;
use extractocol_analysis::{
    diagnostics, CallGraph, CallbackRegistry, PointsTo, TaintEngine, TaintOptions,
};
use extractocol_incr::{Epoch, IncrStats, TargetedStats};
use extractocol_ir::{Apk, MethodId, ProgramIndex};
use extractocol_obs::{EventLog, TraceCollector};
use std::collections::HashSet;
use std::time::Instant;

/// Analysis configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// Slicing options (async heuristic / augmentation / field depth).
    pub slice: SliceOptions,
    /// Attempt §3.4 library de-obfuscation before analysis.
    pub deobfuscate_libraries: bool,
    /// Restrict demarcation points to classes with this prefix — the
    /// "we only scope the analysis to com.kayak classes" mode of §5.3.
    pub scope_prefix: Option<String>,
    /// Worker threads for the per-DP fan-out (slicing and signature
    /// extraction). `0` means one per available core; `1` runs strictly
    /// sequentially. Every setting yields a byte-identical report — the
    /// fan-out reassembles results in DP order.
    pub jobs: usize,
    /// Solve Andersen points-to before building the call graph (the
    /// SPARK layer): virtual sites devirtualize through receiver
    /// points-to sets (falling back to the CHA cone where empty), the
    /// taint engine narrows call targets by receiver aliasing, and
    /// augmentation seeds from actual allocation sites. Turning this off
    /// reverts to pure CHA — the `cha_vs_pta` ablation's baseline.
    pub pointsto: bool,
    /// Demand-driven targeted mode: compute the reachability cone of the
    /// demarcation points first, then run points-to, taint, and slicing
    /// only over the cone. Classes outside every cone are never visited
    /// (counted in `Metrics::targeted`); the report stays byte-identical
    /// to the whole-program run.
    pub targeted: bool,
    /// Location of the `.exsm` persistent summary-cache archive. When set,
    /// still-valid summaries from a previous run are preloaded before
    /// slicing and the final summary set is written back afterwards.
    /// Unset is the non-incremental ablation baseline.
    pub summary_cache_path: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            slice: SliceOptions::default(),
            deobfuscate_libraries: true,
            scope_prefix: None,
            jobs: 0,
            pointsto: true,
            targeted: false,
            summary_cache_path: None,
        }
    }
}

/// The analyzer. Holds the semantic model (extensible via
/// [`Extractocol::model_mut`] — the paper's plugin hook) and options.
pub struct Extractocol {
    model: SemanticModel,
    registry: CallbackRegistry,
    options: Options,
    trace: TraceCollector,
    events: EventLog,
}

impl Default for Extractocol {
    fn default() -> Self {
        Extractocol::new()
    }
}

impl Extractocol {
    /// An analyzer with the standard model and default options.
    pub fn new() -> Extractocol {
        Extractocol::with_options(Options::default())
    }

    /// An analyzer with custom options.
    pub fn with_options(options: Options) -> Extractocol {
        Extractocol {
            model: SemanticModel::standard(),
            registry: CallbackRegistry::android_defaults(),
            options,
            trace: TraceCollector::disabled(),
            events: EventLog::disabled(),
        }
    }

    /// Attaches the run's instruments. Into `trace` each pipeline phase
    /// records a `phase` span, each demarcation point a nested `dp` span,
    /// and each transaction a `txn` span (see `extractocol --trace-out`).
    /// Into `events` the pipeline emits a run-start record, one per-phase
    /// timing record, and a run-finished record (see `extractocol
    /// --log-out`). Both default to disabled, which makes every span and
    /// emission a branch.
    pub fn set_instruments(&mut self, trace: TraceCollector, events: EventLog) {
        self.trace = trace;
        self.events = events;
    }

    /// Mutable access to the semantic model for API plugins.
    pub fn model_mut(&mut self) -> &mut SemanticModel {
        &mut self.model
    }

    /// Mutable access to the callback registry.
    pub fn registry_mut(&mut self) -> &mut CallbackRegistry {
        &mut self.registry
    }

    /// The current options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Analyzes one APK and reconstructs its protocol behavior.
    ///
    /// Per-DP slicing and per-transaction signature extraction fan out
    /// across [`Options::jobs`] worker threads; the report is identical
    /// for every `jobs` setting (results are merged in DP order and the
    /// shared method-summary cache only memoizes order-independent
    /// closures).
    ///
    /// Each phase is timed once, by a [`PhaseTimings::phase`] guard that
    /// feeds both the `phase` span and `Metrics::phases`.
    pub fn analyze(&self, apk: &Apk) -> AnalysisReport {
        let trace = &self.trace;
        let started = Instant::now();
        let mut phases = PhaseTimings::default();
        let jobs = par::resolve_jobs(self.options.jobs);
        let mut run_span = trace.span_in("run", format!("analyze:{}", apk.name));
        run_span.attr("app", apk.name.as_str()).attr("jobs", jobs);
        self.events
            .info("pipeline", "analysis started")
            .field("app", apk.name.as_str())
            .field("jobs", jobs)
            .emit();

        // §3.4: map obfuscated bundled libraries back to canonical names.
        let (apk, deobfuscated_classes) = {
            let mut span = phases.phase(trace, "deobfuscation");
            let out = if self.options.deobfuscate_libraries {
                let map = deobf::infer_library_map(apk, &stubs::library_reference());
                let n = map.classes.len();
                (deobf::deobfuscate(apk, &map), n)
            } else {
                (apk.clone(), 0)
            };
            span.attr("deobfuscated_classes", out.1);
            out
        };

        let mut span = phases.phase(trace, "indexing");
        let prog = ProgramIndex::new(&apk);
        // Targeted mode defers points-to until the cone is known; the
        // whole-program solve only runs here in untargeted mode.
        let mut pts = (self.options.pointsto && !self.options.targeted).then(|| {
            let _s = trace.span_in("step", "pointsto_solve");
            PointsTo::solve(&prog)
        });
        let mut graph = {
            let _s = trace.span_in("step", "callgraph_build");
            match &pts {
                Some(p) => CallGraph::build_with_pointsto(&prog, &self.registry, p),
                None => CallGraph::build(&prog, &self.registry),
            }
        };
        if let Some(p) = &pts {
            let s = p.stats();
            span.attr("allocation_sites", s.allocs).attr("pts_propagations", s.propagations);
        }
        drop(span);

        // Phase 1: demarcation points.
        let mut span = phases.phase(trace, "demarcation");
        let mut sites = demarcation::scan(&prog, &self.model);
        if let Some(prefix) = &self.options.scope_prefix {
            sites.retain(|s| prog.class(s.method.class).name.starts_with(prefix.as_str()));
            for (i, s) in sites.iter_mut().enumerate() {
                s.id = i;
            }
        }
        span.attr("dp_sites", sites.len());
        drop(span);

        // Targeted mode: close the DP-site methods under every coupling
        // the downstream analyses traverse, then re-solve points-to and
        // devirtualize over the cone alone. Code outside the cone is never
        // visited by points-to, taint, or slicing from here on.
        let mut cone: Option<HashSet<MethodId>> = None;
        let mut targeted_stats: Option<TargetedStats> = None;
        if self.options.targeted {
            let mut span = phases.phase(trace, "targeted");
            let mut seen = HashSet::new();
            let roots: Vec<MethodId> =
                sites.iter().map(|s| s.method).filter(|m| seen.insert(*m)).collect();
            let c = extractocol_incr::cone::compute(&prog, &graph, &roots);
            if self.options.pointsto {
                let _s = trace.span_in("step", "pointsto_solve_scoped");
                let p = PointsTo::solve_scoped(&prog, &c);
                graph = CallGraph::build_with_pointsto(&prog, &self.registry, &p);
                pts = Some(p);
            }
            let stats = extractocol_incr::cone::stats(&prog, &c);
            span.attr("cone_methods", stats.cone_methods)
                .attr("skipped_classes", stats.skipped_classes);
            targeted_stats = Some(stats);
            cone = Some(c);
        }

        // Precision diagnostics (surfaced via `extractocol --lints`),
        // restricted to the cone in targeted mode.
        let lints = {
            let _s = trace.span_in("step", "lint");
            diagnostics::lint_scoped(
                &prog,
                &graph,
                pts.as_ref(),
                &|callee| !matches!(self.model.op_for(&prog, callee), ApiOp::Unknown),
                cone.as_ref(),
            )
        };

        // The taint engine is pipeline-owned so the persistent summary
        // cache can preload into it before slicing and export afterwards.
        let flow_model = SemanticFlowModel::new(&self.model, &prog);
        let engine = TaintEngine::with_scope(
            &prog,
            &graph,
            &flow_model,
            TaintOptions {
                max_field_depth: self.options.slice.max_field_depth,
                ..TaintOptions::default()
            },
            pts.as_ref(),
            cone.as_ref(),
        );

        let epoch = Epoch {
            app: apk.name.clone(),
            max_field_depth: self.options.slice.max_field_depth as u32,
            pointsto: self.options.pointsto,
            targeted: self.options.targeted,
        };
        let cache_path = &self.options.summary_cache_path;
        let mut incr_stats: Option<IncrStats> = None;
        let mut preloaded_keys = HashSet::new();
        let mut fingerprints = None;
        if let Some(path) = cache_path {
            let mut span = phases.phase(trace, "incremental");
            let fp =
                extractocol_incr::validity::fingerprints(&prog, &graph, &engine, cone.as_ref());
            let outcome = extractocol_incr::load_into_engine(path, &epoch, &prog, &fp, &engine);
            span.attr("preloaded", outcome.stats.preloaded).attr("valid", outcome.stats.valid);
            incr_stats = Some(outcome.stats);
            preloaded_keys = outcome.preloaded_keys;
            fingerprints = Some(fp);
        }

        let mut span = phases.phase(trace, "slicing");
        let slices = slicing::slice_all_on(
            &engine,
            &prog,
            &graph,
            &sites,
            &self.options.slice,
            self.options.jobs,
            pts.as_ref(),
            trace,
        );
        let cache = engine.cache_stats();
        span.attr("cache_hits", cache.hits).attr("cache_misses", cache.misses);
        drop(span);

        // Write the final summary set back (also on cold runs and after a
        // refused load — the next run warms up either way).
        if let (Some(path), Some(stats), Some(fp)) =
            (cache_path, incr_stats.as_mut(), fingerprints.as_ref())
        {
            let _s = phases.step(trace, "incremental_save", "incremental");
            let exports = engine.export_summaries();
            let total = cone.as_ref().map_or_else(|| prog.concrete_methods().count(), HashSet::len);
            extractocol_incr::finish_stats(stats, &exports, &preloaded_keys, total);
            let arch = extractocol_incr::build_archive(&epoch, fp, &exports);
            stats.saved = arch.summaries.len();
            if let Err(e) = extractocol_incr::archive::write_file(path, &arch) {
                stats.saved = 0;
                stats.save_error = Some(e.to_string());
            }
        }

        // Phase 3a: request/response pairing via disjoint sub-slices.
        let mut span = phases.phase(trace, "pairing");
        let txns = pairing::pair(&prog, &graph, &slices);
        span.attr("transactions", txns.len());
        drop(span);

        // Phase 2: per-transaction signature extraction. Each transaction
        // is independent (the builder is constructed per call), so the
        // same fan-out applies; input order is preserved.
        let sig_span = phases.phase(trace, "signatures");
        let reports: Vec<TxnReport> = par::parallel_map(&txns, self.options.jobs, |_, t| {
            let mut span = trace.span_in("txn", format!("txn:{}", t.id));
            if span.is_recording() {
                span.attr("txn_id", t.id).attr("dp_index", t.dp_index).attr(
                    "root",
                    format!("{}.{}", prog.class(t.root.class).name, prog.method(t.root).name),
                );
            }
            let siblings: Vec<MethodId> = txns
                .iter()
                .filter(|o| o.dp_index == t.dp_index && o.id != t.id)
                .map(|o| o.root)
                .collect();
            let slice = &slices[t.dp_index];
            let sigs = SignatureBuilder::extract_scoped(
                &prog,
                &self.model,
                &graph,
                slice,
                &siblings,
                !t.response_stmts.is_empty(),
            );
            let method = sigs.request.effective_method(slice.dp.implied_method());
            let response = if t.pairing == Pairing::Unpaired {
                None
            } else {
                match sigs.response {
                    // A body that only streams into a device sink (media
                    // player, image view) is consumed, not processed — the
                    // paper's pair count covers only "responses that have
                    // bodies processed by the apps" (§5.1).
                    Some(crate::sigbuild::ResponseSig::Raw) if !sigs.consumptions.is_empty() => {
                        None
                    }
                    r => r,
                }
            };
            TxnReport {
                id: t.id,
                dp_class: slice.dp.spec.class.clone(),
                root: format!("{}.{}", prog.class(t.root.class).name, prog.method(t.root).name),
                method,
                uri_regex: sigs.request.uri.to_regex(),
                uri: sigs.request.uri.clone(),
                headers: sigs
                    .request
                    .headers
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_regex()))
                    .collect(),
                header_sigs: sigs.request.headers.clone(),
                request_body: sigs.request.body.clone(),
                response,
                pairing: t.pairing,
                origins: sigs.origins.clone(),
                consumptions: sigs.consumptions.clone(),
            }
        });
        drop(sig_span);

        // Phase 3b: inter-transaction dependencies.
        let mut span = phases.phase(trace, "dependencies");
        let dependencies = interdep::dependencies(&prog, &self.model, &slices, &txns);
        span.attr("edges", dependencies.len());
        drop(span);

        let per_dp: Vec<DpSliceMetrics> = slices
            .iter()
            .map(|s| DpSliceMetrics {
                dp_id: s.dp.id,
                request_stmts: s.request_slice.len(),
                response_stmts: s.response_slice.len(),
            })
            .collect();

        let slice_stats = slicing::stats(&prog, &slices);
        for (name, dur) in phases.slots() {
            if !dur.is_zero() {
                self.events
                    .debug("pipeline", "phase finished")
                    .field("phase", name)
                    .field("phase_us", dur.as_micros() as u64)
                    .emit();
            }
        }
        self.events
            .info("pipeline", "analysis finished")
            .field("app", apk.name.as_str())
            .field("dp_sites", sites.len() as u64)
            .field("transactions", reports.len() as u64)
            .field("duration_us", started.elapsed().as_micros() as u64)
            .emit();
        AnalysisReport {
            app: apk.name.clone(),
            transactions: reports,
            dependencies,
            stats: Stats {
                total_stmts: slice_stats.total_stmts,
                sliced_stmts: slice_stats.sliced_stmts,
                dp_sites: sites.len(),
                deobfuscated_classes,
                duration: started.elapsed(),
            },
            metrics: Metrics {
                jobs,
                phases,
                cache,
                per_dp,
                lints,
                pts: pts.as_ref().map(PointsTo::stats),
                conformance: None,
                incr: incr_stats,
                targeted: targeted_stats,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigbuild::BodySig;
    use extractocol_http::HttpMethod;
    use extractocol_ir::{ApkBuilder, Type, Value};

    /// End-to-end: a two-transaction app with a token dependency.
    fn sample_app() -> Apk {
        let mut b = ApkBuilder::new("sample", "com.sample");
        stubs::install(&mut b);
        b.activity("com.sample.Main");
        b.class("com.sample.Main", |c| {
            c.extends("android.app.Activity");
            let token = c.field("mToken", Type::string());
            c.method("login", vec![Type::string()], Type::Void, |m| {
                let this = m.recv("com.sample.Main");
                let user = m.arg(0, "user");
                let sb = m.new_obj(
                    "java.lang.StringBuilder",
                    vec![Value::str("https://api.sample.com/login?u=")],
                );
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(user)]);
                let url =
                    m.vcall(sb, "java.lang.StringBuilder", "toString", vec![], Type::string());
                let req =
                    m.new_obj("org.apache.http.client.methods.HttpPost", vec![Value::Local(url)]);
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
                let j = m.new_obj("org.json.JSONObject", vec![Value::Local(body)]);
                let tok = m.vcall(
                    j,
                    "org.json.JSONObject",
                    "getString",
                    vec![Value::str("token")],
                    Type::string(),
                );
                m.put_field(this, &token, tok);
                m.ret_void();
            });
            c.method("fetch", vec![], Type::Void, |m| {
                let this = m.recv("com.sample.Main");
                let tok = m.temp(Type::string());
                m.get_field(tok, this, &token);
                let sb = m.new_obj(
                    "java.lang.StringBuilder",
                    vec![Value::str("https://api.sample.com/items?auth=")],
                );
                m.vcall_void(sb, "java.lang.StringBuilder", "append", vec![Value::Local(tok)]);
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
                let j = m.new_obj("org.json.JSONObject", vec![Value::Local(body)]);
                let items = m.vcall(
                    j,
                    "org.json.JSONObject",
                    "getJSONArray",
                    vec![Value::str("items")],
                    Type::object("org.json.JSONArray"),
                );
                let _ = items;
                m.ret_void();
            });
        });
        b.build()
    }

    #[test]
    fn analyzes_end_to_end() {
        let apk = sample_app();
        let report = Extractocol::new().analyze(&apk);
        assert_eq!(report.transactions.len(), 2);
        assert_eq!(report.method_count(HttpMethod::Post), 1);
        assert_eq!(report.method_count(HttpMethod::Get), 1);
        assert_eq!(report.pair_count(), 2);
        // Dependency login → fetch through mToken.
        assert!(
            !report.dependencies.is_empty(),
            "token dependency expected: {}",
            report.to_table()
        );
        let d = &report.dependencies[0];
        assert_eq!(d.resp_field.as_deref(), Some("token"));
        // Stats populated.
        assert!(report.stats.slice_fraction() > 0.0);
        assert!(report.stats.dp_sites == 2);
        // No request body on the GET.
        let get = report.by_method(HttpMethod::Get).next().unwrap();
        assert!(matches!(get.request_body, None | Some(BodySig::Text(_))));
        assert!(get.has_query_string());
    }

    #[test]
    fn scope_prefix_filters_dps() {
        let apk = sample_app();
        let opts = Options { scope_prefix: Some("com.other".into()), ..Options::default() };
        let report = Extractocol::with_options(opts).analyze(&apk);
        assert!(report.transactions.is_empty());
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;

    /// Degenerate inputs must not panic: empty APKs, apps with no network
    /// code, and apps whose only method is bodyless.
    #[test]
    fn degenerate_apps_analyze_cleanly() {
        let analyzer = Extractocol::new();

        let empty = extractocol_ir::ApkBuilder::new("empty", "e").build();
        let r = analyzer.analyze(&empty);
        assert!(r.transactions.is_empty());
        assert_eq!(r.stats.dp_sites, 0);

        let mut b = extractocol_ir::ApkBuilder::new("nonet", "n");
        b.class("n.C", |c| {
            c.method("pure", vec![extractocol_ir::Type::Int], extractocol_ir::Type::Int, |m| {
                let p = m.arg(0, "p");
                m.ret(p);
            });
            c.stub_method("abstract_m", vec![], extractocol_ir::Type::Void);
        });
        let r = analyzer.analyze(&b.build());
        assert!(r.transactions.is_empty());
        assert!(r.dependencies.is_empty());
    }
}
