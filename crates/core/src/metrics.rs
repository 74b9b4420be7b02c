//! Analysis instrumentation: per-phase wall time, per-DP slice sizes, and
//! method-summary-cache counters. Everything here is *observational* —
//! excluded from the canonical report serialization (`to_table` /
//! `to_json`), because timings and cache counters vary run-to-run and
//! across worker counts while the analysis result itself must not.

pub use extractocol_analysis::CacheStats;
pub use extractocol_analysis::{LintReport, PtsStats};
use extractocol_obs::{AttrValue, Registry, SpanGuard, TraceCollector, Volatility};
use std::time::{Duration, Instant};

/// Wall-clock time of each pipeline phase (Fig. 2's boxes, plus the
/// validation and serving phases bolted on since). `total()` always sums
/// *every* slot, so an end-to-end run that exercises conformance or the
/// serving side is no longer under-reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// §3.4 library de-obfuscation.
    pub deobfuscation: Duration,
    /// Program indexing + call-graph construction.
    pub indexing: Duration,
    /// Demarcation-point scan.
    pub demarcation: Duration,
    /// Targeted-mode cone construction + scoped points-to re-solve (zero
    /// outside `--targeted`).
    pub targeted: Duration,
    /// Persistent summary-cache fingerprinting, load, and save (zero when
    /// no `--summary-cache-path` is set).
    pub incremental: Duration,
    /// Bidirectional slicing across all DPs (wall time, not CPU time —
    /// under `jobs > 1` many DPs overlap inside this window).
    pub slicing: Duration,
    /// Request/response pairing via disjoint sub-slices.
    pub pairing: Duration,
    /// Per-transaction signature extraction.
    pub signatures: Duration,
    /// Inter-transaction dependency analysis.
    pub dependencies: Duration,
    /// Differential conformance check against a dynamic trace (zero when
    /// no oracle ran).
    pub conformance: Duration,
    /// Serving-side signature-index compilation (zero outside
    /// `extractocol-serve`).
    pub serve_compile: Duration,
    /// Serving-side traffic classification (zero outside
    /// `extractocol-serve`).
    pub serve_classify: Duration,
}

impl PhaseTimings {
    /// Every `(phase name, duration)` pair, in pipeline order. The single
    /// source of truth for `total()`, the registry export, the CLI timing
    /// tables, and the names [`PhaseTimings::phase`] accepts.
    pub fn slots(&self) -> [(&'static str, Duration); 12] {
        let mut copy = *self;
        copy.slots_mut().map(|(name, d)| (name, *d))
    }

    /// The slot table behind [`PhaseTimings::slots`], by mutable reference.
    fn slots_mut(&mut self) -> [(&'static str, &mut Duration); 12] {
        [
            ("deobfuscation", &mut self.deobfuscation),
            ("indexing", &mut self.indexing),
            ("demarcation", &mut self.demarcation),
            ("targeted", &mut self.targeted),
            ("incremental", &mut self.incremental),
            ("slicing", &mut self.slicing),
            ("pairing", &mut self.pairing),
            ("signatures", &mut self.signatures),
            ("dependencies", &mut self.dependencies),
            ("conformance", &mut self.conformance),
            ("serve_compile", &mut self.serve_compile),
            ("serve_classify", &mut self.serve_classify),
        ]
    }

    /// Opens phase `name`: a `phase` span of that name in `trace`, whose
    /// wall time is added to the slot of the same name when the guard
    /// drops. The one clock for a phase — the span and the slot cannot
    /// disagree on its name or its window. With a disabled collector the
    /// guard costs one timestamp pair and no allocation.
    ///
    /// Panics when `name` is not one of [`PhaseTimings::slots`].
    pub fn phase(&mut self, trace: &TraceCollector, name: &'static str) -> PhaseGuard<'_> {
        self.open(trace.span_in("phase", name), name)
    }

    /// Like [`PhaseTimings::phase`] for a `step` span `name` whose time is
    /// charged to the phase slot `slot` (e.g. the summary-cache save,
    /// which runs after slicing but belongs to `incremental`).
    pub fn step(
        &mut self,
        trace: &TraceCollector,
        name: &'static str,
        slot: &'static str,
    ) -> PhaseGuard<'_> {
        self.open(trace.span_in("step", name), slot)
    }

    fn open(&mut self, span: SpanGuard, slot: &str) -> PhaseGuard<'_> {
        let slot = self
            .slots_mut()
            .into_iter()
            .find_map(|(name, d)| (name == slot).then_some(d))
            .unwrap_or_else(|| panic!("no PhaseTimings slot named {slot:?}"));
        PhaseGuard { slot, started: Instant::now(), span }
    }

    /// Sum of all phase times (every slot, including conformance and the
    /// serving phases).
    pub fn total(&self) -> Duration {
        self.slots().iter().map(|(_, d)| *d).sum()
    }

    /// A per-phase breakdown table (skips zero slots), ending with the
    /// total row.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, d) in self.slots() {
            if !d.is_zero() {
                let _ = writeln!(out, "  {name:<14} {:>10.3}ms", d.as_secs_f64() * 1e3);
            }
        }
        let _ = writeln!(out, "  {:<14} {:>10.3}ms", "total", self.total().as_secs_f64() * 1e3);
        out
    }
}

/// An open phase (see [`PhaseTimings::phase`]). On drop it adds its
/// elapsed time to its slot, then closes its span.
pub struct PhaseGuard<'a> {
    slot: &'a mut Duration,
    started: Instant,
    span: SpanGuard,
}

impl PhaseGuard<'_> {
    /// Attaches a typed attribute to the phase span (no-op when the
    /// collector is disabled).
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) -> &mut Self {
        self.span.attr(key, value);
        self
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        *self.slot += self.started.elapsed();
    }
}

/// Slice sizes of one demarcation point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DpSliceMetrics {
    /// The DP site id.
    pub dp_id: usize,
    /// Statements in the backward (request) slice.
    pub request_stmts: usize,
    /// Statements in the forward (response) slice.
    pub response_stmts: usize,
}

impl DpSliceMetrics {
    /// Total statements across both slices (with overlap counted twice —
    /// a per-DP effort proxy, not a coverage figure).
    pub fn total_stmts(&self) -> usize {
        self.request_stmts + self.response_stmts
    }
}

/// All instrumentation of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Worker threads the run actually used (after resolving `jobs = 0`).
    pub jobs: usize,
    /// Per-phase wall times.
    pub phases: PhaseTimings,
    /// Method-summary cache counters from the slicing phase.
    pub cache: CacheStats,
    /// Per-DP slice sizes, ordered by DP id.
    pub per_dp: Vec<DpSliceMetrics>,
    /// Precision lints from the diagnostics pass (stable order; rendered
    /// by `extractocol --lints`). Unlike timings, these ARE deterministic
    /// across worker counts — they just aren't part of the protocol
    /// signature, so they live here rather than in the canonical report.
    pub lints: LintReport,
    /// Points-to solver statistics, when `Options::pointsto` ran.
    pub pts: Option<PtsStats>,
    /// Conformance-oracle result, when a driver (e.g. `extractocol-eval
    /// --conformance`) cross-checked this report against a dynamic trace.
    /// Deterministic given the same trace, but observational: it describes
    /// a validation run, not the protocol signature itself.
    pub conformance: Option<crate::conformance::ConformanceReport>,
    /// Persistent summary-cache counters, when `Options::summary_cache_path`
    /// was set. Deterministic: acceptance is a pure function of archive +
    /// program, and reuse counts are derived from the sorted final export.
    pub incr: Option<extractocol_incr::IncrStats>,
    /// Cone sizes and skip counts, when `Options::targeted` ran.
    pub targeted: Option<extractocol_incr::TargetedStats>,
}

impl Metrics {
    /// Exports this run's instrumentation into a fresh [`Registry`] for
    /// exposition-format rendering. The existing public fields stay the
    /// plain-struct views; the registry is the rendering/aggregation
    /// layer on top.
    ///
    /// Volatility split: per-DP slice sizes, points-to statistics, lint
    /// counts, and conformance diagnostic counts are
    /// [`Volatility::Deterministic`] (byte-identical across `--jobs`
    /// counts — pinned by the jobs-invariance tests). Phase timings, the
    /// worker count, and the summary-cache counters are
    /// [`Volatility::PerRun`]: cache hit/miss totals depend on which
    /// worker reaches a method first, so they are honest counters but not
    /// reproducible ones.
    pub fn export_registry(&self) -> Registry {
        let reg = Registry::new();
        reg.gauge("pipeline_jobs", &[], Volatility::PerRun, "resolved worker count")
            .set(self.jobs as f64);
        for (name, d) in self.phases.slots() {
            reg.gauge(
                "pipeline_phase_seconds",
                &[("phase", name)],
                Volatility::PerRun,
                "wall-clock time per pipeline phase",
            )
            .set(d.as_secs_f64());
        }
        reg.counter(
            "summary_cache_lookups_total",
            &[("outcome", "hit")],
            Volatility::PerRun,
            "method-summary cache lookups",
        )
        .add(self.cache.hits);
        reg.counter(
            "summary_cache_lookups_total",
            &[("outcome", "miss")],
            Volatility::PerRun,
            "method-summary cache lookups",
        )
        .add(self.cache.misses);

        reg.counter(
            "pipeline_dp_sites_total",
            &[],
            Volatility::Deterministic,
            "demarcation points analyzed",
        )
        .add(self.per_dp.len() as u64);
        let dp_hist = reg.histogram(
            "pipeline_dp_slice_stmts",
            &[],
            Volatility::Deterministic,
            "statements per DP slice (request + response)",
            extractocol_obs::metrics::COUNT_BUCKETS,
        );
        let (mut req_total, mut resp_total) = (0u64, 0u64);
        for dp in &self.per_dp {
            dp_hist.observe(dp.total_stmts() as f64);
            req_total += dp.request_stmts as u64;
            resp_total += dp.response_stmts as u64;
        }
        reg.counter(
            "pipeline_slice_stmts_total",
            &[("direction", "request")],
            Volatility::Deterministic,
            "sliced statements by direction",
        )
        .add(req_total);
        reg.counter(
            "pipeline_slice_stmts_total",
            &[("direction", "response")],
            Volatility::Deterministic,
            "sliced statements by direction",
        )
        .add(resp_total);

        reg.counter(
            "analysis_lints_total",
            &[],
            Volatility::Deterministic,
            "precision lints from the diagnostics pass",
        )
        .add(self.lints.lints.len() as u64);
        if let Some(pts) = &self.pts {
            reg.counter(
                "pointsto_allocation_sites_total",
                &[],
                Volatility::Deterministic,
                "allocation sites discovered by the points-to solver",
            )
            .add(pts.allocs as u64);
            reg.counter(
                "pointsto_nonempty_locals_total",
                &[],
                Volatility::Deterministic,
                "locals with a non-empty points-to set",
            )
            .add(pts.nonempty_locals as u64);
            reg.counter(
                "pointsto_field_cells_total",
                &[],
                Volatility::Deterministic,
                "field cells with a non-empty points-to set",
            )
            .add(pts.field_cells as u64);
            reg.counter(
                "pointsto_propagations_total",
                &[],
                Volatility::Deterministic,
                "worklist items the solver processed to fixpoint",
            )
            .add(pts.propagations as u64);
        }
        if let Some(conf) = &self.conformance {
            reg.counter(
                "conformance_diags_total",
                &[],
                Volatility::Deterministic,
                "conformance-oracle diagnostics",
            )
            .add(conf.diags.len() as u64);
        }
        if let Some(incr) = &self.incr {
            let events: [(&str, u64); 6] = [
                ("preloaded", incr.preloaded as u64),
                ("valid", incr.valid as u64),
                ("invalidated", incr.invalidated as u64),
                ("reused", incr.reused_summaries as u64),
                ("recomputed", incr.recomputed_summaries as u64),
                ("saved", incr.saved as u64),
            ];
            for (event, n) in events {
                reg.counter(
                    "incr_summaries_total",
                    &[("event", event)],
                    Volatility::Deterministic,
                    "persistent summary-cache events",
                )
                .add(n);
            }
            reg.gauge(
                "incr_persistent_hit_rate",
                &[],
                Volatility::Deterministic,
                "fraction of this run's summaries answered by the persistent cache",
            )
            .set(incr.hit_rate());
            reg.counter(
                "incr_recomputed_methods_total",
                &[],
                Volatility::Deterministic,
                "distinct root methods whose summaries were recomputed",
            )
            .add(incr.recomputed_methods as u64);
        }
        if let Some(tg) = &self.targeted {
            reg.counter(
                "incr_targeted_cone_methods_total",
                &[],
                Volatility::Deterministic,
                "methods inside the union of all DP cones",
            )
            .add(tg.cone_methods as u64);
            reg.counter(
                "incr_targeted_skipped_classes_total",
                &[],
                Volatility::Deterministic,
                "classes never visited by taint, points-to, or slicing",
            )
            .add(tg.skipped_classes as u64);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_total_sums_components() {
        let t = PhaseTimings {
            slicing: Duration::from_millis(30),
            signatures: Duration::from_millis(12),
            ..PhaseTimings::default()
        };
        assert_eq!(t.total(), Duration::from_millis(42));
    }

    /// `total()` must cover *every* slot — the conformance and serving
    /// phases used to be missing, under-reporting end-to-end runs.
    #[test]
    fn phase_total_includes_conformance_and_serve_slots() {
        let t = PhaseTimings {
            slicing: Duration::from_millis(10),
            conformance: Duration::from_millis(7),
            serve_compile: Duration::from_millis(5),
            serve_classify: Duration::from_millis(3),
            ..PhaseTimings::default()
        };
        assert_eq!(t.total(), Duration::from_millis(25));
        // And `slots()` is exhaustive: summing it agrees with total() on
        // a fully populated struct.
        let full = PhaseTimings {
            deobfuscation: Duration::from_millis(1),
            indexing: Duration::from_millis(2),
            demarcation: Duration::from_millis(3),
            targeted: Duration::from_millis(4),
            incremental: Duration::from_millis(5),
            slicing: Duration::from_millis(6),
            pairing: Duration::from_millis(7),
            signatures: Duration::from_millis(8),
            dependencies: Duration::from_millis(9),
            conformance: Duration::from_millis(10),
            serve_compile: Duration::from_millis(11),
            serve_classify: Duration::from_millis(12),
        };
        assert_eq!(full.total(), Duration::from_millis(78));
        assert_eq!(full.slots().len(), 12);
        let text = full.to_text();
        assert!(text.contains("conformance"), "{text}");
        assert!(text.contains("targeted"), "{text}");
        assert!(text.contains("incremental"), "{text}");
        assert!(text.contains("total"), "{text}");
    }

    #[test]
    fn phase_guard_charges_its_slot_and_records_its_span() {
        let trace = TraceCollector::enabled();
        let mut t = PhaseTimings::default();
        {
            let mut g = t.phase(&trace, "pairing");
            g.attr("transactions", 3usize);
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(t.step(&trace, "incremental_save", "incremental"));
        assert!(t.pairing >= Duration::from_millis(1));
        let charged: Vec<_> = t.slots().into_iter().filter(|(_, d)| !d.is_zero()).collect();
        assert_eq!(charged.iter().map(|(n, _)| *n).collect::<Vec<_>>(), ["incremental", "pairing"]);
        let spans: Vec<_> =
            trace.drain().into_iter().map(|r| (r.cat, r.name, r.attrs.len())).collect();
        assert_eq!(
            spans,
            [("phase".into(), "pairing".into(), 1), ("step".into(), "incremental_save".into(), 0)]
        );
    }

    #[test]
    #[should_panic(expected = "no PhaseTimings slot")]
    fn phase_guard_rejects_unknown_names() {
        PhaseTimings::default().phase(&TraceCollector::disabled(), "parsing");
    }

    #[test]
    fn registry_export_splits_deterministic_from_per_run() {
        let m = Metrics {
            jobs: 4,
            phases: PhaseTimings { slicing: Duration::from_millis(12), ..PhaseTimings::default() },
            cache: CacheStats { hits: 10, misses: 3 },
            per_dp: vec![
                DpSliceMetrics { dp_id: 0, request_stmts: 8, response_stmts: 4 },
                DpSliceMetrics { dp_id: 1, request_stmts: 2, response_stmts: 0 },
            ],
            incr: Some(extractocol_incr::IncrStats {
                preloaded: 9,
                valid: 8,
                invalidated: 1,
                reused_summaries: 8,
                recomputed_summaries: 2,
                recomputed_methods: 1,
                total_methods: 20,
                saved: 10,
                ..extractocol_incr::IncrStats::default()
            }),
            targeted: Some(extractocol_incr::TargetedStats {
                cone_methods: 5,
                total_methods: 20,
                skipped_classes: 3,
                total_classes: 6,
            }),
            ..Metrics::default()
        };
        let reg = m.export_registry();
        let full = reg.render();
        assert!(full.contains("pipeline_phase_seconds{phase=\"slicing\"}"), "{full}");
        assert!(full.contains("summary_cache_lookups_total{outcome=\"hit\"} 10"), "{full}");
        assert!(full.contains("pipeline_dp_sites_total 2"), "{full}");
        assert!(full.contains("pipeline_slice_stmts_total{direction=\"request\"} 10"), "{full}");
        let det = reg.render_deterministic();
        assert!(det.contains("pipeline_dp_sites_total 2"), "{det}");
        assert!(det.contains("pipeline_dp_slice_stmts_bucket"), "{det}");
        assert!(!det.contains("pipeline_phase_seconds"), "timings are per-run: {det}");
        assert!(!det.contains("summary_cache"), "cache counters race across workers: {det}");
        // The persistent-cache and targeted counters are deterministic by
        // construction, so they must survive the deterministic render.
        assert!(det.contains("incr_summaries_total{event=\"reused\"} 8"), "{det}");
        assert!(det.contains("incr_summaries_total{event=\"recomputed\"} 2"), "{det}");
        assert!(det.contains("incr_persistent_hit_rate 0.8"), "{det}");
        assert!(det.contains("incr_targeted_skipped_classes_total 3"), "{det}");
        assert!(det.contains("incr_targeted_cone_methods_total 5"), "{det}");
    }

    #[test]
    fn dp_totals() {
        let d = DpSliceMetrics { dp_id: 0, request_stmts: 10, response_stmts: 5 };
        assert_eq!(d.total_stmts(), 15);
    }
}
