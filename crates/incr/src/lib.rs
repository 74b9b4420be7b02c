//! # extractocol-incr
//!
//! Targeted + incremental analysis: the demand-driven half of the
//! pipeline. BackDroid-style targeted analysis observes that when the
//! question is "what reaches these sinks?", whole-program analysis is
//! wasted work — and Extractocol's demarcation points are exactly such
//! sinks. This crate supplies the two pieces the pipeline composes:
//!
//! * **[`cone`]** — reachability cones over the call graph (plus
//!   static-field, instance-field, and implicit-callback couplings), so
//!   targeted mode runs points-to, taint, and slicing only over code that
//!   can influence a demarcation point;
//! * **[`key`] / [`validity`] / [`archive`]** — content-hashed method
//!   identity, one-hop validity fingerprints, and the versioned `.exsm`
//!   persistent summary-cache archive, so re-analysis after an edit
//!   recomputes only summaries whose dependency cone contains a changed
//!   method.
//!
//! Both halves are *transparent*: reports stay byte-identical to a cold
//! whole-program run at any worker count. The crate is deliberately
//! report-free — it knows methods, graphs, and summaries, not
//! transactions — so it sits between `extractocol-analysis` and
//! `extractocol-core` in the crate DAG.

pub mod archive;
pub mod cone;
pub mod key;
pub mod validity;

pub use archive::{Epoch, SummaryArchive};
pub use cone::TargetedStats;
pub use extractocol_ir::container::ContainerError;
pub use validity::Fingerprints;

use extractocol_analysis::{AccessPath, Direction, Root, SummaryExport, TaintEngine};
use extractocol_ir::{MethodId, ProgramIndex};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// The cache key of one summary, in live-id form.
pub type SummaryKey = (Direction, MethodId, usize, AccessPath);

/// Persistent summary-cache counters for one run. All deterministic:
/// preload acceptance is a pure function of the archive and the current
/// program, and the recompute counts are derived from the (sorted) final
/// export rather than racy per-thread counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IncrStats {
    /// Summaries present in the loaded archive.
    pub preloaded: usize,
    /// Archive summaries accepted after fingerprint validation.
    pub valid: usize,
    /// Archive summaries rejected (stale fingerprint, vanished method,
    /// or epoch mismatch).
    pub invalidated: usize,
    /// The whole archive was discarded because its epoch (app, options)
    /// did not match this run.
    pub epoch_mismatch: bool,
    /// The archive could not be read at all (missing files are *not*
    /// errors — this records corruption/version skew, and the run falls
    /// back to a cold start).
    pub load_error: Option<String>,
    /// Summaries answered by the persistent cache this run.
    pub reused_summaries: usize,
    /// Summaries computed fresh this run.
    pub recomputed_summaries: usize,
    /// Distinct root methods among the recomputed summaries.
    pub recomputed_methods: usize,
    /// Methods in the analysis scope (denominator for the recompute
    /// ratio).
    pub total_methods: usize,
    /// Summaries written back to the archive.
    pub saved: usize,
    /// The archive could not be written back (the analysis itself is
    /// unaffected — the next run just starts cold).
    pub save_error: Option<String>,
}

impl IncrStats {
    /// Fraction of this run's summaries answered by the persistent cache
    /// (0.0 when no summaries were needed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.reused_summaries + self.recomputed_summaries;
        if total == 0 {
            0.0
        } else {
            self.reused_summaries as f64 / total as f64
        }
    }

    /// One-line rendering for CLI output and CI gates.
    pub fn to_line(&self) -> String {
        format!(
            "preloaded={} valid={} invalidated={} reused={} recomputed={} \
             recomputed_methods={}/{} saved={} hit_rate={:.1}%",
            self.preloaded,
            self.valid,
            self.invalidated,
            self.reused_summaries,
            self.recomputed_summaries,
            self.recomputed_methods,
            self.total_methods,
            self.saved,
            self.hit_rate() * 100.0
        )
    }
}

/// The result of [`load_into_engine`]: acceptance counters plus the keys
/// that were preloaded (so the post-run diff can tell reuse from
/// recomputation).
#[derive(Default)]
pub struct LoadOutcome {
    pub stats: IncrStats,
    pub preloaded_keys: HashSet<SummaryKey>,
}

/// Validates a summary's structural references against the live program.
/// Only called once fingerprints matched — at that point any violation
/// means a crafted or hash-colliding archive, so the caller refuses the
/// whole file.
fn structurally_sound(
    prog: &ProgramIndex<'_>,
    root: MethodId,
    rec: &archive::SummaryRecord,
    resolve: &[Option<MethodId>],
) -> bool {
    let body_len = prog.method(root).body.len();
    let local_ok = |m: MethodId, p: &AccessPath| match &p.root {
        Root::Local(l) => (l.0 as usize) < prog.method(m).locals.len(),
        Root::Static(_) => true,
    };
    if rec.stmt as usize >= body_len || !local_ok(root, &rec.fact) {
        return false;
    }
    if rec.nodes.iter().any(|(s, p)| *s as usize >= body_len || !local_ok(root, p)) {
        return false;
    }
    if rec.marks.iter().any(|&s| s as usize >= body_len) {
        return false;
    }
    let ref_ok = |idx: u32, stmt: u32| {
        resolve[idx as usize].is_some_and(|m| (stmt as usize) < prog.method(m).body.len())
    };
    if rec.extern_marks.iter().any(|&(m, s)| !ref_ok(m, s)) {
        return false;
    }
    rec.exits
        .iter()
        .all(|(m, s, p)| ref_ok(*m, *s) && resolve[*m as usize].is_some_and(|mid| local_ok(mid, p)))
}

/// Loads a `.exsm` archive and preloads every still-valid summary into the
/// engine. Never fails the run: a missing file is a cold start, a corrupt
/// or mismatched file is recorded in [`IncrStats::load_error`] /
/// [`IncrStats::epoch_mismatch`] and treated as cold.
pub fn load_into_engine(
    path: &Path,
    epoch: &Epoch,
    prog: &ProgramIndex<'_>,
    fp: &Fingerprints,
    engine: &TaintEngine<'_, '_, '_>,
) -> LoadOutcome {
    let mut out = LoadOutcome::default();
    if !path.exists() {
        return out;
    }
    let arch = match archive::read_file(path) {
        Ok(a) => a,
        Err(e) => {
            out.stats.load_error = Some(e.to_string());
            return out;
        }
    };
    out.stats.preloaded = arch.summaries.len();
    if &arch.epoch != epoch {
        out.stats.epoch_mismatch = true;
        out.stats.invalidated = arch.summaries.len();
        return out;
    }
    // Remap the method table onto the live program by stable key; vanished
    // methods stay `None` and invalidate the entries referencing them.
    let resolve: Vec<Option<MethodId>> =
        arch.methods.iter().map(|m| fp.by_key.get(&m.key).copied()).collect();

    let mut entries: Vec<SummaryExport> = Vec::new();
    for rec in &arch.summaries {
        let meth = &arch.methods[rec.method as usize];
        let Some(root) = resolve[rec.method as usize] else {
            out.stats.invalidated += 1;
            continue;
        };
        let current_content = fp.content.get(&root).copied().unwrap_or_default();
        let current_validity = fp.validity.get(&root).copied();
        if meth.content != current_content || current_validity != Some(meth.validity) {
            out.stats.invalidated += 1;
            continue;
        }
        if !structurally_sound(prog, root, rec, &resolve)
            || rec.extern_marks.iter().any(|&(m, _)| resolve[m as usize].is_none())
        {
            // Fingerprints matched but the shape doesn't fit the live
            // program: crafted input (or an FNV collision). Trust nothing.
            out.stats = IncrStats {
                preloaded: arch.summaries.len(),
                invalidated: arch.summaries.len(),
                load_error: Some(
                    "archive refused: summary structure inconsistent with fingerprinted program"
                        .to_string(),
                ),
                ..IncrStats::default()
            };
            return LoadOutcome { stats: out.stats, preloaded_keys: HashSet::new() };
        }
        let remap = |idx: u32| resolve[idx as usize].expect("checked above");
        let entry = SummaryExport {
            direction: rec.direction,
            method: root,
            stmt: rec.stmt as usize,
            fact: rec.fact.clone(),
            nodes: rec.nodes.iter().map(|(s, p)| (*s as usize, p.clone())).collect(),
            marks: rec.marks.iter().map(|&s| s as usize).collect(),
            extern_marks: rec.extern_marks.iter().map(|&(m, s)| (remap(m), s as usize)).collect(),
            exits: rec.exits.iter().map(|(m, s, p)| (remap(*m), *s as usize, p.clone())).collect(),
            statics: rec.statics.clone(),
        };
        out.preloaded_keys.insert((entry.direction, entry.method, entry.stmt, entry.fact.clone()));
        entries.push(entry);
    }
    out.stats.valid = entries.len();
    engine.preload_summaries(entries);
    out
}

/// Builds a `.exsm` archive from the engine's final summary export.
/// Deterministic: the export is key-sorted and the method table is sorted
/// by stable key, so equal program states produce byte-equal archives at
/// any worker count.
pub fn build_archive(
    epoch: &Epoch,
    fp: &Fingerprints,
    exports: &[SummaryExport],
) -> SummaryArchive {
    let mut referenced: HashSet<MethodId> = HashSet::new();
    for e in exports {
        referenced.insert(e.method);
        referenced.extend(e.extern_marks.iter().map(|&(m, _)| m));
        referenced.extend(e.exits.iter().map(|&(m, _, _)| m));
    }
    let mut table: Vec<(String, MethodId)> =
        referenced.into_iter().filter_map(|m| fp.keys.get(&m).map(|k| (k.clone(), m))).collect();
    table.sort();
    let index: HashMap<MethodId, u32> =
        table.iter().enumerate().map(|(i, &(_, m))| (m, i as u32)).collect();
    let methods = table
        .iter()
        .map(|(k, m)| archive::MethodRecord {
            key: k.clone(),
            content: fp.content.get(m).copied().unwrap_or_default(),
            validity: fp.validity.get(m).copied().unwrap_or_default(),
        })
        .collect();
    let summaries = exports
        .iter()
        .filter(|e| index.contains_key(&e.method))
        .map(|e| archive::SummaryRecord {
            direction: e.direction,
            method: index[&e.method],
            stmt: e.stmt as u32,
            fact: e.fact.clone(),
            nodes: e.nodes.iter().map(|(s, p)| (*s as u32, p.clone())).collect(),
            marks: e.marks.iter().map(|&s| s as u32).collect(),
            extern_marks: e
                .extern_marks
                .iter()
                .filter_map(|(m, s)| index.get(m).map(|&i| (i, *s as u32)))
                .collect(),
            exits: e
                .exits
                .iter()
                .filter_map(|(m, s, p)| index.get(m).map(|&i| (i, *s as u32, p.clone())))
                .collect(),
            statics: e.statics.clone(),
        })
        .collect();
    SummaryArchive { epoch: epoch.clone(), methods, summaries }
}

/// Fills the post-run diff counters: which of the final summaries came
/// from the persistent cache, and how many methods had to be recomputed.
pub fn finish_stats(
    stats: &mut IncrStats,
    exports: &[SummaryExport],
    preloaded_keys: &HashSet<SummaryKey>,
    total_methods: usize,
) {
    let mut recomputed_roots: HashSet<MethodId> = HashSet::new();
    let mut reused = 0usize;
    for e in exports {
        let key: SummaryKey = (e.direction, e.method, e.stmt, e.fact.clone());
        if preloaded_keys.contains(&key) {
            reused += 1;
        } else {
            recomputed_roots.insert(e.method);
        }
    }
    stats.reused_summaries = reused;
    stats.recomputed_summaries = exports.len() - reused;
    stats.recomputed_methods = recomputed_roots.len();
    stats.total_methods = total_methods;
}
