//! # extractocol-analysis
//!
//! The static-analysis substrate Extractocol builds on. In the original
//! system this layer is Soot + FlowDroid \[27, 60, 73\]: control-flow graphs,
//! a call graph, models of Android's implicit control flow, and a
//! flow-sensitive inter-procedural taint engine that the paper extends with
//! *backward* propagation ("we flip the edge direction of the control flow
//! graph … and apply inverted taint propagation rules", §3.1).
//!
//! Modules:
//!
//! * [`mod@cfg`] — basic blocks, reverse post-order, natural-loop detection
//!   (loop headers/latches drive the `rep{..}` parts of signatures, §3.2),
//!   and dominators;
//! * [`callgraph`] — class-hierarchy-analysis call graph over explicit
//!   call sites plus the implicit edges contributed by [`callbacks`];
//! * [`callbacks`] — models of implicit call flow through thread and HTTP
//!   libraries (`AsyncTask`, Volley, retrofit, `Thread`/`Runnable`,
//!   `Handler`, `Timer`, rx-style subscriptions, UI/location listeners),
//!   the issue EDGEMINER \[33\] studies and §3.4 addresses;
//! * [`methods`] — the per-method facts (CFG, entry/exit locals) every
//!   analysis of a run shares, each built once on first use;
//! * [`pointsto`] — Andersen-style, field-sensitive points-to analysis
//!   with allocation-site abstraction and on-the-fly call resolution (the
//!   SPARK \[60\] layer), feeding call-graph devirtualization and alias
//!   queries;
//! * [`diagnostics`] — a static precision-lint pass over the IR and
//!   analysis results: unresolved sites, empty points-to sets, API-model
//!   coverage gaps, reflection, dead blocks;
//! * [`taint`] — the bidirectional taint engine over access paths, used
//!   three ways by the paper: bi-directional slicing, inter-slice
//!   dependency analysis, and asynchronous-event handling (§3 footnote 1).
//!
//! ## Faithfulness note
//!
//! The engine is flow-sensitive and field-sensitive (access paths with a
//! configurable depth cap, like FlowDroid's) but *context-insensitive*:
//! facts returning from a callee flow to every call site. This is a
//! deliberate simplification — the paper's request/response pairing
//! problem (Fig. 5) arises even under FlowDroid's context sensitivity
//! because slices share demarcation points through code reuse, and the
//! paper's remedy (disjoint sub-slice preprocessing, implemented in
//! `extractocol-core::pairing`) is what restores precision. The
//! access-path-depth ablation bench quantifies the field-sensitivity
//! trade-off.

pub mod callbacks;
pub mod callgraph;
pub mod cfg;
pub mod diagnostics;
pub mod methods;
pub mod pointsto;
pub mod taint;

pub use callbacks::{CallbackRegistry, ImplicitEdge, OperandSource};
pub use callgraph::{CallGraph, CallSite};
pub use cfg::Cfg;
pub use diagnostics::{Lint, LintCategory, LintReport};
pub use methods::{MethodInfo, MethodTable};
pub use pointsto::{AllocId, AllocSite, PointsTo, PtsStats};
pub use taint::{
    AccessPath, ApiFlowModel, CacheStats, ConservativeModel, Direction, Root, Seed, Slot,
    SummaryExport, TaintEngine, TaintOptions, TaintReport,
};
