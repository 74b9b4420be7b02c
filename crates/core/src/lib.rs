//! # extractocol-core
//!
//! The Extractocol pipeline (Kim, Choi, et al., CoNEXT '16): given an
//! Android application package as IR, reconstruct its HTTP(S) protocol
//! behavior — message signatures, request/response pairs, and
//! inter-transaction dependencies — using static analysis only.
//!
//! The three phases of the paper's design (Fig. 2) map onto modules:
//!
//! 1. **Network-aware program slicing** — [`demarcation`] finds the
//!    demarcation points, [`slicing`] runs bidirectional taint propagation
//!    (with object-aware augmentation and the asynchronous-event
//!    heuristic) to produce request/response slices.
//! 2. **Signature extraction** — [`sigbuild`] abstract-interprets each
//!    slice over the [`semantics`] API model, maintaining signatures in the
//!    intermediate language of [`siglang`], and compiles them to regexes
//!    and JSON/XML tree signatures.
//! 3. **Message dependency analysis** — [`pairing`] reconstructs HTTP
//!    transactions (request ↔ response, via disjoint sub-slices), and
//!    [`interdep`] infers fine-grained inter-transaction dependencies
//!    (response fields feeding later requests, including through SQLite
//!    and resources).
//!
//! [`deobf`] handles obfuscated bundled libraries (§3.4); [`pipeline`]
//! orchestrates everything behind [`pipeline::Extractocol`]; [`report`]
//! holds the output model.

pub mod conformance;
pub mod demarcation;
pub mod deobf;
pub mod flowmodel;
pub mod interdep;
pub mod metrics;
pub mod pairing;
pub mod par;
pub mod pipeline;
pub mod report;
pub mod semantics;
pub mod sigbuild;
pub mod siglang;
pub mod slicing;
pub mod stubs;

pub use extractocol_obs::{EventLog, Level, SinkFormat, TraceCollector};
pub use metrics::{CacheStats, DpSliceMetrics, Metrics, PhaseGuard, PhaseTimings};
pub use pipeline::{Extractocol, Options};
pub use report::AnalysisReport;
pub use semantics::{ApiOp, SemanticModel};
pub use siglang::{JsonSig, SigPat, TypeHint, XmlSig};
