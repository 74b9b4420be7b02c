//! # extractocol-serve
//!
//! The signature-serving subsystem: takes the [`AnalysisReport`]s the
//! static pipeline extracts (§4–§5 of the paper) and turns them into a
//! deployable artifact — a compiled [`SignatureIndex`] that classifies
//! live HTTP traffic back to `(app, transaction, demarcation point)`
//! provenance at high throughput. This is the paper's "network management
//! / signature-based filtering" use case (§2, §7) made concrete.
//!
//! Six layers:
//!
//! * [`index`] — the immutable compiled index: a byte-trie over mandatory
//!   literal URI prefixes prunes the candidate set before the structural
//!   matcher runs; verdicts are deterministic and brute-force-equivalent.
//! * [`classify`] — batch classification on the `core::par` worker pool
//!   with fixed-size shards and order-independent stat merging, so
//!   results are byte-identical across `jobs` settings.
//! * [`bench`](mod@bench) — the shared corpus inputs and the adversarial
//!   bench behind `extractocol-serve attack`.
//! * [`metrics`] — the serving-side instrument bundle ([`ServeMetrics`]):
//!   verdict counters, the candidate-fraction distribution,
//!   per-verdict-class latency histograms, and shard telemetry, rendered
//!   in exposition format behind `--metrics-out`.
//! * [`archive`] — the persistent form: a versioned, checksummed binary
//!   archive written by `extractocol-serve compile` and loaded by every
//!   other subcommand, so the index is built once and served many times.
//! * [`daemon`] — the long-running classifier: line-based traffic
//!   protocol over stdin or TCP, atomic hot-swap to a recompiled
//!   archive, graceful drain on shutdown.
//!
//! [`AnalysisReport`]: extractocol_core::report::AnalysisReport

pub mod archive;
pub mod bench;
pub mod classify;
pub mod daemon;
pub mod index;
pub mod metrics;

pub use archive::{read_archive, read_archive_file, write_archive, write_archive_file};
pub use bench::{AttackBenchReport, AttackClassTally};
pub use classify::{classify_batch, classify_batch_observed, ClassifyStats};
pub use daemon::{
    scrape, send_lines, trace_id_for, Daemon, DaemonConfig, DaemonMetrics, Reply, SwapError,
    SwapOutcome,
};
pub use extractocol_ir::container::ContainerError;
pub use index::{CompiledSig, Probe, SignatureIndex, Verdict};
pub use metrics::{AttackMetrics, ServeMetrics};
