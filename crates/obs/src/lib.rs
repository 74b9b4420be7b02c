//! # extractocol-obs
//!
//! The workspace's observability layer: zero-external-dependency,
//! offline-safe tracing and metrics, threaded through the static pipeline
//! (per phase → per DP → per interprocedural step), the conformance
//! oracle, and the serving classifier (per shard → per request).
//!
//! Three pieces:
//!
//! * [`span`] — the span tree: [`TraceCollector`]/[`SpanGuard`] RAII API
//!   with a thread-safe, capacity-capped collector that works under the
//!   `core::par` worker pools; spans carry typed key/value attributes
//!   (dp_id, method signature, candidate count, verdict, …).
//! * [`export`] — span exporters: Chrome `chrome://tracing` JSON, the
//!   collapsed-stack text format consumed by standard flamegraph tooling,
//!   a human top-k summary table, and the strict round-trip validator
//!   behind the `extractocol-trace-validate` binary and the CI gate.
//! * [`metrics`] — the instrument registry: counters, gauges, and
//!   fixed-bucket latency histograms (p50/p90/p99/p999 via bucket
//!   interpolation) with a Prometheus-style text exposition renderer and
//!   an explicit deterministic-vs-per-run split
//!   ([`metrics::Volatility`]) so jobs-invariance stays testable.
//! * [`log`] — the structured event log: leveled key=value / JSON-line
//!   records in a fixed-capacity deterministic ring buffer with an
//!   optional streaming file sink and a dropped-records counter.
//! * [`diff`](mod@diff) — snapshot diffing for `extractocol-obs-diff`: parses
//!   Prometheus-text and `BENCH_*.json` snapshots, compares the
//!   deterministic family exactly and the per-run family against
//!   relative thresholds.
//!
//! Everything here is *observational*: nothing feeds back into analysis
//! results, and nothing enters canonical report serialization.

pub mod diff;
pub mod export;
pub mod log;
pub mod metrics;
pub mod span;

pub use diff::{diff, parse_snapshot, DiffConfig, DiffReport, Snapshot};
pub use export::{
    chrome_trace_json, collapsed_stacks, summary_table, validate_chrome_trace, TraceStats,
};
pub use log::{EventLog, EventRecord, Level, SinkFormat, DEFAULT_EVENT_CAPACITY};
pub use metrics::{Counter, Gauge, Histogram, Registry, Volatility};
pub use span::{
    AttrValue, Exemplar, ExemplarStore, SpanGuard, SpanRecord, TraceCollector,
    DEFAULT_EXEMPLAR_CAPACITY, DEFAULT_SPAN_CAPACITY,
};
