//! The long-running classifier: `extractocol-serve daemon`.
//!
//! Speaks the existing line-based traffic wire format
//! ([`extractocol_dynamic::parse_request_line`]) over stdin/stdout or
//! TCP, one response line per input line. A handful of control verbs —
//! none of which collide with an HTTP method, so the grammar stays
//! unambiguous — drive the daemon itself:
//!
//! ```text
//! GET\t<uri>[\t<mime>\t<body>]   → match\t<app>\t<txn>\t<dp_class> | unmatched
//! PING                           → pong
//! STATS                          → stats\tgeneration=…\tsignatures=…\trequests=…\tswaps=…
//!                                        \tinflight=…\tparse_errors=…\tuptime_ticks=…
//! SWAP\t<archive-path>           → swapped\tgeneration=…\tsignatures=…\tload_us=…\tdrained=…
//! METRICS                        → metrics\tlines=N  then N Prometheus exposition lines
//! HEALTH                         → health\tstatus=ok\tgeneration=…\tsignatures=…
//!                                        \tuptime_ticks=…\tinflight=…\trequests=…\tlast_swap=…
//! SLOW                           → slow\tlines=N\texemplars=K  then N exemplar-dump lines
//! SHUTDOWN                       → bye            (then graceful drain + exit)
//! anything malformed             → error\t<reason>
//! ```
//!
//! Multi-line replies (`METRICS`, `SLOW`) are **block-framed**: the
//! header line carries `lines=N` in its second tab field and exactly `N`
//! payload lines follow, so one request still yields one logical
//! response and [`send_lines`] keeps its response-per-request contract.
//!
//! # Request trace ids
//!
//! Every traffic line gets a deterministic trace id:
//! `fnv1a64(conn_id.to_be_bytes() ‖ seq.to_be_bytes())` rendered as 16
//! hex digits, where `conn_id` is the accept-order connection number
//! (0 = stdin) and `seq` the 1-based request number on that connection.
//! The id is stitched through the request's `daemon_request` span, its
//! event-log records, and the slow-request [`ExemplarStore`] — so a
//! `SLOW` dump, an event grep, and a trace view all name the same
//! request the same way, and identical traffic replays produce
//! identical ids at any worker count.
//!
//! # Hot swap
//!
//! [`Daemon::swap_from_file`] replaces the serving index with a newly
//! compiled archive through a four-phase state machine:
//!
//! 1. **Load** — decode + structurally validate the archive
//!    ([`read_archive`]); any [`ContainerError`] aborts the swap with the
//!    old index untouched.
//! 2. **Verify** — re-serialize the loaded index and require the bytes
//!    to equal the input archive. Deterministic serialization makes this
//!    a strong losslessness check: it fails iff decode dropped or
//!    reordered anything.
//! 3. **Swap** — atomically publish the new index
//!    (`RwLock<Arc<SignatureIndex>>` slot; in-flight requests keep their
//!    own `Arc` clone, so they finish on the index they started on).
//! 4. **Drain** — wait for the old index's outstanding `Arc` clones to
//!    drop. The swap is already committed here, so a drain timeout is
//!    reported in the outcome (and a metric), not an error.
//!
//! Failures in phases 1–2 are typed [`SwapError`]s and leave the old
//! index serving; the daemon never serves a partially-loaded index.

use crate::archive::{read_archive, write_archive};
use crate::index::{SignatureIndex, Verdict};
use extractocol_dynamic::parse_request_line;
use extractocol_ir::container::{self, ContainerError};
use extractocol_ir::hash::fnv1a64;
use extractocol_obs::metrics::LATENCY_US_BUCKETS;
use extractocol_obs::{
    Counter, EventLog, Exemplar, ExemplarStore, Gauge, Histogram, Registry, SpanRecord,
    TraceCollector, Volatility, DEFAULT_EXEMPLAR_CAPACITY,
};
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Daemon tunables. Defaults suit both the CI smoke gate and tests.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// How long phase 4 waits for the old index's references to drop
    /// before declaring the drain timed out.
    pub drain_timeout: Duration,
    /// Accept-loop poll interval (the TCP listener is non-blocking so
    /// shutdown is observed promptly).
    pub accept_poll: Duration,
    /// Per-connection read timeout; connections poll the shutdown flag
    /// at this cadence.
    pub read_poll: Duration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            drain_timeout: Duration::from_secs(5),
            accept_poll: Duration::from_millis(10),
            read_poll: Duration::from_millis(100),
        }
    }
}

/// Why a hot swap was refused. Both variants fire *before* the swap
/// phase, so the previously serving index is untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// Phase 1: the archive failed to decode or validate.
    Load(ContainerError),
    /// Phase 2: the loaded index did not re-serialize to the input
    /// bytes — decode was lossy, so the archive cannot be trusted.
    Verify(String),
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Load(e) => write!(f, "load: {e}"),
            SwapError::Verify(msg) => write!(f, "verify: {msg}"),
        }
    }
}

impl std::error::Error for SwapError {}

/// A committed hot swap, with per-phase observations.
#[derive(Clone, Debug)]
pub struct SwapOutcome {
    /// Index generation now serving (starts at 1, +1 per swap).
    pub generation: u64,
    /// Signatures in the new index.
    pub signatures: usize,
    /// Phase 1 wall-clock (decode + validate).
    pub load: Duration,
    /// Phase 2 wall-clock (re-serialize + compare).
    pub verify: Duration,
    /// Whether every reference to the old index dropped within the
    /// drain timeout.
    pub drained: bool,
    /// Phase 4 wall-clock.
    pub drain: Duration,
}

/// What [`Daemon::process_line`] wants sent back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Blank line or comment — nothing to send.
    Empty,
    /// One response line (no trailing newline).
    Line(String),
    /// A block-framed multi-line response: the first element is the
    /// header (`…\tlines=N\t…`), followed by exactly N payload lines.
    Lines(Vec<String>),
    /// Final response line; the connection/loop should close after
    /// sending it and the daemon should begin shutdown.
    Bye(String),
}

/// Renders the deterministic per-request trace id: fnv1a64 over the
/// big-endian `(conn_id, seq)` pair, as 16 hex digits.
pub fn trace_id_for(conn_id: u64, seq: u64) -> String {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&conn_id.to_be_bytes());
    bytes[8..].copy_from_slice(&seq.to_be_bytes());
    format!("{:016x}", fnv1a64(&bytes))
}

/// Daemon instrument bundle, registered on a shared [`Registry`] (the
/// same exposition as [`crate::ServeMetrics`] when the caller passes its
/// registry in).
#[derive(Clone)]
pub struct DaemonMetrics {
    requests: Arc<Counter>,
    verdict_match: Arc<Counter>,
    verdict_unmatched: Arc<Counter>,
    parse_errors: Arc<Counter>,
    request_latency: Arc<Histogram>,
    swaps: Arc<Counter>,
    swap_failures_load: Arc<Counter>,
    swap_failures_verify: Arc<Counter>,
    drain_timeouts: Arc<Counter>,
    index_load_us: Arc<Histogram>,
    generation: Arc<Gauge>,
    connections: Arc<Counter>,
}

impl DaemonMetrics {
    /// Registers the daemon families on an existing registry.
    pub fn on(registry: &Registry) -> DaemonMetrics {
        let det = Volatility::Deterministic;
        let run = Volatility::PerRun;
        DaemonMetrics {
            requests: registry.counter(
                "serve_daemon_requests_total",
                &[],
                det,
                "Traffic lines classified by the daemon",
            ),
            verdict_match: registry.counter(
                "serve_daemon_verdict_total",
                &[("verdict", "match")],
                det,
                "Daemon verdicts by class",
            ),
            verdict_unmatched: registry.counter(
                "serve_daemon_verdict_total",
                &[("verdict", "unmatched")],
                det,
                "Daemon verdicts by class",
            ),
            parse_errors: registry.counter(
                "serve_daemon_parse_errors_total",
                &[],
                det,
                "Traffic lines the wire-format parser rejected",
            ),
            request_latency: registry.histogram(
                "serve_daemon_request_latency_us",
                &[],
                run,
                "Per-line parse+classify latency in the daemon (us)",
                LATENCY_US_BUCKETS,
            ),
            swaps: registry.counter(
                "serve_daemon_swaps_total",
                &[],
                det,
                "Hot swaps committed (load+verify+swap succeeded)",
            ),
            swap_failures_load: registry.counter(
                "serve_daemon_swap_failures_total",
                &[("phase", "load")],
                det,
                "Hot swaps refused, by failing phase",
            ),
            swap_failures_verify: registry.counter(
                "serve_daemon_swap_failures_total",
                &[("phase", "verify")],
                det,
                "Hot swaps refused, by failing phase",
            ),
            drain_timeouts: registry.counter(
                "serve_daemon_drain_timeouts_total",
                &[],
                run,
                "Committed swaps whose old-index drain timed out",
            ),
            index_load_us: registry.histogram(
                "serve_daemon_index_load_us",
                &[],
                run,
                "Archive decode+validate wall-clock per load (us)",
                LATENCY_US_BUCKETS,
            ),
            generation: registry.gauge(
                "serve_daemon_index_generation",
                &[],
                det,
                "Serving index generation (1 = initial, +1 per swap)",
            ),
            connections: registry.counter(
                "serve_daemon_connections_total",
                &[],
                run,
                "TCP connections accepted",
            ),
        }
    }
}

/// The daemon: an atomically swappable [`SignatureIndex`] behind the
/// line protocol. Share across connection threads via `Arc<Daemon>`.
pub struct Daemon {
    slot: RwLock<Arc<SignatureIndex>>,
    generation: AtomicU64,
    requests: AtomicU64,
    swaps: AtomicU64,
    parse_errors: AtomicU64,
    /// Requests currently between parse and reply.
    inflight: AtomicU64,
    /// Accept-order connection numbering (stdin is 0).
    next_conn_id: AtomicU64,
    /// Per-daemon request sequence for the stdin/`process_line` path.
    stdin_seq: AtomicU64,
    /// Outcome of the most recent swap attempt: `none`, `ok`,
    /// `drain_timeout`, or `refused:<phase>`.
    last_swap: Mutex<String>,
    start: Instant,
    config: DaemonConfig,
    /// The backing registry — render for `--metrics-out` and `METRICS`.
    pub registry: Registry,
    /// Daemon instrument bundle (on `registry`).
    pub metrics: DaemonMetrics,
    /// Span collector; [`TraceCollector::disabled`] unless tracing was
    /// requested.
    pub trace: TraceCollector,
    /// Structured event log; [`EventLog::disabled`] unless `--log-out`
    /// or a live window was requested.
    pub events: EventLog,
    /// Top-K slowest requests, queryable live via `SLOW`.
    pub exemplars: ExemplarStore,
}

impl Daemon {
    /// A daemon serving `index`, with a fresh registry and tracing off.
    pub fn new(index: SignatureIndex, config: DaemonConfig) -> Daemon {
        Daemon::with_instruments(index, config, Registry::new(), TraceCollector::disabled())
    }

    /// A daemon on caller-owned instruments (shared exposition/trace),
    /// with the event log disabled.
    pub fn with_instruments(
        index: SignatureIndex,
        config: DaemonConfig,
        registry: Registry,
        trace: TraceCollector,
    ) -> Daemon {
        Daemon::with_observability(index, config, registry, trace, EventLog::disabled())
    }

    /// A daemon on caller-owned instruments plus a structured event log.
    /// Ring evictions from `events` are mirrored into the registry's
    /// `log_records_dropped_total` counter.
    pub fn with_observability(
        index: SignatureIndex,
        config: DaemonConfig,
        registry: Registry,
        trace: TraceCollector,
        events: EventLog,
    ) -> Daemon {
        let metrics = DaemonMetrics::on(&registry);
        metrics.generation.set(1.0);
        events.set_dropped_counter(registry.counter(
            "log_records_dropped_total",
            &[],
            Volatility::PerRun,
            "Event records evicted from the ring buffer",
        ));
        Daemon {
            slot: RwLock::new(Arc::new(index)),
            generation: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(1),
            stdin_seq: AtomicU64::new(0),
            last_swap: Mutex::new("none".to_string()),
            start: Instant::now(),
            config,
            registry,
            metrics,
            trace,
            events,
            exemplars: ExemplarStore::new(DEFAULT_EXEMPLAR_CAPACITY),
        }
    }

    /// The currently serving index. The returned `Arc` pins the index
    /// for the caller's lifetime — a concurrent swap publishes a new one
    /// without invalidating this reference (that's what phase 4 drains).
    pub fn index(&self) -> Arc<SignatureIndex> {
        Arc::clone(&self.slot.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Serving index generation: 1 initially, +1 per committed swap.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Records an index load performed outside the swap path (the
    /// initial archive load at startup) in the load-timing histogram.
    pub fn metrics_index_load(&self, secs: f64) {
        self.metrics.index_load_us.observe(secs * 1e6);
    }

    /// Handles one input line on the daemon-wide (stdin) connection:
    /// traffic, control verb, or garbage. Never panics — malformed input
    /// produces an `error\t…` reply.
    pub fn process_line(&self, line: &str) -> Reply {
        // Sequence numbers are only consumed by traffic lines so control
        // verbs don't perturb the deterministic trace-id series; peek at
        // the verb before allocating one.
        self.process_line_ctx(line, 0, &self.stdin_seq)
    }

    /// Handles one input line in an explicit connection context:
    /// `conn_id` names the connection (0 = stdin), `seq` is that
    /// connection's traffic-line counter (incremented here for every
    /// traffic line, so trace ids are dense and replay-stable).
    pub fn process_line_ctx(&self, line: &str, conn_id: u64, seq: &AtomicU64) -> Reply {
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Reply::Empty;
        }
        let verb = trimmed.split('\t').next().unwrap_or("");
        match verb {
            "PING" => Reply::Line("pong".into()),
            "STATS" => Reply::Line(self.stats_line()),
            "HEALTH" => Reply::Line(self.health_line()),
            "METRICS" => {
                let payload: Vec<String> =
                    self.registry.render().lines().map(str::to_string).collect();
                let mut block = vec![format!("metrics\tlines={}", payload.len())];
                block.extend(payload);
                Reply::Lines(block)
            }
            "SLOW" => {
                let payload: Vec<String> =
                    self.exemplars.render().lines().map(str::to_string).collect();
                let mut block = vec![format!(
                    "slow\tlines={}\texemplars={}",
                    payload.len(),
                    self.exemplars.len()
                )];
                block.extend(payload);
                Reply::Lines(block)
            }
            "SHUTDOWN" => {
                self.events.info("daemon", "shutdown requested").field("conn_id", conn_id).emit();
                Reply::Bye("bye".into())
            }
            "SWAP" => {
                let path = trimmed.strip_prefix("SWAP\t").unwrap_or("");
                if path.is_empty() {
                    return Reply::Line("error\tSWAP needs an archive path".into());
                }
                match self.swap_from_file(path) {
                    Ok(o) => Reply::Line(format!(
                        "swapped\tgeneration={}\tsignatures={}\tload_us={}\tdrained={}",
                        o.generation,
                        o.signatures,
                        o.load.as_micros(),
                        o.drained
                    )),
                    Err(e) => Reply::Line(format!("error\tswap refused: {e}")),
                }
            }
            _ => {
                let seq = seq.fetch_add(1, Ordering::Relaxed) + 1;
                let trace_id = trace_id_for(conn_id, seq);
                Reply::Line(self.classify_line(trimmed, &trace_id))
            }
        }
    }

    /// `STATS` response: generation, index size, lifetime counters, and
    /// the live inflight/uptime picture.
    pub fn stats_line(&self) -> String {
        let index = self.index();
        format!(
            "stats\tgeneration={}\tsignatures={}\trequests={}\tswaps={}\tinflight={}\
             \tparse_errors={}\tuptime_ticks={}",
            self.generation(),
            index.len(),
            self.requests.load(Ordering::Relaxed),
            self.swaps.load(Ordering::Relaxed),
            self.inflight.load(Ordering::Relaxed),
            self.parse_errors.load(Ordering::Relaxed),
            self.start.elapsed().as_secs(),
        )
    }

    /// `HEALTH` response: the liveness/readiness picture in one line.
    pub fn health_line(&self) -> String {
        let index = self.index();
        format!(
            "health\tstatus=ok\tgeneration={}\tsignatures={}\tuptime_ticks={}\tinflight={}\
             \trequests={}\tlast_swap={}",
            self.generation(),
            index.len(),
            self.start.elapsed().as_secs(),
            self.inflight.load(Ordering::Relaxed),
            self.requests.load(Ordering::Relaxed),
            self.last_swap.lock().unwrap_or_else(|e| e.into_inner()),
        )
    }

    fn classify_line(&self, line: &str, trace_id: &str) -> String {
        let t0 = Instant::now();
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let mut span = self.trace.span_in("daemon", "daemon_request");
        span.attr("trace_id", trace_id);
        let req = match parse_request_line(line) {
            Ok(Some(req)) => req,
            Ok(None) => {
                self.inflight.fetch_sub(1, Ordering::Relaxed);
                return "error\tempty request line".into();
            }
            Err(e) => {
                self.metrics.parse_errors.inc();
                self.parse_errors.fetch_add(1, Ordering::Relaxed);
                span.attr("outcome", "parse_error");
                self.events
                    .warn("daemon", "request parse rejected")
                    .trace_id(trace_id)
                    .field("error", e.to_string())
                    .emit();
                self.inflight.fetch_sub(1, Ordering::Relaxed);
                return format!("error\t{e}");
            }
        };
        // Pin the index for this request: a swap committing mid-request
        // cannot pull it out from under us.
        let index = self.index();
        let (verdict, _probe) = index.classify(&req);
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.inc();
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        self.metrics.request_latency.observe_with_exemplar(latency_us, trace_id);
        let (reply, verdict_name, detail) = match verdict {
            Verdict::Match(id) => {
                self.metrics.verdict_match.inc();
                span.attr("outcome", "match");
                let sig = index.sig(id);
                (
                    format!("match\t{}\t{}\t{}", sig.app, sig.txn_id, sig.dp_class),
                    "match",
                    format!("{}:{}", sig.app, sig.txn_id),
                )
            }
            Verdict::Unmatched => {
                self.metrics.verdict_unmatched.inc();
                span.attr("outcome", "unmatched");
                ("unmatched".to_string(), "unmatched", String::new())
            }
        };
        self.events
            .debug("daemon", "request classified")
            .trace_id(trace_id)
            .field("verdict", verdict_name)
            .field("latency_us", latency_us.round() as u64)
            .emit();
        // The synthetic span record mirrors the request span so a SLOW
        // dump is self-contained even when tracing is off.
        let latency_ns = (latency_us * 1e3).round() as u64;
        self.exemplars.offer(Exemplar {
            trace_id: trace_id.to_string(),
            latency_us: latency_us.round() as u64,
            verdict: verdict_name.to_string(),
            detail,
            spans: vec![SpanRecord {
                name: "daemon_request".into(),
                cat: "daemon".into(),
                start_ns: 0,
                end_ns: latency_ns,
                self_ns: latency_ns,
                tid: 0,
                depth: 0,
                stack: "daemon_request".into(),
                attrs: vec![("trace_id".into(), trace_id.into())],
            }],
        });
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        reply
    }

    /// Hot-swaps to the archive at `path` (phases: load → verify →
    /// swap → drain; see the module docs).
    pub fn swap_from_file(&self, path: &str) -> Result<SwapOutcome, SwapError> {
        let bytes = container::read_file(std::path::Path::new(path)).map_err(|e| {
            self.set_last_swap("refused:load");
            self.events
                .error("daemon", "swap refused: archive unreadable")
                .field("path", path)
                .field("error", e.to_string())
                .emit();
            SwapError::Load(e)
        })?;
        self.swap_archive_bytes(&bytes)
    }

    fn set_last_swap(&self, outcome: &str) {
        *self.last_swap.lock().unwrap_or_else(|e| e.into_inner()) = outcome.to_string();
    }

    /// Hot-swaps to an in-memory archive.
    pub fn swap_archive_bytes(&self, bytes: &[u8]) -> Result<SwapOutcome, SwapError> {
        let mut span = self.trace.span_in("daemon", "index_swap");
        self.events.info("daemon", "swap started").field("archive_bytes", bytes.len()).emit();

        // Phase 1: Load — decode and structurally validate.
        let t_load = Instant::now();
        let new_index = read_archive(bytes).map_err(|e| {
            self.metrics.swap_failures_load.inc();
            span.attr("phase_failed", "load");
            self.set_last_swap("refused:load");
            self.events
                .error("daemon", "swap refused in load phase")
                .field("error", e.to_string())
                .emit();
            SwapError::Load(e)
        })?;
        let load = t_load.elapsed();
        self.metrics.index_load_us.observe(load.as_secs_f64() * 1e6);
        self.events
            .debug("daemon", "swap phase: load ok")
            .field("load_us", load.as_micros() as u64)
            .field("signatures", new_index.len())
            .emit();

        // Phase 2: Verify — deterministic re-serialization must
        // reproduce the input byte-for-byte, proving decode lossless.
        let t_verify = Instant::now();
        if write_archive(&new_index) != bytes {
            self.metrics.swap_failures_verify.inc();
            span.attr("phase_failed", "verify");
            self.set_last_swap("refused:verify");
            self.events.error("daemon", "swap refused in verify phase").emit();
            return Err(SwapError::Verify(
                "re-serialized index differs from the input archive".into(),
            ));
        }
        let verify = t_verify.elapsed();
        self.events
            .debug("daemon", "swap phase: verify ok")
            .field("verify_us", verify.as_micros() as u64)
            .emit();

        // Phase 3: Swap — publish atomically.
        let signatures = new_index.len();
        let old = {
            let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *slot, Arc::new(new_index))
        };
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.metrics.swaps.inc();
        self.metrics.generation.set(generation as f64);

        // Phase 4: Drain — wait for in-flight requests still holding the
        // old index. `old` itself is one reference; anything beyond that
        // is a request pinned via `Daemon::index`.
        let t_drain = Instant::now();
        let mut drained = true;
        while Arc::strong_count(&old) > 1 {
            if t_drain.elapsed() > self.config.drain_timeout {
                drained = false;
                self.metrics.drain_timeouts.inc();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let drain = t_drain.elapsed();
        span.attr("generation", generation)
            .attr("signatures", signatures as u64)
            .attr("load_us", load.as_micros() as u64)
            .attr("drained", drained);
        self.set_last_swap(if drained { "ok" } else { "drain_timeout" });
        self.events
            .info("daemon", "swap committed")
            .field("generation", generation)
            .field("signatures", signatures)
            .field("drained", drained)
            .field("drain_us", drain.as_micros() as u64)
            .emit();
        Ok(SwapOutcome { generation, signatures, load, verify, drained, drain })
    }

    /// Runs the line protocol over arbitrary reader/writer pairs (stdin
    /// mode; also the unit-test harness). Returns when the input ends or
    /// a `SHUTDOWN` arrives.
    pub fn run_lines<R: BufRead, W: Write>(&self, reader: R, mut writer: W) -> io::Result<()> {
        for line in reader.lines() {
            if write_reply(&mut writer, &self.process_line(&line?))? {
                break;
            }
        }
        Ok(())
    }

    /// TCP mode: non-blocking accept loop, one thread per connection.
    /// A `SHUTDOWN` on any connection flips the shared flag; the accept
    /// loop stops, and every connection thread is joined before this
    /// returns — in-flight requests finish and their responses are
    /// written (the graceful drain the smoke gate asserts).
    pub fn serve_tcp(self: &Arc<Daemon>, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.metrics.connections.inc();
                    let daemon = Arc::clone(self);
                    let flag = Arc::clone(&shutdown);
                    handles.push(std::thread::spawn(move || {
                        daemon.handle_conn(stream, &flag);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(self.config.accept_poll);
                }
                Err(e) => return Err(e),
            }
        }
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }

    fn handle_conn(&self, stream: TcpStream, shutdown: &AtomicBool) {
        let conn_id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        self.events.debug("daemon", "connection accepted").field("conn_id", conn_id).emit();
        let seq = AtomicU64::new(0);
        if stream.set_read_timeout(Some(self.config.read_poll)).is_err() {
            return;
        }
        let Ok(read_half) = stream.try_clone() else { return };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        let mut line = String::new();
        loop {
            // `line` is only cleared after a full line is handled: a read
            // timeout mid-line leaves the partial bytes in place and the
            // next read appends the remainder.
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let reply = self.process_line_ctx(&line, conn_id, &seq);
                    line.clear();
                    // A failed write closes the connection; `Bye` shuts the
                    // daemon down whether or not its reply got through.
                    let close = write_reply(&mut writer, &reply).unwrap_or(true);
                    if matches!(reply, Reply::Bye(_)) {
                        shutdown.store(true, Ordering::SeqCst);
                    }
                    if close {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        self.events
            .debug("daemon", "connection closed")
            .field("conn_id", conn_id)
            .field("requests", seq.load(Ordering::Relaxed))
            .emit();
    }
}

/// Writes one reply and flushes once. Returns whether the connection
/// closes after it (`Bye`); `Empty` writes nothing.
fn write_reply(w: &mut impl Write, reply: &Reply) -> io::Result<bool> {
    match reply {
        Reply::Empty => return Ok(false),
        Reply::Line(r) | Reply::Bye(r) => writeln!(w, "{r}")?,
        Reply::Lines(block) => {
            for r in block {
                writeln!(w, "{r}")?;
            }
        }
    }
    w.flush()?;
    Ok(matches!(reply, Reply::Bye(_)))
}

/// True when `header` is a block-frame header (`…\tlines=N\t…`);
/// returns N.
fn block_line_count(header: &str) -> Option<usize> {
    header.split('\t').nth(1).and_then(|f| f.strip_prefix("lines=")).and_then(|n| n.parse().ok())
}

/// Line-protocol client used by the CI smoke gate (`extractocol-serve
/// send`): streams `input` to the daemon at `addr`, returning one
/// response per non-empty request line. Fails loudly if the daemon
/// drops a response — the zero-dropped-requests assertion.
pub fn send_lines(addr: &str, input: &str) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut responses = Vec::new();
    for line in input.lines() {
        let trimmed = line.trim_end_matches('\r');
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        writeln!(writer, "{trimmed}")?;
        writer.flush()?;
        let mut resp = String::new();
        if reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("daemon closed before answering: {trimmed:?}"),
            ));
        }
        let mut response = resp.trim_end_matches(['\r', '\n']).to_string();
        // Block-framed reply: the header's `lines=N` field announces N
        // payload lines, folded into this one logical response so the
        // response-per-request contract holds for METRICS/SLOW too.
        if let Some(n) = block_line_count(&response) {
            for _ in 0..n {
                let mut payload = String::new();
                if reader.read_line(&mut payload)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("daemon closed mid-block: {trimmed:?}"),
                    ));
                }
                response.push('\n');
                response.push_str(payload.trim_end_matches(['\r', '\n']));
            }
        }
        responses.push(response);
    }
    Ok(responses)
}

/// One-shot introspection client: sends a single control verb
/// (`METRICS`, `HEALTH`, `SLOW`, `STATS`, …) and returns the reply
/// payload — for block-framed replies the payload lines *without* the
/// frame header, for single-line replies the line itself. Used by
/// `extractocol-serve scrape` and the CI mid-run gate.
pub fn scrape(addr: &str, verb: &str) -> io::Result<String> {
    let responses = send_lines(addr, &format!("{verb}\n"))?;
    let response = responses.into_iter().next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, format!("no reply to {verb:?}"))
    })?;
    match response.split_once('\n') {
        Some((_header, payload)) => Ok(format!("{payload}\n")),
        None if block_line_count(&response).is_some() => Ok(String::new()),
        None => Ok(format!("{response}\n")),
    }
}

/// Collects every response a concurrent writer produced — helper for
/// tests that drive [`Daemon::run_lines`] over an in-memory pipe.
#[derive(Clone, Default)]
pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    /// The UTF-8 contents written so far.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap_or_else(|e| e.into_inner())).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::write_archive;
    use extractocol_core::metrics::Metrics;
    use extractocol_core::pairing::Pairing;
    use extractocol_core::report::{AnalysisReport, Stats, TxnReport};
    use extractocol_core::siglang::{SigPat, TypeHint};
    use extractocol_http::HttpMethod;

    fn report(app: &str, uris: &[&str]) -> AnalysisReport {
        let transactions = uris
            .iter()
            .enumerate()
            .map(|(id, uri)| TxnReport {
                id,
                dp_class: "java.net.HttpURLConnection".into(),
                root: format!("t.C.m{id}"),
                method: HttpMethod::Get,
                uri_regex: String::new(),
                uri: SigPat::Concat(vec![SigPat::lit(uri), SigPat::Unknown(TypeHint::Num)]),
                headers: Vec::new(),
                header_sigs: Vec::new(),
                request_body: None,
                response: None,
                pairing: Pairing::Unique,
                origins: Vec::new(),
                consumptions: Vec::new(),
            })
            .collect();
        AnalysisReport {
            app: app.into(),
            transactions,
            dependencies: Vec::new(),
            stats: Stats::default(),
            metrics: Metrics::default(),
        }
    }

    fn daemon(uris: &[&str]) -> Daemon {
        let index = SignatureIndex::compile(&[report("demo", uris)]);
        Daemon::new(index, DaemonConfig::default())
    }

    #[test]
    fn traffic_lines_classify_and_controls_answer() {
        let d = daemon(&["http://h/api/a/", "http://h/api/b/"]);
        assert_eq!(
            d.process_line("GET\thttp://h/api/a/7"),
            Reply::Line("match\tdemo\t0\tjava.net.HttpURLConnection".into())
        );
        assert_eq!(d.process_line("GET\thttp://h/other"), Reply::Line("unmatched".into()));
        assert_eq!(d.process_line("PING"), Reply::Line("pong".into()));
        assert_eq!(d.process_line("# comment"), Reply::Empty);
        assert_eq!(d.process_line(""), Reply::Empty);
        assert_eq!(d.process_line("SHUTDOWN"), Reply::Bye("bye".into()));
        let stats = match d.process_line("STATS") {
            Reply::Line(s) => s,
            other => panic!("unexpected: {other:?}"),
        };
        assert!(stats.contains("generation=1"), "{stats}");
        assert!(stats.contains("signatures=2"), "{stats}");
        assert!(stats.contains("requests=2"), "{stats}");
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(trace_id_for(1, 1), trace_id_for(1, 1));
        assert_ne!(trace_id_for(1, 1), trace_id_for(1, 2));
        assert_ne!(trace_id_for(1, 1), trace_id_for(2, 1));
        assert_eq!(trace_id_for(0, 1).len(), 16);
        assert!(trace_id_for(0, 1).chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn metrics_verb_returns_a_block_framed_exposition() {
        let d = daemon(&["http://h/api/a/"]);
        d.process_line("GET\thttp://h/api/a/1");
        let block = match d.process_line("METRICS") {
            Reply::Lines(b) => b,
            other => panic!("unexpected: {other:?}"),
        };
        let n: usize = block[0]
            .strip_prefix("metrics\tlines=")
            .expect("frame header")
            .parse()
            .expect("line count");
        assert_eq!(block.len(), n + 1, "header announces the payload length");
        let payload = block[1..].join("\n");
        assert!(payload.contains("serve_daemon_requests_total 1"), "{payload}");
        assert!(payload.contains("# VOLATILITY serve_daemon_requests_total"), "{payload}");
    }

    #[test]
    fn health_verb_reports_generation_inflight_and_last_swap() {
        let d = daemon(&["http://h/api/a/"]);
        d.process_line("GET\thttp://h/api/a/1");
        let health = match d.process_line("HEALTH") {
            Reply::Line(h) => h,
            other => panic!("unexpected: {other:?}"),
        };
        assert!(health.starts_with("health\tstatus=ok\tgeneration=1"), "{health}");
        assert!(health.contains("signatures=1"), "{health}");
        assert!(health.contains("inflight=0"), "{health}");
        assert!(health.contains("requests=1"), "{health}");
        assert!(health.contains("last_swap=none"), "{health}");
        let new_index = SignatureIndex::compile(&[report("demo2", &["http://h/api/b/"])]);
        d.swap_archive_bytes(&write_archive(&new_index)).expect("swap");
        let health = match d.process_line("HEALTH") {
            Reply::Line(h) => h,
            other => panic!("unexpected: {other:?}"),
        };
        assert!(health.contains("generation=2"), "{health}");
        assert!(health.contains("last_swap=ok"), "{health}");
    }

    #[test]
    fn slow_verb_dumps_trace_stitched_exemplars() {
        let d = daemon(&["http://h/api/a/"]);
        d.process_line("GET\thttp://h/api/a/1");
        d.process_line("GET\thttp://h/zzz");
        let block = match d.process_line("SLOW") {
            Reply::Lines(b) => b,
            other => panic!("unexpected: {other:?}"),
        };
        assert!(block[0].starts_with("slow\tlines="), "{}", block[0]);
        assert!(block[0].ends_with("exemplars=2"), "{}", block[0]);
        let payload = block[1..].join("\n");
        // Exemplar trace ids are the deterministic stdin-connection ids.
        assert!(payload.contains(&format!("trace_id={}", trace_id_for(0, 1))), "{payload}");
        assert!(payload.contains(&format!("trace_id={}", trace_id_for(0, 2))), "{payload}");
        assert!(payload.contains("verdict=match detail=demo:0"), "{payload}");
        assert!(payload.contains("verdict=unmatched"), "{payload}");
        assert!(payload.contains("  span name=daemon_request"), "{payload}");
    }

    #[test]
    fn stats_line_carries_inflight_parse_errors_and_uptime() {
        let d = daemon(&["http://h/api/a/"]);
        d.process_line("GET");
        let stats = match d.process_line("STATS") {
            Reply::Line(s) => s,
            other => panic!("unexpected: {other:?}"),
        };
        assert!(stats.contains("inflight=0"), "{stats}");
        assert!(stats.contains("parse_errors=1"), "{stats}");
        assert!(stats.contains("uptime_ticks="), "{stats}");
    }

    #[test]
    fn events_record_swaps_and_parse_errors_with_trace_ids() {
        let index = SignatureIndex::compile(&[report("demo", &["http://h/api/a/"])]);
        let events = EventLog::enabled(extractocol_obs::Level::Debug);
        let d = Daemon::with_observability(
            index,
            DaemonConfig::default(),
            Registry::new(),
            TraceCollector::disabled(),
            events,
        );
        d.process_line("GET\thttp://h/api/a/1");
        d.process_line("GET"); // parse error
        let new_index = SignatureIndex::compile(&[report("demo2", &["http://h/api/b/"])]);
        d.swap_archive_bytes(&write_archive(&new_index)).expect("swap");
        let log = d.events.render_lines();
        assert!(log.contains("msg=\"request classified\""), "{log}");
        assert!(log.contains(&format!("trace_id={}", trace_id_for(0, 1))), "{log}");
        assert!(log.contains("msg=\"request parse rejected\""), "{log}");
        assert!(log.contains("msg=\"swap committed\" generation=2"), "{log}");
        // Event-log evictions are mirrored into the shared registry.
        assert!(d.registry.render().contains("log_records_dropped_total 0"), "{log}");
    }

    #[test]
    fn malformed_lines_get_error_replies_not_panics() {
        let d = daemon(&["http://h/api/"]);
        for bad in ["BOGUS\thttp://h/x", "GET", "SWAP", "GET\thttp://h/x\ttext/plain"] {
            match d.process_line(bad) {
                Reply::Line(r) => assert!(r.starts_with("error\t"), "{bad:?} -> {r}"),
                other => panic!("{bad:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn swap_replaces_the_index_and_bumps_the_generation() {
        let d = daemon(&["http://h/api/old/"]);
        assert_eq!(
            d.process_line("GET\thttp://h/api/old/1"),
            Reply::Line("match\tdemo\t0\tjava.net.HttpURLConnection".into())
        );
        let new_index = SignatureIndex::compile(&[report("demo2", &["http://h/api/new/"])]);
        let outcome = d.swap_archive_bytes(&write_archive(&new_index)).expect("swap");
        assert_eq!(outcome.generation, 2);
        assert_eq!(outcome.signatures, 1);
        assert!(outcome.drained);
        assert_eq!(d.generation(), 2);
        assert_eq!(d.process_line("GET\thttp://h/api/old/1"), Reply::Line("unmatched".into()));
        assert_eq!(
            d.process_line("GET\thttp://h/api/new/1"),
            Reply::Line("match\tdemo2\t0\tjava.net.HttpURLConnection".into())
        );
        let text = d.registry.render();
        assert!(text.contains("serve_daemon_swaps_total 1"));
        assert!(text.contains("serve_daemon_index_generation 2"));
        assert!(text.contains("serve_daemon_index_load_us_count 1"));
    }

    #[test]
    fn corrupt_archive_is_refused_and_the_old_index_keeps_serving() {
        let d = daemon(&["http://h/api/old/"]);
        let new_index = SignatureIndex::compile(&[report("demo2", &["http://h/api/new/"])]);
        let mut bytes = write_archive(&new_index);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match d.swap_archive_bytes(&bytes) {
            Err(SwapError::Load(ContainerError::ChecksumMismatch { .. })) => {}
            other => panic!("expected load failure, got {other:?}"),
        }
        assert_eq!(d.generation(), 1);
        assert_eq!(
            d.process_line("GET\thttp://h/api/old/1"),
            Reply::Line("match\tdemo\t0\tjava.net.HttpURLConnection".into())
        );
        assert!(d.registry.render().contains("serve_daemon_swap_failures_total{phase=\"load\"} 1"));
    }

    #[test]
    fn swap_drain_waits_for_pinned_readers() {
        let d = Arc::new(daemon(&["http://h/api/old/"]));
        let pinned = d.index();
        let new_index = SignatureIndex::compile(&[report("demo2", &["http://h/api/new/"])]);
        let bytes = write_archive(&new_index);
        let swapper = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.swap_archive_bytes(&bytes).expect("swap"))
        };
        // Give the swap time to reach the drain phase, then release the
        // pin; the swap must complete with drained=true.
        std::thread::sleep(Duration::from_millis(50));
        drop(pinned);
        let outcome = swapper.join().expect("join");
        assert!(outcome.drained);
        assert!(outcome.drain >= Duration::from_millis(25), "drain was {:?}", outcome.drain);
    }

    #[test]
    fn run_lines_answers_every_request_and_stops_on_shutdown() {
        let d = daemon(&["http://h/api/a/"]);
        let input =
            "GET\thttp://h/api/a/1\n# note\n\nGET\thttp://h/zzz\nSHUTDOWN\nGET\thttp://h/api/a/2\n";
        let out = SharedBuf::default();
        d.run_lines(io::Cursor::new(input), out.clone()).expect("run");
        let contents = out.contents();
        let lines: Vec<&str> = contents.lines().collect();
        // One response per non-empty line up to SHUTDOWN; nothing after.
        assert_eq!(lines, vec!["match\tdemo\t0\tjava.net.HttpURLConnection", "unmatched", "bye"]);
    }

    #[test]
    fn tcp_roundtrip_with_hot_swap_and_graceful_drain() {
        let index = SignatureIndex::compile(&[report("demo", &["http://h/api/a/"])]);
        let d = Arc::new(Daemon::new(index, DaemonConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.serve_tcp(listener).expect("serve"))
        };
        let new_index = SignatureIndex::compile(&[report("demo2", &["http://h/api/b/"])]);
        let archive = tempfile_path("daemon_swap_test.exsv");
        crate::archive::write_archive_file(&new_index, &archive).expect("write archive");
        let input = format!(
            "GET\thttp://h/api/a/1\nSWAP\t{archive}\nGET\thttp://h/api/b/2\nSTATS\nSHUTDOWN\n"
        );
        let responses = send_lines(&addr, &input).expect("send");
        assert_eq!(responses.len(), 5, "zero dropped requests: {responses:?}");
        assert_eq!(responses[0], "match\tdemo\t0\tjava.net.HttpURLConnection");
        assert!(responses[1].starts_with("swapped\tgeneration=2"), "{}", responses[1]);
        assert_eq!(responses[2], "match\tdemo2\t0\tjava.net.HttpURLConnection");
        assert!(responses[3].contains("swaps=1"), "{}", responses[3]);
        assert_eq!(responses[4], "bye");
        server.join().expect("server thread");
        let _ = std::fs::remove_file(&archive);
        let text = d.registry.render();
        assert!(text.contains("serve_daemon_connections_total 1"));
        assert!(text.contains("serve_daemon_swaps_total 1"));
    }

    fn tempfile_path(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }
}
