//! `daemon-tcp`: `Daemon::serve_tcp` in-process on a loopback port,
//! driven by one client thread in a closed loop.
//!
//! The measured phase alternates windows with 1 request outstanding
//! (round-trip latency) and windows with [`DEPTH`] outstanding
//! (throughput) on one connection. The traced run alternates latency
//! windows on an untraced and a traced daemon, one connection each.
//! Every reply must equal the in-process classify reply for its request.

use crate::classify::WINDOW;
use crate::classify::{classify_layered, reply_for, serve_setup, LayerTally, Mix, ServeSetup};
use crate::{outcome, ratio, timed_setup, Checks, Measured, Outcome, RunConfig};
use extractocol_core::TraceCollector;
use extractocol_dynamic::parse_request_line;
use extractocol_obs::diff::parse_prometheus;
use extractocol_obs::Registry;
use extractocol_serve::{scrape, Daemon, DaemonConfig, SignatureIndex};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests outstanding in a throughput window.
const DEPTH: usize = 16;
/// A reply slower than this counts as missing.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Passes over the base lines for the in-process wire-parse and serve
/// layer split of the traced run.
const LAYER_PASSES: usize = 20;
/// Round trips between two drains of a traced daemon's span buffer.
const BATCH: usize = 256;

/// A daemon serving on 127.0.0.1 from its own accept thread.
struct RunningDaemon {
    addr: String,
    /// The daemon's span collector: disabled for the untraced daemon.
    trace: TraceCollector,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl RunningDaemon {
    fn start(index: SignatureIndex, trace: TraceCollector) -> RunningDaemon {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("listener address").to_string();
        let daemon = Arc::new(Daemon::with_instruments(
            index,
            DaemonConfig::default(),
            Registry::new(),
            trace.clone(),
        ));
        let thread = std::thread::spawn(move || daemon.serve_tcp(listener));
        RunningDaemon { addr, trace, thread: Some(thread) }
    }

    /// Sends `SHUTDOWN` and waits for the accept loop, which joins every
    /// connection thread before it returns.
    fn stop(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else { return Ok(()) };
        scrape(&self.addr, "SHUTDOWN")?;
        thread.join().map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

impl Drop for RunningDaemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One line-protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    reply: String,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            reply: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end_matches(['\r', '\n']))
    }
}

/// The seeded request stream and its running tallies.
struct Traffic<'a> {
    s: &'a ServeSetup,
    replies: &'a [String],
    pos: usize,
    attempted: u64,
    failed: u64,
    /// Spans drained from the daemon's collector.
    spans: u64,
    errors: Vec<String>,
}

impl Traffic<'_> {
    /// The base index of the next request, cycling the tiled order.
    fn next(&mut self) -> usize {
        let b = self.s.order[self.pos] as usize;
        self.pos = (self.pos + 1) % self.s.order.len();
        self.attempted += 1;
        b
    }

    fn check(&mut self, base: usize, reply: &str, checks: &mut Checks) {
        if reply.starts_with("error") {
            self.failed += 1;
        }
        let want = &self.replies[base];
        checks.ensure(reply == want, || {
            format!("daemon replied {reply:?} to {:?}, expected {want:?}", self.s.lines[base])
        });
    }

    fn io_error(&mut self, e: io::Error, lost: usize) {
        self.failed += lost as u64;
        self.errors.push(format!("daemon I/O error: {e}"));
    }
}

pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let mut checks = Checks::default();
    let ((s, replies, mut daemon), setup_s) = timed_setup(|| {
        let s = serve_setup(Mix::Natural, cfg.seed, &mut checks);
        let replies: Vec<String> = s.expected.iter().map(|v| reply_for(&s.index, *v)).collect();
        let daemon = RunningDaemon::start(s.index.clone(), TraceCollector::disabled());
        (s, replies, daemon)
    });
    let mut t = Traffic {
        s: &s,
        replies: &replies,
        pos: 0,
        attempted: 0,
        failed: 0,
        spans: 0,
        errors: Vec::new(),
    };
    let inputs = s.base.len();
    // The two kinds of window alternate, so each metric samples the whole
    // measured phase and a short host slowdown lands in few windows.
    let started = Instant::now();
    let (metrics, mut notes) = if cfg.trace {
        // `window_one` drains the span buffer after every batch, so a
        // buffer of one batch holds every span of the traced windows.
        let mut traced_daemon =
            RunningDaemon::start(s.index.clone(), TraceCollector::with_capacity(BATCH));
        let (mut untraced, mut traced) = (Measured::new(inputs), Measured::new(inputs));
        if let (Some(mut a), Some(mut b)) =
            (connect(&daemon.addr, &mut t), connect(&traced_daemon.addr, &mut t))
        {
            let mut open = true;
            while open && started.elapsed() < cfg.measure {
                open = window_one(&daemon, &mut a, &mut t, &mut checks, &mut untraced)
                    && window_one(&traced_daemon, &mut b, &mut t, &mut checks, &mut traced);
            }
        }
        let exposition = scrape(&traced_daemon.addr, "METRICS").unwrap_or_else(|e| {
            t.io_error(e, 0);
            String::new()
        });
        for d in [&mut daemon, &mut traced_daemon] {
            if let Err(e) = d.stop() {
                t.io_error(e, 0);
            }
        }
        let (spans, dropped) = (t.spans, traced_daemon.trace.dropped());
        checks.ensure(spans == traced.samples() as u64 && dropped == 0, || {
            format!("{} traced round trips, {spans} spans, {dropped} dropped", traced.samples())
        });
        let series = parse_prometheus(&exposition).map(|snap| snap.series).unwrap_or_else(|e| {
            checks.ensure(false, || format!("daemon METRICS exposition: {e}"));
            Default::default()
        });
        let series = |name: &str| series.get(name).copied().unwrap_or(0.0);
        let server_us = ratio(
            series("serve_daemon_request_latency_us_sum"),
            series("serve_daemon_request_latency_us_count"),
        );
        let mut layers = in_process_layers(&s, &mut checks);
        layers.set("serve.daemon.server_us_mean", server_us);
        layers.set("net.rtt_minus_server_us", traced.mean_us() - server_us);
        layers.set("serve.daemon.parse_errors", series("serve_daemon_parse_errors_total"));
        layers.set("trace_overhead_frac", traced.mean_us() / untraced.mean_us() - 1.0);
        let note =
            format!("{} untraced + {} traced round trips", untraced.samples(), traced.samples());
        (layers.finish(), vec![note])
    } else {
        let mut m = Measured::new(inputs);
        if let Some(mut client) = connect(&daemon.addr, &mut t) {
            let mut open = true;
            while open && started.elapsed() < cfg.measure {
                open = window_one(&daemon, &mut client, &mut t, &mut checks, &mut m)
                    && windowed(&mut client, &mut t, &mut checks, &mut m.rates);
            }
        }
        if let Err(e) = daemon.stop() {
            t.io_error(e, 0);
        }
        let (metrics, note) = m.end_to_end(setup_s);
        (metrics, vec![note])
    };
    let (attempted, failed) = (t.attempted, t.failed);
    notes.append(&mut t.errors);
    outcome(checks, attempted, failed, metrics, s.counts(), &s.order, notes)
}

/// Connects one client; a failure counts as one lost request.
fn connect(addr: &str, t: &mut Traffic) -> Option<Client> {
    Client::connect(addr)
        .map_err(|e| {
            t.attempted += 1;
            t.io_error(e, 1);
        })
        .ok()
}

/// One latency window: one request outstanding on `client`, sent to
/// `daemon`, in batches of [`BATCH`] until [`WINDOW`] has elapsed,
/// recording each round trip into `rtts` and draining the daemon's spans
/// after every batch. Returns false after an I/O error.
fn window_one(
    daemon: &RunningDaemon,
    client: &mut Client,
    t: &mut Traffic,
    checks: &mut Checks,
    rtts: &mut Measured,
) -> bool {
    let started = Instant::now();
    while started.elapsed() < WINDOW {
        for _ in 0..BATCH {
            let b = t.next();
            let sent = Instant::now();
            let reply = match client.send(&t.s.lines[b]).and_then(|_| client.recv()) {
                Ok(r) => r,
                Err(e) => {
                    t.io_error(e, 1);
                    return false;
                }
            };
            rtts.record(b, sent.elapsed().as_secs_f64() * 1e6);
            t.check(b, reply, checks);
        }
        t.spans += daemon.trace.drain().len() as u64;
    }
    true
}

/// One throughput window: [`DEPTH`] requests outstanding on `client`,
/// each reply releasing the next, until [`WINDOW`] has elapsed; then the
/// window drains. Pushes the window's reply rate to `rates`. Returns
/// false after an I/O error.
fn windowed(
    client: &mut Client,
    t: &mut Traffic,
    checks: &mut Checks,
    rates: &mut Vec<f64>,
) -> bool {
    let mut inflight = VecDeque::with_capacity(DEPTH);
    let started = Instant::now();
    let mut replies = 0usize;
    loop {
        while inflight.len() < DEPTH && started.elapsed() < WINDOW {
            let b = t.next();
            if let Err(e) = client.send(&t.s.lines[b]) {
                t.io_error(e, inflight.len() + 1);
                return false;
            }
            inflight.push_back(b);
        }
        let Some(b) = inflight.pop_front() else {
            rates.push(replies as f64 / started.elapsed().as_secs_f64());
            return true;
        };
        match client.recv() {
            Ok(reply) => t.check(b, reply, checks),
            Err(e) => {
                t.io_error(e, inflight.len() + 1);
                return false;
            }
        }
        replies += 1;
    }
}

/// Wire parse and the composed serve layers over every base line,
/// in-process, checked against the expected verdicts.
fn in_process_layers(s: &ServeSetup, checks: &mut Checks) -> crate::Layers {
    let mut tally = LayerTally::default();
    for _ in 0..LAYER_PASSES {
        for (i, line) in s.lines.iter().enumerate() {
            let t = Instant::now();
            let parsed = parse_request_line(std::hint::black_box(line));
            tally.parse_ns += t.elapsed().as_nanos() as u64;
            tally.parsed += 1;
            match parsed {
                Ok(Some(req)) => {
                    let got = classify_layered(&s.index, &req, &mut tally);
                    checks.ensure(got == s.expected[i], || {
                        format!("{line:?}: layered verdict {got:?}, expected {:?}", s.expected[i])
                    });
                }
                other => checks.ensure(false, || format!("{line:?} did not parse: {other:?}")),
            }
        }
    }
    tally.finish()
}
