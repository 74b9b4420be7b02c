//! Observability overhead (acceptance bar: ≤ 10% with tracing
//! off-by-default). Two configurations per app:
//!
//! * `trace=off` — `analyze` with the default, *disabled* collector: every
//!   span site costs exactly one `Option` branch, and each phase guard one
//!   timestamp pair,
//! * `trace=on`  — `analyze` after `set_instruments` attached an enabled
//!   collector: the real cost of recording the full span tree.
//!
//! Plus the serving side: `classify_batch` vs `classify_batch_observed`
//! (instruments always on, trace off) — the cost of the per-request
//! timer and atomic counter updates, which is why the bench throughput
//! gate keeps its timed batch on the uninstrumented path.

use extractocol_bench::timing;
use extractocol_core::{EventLog, Extractocol, Options, TraceCollector};
use extractocol_serve::{classify_batch, classify_batch_observed, ServeMetrics, SignatureIndex};

fn main() {
    println!("== trace_overhead (pipeline) ==");
    for name in ["radio reddit", "TED", "Pinterest"] {
        let app = extractocol_corpus::app(name).expect("corpus app");
        let mut analyzer = Extractocol::with_options(Options { jobs: 1, ..Options::default() });
        let off = timing::bench(&format!("analyze/{name} trace=off"), 1, 10, || {
            analyzer.analyze(&app.apk)
        });
        let enabled = TraceCollector::enabled();
        analyzer.set_instruments(enabled.clone(), EventLog::disabled());
        let on = timing::bench(&format!("analyze/{name} trace=on"), 1, 10, || {
            let r = analyzer.analyze(&app.apk);
            enabled.drain();
            r
        });
        println!("  -> overhead: trace=on {:+.1}%\n", 100.0 * (on.speedup_over(&off) - 1.0));
    }

    println!("== trace_overhead (serving) ==");
    let app = extractocol_corpus::app("radio reddit").expect("corpus app");
    let report = extractocol_dynamic::conformance::analyze_app(&app.apk, app.truth.open_source, 0);
    let index = SignatureIndex::compile(std::slice::from_ref(&report));
    let base: Vec<_> = extractocol_dynamic::run_perfect_fuzzer(&app)
        .transactions
        .into_iter()
        .map(|t| t.request)
        .collect();
    let requests = extractocol_serve::bench::tile_requests(&base, 20_000);
    let plain = timing::bench("classify/20k plain", 1, 10, || classify_batch(&index, &requests, 0));
    let disabled = TraceCollector::disabled();
    let observed = timing::bench("classify/20k observed (trace off)", 1, 10, || {
        classify_batch_observed(&index, &requests, 0, &ServeMetrics::new(), &disabled)
    });
    println!(
        "  -> instrumented-pass overhead {:+.1}%",
        100.0 * (observed.speedup_over(&plain) - 1.0),
    );
}
