#!/bin/sh
# Offline CI gate: every check CI runs (.github/workflows/ci.yml calls this script).
# The workspace has zero external dependencies, so everything here works
# with no network access (see README "Building offline").
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc: no broken or ambiguous intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> tier-1 from an empty target dir: cargo build --release && cargo test -q"
# default-members covers every package, so this runs the whole workspace
# suite, including the tests that drive the crates' binaries and the
# serving gates: the 20% pruning bar and trie == brute
# (tests/serve_differential.rs), the 20x archive-load speedup
# (tests/serve_archive.rs), and the classify instruments against
# METRICS_classify.baseline.txt (tests/serve_differential.rs).
TIER1_TARGET=$(mktemp -d)
CARGO_TARGET_DIR="$TIER1_TARGET" sh -c 'cargo build --release && cargo test -q'
rm -rf "$TIER1_TARGET"

echo "==> benchmark harness tests (pipeline span names and API signatures it drives)"
cargo test --release --manifest-path benchmark/Cargo.toml

echo "==> conformance gate (clean corpus, traced)"
cargo run --release -q -p extractocol-dynamic --bin extractocol-eval -- \
  --conformance --trace-out trace.json

echo "==> observability gate (chrome-trace round-trip validator)"
cargo run --release -q -p extractocol-obs --bin extractocol-trace-validate -- trace.json

echo "==> conformance gate (mutation self-test)"
cargo run --release -q -p extractocol-dynamic --bin extractocol-eval -- --conformance-mutate

echo "==> adversarial gate (seeded attack suite: totality + trie-vs-brute differential)"
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  attack --seed 3850022000 --per-class 64 --jobs 0 \
  --out BENCH_attack.json --metrics-out METRICS_attack.txt

echo "==> observability gate (mandatory attack instruments)"
for class in malformed_wire deep_body giant_body uri_mutation \
  regex_exhaustion truncated oversized_headers; do
  grep -q "serve_attack_cases_total{class=\"$class\"}" METRICS_attack.txt \
    || { echo "METRICS_attack.txt: missing cases counter for class $class"; exit 1; }
done
for fam in serve_attack_parse_errors_total serve_attack_budget_exhausted_total \
  serve_attack_verdict_total serve_attack_latency_us_bucket; do
  grep -q "$fam" METRICS_attack.txt \
    || { echo "METRICS_attack.txt: missing instrument family $fam"; exit 1; }
done
grep "serve_attack_parse_errors_total{class=\"malformed_wire\"}" METRICS_attack.txt \
  | grep -qv " 0\$" \
  || { echo "METRICS_attack.txt: malformed_wire produced no parse errors"; exit 1; }

echo "==> serving gate (archive compile + daemon smoke: hot swap, graceful drain, live introspection)"
rm -f daemon.port daemon_events.log METRICS_live.txt
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  compile --corpus --jobs 0 --out index_ci.exsv
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  daemon --index index_ci.exsv --listen 127.0.0.1:0 --port-file daemon.port \
  --metrics-out METRICS_daemon.txt \
  --log-out daemon_events.log --log-level debug &
DAEMON_PID=$!
for _ in $(seq 1 100); do [ -s daemon.port ] && break; sleep 0.1; done
[ -s daemon.port ] || { echo "daemon never wrote daemon.port"; kill "$DAEMON_PID"; exit 1; }
# First batch carries traffic and a hot swap but no SHUTDOWN: the daemon
# stays up so the introspection verbs can be scraped mid-run.
printf 'PING\nGET\thttp://example.com/a\nGET\thttp://example.com/b\nSWAP\tindex_ci.exsv\nGET\thttp://example.com/a\nSTATS\n' \
  > daemon_batch.txt
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  send --port-file daemon.port --traffic daemon_batch.txt > daemon_replies.txt
REQ=$(grep -c . daemon_batch.txt)
RESP=$(grep -c . daemon_replies.txt)
[ "$REQ" -eq "$RESP" ] \
  || { echo "daemon dropped replies: $RESP of $REQ answered"; exit 1; }
grep -q '^swapped' daemon_replies.txt \
  || { echo "daemon smoke: hot swap did not commit"; exit 1; }
grep -q 'generation=2' daemon_replies.txt \
  || { echo "daemon smoke: swap did not bump the index generation"; exit 1; }

echo "==> introspection gate (METRICS/HEALTH/SLOW scraped from the live daemon)"
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  scrape --port-file daemon.port --verb METRICS --out METRICS_live.txt
grep -q 'serve_daemon_requests_total' METRICS_live.txt \
  || { echo "METRICS_live.txt: live scrape is missing the request counter"; exit 1; }
grep -q '# VOLATILITY serve_daemon_requests_total deterministic' METRICS_live.txt \
  || { echo "METRICS_live.txt: live scrape is missing volatility annotations"; exit 1; }
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  scrape --port-file daemon.port --verb HEALTH > health_live.txt
grep -q 'status=ok' health_live.txt \
  || { echo "health scrape: daemon not healthy: $(cat health_live.txt)"; exit 1; }
grep -q 'generation=2' health_live.txt \
  || { echo "health scrape: post-swap generation not visible"; exit 1; }
grep -q 'last_swap=ok' health_live.txt \
  || { echo "health scrape: swap outcome not visible"; exit 1; }
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  scrape --port-file daemon.port --verb SLOW > slow_live.txt
grep -q 'trace_id=' slow_live.txt \
  || { echo "slow scrape: no request exemplars recorded"; exit 1; }

# Second batch shuts the daemon down; the mid-run scrape must not have
# perturbed the classify path.
printf 'GET\thttp://example.com/b\nSHUTDOWN\n' > daemon_batch2.txt
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  send --port-file daemon.port --traffic daemon_batch2.txt > daemon_replies2.txt
grep -q '^bye$' daemon_replies2.txt \
  || { echo "daemon smoke: SHUTDOWN not acknowledged"; exit 1; }
wait "$DAEMON_PID" \
  || { echo "daemon smoke: daemon exited nonzero (no graceful drain)"; exit 1; }

echo "==> introspection gate (structured event log from the daemon run)"
grep -q 'msg="daemon started"' daemon_events.log \
  || { echo "daemon_events.log: missing the startup record"; exit 1; }
grep -q 'msg="swap committed"' daemon_events.log \
  || { echo "daemon_events.log: missing the swap-committed record"; exit 1; }
grep -q 'msg="request classified"' daemon_events.log \
  || { echo "daemon_events.log: missing classify records"; exit 1; }
grep 'msg="request classified"' daemon_events.log | grep -qv 'trace_id=' \
  && { echo "daemon_events.log: classify record without a trace id"; exit 1; }

echo "==> observability gate (mandatory daemon instruments)"
for fam in serve_daemon_requests_total serve_daemon_verdict_total \
  serve_daemon_request_latency_us_bucket serve_daemon_swaps_total \
  serve_daemon_index_load_us_count serve_daemon_index_generation \
  serve_daemon_drain_timeouts_total serve_daemon_connections_total \
  log_records_dropped_total; do
  grep -q "$fam" METRICS_daemon.txt \
    || { echo "METRICS_daemon.txt: missing instrument family $fam"; exit 1; }
done
grep -q 'serve_daemon_swaps_total 1' METRICS_daemon.txt \
  || { echo "METRICS_daemon.txt: swap counter did not record the smoke swap"; exit 1; }
grep -q 'log_records_dropped_total 0' METRICS_daemon.txt \
  || { echo "METRICS_daemon.txt: the smoke run must not drop event records"; exit 1; }
rm -f index_ci.exsv daemon.port daemon_batch.txt daemon_batch2.txt \
  daemon_replies.txt daemon_replies2.txt health_live.txt slow_live.txt

echo "==> incremental gate (warm persistent-cache run: byte-identical reports, >=90% hit rate)"
rm -rf exsm_cache REPORTS_cold.txt REPORTS_warm.txt METRICS_incremental.txt
cargo run --release -q -p extractocol-dynamic --bin extractocol-eval -- \
  --conformance --targeted --summary-cache-dir exsm_cache \
  --report-out REPORTS_cold.txt > /dev/null
cargo run --release -q -p extractocol-dynamic --bin extractocol-eval -- \
  --conformance --targeted --summary-cache-dir exsm_cache \
  --report-out REPORTS_warm.txt --metrics-out METRICS_incremental.txt \
  > incr_warm.txt
grep -q 'incr\[' incr_warm.txt \
  || { echo "warm run printed no incr[...] lines"; exit 1; }
cmp REPORTS_cold.txt REPORTS_warm.txt \
  || { echo "warm-cache reports differ from cold-run reports"; exit 1; }
grep '^incr\[' incr_warm.txt | awk -F'hit_rate=' '{ sub(/%.*/, "", $2); if ($2 + 0 < 90) bad++ }
  END { if (bad > 0) { print bad " app(s) below the 90% warm hit-rate gate"; exit 1 } }' \
  || { cat incr_warm.txt; exit 1; }
grep -q 'targeted\[' incr_warm.txt \
  || { echo "targeted mode printed no cone stats"; exit 1; }

echo "==> observability gate (mandatory incremental instruments)"
for fam in incr_summaries_total incr_persistent_hit_rate \
  incr_targeted_skipped_classes_total incr_targeted_cone_methods_total; do
  grep -q "$fam" METRICS_incremental.txt \
    || { echo "METRICS_incremental.txt: missing instrument family $fam"; exit 1; }
done
rm -rf exsm_cache REPORTS_cold.txt REPORTS_warm.txt incr_warm.txt

echo "==> adversarial gate (fresh time-derived seed, printed for replay)"
ATTACK_SEED=$(date +%s)
echo "time-derived attack seed: $ATTACK_SEED (replay: extractocol-serve attack --seed $ATTACK_SEED --per-class 16)"
cargo run --release -q -p extractocol-serve --bin extractocol-serve -- \
  attack --seed "$ATTACK_SEED" --per-class 16 --jobs 0

echo "CI OK"
