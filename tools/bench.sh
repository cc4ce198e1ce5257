#!/usr/bin/env bash
# Runs the benchmark suites and records their results as JSON at the repo
# root (BENCH_kernels.json, BENCH_parallel.json, BENCH_scoring.json,
# BENCH_snapshot.json, BENCH_retrieval.json, BENCH_serve.json,
# BENCH_telemetry.json, BENCH_trace.json, BENCH_observe.json) so
# kernel-layer, parallel-layer, scoring-path, parameter-store, retrieval,
# serving-daemon and observability changes can be compared against
# committed numbers (tools/bench_diff).
# BENCH_telemetry.json holds the telemetry-enabled vs -disabled epoch times
# (BM_TrainEpochTelemetry/1 vs /0) and BENCH_trace.json the same pair for
# span tracing (BM_TrainEpochTrace); the disabled-mode overhead budget for
# both layers is <1%. BENCH_scoring.json times block scoring on full
# ranking and Top-N for SceneRec and BPR-MF (docs/serving.md).
# BENCH_snapshot.json pairs the copying checkpoint load against the
# zero-copy mmap open (BM_CheckpointLoadCopy vs BM_SnapshotMmapOpen) plus
# the crash-safe write throughput of the snapshot store.
# BENCH_retrieval.json pairs two-stage Top-N serving
# (BM_TopNTwoStage{Exact,Ivf,IvfSq8}, docs/retrieval.md)
# against the full-catalog block sweep (BM_TopNFullCatalogBlock) on a 50k
# catalog — the IVF rows carry a recall_at_100 counter vs the exact backend
# — plus one-time index-build costs (BM_IndexBuild*). BENCH_serve.json is
# the closed-loop serving-daemon load test (docs/serving.md): per-request
# serving vs batched admission at identical results, with request-latency
# p50/p99 reported as counters on the daemon rows — the acceptance gate is
# BatchedRetrieval QPS >= 2x PerRequestRetrieval QPS. BENCH_cache.json is
# the demand-paged user-representation cache suite (the BM_Cache rows of
# bench_serve, docs/serving.md#warmup) on a users>>items world: full vs
# lazy warm-up swap-to-first-response (acceptance: lazy >= 5x faster) and
# closed-loop Zipf steady-state QPS (acceptance: lazy within 5% of full,
# with hit_rate_pct / resident_mb / scratch_reuse_pct counters on the lazy
# row). BENCH_observe.json is
# the stats-socket scrape cost (docs/observability.md): per-verb scrape
# latency plus closed-loop daemon QPS with and without a 5 Hz background
# scraper — the BM_ObserveDaemonScraped row's scrape_overhead_pct counter
# is the QPS given up to scraping, budget <1%.
#
# Usage: tools/bench.sh [benchmark_filter_regex]
# A filter (e.g. 'MatVec|Gemm') restricts the first three suites; the JSON
# files then contain only the filtered benchmarks, so commit full runs only.
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-.}"

cmake -B build >/dev/null
cmake --build build --target bench_kernels bench_parallel bench_scoring bench_snapshot bench_retrieval bench_serve bench_observe

echo "==> bench_kernels -> BENCH_kernels.json"
build/bench/bench_kernels \
  --benchmark_filter="${FILTER}" \
  --benchmark_format=json >BENCH_kernels.json

echo "==> bench_parallel -> BENCH_parallel.json"
build/bench/bench_parallel \
  --benchmark_filter="${FILTER}" \
  --benchmark_format=json >BENCH_parallel.json

echo "==> bench_scoring -> BENCH_scoring.json"
build/bench/bench_scoring \
  --benchmark_filter="${FILTER}" \
  --benchmark_format=json >BENCH_scoring.json

echo "==> bench_snapshot -> BENCH_snapshot.json"
build/bench/bench_snapshot \
  --benchmark_filter="${FILTER}" \
  --benchmark_format=json >BENCH_snapshot.json

echo "==> bench_retrieval -> BENCH_retrieval.json"
build/bench/bench_retrieval \
  --benchmark_filter="${FILTER}" \
  --benchmark_format=json >BENCH_retrieval.json

# bench_serve hosts two disjoint suites; fixed filters keep each JSON's row
# set stable so bench_diff baselines stay comparable across runs.
echo "==> bench_serve (BM_Serve) -> BENCH_serve.json"
build/bench/bench_serve \
  --benchmark_filter='BM_Serve' \
  --benchmark_format=json >BENCH_serve.json

echo "==> bench_serve (BM_Cache) -> BENCH_cache.json"
build/bench/bench_serve \
  --benchmark_filter='BM_Cache' \
  --benchmark_format=json >BENCH_cache.json

echo "==> bench_observe -> BENCH_observe.json"
build/bench/bench_observe \
  --benchmark_filter="${FILTER}" \
  --benchmark_format=json >BENCH_observe.json

echo "==> bench_parallel telemetry on/off -> BENCH_telemetry.json"
build/bench/bench_parallel \
  --benchmark_filter='BM_TrainEpochTelemetry' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_format=json >BENCH_telemetry.json

echo "==> bench_parallel trace on/off -> BENCH_trace.json"
build/bench/bench_parallel \
  --benchmark_filter='BM_TrainEpochTrace' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_format=json >BENCH_trace.json

echo "==> done"
