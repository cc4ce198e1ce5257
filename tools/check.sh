#!/usr/bin/env bash
# Correctness gate for the parallel execution layer, the kernel layer and
# the persistent parameter store:
#   1. regular build + full test suite; ctest includes the tool selftests
#      (tools/CMakeLists.txt): snapshot_inspect --selftest (train ->
#      versioned snapshot write -> zero-copy open -> bitwise score check ->
#      hot swap), scenerec_serve --selftest (concurrent clients through the
#      batched admission loop, bitwise-checked against per-request serving,
#      with a hot swap under live traffic, plus a live scrape of its own
#      stats socket mid-traffic) and scenerec_stat --selftest (a daemon with
#      the observability plane on: windowed percentiles that move with
#      load, healthz/SLO transitions, every socket verb), all against
#      freshly trained mini-models; the stage fails if the run leaves a
#      new /tmp/scenerec_* entry behind
#   2. ThreadSanitizer build (-DSCENEREC_SANITIZE=thread) + the tests that
#      exercise concurrency (ThreadPool, sharded training, parallel eval,
#      the serving daemon)
#   3. ASan+UBSan build (-DSCENEREC_SANITIZE=address,undefined) + the tensor
#      and op tests, which cover the arena allocator (manual ASan poisoning
#      marks reset and never-allocated arena bytes as redzones) and every
#      vectorized kernel's pointer arithmetic, and the nn tests (the
#      optimizer's row mark is indexed by row id)
#   4. (opt-in: SCENEREC_PERF=1) benchmark regression gate — re-measures the
#      benchmark suites and fails via tools/bench_diff --check when any
#      benchmark regressed past SCENEREC_PERF_THRESHOLD percent (default 20;
#      generous because single-CPU containers are noisy)
#
# Sanitizer-instrumented training is ~10x slower, so stages 2 and 3 run only
# the binaries relevant to them, not the whole suite. Run from the repo
# root; build trees land in build/, build-tsan/ and build-asan/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Configure `dir` with the remaining args. Prefers Ninja for fresh build
# directories but leaves an already-configured tree on its existing
# generator (cmake errors out on a generator switch).
configure() {
  local dir="$1"
  shift
  if [ ! -f "$dir/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    cmake -B "$dir" -G Ninja "$@"
  else
    cmake -B "$dir" "$@"
  fi
}

echo "==> stage 1: regular build + ctest"
configure build
cmake --build build
# Every test and selftest removes the /tmp/scenerec_* directories it makes;
# a run that leaves a new one behind fails the stage.
tmp_before="$(ls -1d /tmp/scenerec_* 2>/dev/null | sort || true)"
ctest --test-dir build --output-on-failure -j "$(nproc)"
tmp_after="$(ls -1d /tmp/scenerec_* 2>/dev/null | sort || true)"
leaked="$(comm -13 <(echo "$tmp_before") <(echo "$tmp_after"))"
if [ -n "$leaked" ]; then
  echo "FAIL: ctest left temp entries behind:" >&2
  echo "$leaked" >&2
  exit 1
fi

echo "==> stage 2: ThreadSanitizer build"
configure build-tsan -DSCENEREC_SANITIZE=thread
cmake --build build-tsan --target parallel_test eval_test scoring_test train_test telemetry_test trace_test snapshot_test retrieval_test serve_test common_test repr_cache_test scenerec_serve scenerec_stat

echo "==> stage 2: parallel tests under TSan"
# halt_on_error makes a data race fail the script, not just print a report.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
build-tsan/tests/parallel_test
build-tsan/tests/eval_test
# Concurrent block sweeps over the prefilled eval caches — the ScoreRows
# version of the parallel-eval pure-read contract.
build-tsan/tests/scoring_test
build-tsan/tests/train_test
# The telemetry merge path is the TSan-critical one: per-thread slab writers
# racing with Snapshot() scrapers must be data-race-free (relaxed atomics).
build-tsan/tests/telemetry_test
# Trace rings are written with PLAIN stores by their owning threads; TSan
# proves the export-at-quiescence contract (pool join happens-before
# Snapshot) actually holds across ParallelFor and a traced training run.
build-tsan/tests/trace_test
# The hot-swap primitive: ModelHandle::Publish racing concurrent
# TopNFromHandle readers on the pool must be data-race-free and must never
# serve a torn (two-version) result.
build-tsan/tests/snapshot_test
# One shared ItemIndex serving concurrent Search calls on pool threads:
# const reads of centroids/lists/codes with all scratch query-local.
build-tsan/tests/retrieval_test
# The demand-paged repr cache: sharded locking under concurrent
# Lookup/Insert from many threads — the slot-reuse path is the race surface.
build-tsan/tests/repr_cache_test
# The serving daemon's MPMC queue, batched admission loop and hot swap under
# live client threads — the cross-request batching contract is only real if
# TSan can't find a race between clients, the admission thread and Publish.
# Includes the lazy warm-up tests: compute-on-miss fills racing a cold-cache
# hot swap.
build-tsan/tests/serve_test
# The observability plane under load: socket server accept loop, windowed
# histogram ticker, live trace ring and SLO tracker all run on their own
# threads against hot-path writers.
build-tsan/tests/common_test
build-tsan/tools/scenerec_serve --selftest
build-tsan/tools/scenerec_stat --selftest

echo "==> stage 3: ASan+UBSan build"
configure build-asan -DSCENEREC_SANITIZE=address,undefined
cmake --build build-asan --target tensor_test ops_test nn_test telemetry_test train_test trace_test scoring_test snapshot_test retrieval_test serve_test common_test repr_cache_test scenerec_serve scenerec_stat

echo "==> stage 3: tensor/op tests under ASan+UBSan"
build-asan/tests/tensor_test
build-asan/tests/ops_test

echo "==> stage 3: nn/optimizer tests under ASan+UBSan"
# Optimizer::Step dedups touched rows through a mark vector indexed by row
# id; an id past the table would be a heap overflow here.
build-asan/tests/nn_test

echo "==> stage 3: telemetry + trainer divergence tests under ASan+UBSan"
# Thread-exit slab retirement and the NaN-injection abort paths both free /
# unwind mid-training; ASan verifies nothing dangles or leaks on those exits.
build-asan/tests/telemetry_test
build-asan/tests/train_test --gtest_filter='TrainTest.NonFinite*:TrainTest.EarlyStop*'

echo "==> stage 3: block-scoring equivalence under ASan+UBSan"
# Span/subspan chunking arithmetic and the gather-into-matrix copies in
# every model's ScoreRows; UBSan additionally checks the partial-selection
# comparator for strict-weak-ordering misuse symptoms (invalid indexing).
build-asan/tests/scoring_test

echo "==> stage 3: trace ring + export under ASan+UBSan"
# Ring wraparound arithmetic, snprintf'd args buffers and the JSON exporter
# are exactly the kind of off-by-one surface ASan exists for.
build-asan/tests/trace_test

echo "==> stage 3: snapshot mapping lifetime under ASan+UBSan"
# Unmap-after-drain: reads through borrowed views and retired models after
# snapshot handles drop are use-after-munmap bugs if any pin is missing —
# ASan turns them into hard failures instead of lucky reads.
build-asan/tests/snapshot_test

echo "==> stage 3: retrieval index paths under ASan+UBSan"
# int8 code/scale buffer arithmetic, CSR inverted-list walks, k-means
# scratch, and index-over-mmap'd-snapshot reads (a missing mapping pin on
# a borrowed item table is a use-after-munmap here).
build-asan/tests/retrieval_test

echo "==> stage 3: serving daemon under ASan+UBSan"
# The repr cache's slot-parallel arrays and memcpy row copies — wrong slot
# arithmetic on the contiguous [slots, dim] block is a heap overflow here.
build-asan/tests/repr_cache_test
# Request/result lifetime across the queue handoff (caller-owned output
# vectors written by the admission thread), Stop-time drain, and the model
# retirement path while responses are still being copied out.
build-asan/tests/serve_test
build-asan/tools/scenerec_serve --selftest

echo "==> stage 3: observability plane under ASan+UBSan"
# Socket framing (length-prefixed reads into resized strings), the JSON /
# Prometheus renderers' snprintf buffers, and CLI parsing of scraped text.
build-asan/tests/common_test
build-asan/tools/scenerec_stat --selftest

if [ "${SCENEREC_PERF:-0}" != "0" ]; then
  echo "==> stage 4: benchmark regression gate (SCENEREC_PERF=1)"
  THRESHOLD="${SCENEREC_PERF_THRESHOLD:-20}"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  cmake --build build --target bench_kernels bench_parallel bench_scoring bench_snapshot bench_retrieval bench_serve bench_observe
  build/bench/bench_kernels --benchmark_format=json >"$tmp/kernels.json"
  build/bench/bench_parallel --benchmark_format=json >"$tmp/parallel.json"
  build/bench/bench_scoring --benchmark_format=json >"$tmp/scoring.json"
  build/bench/bench_snapshot --benchmark_format=json >"$tmp/snapshot.json"
  build/bench/bench_retrieval --benchmark_format=json >"$tmp/retrieval.json"
  build/bench/bench_serve --benchmark_filter='BM_Serve' --benchmark_format=json >"$tmp/serve.json"
  build/bench/bench_serve --benchmark_filter='BM_Cache' --benchmark_format=json >"$tmp/cache.json"
  build/bench/bench_observe --benchmark_format=json >"$tmp/observe.json"
  build/bench/bench_parallel \
    --benchmark_filter='BM_TrainEpochTelemetry' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
    --benchmark_format=json >"$tmp/telemetry.json"
  build/bench/bench_parallel \
    --benchmark_filter='BM_TrainEpochTrace' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
    --benchmark_format=json >"$tmp/trace.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_kernels.json "$tmp/kernels.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_parallel.json "$tmp/parallel.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_scoring.json "$tmp/scoring.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_snapshot.json "$tmp/snapshot.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_retrieval.json "$tmp/retrieval.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_serve.json "$tmp/serve.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_cache.json "$tmp/cache.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_observe.json "$tmp/observe.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_telemetry.json "$tmp/telemetry.json"
  tools/bench_diff --check --threshold="$THRESHOLD" BENCH_trace.json "$tmp/trace.json"
fi

echo "==> all checks passed"
