// Measures the wall-clock effect of --threads on the sharded training step
// and on the ranking protocols. On a multi-core machine the parallel paths
// approach linear speedup at 4 threads; on a single-CPU container (like most
// CI sandboxes) the workers timeshare one core, the ratio stays near 1x, and
// the numbers instead document the scheduling overhead of the parallel
// layer. Compare the `threads:1` and `threads:4` rows of the same benchmark.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/bpr_mf.h"
#include "models/scene_rec.h"
#include "train/trainer.h"

namespace scenerec {
namespace {

struct BenchData {
  Dataset dataset;
  LeaveOneOutSplit split;
  UserItemGraph graph;
  SceneGraph scene;
};

const BenchData& Data() {
  static const BenchData* data = [] {
    auto* d = new BenchData();
    SyntheticConfig config;
    config.name = "bench-parallel";
    config.num_users = 100;
    config.num_items = 400;
    config.num_categories = 12;
    config.num_scenes = 8;
    config.sessions_per_user = 6;
    config.session_length = 6;
    auto dataset = GenerateSyntheticDataset(config, 33);
    SCENEREC_CHECK(dataset.ok());
    d->dataset = std::move(dataset).value();
    Rng rng(1);
    auto split = MakeLeaveOneOutSplit(d->dataset, /*num_negatives=*/50, rng);
    SCENEREC_CHECK(split.ok());
    d->split = std::move(split).value();
    d->graph = UserItemGraph::Build(d->dataset.num_users, d->dataset.num_items,
                                    d->split.train);
    d->scene = d->dataset.BuildSceneGraph();
    return d;
  }();
  return *data;
}

/// One epoch of sharded BPR-MF training (the cheapest sharded model, so the
/// measurement is dominated by the parallel step itself).
void BM_TrainEpochBprMf(benchmark::State& state) {
  const BenchData& data = Data();
  const int64_t threads = state.range(0);
  TrainConfig config;
  config.epochs = 1;
  config.patience = 0;
  config.learning_rate = 5e-3f;
  config.threads = threads;
  for (auto _ : state) {
    Rng rng(7);
    BprMf model(data.dataset.num_users, data.dataset.num_items, 32, rng);
    auto result = TrainAndEvaluate(model, data.split, data.graph, config);
    SCENEREC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->test.ndcg);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_TrainEpochBprMf)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

/// One epoch of SceneRec with per-shard step caches — the heaviest sharded
/// forward/backward in the repo.
void BM_TrainEpochSceneRec(benchmark::State& state) {
  const BenchData& data = Data();
  const int64_t threads = state.range(0);
  TrainConfig config;
  config.epochs = 1;
  config.patience = 0;
  config.learning_rate = 1e-2f;
  config.threads = threads;
  SceneRecConfig model_config;
  model_config.embedding_dim = 16;
  for (auto _ : state) {
    Rng rng(7);
    SceneRec model(&data.graph, &data.scene, model_config, rng);
    auto result = TrainAndEvaluate(model, data.split, data.graph, config);
    SCENEREC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->test.ndcg);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_TrainEpochSceneRec)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

/// The telemetry layer's overhead on a full training epoch: arg 0 is the
/// enabled flag. Compare the enabled:0 and enabled:1 rows — the acceptance
/// bar is under 1% (tools/bench.sh records the pair in BENCH_telemetry.json).
/// Disabled-mode cost is one relaxed load + branch per instrument site.
void BM_TrainEpochTelemetry(benchmark::State& state) {
  const BenchData& data = Data();
  const bool enabled = state.range(0) != 0;
  telemetry::Telemetry::SetEnabled(enabled);
  telemetry::Telemetry::Reset();
  TrainConfig config;
  config.epochs = 1;
  config.patience = 0;
  config.learning_rate = 5e-3f;
  config.threads = 1;  // serial: no pool noise, pure instrument cost
  for (auto _ : state) {
    Rng rng(7);
    BprMf model(data.dataset.num_users, data.dataset.num_items, 32, rng);
    auto result = TrainAndEvaluate(model, data.split, data.graph, config);
    SCENEREC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->test.ndcg);
  }
  telemetry::Telemetry::SetEnabled(false);
  state.counters["telemetry"] = enabled ? 1.0 : 0.0;
}
BENCHMARK(BM_TrainEpochTelemetry)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

/// The trace layer's overhead on a full training epoch: arg 0 is the
/// enabled flag. The disabled row is the one with a budget — every span
/// site must cost one relaxed load + branch, so enabled:0 vs the
/// uninstrumented baseline must stay under 1% (tools/bench.sh records the
/// pair in BENCH_trace.json). The enabled:1 row documents the full
/// recording cost (timestamping + ring writes + args formatting).
void BM_TrainEpochTrace(benchmark::State& state) {
  const BenchData& data = Data();
  const bool enabled = state.range(0) != 0;
  trace::Trace::SetEnabled(enabled);
  trace::Trace::Reset();
  TrainConfig config;
  config.epochs = 1;
  config.patience = 0;
  config.learning_rate = 5e-3f;
  config.threads = 1;  // serial: no pool noise, pure instrument cost
  for (auto _ : state) {
    Rng rng(7);
    BprMf model(data.dataset.num_users, data.dataset.num_items, 32, rng);
    auto result = TrainAndEvaluate(model, data.split, data.graph, config);
    SCENEREC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->test.ndcg);
  }
  trace::Trace::SetEnabled(false);
  trace::Trace::Reset();
  state.counters["trace"] = enabled ? 1.0 : 0.0;
}
BENCHMARK(BM_TrainEpochTrace)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Full-vocabulary ranking protocol, parallel over evaluation instances.
void BM_EvaluateFullRanking(benchmark::State& state) {
  const BenchData& data = Data();
  const int64_t threads = state.range(0);
  Rng rng(9);
  BprMf model(data.dataset.num_users, data.dataset.num_items, 32, rng);
  model.OnEvalBegin();
  std::unique_ptr<ThreadPool> pool;
  ThreadPool* pool_ptr = nullptr;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    SCENEREC_CHECK(model.PrepareParallelScoring(*pool));
    pool_ptr = pool.get();
  }
  for (auto _ : state) {
    RankingMetrics metrics = EvaluateFullRanking(
        model.BlockScorer(), data.graph, data.split.test, 10, pool_ptr);
    benchmark::DoNotOptimize(metrics.ndcg);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.split.test.size()));
}
BENCHMARK(BM_EvaluateFullRanking)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

/// Raw ParallelFor dispatch overhead on a trivial body: the per-loop cost a
/// sharded step pays on top of the useful work.
void BM_ParallelForOverhead(benchmark::State& state) {
  const int64_t threads = state.range(0);
  ThreadPool pool(threads);
  for (auto _ : state) {
    std::atomic<int64_t> sink{0};
    pool.ParallelFor(threads, 1, [&](int64_t begin, int64_t end) {
      sink.fetch_add(end - begin, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sink.load());
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMicrosecond);

}  // namespace
}  // namespace scenerec

BENCHMARK_MAIN();
