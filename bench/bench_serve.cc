// Closed-loop load generation against the serving daemon
// (src/serve/server.h, docs/serving.md#daemon): kClients client threads
// drive blocking Top-N requests as fast as the daemon answers them, once
// with coalescing disabled (max_batch=1, the per-request baseline) and once
// with dynamic batching (max_batch=kClients — in a closed loop a larger
// window would wait for requests that cannot arrive while every client is
// blocked on its future).
//
//   BM_ServeDirectRetrieval    TwoStageTopN called in-process (no daemon) —
//                              the queueless lower bound
//   BM_ServeDirectFullCatalog  TopNRecommendations in-process
//   BM_ServePerRequest*        daemon, max_batch=1: every request pays its
//                              own wakeup round-trip and its own MLP call
//   BM_ServeBatched*           daemon, coalescing on: concurrent requests
//                              share admission wakeups and ScoreRows GEMMs
//
// Every row reports items_per_second (= QPS: one item == one request) and
// p50_us / p99_us request latency scraped from the daemon's
// serve/request_ns telemetry histogram. The acceptance gate pairs
// BM_ServeBatchedRetrieval >= 2x BM_ServePerRequestRetrieval QPS with
// bitwise-identical results — equality against the library paths is
// CHECKed for every user during setup and for every driven request.
// tools/bench.sh records the suite in BENCH_serve.json for bench_diff.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "retrieval/index_builder.h"
#include "retrieval/two_stage.h"
#include "serve/server.h"

namespace scenerec {
namespace {

constexpr int64_t kNumUsers = 512;
constexpr int64_t kNumItems = 32768;
constexpr int64_t kDim = 64;
constexpr int64_t kTopN = 10;
constexpr int64_t kCandidates = 32;
constexpr int kClients = 8;
constexpr int64_t kRetrievalRequests = 512;
// Full-catalog serving scores every one of the 32k items per request, so
// those rows drive a smaller user subset with fewer requests to keep setup
// (ground truth + warm-up) and per-iteration time sane.
constexpr int64_t kFullCatalogUsers = 64;
constexpr int64_t kFullCatalogRequests = 32;

struct BenchData {
  Dataset dataset;
  LeaveOneOutSplit split;
  UserItemGraph graph;
  SceneGraph scene_graph;
  std::shared_ptr<Recommender> model;
  std::shared_ptr<const ItemIndex> index;
  std::vector<std::vector<Recommendation>> expected_full;
  std::vector<std::vector<Recommendation>> expected_retrieval;
  std::unique_ptr<serve::Server> full_per_request;
  std::unique_ptr<serve::Server> full_batched;
  std::unique_ptr<serve::Server> retrieval_per_request;
  std::unique_ptr<serve::Server> retrieval_batched;

  void StopAll() {
    full_per_request->Stop();
    full_batched->Stop();
    retrieval_per_request->Stop();
    retrieval_batched->Stop();
  }
};

serve::ServerConfig MakeConfig(int64_t max_batch, int64_t num_candidates) {
  serve::ServerConfig config;
  config.top_n = kTopN;
  config.max_batch = max_batch;
  config.max_delay_us = 200;
  config.queue_capacity = 64;
  config.num_candidates = num_candidates;
  return config;
}

/// Drives `total` closed-loop requests from kClients threads. When
/// `expected` is non-null every result is CHECKed bitwise against it — the
/// daemon must agree with the library paths regardless of batching.
void Drive(serve::Server& server, int64_t total,
           const std::vector<std::vector<Recommendation>>* expected,
           int64_t user_modulus = kNumUsers) {
  std::atomic<int64_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      std::vector<Recommendation> got;
      for (;;) {
        const int64_t seq = next.fetch_add(1, std::memory_order_relaxed);
        if (seq >= total) break;
        const int64_t user = seq % user_modulus;
        SCENEREC_CHECK(server.TopN(user, &got));
        if (expected != nullptr) {
          const std::vector<Recommendation>& want =
              (*expected)[static_cast<size_t>(user)];
          SCENEREC_CHECK_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            SCENEREC_CHECK(got[i].item == want[i].item &&
                           got[i].score == want[i].score)
                << "daemon diverged from library serving for user " << user;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// Each suite's world is built lazily on first use; the flags let main()
// stop only the daemons that actually started (a --benchmark_filter'd run
// must not pay the other suite's setup just to shut it down).
bool g_serve_data_live = false;
bool g_cache_data_live = false;

BenchData& Data() {
  static BenchData* data = [] {
    telemetry::Telemetry::SetEnabled(true);
    g_serve_data_live = true;
    auto* d = new BenchData();
    SyntheticConfig config;
    config.name = "serve-bench";
    config.num_users = kNumUsers;
    config.num_items = kNumItems;
    config.num_categories = 32;
    config.num_scenes = 48;
    config.sessions_per_user = 6;
    config.session_length = 6;
    d->dataset = GenerateSyntheticDataset(config, 29).value();
    Rng rng(5);
    d->split = MakeLeaveOneOutSplit(d->dataset, /*num_negatives=*/20,
                                    rng).value();
    d->graph = UserItemGraph::Build(d->dataset.num_users,
                                    d->dataset.num_items, d->split.train);
    d->scene_graph = d->dataset.BuildSceneGraph();

    ModelContext context;
    context.user_item = &d->graph;
    context.scene = &d->scene_graph;
    ModelFactoryConfig factory_config;
    factory_config.embedding_dim = kDim;
    // Random-init parameters: serving cost does not depend on training, and
    // bitwise identity is about paths, not quality.
    d->model = MakeRecommender("SceneRec", context, factory_config).value();
    d->model->OnEvalBegin();
    // Exact backend: the one whose MultiSearch shares the item-matrix sweep
    // across a coalesced batch — the amortization these rows measure.
    d->index = IndexBuilder().Build(*d->model).value();

    // Library-path ground truth, both serving modes.
    d->expected_full.resize(static_cast<size_t>(kFullCatalogUsers));
    d->expected_retrieval.resize(static_cast<size_t>(kNumUsers));
    for (int64_t u = 0; u < kFullCatalogUsers; ++u) {
      d->expected_full[static_cast<size_t>(u)] = TopNRecommendations(
          d->model->BlockScorer(), d->graph, u, kTopN);
    }
    for (int64_t u = 0; u < kNumUsers; ++u) {
      d->expected_retrieval[static_cast<size_t>(u)] = TwoStageTopN(
          *d->model, *d->index, d->graph, u, kTopN, kCandidates);
    }

    auto start = [&](int64_t max_batch, int64_t candidates) {
      auto server = std::make_unique<serve::Server>(
          MakeConfig(max_batch, candidates), d->graph);
      server->Publish(d->model, candidates > 0 ? d->index : nullptr);
      server->Start();
      return server;
    };
    d->full_per_request = start(1, 0);
    d->full_batched = start(kClients, 0);
    d->retrieval_per_request = start(1, kCandidates);
    d->retrieval_batched = start(kClients, kCandidates);

    // One verified warm-up sweep per server: every user it will be driven
    // with, concurrent clients, results bitwise against the library paths.
    Drive(*d->full_per_request, kFullCatalogUsers, &d->expected_full,
          kFullCatalogUsers);
    Drive(*d->full_batched, kFullCatalogUsers, &d->expected_full,
          kFullCatalogUsers);
    Drive(*d->retrieval_per_request, kNumUsers, &d->expected_retrieval);
    Drive(*d->retrieval_batched, kNumUsers, &d->expected_retrieval);
    return d;
  }();
  return *data;
}

/// Attaches p50/p99 request latency (µs) from the daemon's telemetry
/// histogram to the row. Call after the timing loop; the histogram holds
/// the last iteration's samples (Reset runs at each iteration start).
void ReportLatency(benchmark::State& state) {
  const telemetry::TelemetrySnapshot snapshot =
      telemetry::Telemetry::Snapshot();
  if (const auto* hist = snapshot.FindHistogram("serve/request_ns")) {
    state.counters["p50_us"] = hist->data.Percentile(0.5) / 1000.0;
    state.counters["p99_us"] = hist->data.Percentile(0.99) / 1000.0;
  }
}

void RunServer(benchmark::State& state, serve::Server& server, int64_t total,
               const std::vector<std::vector<Recommendation>>& expected,
               int64_t user_modulus = kNumUsers) {
  for (auto _ : state) {
    state.PauseTiming();
    telemetry::Telemetry::Reset();
    state.ResumeTiming();
    Drive(server, total, &expected, user_modulus);
  }
  state.SetItemsProcessed(state.iterations() * total);
  ReportLatency(state);
  const serve::Server::Stats stats = server.stats();
  state.counters["max_batch_observed"] =
      static_cast<double>(stats.max_batch);
}

// -- In-process library baselines (no daemon, no queue) ------------------------

void BM_ServeDirectFullCatalog(benchmark::State& state) {
  BenchData& d = Data();
  int64_t user = 0;
  for (auto _ : state) {
    auto recs =
        TopNRecommendations(d.model->BlockScorer(), d.graph, user, kTopN);
    benchmark::DoNotOptimize(recs.data());
    user = (user + 1) % kFullCatalogUsers;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeDirectFullCatalog)->Unit(benchmark::kMicrosecond);

void BM_ServeDirectRetrieval(benchmark::State& state) {
  BenchData& d = Data();
  int64_t user = 0;
  for (auto _ : state) {
    auto recs =
        TwoStageTopN(*d.model, *d.index, d.graph, user, kTopN, kCandidates);
    benchmark::DoNotOptimize(recs.data());
    user = (user + 1) % kNumUsers;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeDirectRetrieval)->Unit(benchmark::kMicrosecond);

// -- Daemon, per-request vs batched --------------------------------------------

void BM_ServePerRequestFullCatalog(benchmark::State& state) {
  BenchData& d = Data();
  RunServer(state, *d.full_per_request, kFullCatalogRequests,
            d.expected_full, kFullCatalogUsers);
}
BENCHMARK(BM_ServePerRequestFullCatalog)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServeBatchedFullCatalog(benchmark::State& state) {
  BenchData& d = Data();
  RunServer(state, *d.full_batched, kFullCatalogRequests, d.expected_full,
            kFullCatalogUsers);
}
BENCHMARK(BM_ServeBatchedFullCatalog)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServePerRequestRetrieval(benchmark::State& state) {
  BenchData& d = Data();
  RunServer(state, *d.retrieval_per_request, kRetrievalRequests,
            d.expected_retrieval);
}
BENCHMARK(BM_ServePerRequestRetrieval)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServeBatchedRetrieval(benchmark::State& state) {
  BenchData& d = Data();
  RunServer(state, *d.retrieval_batched, kRetrievalRequests,
            d.expected_retrieval);
}
BENCHMARK(BM_ServeBatchedRetrieval)->Unit(benchmark::kMillisecond)->UseRealTime();

// -- Demand-paged user cache (docs/serving.md#warmup) --------------------------
//
// A world shaped like production: users OUTNUMBER items 8:1, so full
// warm-up's O(users) sweep dominates every publish while per-request
// scoring stays cheap (two-stage retrieval). The BM_Cache rows measure the
// two claims the lazy mode makes:
//
//   BM_CacheSwapToFirstResponse{Full,Lazy}  Publish + one request: how long
//                                           a swap blocks the first answer
//   BM_CacheSteadyState{Full,LazyZipf}      closed-loop Zipf QPS: residency
//                                           (hit_rate_pct) must make lazy
//                                           compete with precompute-everything
//
// tools/bench.sh records these rows in BENCH_cache.json; the acceptance
// gate wants >= 5x swap-to-first-response reduction and steady-state QPS
// within a few percent at a cache of ~10% of the user base.

constexpr int64_t kCacheUsers = 32768;
constexpr int64_t kCacheItems = 1024;
constexpr int64_t kCacheDim = 32;
constexpr int64_t kCacheEntries = kCacheUsers / 10;
constexpr int64_t kCacheCandidates = 32;
constexpr int64_t kCacheRequests = 2048;

/// Zipf exponent of the cache rows' traffic; override by passing
/// --skew=zipf:<s> after the --benchmark_* flags.
double g_cache_zipf_s = 1.1;

struct CacheBenchData {
  Dataset dataset;
  LeaveOneOutSplit split;
  UserItemGraph graph;
  SceneGraph scene_graph;
  // One model instance PER server: attaching the demand-paged cache is a
  // model-level capability, so sharing one instance would silently turn the
  // full-warm-up server lazy after the lazy server's first publish. Same
  // factory seed -> identical parameters, so cross-server results stay
  // bitwise comparable.
  std::shared_ptr<Recommender> model_full;
  std::shared_ptr<Recommender> model_lazy;
  std::shared_ptr<const ItemIndex> index;
  std::vector<int64_t> zipf_seq;
  std::unique_ptr<serve::Server> full;
  std::unique_ptr<serve::Server> lazy;

  void StopAll() {
    if (full != nullptr) full->Stop();
    if (lazy != nullptr) lazy->Stop();
  }
};

CacheBenchData& CacheData() {
  static CacheBenchData* data = [] {
    telemetry::Telemetry::SetEnabled(true);
    g_cache_data_live = true;
    auto* d = new CacheBenchData();
    SyntheticConfig config;
    config.name = "serve-cache-bench";
    config.num_users = kCacheUsers;
    config.num_items = kCacheItems;
    config.num_categories = 32;
    config.num_scenes = 48;
    config.sessions_per_user = 4;
    config.session_length = 5;
    d->dataset = GenerateSyntheticDataset(config, 31).value();
    Rng rng(7);
    d->split = MakeLeaveOneOutSplit(d->dataset, /*num_negatives=*/5,
                                    rng).value();
    d->graph = UserItemGraph::Build(d->dataset.num_users,
                                    d->dataset.num_items, d->split.train);
    d->scene_graph = d->dataset.BuildSceneGraph();

    ModelContext context;
    context.user_item = &d->graph;
    context.scene = &d->scene_graph;
    ModelFactoryConfig factory_config;
    factory_config.embedding_dim = kCacheDim;
    d->model_full = MakeRecommender("SceneRec", context,
                                    factory_config).value();
    d->model_lazy = MakeRecommender("SceneRec", context,
                                    factory_config).value();
    SCENEREC_CHECK(d->model_lazy->SupportsUserReprCache());
    d->model_full->OnEvalBegin();
    d->model_lazy->OnEvalBegin();
    d->index = IndexBuilder().Build(*d->model_full).value();

    ZipfSampler zipf(static_cast<uint64_t>(kCacheUsers), g_cache_zipf_s);
    Rng zipf_rng(13);
    d->zipf_seq.resize(static_cast<size_t>(kCacheRequests));
    for (int64_t& u : d->zipf_seq) {
      u = static_cast<int64_t>(zipf.Sample(zipf_rng));
    }

    auto start = [&](serve::ServerConfig::Warmup warmup,
                     const std::shared_ptr<Recommender>& model) {
      serve::ServerConfig config = MakeConfig(kClients, kCacheCandidates);
      config.warmup = warmup;
      config.user_cache_entries = kCacheEntries;
      auto server = std::make_unique<serve::Server>(config, d->graph);
      server->Publish(model, d->index);
      server->Start();
      return server;
    };
    d->full = start(serve::ServerConfig::Warmup::kFull, d->model_full);
    d->lazy = start(serve::ServerConfig::Warmup::kLazy, d->model_lazy);

    // Lazy must be bitwise-invisible: both daemons answer a user sample
    // identically (the test suite proves the full property; this CHECK
    // keeps the benchmark honest about what it compares).
    std::vector<Recommendation> via_full;
    std::vector<Recommendation> via_lazy;
    for (int64_t u = 0; u < kCacheUsers; u += kCacheUsers / 64) {
      SCENEREC_CHECK(d->full->TopN(u, &via_full));
      SCENEREC_CHECK(d->lazy->TopN(u, &via_lazy));
      SCENEREC_CHECK_EQ(via_full.size(), via_lazy.size());
      for (size_t i = 0; i < via_full.size(); ++i) {
        SCENEREC_CHECK(via_full[i].item == via_lazy[i].item &&
                       via_full[i].score == via_lazy[i].score)
            << "lazy warm-up diverged from full warm-up for user " << u;
      }
    }
    return d;
  }();
  return *data;
}

/// Drives the pre-sampled Zipf sequence closed-loop from kClients threads.
void DriveZipf(serve::Server& server, const std::vector<int64_t>& seq) {
  std::atomic<int64_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  const int64_t total = static_cast<int64_t>(seq.size());
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      std::vector<Recommendation> got;
      for (;;) {
        const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        SCENEREC_CHECK(server.TopN(seq[static_cast<size_t>(i)], &got));
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Publish (same model — re-publishing bumps the cache version exactly like
/// a real snapshot swap) and time until the first request answers.
void RunSwapToFirstResponse(benchmark::State& state, serve::Server& server,
                            const std::shared_ptr<Recommender>& model) {
  CacheBenchData& d = CacheData();
  std::vector<Recommendation> got;
  for (auto _ : state) {
    server.Publish(model, d.index);
    SCENEREC_CHECK(server.TopN(d.zipf_seq[0], &got));
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CacheSwapToFirstResponseFull(benchmark::State& state) {
  CacheBenchData& d = CacheData();
  RunSwapToFirstResponse(state, *d.full, d.model_full);
}
BENCHMARK(BM_CacheSwapToFirstResponseFull)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CacheSwapToFirstResponseLazy(benchmark::State& state) {
  CacheBenchData& d = CacheData();
  RunSwapToFirstResponse(state, *d.lazy, d.model_lazy);
}
BENCHMARK(BM_CacheSwapToFirstResponseLazy)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CacheSteadyStateFull(benchmark::State& state) {
  CacheBenchData& d = CacheData();
  for (auto _ : state) DriveZipf(*d.full, d.zipf_seq);
  state.SetItemsProcessed(state.iterations() * kCacheRequests);
}
// MinTime + repetitions keep the steady-state pair stable enough for the
// <=5% delta acceptance — at the default budget one closed-loop pass per
// iteration is too few samples and the rows wobble past the gate on a
// noisy container. bench_diff compares the mean aggregate.
BENCHMARK(BM_CacheSteadyStateFull)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(1.0)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true);

void BM_CacheSteadyStateLazyZipf(benchmark::State& state) {
  CacheBenchData& d = CacheData();
  // One unmeasured warm pass so the hot set is resident before timing —
  // steady state is the claim, not the cold start (the swap rows own that).
  DriveZipf(*d.lazy, d.zipf_seq);
  telemetry::Telemetry::Reset();
  for (auto _ : state) DriveZipf(*d.lazy, d.zipf_seq);
  state.SetItemsProcessed(state.iterations() * kCacheRequests);

  const ReprCache::Stats cache = d.lazy->user_cache_stats();
  const uint64_t lookups = cache.hits + cache.misses;
  state.counters["hit_rate_pct"] =
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(cache.hits) /
                         static_cast<double>(lookups);
  state.counters["resident_mb"] =
      static_cast<double>(cache.bytes) / (1024.0 * 1024.0);
  // Scratch reuse (the per-batch allocation-recycling satellite): fraction
  // of batches served entirely from retained buffers.
  const telemetry::TelemetrySnapshot snapshot =
      telemetry::Telemetry::Snapshot();
  double reuses = 0.0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "serve/scratch_reuse_batches") {
      reuses = static_cast<double>(c.value);
    }
  }
  const serve::Server::Stats stats = d.lazy->stats();
  state.counters["scratch_reuse_pct"] =
      stats.batches == 0 ? 0.0
                         : 100.0 * reuses /
                               static_cast<double>(stats.batches);
}
BENCHMARK(BM_CacheSteadyStateLazyZipf)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(1.0)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true);

}  // namespace
}  // namespace scenerec

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // Leftover (non-benchmark) args: --skew=zipf:<s> retargets the cache
  // rows' traffic skew.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--skew=zipf:";
    if (arg.compare(0, prefix.size(), prefix) == 0) {
      scenerec::g_cache_zipf_s = std::strtod(arg.c_str() + prefix.size(),
                                             nullptr);
      SCENEREC_CHECK(scenerec::g_cache_zipf_s > 0.0)
          << "bad --skew value: " << arg;
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (scenerec::g_serve_data_live) scenerec::Data().StopAll();
  if (scenerec::g_cache_data_live) scenerec::CacheData().StopAll();
  return 0;
}
