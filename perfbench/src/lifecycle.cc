#include "lifecycle.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <thread>

#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "graph/scene_graph.h"
#include "models/factory.h"
#include "nn/snapshot.h"
#include "retrieval/index_builder.h"
#include "retrieval/two_stage.h"
#include "serve/server.h"
#include "train/trainer.h"

// A span around one call into a library module, recorded by the library's
// own tracer (common/trace.h) while a TraceWindow is open.
#define PERFBENCH_SPAN(name) \
  SCENEREC_TRACE_SPAN(name, "perfbench", ::scenerec::trace::Floor::kNone)

namespace perfbench {
namespace {

using scenerec::BlockScoreFn;
using scenerec::ItemIndex;
using scenerec::Recommendation;
using scenerec::Recommender;
using scenerec::ReprCache;
using scenerec::Status;
using scenerec::StatusOr;
using scenerec::serve::Server;
using scenerec::telemetry::Telemetry;
using scenerec::telemetry::TelemetrySnapshot;
using scenerec::trace::Trace;
using scenerec::trace::TraceSnapshot;
using scenerec::trace::TraceSpan;

/// Every stage's layers must cover at least this share of its wall time.
constexpr double kMinCoveragePct = 90.0;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

/// Records spans while alive, in the traced run only. Library spans of
/// other threads running meanwhile are recorded too; per-layer figures use
/// the benchmark's own spans only.
class TraceWindow {
 public:
  explicit TraceWindow(bool on) : on_(on) {
    if (on_) Trace::SetEnabled(true);
  }
  ~TraceWindow() {
    if (on_) Trace::SetEnabled(false);
  }
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

 private:
  bool on_;
};

/// One traced stage ("stage.<name>" span) and the time of the benchmark's
/// layer spans nested under it, per layer name.
struct StageSample {
  double wall_ms = 0.0;
  std::map<std::string, double> layer_ms;

  double layer(const std::string& name) const {
    const auto it = layer_ms.find(name);
    return it == layer_ms.end() ? 0.0 : it->second;
  }
};

/// Groups a trace snapshot by stage: every other "perfbench" span is billed
/// to the "stage.*" span that encloses it on the same thread. Stages never
/// nest, and the snapshot is sorted by (thread, start), so that is the last
/// stage seen on the thread.
std::map<std::string, std::vector<StageSample>> StageSamples(
    const TraceSnapshot& snapshot) {
  std::map<std::string, std::vector<StageSample>> by_stage;
  std::vector<StageSample>* stage = nullptr;  // its back() is the open one
  const TraceSpan* open = nullptr;
  for (const TraceSpan& s : snapshot.spans) {
    if (s.cat != "perfbench") continue;
    if (s.name.rfind("stage.", 0) == 0) {
      stage = &by_stage[s.name.substr(6)];
      stage->push_back({Ms(s.dur_ns), {}});
      open = &s;
    } else if (open != nullptr && s.tid == open->tid &&
               s.start_ns >= open->start_ns &&
               s.start_ns + s.dur_ns <= open->start_ns + open->dur_ns) {
      stage->back().layer_ms[s.name] += Ms(s.dur_ns);
    }
  }
  return by_stage;
}

/// Counts checked operations; a failed check is reported on stderr and
/// turns the run's `correct` false, but the run goes on.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
  /// Books `attempted` operations of which `failed` did not hold.
  void Tally(int64_t attempted, int64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::cerr << "perfbench: " << failed << " of " << attempted
                << " failed: " << what << "\n";
    }
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

bool SameRecommendations(const std::vector<Recommendation>& a,
                         const std::vector<Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || a[i].score != b[i].score) return false;
  }
  return true;
}

bool SameMetrics(const scenerec::RankingMetrics& a,
                 const scenerec::RankingMetrics& b) {
  return a.hr == b.hr && a.ndcg == b.ndcg && a.mrr == b.mrr &&
         a.num_instances == b.num_instances;
}

bool Finite(const scenerec::RankingMetrics& m) {
  return std::isfinite(m.hr) && std::isfinite(m.ndcg) && std::isfinite(m.mrr);
}

// -- Set-up ------------------------------------------------------------------

/// Generated data plus the graphs every model and the daemon point into.
/// Heap-allocated and never moved once a model exists.
struct World {
  scenerec::Dataset dataset;
  scenerec::LeaveOneOutSplit split;
  scenerec::UserItemGraph graph;
  scenerec::SceneGraph scene;

  scenerec::ModelContext context() const { return {&graph, &scene}; }
  int64_t num_users() const { return dataset.num_users; }
};

scenerec::ModelFactoryConfig FactoryConfig(const BenchConfig& c) {
  scenerec::ModelFactoryConfig f;
  f.embedding_dim = c.embedding_dim;
  f.seed = c.model_seed;
  return f;
}

scenerec::IndexBuilder MakeIndexBuilder(const BenchConfig& c) {
  scenerec::IndexBuildConfig config;
  config.kind = scenerec::IndexKind::kIvf;
  config.nprobe = c.nprobe;
  return scenerec::IndexBuilder(config);
}

Status WriteVersion(const Recommender& model, uint64_t version,
                    const std::string& path) {
  PERFBENCH_SPAN("nn.snapshot_write");
  return scenerec::WriteSnapshot(model, model.name(), version, path);
}

/// One set-up: data generation, leave-one-out split, graphs, model
/// construction, and the serving side's cold start on the initial
/// parameters (snapshot write, zero-copy open, IVF index build).
StatusOr<std::unique_ptr<World>> SetUp(const BenchConfig& c,
                                       const std::string& work_dir) {
  auto world = std::make_unique<World>();
  SCENEREC_ASSIGN_OR_RETURN(
      world->dataset,
      scenerec::GenerateSyntheticDataset(
          scenerec::MakeJdConfig(scenerec::JdPreset::kBabyToy, c.data_scale),
          c.data_seed));
  scenerec::Rng rng(c.data_seed ^ 0x9e3779b97f4a7c15ULL);
  SCENEREC_ASSIGN_OR_RETURN(
      world->split,
      scenerec::MakeLeaveOneOutSplit(world->dataset, c.num_negatives, rng));
  world->graph = scenerec::UserItemGraph::Build(
      world->dataset.num_users, world->dataset.num_items, world->split.train);
  world->scene = world->dataset.BuildSceneGraph();
  SCENEREC_ASSIGN_OR_RETURN(
      std::unique_ptr<Recommender> model,
      scenerec::MakeRecommender(c.model, world->context(), FactoryConfig(c)));
  const std::string path = work_dir + "/initial.srsnap";
  SCENEREC_RETURN_IF_ERROR(
      scenerec::WriteSnapshot(*model, model->name(), 0, path));
  std::unique_ptr<Recommender> opened;
  SCENEREC_ASSIGN_OR_RETURN(
      std::unique_ptr<ItemIndex> index,
      MakeIndexBuilder(c).BuildFromSnapshot(path, world->context(),
                                            FactoryConfig(c), &opened));
  return world;
}

// -- Training ------------------------------------------------------------------

/// The trainer's own per-epoch phase histograms (recorded while telemetry
/// is on) and the kernel counters, by the per-layer metric they feed.
constexpr std::pair<const char*, const char*> kTrainPhases[] = {
    {"data.next_epoch_ms", "trainer/sampling_ns"},
    {"models.batch_loss_ms", "trainer/forward_ns"},
    {"tensor.backward_ms", "trainer/backward_ns"},
    {"nn.optimizer_ms", "trainer/optimizer_ns"},
    {"eval.validation_ms", "trainer/eval_ns"},
};
constexpr std::pair<const char*, const char*> kKernelCounters[] = {
    {"tensor.flops_per_epoch", "kernels/flops"},
    {"tensor.gemm_calls_per_epoch", "kernels/gemm_calls"},
    {"tensor.gemv_calls_per_epoch", "kernels/gemv_calls"},
    {"tensor.gemv_calls_per_epoch", "kernels/gemv_rows_calls"},
};

/// Phase sums and counters at one instant, for per-epoch deltas.
std::map<std::string, double> PhaseTotals() {
  const TelemetrySnapshot snapshot = Telemetry::Snapshot();
  std::map<std::string, double> totals;
  for (const auto& [metric, histogram] : kTrainPhases) {
    const auto* h = snapshot.FindHistogram(histogram);
    totals[metric] = h == nullptr ? 0.0 : Ms(h->data.sum);
  }
  for (const auto& [metric, counter] : kKernelCounters) {
    totals[metric] += static_cast<double>(snapshot.CounterValue(counter));
  }
  return totals;
}

/// Forwards every call the serial trainer makes to `inner` (parameters, the
/// batch loss, block scoring for validation, the epoch/eval hooks) and stamps
/// the clock in OnEpochBegin — the trainer's per-epoch hook — so per-epoch wall
/// times come out of an unmodified TrainAndEvaluate run. `between(e)` runs
/// ahead of the stamp and is therefore not billed to any epoch. With
/// `phases`, the trainer's phase telemetry is read at each stamp as well.
class EpochClock : public Recommender {
 public:
  struct Epoch {
    double wall_ms = 0.0;
    std::map<std::string, double> phases;  // per-layer metric -> this epoch
  };

  EpochClock(Recommender& inner, bool phases,
             std::function<void(int64_t)> between)
      : inner_(inner), phases_(phases), between_(std::move(between)) {}

  std::string name() const override { return inner_.name(); }
  void CollectParameters(std::vector<scenerec::Tensor>* out) const override {
    inner_.CollectParameters(out);
  }
  scenerec::Tensor ScoreForTraining(int64_t user, int64_t item) override {
    return inner_.ScoreForTraining(user, item);
  }
  scenerec::Tensor BatchLoss(
      std::span<const scenerec::BprTriple> batch) override {
    return inner_.BatchLoss(batch);
  }
  void ScoreBlock(int64_t user, std::span<const int64_t> items,
                  std::span<float> out) override {
    inner_.ScoreBlock(user, items, out);
  }
  void OnEvalBegin() override { inner_.OnEvalBegin(); }
  void OnEpochBegin() override {
    if (started_) {
      const uint64_t end = NowNs();
      Epoch epoch{Ms(end - begin_ns_), {}};
      if (phases_) {
        for (const auto& [name, total] : PhaseTotals()) {
          epoch.phases[name] = total - begin_totals_[name];
        }
      }
      epochs_.push_back(std::move(epoch));
    }
    if (between_) between_(static_cast<int64_t>(epochs_.size()));
    if (phases_) begin_totals_ = PhaseTotals();
    started_ = true;
    begin_ns_ = NowNs();
    inner_.OnEpochBegin();
  }

  /// Every completed epoch, in order.
  const std::vector<Epoch>& epochs() const { return epochs_; }

 private:
  Recommender& inner_;
  const bool phases_;
  std::function<void(int64_t)> between_;
  bool started_ = false;
  uint64_t begin_ns_ = 0;
  std::map<std::string, double> begin_totals_;
  std::vector<Epoch> epochs_;
};

scenerec::TrainConfig MakeTrainConfig(const BenchConfig& c) {
  scenerec::TrainConfig t;
  t.epochs = c.epochs;
  t.batch_size = c.batch_size;
  t.learning_rate = c.learning_rate;
  t.seed = c.train_seed;
  t.patience = 0;
  t.threads = 1;
  return t;
}

/// Median over epochs with the first (cold caches, first-touch allocation)
/// excluded.
double SteadyMedian(
    const std::vector<EpochClock::Epoch>& epochs,
    const std::function<double(const EpochClock::Epoch&)>& get) {
  std::vector<double> v;
  for (size_t e = epochs.size() < 2 ? 0 : 1; e < epochs.size(); ++e) {
    v.push_back(get(epochs[e]));
  }
  return Median(v);
}

// -- Serving -------------------------------------------------------------------

/// A snapshot version opened for serving: the model, plus in two-stage mode
/// the IVF index built from it.
struct Opened {
  std::shared_ptr<Recommender> model;
  std::shared_ptr<const ItemIndex> index;
};

/// Opens `path` zero-copy and, in two-stage mode, builds its index. The
/// untraced route is the one-call IndexBuilder::BuildFromSnapshot; the traced
/// route makes its two calls (OpenRecommenderFromSnapshot, then
/// IndexBuilder::Build) separately so each gets a span.
StatusOr<Opened> OpenVersion(const BenchConfig& c, const World& world,
                             const std::string& path, bool traced) {
  Opened opened;
  std::unique_ptr<Recommender> model;
  if (c.num_candidates > 0 && !traced) {
    SCENEREC_ASSIGN_OR_RETURN(
        std::unique_ptr<ItemIndex> index,
        MakeIndexBuilder(c).BuildFromSnapshot(path, world.context(),
                                              FactoryConfig(c), &model));
    opened.index = std::move(index);
  } else {
    {
      PERFBENCH_SPAN("nn.snapshot_open");
      SCENEREC_ASSIGN_OR_RETURN(
          model, scenerec::OpenRecommenderFromSnapshot(path, world.context(),
                                                       FactoryConfig(c)));
    }
    if (c.num_candidates > 0) {
      PERFBENCH_SPAN("retrieval.index_build");
      SCENEREC_ASSIGN_OR_RETURN(std::unique_ptr<ItemIndex> index,
                                MakeIndexBuilder(c).Build(*model));
      opened.index = std::move(index);
    }
  }
  opened.model = std::move(model);
  return opened;
}

/// User draws of the closed-loop clients: uniform, or Zipf over a seeded
/// permutation of the users (so the hot set is not simply the lowest ids).
class Traffic {
 public:
  Traffic(const BenchConfig& c, int64_t num_users)
      : num_users_(num_users),
        zipf_(static_cast<uint64_t>(num_users),
              c.zipf_exponent > 0 ? c.zipf_exponent : 1.0),
        zipf_on_(c.zipf_exponent > 0) {
    permutation_.resize(static_cast<size_t>(num_users));
    std::iota(permutation_.begin(), permutation_.end(), 0);
    scenerec::Rng rng(c.seed ^ 0x5bd1e995ULL);
    rng.Shuffle(permutation_);
  }

  int64_t Next(scenerec::Rng& rng) const {
    if (!zipf_on_) {
      return static_cast<int64_t>(
          rng.NextInt(static_cast<uint64_t>(num_users_)));
    }
    return permutation_[zipf_.Sample(rng)];
  }

 private:
  int64_t num_users_;
  scenerec::ZipfSampler zipf_;
  bool zipf_on_;
  std::vector<int64_t> permutation_;
};

/// One completed request of the measured window, kept by the traced run.
struct RequestRecord {
  int64_t user = 0;
  Server::RequestTicket ticket;
};

struct WindowLog {
  std::vector<double> latency_ms;
  std::vector<RequestRecord> requests;
  int64_t completed = 0;
  int64_t failed = 0;
  double elapsed_s = 0.0;
};

/// Closed loop: `c.clients` threads each send a request, wait for it, and
/// send the next until `seconds` have passed; the requests are added to
/// `*log`. `on_complete()` runs after every successful request.
void Drive(const BenchConfig& c, Server& server, const Traffic& traffic,
           uint64_t stream, double seconds, bool keep_requests,
           const std::function<void()>& on_complete, WindowLog* log) {
  std::vector<WindowLog> logs(static_cast<size_t>(c.clients));
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int64_t k = 0; k < c.clients; ++k) {
    threads.emplace_back([&, k] {
      WindowLog& log = logs[static_cast<size_t>(k)];
      scenerec::Rng rng(c.seed * 1000003ULL + stream * 101ULL +
                        static_cast<uint64_t>(k));
      std::vector<Recommendation> got;
      while (NowNs() < deadline) {
        const int64_t user = traffic.Next(rng);
        Server::RequestTicket ticket;
        const uint64_t t0 = NowNs();
        const bool ok = server.TopN(user, &got, &ticket);
        const uint64_t t1 = NowNs();
        ++log.completed;
        if (!ok || static_cast<int64_t>(got.size()) != c.top_n) {
          ++log.failed;
          continue;
        }
        log.latency_ms.push_back(Ms(t1 - t0));
        if (keep_requests) log.requests.push_back({user, ticket});
        on_complete();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  log->elapsed_s += static_cast<double>(NowNs() - start) / 1e9;
  for (const WindowLog& client : logs) {
    log->completed += client.completed;
    log->failed += client.failed;
    log->latency_ms.insert(log->latency_ms.end(), client.latency_ms.begin(),
                           client.latency_ms.end());
    log->requests.insert(log->requests.end(), client.requests.begin(),
                         client.requests.end());
  }
}

/// Publish timings; in the traced run publishes alternate between the traced
/// route (spans, split open + build) and the untraced one, so the two can be
/// compared within one run.
struct PublishLog {
  std::vector<double> untraced_ms;
  int64_t count = 0;
};

/// Time from snapshot open to the first response served by the new version:
/// open (+ index build), Server::Publish, then one probe request, which
/// queues behind the swap and is therefore answered by the new version.
Status TimedPublish(const BenchConfig& c, const World& world, Server& server,
                    const std::string& path, PublishLog* log, Checks* checks,
                    Opened* live) {
  const bool traced = c.trace && log->count % 2 == 0;
  ++log->count;
  const uint64_t begin = NowNs();
  Opened opened;
  std::vector<Recommendation> probe;
  bool probe_ok = false;
  {
    TraceWindow window(traced);
    PERFBENCH_SPAN("stage.publish");
    SCENEREC_ASSIGN_OR_RETURN(opened, OpenVersion(c, world, path, traced));
    {
      PERFBENCH_SPAN("serve.publish_call");
      server.Publish(opened.model, opened.index);
    }
    PERFBENCH_SPAN("serve.first_response");
    probe_ok = server.TopN(0, &probe);
  }
  const uint64_t end = NowNs();
  checks->Expect(probe_ok, "publish probe request served");
  if (!traced) log->untraced_ms.push_back(Ms(end - begin));
  if (live != nullptr) *live = std::move(opened);
  return Status::OK();
}

/// Replays the window's newest batches single-threaded, inside a trace
/// window, through the same library calls, in the same order, as
/// Server::ServeBatch, with a span around each call. Returns the daemon's
/// own exec time for the replayed batches (ms) and their request count.
std::pair<double, int64_t> ReplayBatches(
    const BenchConfig& c, const World& world, const Opened& live,
    const std::vector<RequestRecord>& requests) {
  // Group the window's requests by admission batch, in request-id order.
  std::map<uint64_t, std::vector<RequestRecord>> batches;
  for (const RequestRecord& r : requests) {
    batches[r.ticket.batch_seq].push_back(r);
  }
  // The newest batches, up to a quarter of the window's exec time and at
  // most kMaxBatches (which bounds the spans the replay records).
  constexpr size_t kMaxBatches = 1000;
  const double budget_ms = 250.0 * c.seconds;
  std::vector<const std::vector<RequestRecord>*> chosen;
  double exec_ms = 0.0;
  for (auto it = batches.rbegin();
       it != batches.rend() && exec_ms < budget_ms &&
       chosen.size() < kMaxBatches;
       ++it) {
    std::sort(it->second.begin(), it->second.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.ticket.id < b.ticket.id;
              });
    exec_ms += Ms(it->second.front().ticket.exec_ns);
    chosen.push_back(&it->second);
  }
  Recommender& model = *live.model;
  std::vector<std::vector<int64_t>> candidates;
  std::vector<int64_t> batch_users, users, items;
  std::vector<float> scores;
  std::vector<Recommendation> scored;
  int64_t replayed = 0;
  TraceWindow window(true);
  for (const std::vector<RequestRecord>* batch : chosen) {
    PERFBENCH_SPAN("stage.serve_replay");
    batch_users.clear();
    for (const RequestRecord& r : *batch) batch_users.push_back(r.user);
    if (c.num_candidates > 0) {
      PERFBENCH_SPAN("retrieval.candidates");
      candidates = scenerec::RetrieveCandidatesBatch(
          model, *live.index, world.graph, batch_users, c.num_candidates);
    } else {
      candidates.resize(batch_users.size());
      for (size_t i = 0; i < batch_users.size(); ++i) {
        PERFBENCH_SPAN("eval.uninteracted");
        scenerec::UninteractedItems(world.graph, batch_users[i],
                                    &candidates[i]);
      }
    }
    users.clear();
    items.clear();
    for (size_t i = 0; i < batch_users.size(); ++i) {
      users.insert(users.end(), candidates[i].size(), batch_users[i]);
      items.insert(items.end(), candidates[i].begin(), candidates[i].end());
    }
    scores.resize(users.size());
    for (size_t offset = 0; offset < users.size();
         offset += static_cast<size_t>(scenerec::kScoreBlockSize)) {
      const size_t len = std::min(static_cast<size_t>(scenerec::kScoreBlockSize),
                                  users.size() - offset);
      PERFBENCH_SPAN("models.score_rows");
      model.ScoreRows(std::span<const int64_t>(users).subspan(offset, len),
                      std::span<const int64_t>(items).subspan(offset, len),
                      std::span<float>(scores).subspan(offset, len));
    }
    size_t pos = 0;
    for (size_t i = 0; i < batch_users.size(); ++i) {
      scored.clear();
      for (const int64_t item : candidates[i]) {
        scored.push_back({item, scores[pos++]});
      }
      PERFBENCH_SPAN("eval.select");
      scenerec::SelectTopNInPlace(&scored, c.top_n);
    }
    replayed += static_cast<int64_t>(batch_users.size());
  }
  return {exec_ms, replayed};
}

// -- The lifecycle ---------------------------------------------------------------

/// Runs the phases in order. Training is one unmodified TrainAndEvaluate
/// call; between its epochs (in EpochClock's untimed hook) each completed
/// epoch becomes a round of the serving side: snapshot write, publish,
/// full-ranking evaluation of the new version and a slice of the serving
/// window. Every metric's samples are thereby spread over the whole run, so
/// the host's speed drifts of a few seconds average out instead of landing
/// on one phase.
class Lifecycle {
 public:
  Lifecycle(const BenchConfig& c, std::string work_dir)
      : c_(c), work_dir_(std::move(work_dir)) {}

  StatusOr<RunResult> Run();

 private:
  void Add(const std::string& name, double value, const std::string& unit) {
    result_.metrics.push_back({name, value, unit});
  }
  /// Adds a stage's coverage (layer time over stage wall time, in percent)
  /// and counts coverage below kMinCoveragePct as a failed check.
  void AddCoverage(const std::string& stage, double pct) {
    Add(stage + ".coverage_pct", pct, "pct");
    checks_.Expect(pct >= kMinCoveragePct,
                   stage + " layers cover >= 90% of its wall time");
  }
  std::string VersionPath(int64_t version) const {
    return work_dir_ + "/version-" + std::to_string(version) + ".srsnap";
  }
  /// One timed set-up; the first is kept, each round times one more.
  StatusOr<std::unique_ptr<World>> TimedSetUp();
  Status TrainPhase();
  Status Round(int64_t version);
  Status EvalRound(const std::string& path);
  void ServeSlice(int64_t version);
  Status Verify();
  void ReportServing();
  /// Prints a timing metric's in-run samples: count and quartiles.
  void SampleNote(const std::string& name, const std::vector<double>& v,
                  const std::string& unit);
  Status ReportTrainingLayers(const std::vector<EpochClock::Epoch>& epochs);
  void TracedEvalPass();
  void ReportTracedStages(double replay_exec_ms, int64_t replay_requests);

  const BenchConfig& c_;
  const std::string work_dir_;
  Checks checks_;
  RunResult result_;
  std::vector<double> setup_s_;
  std::unique_ptr<World> world_;
  std::unique_ptr<Recommender> model_;  // trained in place

  // Serving side, created by the first round.
  std::unique_ptr<Server> server_;
  std::unique_ptr<Traffic> traffic_;
  Opened live_;
  int64_t versions_ = 0;  // newest snapshot version written
  PublishLog idle_publishes_;
  PublishLog load_publishes_;
  WindowLog window_;
  int64_t next_publish_at_ = 0;  // window requests that trigger the next one
  int64_t drives_ = 0;           // closed-loop phases so far: traffic streams
  Status round_status_ = Status::OK();

  // Evaluation of the newest version (its own open, prepared on the pool).
  std::unique_ptr<scenerec::ThreadPool> eval_pool_;
  std::unique_ptr<Recommender> eval_model_;
  scenerec::RankingMetrics eval_metrics_;
  std::vector<double> eval_ms_;
  double serial_eval_ms_ = 0.0;  // untraced serial pass (traced run)
};

StatusOr<std::unique_ptr<World>> Lifecycle::TimedSetUp() {
  const uint64_t begin = NowNs();
  SCENEREC_ASSIGN_OR_RETURN(std::unique_ptr<World> world,
                            SetUp(c_, work_dir_));
  setup_s_.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  checks_.Expect(!world->split.test.empty(), "set-up produced test users");
  return world;
}

Status Lifecycle::EvalRound(const std::string& path) {
  // A fresh read-only open of the version, so evaluation never shares eval
  // caches with the served copy.
  SCENEREC_ASSIGN_OR_RETURN(
      eval_model_, scenerec::OpenRecommenderFromSnapshot(
                       path, world_->context(), FactoryConfig(c_)));
  eval_model_->OnEvalBegin();
  checks_.Expect(eval_model_->PrepareParallelScoring(*eval_pool_),
                 "model supports parallel scoring");
  const BlockScoreFn scorer = eval_model_->BlockScorer();
  const uint64_t t0 = NowNs();
  eval_metrics_ = scenerec::EvaluateFullRanking(
      scorer, world_->graph, world_->split.test, 10, eval_pool_.get());
  eval_ms_.push_back(Ms(NowNs() - t0));
  checks_.Expect(Finite(eval_metrics_), "full-ranking pass is finite");
  return Status::OK();
}

void Lifecycle::ServeSlice(int64_t version) {
  // Under load, the publisher alternates this round's version with the
  // previous one every publish_every completed requests of the window.
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int64_t> done{window_.completed - window_.failed};
  bool stop = false;  // guarded by mu
  std::thread publisher;
  if (c_.publish_every > 0) {
    publisher = std::thread([&] {
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return stop || done.load() >= next_publish_at_; });
          if (stop) return;
        }
        const bool older = load_publishes_.count % 2 == 0 && version > 1;
        const Status s =
            TimedPublish(c_, *world_, *server_,
                         VersionPath(older ? version - 1 : version),
                         &load_publishes_, &checks_, nullptr);
        if (!s.ok()) {
          round_status_ = s;
          return;
        }
        next_publish_at_ += c_.publish_every;
      }
    });
  }
  // Idle publishes (publish_every 0) split the slice into parts, each
  // opened by one publish, alternating the previous version and this
  // round's, which comes last and stays live. Spread over the slice, they
  // meet the host at as many different moments as there are publishes.
  const int64_t parts =
      c_.publish_every == 0 && version > 1 ? c_.idle_publishes_per_round : 1;
  for (int64_t k = parts - 1; k >= 0 && round_status_.ok(); --k) {
    if (parts > 1) {
      round_status_ =
          TimedPublish(c_, *world_, *server_, VersionPath(version - k % 2),
                       &idle_publishes_, &checks_, &live_);
      if (!round_status_.ok()) break;
    }
    Drive(
        c_, *server_, *traffic_, static_cast<uint64_t>(++drives_),
        c_.seconds / static_cast<double>(c_.epochs * parts), c_.trace,
        [&] {
          // `done` only grows, so every crossing of a multiple is seen.
          const int64_t n = done.fetch_add(1) + 1;
          if (c_.publish_every > 0 && n % c_.publish_every == 0) {
            std::lock_guard<std::mutex> lock(mu);
            cv.notify_one();
          }
        },
        &window_);
  }
  if (publisher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_one();
    publisher.join();
  }
}

Status Lifecycle::Round(int64_t version) {
  const std::string path = VersionPath(version);
  {
    TraceWindow window(c_.trace);
    SCENEREC_RETURN_IF_ERROR(
        WriteVersion(*model_, static_cast<uint64_t>(version), path));
  }
  versions_ = version;
  SCENEREC_RETURN_IF_ERROR(TimedSetUp().status());
  if (server_ == nullptr) {
    scenerec::serve::ServerConfig sc;
    sc.top_n = c_.top_n;
    sc.max_batch = c_.max_batch;
    sc.max_delay_us = c_.max_delay_us;
    sc.queue_capacity = c_.queue_capacity;
    sc.num_candidates = c_.num_candidates;
    if (c_.lazy_warmup) {
      sc.warmup = scenerec::serve::ServerConfig::Warmup::kLazy;
      sc.user_cache_entries = std::max<int64_t>(
          1, static_cast<int64_t>(c_.user_cache_share *
                                  static_cast<double>(world_->num_users())));
    }
    server_ = std::make_unique<Server>(sc, world_->graph);
    traffic_ = std::make_unique<Traffic>(c_, world_->num_users());
    next_publish_at_ = c_.publish_every;
    SCENEREC_ASSIGN_OR_RETURN(live_, OpenVersion(c_, *world_, path, false));
    server_->Publish(live_.model, live_.index);
    server_->Start();
    WindowLog warm;
    Drive(c_, *server_, *traffic_, 0, c_.warmup_seconds, false, [] {},
          &warm);
    checks_.Tally(warm.completed, warm.failed,
                  "warm-up requests served with top_n results");
  }
  SCENEREC_RETURN_IF_ERROR(EvalRound(path));
  ServeSlice(version);
  return round_status_;
}

Status Lifecycle::TrainPhase() {
  SCENEREC_ASSIGN_OR_RETURN(
      model_, scenerec::MakeRecommender(c_.model, world_->context(),
                                        FactoryConfig(c_)));
  // OnEpochBegin runs before every epoch and once after the last (with the
  // best-validation parameters restored): rounds 1..epochs. In the traced
  // run telemetry is on, so the trainer times its own phases.
  EpochClock clock(*model_, c_.trace, [&](int64_t epochs_done) {
    if (epochs_done >= 1 && round_status_.ok()) {
      round_status_ = Round(epochs_done);
    }
  });
  // An error here (e.g. a non-finite loss or validation metric) aborts the
  // run: no result is reported for a diverged model.
  SCENEREC_ASSIGN_OR_RETURN(
      scenerec::TrainResult trained,
      scenerec::TrainAndEvaluate(clock, world_->split, world_->graph,
                                 MakeTrainConfig(c_)));
  SCENEREC_RETURN_IF_ERROR(round_status_);
  if (!Finite(trained.test)) {
    return Status::Internal("non-finite test metrics after training");
  }
  checks_.Tally(c_.epochs,
                c_.epochs - static_cast<int64_t>(clock.epochs().size()),
                "every epoch ran (patience 0)");
  checks_.Expect(versions_ == c_.epochs, "one round per epoch");
  if (c_.trace) return ReportTrainingLayers(clock.epochs());
  // The first epoch (cold caches, first-touch allocation) is excluded.
  std::vector<double> steady;
  for (size_t e = 1; e < clock.epochs().size(); ++e) {
    steady.push_back(clock.epochs()[e].wall_ms);
  }
  Add("epoch_ms", Median(steady), "ms");
  SampleNote("epoch_ms", steady, "ms");
  Add("test_ndcg10", trained.test.ndcg, "ndcg");
  return Status::OK();
}

Status Lifecycle::ReportTrainingLayers(
    const std::vector<EpochClock::Epoch>& epochs) {
  // Layers: the trainer's phase telemetry of the lifecycle's own epochs.
  for (const auto& [metric, histogram] : kTrainPhases) {
    Add(metric, SteadyMedian(epochs, [&](const EpochClock::Epoch& e) {
          return e.phases.at(metric);
        }),
        "ms");
  }
  for (const char* metric :
       {"tensor.flops_per_epoch", "tensor.gemm_calls_per_epoch",
        "tensor.gemv_calls_per_epoch"}) {
    Add(metric, SteadyMedian(epochs, [&](const EpochClock::Epoch& e) {
          return e.phases.at(metric);
        }),
        "count");
  }
  AddCoverage("train_epoch",
              SteadyMedian(epochs,
                           [](const EpochClock::Epoch& e) {
                             double sum = 0.0;
                             for (const auto& [metric, histogram] :
                                  kTrainPhases) {
                               sum += e.phases.at(metric);
                             }
                             return 100.0 * sum / e.wall_ms;
                           }));

  // Overhead: fresh models with the same seeds train traced_epochs epochs
  // with telemetry off, then on, with no rounds in between.
  double wall_ms[2] = {0.0, 0.0};
  for (const bool on : {false, true}) {
    SCENEREC_ASSIGN_OR_RETURN(
        std::unique_ptr<Recommender> fresh,
        scenerec::MakeRecommender(c_.model, world_->context(),
                                  FactoryConfig(c_)));
    EpochClock clock(*fresh, false, nullptr);
    scenerec::TrainConfig config = MakeTrainConfig(c_);
    config.epochs = c_.traced_epochs;
    Telemetry::SetEnabled(on);
    const auto trained = scenerec::TrainAndEvaluate(clock, world_->split,
                                                    world_->graph, config);
    Telemetry::SetEnabled(true);
    SCENEREC_RETURN_IF_ERROR(trained.status());
    wall_ms[on] = SteadyMedian(
        clock.epochs(), [](const EpochClock::Epoch& e) { return e.wall_ms; });
  }
  Add("train_epoch.trace_overhead_pct",
      100.0 * (wall_ms[1] / wall_ms[0] - 1.0), "pct");
  std::error_code ec;
  Add("nn.snapshot_bytes",
      static_cast<double>(
          std::filesystem::file_size(VersionPath(versions_), ec)),
      "bytes");
  return Status::OK();
}

void Lifecycle::TracedEvalPass() {
  // Serial passes on the newest version: one untraced, one inside a trace
  // window with the BlockScoreFn wrapped in a span. The rest of the pass
  // (candidate build, masking, rank counting) is eval.rank_ms.
  const BlockScoreFn scorer = eval_model_->BlockScorer();
  const std::vector<scenerec::EvalInstance>& test = world_->split.test;
  const uint64_t u0 = NowNs();
  const scenerec::RankingMetrics serial =
      scenerec::EvaluateFullRanking(scorer, world_->graph, test, 10, nullptr);
  serial_eval_ms_ = Ms(NowNs() - u0);
  int64_t rows = 0;
  const BlockScoreFn wrapped = [&](int64_t user,
                                   std::span<const int64_t> items,
                                   std::span<float> out) {
    PERFBENCH_SPAN("models.score_block");
    rows += static_cast<int64_t>(items.size());
    scorer(user, items, out);
  };
  scenerec::RankingMetrics traced;
  {
    TraceWindow window(true);
    PERFBENCH_SPAN("stage.eval_pass");
    traced = scenerec::EvaluateFullRanking(wrapped, world_->graph, test, 10,
                                           nullptr);
  }
  checks_.Expect(
      SameMetrics(serial, eval_metrics_) && SameMetrics(traced, eval_metrics_),
      "serial and traced passes equal the 2-thread pass");
  Add("eval.rows_scored", static_cast<double>(rows), "count");
}

Status Lifecycle::Verify() {
  // Fixed sample: evenly spaced user ids, the same on every run; the last
  // two versions, each published and then compared with an independent
  // second open of the same snapshot.
  const int64_t users = world_->num_users();
  const int64_t n = std::min(c_.verify_users, users);
  double overlap_sum = 0.0;
  int64_t overlap_count = 0;
  for (const int64_t version : {versions_ - 1, versions_}) {
    const std::string path = VersionPath(version);
    SCENEREC_ASSIGN_OR_RETURN(live_, OpenVersion(c_, *world_, path, false));
    server_->Publish(live_.model, live_.index);
    SCENEREC_ASSIGN_OR_RETURN(
        std::unique_ptr<Recommender> ref,
        scenerec::OpenRecommenderFromSnapshot(path, world_->context(),
                                              FactoryConfig(c_)));
    ref->OnEvalBegin();
    std::unique_ptr<ItemIndex> ref_index;
    if (c_.num_candidates > 0) {
      SCENEREC_ASSIGN_OR_RETURN(ref_index, MakeIndexBuilder(c_).Build(*ref));
    }
    for (int64_t k = 0; k < n; ++k) {
      const int64_t user = k * users / n;
      std::vector<Recommendation> got;
      const bool ok = server_->TopN(user, &got);
      const std::vector<Recommendation> exact = scenerec::TopNRecommendations(
          ref->BlockScorer(), world_->graph, user, c_.top_n);
      const std::vector<Recommendation> want =
          c_.num_candidates > 0
              ? scenerec::TwoStageTopN(*ref, *ref_index, world_->graph, user,
                                       c_.top_n, c_.num_candidates)
              : exact;
      checks_.Expect(ok && SameRecommendations(got, want),
                     "daemon response for user " + std::to_string(user) +
                         " of version " + std::to_string(version) +
                         " equals the library path");
      int64_t shared = 0;
      for (const Recommendation& g : got) {
        for (const Recommendation& e : exact) shared += g.item == e.item;
      }
      overlap_sum += static_cast<double>(shared) /
                     static_cast<double>(std::max<int64_t>(1, c_.top_n));
      ++overlap_count;
    }
  }
  if (!c_.trace) {
    Add("topn_overlap10",
        overlap_sum / static_cast<double>(std::max<int64_t>(1, overlap_count)),
        "ratio");
  }
  return Status::OK();
}

void Lifecycle::SampleNote(const std::string& name,
                           const std::vector<double>& v,
                           const std::string& unit) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "samples %s (not gated): n=%zu p25=%.4f p50=%.4f p75=%.4f %s",
                name.c_str(), v.size(), Percentile(v, 0.25), Median(v),
                Percentile(v, 0.75), unit.c_str());
  result_.notes.push_back(line);
}

void Lifecycle::ReportServing() {
  const PublishLog& publishes =
      c_.publish_every > 0 ? load_publishes_ : idle_publishes_;
  Add("serve_qps",
      static_cast<double>(window_.completed - window_.failed) /
          window_.elapsed_s,
      "1/s");
  // Gated latency is the mean: two-stage latency has two modes whose
  // weights shift with the host, so the median jumps between them, and the
  // tail follows the shared host's preemptions (README.md, ledger). The
  // percentiles are printed but not gated.
  const std::vector<double>& latency = window_.latency_ms;
  Add("serve_mean_ms",
      std::accumulate(latency.begin(), latency.end(), 0.0) /
          static_cast<double>(std::max<size_t>(1, latency.size())),
      "ms");
  Add("publish_ms", Median(publishes.untraced_ms), "ms");
  SampleNote("publish_ms", publishes.untraced_ms, "ms");
  SampleNote("eval_full_ms", eval_ms_, "ms");
  SampleNote("setup_s", setup_s_, "s");
  char percentiles[160];
  std::snprintf(percentiles, sizeof(percentiles),
                "serve latency (not gated): n=%zu p50=%.4f p90=%.4f "
                "p99=%.4f p99.9=%.4f ms",
                latency.size(), Median(latency), Percentile(latency, 0.90),
                Percentile(latency, 0.99), Percentile(latency, 0.999));
  result_.notes.push_back(percentiles);
}

void Lifecycle::ReportTracedStages(double replay_exec_ms,
                                   int64_t replay_requests) {
  const TraceSnapshot snapshot = Trace::Snapshot();
  const auto stages = StageSamples(snapshot);
  const auto samples = [&](const std::string& stage) {
    const auto it = stages.find(stage);
    return it == stages.end() ? std::vector<StageSample>{} : it->second;
  };

  // Eval pass: one traced serial pass; the scorer is the only layer the
  // benchmark can wrap, the remainder is eval's own work.
  const std::vector<StageSample> eval = samples("eval_pass");
  checks_.Expect(eval.size() == 1, "one traced eval pass");
  if (!eval.empty()) {
    const double score_ms = eval[0].layer("models.score_block");
    Add("models.score_block_ms", score_ms, "ms");
    Add("eval.rank_ms", eval[0].wall_ms - score_ms, "ms");
    AddCoverage("eval_pass", 100.0 * score_ms / eval[0].wall_ms);
    Add("eval_pass.trace_overhead_pct",
        100.0 * (eval[0].wall_ms / serial_eval_ms_ - 1.0), "pct");
  }

  // Serving replay: layer totals per replayed request.
  const std::vector<StageSample> replay = samples("serve_replay");
  checks_.Expect(!replay.empty(), "serving batches replayed");
  double replay_wall = 0.0, covered = 0.0;
  const double per_request =
      1.0 / std::max<double>(1.0, static_cast<double>(replay_requests));
  for (const char* layer : {"eval.uninteracted", "retrieval.candidates",
                            "models.score_rows", "eval.select"}) {
    double ms = 0.0;
    for (const StageSample& s : replay) ms += s.layer(layer);
    covered += ms;
    Add(std::string(layer) + "_ms", ms * per_request, "ms");
  }
  for (const StageSample& s : replay) replay_wall += s.wall_ms;
  AddCoverage("serve_replay", 100.0 * covered / replay_wall);
  Add("serve_replay.trace_overhead_pct",
      100.0 * (replay_wall / replay_exec_ms - 1.0), "pct");

  // Publishes: medians over the traced ones.
  const std::vector<StageSample> publishes = samples("publish");
  checks_.Expect(!publishes.empty(), "traced publishes happened");
  const auto median_of = [&](const std::function<double(const StageSample&)>&
                                 get) {
    std::vector<double> v;
    for (const StageSample& s : publishes) v.push_back(get(s));
    return Median(v);
  };
  constexpr const char* kPublishLayers[] = {
      "nn.snapshot_open", "retrieval.index_build", "serve.publish_call",
      "serve.first_response"};
  for (const char* layer : kPublishLayers) {
    Add(std::string(layer) + "_ms",
        median_of([&](const StageSample& s) { return s.layer(layer); }), "ms");
  }
  AddCoverage("publish", median_of([&](const StageSample& s) {
                double sum = 0.0;
                for (const char* layer : kPublishLayers) sum += s.layer(layer);
                return 100.0 * sum / s.wall_ms;
              }));
  const double publish_wall =
      median_of([](const StageSample& s) { return s.wall_ms; });
  const PublishLog& untraced =
      c_.publish_every > 0 ? load_publishes_ : idle_publishes_;
  Add("publish.trace_overhead_pct",
      100.0 * (publish_wall / Median(untraced.untraced_ms) - 1.0), "pct");

  std::vector<double> writes;
  for (const TraceSpan& s : snapshot.spans) {
    if (s.name == "nn.snapshot_write") writes.push_back(Ms(s.dur_ns));
  }
  Add("nn.snapshot_write_ms", Median(writes), "ms");
}

StatusOr<RunResult> Lifecycle::Run() {
  if (c_.trace) {
    // Spans are recorded only inside trace windows. Autograd-op and kernel
    // spans are not needed for the layers and would crowd the rings.
    scenerec::trace::TraceOptions options;
    options.buffer_capacity = 1 << 15;
    options.op_floor_ns = std::numeric_limits<uint64_t>::max();
    options.kernel_floor_ns = std::numeric_limits<uint64_t>::max();
    Trace::Start(options);
    Trace::SetEnabled(false);
  }
  // The traced run keeps telemetry on throughout: the trainer times its
  // phases, request tickets carry queue-wait/exec timings and the kernel
  // counters count only with it.
  Telemetry::SetEnabled(c_.trace);
  eval_pool_ = std::make_unique<scenerec::ThreadPool>(c_.eval_threads);
  SCENEREC_ASSIGN_OR_RETURN(world_, TimedSetUp());
  SCENEREC_RETURN_IF_ERROR(TrainPhase());
  if (!c_.trace) Add("setup_s", Median(setup_s_), "s");
  const Server::Stats before = server_->stats();
  const ReprCache::Stats cache = server_->user_cache_stats();

  // A final pass on the newest version must repeat its round's bitwise.
  const scenerec::RankingMetrics again = scenerec::EvaluateFullRanking(
      eval_model_->BlockScorer(), world_->graph, world_->split.test, 10,
      eval_pool_.get());
  checks_.Expect(SameMetrics(again, eval_metrics_),
                 "a later full-ranking pass repeats bitwise");
  if (c_.trace) {
    TracedEvalPass();
  } else {
    Add("eval_full_ms", Median(eval_ms_), "ms");
  }

  checks_.Tally(window_.completed, window_.failed,
                "window requests served with top_n results");
  SCENEREC_RETURN_IF_ERROR(Verify());
  server_->Stop();
  checks_.Expect(idle_publishes_.count + load_publishes_.count > 0,
                 "publishes happened");
  if (!c_.trace) {
    ReportServing();
    Add("peak_rss_mb", PeakRssMiB(), "MiB");
  } else {
    // Daemon counters over the whole serving session (warm-up, window,
    // publish probes); the window dominates.
    const double requests = static_cast<double>(before.requests);
    Add("serve.batch_size_mean",
        requests / std::max<double>(1.0, static_cast<double>(before.batches)),
        "requests");
    Add("serve.rows_per_request",
        static_cast<double>(before.rows_scored) / std::max(1.0, requests),
        "rows");
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    Add("common.repr_cache_hit_pct",
        lookups > 0 ? 100.0 * static_cast<double>(cache.hits) / lookups : 0.0,
        "pct");
    // Per-request breakdown the daemon measured itself (RequestTicket).
    std::vector<double> wait_ms, exec_ms;
    for (const RequestRecord& r : window_.requests) {
      wait_ms.push_back(Ms(r.ticket.queue_wait_ns));
      exec_ms.push_back(Ms(r.ticket.exec_ns));
    }
    Add("serve.queue_wait_ms", Median(wait_ms), "ms");
    Add("serve.exec_ms", Median(exec_ms), "ms");
    const auto [replay_exec_ms, replay_requests] =
        ReplayBatches(c_, *world_, live_, window_.requests);
    ReportTracedStages(replay_exec_ms, replay_requests);
  }
  result_.attempted = checks_.attempted();
  result_.failed = checks_.failed();
  return result_;
}

}  // namespace

StatusOr<RunResult> RunLifecycle(const BenchConfig& config,
                                 const std::string& work_dir) {
  Lifecycle lifecycle(config, work_dir);
  return lifecycle.Run();
}

}  // namespace perfbench
