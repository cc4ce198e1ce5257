#include "eval/evaluator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "eval/top_n.h"

namespace scenerec {

namespace {

// Evaluator telemetry (docs/observability.md): candidate throughput plus a
// detector for diverged models — any non-finite score marks the whole
// instance NaN, which poisons the aggregate and trips the trainer's
// finite-validation check instead of silently ranking as perfect.
// eval/blocks and eval/block_candidates track the block-scoring fast path:
// their ratio is the realized batch size (docs/serving.md).
const telemetry::Counter t_scored =
    telemetry::RegisterCounter("eval/scored_candidates");
const telemetry::Counter t_instances =
    telemetry::RegisterCounter("eval/instances");
const telemetry::Counter t_nonfinite =
    telemetry::RegisterCounter("eval/nonfinite_scores");
const telemetry::Counter t_blocks = telemetry::RegisterCounter("eval/blocks");
const telemetry::Counter t_block_candidates =
    telemetry::RegisterCounter("eval/block_candidates");

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Per-instance (hr, ndcg, mrr) contributions. Parallel and serial runs
/// both fill an index-addressed table and reduce it in index order, which
/// makes the parallel metrics bitwise identical to the serial ones (the
/// summation order never depends on thread scheduling).
RankingMetrics ReduceInOrder(const std::vector<std::array<double, 3>>& per) {
  RankingMetrics metrics;
  metrics.num_instances = static_cast<int64_t>(per.size());
  double hr_sum = 0.0;
  double ndcg_sum = 0.0;
  double mrr_sum = 0.0;
  for (const auto& m : per) {
    hr_sum += m[0];
    ndcg_sum += m[1];
    mrr_sum += m[2];
  }
  metrics.hr = hr_sum / static_cast<double>(per.size());
  metrics.ndcg = ndcg_sum / static_cast<double>(per.size());
  metrics.mrr = mrr_sum / static_cast<double>(per.size());
  return metrics;
}

/// Runs body(begin, end) over [0, n), chunked with `grain` on the pool when
/// one is supplied (one dispatch per chunk, not per instance — at grain=1
/// the pool's per-chunk bookkeeping dominated small-candidate protocols).
/// The BlockScoreFn must be thread-safe in the parallel case; callers gate
/// on Recommender::PrepareParallelScoring.
void ForEachInstance(ThreadPool* pool, int64_t n, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(n, grain, body);
  } else {
    body(0, n);
  }
}

/// One block-scoring dispatch plus its bookkeeping: scores `items` for
/// `user` into `out` and returns true iff every score came back finite.
bool ScoreBlockChecked(const BlockScoreFn& score, int64_t user,
                       std::span<const int64_t> items, std::span<float> out) {
  SCENEREC_CHECK_EQ(items.size(), out.size());
  if (items.empty()) return true;
  SCENEREC_TRACE_SPAN_F("eval/score_block", "eval", trace::Floor::kOp,
                        "user=%lld candidates=%zu",
                        static_cast<long long>(user), items.size());
  score(user, items, out);
  t_blocks.Add(1);
  t_block_candidates.Add(static_cast<uint64_t>(items.size()));
  bool finite = true;
  for (float s : out) finite = finite && std::isfinite(s);
  return finite;
}

}  // namespace

RankingMetrics EvaluateRanking(const BlockScoreFn& score,
                               const std::vector<EvalInstance>& instances,
                               int64_t k, ThreadPool* pool) {
  SCENEREC_CHECK_GT(k, 0);
  if (instances.empty()) {
    RankingMetrics metrics;
    metrics.num_instances = 0;
    return metrics;
  }

  SCENEREC_TRACE_SPAN_F("eval/ranking", "eval", trace::Floor::kNone,
                        "instances=%zu k=%lld", instances.size(),
                        static_cast<long long>(k));
  std::vector<std::array<double, 3>> per(instances.size());
  // Sampled candidate lists are small (~100), so one instance is little
  // work: chunk several per pool dispatch.
  ForEachInstance(
      pool, static_cast<int64_t>(instances.size()), /*grain=*/8,
      [&](int64_t begin, int64_t end) {
        std::vector<int64_t> candidates;
        std::vector<float> scores;
        for (int64_t idx = begin; idx < end; ++idx) {
          const EvalInstance& instance = instances[static_cast<size_t>(idx)];
          // One block per instance: positive first, then the sampled
          // negatives in instance order.
          candidates.assign(1, instance.positive_item);
          candidates.insert(candidates.end(),
                            instance.negative_items.begin(),
                            instance.negative_items.end());
          scores.resize(candidates.size());
          const bool finite =
              ScoreBlockChecked(score, instance.user, candidates, scores);
          t_instances.Add(1);
          t_scored.Add(static_cast<uint64_t>(candidates.size()));
          if (!finite) {
            t_nonfinite.Add(1);
            per[static_cast<size_t>(idx)] = {kNaN, kNaN, kNaN};
            continue;
          }
          // Same counting as RankOfPositive, off the shared score buffer.
          const float positive_score = scores[0];
          PositiveRank rank;
          for (size_t r = 1; r < scores.size(); ++r) {
            if (scores[r] > positive_score) {
              ++rank.num_above;
            } else if (scores[r] == positive_score) {
              ++rank.num_tied;
            }
          }
          per[static_cast<size_t>(idx)] = {HitRatioAtK(rank, k),
                                           NdcgAtK(rank, k),
                                           ReciprocalRank(rank)};
        }
      });
  return ReduceInOrder(per);
}

RankingMetrics EvaluateFullRanking(const BlockScoreFn& score,
                                   const UserItemGraph& train_graph,
                                   const std::vector<EvalInstance>& instances,
                                   int64_t k, ThreadPool* pool) {
  SCENEREC_CHECK_GT(k, 0);
  if (instances.empty()) {
    RankingMetrics metrics;
    metrics.num_instances = 0;
    return metrics;
  }

  SCENEREC_TRACE_SPAN_F("eval/full_ranking", "eval", trace::Floor::kNone,
                        "instances=%zu k=%lld", instances.size(),
                        static_cast<long long>(k));
  std::vector<std::array<double, 3>> per(instances.size());
  // Each instance scores the whole catalog — plenty of work per index.
  ForEachInstance(
      pool, static_cast<int64_t>(instances.size()), /*grain=*/1,
      [&](int64_t begin, int64_t end) {
        std::vector<int64_t> candidates;
        std::vector<float> scores;
        for (int64_t idx = begin; idx < end; ++idx) {
          const EvalInstance& instance = instances[static_cast<size_t>(idx)];
          // Masking as a candidate-list build step: the positive leads,
          // followed by every item the user has NOT interacted with during
          // training (standard masking; the sampled negatives are ignored).
          UninteractedItems(train_graph, instance.user, &candidates);
          const auto positive =
              std::lower_bound(candidates.begin(), candidates.end(),
                               instance.positive_item);
          if (positive != candidates.end() &&
              *positive == instance.positive_item) {
            std::rotate(candidates.begin(), positive, positive + 1);
          } else {
            candidates.insert(candidates.begin(), instance.positive_item);
          }
          scores.resize(candidates.size());
          // Chunked block scoring; above/tied counting is order-independent
          // integer arithmetic, so the chunk size cannot change the rank.
          bool finite = true;
          for (size_t offset = 0; offset < candidates.size();
               offset += static_cast<size_t>(kScoreBlockSize)) {
            const size_t len =
                std::min(static_cast<size_t>(kScoreBlockSize),
                         candidates.size() - offset);
            finite = ScoreBlockChecked(
                         score, instance.user,
                         std::span<const int64_t>(candidates).subspan(offset,
                                                                      len),
                         std::span<float>(scores).subspan(offset, len)) &&
                     finite;
          }
          t_instances.Add(1);
          t_scored.Add(static_cast<uint64_t>(candidates.size()));
          if (!finite) {
            t_nonfinite.Add(1);
            per[static_cast<size_t>(idx)] = {kNaN, kNaN, kNaN};
            continue;
          }
          const float positive_score = scores[0];
          PositiveRank rank;
          for (size_t r = 1; r < scores.size(); ++r) {
            if (scores[r] > positive_score) {
              ++rank.num_above;
            } else if (scores[r] == positive_score) {
              ++rank.num_tied;
            }
          }
          per[static_cast<size_t>(idx)] = {HitRatioAtK(rank, k),
                                           NdcgAtK(rank, k),
                                           ReciprocalRank(rank)};
        }
      });
  return ReduceInOrder(per);
}

}  // namespace scenerec
