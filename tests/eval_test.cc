#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <utility>

#include <gtest/gtest.h>

#include "eval/evaluator.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "eval/metrics.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

using testing::PerPair;

// -- RankOfPositive ----------------------------------------------------------

TEST(MetricsTest, RankCountsStrictlyGreater) {
  EXPECT_EQ(RankOfPositive(0.9f, {0.1f, 0.2f, 0.3f}).num_above, 0);
  EXPECT_EQ(RankOfPositive(0.25f, {0.1f, 0.2f, 0.3f}).num_above, 1);
  EXPECT_EQ(RankOfPositive(0.0f, {0.1f, 0.2f, 0.3f}).num_above, 3);
  EXPECT_EQ(RankOfPositive(0.25f, {0.1f, 0.2f, 0.3f}).num_tied, 0);
}

TEST(MetricsTest, TiesAreCountedSeparately) {
  const PositiveRank rank = RankOfPositive(0.5f, {0.5f, 0.5f, 0.7f, 0.1f});
  EXPECT_EQ(rank.num_above, 1);
  EXPECT_EQ(rank.num_tied, 2);
  EXPECT_EQ(rank.BestRank(), 1);
  EXPECT_EQ(rank.WorstRank(), 3);
}

TEST(MetricsTest, EmptyNegativesRankZero) {
  const PositiveRank rank = RankOfPositive(0.5f, {});
  EXPECT_EQ(rank.num_above, 0);
  EXPECT_EQ(rank.num_tied, 0);
}

TEST(MetricsTest, TiedMetricsAverageOverRandomTieOrder) {
  // Positive tied with both negatives: rank is uniform over {0, 1, 2}.
  const PositiveRank rank = RankOfPositive(0.5f, {0.5f, 0.5f});
  EXPECT_DOUBLE_EQ(HitRatioAtK(rank, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(HitRatioAtK(rank, 2), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(HitRatioAtK(rank, 3), 1.0);
  EXPECT_DOUBLE_EQ(
      NdcgAtK(rank, 10),
      (1.0 + 1.0 / std::log2(3.0) + 1.0 / std::log2(4.0)) / 3.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank(rank), (1.0 + 0.5 + 1.0 / 3.0) / 3.0);
}

TEST(MetricsTest, TieAwareMetricsReduceToExactWithoutTies) {
  const PositiveRank rank = RankOfPositive(0.5f, {0.9f, 0.8f, 0.1f});
  EXPECT_DOUBLE_EQ(HitRatioAtK(rank, 10), HitRatioAtK(int64_t{2}, 10));
  EXPECT_DOUBLE_EQ(NdcgAtK(rank, 10), NdcgAtK(int64_t{2}, 10));
  EXPECT_DOUBLE_EQ(ReciprocalRank(rank), ReciprocalRank(int64_t{2}));
}

TEST(MetricsTest, TieHitRatioBelowCutoffIsZero) {
  // All tie placements land at rank >= k: no credit at all.
  PositiveRank rank;
  rank.num_above = 5;
  rank.num_tied = 3;
  EXPECT_DOUBLE_EQ(HitRatioAtK(rank, 5), 0.0);
  EXPECT_DOUBLE_EQ(NdcgAtK(rank, 5), 0.0);
}

// -- HR / NDCG ------------------------------------------------------------------

TEST(MetricsTest, HitRatioCutoff) {
  EXPECT_DOUBLE_EQ(HitRatioAtK(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(HitRatioAtK(9, 10), 1.0);
  EXPECT_DOUBLE_EQ(HitRatioAtK(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(HitRatioAtK(100, 10), 0.0);
}

TEST(MetricsTest, NdcgPositionDiscount) {
  EXPECT_DOUBLE_EQ(NdcgAtK(0, 10), 1.0);                     // 1/log2(2)
  EXPECT_DOUBLE_EQ(NdcgAtK(1, 10), 1.0 / std::log2(3.0));
  EXPECT_DOUBLE_EQ(NdcgAtK(9, 10), 1.0 / std::log2(11.0));
  EXPECT_DOUBLE_EQ(NdcgAtK(10, 10), 0.0);
  EXPECT_GT(NdcgAtK(0, 10), NdcgAtK(1, 10));
  EXPECT_GT(NdcgAtK(1, 10), NdcgAtK(9, 10));
}

// -- EvaluateRanking ---------------------------------------------------------------

TEST(EvaluatorTest, PerfectModelScoresOne) {
  // Score = 1 for the positive item, 0 otherwise.
  std::vector<EvalInstance> instances;
  for (int64_t u = 0; u < 5; ++u) {
    EvalInstance inst;
    inst.user = u;
    inst.positive_item = 100 + u;
    for (int64_t n = 0; n < 20; ++n) inst.negative_items.push_back(n);
    instances.push_back(inst);
  }
  auto score = [](int64_t, int64_t item) {
    return item >= 100 ? 1.0f : 0.0f;
  };
  RankingMetrics m = EvaluateRanking(PerPair(score), instances, 10);
  EXPECT_DOUBLE_EQ(m.hr, 1.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 1.0);
  EXPECT_EQ(m.num_instances, 5);
}

TEST(EvaluatorTest, WorstModelScoresZero) {
  std::vector<EvalInstance> instances(1);
  instances[0].user = 0;
  instances[0].positive_item = 999;
  for (int64_t n = 0; n < 30; ++n) instances[0].negative_items.push_back(n);
  auto score = [](int64_t, int64_t item) {
    return item == 999 ? -1.0f : 1.0f;
  };
  RankingMetrics m = EvaluateRanking(PerPair(score), instances, 10);
  EXPECT_DOUBLE_EQ(m.hr, 0.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 0.0);
}

TEST(EvaluatorTest, MidRankGivesPartialCredit) {
  // Exactly 4 negatives outrank the positive -> rank 4 -> hit, discounted.
  std::vector<EvalInstance> instances(1);
  instances[0].user = 0;
  instances[0].positive_item = 50;
  for (int64_t n = 0; n < 10; ++n) instances[0].negative_items.push_back(n);
  auto score = [](int64_t, int64_t item) {
    if (item == 50) return 0.5f;
    return item < 4 ? 1.0f : 0.0f;
  };
  RankingMetrics m = EvaluateRanking(PerPair(score), instances, 10);
  EXPECT_DOUBLE_EQ(m.hr, 1.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 1.0 / std::log2(6.0));
}

TEST(EvaluatorTest, ConstantScorerIsNotPerfect) {
  // A model scoring every item identically must not look perfect: with N
  // tied negatives, HR@k is the chance a random tie order places the
  // positive in the top k, i.e. k / (N + 1).
  std::vector<EvalInstance> instances(1);
  instances[0].user = 0;
  instances[0].positive_item = 100;
  for (int64_t n = 0; n < 19; ++n) instances[0].negative_items.push_back(n);
  auto score = [](int64_t, int64_t) { return 0.5f; };
  RankingMetrics m = EvaluateRanking(PerPair(score), instances, 10);
  EXPECT_DOUBLE_EQ(m.hr, 10.0 / 20.0);
  EXPECT_LT(m.ndcg, 1.0);
  EXPECT_GT(m.ndcg, 0.0);
}

TEST(EvaluatorTest, NonFiniteScoresPoisonMetrics) {
  // A diverged model emitting NaN must not rank as perfect (NaN comparisons
  // are all false, so the positive would count zero negatives above it).
  std::vector<EvalInstance> instances(1);
  instances[0] = {0, 100, {1, 2, 3}};
  auto score = [](int64_t, int64_t item) {
    return item == 100 ? std::numeric_limits<float>::quiet_NaN() : 0.0f;
  };
  RankingMetrics m = EvaluateRanking(PerPair(score), instances, 10);
  EXPECT_TRUE(std::isnan(m.hr));
  EXPECT_TRUE(std::isnan(m.ndcg));
  EXPECT_TRUE(std::isnan(m.mrr));
}

TEST(EvaluatorTest, FullRankingNonFiniteScoresPoisonMetrics) {
  UserItemGraph train = UserItemGraph::Build(1, 6, {{0, 0}});
  std::vector<EvalInstance> instances(1);
  instances[0] = {0, 2, {}};
  auto score = [](int64_t, int64_t item) {
    return item == 4 ? std::numeric_limits<float>::infinity() : 0.5f;
  };
  RankingMetrics m = EvaluateFullRanking(PerPair(score), train, instances, 2);
  EXPECT_TRUE(std::isnan(m.ndcg));
}

TEST(EvaluatorTest, FullRankingGivesTiedItemsExpectedCredit) {
  // 1 user, 4 items, no training interactions beyond item 0. Items 1..3 all
  // tie with the positive (item 2): rank uniform over {0, 1, 2}.
  UserItemGraph train = UserItemGraph::Build(1, 4, {{0, 0}});
  std::vector<EvalInstance> instances(1);
  instances[0] = {0, 2, {}};
  auto score = [](int64_t, int64_t) { return 1.0f; };
  RankingMetrics m = EvaluateFullRanking(PerPair(score), train, instances, 1);
  EXPECT_DOUBLE_EQ(m.hr, 1.0 / 3.0);
}

TEST(EvaluatorTest, EmptyInstances) {
  RankingMetrics m =
      EvaluateRanking(PerPair([](int64_t, int64_t) { return 0.0f; }), {}, 10);
  EXPECT_EQ(m.num_instances, 0);
  EXPECT_DOUBLE_EQ(m.hr, 0.0);
}

TEST(MetricsTest, ReciprocalRank) {
  EXPECT_DOUBLE_EQ(ReciprocalRank(0), 1.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank(1), 0.5);
  EXPECT_DOUBLE_EQ(ReciprocalRank(9), 0.1);
}

TEST(EvaluatorTest, MrrReported) {
  std::vector<EvalInstance> instances(1);
  instances[0] = {0, 50, {1, 2, 3}};
  // Two negatives outrank the positive -> rank 2 -> MRR 1/3.
  auto score = [](int64_t, int64_t item) {
    if (item == 50) return 0.5f;
    return item <= 2 ? 1.0f : 0.0f;
  };
  RankingMetrics m = EvaluateRanking(PerPair(score), instances, 10);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0 / 3.0);
}

TEST(EvaluatorTest, FullRankingMasksTrainingItems) {
  // 1 user, 6 items. Training items: {0, 1}. Held-out positive: 2.
  UserItemGraph train = UserItemGraph::Build(1, 6, {{0, 0}, {0, 1}});
  std::vector<EvalInstance> instances(1);
  instances[0] = {0, 2, {}};  // negatives ignored by the full protocol
  // Scores: training items highest (would outrank if not masked), then item
  // 3, then the positive, then 4, 5.
  auto score = [](int64_t, int64_t item) {
    switch (item) {
      case 0:
      case 1:
        return 10.0f;
      case 3:
        return 5.0f;
      case 2:
        return 4.0f;
      default:
        return 1.0f;
    }
  };
  RankingMetrics m = EvaluateFullRanking(PerPair(score), train, instances, 2);
  // Only item 3 outranks the positive among non-train candidates -> rank 1.
  EXPECT_DOUBLE_EQ(m.hr, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 0.5);
  EXPECT_DOUBLE_EQ(m.ndcg, 1.0 / std::log2(3.0));
}

TEST(EvaluatorTest, FullRankingHarderThanSampled) {
  // With many strong distractors outside the 100-negative sample, the full
  // protocol must report a lower-or-equal HR than the sampled one.
  UserItemGraph train = UserItemGraph::Build(1, 200, {{0, 0}});
  std::vector<EvalInstance> instances(1);
  EvalInstance& inst = instances[0];
  inst.user = 0;
  inst.positive_item = 199;
  for (int64_t i = 1; i <= 20; ++i) inst.negative_items.push_back(i);
  // Items 100..198 all outrank the positive but are not in the sample.
  auto score = [](int64_t, int64_t item) {
    if (item == 199) return 50.0f;
    return item >= 100 ? 100.0f : 0.0f;
  };
  RankingMetrics sampled = EvaluateRanking(PerPair(score), instances, 10);
  RankingMetrics full =
      EvaluateFullRanking(PerPair(score), train, instances, 10);
  EXPECT_DOUBLE_EQ(sampled.hr, 1.0);
  EXPECT_DOUBLE_EQ(full.hr, 0.0);  // rank 99
  EXPECT_LE(full.hr, sampled.hr);
}

TEST(EvaluatorTest, AveragesAcrossInstances) {
  // One hit at rank 0, one miss.
  std::vector<EvalInstance> instances(2);
  instances[0] = {0, 100, {1, 2}};
  instances[1] = {1, 200, {1, 2}};
  auto score = [](int64_t, int64_t item) {
    if (item == 100) return 2.0f;  // top
    if (item == 200) return -2.0f;  // below all negatives
    return 0.0f;
  };
  RankingMetrics m = EvaluateRanking(PerPair(score), instances, 1);
  EXPECT_DOUBLE_EQ(m.hr, 0.5);
  EXPECT_DOUBLE_EQ(m.ndcg, 0.5);
}

// -- TopNRecommendations -------------------------------------------------------

TEST(TopNTest, ExcludesTrainingItemsAndSortsByScore) {
  UserItemGraph train = UserItemGraph::Build(1, 6, {{0, 0}, {0, 5}});
  auto score = [](int64_t, int64_t item) {
    return static_cast<float>(item);  // higher id = higher score
  };
  auto recs = TopNRecommendations(PerPair(score), train, 0, 3);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].item, 4);  // 5 excluded (training item)
  EXPECT_EQ(recs[1].item, 3);
  EXPECT_EQ(recs[2].item, 2);
  EXPECT_FLOAT_EQ(recs[0].score, 4.0f);
}

TEST(TopNTest, TiesBrokenByLowerItemId) {
  UserItemGraph train = UserItemGraph::Build(1, 5, {{0, 0}});
  auto score = [](int64_t, int64_t) { return 1.0f; };
  auto recs = TopNRecommendations(PerPair(score), train, 0, 2);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].item, 1);
  EXPECT_EQ(recs[1].item, 2);
}

TEST(TopNTest, FewerCandidatesThanN) {
  UserItemGraph train =
      UserItemGraph::Build(1, 3, {{0, 0}, {0, 1}});
  auto score = [](int64_t, int64_t) { return 0.0f; };
  auto recs = TopNRecommendations(PerPair(score), train, 0, 10);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].item, 2);
}

// -- Block-scoring path --------------------------------------------------------

/// Deterministic per-pair scorer shared by the block-path tests.
float HashScore(int64_t user, int64_t item) {
  return static_cast<float>(((user * 31 + item) * 2654435761u) % 1000) -
         500.0f;
}

TEST(EvaluatorTest, BlockScoreFnMatchesPerPairAdapters) {
  std::vector<EvalInstance> instances(3);
  instances[0] = {0, 7, {1, 2, 3}};
  instances[1] = {1, 9, {4, 5, 6}};
  instances[2] = {2, 11, {1, 5, 9}};
  // Reference: rank each positive pair by pair with RankOfPositive and
  // average the per-instance metrics.
  double hr = 0.0, ndcg = 0.0, mrr = 0.0;
  for (const EvalInstance& instance : instances) {
    std::vector<float> negatives;
    for (int64_t item : instance.negative_items) {
      negatives.push_back(HashScore(instance.user, item));
    }
    const PositiveRank rank = RankOfPositive(
        HashScore(instance.user, instance.positive_item), negatives);
    hr += HitRatioAtK(rank, 2);
    ndcg += NdcgAtK(rank, 2);
    mrr += ReciprocalRank(rank);
  }
  RankingMetrics blocked = EvaluateRanking(PerPair(HashScore), instances, 2);
  EXPECT_DOUBLE_EQ(hr / 3.0, blocked.hr);
  EXPECT_DOUBLE_EQ(ndcg / 3.0, blocked.ndcg);
  EXPECT_DOUBLE_EQ(mrr / 3.0, blocked.mrr);
}

TEST(EvaluatorTest, FullRankingChunksBlocksAtScoreBlockSize) {
  // Catalog larger than two chunks: every dispatched block must respect
  // kScoreBlockSize, and chunking must not change the metrics.
  const int64_t num_items = 2 * kScoreBlockSize + 357;
  UserItemGraph train = UserItemGraph::Build(1, num_items, {{0, 0}});
  std::vector<EvalInstance> instances(1);
  instances[0] = {0, 42, {}};
  size_t max_block = 0;
  int64_t scored = 0;
  BlockScoreFn block = [&](int64_t user, std::span<const int64_t> items,
                           std::span<float> out) {
    max_block = std::max(max_block, items.size());
    scored += static_cast<int64_t>(items.size());
    for (size_t r = 0; r < items.size(); ++r) {
      out[r] = HashScore(user, items[r]);
    }
  };
  RankingMetrics blocked = EvaluateFullRanking(block, train, instances, 10);
  EXPECT_LE(max_block, static_cast<size_t>(kScoreBlockSize));
  EXPECT_EQ(scored, num_items - 1);  // full catalog minus the masked item 0
  // Reference: the positive ranked against the whole unmasked catalog in
  // one piece.
  std::vector<float> others;
  for (int64_t item = 1; item < num_items; ++item) {
    if (item != 42) others.push_back(HashScore(0, item));
  }
  const PositiveRank rank = RankOfPositive(HashScore(0, 42), others);
  EXPECT_DOUBLE_EQ(HitRatioAtK(rank, 10), blocked.hr);
  EXPECT_DOUBLE_EQ(NdcgAtK(rank, 10), blocked.ndcg);
  EXPECT_DOUBLE_EQ(ReciprocalRank(rank), blocked.mrr);
}

TEST(TopNTest, PartialSelectionMatchesFullSortWithTies) {
  // Catalog wider than a block, scores drawn from a tiny value set so the
  // nth_element pivot region is full of ties; the partial selection must
  // still return exactly the full-sort prefix (score desc, lower id first).
  const int64_t num_items = kScoreBlockSize + 123;
  UserItemGraph train = UserItemGraph::Build(1, num_items, {{0, 3}});
  auto score = [](int64_t, int64_t item) {
    return static_cast<float>(item % 7);
  };
  auto recs = TopNRecommendations(PerPair(score), train, 0, 25);

  std::vector<std::pair<float, int64_t>> expected;
  for (int64_t i = 0; i < num_items; ++i) {
    if (i == 3) continue;
    expected.push_back({score(0, i), i});
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  ASSERT_EQ(recs.size(), 25u);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].item, expected[i].second) << "rank " << i;
    EXPECT_EQ(recs[i].score, expected[i].first) << "rank " << i;
  }
}

// -- Candidate-span overload (the shared two-stage selection routine) ----------

TEST(TopNTest, CandidateSpanOverloadMatchesGraphPath) {
  // Unmasked full catalog through the span overload equals the graph
  // overload for a user with no training interactions to mask.
  UserItemGraph train = UserItemGraph::Build(2, 40, {{1, 0}});
  BlockScoreFn block = PerPair(HashScore);
  std::vector<int64_t> all(40);
  for (int64_t i = 0; i < 40; ++i) all[i] = i;
  const auto want = TopNRecommendations(block, train, 0, 7);
  const auto got = TopNRecommendations(block, 0, all, 7);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

TEST(TopNTest, CandidateSpanOverloadSelectsOnlyFromCandidates) {
  BlockScoreFn block =
      PerPair([](int64_t, int64_t item) { return static_cast<float>(item); });
  const std::vector<int64_t> candidates = {9, 2, 14, 5};
  const auto recs = TopNRecommendations(block, 0, candidates, 3);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].item, 14);
  EXPECT_EQ(recs[1].item, 9);
  EXPECT_EQ(recs[2].item, 5);
}

TEST(TopNTest, CandidateSpanOverloadEdgeCases) {
  BlockScoreFn block = PerPair([](int64_t, int64_t) { return 1.0f; });
  // Empty candidate span -> empty result.
  EXPECT_TRUE(
      TopNRecommendations(block, 0, std::span<const int64_t>(), 5).empty());
  // Fewer candidates than n -> all of them, ties by lower id.
  const std::vector<int64_t> two = {8, 4};
  const auto recs = TopNRecommendations(block, 0, two, 5);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].item, 4);
  EXPECT_EQ(recs[1].item, 8);
}

// Candidate spans wider than one scoring block are chunked exactly like
// the full-catalog path.
TEST(TopNTest, CandidateSpanOverloadChunksAtScoreBlockSize) {
  const int64_t num_candidates = kScoreBlockSize + 77;
  std::vector<int64_t> candidates(static_cast<size_t>(num_candidates));
  for (int64_t i = 0; i < num_candidates; ++i) candidates[i] = i;
  size_t max_block = 0;
  BlockScoreFn block = [&](int64_t user, std::span<const int64_t> items,
                           std::span<float> out) {
    max_block = std::max(max_block, items.size());
    for (size_t r = 0; r < items.size(); ++r) {
      out[r] = HashScore(user, items[r]);
    }
  };
  const auto recs = TopNRecommendations(block, 1, candidates, 20);
  EXPECT_LE(max_block, static_cast<size_t>(kScoreBlockSize));
  ASSERT_EQ(recs.size(), 20u);
  for (size_t i = 1; i < recs.size(); ++i) {
    ASSERT_TRUE(recs[i - 1].score > recs[i].score ||
                (recs[i - 1].score == recs[i].score &&
                 recs[i - 1].item < recs[i].item));
  }
}

// Regression: retrieval backends can hand back the same item from several
// probe lists. A duplicated candidate must be scored once and occupy at
// most one rank -- previously the duplicate crowded a distinct item out of
// the Top-N.
TEST(TopNTest, CandidateSpanOverloadDedupesRepeatedCandidates) {
  std::map<int64_t, int> times_scored;
  BlockScoreFn block = [&](int64_t, std::span<const int64_t> items,
                           std::span<float> out) {
    for (size_t r = 0; r < items.size(); ++r) {
      ++times_scored[items[r]];
      out[r] = static_cast<float>(items[r]);
    }
  };
  // 14 (the top item) and 9 appear multiple times; 2 and 5 once each.
  const std::vector<int64_t> with_dups = {14, 9, 2, 14, 9, 5, 14};
  const auto got = TopNRecommendations(block, 0, with_dups, 3);
  for (const auto& [item, count] : times_scored) {
    EXPECT_EQ(count, 1) << "item " << item << " scored more than once";
  }
  // The duplicate of 14 must not shadow rank 2's distinct item.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].item, 14);
  EXPECT_EQ(got[1].item, 9);
  EXPECT_EQ(got[2].item, 5);
  // And the result is identical to passing the deduplicated span directly.
  const std::vector<int64_t> unique = {14, 9, 2, 5};
  const auto want = TopNRecommendations(block, 0, unique, 3);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

// All-duplicate span collapses to a single recommendation, and n <= 0
// yields an empty list without invoking the scorer.
TEST(TopNTest, CandidateSpanOverloadDegenerateDupAndZeroN) {
  int calls = 0;
  BlockScoreFn block = [&](int64_t, std::span<const int64_t> items,
                           std::span<float> out) {
    ++calls;
    for (size_t r = 0; r < items.size(); ++r) out[r] = 1.0f;
  };
  const std::vector<int64_t> same = {7, 7, 7, 7};
  const auto recs = TopNRecommendations(block, 0, same, 3);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].item, 7);
  calls = 0;
  EXPECT_TRUE(TopNRecommendations(block, 0, same, 0).empty());
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace scenerec
