// Cross-model contract tests for the one scoring virtual (docs/serving.md):
// for every factory model — batching overrides and the autograd default
// alike — ScoreRows must be bitwise equal to the reference
// ScoreForTraining(u, i).scalar() under NoGradGuard, whatever rows share a
// call, and the block-based ranking/serving entry points must reproduce the
// per-pair reference results exactly, serial and parallel. Runs under TSan
// (the parallel block sweep) and ASan+UBSan (span/buffer arithmetic) via
// tools/check.sh.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "models/scene_rec.h"
#include "tensor/tensor.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

/// The reference score: the differentiable forward under NoGradGuard.
float ReferenceScore(Recommender& model, int64_t user, int64_t item) {
  NoGradGuard no_grad;
  return model.ScoreForTraining(user, item).scalar();
}

/// The reference as a per-pair block scorer, for the ranking entry points.
BlockScoreFn ReferenceScorer(Recommender& model) {
  return testing::PerPair([&model](int64_t user, int64_t item) {
    return ReferenceScore(model, user, item);
  });
}

/// Every factory-constructible model: the Table 2 grid (including the
/// SceneRec ablation variants) plus the two reference baselines.
std::vector<std::string> AllModelNames() {
  std::vector<std::string> names = Table2ModelNames();
  names.push_back("KGCN");
  names.push_back("GCMC");
  names.push_back("ItemPop");
  names.push_back("ItemRank");
  return names;
}

class ScoringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.name = "scoring-test";
    config.num_users = 30;
    config.num_items = 90;
    config.num_categories = 8;
    config.num_scenes = 5;
    config.sessions_per_user = 4;
    config.session_length = 5;
    auto dataset = GenerateSyntheticDataset(config, 99);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    Rng rng(1);
    auto split = MakeLeaveOneOutSplit(dataset_, /*num_negatives=*/20, rng);
    ASSERT_TRUE(split.ok());
    split_ = std::move(split).value();
    train_graph_ = UserItemGraph::Build(dataset_.num_users, dataset_.num_items,
                                        split_.train);
    scene_graph_ = dataset_.BuildSceneGraph();
  }

  std::unique_ptr<Recommender> Make(const std::string& name) {
    ModelContext context;
    context.user_item = &train_graph_;
    context.scene = &scene_graph_;
    ModelFactoryConfig config;
    config.embedding_dim = 16;
    config.ncf_dim = 8;
    config.max_neighbors = 8;
    auto model = MakeRecommender(name, context, config);
    EXPECT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    return model.ok() ? std::move(model).value() : nullptr;
  }

  std::vector<int64_t> AllItems() const {
    std::vector<int64_t> items(static_cast<size_t>(dataset_.num_items));
    for (size_t i = 0; i < items.size(); ++i) {
      items[i] = static_cast<int64_t>(i);
    }
    return items;
  }

  Dataset dataset_;
  LeaveOneOutSplit split_;
  UserItemGraph train_graph_;
  SceneGraph scene_graph_;
};

// The core contract: ScoreRows over interleaved users (runs A, B, A, then
// alternating single rows) is bitwise equal to the reference per row, for
// every factory model. ScoreRows runs first, on cold eval caches.
TEST_F(ScoringTest, ScoreRowsIsBitwiseEqualToReferenceForAllModels) {
  const std::vector<int64_t> items = AllItems();
  std::vector<int64_t> row_users;
  std::vector<int64_t> row_items;
  for (int64_t user : {int64_t{0}, int64_t{7}, int64_t{0}}) {
    for (int64_t item : items) {
      row_users.push_back(user);
      row_items.push_back(item);
    }
  }
  for (int64_t r = 0; r < 20; ++r) {
    row_users.push_back(r % 2 == 0 ? 29 : 7);
    row_items.push_back((r * 37) % dataset_.num_items);
  }
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    model->ScoreRows(std::span<const int64_t>(), std::span<const int64_t>(),
                     std::span<float>());  // empty spans: a no-op
    std::vector<float> out(row_users.size());
    model->ScoreRows(row_users, row_items, out);
    for (size_t r = 0; r < out.size(); ++r) {
      // ASSERT_EQ, not NEAR: batching must not change numerics.
      ASSERT_EQ(out[r], ReferenceScore(*model, row_users[r], row_items[r]))
          << "row " << r << " user " << row_users[r] << " item "
          << row_items[r];
    }
  }
}

// Batch independence: out[r] of one full-catalog block is bitwise equal to
// the one-row Score, for every factory model.
TEST_F(ScoringTest, ScoreBlockIsBitwiseEqualToPerPairScoreForAllModels) {
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const std::vector<int64_t> items = AllItems();
    std::vector<float> block(items.size());
    for (int64_t user : {int64_t{0}, int64_t{7}, int64_t{29}}) {
      model->ScoreBlock(user, items, block);
      for (size_t r = 0; r < items.size(); ++r) {
        ASSERT_EQ(block[r], model->Score(user, items[r]))
            << "user " << user << " item " << items[r];
      }
    }
  }
}

// Same contract when one-row Score calls run first and fill the lazy eval
// caches the block then reads (the reverse fill order of the test above).
TEST_F(ScoringTest, ScoreBlockMatchesAfterPerPairWarmedCaches) {
  std::unique_ptr<Recommender> model = Make("SceneRec");
  ASSERT_NE(model, nullptr);
  model->OnEvalBegin();
  const std::vector<int64_t> items = AllItems();
  std::vector<float> expected(items.size());
  for (size_t r = 0; r < items.size(); ++r) {
    expected[r] = model->Score(3, items[r]);
  }
  std::vector<float> block(items.size());
  model->ScoreBlock(3, items, block);
  for (size_t r = 0; r < items.size(); ++r) {
    ASSERT_EQ(block[r], expected[r]) << "item " << items[r];
  }
}

// Edge case: an empty candidate block is a no-op for every model.
TEST_F(ScoringTest, EmptyBlockIsNoOp) {
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    model->ScoreBlock(0, std::span<const int64_t>(), std::span<float>());
  }
}

// Full-ranking metrics are bitwise identical between the per-pair reference
// and the block path, for batching models and an autograd-default model.
TEST_F(ScoringTest, FullRankingMetricsIdenticalAcrossPaths) {
  for (const char* name : {"SceneRec", "BPR-MF", "NGCF", "NCF"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const RankingMetrics per_pair = EvaluateFullRanking(
        ReferenceScorer(*model), train_graph_, split_.test, 10, nullptr);
    const RankingMetrics block = EvaluateFullRanking(
        model->BlockScorer(), train_graph_, split_.test, 10, nullptr);
    EXPECT_DOUBLE_EQ(per_pair.hr, block.hr);
    EXPECT_DOUBLE_EQ(per_pair.ndcg, block.ndcg);
    EXPECT_DOUBLE_EQ(per_pair.mrr, block.mrr);
    EXPECT_EQ(per_pair.num_instances, block.num_instances);
  }
}

// Sampled-protocol metrics likewise.
TEST_F(ScoringTest, SampledRankingMetricsIdenticalAcrossPaths) {
  for (const char* name : {"SceneRec-noatt", "KGAT", "ItemRank"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const RankingMetrics per_pair =
        EvaluateRanking(ReferenceScorer(*model), split_.test, 10, nullptr);
    model->OnEvalBegin();
    const RankingMetrics block =
        EvaluateRanking(model->BlockScorer(), split_.test, 10, nullptr);
    EXPECT_DOUBLE_EQ(per_pair.hr, block.hr);
    EXPECT_DOUBLE_EQ(per_pair.ndcg, block.ndcg);
    EXPECT_DOUBLE_EQ(per_pair.mrr, block.mrr);
  }
}

// Parallel block scoring (concurrent ScoreBlock on pool threads, reading
// the caches PrepareParallelScoring filled) reproduces the serial per-pair
// reference metrics bitwise. This is the TSan-critical sweep.
TEST_F(ScoringTest, ParallelBlockFullRankingMatchesSerialPerPair) {
  for (const char* name :
       {"SceneRec", "SceneRec-nosce", "BPR-MF", "GCMC"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    const RankingMetrics serial = EvaluateFullRanking(
        ReferenceScorer(*model), train_graph_, split_.test, 10, nullptr);
    ThreadPool pool(4);
    ASSERT_TRUE(model->PrepareParallelScoring(pool));
    const RankingMetrics parallel = EvaluateFullRanking(
        model->BlockScorer(), train_graph_, split_.test, 10, &pool);
    EXPECT_DOUBLE_EQ(serial.hr, parallel.hr);
    EXPECT_DOUBLE_EQ(serial.ndcg, parallel.ndcg);
    EXPECT_DOUBLE_EQ(serial.mrr, parallel.mrr);
  }
}

// Top-N serving: the block path with partial selection returns the exact
// list of the per-pair reference, for every model.
TEST_F(ScoringTest, TopNIdenticalAcrossPathsForAllModels) {
  for (const std::string& name : AllModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = Make(name);
    ASSERT_NE(model, nullptr);
    model->OnEvalBegin();
    for (int64_t user : {int64_t{0}, int64_t{11}}) {
      const auto per_pair =
          TopNRecommendations(ReferenceScorer(*model), train_graph_, user, 10);
      const auto block =
          TopNRecommendations(model->BlockScorer(), train_graph_, user, 10);
      ASSERT_EQ(per_pair.size(), block.size());
      for (size_t i = 0; i < per_pair.size(); ++i) {
        EXPECT_EQ(per_pair[i].item, block[i].item) << "rank " << i;
        EXPECT_EQ(per_pair[i].score, block[i].score) << "rank " << i;
      }
    }
  }
}

// Masked-to-nothing edge case: when the user has interacted with everything
// except the positive, the full-ranking candidate list is just the positive
// (rank 0, perfect metrics) and Top-N has one candidate.
TEST_F(ScoringTest, FullyMaskedCatalogEdgeCase) {
  std::vector<Interaction> interactions;
  for (int64_t item = 0; item < 5; ++item) {
    if (item != 3) interactions.push_back({0, item});
  }
  UserItemGraph graph = UserItemGraph::Build(1, 5, interactions);
  std::vector<EvalInstance> instances(1);
  instances[0] = {0, 3, {}};
  const BlockScoreFn score = testing::PerPair(
      [](int64_t, int64_t item) { return static_cast<float>(item); });
  const RankingMetrics m = EvaluateFullRanking(score, graph, instances, 10);
  EXPECT_DOUBLE_EQ(m.hr, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);

  const auto recs = TopNRecommendations(score, graph, 0, 10);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].item, 3);
}

}  // namespace
}  // namespace scenerec
