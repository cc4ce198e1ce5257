// Cross-model contract tests for the one scoring virtual (docs/serving.md):
// for every factory model — batching overrides and the autograd default
// alike — ScoreRows must be bitwise equal to the reference
// ScoreForTraining(u, i).scalar() under NoGradGuard, whatever rows share a
// call, and the block-based ranking/serving entry points must reproduce the
// per-pair reference results exactly, serial and parallel. Runs under TSan
// (the parallel block sweep) and ASan+UBSan (span/buffer arithmetic) via
// tools/check.sh.

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/repr_cache.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/top_n.h"
#include "graph/bipartite_graph.h"
#include "models/factory.h"
#include "models/scene_rec.h"
#include "nn/optimizer.h"
#include "nn/snapshot.h"
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

/// How far SceneRec's eval score (eq. (14) with its first layer split,
/// docs/models.md#split-rating) may sit from the grad-mode training forward
/// (the concat form) for one pair with representations `user`, `item`.
///
/// Both forms sum the same 2d + 1 terms of z_k = W_k·[m_u ‖ m_i] + b_k, in
/// different float order, and no term passes more than 2d + 1 roundings in
/// either. A float dot product is within γ_n·S_k of its exact value
/// (γ_n ≈ n·u, u = 2^-24; Higham, "Accuracy and Stability of Numerical
/// Algorithms", §3.1), with S_k = Σ_j |W_kj x_j| + |b_k|, so the two z_k
/// differ by at most 2(2d+1)·u·S_k. All five activations are 1-Lipschitz,
/// so h_k moves at most as much, and |h_k| ≤ S_k + 1 (sigmoid is bounded by
/// 1, the others by |z_k|). The output layer Σ_k w2_k h_k + b2 passes that
/// on as Σ_k |w2_k|·|Δh_k| and adds its own rounding in each form, at most
/// γ_{d+1}·(Σ_k |w2_k h_k| + |b2|) each. With the value scale
/// V = Σ_k |w2_k|·(S_k + 1) + |b2| the sum is at most
///   2(2d+1)·u·V + 2(d+1)·u·V = 2(3d+2)·u·V.
double SplitRatingTolerance(const Mlp& rating, std::span<const float> user,
                            std::span<const float> item) {
  const int64_t d = static_cast<int64_t>(user.size());
  const float* w = rating.layer(0).weight().value().data();  // [d, 2d]
  const float* b = rating.layer(0).bias().value().data();
  const float* w2 = rating.layer(1).weight().value().data();  // [1, d]
  const double b2 = rating.layer(1).bias().value()[0];
  double scale = std::fabs(b2);
  for (int64_t k = 0; k < d; ++k) {
    double s = std::fabs(static_cast<double>(b[k]));
    for (int64_t j = 0; j < d; ++j) {
      s += std::fabs(static_cast<double>(w[k * 2 * d + j]) * user[j]);
      s += std::fabs(static_cast<double>(w[k * 2 * d + d + j]) * item[j]);
    }
    scale += std::fabs(static_cast<double>(w2[k])) * (s + 1.0);
  }
  const double u = std::ldexp(1.0, -24);
  return 2.0 * static_cast<double>(3 * d + 2) * u * scale;
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

  ModelContext Context() const {
    ModelContext context;
    context.user_item = &train_graph_;
    context.scene = &scene_graph_;
    return context;
  }

  static ModelFactoryConfig FactoryConfig() {
    ModelFactoryConfig config;
    config.embedding_dim = 16;
    config.ncf_dim = 8;
    config.max_neighbors = 8;
    return config;
  }

  std::unique_ptr<Recommender> Make(const std::string& name) {
    auto model = MakeRecommender(name, Context(), FactoryConfig());
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

// -- The split eq. (14) ------------------------------------------------------

// Eval scores take eq. (14) with its first layer split; the grad-mode
// training forward keeps the concat form. The two agree within the float
// rounding bound of SplitRatingTolerance, for SceneRec, its three ablations
// and every activation. max_neighbors exceeds every degree, so both modes
// aggregate the same neighbors and only the rating MLP's grouping differs.
TEST_F(ScoringTest, SplitRatingMatchesTrainingForwardWithinRoundingBound) {
  struct Variant {
    const char* name;
    bool use_item_item;
    bool use_scene;
    bool use_attention;
  };
  const Variant variants[] = {{"SceneRec", true, true, true},
                              {"SceneRec-noitem", false, true, true},
                              {"SceneRec-nosce", true, false, true},
                              {"SceneRec-noatt", true, true, false}};
  const Activation activations[] = {Activation::kNone, Activation::kSigmoid,
                                    Activation::kTanh, Activation::kRelu,
                                    Activation::kLeakyRelu};
  const std::vector<int64_t> items = AllItems();
  for (const Variant& variant : variants) {
    for (Activation activation : activations) {
      SCOPED_TRACE(std::string(variant.name) + " " +
                   ActivationName(activation));
      SceneRecConfig config;
      config.embedding_dim = 16;
      config.max_neighbors = int64_t{1} << 20;
      config.use_item_item = variant.use_item_item;
      config.use_scene = variant.use_scene;
      config.use_attention = variant.use_attention;
      config.activation = activation;
      Rng rng(5);
      SceneRec model(&train_graph_, &scene_graph_, config, rng);
      model.OnEvalBegin();
      const RetrievalEmbeddings item_reprs = model.ExportItemEmbeddings();
      std::vector<float> user_repr(static_cast<size_t>(config.embedding_dim));
      std::vector<float> eval(items.size());
      for (int64_t user : {int64_t{0}, int64_t{7}, int64_t{29}}) {
        model.ScoreBlock(user, items, eval);
        model.WriteRetrievalQuery(user, user_repr);
        for (size_t r = 0; r < items.size(); ++r) {
          const float train = model.ScoreForTraining(user, items[r]).scalar();
          const std::span<const float> item_repr(
              item_reprs.items + items[r] * item_reprs.dim,
              static_cast<size_t>(item_reprs.dim));
          ASSERT_NEAR(eval[r], train,
                      SplitRatingTolerance(model.rating_mlp(), user_repr,
                                           item_repr))
              << "user " << user << " item " << items[r];
        }
      }
    }
  }
}

// The split copies W_u, W_i and the item halves P are eval-sweep memos:
// after an optimizer step, OnEvalBegin must drop them, so the stepped
// model scores bitwise like a snapshot of its stepped parameters.
TEST_F(ScoringTest, SplitHalvesAreRebuiltAfterAnOptimizerStep) {
  std::unique_ptr<Recommender> model = Make("SceneRec");
  ASSERT_NE(model, nullptr);
  const std::vector<int64_t> items = AllItems();
  std::vector<float> before(items.size());
  model->OnEvalBegin();
  model->ScoreBlock(3, items, before);  // builds the split copies and P

  std::vector<BprTriple> batch;
  for (int64_t user = 0; user < 10; ++user) {
    const auto history = train_graph_.ItemsOfUser(user);
    ASSERT_FALSE(history.empty());
    batch.push_back({user, history[0], (history[0] + 1) % dataset_.num_items});
  }
  std::vector<Tensor> params;
  model->CollectParameters(&params);
  OptimizerOptions options;
  options.learning_rate = 0.05f;
  SgdOptimizer optimizer(params, options);
  Backward(model->BatchLoss(batch));
  optimizer.Step();

  model->OnEvalBegin();
  std::vector<float> after(items.size());
  model->ScoreBlock(3, items, after);

  const testing::ScopedTempDir temp_dir("scenerec_scoring");
  const std::string path = temp_dir.path() + "/stepped.srsnap";
  ASSERT_TRUE(WriteSnapshot(*model, "SceneRec", /*version=*/1, path).ok());
  auto opened = OpenRecommenderFromSnapshot(path, Context(), FactoryConfig());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Recommender> stepped = std::move(opened).value();
  stepped->OnEvalBegin();
  std::vector<float> want(items.size());
  stepped->ScoreBlock(3, items, want);

  bool moved = false;
  for (size_t r = 0; r < items.size(); ++r) {
    ASSERT_EQ(after[r], want[r]) << "item " << items[r];
    moved = moved || after[r] != before[r];
  }
  EXPECT_TRUE(moved) << "the step changed no score; the test shows nothing";
}

// Item halves filled lazily on first use (serial sweeps) equal, bitwise,
// the ones PrepareParallelScoring's chunked item sweep fills — with user
// representations memoized per sweep or demand-paged through a ReprCache.
TEST_F(ScoringTest, LazyItemHalvesMatchPreparedOnesBitwise) {
  const std::vector<int64_t> items = AllItems();
  std::vector<int64_t> row_users;
  std::vector<int64_t> row_items;
  for (int64_t user : {int64_t{0}, int64_t{7}, int64_t{0}, int64_t{29}}) {
    for (int64_t item : items) {
      row_users.push_back(user);
      row_items.push_back(item);
    }
  }
  ThreadPool pool(4);
  for (bool with_cache : {false, true}) {
    SCOPED_TRACE(with_cache ? "with ReprCache" : "without ReprCache");
    std::unique_ptr<Recommender> model = Make("SceneRec");
    ASSERT_NE(model, nullptr);
    uint64_t version = 0;
    auto begin_sweep = [&] {
      if (with_cache) {
        ReprCache::Options options;
        options.capacity = 8;
        options.dim = model->UserReprDim();
        model->AttachUserReprCache(std::make_shared<ReprCache>(options),
                                   ++version);
      }
      model->OnEvalBegin();
    };
    begin_sweep();
    std::vector<float> lazy(row_users.size());
    model->ScoreRows(row_users, row_items, lazy);

    begin_sweep();
    ASSERT_TRUE(model->PrepareParallelScoring(pool));
    std::vector<float> prepared(row_users.size());
    model->ScoreRows(row_users, row_items, prepared);
    for (size_t r = 0; r < lazy.size(); ++r) {
      ASSERT_EQ(lazy[r], prepared[r])
          << "row " << r << " user " << row_users[r] << " item "
          << row_items[r];
    }
  }
}

}  // namespace
}  // namespace scenerec
