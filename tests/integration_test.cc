// Cross-module integration tests: the full pipeline from data generation
// through serialization, splitting, training, evaluation and inference —
// exercising the same paths as the paper-reproduction benchmarks but at
// unit-test scale.

#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "data/synthetic.h"
#include "data/tsv_io.h"
#include "models/factory.h"
#include "models/scene_rec.h"
#include "train/trainer.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

TEST(IntegrationTest, SaveLoadTrainRoundTrip) {
  // Generate -> save -> load -> the loaded dataset trains identically to
  // the original (graphs and splits are byte-identical).
  SyntheticConfig config;
  config.num_users = 25;
  config.num_items = 120;
  config.num_categories = 10;
  config.num_scenes = 6;
  config.sessions_per_user = 4;
  auto original = GenerateSyntheticDataset(config, 5);
  ASSERT_TRUE(original.ok());

  const testing::ScopedTempDir temp_dir("scenerec_integ");
  ASSERT_TRUE(SaveDatasetTsv(original.value(), temp_dir.path()).ok());
  auto loaded = LoadDatasetTsv(temp_dir.path());
  ASSERT_TRUE(loaded.ok());

  auto run = [](const Dataset& dataset) {
    Rng rng(3);
    auto split = MakeLeaveOneOutSplit(dataset, 30, rng);
    EXPECT_TRUE(split.ok());
    UserItemGraph graph = UserItemGraph::Build(
        dataset.num_users, dataset.num_items, split->train);
    ModelContext context{&graph, nullptr};
    ModelFactoryConfig factory_config;
    factory_config.embedding_dim = 8;
    auto model = MakeRecommender("BPR-MF", context, factory_config);
    EXPECT_TRUE(model.ok());
    TrainConfig train_config;
    train_config.epochs = 2;
    auto result = TrainAndEvaluate(**model, *split, graph, train_config);
    EXPECT_TRUE(result.ok());
    return result->test.ndcg;
  };
  EXPECT_DOUBLE_EQ(run(original.value()), run(loaded.value()));
}

TEST(IntegrationTest, PreparedDatasetPipeline) {
  auto prepared = bench::PrepareJdDataset(JdPreset::kFoodDrink, 0.01, 11);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->dataset.name, "Food & Drink");
  // Train graph excludes exactly the 2 * num_users held-out positives.
  EXPECT_EQ(prepared->train_graph.num_interactions() +
                2 * prepared->dataset.num_users,
            static_cast<int64_t>(prepared->dataset.interactions.size()));
  EXPECT_TRUE(prepared->scene_graph.Validate().ok());
}

TEST(IntegrationTest, RunCellDeterminism) {
  auto prepared = bench::PrepareJdDataset(JdPreset::kElectronics, 0.01, 13);
  ASSERT_TRUE(prepared.ok());
  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = 8;
  factory_config.max_neighbors = 6;
  TrainConfig train_config;
  train_config.epochs = 2;
  auto a = bench::RunCell("SceneRec", *prepared, factory_config, train_config);
  auto b = bench::RunCell("SceneRec", *prepared, factory_config, train_config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->test.ndcg, b->test.ndcg);
  EXPECT_DOUBLE_EQ(a->test.hr, b->test.hr);
}

TEST(IntegrationTest, TunedLearningRateCoversAllModels) {
  for (const std::string& name : Table2ModelNames()) {
    EXPECT_GT(bench::TunedLearningRate(name), 0.0f) << name;
    EXPECT_LE(bench::TunedLearningRate(name), 0.1f) << name;
  }
}

TEST(IntegrationTest, SceneRecBeatsRandomScoringOnCoherentData) {
  // The core end-to-end claim at test scale: on scene-coherent data a
  // briefly trained SceneRec ranks held-out positives far above chance.
  auto prepared = bench::PrepareJdDataset(JdPreset::kElectronics, 0.015, 21);
  ASSERT_TRUE(prepared.ok());
  ModelFactoryConfig factory_config;
  factory_config.embedding_dim = 16;
  factory_config.max_neighbors = 8;
  TrainConfig train_config;
  train_config.epochs = 4;
  train_config.learning_rate = 2e-3f;
  auto cell =
      bench::RunCell("SceneRec", *prepared, factory_config, train_config);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  // Chance HR@10 with 100 negatives is ~0.099; require a clear margin.
  EXPECT_GT(cell->test.hr, 0.2);
  EXPECT_GT(cell->test.ndcg, 0.08);
}

TEST(IntegrationTest, AttentionTracksSceneOverlap) {
  // SceneRec's scene-based attention logit (cosine of summed scene
  // embeddings) must on average be higher for item pairs whose categories
  // share a scene than for pairs with disjoint scene sets — even before
  // training, and the case-study bench relies on it after training.
  auto prepared = bench::PrepareJdDataset(JdPreset::kElectronics, 0.01, 31);
  ASSERT_TRUE(prepared.ok());
  SceneRecConfig config;
  config.embedding_dim = 16;
  Rng rng(7);
  SceneRec model(&prepared->train_graph, &prepared->scene_graph, config, rng);

  // Quick training pass so the embeddings carry signal.
  TrainConfig train_config;
  train_config.epochs = 3;
  train_config.learning_rate = 2e-3f;
  auto result = TrainAndEvaluate(model, prepared->split,
                                 prepared->train_graph, train_config);
  ASSERT_TRUE(result.ok());

  const SceneGraph& scene = prepared->scene_graph;
  auto shares_scene = [&](int64_t a, int64_t b) {
    for (int64_t sa : scene.ScenesOfItem(a)) {
      for (int64_t sb : scene.ScenesOfItem(b)) {
        if (sa == sb) return true;
      }
    }
    return false;
  };

  // Correlate, over (user, candidate) pairs, the fraction of the user's
  // history that shares a scene with the candidate against the model's
  // average attention score. A positive correlation is what Figure 3's
  // case study visualizes.
  std::vector<double> shared_fraction, attention_score;
  model.OnEvalBegin();
  for (int64_t user = 0; user < std::min<int64_t>(
                             20, prepared->dataset.num_users);
       ++user) {
    auto history = prepared->train_graph.ItemsOfUser(user);
    if (history.empty()) continue;
    for (int64_t item = 0; item < prepared->dataset.num_items; item += 11) {
      double shared = 0;
      for (int64_t h : history) shared += shares_scene(item, h);
      shared_fraction.push_back(shared / static_cast<double>(history.size()));
      attention_score.push_back(model.AverageAttentionScore(user, item));
    }
  }
  ASSERT_GT(shared_fraction.size(), 50u);
  // Pearson correlation.
  const double n = static_cast<double>(shared_fraction.size());
  double mean_x = 0, mean_y = 0;
  for (size_t i = 0; i < shared_fraction.size(); ++i) {
    mean_x += shared_fraction[i];
    mean_y += attention_score[i];
  }
  mean_x /= n;
  mean_y /= n;
  double cov = 0, var_x = 0, var_y = 0;
  for (size_t i = 0; i < shared_fraction.size(); ++i) {
    const double dx = shared_fraction[i] - mean_x;
    const double dy = attention_score[i] - mean_y;
    cov += dx * dy;
    var_x += dx * dx;
    var_y += dy * dy;
  }
  ASSERT_GT(var_x, 0.0) << "no variance in scene overlap across candidates";
  ASSERT_GT(var_y, 0.0);
  const double correlation = cov / std::sqrt(var_x * var_y);
  EXPECT_GT(correlation, 0.1)
      << "attention should track scene overlap with the user's history";
}

}  // namespace
}  // namespace scenerec
