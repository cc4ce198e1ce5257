#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/sampler.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tsv_io.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

SyntheticConfig SmallConfig() {
  SyntheticConfig config;
  config.name = "unit";
  config.num_users = 30;
  config.num_items = 200;
  config.num_categories = 12;
  config.num_scenes = 8;
  config.sessions_per_user = 5;
  config.session_length = 6;
  return config;
}

// -- Synthetic generator ------------------------------------------------------

TEST(SyntheticTest, GeneratesValidDataset) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& d = result.value();
  EXPECT_EQ(d.num_users, 30);
  EXPECT_EQ(d.num_items, 200);
  EXPECT_TRUE(d.Validate().ok());
  EXPECT_GT(d.interactions.size(), 0u);
  EXPECT_GT(d.item_item_edges.size(), 0u);
  EXPECT_GT(d.category_scene_edges.size(), 0u);
}

TEST(SyntheticTest, DeterministicForSameSeed) {
  auto a = GenerateSyntheticDataset(SmallConfig(), 7);
  auto b = GenerateSyntheticDataset(SmallConfig(), 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().interactions, b.value().interactions);
  EXPECT_EQ(a.value().item_category, b.value().item_category);
  EXPECT_EQ(a.value().item_item_edges.size(),
            b.value().item_item_edges.size());
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  auto a = GenerateSyntheticDataset(SmallConfig(), 1);
  auto b = GenerateSyntheticDataset(SmallConfig(), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().interactions, b.value().interactions);
}

TEST(SyntheticTest, EveryUserHasMinimumInteractions) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 3);
  ASSERT_TRUE(result.ok());
  std::vector<int64_t> counts(30, 0);
  for (const Interaction& x : result.value().interactions) {
    counts[static_cast<size_t>(x.user)]++;
  }
  for (int64_t c : counts) EXPECT_GE(c, 5);
}

TEST(SyntheticTest, SceneCoherenceSignalPresent) {
  // Items clicked by a user should concentrate in that user's active scenes:
  // the fraction of a user's clicks whose category shares a scene with the
  // category of another of the user's clicks must be far above random.
  auto result = GenerateSyntheticDataset(SmallConfig(), 11);
  ASSERT_TRUE(result.ok());
  const Dataset& d = result.value();
  SceneGraph scene = d.BuildSceneGraph();

  auto scenes_of_item = [&](int64_t item) {
    auto span = scene.ScenesOfItem(item);
    return std::set<int64_t>(span.begin(), span.end());
  };

  std::vector<std::vector<int64_t>> by_user(static_cast<size_t>(d.num_users));
  for (const Interaction& x : d.interactions) {
    by_user[static_cast<size_t>(x.user)].push_back(x.item);
  }
  double coherent = 0, total = 0;
  for (const auto& items : by_user) {
    for (size_t a = 0; a + 1 < items.size() && a < 10; ++a) {
      auto sa = scenes_of_item(items[a]);
      auto sb = scenes_of_item(items[a + 1]);
      bool shares = false;
      for (int64_t s : sa) {
        if (sb.count(s)) {
          shares = true;
          break;
        }
      }
      coherent += shares;
      total += 1;
    }
  }
  ASSERT_GT(total, 0);
  // With 8 scenes and 2-4 active per user, random pairs share scenes far
  // less often than scene-coherent sessions produce.
  EXPECT_GT(coherent / total, 0.35);
}

TEST(SyntheticTest, ConfigValidationCatchesBadRanges) {
  SyntheticConfig config = SmallConfig();
  config.max_categories_per_scene = 100;  // > num_categories
  EXPECT_FALSE(GenerateSyntheticDataset(config, 1).ok());
  config = SmallConfig();
  config.in_scene_prob = 1.5;
  EXPECT_FALSE(GenerateSyntheticDataset(config, 1).ok());
  config = SmallConfig();
  config.min_interactions_per_user = 2;
  EXPECT_FALSE(GenerateSyntheticDataset(config, 1).ok());
  config = SmallConfig();
  config.session_length = 1;
  EXPECT_FALSE(GenerateSyntheticDataset(config, 1).ok());
}

TEST(SyntheticTest, JdPresetsShapeFollowsTable1) {
  // At scale 1.0 the presets match the paper's entity counts exactly.
  SyntheticConfig full = MakeJdConfig(JdPreset::kBabyToy, 1.0);
  EXPECT_EQ(full.num_users, 4521);
  EXPECT_EQ(full.num_items, 51759);
  EXPECT_EQ(full.num_categories, 103);
  EXPECT_EQ(full.num_scenes, 323);

  SyntheticConfig electronics = MakeJdConfig(JdPreset::kElectronics, 1.0);
  EXPECT_EQ(electronics.num_scenes, 54);
  SyntheticConfig fashion = MakeJdConfig(JdPreset::kFashion, 1.0);
  EXPECT_EQ(fashion.num_scenes, 438);

  // Scaling shrinks users/items but keeps taxonomy sizes.
  SyntheticConfig small = MakeJdConfig(JdPreset::kBabyToy, 0.02);
  EXPECT_LT(small.num_users, 100);
  EXPECT_EQ(small.num_categories, 103);
  EXPECT_EQ(small.num_scenes, 323);
  EXPECT_EQ(JdPresetName(JdPreset::kFoodDrink), std::string("Food & Drink"));
  EXPECT_EQ(AllJdPresets().size(), 4u);
}

TEST(SyntheticTest, GeneratedPresetIsTrainableScale) {
  auto result =
      GenerateSyntheticDataset(MakeJdConfig(JdPreset::kElectronics, 0.01), 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& d = result.value();
  EXPECT_TRUE(d.Validate().ok());
  EXPECT_EQ(d.name, "Electronics");
  EXPECT_GE(d.num_users, 38);
  EXPECT_GE(d.num_items, 400);
}

// -- Dataset validation -------------------------------------------------------

TEST(DatasetTest, ValidateCatchesBadCategory) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 1);
  ASSERT_TRUE(result.ok());
  Dataset d = std::move(result).value();
  d.item_category[0] = 99;  // out of range
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesDuplicateInteraction) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 1);
  ASSERT_TRUE(result.ok());
  Dataset d = std::move(result).value();
  d.interactions.push_back(d.interactions.front());
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesEmptyScene) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 1);
  ASSERT_TRUE(result.ok());
  Dataset d = std::move(result).value();
  d.num_scenes += 1;  // new scene with no categories
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, GraphsAreConsistent) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 9);
  ASSERT_TRUE(result.ok());
  const Dataset& d = result.value();
  UserItemGraph ui = d.BuildUserItemGraph();
  SceneGraph scene = d.BuildSceneGraph();
  EXPECT_EQ(ui.num_interactions(),
            static_cast<int64_t>(d.interactions.size()));
  EXPECT_TRUE(scene.Validate().ok());
  DatasetStats stats = d.Stats();
  EXPECT_EQ(stats.num_users, d.num_users);
  EXPECT_EQ(stats.item_category_edges, d.num_items);
}

// -- Leave-one-out split --------------------------------------------------------

TEST(SplitTest, PartitionsInteractions) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 13);
  ASSERT_TRUE(result.ok());
  const Dataset& d = result.value();
  Rng rng(1);
  auto split_or = MakeLeaveOneOutSplit(d, 50, rng);
  ASSERT_TRUE(split_or.ok()) << split_or.status().ToString();
  const LeaveOneOutSplit& split = split_or.value();

  EXPECT_EQ(split.validation.size(), static_cast<size_t>(d.num_users));
  EXPECT_EQ(split.test.size(), static_cast<size_t>(d.num_users));
  EXPECT_EQ(split.train.size() + 2 * static_cast<size_t>(d.num_users),
            d.interactions.size());

  // Held-out positives are not in train for the same user.
  std::set<std::pair<int64_t, int64_t>> train_set;
  for (const Interaction& x : split.train) {
    train_set.insert({x.user, x.item});
  }
  for (size_t u = 0; u < split.validation.size(); ++u) {
    const auto& v = split.validation[u];
    const auto& t = split.test[u];
    EXPECT_EQ(v.user, static_cast<int64_t>(u));
    EXPECT_EQ(train_set.count({v.user, v.positive_item}), 0u);
    EXPECT_EQ(train_set.count({t.user, t.positive_item}), 0u);
    EXPECT_NE(v.positive_item, t.positive_item);
  }
}

TEST(SplitTest, NegativesAreUnobservedAndDistinct) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 17);
  ASSERT_TRUE(result.ok());
  const Dataset& d = result.value();
  std::set<std::pair<int64_t, int64_t>> observed;
  for (const Interaction& x : d.interactions) {
    observed.insert({x.user, x.item});
  }
  Rng rng(2);
  auto split_or = MakeLeaveOneOutSplit(d, 100, rng);
  ASSERT_TRUE(split_or.ok());
  for (const EvalInstance& inst : split_or.value().test) {
    EXPECT_EQ(inst.negative_items.size(), 100u);
    std::set<int64_t> unique(inst.negative_items.begin(),
                             inst.negative_items.end());
    EXPECT_EQ(unique.size(), 100u);
    for (int64_t item : inst.negative_items) {
      EXPECT_EQ(observed.count({inst.user, item}), 0u)
          << "user " << inst.user << " item " << item;
    }
  }
}

TEST(SplitTest, RejectsTooManyNegatives) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 19);
  ASSERT_TRUE(result.ok());
  Rng rng(3);
  EXPECT_FALSE(MakeLeaveOneOutSplit(result.value(), 200, rng).ok());
  EXPECT_FALSE(MakeLeaveOneOutSplit(result.value(), 0, rng).ok());
}

TEST(SplitTest, RejectsUsersWithTooFewInteractions) {
  Dataset d;
  d.name = "tiny";
  d.num_users = 1;
  d.num_items = 10;
  d.num_categories = 1;
  d.num_scenes = 1;
  d.interactions = {{0, 0}, {0, 1}};  // only 2
  d.item_category.assign(10, 0);
  d.category_scene_edges = {{0, 0, 1.0f}};
  ASSERT_TRUE(d.Validate().ok());
  Rng rng(4);
  EXPECT_FALSE(MakeLeaveOneOutSplit(d, 5, rng).ok());
}

// -- Negative sampler / batcher ---------------------------------------------------

TEST(SamplerTest, NegativesNeverObserved) {
  UserItemGraph g = UserItemGraph::Build(2, 10, {{0, 1}, {0, 3}, {1, 2}});
  NegativeSampler sampler(g);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    int64_t neg = sampler.SampleNegative(0, rng);
    EXPECT_NE(neg, 1);
    EXPECT_NE(neg, 3);
    EXPECT_GE(neg, 0);
    EXPECT_LT(neg, 10);
  }
}

TEST(SamplerTest, EpochCoversAllTrainInteractions) {
  std::vector<Interaction> train{{0, 1}, {0, 3}, {1, 2}};
  UserItemGraph g = UserItemGraph::Build(2, 10, train);
  BprBatcher batcher(train, g);
  Rng rng(6);
  auto triples = batcher.NextEpoch(rng);
  ASSERT_EQ(triples.size(), 3u);
  std::set<std::pair<int64_t, int64_t>> seen;
  for (const BprTriple& t : triples) {
    seen.insert({t.user, t.positive_item});
    EXPECT_FALSE(g.HasInteraction(t.user, t.negative_item));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(SamplerTest, EpochsAreShuffledDifferently) {
  std::vector<Interaction> train;
  for (int64_t i = 0; i < 50; ++i) train.push_back({0, i});
  UserItemGraph g = UserItemGraph::Build(1, 100, train);
  BprBatcher batcher(train, g);
  Rng rng(7);
  auto epoch1 = batcher.NextEpoch(rng);
  auto epoch2 = batcher.NextEpoch(rng);
  bool any_different = false;
  for (size_t i = 0; i < epoch1.size(); ++i) {
    if (epoch1[i].positive_item != epoch2[i].positive_item) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

// -- TSV round trip ---------------------------------------------------------------

TEST(TsvIoTest, RoundTripPreservesDataset) {
  auto result = GenerateSyntheticDataset(SmallConfig(), 23);
  ASSERT_TRUE(result.ok());
  const Dataset& original = result.value();

  const testing::ScopedTempDir temp_dir("scenerec_tsv");
  const std::string& dir = temp_dir.path();

  ASSERT_TRUE(SaveDatasetTsv(original, dir).ok());
  auto loaded_or = LoadDatasetTsv(dir);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const Dataset& loaded = loaded_or.value();

  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.num_users, original.num_users);
  EXPECT_EQ(loaded.num_items, original.num_items);
  EXPECT_EQ(loaded.num_categories, original.num_categories);
  EXPECT_EQ(loaded.num_scenes, original.num_scenes);
  EXPECT_EQ(loaded.interactions, original.interactions);
  EXPECT_EQ(loaded.item_category, original.item_category);
  EXPECT_EQ(loaded.item_item_edges.size(), original.item_item_edges.size());
  EXPECT_EQ(loaded.category_category_edges.size(),
            original.category_category_edges.size());
  EXPECT_EQ(loaded.category_scene_edges.size(),
            original.category_scene_edges.size());
}

TEST(TsvIoTest, LoadMissingDirectoryFails) {
  auto result = LoadDatasetTsv("/tmp/scenerec_does_not_exist_12345");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(TsvIoTest, FuzzedFilesNeverCrash) {
  // Robustness sweep: overwrite each file of a valid dataset with random
  // garbage; LoadDatasetTsv must return an error Status (or, for benign
  // mutations, a dataset that still validates) — never crash.
  auto result = GenerateSyntheticDataset(SmallConfig(), 29);
  ASSERT_TRUE(result.ok());
  const testing::ScopedTempDir temp_dir("scenerec_fuzz");
  const std::string& dir = temp_dir.path();
  ASSERT_TRUE(SaveDatasetTsv(result.value(), dir).ok());

  const char* files[] = {"meta.tsv",           "interactions.tsv",
                         "item_category.tsv",  "item_item.tsv",
                         "category_category.tsv", "category_scene.tsv"};
  Rng rng(31);
  for (const char* file : files) {
    for (int trial = 0; trial < 8; ++trial) {
      // Re-save the pristine dataset, then corrupt one file.
      ASSERT_TRUE(SaveDatasetTsv(result.value(), dir).ok());
      std::string garbage;
      const int64_t lines = rng.NextInt(1, 6);
      for (int64_t l = 0; l < lines; ++l) {
        const int64_t length = rng.NextInt(0, 40);
        for (int64_t c = 0; c < length; ++c) {
          garbage.push_back(
              static_cast<char>(' ' + rng.NextInt(95)));
        }
        garbage.push_back('\n');
      }
      FILE* f = ::fopen((dir + "/" + file).c_str(), "w");
      ASSERT_NE(f, nullptr);
      ::fputs(garbage.c_str(), f);
      ::fclose(f);
      auto loaded = LoadDatasetTsv(dir);
      if (loaded.ok()) {
        EXPECT_TRUE(loaded->Validate().ok());
      }
    }
  }
}

TEST(TsvIoTest, LoadCorruptMetaFails) {
  const testing::ScopedTempDir temp_dir("scenerec_tsv");
  const std::string& dir = temp_dir.path();
  {
    FILE* f = ::fopen((dir + "/meta.tsv").c_str(), "w");
    ASSERT_NE(f, nullptr);
    ::fputs("num_users\tnot_a_number\n", f);
    ::fclose(f);
  }
  EXPECT_FALSE(LoadDatasetTsv(dir).ok());
}

}  // namespace
}  // namespace scenerec
