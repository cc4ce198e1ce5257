// Explainable recommendations: the workflow behind the paper's Figure 3
// case study, packaged as a serving-side tool. For one user it prints the
// top-N recommendations and, for each, WHY in scene terms: which scenes the
// candidate shares with the user's interaction history, and the scene-based
// attention score that quantifies the overlap ("item i is recommended
// because its category complements the user-interacted items' categories in
// the same scene" — Section 5.4.3).
//
//   ./examples/explain_recommendation [--user=3] [--top_n=5]
//       [--dataset=Electronics] [--scale=0.02] [--epochs=6]

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/malloc_tuning.h"
#include "eval/top_n.h"
#include "models/scene_rec.h"
#include "train/trainer.h"

namespace {

using namespace scenerec;

int Run(int argc, char** argv) {
  TuneAllocatorForTraining();

  FlagParser flags;
  flags.AddInt64("user", 3, "user to explain recommendations for");
  flags.AddInt64("top_n", 5, "recommendations to show");
  flags.AddString("dataset", "Electronics", "JD preset name");
  flags.AddDouble("scale", 0.02, "dataset scale");
  flags.AddInt64("epochs", 6, "training epochs");
  flags.AddInt64("dim", 32, "embedding dimension");
  flags.AddInt64("seed", 42, "RNG seed");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n" << flags.Help();
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  JdPreset preset = JdPreset::kElectronics;
  for (JdPreset p : AllJdPresets()) {
    if (flags.GetString("dataset") == JdPresetName(p)) preset = p;
  }
  auto prepared_or =
      bench::PrepareJdDataset(preset, flags.GetDouble("scale"), seed);
  if (!prepared_or.ok()) {
    std::cerr << prepared_or.status().ToString() << "\n";
    return 1;
  }
  bench::PreparedDataset prepared = std::move(prepared_or).value();
  const SceneGraph& scene = prepared.scene_graph;

  SceneRecConfig model_config;
  model_config.embedding_dim = flags.GetInt64("dim");
  Rng model_rng(seed + 1);
  SceneRec model(&prepared.train_graph, &scene, model_config, model_rng);
  TrainConfig train_config;
  train_config.epochs = flags.GetInt64("epochs");
  train_config.learning_rate = 2e-3f;
  train_config.seed = seed + 2;
  auto result = TrainAndEvaluate(model, prepared.split, prepared.train_graph,
                                 train_config);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::printf("Trained SceneRec on %s (test NDCG@10 %.3f)\n\n",
              prepared.dataset.name.c_str(), result->test.ndcg);

  const int64_t user =
      flags.GetInt64("user") % prepared.dataset.num_users;
  auto history = prepared.train_graph.ItemsOfUser(user);
  std::printf("User u%lld interacted with %zu items.\n",
              static_cast<long long>(user), history.size());

  // The user's scene profile: how often each scene covers a history item.
  std::map<int64_t, int64_t> scene_profile;
  for (int64_t item : history) {
    for (int64_t s : scene.ScenesOfItem(item)) scene_profile[s]++;
  }
  std::vector<std::pair<int64_t, int64_t>> profile(scene_profile.begin(),
                                                   scene_profile.end());
  std::sort(profile.begin(), profile.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("Dominant scenes in the history:");
  for (size_t i = 0; i < profile.size() && i < 5; ++i) {
    std::printf(" s%lld(x%lld)", static_cast<long long>(profile[i].first),
                static_cast<long long>(profile[i].second));
  }
  std::printf("\n\n");

  model.OnEvalBegin();
  auto recommendations =
      TopNRecommendations(model.BlockScorer(), prepared.train_graph, user,
                          flags.GetInt64("top_n"));
  std::printf("Top-%zu recommendations with scene explanations:\n\n",
              recommendations.size());
  for (const Recommendation& rec : recommendations) {
    const int64_t category = scene.CategoryOfItem(rec.item);
    std::printf("item i%-6lld (category c%lld)  score %.3f  attention %.3f\n",
                static_cast<long long>(rec.item),
                static_cast<long long>(category), rec.score,
                model.AverageAttentionScore(user, rec.item));
    // Which of the user's dominant scenes contain this item's category?
    std::set<int64_t> candidate_scenes;
    for (int64_t s : scene.ScenesOfItem(rec.item)) {
      candidate_scenes.insert(s);
    }
    std::printf("  shared scenes:");
    int shown = 0;
    for (const auto& [s, count] : profile) {
      if (candidate_scenes.count(s)) {
        std::printf(" s%lld(x%lld)", static_cast<long long>(s),
                    static_cast<long long>(count));
        if (++shown >= 4) break;
      }
    }
    if (shown == 0) std::printf(" none (pure collaborative signal)");
    // Peer categories in the first shared scene — the "complement" story.
    for (const auto& [s, count] : profile) {
      if (candidate_scenes.count(s)) {
        std::printf("\n  scene s%lld completes categories:",
                    static_cast<long long>(s));
        int peers = 0;
        for (int64_t c : scene.CategoriesOfScene(s)) {
          if (c == category) continue;
          std::printf(" c%lld", static_cast<long long>(c));
          if (++peers >= 6) break;
        }
        break;
      }
    }
    std::printf("\n\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
