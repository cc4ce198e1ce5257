// Quickstart: generate a small scene-based dataset, train SceneRec, and
// print ranked recommendations for one user.
//
//   ./examples/quickstart [--seed=42] [--epochs=5] [--dim=32] [--verbose]

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/logging.h"
#include "common/malloc_tuning.h"
#include "common/stopwatch.h"
#include "data/split.h"
#include "eval/top_n.h"
#include "data/synthetic.h"
#include "graph/stats.h"
#include "models/scene_rec.h"
#include "nn/serialization.h"
#include "train/trainer.h"

namespace {

int Run(int argc, char** argv) {
  using namespace scenerec;
  TuneAllocatorForTraining();

  FlagParser flags;
  flags.AddInt64("seed", 42, "RNG seed");
  flags.AddInt64("epochs", 5, "training epochs");
  flags.AddInt64("dim", 32, "embedding dimension");
  flags.AddBool("verbose", false, "log per-epoch metrics");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n" << flags.Help();
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));

  // 1. Generate a small synthetic scene-based dataset.
  SyntheticConfig config;
  config.name = "quickstart";
  config.num_users = 120;
  config.num_items = 900;
  config.num_categories = 40;
  config.num_scenes = 25;
  config.sessions_per_user = 6;
  auto dataset_or = GenerateSyntheticDataset(config, seed);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status().ToString() << "\n";
    return 1;
  }
  Dataset dataset = std::move(dataset_or).value();
  std::cout << "Generated dataset:\n"
            << FormatStatsTable(dataset.Stats()) << "\n";

  // 2. Leave-one-out split (Section 5.3 protocol).
  Rng rng(seed);
  auto split_or = MakeLeaveOneOutSplit(dataset, /*num_negatives=*/100, rng);
  if (!split_or.ok()) {
    std::cerr << split_or.status().ToString() << "\n";
    return 1;
  }
  LeaveOneOutSplit split = std::move(split_or).value();
  std::cout << "Split: " << split.train.size() << " train interactions, "
            << split.validation.size() << " validation users, "
            << split.test.size() << " test users\n\n";

  // 3. Build the graphs (training interactions only) and the model.
  UserItemGraph train_graph =
      UserItemGraph::Build(dataset.num_users, dataset.num_items, split.train);
  SceneGraph scene_graph = dataset.BuildSceneGraph();

  SceneRecConfig model_config;
  model_config.embedding_dim = flags.GetInt64("dim");
  Rng model_rng(seed + 1);
  SceneRec model(&train_graph, &scene_graph, model_config, model_rng);
  std::cout << "SceneRec with " << model.NumParameters()
            << " trainable parameters\n";

  // 4. Train with BPR + RMSProp.
  TrainConfig train_config;
  train_config.epochs = flags.GetInt64("epochs");
  train_config.verbose = flags.GetBool("verbose");
  train_config.seed = seed + 2;
  Stopwatch stopwatch;
  auto result_or = TrainAndEvaluate(model, split, train_graph, train_config);
  if (!result_or.ok()) {
    std::cerr << result_or.status().ToString() << "\n";
    return 1;
  }
  TrainResult result = std::move(result_or).value();
  std::printf("Trained %lld epochs in %.1fs\n",
              static_cast<long long>(result.epochs_run),
              stopwatch.ElapsedSeconds());
  std::printf("Validation: NDCG@10 %.4f  HR@10 %.4f (best epoch %lld)\n",
              result.best_validation.ndcg, result.best_validation.hr,
              static_cast<long long>(result.best_epoch + 1));
  std::printf("Test:       NDCG@10 %.4f  HR@10 %.4f\n\n", result.test.ndcg,
              result.test.hr);

  // 5. Checkpoint the trained model and prove a fresh instance restores it.
  const std::string checkpoint = "/tmp/scenerec_quickstart.ckpt";
  if (Status s = SaveCheckpoint(model, model.name(), checkpoint); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  {
    Rng fresh_rng(seed + 100);
    SceneRec restored(&train_graph, &scene_graph, model_config, fresh_rng);
    if (Status s = LoadCheckpoint(restored, model.name(), checkpoint);
        !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    restored.OnEvalBegin();
    model.OnEvalBegin();
    std::printf("Checkpoint round trip: score(0, 0) %.4f == %.4f\n\n",
                model.Score(0, 0), restored.Score(0, 0));
  }

  // 6. Recommend: top-5 unseen items for one user (the serving path).
  const int64_t user = 7;
  std::cout << "Top-5 recommendations for user " << user << ":\n";
  for (const Recommendation& rec :
       TopNRecommendations(model.BlockScorer(), train_graph, user, 5)) {
    std::printf(
        "  item %lld (category %lld)  score %.3f  avg scene attention %.3f\n",
        static_cast<long long>(rec.item),
        static_cast<long long>(scene_graph.CategoryOfItem(rec.item)),
        rec.score, model.AverageAttentionScore(user, rec.item));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
