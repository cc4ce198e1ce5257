#include "models/item_rank.h"

#include <map>

#include "tensor/ops.h"

namespace scenerec {

ItemRank::ItemRank(const UserItemGraph* graph, double alpha,
                   int64_t iterations)
    : graph_(graph),
      alpha_(alpha),
      iterations_(iterations),
      dummy_(Tensor::Zeros(Shape({1}), /*requires_grad=*/true)) {
  SCENEREC_CHECK(graph != nullptr);
  SCENEREC_CHECK(alpha > 0.0 && alpha < 1.0);
  SCENEREC_CHECK_GT(iterations, 0);

  // Item correlation graph: weight(i, j) = #users who consumed both.
  // Built via each user's item list (two-hop walk through the bipartite
  // graph); quadratic in user degree, so degrees are capped.
  constexpr int64_t kMaxDegreeForPairs = 80;
  std::map<std::pair<int64_t, int64_t>, float> counts;
  for (int64_t u = 0; u < graph->num_users(); ++u) {
    auto items = graph->ItemsOfUser(u);
    if (static_cast<int64_t>(items.size()) > kMaxDegreeForPairs) continue;
    for (size_t a = 0; a < items.size(); ++a) {
      for (size_t b = a + 1; b < items.size(); ++b) {
        counts[{items[a], items[b]}] += 1.0f;
        counts[{items[b], items[a]}] += 1.0f;
      }
    }
  }
  std::vector<Edge> edges;
  edges.reserve(counts.size());
  for (const auto& [pair, weight] : counts) {
    edges.push_back({pair.first, pair.second, weight});
  }
  correlation_ =
      CsrGraph::FromEdges(graph->num_items(), graph->num_items(), edges);
  cache_.resize(static_cast<size_t>(graph->num_users()));
}

const std::vector<float>& ItemRank::RankVector(int64_t user) {
  auto& cached = cache_[static_cast<size_t>(user)];
  if (!cached.empty()) return cached;

  const int64_t num_items = graph_->num_items();
  auto train_items = graph_->ItemsOfUser(user);
  std::vector<float> preference(static_cast<size_t>(num_items), 0.0f);
  if (!train_items.empty()) {
    const float mass = 1.0f / static_cast<float>(train_items.size());
    for (int64_t item : train_items) {
      preference[static_cast<size_t>(item)] = mass;
    }
  }
  std::vector<float> rank = preference;
  std::vector<float> next(static_cast<size_t>(num_items), 0.0f);
  for (int64_t iter = 0; iter < iterations_; ++iter) {
    std::fill(next.begin(), next.end(), 0.0f);
    for (int64_t i = 0; i < num_items; ++i) {
      const float r = rank[static_cast<size_t>(i)];
      if (r == 0.0f) continue;
      auto neighbors = correlation_.Neighbors(i);
      auto weights = correlation_.Weights(i);
      float total = 0.0f;
      for (float w : weights) total += w;
      if (total == 0.0f) continue;
      const float scaled = static_cast<float>(alpha_) * r / total;
      for (size_t j = 0; j < neighbors.size(); ++j) {
        next[static_cast<size_t>(neighbors[j])] += scaled * weights[j];
      }
    }
    for (int64_t i = 0; i < num_items; ++i) {
      next[static_cast<size_t>(i)] +=
          (1.0f - static_cast<float>(alpha_)) *
          preference[static_cast<size_t>(i)];
    }
    rank.swap(next);
  }
  cached = std::move(rank);
  return cached;
}

Tensor ItemRank::ScoreForTraining(int64_t user, int64_t item) {
  // Reads the rank vector directly: the default ScoreRows calls back into
  // ScoreForTraining, so routing through Score would recurse forever if the
  // ScoreRows override were ever dropped.
  return Tensor::Scalar(RankVector(user)[static_cast<size_t>(item)]);
}

Tensor ItemRank::BatchLoss(std::span<const BprTriple> batch) {
  (void)batch;
  // Training-free model; see ItemPop for the dummy-gradient rationale.
  return Scale(Reshape(dummy_, Shape()), 0.0f);
}

void ItemRank::ScoreRows(std::span<const int64_t> users,
                         std::span<const int64_t> items,
                         std::span<float> out) {
  SCENEREC_CHECK_EQ(users.size(), items.size());
  SCENEREC_CHECK_EQ(users.size(), out.size());
  const std::vector<float>* ranks = nullptr;
  for (size_t r = 0; r < users.size(); ++r) {
    if (r == 0 || users[r] != users[r - 1]) ranks = &RankVector(users[r]);
    out[r] = (*ranks)[static_cast<size_t>(items[r])];
  }
}

bool ItemRank::PrepareParallelScoring(ThreadPool& pool) {
  pool.ParallelFor(graph_->num_users(), /*grain=*/1,
                   [this](int64_t begin, int64_t end) {
                     for (int64_t u = begin; u < end; ++u) RankVector(u);
                   });
  return true;
}

void ItemRank::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(dummy_);
}

}  // namespace scenerec
