#ifndef SCENEREC_MODELS_ITEM_RANK_H_
#define SCENEREC_MODELS_ITEM_RANK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "models/recommender.h"

namespace scenerec {

/// ItemRank (Gori & Pucci, IJCAI 2007) — the random-walk label-propagation
/// baseline the paper cites as an early graph CF method ([5]). Builds an
/// item correlation graph from co-consumption (two items are linked with
/// weight = number of users who interacted with both, here approximated via
/// the bipartite two-hop walk) and scores items for user u with
/// personalized PageRank:
///   r_u = alpha * C_norm r_u + (1 - alpha) * d_u,
/// where d_u is uniform over the user's training items. Training-free.
class ItemRank : public Recommender {
 public:
  /// `graph` must outlive the model. `alpha` is the damping factor (0.85 in
  /// the original paper); `iterations` the power-iteration count.
  ItemRank(const UserItemGraph* graph, double alpha = 0.85,
           int64_t iterations = 20);

  std::string name() const override { return "ItemRank"; }
  Tensor ScoreForTraining(int64_t user, int64_t item) override;
  Tensor BatchLoss(std::span<const BprTriple> batch) override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  /// Fills every user's rank vector up front (each worker writes a disjoint
  /// cache slot), after which scoring is a pure read.
  bool PrepareParallelScoring(ThreadPool& pool) override;

  /// Resolves the rank vector once per run of equal users and indexes it
  /// per row, instead of re-fetching it per pair.
  void ScoreRows(std::span<const int64_t> users,
                 std::span<const int64_t> items, std::span<float> out) override;

 private:
  /// Power iteration for one user; cached.
  const std::vector<float>& RankVector(int64_t user);

  const UserItemGraph* graph_;
  double alpha_;
  int64_t iterations_;
  CsrGraph correlation_;  // item-item co-consumption, row-normalized weights
  std::vector<std::vector<float>> cache_;  // per user, lazily computed
  Tensor dummy_;
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_ITEM_RANK_H_
