#ifndef SCENEREC_MODELS_ITEM_POP_H_
#define SCENEREC_MODELS_ITEM_POP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "models/recommender.h"

namespace scenerec {

/// Non-personalized popularity baseline: Score(u, i) = train-set degree of
/// item i. Has no trainable signal — it calibrates how much of a dataset's
/// accuracy is explained by popularity alone, the sanity floor every
/// personalized model must clear.
class ItemPop : public Recommender {
 public:
  /// `graph` is the training interaction graph; must outlive the model.
  explicit ItemPop(const UserItemGraph* graph);

  std::string name() const override { return "ItemPop"; }
  Tensor ScoreForTraining(int64_t user, int64_t item) override;
  Tensor BatchLoss(std::span<const BprTriple> batch) override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  /// Scoring reads the immutable training graph only.
  bool PrepareParallelScoring(ThreadPool&) override { return true; }

  /// A degree lookup per row.
  void ScoreRows(std::span<const int64_t> users,
                 std::span<const int64_t> items, std::span<float> out) override;

  /// Degenerate but exact 1-d export: item embedding = [degree], every
  /// query = [1], so Dot reproduces Score bitwise (deg * 1.0f is exact).
  bool SupportsRetrievalEmbeddings() const override { return true; }
  int64_t RetrievalDim() const override { return 1; }
  RetrievalEmbeddings ExportItemEmbeddings() override;
  void WriteRetrievalQuery(int64_t user, std::span<float> out) override;

 private:
  const UserItemGraph* graph_;
  /// Dummy trainable scalar so the generic trainer (which requires a
  /// differentiable loss) runs; its gradient is always zero.
  Tensor dummy_;
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_ITEM_POP_H_
