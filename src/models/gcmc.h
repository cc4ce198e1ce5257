#ifndef SCENEREC_MODELS_GCMC_H_
#define SCENEREC_MODELS_GCMC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "models/propagation.h"
#include "models/recommender.h"
#include "nn/linear.h"
#include "tensor/tensor.h"

namespace scenerec {

/// Graph Convolutional Matrix Completion (van den Berg et al. 2017 — the
/// paper's reference [16]) adapted to implicit feedback: one symmetric-
/// normalized graph convolution over the user-item bipartite graph
///   H = relu(W_conv (L E))
/// followed by a dense transform Z = act(W_dense H), scored by the dot
/// product z_u . z_i (the bilinear per-rating decoder of the original
/// reduces to this with a single implicit "rating class").
class Gcmc : public Recommender {
 public:
  /// `graph` must outlive the model.
  Gcmc(const UserItemGraph* graph, int64_t dim, Rng& rng);

  std::string name() const override { return "GCMC"; }
  Tensor ScoreForTraining(int64_t user, int64_t item) override;
  Tensor BatchLoss(std::span<const BprTriple> batch) override;
  void OnEvalBegin() override;
  /// After the cache refresh scoring is a pure read of the propagated
  /// layer snapshot, so concurrent scoring is safe.
  bool PrepareParallelScoring(ThreadPool& pool) override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  /// Row dot products z_u . z_i over the cached propagation snapshot with
  /// the fixed-order kernels::Dot.
  void ScoreRows(std::span<const int64_t> users,
                 std::span<const int64_t> items, std::span<float> out) override;

  /// Score is z_u . z_i over the cached propagation snapshot; item nodes
  /// occupy a contiguous row block of Z, copied out as the index matrix.
  bool SupportsRetrievalEmbeddings() const override { return true; }
  int64_t RetrievalDim() const override { return dim_; }
  RetrievalEmbeddings ExportItemEmbeddings() override;
  void WriteRetrievalQuery(int64_t user, std::span<float> out) override;

 private:
  /// Full-graph forward: the dense representation matrix Z, [num_nodes, d].
  Tensor Propagate() const;

  PropagationGraph prop_;
  int64_t dim_;
  Tensor embedding_;  // E, [num_nodes, dim]
  Tensor w_conv_;     // [dim, dim]
  Tensor w_dense_;    // [dim, dim]
  std::vector<float> cached_;  // inference snapshot of Z
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_GCMC_H_
