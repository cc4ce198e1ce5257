#include "models/gcmc.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace scenerec {

Gcmc::Gcmc(const UserItemGraph* graph, int64_t dim, Rng& rng)
    : prop_(BuildUserItemPropagationGraph(*graph)),
      dim_(dim),
      embedding_(Tensor::RandomNormal(Shape({prop_.num_nodes(), dim}), 0.1f,
                                      rng, /*requires_grad=*/true)),
      w_conv_(Tensor::XavierUniform(dim, dim, rng)),
      w_dense_(Tensor::XavierUniform(dim, dim, rng)) {}

Tensor Gcmc::Propagate() const {
  Tensor conv = Relu(
      MatMul(SpMM(&prop_.adjacency, prop_.norm_weights, embedding_), w_conv_));
  return Tanh(MatMul(conv, w_dense_));
}

Tensor Gcmc::ScoreForTraining(int64_t user, int64_t item) {
  Tensor z = Propagate();
  return Dot(Row(z, prop_.UserNode(user)), Row(z, prop_.ItemNode(item)));
}

Tensor Gcmc::BatchLoss(std::span<const BprTriple> batch) {
  SCENEREC_CHECK(!batch.empty());
  Tensor z = Propagate();
  Tensor total;
  for (const BprTriple& triple : batch) {
    Tensor user_repr = Row(z, prop_.UserNode(triple.user));
    Tensor pos = Dot(user_repr, Row(z, prop_.ItemNode(triple.positive_item)));
    Tensor neg = Dot(user_repr, Row(z, prop_.ItemNode(triple.negative_item)));
    Tensor loss = BprPairLoss(pos, neg);
    total = total.defined() ? Add(total, loss) : loss;
  }
  return total;
}

void Gcmc::OnEvalBegin() {
  NoGradGuard no_grad;
  cached_ = Propagate().value();
}

bool Gcmc::PrepareParallelScoring(ThreadPool& pool) {
  (void)pool;  // one full-graph propagation; nothing to fan out
  if (cached_.empty()) OnEvalBegin();
  return true;
}

void Gcmc::ScoreRows(std::span<const int64_t> users,
                     std::span<const int64_t> items, std::span<float> out) {
  SCENEREC_CHECK_EQ(users.size(), items.size());
  SCENEREC_CHECK_EQ(users.size(), out.size());
  if (cached_.empty()) OnEvalBegin();
  for (size_t r = 0; r < users.size(); ++r) {
    out[r] = kernels::Dot(cached_.data() + prop_.UserNode(users[r]) * dim_,
                          cached_.data() + prop_.ItemNode(items[r]) * dim_,
                          dim_);
  }
}

RetrievalEmbeddings Gcmc::ExportItemEmbeddings() {
  if (cached_.empty()) OnEvalBegin();
  RetrievalEmbeddings out;
  out.num_items = prop_.num_items;
  out.dim = dim_;
  out.fidelity = RetrievalFidelity::kExactScores;
  // Item nodes are rows [num_users, num_users + num_items) of Z — one
  // contiguous block. Copied (not aliased): OnEvalBegin refreshes cached_
  // in place and an index must not see half-updated rows.
  const float* first = cached_.data() + prop_.ItemNode(0) * dim_;
  out.owned_items.assign(first, first + prop_.num_items * dim_);
  out.items = out.owned_items.data();
  return out;
}

void Gcmc::WriteRetrievalQuery(int64_t user, std::span<float> out) {
  if (cached_.empty()) OnEvalBegin();
  SCENEREC_CHECK_EQ(static_cast<int64_t>(out.size()), dim_);
  const float* urow = cached_.data() + prop_.UserNode(user) * dim_;
  std::copy(urow, urow + dim_, out.begin());
}

void Gcmc::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(embedding_);
  out->push_back(w_conv_);
  out->push_back(w_dense_);
}

}  // namespace scenerec
