#include "models/item_pop.h"

#include "tensor/ops.h"

namespace scenerec {

ItemPop::ItemPop(const UserItemGraph* graph)
    : graph_(graph),
      dummy_(Tensor::Zeros(Shape({1}), /*requires_grad=*/true)) {
  SCENEREC_CHECK(graph != nullptr);
}

Tensor ItemPop::ScoreForTraining(int64_t user, int64_t item) {
  (void)user;
  return Tensor::Scalar(static_cast<float>(graph_->ItemDegree(item)));
}

Tensor ItemPop::BatchLoss(std::span<const BprTriple> batch) {
  (void)batch;
  // Constant model: zero loss that still "depends" on the dummy parameter so
  // Backward() has a gradient path (with zero gradient).
  return Scale(Reshape(dummy_, Shape()), 0.0f);
}

void ItemPop::ScoreRows(std::span<const int64_t> users,
                        std::span<const int64_t> items, std::span<float> out) {
  SCENEREC_CHECK_EQ(users.size(), items.size());
  SCENEREC_CHECK_EQ(users.size(), out.size());
  for (size_t r = 0; r < items.size(); ++r) {
    out[r] = static_cast<float>(graph_->ItemDegree(items[r]));
  }
}

RetrievalEmbeddings ItemPop::ExportItemEmbeddings() {
  RetrievalEmbeddings out;
  out.num_items = graph_->num_items();
  out.dim = 1;
  out.fidelity = RetrievalFidelity::kExactScores;
  out.owned_items.resize(static_cast<size_t>(out.num_items));
  for (int64_t i = 0; i < out.num_items; ++i) {
    out.owned_items[static_cast<size_t>(i)] =
        static_cast<float>(graph_->ItemDegree(i));
  }
  out.items = out.owned_items.data();
  return out;
}

void ItemPop::WriteRetrievalQuery(int64_t user, std::span<float> out) {
  (void)user;
  SCENEREC_CHECK_EQ(out.size(), size_t{1});
  out[0] = 1.0f;
}

void ItemPop::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(dummy_);
}

}  // namespace scenerec
