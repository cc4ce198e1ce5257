#ifndef SCENEREC_MODELS_FACTORY_H_
#define SCENEREC_MODELS_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "models/recommender.h"

namespace scenerec {

/// Shared hyper-parameters for model construction, mirroring Section 5.3:
/// embedding dimension 64 for every method except NCF (8), GNN depth for
/// NGCF/KGAT, and the neighbor cap used by neighborhood models.
struct ModelFactoryConfig {
  int64_t embedding_dim = 64;
  int64_t ncf_dim = 8;
  int64_t gnn_depth = 2;
  int64_t max_neighbors = 20;
  uint64_t seed = 42;
};

/// Builds a model by its Table 2 name. Valid names:
///   "BPR-MF", "NCF", "CMN", "PinSAGE", "NGCF", "KGAT",
///   "SceneRec-noitem", "SceneRec-nosce", "SceneRec-noatt", "SceneRec",
/// plus two extra reference baselines beyond Table 2:
///   "ItemPop" (popularity floor) and "ItemRank" (random-walk CF, ref [5]).
/// `context.scene` is required for KGAT and the SceneRec family.
/// Returns InvalidArgument for unknown names, FailedPrecondition when a
/// required graph is missing.
StatusOr<std::unique_ptr<Recommender>> MakeRecommender(
    const std::string& name, const ModelContext& context,
    const ModelFactoryConfig& config);

/// Opens an SRSNAP1 snapshot (nn/snapshot.h) zero-copy and reconstructs the
/// model it was written from: the snapshot's tag selects the model name,
/// the architecture comes from `context` + `config` (which must match the
/// training-time values), and every parameter is bound in place to the
/// mmap'd pages — no table is read, copied, or RNG-initialized, so opening
/// a multi-gigabyte model costs one mmap plus manifest validation.
///
/// The returned model is inference-only: scoring and Top-N work as
/// usual (bitwise identical to the model the snapshot was written from),
/// but requesting gradients on its parameters aborts. The snapshot mapping
/// lives exactly as long as the model and is unmapped on destruction — the
/// property ModelHandle's drain-based hot swap relies on.
StatusOr<std::unique_ptr<Recommender>> OpenRecommenderFromSnapshot(
    const std::string& path, const ModelContext& context,
    const ModelFactoryConfig& config);

/// All model names in the row order of Table 2.
std::vector<std::string> Table2ModelNames();

}  // namespace scenerec

#endif  // SCENEREC_MODELS_FACTORY_H_
