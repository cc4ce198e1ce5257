#ifndef SCENEREC_MODELS_RECOMMENDER_H_
#define SCENEREC_MODELS_RECOMMENDER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/sampler.h"
#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "graph/scene_graph.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace scenerec {

class ReprCache;

/// Non-owning view of the graphs a model may consume. `user_item` is the
/// TRAINING interaction graph (evaluation positives removed); `scene` may be
/// null for pure collaborative-filtering baselines. Both must outlive the
/// model and every Backward() pass (SpMM stores graph pointers).
struct ModelContext {
  const UserItemGraph* user_item = nullptr;
  const SceneGraph* scene = nullptr;
};

/// How faithfully `Dot(query(u), items[i]) + bias[i]` over a model's exported
/// retrieval embeddings reproduces Score(u, i). Drives how the retrieval
/// layer (retrieval/item_index.h) treats index scores: under kExactScores
/// they ARE model scores; otherwise they only pick candidates and the final
/// ranking always comes from exact ScoreRows rescoring (docs/retrieval.md).
enum class RetrievalFidelity {
  /// The inner product is bitwise equal to Score (BPR-MF, GCMC, ItemPop).
  kExactScores,
  /// Equal as real arithmetic but float ops regroup (NGCF/KGAT sum per-layer
  /// dots; the export concatenates layers into one longer dot).
  kFaithfulRanking,
  /// A proxy: the true score is a nonlinear head over the representations
  /// (SceneRec's rating MLP), so index order is approximate by construction.
  kProxy,
};

/// An item-embedding matrix exported for retrieval-index construction, plus
/// the matching query-side embedding contract (WriteRetrievalQuery). `items`
/// points either at `owned_items` or zero-copy at storage kept alive by
/// `pin` (a snapshot's file mapping). `bias` is an optional per-item
/// additive term folded into index scores.
struct RetrievalEmbeddings {
  int64_t num_items = 0;
  int64_t dim = 0;
  RetrievalFidelity fidelity = RetrievalFidelity::kProxy;
  const float* items = nullptr;  // [num_items, dim] row-major
  const float* bias = nullptr;   // [num_items] or null
  std::vector<float> owned_items;
  std::vector<float> owned_bias;
  std::shared_ptr<const void> pin;

  /// Points `items` at `buf` without copying when `buf` borrows externally
  /// pinned storage (mmap'd snapshot pages — the pin keeps them mapped
  /// independent of the tensor), otherwise materializes a copy: a live heap
  /// table can be reallocated later (BindExternal), so aliasing it would
  /// dangle.
  void AdoptItems(const FloatBuffer& buf);
  /// Same policy for the bias vector.
  void AdoptBias(const FloatBuffer& buf);
};

/// Export helper for layer-propagation models (NGCF, KGAT) whose score sums
/// per-layer dots: concatenates each item node's rows across `layers` into
/// one [num_items, layers.size()*dim] matrix. Item nodes must be contiguous
/// starting at `item_node_base` (PropagationGraph::ItemNode layout). The
/// concatenated dot equals the per-layer sum as real arithmetic but regroups
/// float additions — kFaithfulRanking, which the helper sets.
RetrievalEmbeddings ExportLayerConcat(
    const std::vector<std::vector<float>>& layers, int64_t dim,
    int64_t num_items, int64_t item_node_base);

/// Query-side counterpart: node `node`'s rows across `layers`, concatenated
/// into `out` (size layers.size()*dim).
void WriteLayerConcatQuery(const std::vector<std::vector<float>>& layers,
                           int64_t dim, int64_t node, std::span<float> out);

/// Base interface implemented by SceneRec and all baselines. A model is a
/// Module (owns trainable parameters) plus a scoring function; the trainer
/// drives it exclusively through this interface.
class Recommender : public Module {
 public:
  ~Recommender() override = default;

  /// Model name as used in Table 2 ("BPR-MF", "SceneRec", ...).
  virtual std::string name() const = 0;

  /// Differentiable prediction r'_ui for one (user, item) pair. Builds an
  /// autograd graph over the model parameters.
  virtual Tensor ScoreForTraining(int64_t user, int64_t item) = 0;

  /// Summed BPR loss over a batch of triples (eq. 15, without the L2 term
  /// which the optimizer applies as weight decay). The default implementation
  /// scores each pair independently; full-graph propagation models (NGCF,
  /// KGAT) override it to share one propagation across the batch.
  virtual Tensor BatchLoss(std::span<const BprTriple> batch);

  // -- Sharded (data-parallel) training ---------------------------------
  //
  // The parallel trainer splits each batch into shards and runs
  // BatchLossShard + Backward concurrently, one shard per pool lane
  // (docs/parallelism.md). A model may opt in by returning true from
  // SupportsShardedLoss and guaranteeing that concurrent BatchLossShard
  // calls with distinct shard indices share NO mutable state: every source
  // of randomness must come from the passed Rng and every memo cache must
  // be per-shard (see SceneRec) or absent.

  /// True if BatchLossShard may be called concurrently. Defaults to false;
  /// models stay serial until they are audited for shard safety.
  virtual bool SupportsShardedLoss() const { return false; }

  /// Called once before the shard loop of every parallel step with the
  /// number of shards about to run, so the model can size per-shard caches.
  /// Never called concurrently with BatchLossShard.
  virtual void PrepareShards(int64_t num_shards) { (void)num_shards; }

  /// BatchLoss restricted to one shard. `rng` replaces the model's internal
  /// sampling generator so shards draw independent streams. The default
  /// scores pairs via ShardScore; models with cross-pair memoization
  /// override it. Requires SupportsShardedLoss().
  virtual Tensor BatchLossShard(std::span<const BprTriple> shard,
                                int64_t shard_index, Rng& rng);

  /// Differentiable pair score whose sampling randomness comes from `rng`
  /// (nullptr = deterministic, as in evaluation). Default ignores rng and
  /// calls ScoreForTraining — correct only for models that do not sample.
  virtual Tensor ShardScore(int64_t user, int64_t item, Rng* rng) {
    (void)rng;
    return ScoreForTraining(user, item);
  }

  // -- Inference scoring -------------------------------------------------
  //
  // ScoreRows is the ONE scoring function models implement: row r scores
  // the pair (users[r], items[r]). Every other inference entry point is a
  // batch of it — Score is one row, ScoreBlock is one user against a block
  // of candidates — so each model makes its scoring decision in exactly one
  // place. The serving daemon (src/serve/server.h) coalesces concurrent
  // users' candidate blocks into one flattened row list, so batching models
  // share GEMMs across requests the same way ForwardRows shares them across
  // items. The contract: out[r] is bitwise equal to the autograd reference
  // ScoreForTraining(users[r], items[r]).scalar() under NoGradGuard,
  // independent of which rows happen to share a call, so callers may batch
  // and re-chunk rows freely without metrics drift (docs/serving.md).

  /// Scores row pairs (users[r], items[r]) into out[r]. All three spans
  /// have the same length. Requires OnEvalBegin after parameter changes,
  /// and PrepareParallelScoring before concurrent use. The default IS the
  /// reference: ScoreForTraining per row under NoGradGuard — correct for
  /// every model, batched for none. Models with cached representations
  /// override it.
  virtual void ScoreRows(std::span<const int64_t> users,
                         std::span<const int64_t> items, std::span<float> out);

  /// One pair: a ScoreRows call with one row.
  float Score(int64_t user, int64_t item);

  /// Scores `items.size()` candidates for one user into `out` (same
  /// length): a ScoreRows call with `items.size()` copies of `user`.
  /// Virtual only so forwarding wrappers (perfbench's EpochClock) can
  /// intercept it; models implement ScoreRows instead.
  virtual void ScoreBlock(int64_t user, std::span<const int64_t> items,
                          std::span<float> out);

  // -- Retrieval-embedding export (two-stage serving) --------------------
  //
  // Models whose score is (or is approximated by) an inner product between
  // a per-user query and a per-item embedding export the item side as one
  // matrix for ANN index construction (retrieval/index_builder.h) and write
  // the query side per request. Both use the same representations as
  // Score(), so they require the same preparation (OnEvalBegin after
  // parameter changes) and, like Score() itself, lazily self-ensure any
  // eval caches. The declared fidelity tells callers how to interpret
  // index scores.

  /// True if ExportItemEmbeddings / WriteRetrievalQuery are implemented.
  virtual bool SupportsRetrievalEmbeddings() const { return false; }

  /// Width of the exported embeddings; 0 when unsupported.
  virtual int64_t RetrievalDim() const { return 0; }

  /// Exports the [num_items, RetrievalDim()] item matrix (plus optional
  /// bias). Not safe concurrently with scoring if eval caches are cold.
  /// CHECK-fails unless SupportsRetrievalEmbeddings().
  virtual RetrievalEmbeddings ExportItemEmbeddings();

  /// Writes the user's query embedding into `out` (size RetrievalDim()),
  /// such that Dot(out, item_row) + bias approximates Score per the
  /// exported fidelity. CHECK-fails unless SupportsRetrievalEmbeddings().
  virtual void WriteRetrievalQuery(int64_t user, std::span<float> out);

  // -- Demand-paged user representations (lazy serving warm-up) ----------
  //
  // Models whose eval-mode user representation is deterministic between
  // parameter updates (SceneRec: eq. 1 under NoGradGuard) can serve it from
  // a bounded common/ReprCache instead of precomputing every user at
  // publish time: PrepareParallelScoring then skips the O(users) sweep and
  // a missing user is computed on first touch — bitwise identical to the
  // precomputed row, so the ScoreRows contract extends unchanged. Entries
  // are tagged with the publisher's version; attaching with a new version
  // lazily invalidates the previous publish's entries with no flush
  // (docs/serving.md#warmup).

  /// True if AttachUserReprCache is implemented.
  virtual bool SupportsUserReprCache() const { return false; }

  /// Width of one cached user representation; 0 when unsupported. The
  /// attached cache's dim() must equal this.
  virtual int64_t UserReprDim() const { return 0; }

  /// Attaches `cache` as the model's user-representation store for eval-
  /// mode scoring, tagging every row it writes with `version`. Call before
  /// OnEvalBegin/PrepareParallelScoring, never concurrently with scoring.
  /// nullptr detaches (full precompute resumes). CHECK-fails unless
  /// SupportsUserReprCache().
  virtual void AttachUserReprCache(std::shared_ptr<ReprCache> cache,
                                   uint64_t version);

  /// Makes scoring safe to call concurrently and returns true, or returns
  /// false if this model's scoring path cannot be parallelized. Called by
  /// the trainer/evaluator after OnEvalBegin; implementations typically
  /// precompute lazily-filled eval caches here (optionally using `pool`)
  /// so that concurrent ScoreRows calls are pure reads. Defaults to false.
  virtual bool PrepareParallelScoring(ThreadPool& pool) {
    (void)pool;
    return false;
  }

  /// Hook invoked before an evaluation sweep, e.g. to refresh cached
  /// propagated embeddings with the current parameters. Default no-op.
  virtual void OnEvalBegin() {}

  /// Hook invoked at the start of every training epoch (e.g. KGAT refreshes
  /// its attention coefficients once per epoch). Default no-op.
  virtual void OnEpochBegin() {}

  /// Adapter for the evaluation harness's block interface (EvaluateRanking,
  /// EvaluateFullRanking, TopNRecommendations): one virtual dispatch per
  /// candidate block.
  BlockScoreFn BlockScorer() {
    return [this](int64_t user, std::span<const int64_t> items,
                  std::span<float> out) { ScoreBlock(user, items, out); };
  }
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_RECOMMENDER_H_
