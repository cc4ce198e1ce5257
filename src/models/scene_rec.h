#ifndef SCENEREC_MODELS_SCENE_REC_H_
#define SCENEREC_MODELS_SCENE_REC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "models/recommender.h"
#include "nn/activation.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace scenerec {

/// Hyper-parameters and ablation switches for SceneRec. The three `use_*`
/// flags produce the paper's model variants:
///   use_item_item=false  -> SceneRec-noitem  (no item layer in H)
///   use_scene=false      -> SceneRec-nosce   (no category/scene layers)
///   use_attention=false  -> SceneRec-noatt   (uniform neighbor weights)
struct SceneRecConfig {
  int64_t embedding_dim = 64;

  /// Aggregation cap per neighbor set. The paper sums all 1-hop neighbors;
  /// we cap for bounded per-example cost (sampled during training,
  /// deterministic strided subset during evaluation). See DESIGN.md.
  int64_t max_neighbors = 20;

  bool use_item_item = true;
  bool use_scene = true;
  bool use_attention = true;

  /// The sigma nonlinearity of equations (1), (2), (7), (12).
  Activation activation = Activation::kLeakyRelu;
};

/// SceneRec (Section 4): scene-based graph neural collaborative filtering.
///
/// User modeling (eq. 1) and user-based item modeling (eq. 2) aggregate
/// bipartite neighbors. Scene-based item modeling propagates information
/// down the scene->category->item hierarchy: scene-specific category
/// representation (eq. 3), attentive category-category aggregation with
/// scene-based cosine attention (eqs. 4-6), category fusion (eq. 7), the
/// item's category representation (eq. 8), attentive item-item aggregation
/// (eqs. 9-11) and fusion (eq. 12). The two item views are merged by an MLP
/// (eq. 13) and rating prediction is an MLP over the user and item
/// representations (eq. 14), trained with BPR (eq. 15).
class SceneRec : public Recommender {
 public:
  /// `user_item` supplies UI/IU neighborhoods, `scene` the hierarchy; both
  /// must outlive the model. `scene` may be null only if
  /// config.use_scene == false && config.use_item_item == false.
  SceneRec(const UserItemGraph* user_item, const SceneGraph* scene,
           const SceneRecConfig& config, Rng& rng);

  std::string name() const override;
  Tensor ScoreForTraining(int64_t user, int64_t item) override;
  Tensor BatchLoss(std::span<const BprTriple> batch) override;
  void OnEvalBegin() override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  // -- Sharded training / parallel evaluation -----------------------------
  // The step memos (scene sums, category representations) become per-shard
  // StepCaches so concurrent shards never share an autograd intermediate;
  // see docs/parallelism.md for the cache thread-safety rules.
  bool SupportsShardedLoss() const override { return true; }
  void PrepareShards(int64_t num_shards) override;
  Tensor BatchLossShard(std::span<const BprTriple> shard, int64_t shard_index,
                        Rng& rng) override;

  /// Precomputes every eval memo in dependency stages (scene sums ->
  /// category reprs -> item reprs and item halves -> user reprs), each
  /// stage parallel over disjoint cache slots, then returns true: scoring
  /// becomes a pure read plus the per-row split eq. (14).
  bool PrepareParallelScoring(ThreadPool& pool) override;

  // -- Scoring -------------------------------------------------------------
  // Eq. (14) with its first layer split (docs/models.md#split-rating):
  // W·[m_u ‖ m_i] + b = W_u·m_u + (W_i·m_i + b). The item half P_i =
  // W_i·m_i + b is memoized per item beside the item representation, W_u·m_u
  // runs once per run of equal users, and each row is one
  // kernels::AddActDot plus the output bias. Row r depends only on
  // (users[r], items[r]), so batching cannot change a score, and the
  // eval-mode ScoreForTraining takes the same steps: the two agree
  // bitwise. The grad-mode forward keeps the concat form and agrees within
  // float rounding.
  void ScoreRows(std::span<const int64_t> users,
                 std::span<const int64_t> items, std::span<float> out) override;

  // -- Demand-paged user representations -----------------------------------
  // With a cache attached, eval-mode UserRepr bypasses the per-user memo
  // vector entirely: hits copy the cached row, misses compute eq. (1) under
  // NoGradGuard (user_agg_.Forward over UserAggSum — the identical code
  // path the serial lazy fill takes, so the row is bitwise equal to the
  // ForwardRows-precomputed one; docs/kernels.md) and insert it. Prepare-
  // ParallelScoring then skips the O(users) sweep: hot swap warm-up becomes
  // O(items) and user-side memory O(cache capacity). The cache's sharded
  // locks plus the pure-read item/scene memos keep concurrent ScoreRows
  // safe after PrepareParallelScoring, exactly as in full warm-up mode.
  bool SupportsUserReprCache() const override { return true; }
  int64_t UserReprDim() const override { return config_.embedding_dim; }
  void AttachUserReprCache(std::shared_ptr<ReprCache> cache,
                           uint64_t version) override;

  /// Exports the memoized eval representations (eqs. 1 and 13). The true
  /// score is the rating MLP over [user_repr, item_repr] — not an inner
  /// product — so the export is kProxy: index order only picks candidates
  /// and two-stage serving always reranks with exact ScoreRows.
  bool SupportsRetrievalEmbeddings() const override { return true; }
  int64_t RetrievalDim() const override { return config_.embedding_dim; }
  RetrievalEmbeddings ExportItemEmbeddings() override;
  void WriteRetrievalQuery(int64_t user, std::span<float> out) override;

  const SceneRecConfig& config() const { return config_; }

  /// The eq. (14) rating MLP ([2d -> d, act -> 1]).
  const Mlp& rating_mlp() const { return rating_mlp_; }

  /// Average scene-based attention score between `item` and the items the
  /// user interacted with (the quantity displayed in Figure 3's case
  /// study): mean over interacted items j of the raw attention logit
  /// beta*(item, j) = cosine(scene-sum(item), scene-sum(j)). Computed
  /// without autograd. Returns 0 when the model has no scene information or
  /// the user has no history.
  float AverageAttentionScore(int64_t user, int64_t item) const;

 private:
  /// Step-scoped memo tables. One instance per execution lane: the members
  /// `step_caches_` for the serial path (and eval sweeps), one entry of
  /// `shard_caches_` per shard of a parallel step, or a stack local (see
  /// AverageAttentionScore). Memoized tensors are autograd nodes, so a
  /// StepCaches must never be shared by two concurrent Backward graphs.
  struct StepCaches {
    std::vector<Tensor> scene_sum;
    std::vector<Tensor> category_repr;

    void Clear() {
      scene_sum.clear();
      category_repr.clear();
    }
  };

  /// Sum of scene embeddings of CS(c) — eq. (3); zeros if c has no scenes.
  /// Memoized per step (the result is identical for every use of the same
  /// category within one forward pass, and reusing the autograd node simply
  /// accumulates gradients along all uses).
  Tensor SceneSum(int64_t category, StepCaches& caches) const;

  /// Drops the per-step memos (scene sums, category representations). Called
  /// at the start of every training step; parameters change between steps so
  /// memos would be stale.
  void ClearStepCaches();

  /// The input of eq. (7)'s fusion layer: h_scene || h_cat (eqs. 3-6).
  /// Split out of CategoryRepr so batched callers can stack these rows and
  /// run category_fuse_ once per batch.
  Tensor CategoryFuseInput(int64_t category, StepCaches& caches, Rng* rng);

  /// m_{c_p} — eqs. (3)-(7).
  Tensor CategoryRepr(int64_t category, StepCaches& caches, Rng* rng);

  /// The input row of eq. (12)'s fusion layer (h_category || h_item, or the
  /// single surviving part under ablations). The fuse layer itself is
  /// `scene_fuse_layer()`.
  Tensor SceneFuseInput(int64_t item, StepCaches& caches, Rng* rng);

  /// The Linear applied to SceneFuseInput: item_fuse_ when both views are
  /// enabled, item_fuse_single_ under ablations.
  const Linear& scene_fuse_layer() const;

  /// m^S_{i_p} — eqs. (8)-(12), honoring ablation switches.
  Tensor SceneSpaceItemRepr(int64_t item, StepCaches& caches, Rng* rng);

  /// Aggregated item-embedding sum feeding eq. (1) (before W_u).
  Tensor UserAggSum(int64_t user, Rng* rng);

  /// m_{u_p} — eq. (1).
  Tensor UserRepr(int64_t user, Rng* rng);

  /// Aggregated user-embedding sum feeding eq. (2) (before W_iu).
  Tensor UserSpaceSum(int64_t item, Rng* rng);

  /// m^U_{i_p} — eq. (2).
  Tensor UserSpaceItemRepr(int64_t item, Rng* rng);

  /// m_{i_p} — eq. (13).
  Tensor GeneralItemRepr(int64_t item, StepCaches& caches, Rng* rng);

  /// Batched eq. (13): one row per item of `items`, computed with row-
  /// batched GEMMs. Row r is bitwise equal to GeneralItemRepr(items[r])
  /// because every batched kernel matches its single-row path bitwise.
  Tensor GeneralItemReprRows(std::span<const int64_t> items,
                             StepCaches& caches, Rng* rng);

  /// Assembles eq. (13) rows from pre-collected aggregation inputs: row r is
  /// item_mlp_(item_user_agg_(user_space_sums[r]) ||
  /// scene_fuse_layer()(scene_inputs[r])). Shared by GeneralItemReprRows and
  /// the batched ShardLoss.
  Tensor ItemRowsFromParts(const std::vector<Tensor>& user_space_sums,
                           const std::vector<Tensor>& scene_inputs);

  /// Shared body of BatchLoss and BatchLossShard: summed BPR loss of
  /// `triples` with memos in `caches` and sampling from `rng`.
  Tensor ShardLoss(std::span<const BprTriple> triples, StepCaches& caches,
                   Rng& rng);

  /// r'_pq — eq. (14). Grad mode: the concat-form MLP forward. Eval mode:
  /// the split steps of ScoreRows, with both halves computed afresh from
  /// the two representations.
  Tensor Rating(const Tensor& user_repr, const Tensor& item_repr);

  /// Builds `split_` from the current rating MLP parameters and sizes the
  /// item-half memo. A no-op until OnEvalBegin drops them again.
  void PrepareSplitRating();

  /// out[r, 0..d) = W_i·item_reprs[r] + b for `count` contiguous rows: the
  /// one formula behind every P row. One GemvMulti pass over W_i, so each
  /// row is bitwise the single-item Gemv.
  void WriteItemHalves(const float* item_reprs, int64_t count,
                       float* out) const;

  /// P row of `item`, filled on first use, or read as filled by
  /// PrepareParallelScoring.
  const float* ItemHalf(int64_t item);

  /// w2·act(user_half + item_half) + b2: eq. (14) after the split layer.
  float SplitRating(const float* user_half, const float* item_half) const;

  const UserItemGraph* user_item_;
  const SceneGraph* scene_;
  SceneRecConfig config_;

  Embedding user_embedding_;
  Embedding item_embedding_;
  Embedding category_embedding_;
  Embedding scene_embedding_;

  Linear user_agg_;        // W_u, b_u   (eq. 1)
  Linear item_user_agg_;   // W_iu, b_iu (eq. 2)
  Linear category_fuse_;   // W_ic, b_ic (eq. 7), [2d -> d]
  Linear item_fuse_;       // W_ii, b_ii (eq. 12), [2d -> d]
  Linear item_fuse_single_;  // ablations: [d -> d] when one input is removed
  Mlp item_mlp_;           // F, W_i (eq. 13)
  Mlp rating_mlp_;         // F, W_r (eq. 14)

  Rng sample_rng_;

  // Step-scoped memos of the serial path (valid within one forward pass /
  // one eval sweep) and the per-shard tables of the parallel path.
  mutable StepCaches step_caches_;
  std::vector<StepCaches> shard_caches_;
  // Eval-sweep-scoped memos, only consulted under NoGradGuard: evaluation
  // scores num_users x 101 pairs, and both representations are deterministic
  // between parameter updates. During parallel evaluation they are filled
  // up-front by PrepareParallelScoring and then only read.
  std::vector<Tensor> eval_user_cache_;
  std::vector<Tensor> eval_item_cache_;

  // The split eq. (14), eval-sweep scoped like the memos above: contiguous
  // copies of the rating MLP's parameters (built by PrepareSplitRating),
  // and the [items, d] item-half block P with a filled flag per row.
  struct SplitRatingParams {
    std::vector<float> w_user;  // W_u [d, d]: layer-0 weight columns [0, d)
    std::vector<float> w_item;  // W_i [d, d]: layer-0 weight columns [d, 2d)
    std::vector<float> w_out;   // w2 [d]: layer-1 weight
    float b_out = 0.0f;         // b2
  };
  SplitRatingParams split_;
  std::vector<float> eval_item_half_;
  std::vector<uint8_t> eval_item_half_ready_;

  // Demand-paged user-representation store (see AttachUserReprCache).
  // While attached, eval_user_cache_ stays empty and every eval-mode
  // UserRepr goes through the cache under `user_repr_version_`'s tag.
  std::shared_ptr<ReprCache> user_repr_cache_;
  uint64_t user_repr_version_ = 0;
};

}  // namespace scenerec

#endif  // SCENEREC_MODELS_SCENE_REC_H_
