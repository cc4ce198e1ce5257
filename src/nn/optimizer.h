#ifndef SCENEREC_NN_OPTIMIZER_H_
#define SCENEREC_NN_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "tensor/tensor.h"

namespace scenerec {

/// Shared optimizer hyper-parameters. `weight_decay` implements the paper's
/// L2 regularization term lambda * ||Theta||^2 (the constant factor 2 from
/// the derivative is absorbed into the coefficient, matching common
/// implementations). `clip_norm` > 0 enables global gradient-norm clipping.
struct OptimizerOptions {
  float learning_rate = 1e-3f;
  float weight_decay = 0.0f;
  float clip_norm = 0.0f;
};

/// Base class for first-order optimizers. Handles the shared mechanics:
/// walking parameters, lazy sparse-row updates for embedding tables (driven
/// by Tensor::touched_rows()), weight decay, and gradient clipping.
/// Subclasses implement the per-span update rule.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the gradients accumulated since the last
  /// ZeroGrad. Parameters without gradients are skipped.
  void Step();

  /// Clears gradients on all managed parameters.
  void ZeroGrad();

  const OptimizerOptions& options() const { return options_; }
  void set_learning_rate(float lr) { options_.learning_rate = lr; }
  void set_weight_decay(float wd) { options_.weight_decay = wd; }

 protected:
  Optimizer(std::vector<Tensor> params, const OptimizerOptions& options);

  /// Updates value[begin, begin+count) of parameter `param_index` in place.
  /// `grad_scale` folds in gradient clipping; the effective gradient for
  /// element i is grad[i] * grad_scale + weight_decay * value[i].
  virtual void UpdateSpan(size_t param_index, int64_t begin, int64_t count,
                          float grad_scale) = 0;

  /// Called once per Step before any UpdateSpan (for time-step counters).
  virtual void OnStepBegin() {}

  /// Per-parameter auxiliary state slab, zero-initialized to the parameter
  /// size on first use. `slot` distinguishes multiple slabs (e.g. Adam's
  /// first and second moments).
  std::vector<float>& State(size_t param_index, int slot);

  std::vector<Tensor> params_;

 private:
  OptimizerOptions options_;
  // state_[slot][param_index]
  std::vector<std::vector<std::vector<float>>> state_;

  /// Rewrites a sparse parameter's touched_rows (one entry per gathered
  /// row, duplicates included) as its distinct rows in ascending order —
  /// the order clip_norm's double sum reads them in — so both Step passes
  /// and the next ZeroGrad visit each row once. One pass marks the rows in
  /// row_mark_, a second walks the marks from the lowest touched row to the
  /// highest and clears them: O(touched + row-id span), no sort.
  void DedupTouchedRows(Tensor& p);
  std::vector<uint8_t> row_mark_;  // all zero between calls
};

/// Plain stochastic gradient descent, optionally with momentum.
class SgdOptimizer : public Optimizer {
 public:
  SgdOptimizer(std::vector<Tensor> params, const OptimizerOptions& options,
               float momentum = 0.0f);

 protected:
  void UpdateSpan(size_t param_index, int64_t begin, int64_t count,
                  float grad_scale) override;

 private:
  float momentum_;
};

/// RMSProp (Goodfellow et al. 2016), the optimizer used in the paper's
/// experiments (Section 5.3).
class RmsPropOptimizer : public Optimizer {
 public:
  RmsPropOptimizer(std::vector<Tensor> params, const OptimizerOptions& options,
                   float decay_rate = 0.9f, float epsilon = 1e-8f);

 protected:
  void UpdateSpan(size_t param_index, int64_t begin, int64_t count,
                  float grad_scale) override;

 private:
  float decay_rate_;
  float epsilon_;
};

/// Adagrad (Duchi et al. 2011): per-coordinate accumulation of squared
/// gradients. Naturally lazy for sparse embedding rows.
class AdagradOptimizer : public Optimizer {
 public:
  AdagradOptimizer(std::vector<Tensor> params, const OptimizerOptions& options,
                   float epsilon = 1e-8f);

 protected:
  void UpdateSpan(size_t param_index, int64_t begin, int64_t count,
                  float grad_scale) override;

 private:
  float epsilon_;
};

/// Adam (lazy variant for sparse parameters: moments of untouched rows are
/// not decayed, the standard trick for large embedding tables).
class AdamOptimizer : public Optimizer {
 public:
  AdamOptimizer(std::vector<Tensor> params, const OptimizerOptions& options,
                float beta1 = 0.9f, float beta2 = 0.999f,
                float epsilon = 1e-8f);

 protected:
  void OnStepBegin() override { ++step_; }
  void UpdateSpan(size_t param_index, int64_t begin, int64_t count,
                  float grad_scale) override;

 private:
  float beta1_;
  float beta2_;
  float epsilon_;
  int64_t step_ = 0;
};

/// Factory from a name in {"sgd", "rmsprop", "adagrad", "adam"}; used by
/// experiment configs. Returns InvalidArgument for unknown names.
StatusOr<std::unique_ptr<Optimizer>> MakeOptimizer(
    const std::string& name, std::vector<Tensor> params,
    const OptimizerOptions& options);

}  // namespace scenerec

#endif  // SCENEREC_NN_OPTIMIZER_H_
