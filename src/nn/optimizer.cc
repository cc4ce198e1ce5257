#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scenerec {

Optimizer::Optimizer(std::vector<Tensor> params,
                     const OptimizerOptions& options)
    : params_(std::move(params)), options_(options) {
  for (const Tensor& p : params_) {
    SCENEREC_CHECK(p.defined());
    SCENEREC_CHECK(p.requires_grad()) << "optimizer given frozen tensor";
  }
}

std::vector<float>& Optimizer::State(size_t param_index, int slot) {
  if (state_.size() <= static_cast<size_t>(slot)) {
    state_.resize(static_cast<size_t>(slot) + 1);
  }
  auto& per_param = state_[static_cast<size_t>(slot)];
  if (per_param.size() < params_.size()) per_param.resize(params_.size());
  auto& slab = per_param[param_index];
  if (slab.empty()) {
    slab.assign(static_cast<size_t>(params_[param_index].num_elements()),
                0.0f);
  }
  return slab;
}

namespace {

/// Sparse parameter (embedding table): only the rows listed in
/// touched_rows carry gradient since the last ZeroGrad.
bool IsSparse(const Tensor& p) {
  return !p.touched_rows().empty() && p.shape().rank() == 2;
}

}  // namespace

void Optimizer::DedupTouchedRows(Tensor& p) {
  std::vector<int64_t>& rows = p.node()->touched_rows;
  const auto num_rows = static_cast<size_t>(p.shape().dim(0));
  if (row_mark_.size() < num_rows) row_mark_.resize(num_rows, 0);
  int64_t lo = rows.front();
  int64_t hi = lo;
  for (int64_t row : rows) {
    row_mark_[static_cast<size_t>(row)] = 1;
    lo = std::min(lo, row);
    hi = std::max(hi, row);
  }
  rows.clear();
  for (int64_t row = lo; row <= hi; ++row) {
    uint8_t& mark = row_mark_[static_cast<size_t>(row)];
    if (mark == 0) continue;
    mark = 0;
    rows.push_back(row);
  }
}

void Optimizer::Step() {
  OnStepBegin();
  for (Tensor& p : params_) {
    if (!p.grad().empty() && IsSparse(p)) DedupTouchedRows(p);
  }

  // Optional global gradient-norm clipping: one pass to measure, then the
  // scale factor is folded into every span update.
  float grad_scale = 1.0f;
  if (options_.clip_norm > 0.0f) {
    double sq = 0.0;
    for (const Tensor& p : params_) {
      const auto& g = p.grad();
      if (g.empty()) continue;
      if (IsSparse(p)) {
        const int64_t cols = p.shape().dim(1);
        for (int64_t row : p.touched_rows()) {
          const float* gr = g.data() + row * cols;
          for (int64_t c = 0; c < cols; ++c) {
            sq += static_cast<double>(gr[c]) * gr[c];
          }
        }
      } else {
        for (float v : g) sq += static_cast<double>(v) * v;
      }
    }
    const double norm = std::sqrt(sq);
    if (norm > options_.clip_norm) {
      grad_scale = static_cast<float>(options_.clip_norm / norm);
    }
  }

  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad().empty()) continue;  // No gradient flowed into this parameter.
    if (IsSparse(p)) {
      // Sparse parameter: update only rows touched since last ZeroGrad.
      const int64_t cols = p.shape().dim(1);
      for (int64_t row : p.touched_rows()) {
        UpdateSpan(i, row * cols, cols, grad_scale);
      }
    } else {
      UpdateSpan(i, 0, p.num_elements(), grad_scale);
    }
  }
}

void Optimizer::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

// -- SGD ----------------------------------------------------------------------

SgdOptimizer::SgdOptimizer(std::vector<Tensor> params,
                           const OptimizerOptions& options, float momentum)
    : Optimizer(std::move(params), options), momentum_(momentum) {}

void SgdOptimizer::UpdateSpan(size_t param_index, int64_t begin, int64_t count,
                              float grad_scale) {
  Tensor& p = params_[param_index];
  float* value = p.mutable_value().data();
  const float* grad = p.grad().data();
  const float lr = options().learning_rate;
  const float wd = options().weight_decay;
  if (momentum_ > 0.0f) {
    float* velocity = State(param_index, 0).data();
    for (int64_t i = begin; i < begin + count; ++i) {
      const float g = grad[i] * grad_scale + wd * value[i];
      velocity[i] = momentum_ * velocity[i] + g;
      value[i] -= lr * velocity[i];
    }
  } else {
    for (int64_t i = begin; i < begin + count; ++i) {
      const float g = grad[i] * grad_scale + wd * value[i];
      value[i] -= lr * g;
    }
  }
}

// -- RMSProp ------------------------------------------------------------------

RmsPropOptimizer::RmsPropOptimizer(std::vector<Tensor> params,
                                   const OptimizerOptions& options,
                                   float decay_rate, float epsilon)
    : Optimizer(std::move(params), options),
      decay_rate_(decay_rate),
      epsilon_(epsilon) {}

void RmsPropOptimizer::UpdateSpan(size_t param_index, int64_t begin,
                                  int64_t count, float grad_scale) {
  Tensor& p = params_[param_index];
  float* value = p.mutable_value().data();
  const float* grad = p.grad().data();
  float* cache = State(param_index, 0).data();
  const float lr = options().learning_rate;
  const float wd = options().weight_decay;
  for (int64_t i = begin; i < begin + count; ++i) {
    const float g = grad[i] * grad_scale + wd * value[i];
    cache[i] = decay_rate_ * cache[i] + (1.0f - decay_rate_) * g * g;
    value[i] -= lr * g / (std::sqrt(cache[i]) + epsilon_);
  }
}

// -- Adagrad -------------------------------------------------------------------

AdagradOptimizer::AdagradOptimizer(std::vector<Tensor> params,
                                   const OptimizerOptions& options,
                                   float epsilon)
    : Optimizer(std::move(params), options), epsilon_(epsilon) {}

void AdagradOptimizer::UpdateSpan(size_t param_index, int64_t begin,
                                  int64_t count, float grad_scale) {
  Tensor& p = params_[param_index];
  float* value = p.mutable_value().data();
  const float* grad = p.grad().data();
  float* accum = State(param_index, 0).data();
  const float lr = options().learning_rate;
  const float wd = options().weight_decay;
  for (int64_t i = begin; i < begin + count; ++i) {
    const float g = grad[i] * grad_scale + wd * value[i];
    accum[i] += g * g;
    value[i] -= lr * g / (std::sqrt(accum[i]) + epsilon_);
  }
}

// -- Adam ----------------------------------------------------------------------

AdamOptimizer::AdamOptimizer(std::vector<Tensor> params,
                             const OptimizerOptions& options, float beta1,
                             float beta2, float epsilon)
    : Optimizer(std::move(params), options),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {}

void AdamOptimizer::UpdateSpan(size_t param_index, int64_t begin,
                               int64_t count, float grad_scale) {
  Tensor& p = params_[param_index];
  float* value = p.mutable_value().data();
  const float* grad = p.grad().data();
  float* m = State(param_index, 0).data();
  float* v = State(param_index, 1).data();
  const float lr = options().learning_rate;
  const float wd = options().weight_decay;
  const float bias1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bias2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_));
  for (int64_t i = begin; i < begin + count; ++i) {
    const float g = grad[i] * grad_scale + wd * value[i];
    m[i] = beta1_ * m[i] + (1.0f - beta1_) * g;
    v[i] = beta2_ * v[i] + (1.0f - beta2_) * g * g;
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    value[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon_);
  }
}

// -- Factory -------------------------------------------------------------------

StatusOr<std::unique_ptr<Optimizer>> MakeOptimizer(
    const std::string& name, std::vector<Tensor> params,
    const OptimizerOptions& options) {
  if (name == "sgd") {
    return std::unique_ptr<Optimizer>(
        new SgdOptimizer(std::move(params), options));
  }
  if (name == "rmsprop") {
    return std::unique_ptr<Optimizer>(
        new RmsPropOptimizer(std::move(params), options));
  }
  if (name == "adagrad") {
    return std::unique_ptr<Optimizer>(
        new AdagradOptimizer(std::move(params), options));
  }
  if (name == "adam") {
    return std::unique_ptr<Optimizer>(
        new AdamOptimizer(std::move(params), options));
  }
  return Status::InvalidArgument("unknown optimizer: " + name);
}

}  // namespace scenerec
