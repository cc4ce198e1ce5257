#include "nn/linear.h"

#include "tensor/ops.h"

namespace scenerec {

Linear::Linear(int64_t in_dim, int64_t out_dim, Activation activation,
               Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      activation_(activation),
      weight_(Tensor::XavierUniform(out_dim, in_dim, rng)),
      bias_(Tensor::Zeros(Shape({out_dim}), /*requires_grad=*/true)) {}

Tensor Linear::Forward(const Tensor& x) const {
  return LinearAct(weight_, x, bias_, ToFusedAct(activation_));
}

Tensor Linear::ForwardRows(const Tensor& xs) const {
  return LinearActRows(weight_, xs, bias_, ToFusedAct(activation_));
}

void Linear::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(weight_);
  out->push_back(bias_);
}

}  // namespace scenerec
