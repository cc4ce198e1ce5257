#ifndef SCENEREC_TESTS_TEST_UTIL_H_
#define SCENEREC_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/evaluator.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace scenerec {
namespace testing {

/// Verifies autograd gradients of `forward` against central finite
/// differences for every element of every tensor in `params`, via the
/// library's own CheckGradients (tensor/grad_check.h).
///
/// `forward` must rebuild the computation graph from the *current* values of
/// the parameter tensors and return a scalar loss. Parameters must have
/// requires_grad set.
inline void ExpectGradientsClose(const std::function<Tensor()>& forward,
                                 std::vector<Tensor> params, float eps = 2e-3f,
                                 float rtol = 4e-2f, float atol = 2e-3f) {
  auto report =
      CheckGradients(forward, std::move(params), eps, rtol, atol);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->passed) << report->ToString();
}

/// EXPECT_NEAR over all elements of two float vectors.
inline void ExpectVectorNear(const std::vector<float>& got,
                             const std::vector<float>& want,
                             float tol = 1e-5f) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

/// A fresh directory /tmp/<prefix>_XXXXXX (mkdtemp), removed with
/// everything in it when the object goes out of scope, so a test leaves
/// nothing behind whether it passes or fails.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix) {
    std::string tmpl = "/tmp/" + prefix + "_XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) {
      path_ = tmpl;
    } else {
      ADD_FAILURE() << "mkdtemp failed for " << tmpl;
    }
  }
  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Lifts a per-pair score function `pair(user, item) -> float` into a
/// BlockScoreFn that scores every candidate independently: the stand-in
/// scorer for evaluator and Top-N tests.
template <typename PairFn>
BlockScoreFn PerPair(PairFn pair) {
  return [pair = std::move(pair)](int64_t user, std::span<const int64_t> items,
                                  std::span<float> out) {
    for (size_t r = 0; r < items.size(); ++r) out[r] = pair(user, items[r]);
  };
}

}  // namespace testing
}  // namespace scenerec

#endif  // SCENEREC_TESTS_TEST_UTIL_H_
