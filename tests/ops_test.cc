#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/telemetry.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

using testing::ExpectGradientsClose;
using testing::ExpectVectorNear;

// Forward-value tests for every op. Gradient correctness is covered
// separately in grad_check_test.cc.

TEST(OpsForwardTest, Add) {
  Tensor a = Tensor::FromVector(Shape({3}), {1, 2, 3});
  Tensor b = Tensor::FromVector(Shape({3}), {10, 20, 30});
  ExpectVectorNear(Add(a, b).value(), {11, 22, 33});
}

TEST(OpsForwardTest, AddBiasBroadcast) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromVector(Shape({3}), {10, 20, 30});
  ExpectVectorNear(Add(a, bias).value(), {11, 22, 33, 14, 25, 36});
}

TEST(OpsForwardTest, SubMulDiv) {
  Tensor a = Tensor::FromVector(Shape({2}), {6, 8});
  Tensor b = Tensor::FromVector(Shape({2}), {2, 4});
  ExpectVectorNear(Sub(a, b).value(), {4, 4});
  ExpectVectorNear(Mul(a, b).value(), {12, 32});
  ExpectVectorNear(Div(a, b).value(), {3, 2});
}

TEST(OpsForwardTest, ScaleAddScalarNeg) {
  Tensor a = Tensor::FromVector(Shape({2}), {1, -2});
  ExpectVectorNear(Scale(a, 3.0f).value(), {3, -6});
  ExpectVectorNear(AddScalar(a, 1.5f).value(), {2.5f, -0.5f});
  ExpectVectorNear(Neg(a).value(), {-1, 2});
}

TEST(OpsForwardTest, SigmoidKnownValues) {
  Tensor a = Tensor::FromVector(Shape({3}), {0.0f, 100.0f, -100.0f});
  auto v = Sigmoid(a).value();
  EXPECT_NEAR(v[0], 0.5f, 1e-6);
  EXPECT_NEAR(v[1], 1.0f, 1e-6);
  EXPECT_NEAR(v[2], 0.0f, 1e-6);
}

TEST(OpsForwardTest, TanhReluLeakyRelu) {
  Tensor a = Tensor::FromVector(Shape({2}), {1.0f, -2.0f});
  EXPECT_NEAR(Tanh(a).at(0), std::tanh(1.0f), 1e-6);
  ExpectVectorNear(Relu(a).value(), {1.0f, 0.0f});
  ExpectVectorNear(LeakyRelu(a, 0.1f).value(), {1.0f, -0.2f});
}

TEST(OpsForwardTest, SoftplusStableAtExtremes) {
  Tensor a = Tensor::FromVector(Shape({3}), {0.0f, 50.0f, -50.0f});
  auto v = Softplus(a).value();
  EXPECT_NEAR(v[0], std::log(2.0f), 1e-6);
  EXPECT_NEAR(v[1], 50.0f, 1e-4);
  EXPECT_NEAR(v[2], 0.0f, 1e-6);
  EXPECT_TRUE(std::isfinite(v[1]));
}

TEST(OpsForwardTest, ExpLogSqrt) {
  Tensor a = Tensor::FromVector(Shape({2}), {0.0f, 1.0f});
  ExpectVectorNear(Exp(a).value(), {1.0f, std::exp(1.0f)});
  Tensor b = Tensor::FromVector(Shape({2}), {1.0f, std::exp(2.0f)});
  ExpectVectorNear(Log(b).value(), {0.0f, 2.0f}, 1e-4f);
  Tensor c = Tensor::FromVector(Shape({2}), {4.0f, 9.0f});
  ExpectVectorNear(Sqrt(c).value(), {2.0f, 3.0f});
}

TEST(OpsForwardTest, SumMean) {
  Tensor a = Tensor::FromVector(Shape({4}), {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).scalar(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).scalar(), 2.5f);
}

TEST(OpsForwardTest, SumRowsMeanRows) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  ExpectVectorNear(SumRows(a).value(), {5, 7, 9});
  ExpectVectorNear(MeanRows(a).value(), {2.5f, 3.5f, 4.5f});
}

TEST(OpsForwardTest, MatMul) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  // [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154]
  ExpectVectorNear(MatMul(a, b).value(), {58, 64, 139, 154});
}

TEST(OpsForwardTest, MatVec) {
  Tensor w = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor x = Tensor::FromVector(Shape({3}), {1, 0, -1});
  ExpectVectorNear(MatVec(w, x).value(), {-2, -2});
}

TEST(OpsForwardTest, Dot) {
  Tensor a = Tensor::FromVector(Shape({3}), {1, 2, 3});
  Tensor b = Tensor::FromVector(Shape({3}), {4, -5, 6});
  EXPECT_FLOAT_EQ(Dot(a, b).scalar(), 12.0f);
}

TEST(OpsForwardTest, CosineSimilarityKnownValues) {
  Tensor a = Tensor::FromVector(Shape({2}), {1, 0});
  Tensor b = Tensor::FromVector(Shape({2}), {0, 1});
  EXPECT_NEAR(CosineSimilarity(a, b).scalar(), 0.0f, 1e-5);
  Tensor c = Tensor::FromVector(Shape({2}), {2, 0});
  EXPECT_NEAR(CosineSimilarity(a, c).scalar(), 1.0f, 1e-4);
  Tensor d = Tensor::FromVector(Shape({2}), {-3, 0});
  EXPECT_NEAR(CosineSimilarity(a, d).scalar(), -1.0f, 1e-4);
}

TEST(OpsForwardTest, CosineSimilarityZeroVectorIsFinite) {
  Tensor a = Tensor::FromVector(Shape({2}), {0, 0});
  Tensor b = Tensor::FromVector(Shape({2}), {1, 1});
  float v = CosineSimilarity(a, b).scalar();
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(v, 0.0f, 1e-3);
}

TEST(OpsForwardTest, Concat) {
  Tensor a = Tensor::FromVector(Shape({2}), {1, 2});
  Tensor b = Tensor::FromVector(Shape({3}), {3, 4, 5});
  Tensor c = Concat({a, b});
  EXPECT_EQ(c.shape(), Shape({5}));
  ExpectVectorNear(c.value(), {1, 2, 3, 4, 5});
}

TEST(OpsForwardTest, StackScalars) {
  Tensor s = Stack({Tensor::Scalar(1), Tensor::Scalar(2), Tensor::Scalar(3)});
  EXPECT_EQ(s.shape(), Shape({3}));
  ExpectVectorNear(s.value(), {1, 2, 3});
}

TEST(OpsForwardTest, StackRows) {
  Tensor r0 = Tensor::FromVector(Shape({2}), {1, 2});
  Tensor r1 = Tensor::FromVector(Shape({2}), {3, 4});
  Tensor m = StackRows({r0, r1});
  EXPECT_EQ(m.shape(), Shape({2, 2}));
  ExpectVectorNear(m.value(), {1, 2, 3, 4});
}

TEST(OpsForwardTest, RowSlice) {
  Tensor a = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  ExpectVectorNear(Row(a, 1).value(), {3, 4});
  ExpectVectorNear(Row(a, 2).value(), {5, 6});
}

TEST(OpsForwardTest, Reshape) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, Shape({6}));
  EXPECT_EQ(r.shape(), Shape({6}));
  ExpectVectorNear(r.value(), {1, 2, 3, 4, 5, 6});
}

TEST(OpsForwardTest, GatherRowsWithDuplicates) {
  Tensor table = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  Tensor g = Gather(table, {2, 0, 2});
  EXPECT_EQ(g.shape(), Shape({3, 2}));
  ExpectVectorNear(g.value(), {5, 6, 1, 2, 5, 6});
}

TEST(OpsForwardTest, SoftmaxNormalizes) {
  Tensor logits = Tensor::FromVector(Shape({3}), {1.0f, 2.0f, 3.0f});
  auto p = Softmax(logits).value();
  float sum = p[0] + p[1] + p[2];
  EXPECT_NEAR(sum, 1.0f, 1e-6);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(OpsForwardTest, SoftmaxStableForLargeLogits) {
  Tensor logits = Tensor::FromVector(Shape({2}), {1000.0f, 1000.0f});
  auto p = Softmax(logits).value();
  EXPECT_NEAR(p[0], 0.5f, 1e-6);
  EXPECT_NEAR(p[1], 0.5f, 1e-6);
}

TEST(OpsForwardTest, WeightedSumRows) {
  Tensor rows = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor w = Tensor::FromVector(Shape({2}), {0.25f, 0.75f});
  ExpectVectorNear(WeightedSumRows(rows, w).value(),
                   {3.25f, 4.25f, 5.25f});
}

TEST(OpsForwardTest, MaxRows) {
  Tensor a = Tensor::FromVector(Shape({3, 2}), {1, 9, 5, 2, 3, 4});
  ExpectVectorNear(MaxRows(a).value(), {5, 9});
}

TEST(OpsForwardTest, MaxRowsGradientGoesToArgmax) {
  Tensor a = Tensor::FromVector(Shape({2, 2}), {1, 9, 5, 2},
                                /*requires_grad=*/true);
  Backward(Sum(MaxRows(a)));
  ExpectVectorNear(a.grad(), {0, 1, 1, 0});
}

TEST(OpsForwardTest, L2NormalizeRowsUnitNorm) {
  Tensor a = Tensor::FromVector(Shape({2, 2}), {3, 4, 0, 5});
  auto v = L2NormalizeRows(a).value();
  EXPECT_NEAR(v[0], 0.6f, 1e-5);
  EXPECT_NEAR(v[1], 0.8f, 1e-5);
  EXPECT_NEAR(v[2], 0.0f, 1e-5);
  EXPECT_NEAR(v[3], 1.0f, 1e-5);
}

TEST(OpsForwardTest, L2NormalizeZeroRowIsFinite) {
  Tensor a = Tensor::FromVector(Shape({1, 3}), {0, 0, 0});
  const std::vector<float> values = L2NormalizeRows(a).value();
  for (float v : values) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(OpsForwardTest, DropoutZeroRateIsIdentity) {
  Rng rng(1);
  Tensor a = Tensor::FromVector(Shape({4}), {1, 2, 3, 4});
  ExpectVectorNear(Dropout(a, 0.0f, rng).value(), {1, 2, 3, 4});
}

TEST(OpsForwardTest, DropoutKeepsExpectationAndZeroesSome) {
  Rng rng(2);
  Tensor a = Tensor::Full(Shape({10000}), 1.0f);
  auto v = Dropout(a, 0.3f, rng).value();
  int64_t zeros = 0;
  double sum = 0;
  for (float x : v) {
    if (x == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(x, 1.0f / 0.7f, 1e-5);
    }
    sum += x;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.3, 0.02);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.03);
}

TEST(OpsForwardTest, BprPairLossValues) {
  // pos >> neg -> loss near 0; pos << neg -> loss near (neg - pos).
  Tensor big = BprPairLoss(Tensor::Scalar(10.0f), Tensor::Scalar(-10.0f));
  EXPECT_NEAR(big.scalar(), 0.0f, 1e-4);
  Tensor bad = BprPairLoss(Tensor::Scalar(-10.0f), Tensor::Scalar(10.0f));
  EXPECT_NEAR(bad.scalar(), 20.0f, 1e-3);
  Tensor even = BprPairLoss(Tensor::Scalar(1.0f), Tensor::Scalar(1.0f));
  EXPECT_NEAR(even.scalar(), std::log(2.0f), 1e-5);
}

// -- Fused / batched ops ------------------------------------------------------

TEST(FusedOpsTest, LinearActMatchesComposition) {
  Rng rng(11);
  Tensor w = Tensor::RandomUniform(Shape({3, 4}), -1, 1, rng);
  Tensor x = Tensor::RandomUniform(Shape({4}), -1, 1, rng);
  Tensor b = Tensor::RandomUniform(Shape({3}), -1, 1, rng);
  Tensor composed = Sigmoid(Add(MatVec(w, x), b));
  Tensor fused = LinearSigmoid(w, x, b);
  EXPECT_EQ(fused.shape(), Shape({3}));
  ExpectVectorNear(fused.value(), composed.value(), 1e-6f);
}

TEST(FusedOpsTest, LinearActRowsBitwiseEqualsSingleRows) {
  Rng rng(12);
  Tensor w = Tensor::RandomUniform(Shape({5, 7}), -1, 1, rng);
  Tensor b = Tensor::RandomUniform(Shape({5}), -1, 1, rng);
  Tensor xs = Tensor::RandomUniform(Shape({4, 7}), -1, 1, rng);
  Tensor batched = LinearActRows(w, xs, b, kernels::FusedAct::kLeakyRelu);
  ASSERT_EQ(batched.shape(), Shape({4, 5}));
  for (int64_t r = 0; r < 4; ++r) {
    Tensor single =
        LinearAct(w, Row(xs, r), b, kernels::FusedAct::kLeakyRelu);
    for (int64_t j = 0; j < 5; ++j) {
      // Bitwise equality: the batched path must use the identical per-row
      // kernel (the parallel-vs-serial eval tests depend on this).
      EXPECT_EQ(batched.at(r * 5 + j), single.at(j)) << r << "," << j;
    }
  }
}

TEST(FusedOpsTest, MatVecBatchBitwiseEqualsMatVec) {
  Rng rng(13);
  Tensor w = Tensor::RandomUniform(Shape({6, 3}), -1, 1, rng);
  Tensor xs = Tensor::RandomUniform(Shape({5, 3}), -1, 1, rng);
  Tensor batched = MatVecBatch(w, xs);
  ASSERT_EQ(batched.shape(), Shape({5, 6}));
  for (int64_t r = 0; r < 5; ++r) {
    Tensor single = MatVec(w, Row(xs, r));
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_EQ(batched.at(r * 6 + j), single.at(j)) << r << "," << j;
    }
  }
}

TEST(FusedOpsTest, FusedCosineMatchesUnfused) {
  Rng rng(14);
  Tensor a = Tensor::RandomUniform(Shape({9}), -1, 1, rng);
  Tensor b = Tensor::RandomUniform(Shape({9}), -1, 1, rng);
  EXPECT_NEAR(CosineSimilarity(a, b).scalar(),
              CosineSimilarityUnfused(a, b).scalar(), 1e-5f);
}

TEST(FusedOpsTest, ConcatColsValues) {
  Tensor a = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape({2, 3}), {5, 6, 7, 8, 9, 10});
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 5}));
  ExpectVectorNear(c.value(), {1, 2, 5, 6, 7, 3, 4, 8, 9, 10});
}

TEST(FusedOpsTest, GatherRowsValues) {
  Tensor a = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.shape(), Shape({3, 2}));
  ExpectVectorNear(g.value(), {5, 6, 1, 2, 5, 6});
}

// -- Gradient checks for the fused / batched ops ------------------------------

TEST(FusedOpsGradTest, LinearActAllActivations) {
  const kernels::FusedAct acts[] = {
      kernels::FusedAct::kNone, kernels::FusedAct::kSigmoid,
      kernels::FusedAct::kTanh, kernels::FusedAct::kRelu,
      kernels::FusedAct::kLeakyRelu};
  for (kernels::FusedAct act : acts) {
    Rng rng(20 + static_cast<int>(act));
    Tensor w = Tensor::RandomUniform(Shape({3, 4}), -1, 1, rng, true);
    Tensor x = Tensor::RandomUniform(Shape({4}), 0.1f, 1, rng, true);
    Tensor b = Tensor::RandomUniform(Shape({3}), -1, 1, rng, true);
    ExpectGradientsClose([&] { return Sum(LinearAct(w, x, b, act)); },
                         {w, x, b});
  }
}

TEST(FusedOpsGradTest, LinearSigmoid) {
  Rng rng(25);
  Tensor w = Tensor::RandomUniform(Shape({2, 5}), -1, 1, rng, true);
  Tensor x = Tensor::RandomUniform(Shape({5}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({2}), -1, 1, rng, true);
  ExpectGradientsClose([&] { return Sum(LinearSigmoid(w, x, b)); }, {w, x, b});
}

TEST(FusedOpsGradTest, LinearActRows) {
  Rng rng(26);
  Tensor w = Tensor::RandomUniform(Shape({3, 4}), -1, 1, rng, true);
  Tensor xs = Tensor::RandomUniform(Shape({5, 4}), 0.1f, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({3}), -1, 1, rng, true);
  ExpectGradientsClose(
      [&] {
        return Sum(LinearActRows(w, xs, b, kernels::FusedAct::kTanh));
      },
      {w, xs, b});
}

TEST(FusedOpsGradTest, MatVecBatch) {
  Rng rng(27);
  Tensor w = Tensor::RandomUniform(Shape({4, 3}), -1, 1, rng, true);
  Tensor xs = Tensor::RandomUniform(Shape({6, 3}), -1, 1, rng, true);
  ExpectGradientsClose([&] { return Sum(MatVecBatch(w, xs)); }, {w, xs});
}

TEST(FusedOpsGradTest, FusedCosineSimilarity) {
  Rng rng(28);
  Tensor a = Tensor::RandomUniform(Shape({6}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({6}), -1, 1, rng, true);
  ExpectGradientsClose([&] { return CosineSimilarity(a, b); }, {a, b});
}

TEST(FusedOpsGradTest, FusedCosineSimilarityNearZeroVectors) {
  // The eps-regularized gradient must stay finite and match finite
  // differences even when one input is (almost) the zero vector.
  Tensor a = Tensor::FromVector(Shape({3}), {1e-3f, -1e-3f, 1e-3f},
                                /*requires_grad=*/true);
  Tensor b = Tensor::FromVector(Shape({3}), {0.5f, -0.25f, 1.0f},
                                /*requires_grad=*/true);
  ExpectGradientsClose([&] { return CosineSimilarity(a, b); }, {a, b},
                       /*eps=*/1e-4f, /*rtol=*/8e-2f, /*atol=*/5e-3f);
}

TEST(FusedOpsGradTest, ConcatCols) {
  Rng rng(29);
  Tensor a = Tensor::RandomUniform(Shape({3, 2}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({3, 4}), -1, 1, rng, true);
  ExpectGradientsClose([&] { return Sum(ConcatCols(a, b)); }, {a, b});
}

TEST(FusedOpsGradTest, GatherRowsWithDuplicates) {
  Rng rng(30);
  Tensor a = Tensor::RandomUniform(Shape({4, 3}), -1, 1, rng, true);
  ExpectGradientsClose(
      [&] { return Sum(GatherRows(a, {1, 3, 1, 0})); }, {a});
}

// -- CosineAttention vs its composition, bitwise -------------------------------

using AttentionFn = Tensor (*)(const Tensor&, const Tensor&,
                               const std::vector<Tensor>&);

/// The four-op composition CosineAttention replaces (eqs. (4)-(6)).
Tensor ComposedAttention(const Tensor& values, const Tensor& query,
                         const std::vector<Tensor>& keys) {
  std::vector<Tensor> logits;
  logits.reserve(keys.size());
  for (const Tensor& key : keys) logits.push_back(CosineSimilarity(query, key));
  return WeightedSumRows(values, Softmax(Stack(logits)));
}

Tensor FusedAttention(const Tensor& values, const Tensor& query,
                      const std::vector<Tensor>& keys) {
  return CosineAttention(values, query, keys);
}

/// Builds one loss graph with the given attention and returns
/// {loss, tensors whose value and gradient are compared...}.
using AttentionGraph = std::function<std::vector<Tensor>(AttentionFn)>;

void ExpectBitwiseEqual(const std::vector<float>& got,
                        const std::vector<float>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (got.empty()) return;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

class CosineAttentionTest : public ::testing::Test {
 protected:
  // 19 straddles Dot's 8-lane bank and leaves a scalar tail.
  static constexpr int64_t kDim = 19;

  /// Neighbour rows gathered from a parameter table, like LookupMany.
  Tensor Values(int64_t k) const {
    std::vector<int64_t> ids;
    for (int64_t r = 0; r < k; ++r) ids.push_back((5 * r + 2) % 24);
    return Gather(item_table_, ids);
  }

  /// A scene-sum memo (SceneRec::SceneSum): a sum of gathered scene rows.
  Tensor SceneMemo(int64_t c) const {
    return SumRows(Gather(scene_table_, {c % 30, (c + 7) % 30, (3 * c + 1) % 30}));
  }

  /// A fixed non-uniform projection to a scalar loss.
  static Tensor Projection(int64_t n) {
    std::vector<float> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = 0.3f - 0.11f * static_cast<float>(i % 7);
    }
    return Tensor::FromVector(Shape({n}), std::move(v));
  }

  /// Runs `build` once per attention form from zeroed parameter gradients
  /// and compares every watched value and gradient, and every parameter
  /// gradient, byte for byte.
  void ExpectFusedMatchesComposed(const AttentionGraph& build,
                                  std::vector<Tensor> leaves = {}) {
    leaves.push_back(item_table_);
    leaves.push_back(scene_table_);
    auto run = [&](AttentionFn attend) {
      for (Tensor& leaf : leaves) leaf.ZeroGrad();
      std::vector<Tensor> watched = build(attend);
      Backward(watched[0]);
      std::vector<std::vector<float>> bytes;
      for (const Tensor& t : watched) {
        bytes.push_back(t.value());
        bytes.push_back(t.grad());
      }
      for (const Tensor& leaf : leaves) bytes.push_back(leaf.grad());
      return bytes;
    };
    const auto want = run(ComposedAttention);
    const auto got = run(FusedAttention);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectBitwiseEqual(got[i], want[i], "buffer " + std::to_string(i));
    }
  }

  Rng rng_{41};
  Tensor item_table_ =
      Tensor::RandomUniform(Shape({24, kDim}), -1, 1, rng_, true);
  Tensor scene_table_ =
      Tensor::RandomUniform(Shape({30, kDim}), -1, 1, rng_, true);
};

TEST_F(CosineAttentionTest, KeyCounts) {
  for (int64_t k : {1, 3, 20}) {
    SCOPED_TRACE(k);
    ExpectFusedMatchesComposed([&](AttentionFn attend) {
      Tensor values = Values(k);
      Tensor query = SceneMemo(0);
      std::vector<Tensor> keys;
      for (int64_t r = 0; r < k; ++r) keys.push_back(SceneMemo(r + 1));
      Tensor out = attend(values, query, keys);
      std::vector<Tensor> watched = {Dot(out, Projection(kDim)), out, values,
                                     query};
      watched.insert(watched.end(), keys.begin(), keys.end());
      return watched;
    });
  }
}

TEST_F(CosineAttentionTest, RepeatedKey) {
  ExpectFusedMatchesComposed([&](AttentionFn attend) {
    Tensor values = Values(4);
    Tensor query = SceneMemo(0);
    Tensor m1 = SceneMemo(1);
    Tensor m2 = SceneMemo(2);
    Tensor out = attend(values, query, {m1, m2, m1, m1});
    return std::vector<Tensor>{Dot(out, Projection(kDim)), out, values, query,
                               m1, m2};
  });
}

TEST_F(CosineAttentionTest, KeyIsQuery) {
  ExpectFusedMatchesComposed([&](AttentionFn attend) {
    Tensor values = Values(4);
    Tensor query = SceneMemo(0);
    Tensor m1 = SceneMemo(1);
    Tensor m2 = SceneMemo(2);
    Tensor out = attend(values, query, {m1, query, m2, query});
    return std::vector<Tensor>{Dot(out, Projection(kDim)), out, values, query,
                               m1, m2};
  });
}

TEST_F(CosineAttentionTest, ZeroKeyAndZeroQuery) {
  // All-zero vectors take the epsilon path: cosine 0, finite gradients.
  // A category without scenes is a constant zero memo; a trainable zero
  // vector also receives gradient.
  Tensor zero_leaf = Tensor::Zeros(Shape({kDim}), /*requires_grad=*/true);
  ExpectFusedMatchesComposed(
      [&](AttentionFn attend) {
        Tensor values = Values(4);
        Tensor query = SceneMemo(0);
        Tensor zero = Tensor::Zeros(Shape({kDim}));
        Tensor m1 = SceneMemo(1);
        Tensor out = attend(values, query, {m1, zero, zero_leaf, m1});
        return std::vector<Tensor>{Dot(out, Projection(kDim)), out, values,
                                   query, m1};
      },
      {zero_leaf});
  ExpectFusedMatchesComposed(
      [&](AttentionFn attend) {
        Tensor values = Values(3);
        Tensor m1 = SceneMemo(1);
        Tensor m2 = SceneMemo(2);
        Tensor out = attend(values, zero_leaf, {m1, m2, zero_leaf});
        return std::vector<Tensor>{Dot(out, Projection(kDim)), out, values,
                                   m1, m2};
      },
      {zero_leaf});
}

TEST_F(CosineAttentionTest, QueryOrKeysWithoutGrad) {
  Rng rng(43);
  Tensor constant_query =
      Tensor::RandomUniform(Shape({kDim}), -1, 1, rng, false);
  Tensor constant_key = Tensor::RandomUniform(Shape({kDim}), -1, 1, rng, false);
  // Constant query, mixed keys.
  ExpectFusedMatchesComposed([&](AttentionFn attend) {
    Tensor values = Values(3);
    Tensor m1 = SceneMemo(1);
    Tensor out = attend(values, constant_query, {m1, constant_key, m1});
    return std::vector<Tensor>{Dot(out, Projection(kDim)), out, values, m1};
  });
  // Trainable query, constant keys.
  ExpectFusedMatchesComposed([&](AttentionFn attend) {
    Tensor values = Values(2);
    Tensor query = SceneMemo(0);
    Tensor out = attend(values, query, {constant_key, constant_query});
    return std::vector<Tensor>{Dot(out, Projection(kDim)), out, values, query};
  });
  // Only the values are trainable: the weights get no gradient.
  ExpectFusedMatchesComposed([&](AttentionFn attend) {
    Tensor values = Values(2);
    Tensor out = attend(values, constant_query, {constant_key, constant_query});
    return std::vector<Tensor>{Dot(out, Projection(kDim)), out, values};
  });
}

TEST_F(CosineAttentionTest, TwoBlocksShareKeys) {
  // SceneRec's category and item attentions read the same scene-sum memos:
  // one block's key can be the other's query.
  ExpectFusedMatchesComposed([&](AttentionFn attend) {
    std::vector<Tensor> memos;
    for (int64_t c = 0; c < 5; ++c) memos.push_back(SceneMemo(c));
    Tensor values_a = Values(3);
    Tensor values_b = Values(4);
    Tensor out_a = attend(values_a, memos[0], {memos[1], memos[2], memos[3]});
    Tensor out_b =
        attend(values_b, memos[2], {memos[3], memos[4], memos[1], memos[0]});
    Tensor loss = Dot(Concat({out_a, out_b}), Projection(2 * kDim));
    std::vector<Tensor> watched = {loss, out_a, out_b, values_a, values_b};
    watched.insert(watched.end(), memos.begin(), memos.end());
    return watched;
  });
}

TEST_F(CosineAttentionTest, EvalModeIsOneNodeWithComposedValue) {
  Tensor query = SceneMemo(0);
  std::vector<Tensor> keys = {SceneMemo(1), SceneMemo(2), query};
  Tensor values = Values(3);
  NoGradGuard no_grad;
  Tensor fused = CosineAttention(values, query, keys);
  EXPECT_TRUE(fused.node()->inputs.empty());
  EXPECT_EQ(fused.node()->backward_fn, nullptr);
  ExpectBitwiseEqual(fused.value(), ComposedAttention(values, query, keys).value(),
                     "eval value");
}

TEST_F(CosineAttentionTest, CountsFlopsOncePerCall) {
  NoGradGuard no_grad;
  Tensor query = SceneMemo(0);
  std::vector<Tensor> keys = {SceneMemo(1), SceneMemo(2), SceneMemo(3)};
  Tensor values = Values(3);
  telemetry::Telemetry::SetEnabled(true);
  telemetry::Telemetry::Reset();
  CosineAttention(values, query, keys);
  const uint64_t flops =
      telemetry::Telemetry::Snapshot().CounterValue("kernels/flops");
  telemetry::Telemetry::Reset();
  telemetry::Telemetry::SetEnabled(false);
  EXPECT_EQ(flops, static_cast<uint64_t>(2 * kDim + 6 * 3 * kDim));
}

// -- Vectorized kernels vs scalar references ----------------------------------

// Shapes straddling the 8-lane accumulator bank and the 4-row GEMM tile:
// 1 and 3 exercise pure tails, 17 a bank plus tail, 63/65 straddle the
// 64-element boundary.
const int64_t kKernelSizes[] = {1, 3, 17, 63, 65};

std::vector<float> RandomVec(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.NextDouble()) * 2.0f - 1.0f;
  return v;
}

void ExpectNearRel(const std::vector<float>& got,
                   const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const float tol = 1e-5f + 1e-4f * std::fabs(want[i]);
    EXPECT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

TEST(KernelEquivalenceTest, DotMatchesRef) {
  Rng rng(40);
  for (int64_t n : kKernelSizes) {
    std::vector<float> a = RandomVec(n, rng);
    std::vector<float> b = RandomVec(n, rng);
    const float want = kernels::DotRef(a.data(), b.data(), n);
    const float got = kernels::Dot(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, 1e-5f + 1e-4f * std::fabs(want)) << "n=" << n;
  }
}

// AddActDot fuses act(a + b) into Dot's lane loop; its contract is bitwise
// equality with the unfused composition, for every activation, on the
// shapes straddling the lane bank. Pre-activations span both signs, so the
// relu/leaky branches and both sigmoid branches are taken.
TEST(KernelEquivalenceTest, AddActDotBitwiseEqualsRef) {
  Rng rng(53);
  const kernels::FusedAct acts[] = {
      kernels::FusedAct::kNone, kernels::FusedAct::kSigmoid,
      kernels::FusedAct::kTanh, kernels::FusedAct::kRelu,
      kernels::FusedAct::kLeakyRelu};
  for (kernels::FusedAct act : acts) {
    for (int64_t n : kKernelSizes) {
      std::vector<float> a = RandomVec(n, rng);
      std::vector<float> b = RandomVec(n, rng);
      std::vector<float> w = RandomVec(n, rng);
      const float want = kernels::AddActDotRef(a.data(), b.data(), w.data(), n,
                                               act, kernels::kLeakySlope);
      const float got = kernels::AddActDot(a.data(), b.data(), w.data(), n,
                                           act, kernels::kLeakySlope);
      EXPECT_EQ(got, want) << "act=" << static_cast<int>(act) << " n=" << n;
    }
  }
}

TEST(KernelEquivalenceTest, GemvMatchesRef) {
  Rng rng(41);
  for (int64_t m : kKernelSizes) {
    for (int64_t n : kKernelSizes) {
      std::vector<float> w = RandomVec(m * n, rng);
      std::vector<float> x = RandomVec(n, rng);
      std::vector<float> want(static_cast<size_t>(m));
      std::vector<float> got(static_cast<size_t>(m));
      kernels::GemvRef(w.data(), m, n, x.data(), want.data());
      kernels::Gemv(w.data(), m, n, x.data(), got.data());
      ExpectNearRel(got, want);
    }
  }
}

TEST(KernelEquivalenceTest, GemmMatchesRef) {
  Rng rng(44);
  for (int64_t m : kKernelSizes) {
    for (int64_t n : kKernelSizes) {
      const int64_t k = 65 - (m % 3);  // vary k a little too
      std::vector<float> a = RandomVec(m * k, rng);
      std::vector<float> b = RandomVec(k * n, rng);
      std::vector<float> want(static_cast<size_t>(m * n));
      std::vector<float> got(static_cast<size_t>(m * n));
      kernels::GemmRef(a.data(), b.data(), want.data(), m, k, n);
      kernels::Gemm(a.data(), b.data(), got.data(), m, k, n);
      ExpectNearRel(got, want);
    }
  }
}

TEST(KernelEquivalenceTest, GemmNTAccumMatchesRef) {
  Rng rng(45);
  for (int64_t m : kKernelSizes) {
    const int64_t n = 33;
    const int64_t k = 17;
    std::vector<float> g = RandomVec(m * n, rng);
    std::vector<float> b = RandomVec(k * n, rng);
    std::vector<float> want = RandomVec(m * k, rng);
    std::vector<float> got = want;
    kernels::GemmNTAccumRef(g.data(), b.data(), want.data(), m, n, k);
    kernels::GemmNTAccum(g.data(), b.data(), got.data(), m, n, k);
    ExpectNearRel(got, want);
  }
}

TEST(KernelEquivalenceTest, GemmTNAccumMatchesRef) {
  Rng rng(46);
  for (int64_t n : kKernelSizes) {
    const int64_t m = 33;
    const int64_t k = 17;
    std::vector<float> a = RandomVec(m * k, rng);
    std::vector<float> g = RandomVec(m * n, rng);
    std::vector<float> want = RandomVec(k * n, rng);
    std::vector<float> got = want;
    kernels::GemmTNAccumRef(a.data(), g.data(), want.data(), m, k, n);
    kernels::GemmTNAccum(a.data(), g.data(), got.data(), m, k, n);
    ExpectNearRel(got, want);
  }
}

// -- Row-batched Linear kernels vs their per-row loops ------------------------
//
// The contract is bitwise (memcmp), so the upstream values include what a
// looser check would miss: ±0 gradients (the zero skip must keep -0 terms
// out), and a row whose gradient is all zeros paired with an inf in x (with
// the skip the inf never meets a 0; without it 0·inf would write NaN).

const kernels::FusedAct kAllActs[] = {
    kernels::FusedAct::kNone, kernels::FusedAct::kSigmoid,
    kernels::FusedAct::kTanh, kernels::FusedAct::kRelu,
    kernels::FusedAct::kLeakyRelu};

struct RowKernelCase {
  int64_t rows, m, n;
  std::vector<float> w, xs, g;
};

// Every combination of rows ∈ {1, 3, 8, 9, 33}, n ∈ {1, 7, 64, 65, 128} and
// m ∈ {1, 64}: single rows, the 4- and 8-query forward groups with and
// without remainders, and column counts below, at and across the 8- and
// 64-wide register tiles.
std::vector<RowKernelCase> RowKernelCases() {
  std::vector<RowKernelCase> cases;
  Rng rng(47);
  for (int64_t rows : {1, 3, 8, 9, 33}) {
    for (int64_t m : {1, 64}) {
      for (int64_t n : {1, 7, 64, 65, 128}) {
        RowKernelCase c{rows, m, n, RandomVec(m * n, rng),
                        RandomVec(rows * n, rng), RandomVec(rows * m, rng)};
        for (size_t e = 0; e < c.g.size(); e += 3) c.g[e] = 0.0f;
        for (size_t e = 1; e < c.g.size(); e += 5) c.g[e] = -0.0f;
        // The last row of a block: inf in x, all-zero gradient.
        if (rows > 1) {
          const int64_t r = rows - 1;
          c.xs[static_cast<size_t>(r * n + n / 2)] =
              std::numeric_limits<float>::infinity();
          for (int64_t i = 0; i < m; ++i) {
            c.g[static_cast<size_t>(r * m + i)] = i % 2 == 0 ? 0.0f : -0.0f;
          }
        }
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The forward: one GemvMulti pass plus the bias/activation sweep equals a
// Gemv and an ActApply per row, for every activation, with and without a
// bias. Rows hold no inf here: the forward has no skip to test.
TEST(KernelEquivalenceTest, GemvBiasActRowsBitwiseEqualsGemv) {
  Rng rng(54);
  for (const RowKernelCase& c : RowKernelCases()) {
    const std::vector<float> xs = RandomVec(c.rows * c.n, rng);
    const std::vector<float> bias = RandomVec(c.m, rng);
    for (kernels::FusedAct act : kAllActs) {
      for (const float* b : {bias.data(), static_cast<const float*>(nullptr)}) {
        std::vector<float> want(static_cast<size_t>(c.rows * c.m));
        std::vector<float> got(want.size());
        kernels::GemvBiasActRowsRef(c.w.data(), c.m, c.n, xs.data(), c.rows, b,
                                    act, kernels::kLeakySlope, want.data());
        kernels::GemvBiasActRows(c.w.data(), c.m, c.n, xs.data(), c.rows, b,
                                 act, kernels::kLeakySlope, got.data());
        EXPECT_TRUE(BitwiseEqual(got, want))
            << "rows=" << c.rows << " m=" << c.m << " n=" << c.n
            << " act=" << static_cast<int>(act) << " bias=" << (b != nullptr);
      }
    }
  }
}

// dW += Σ_r g_rᵀ x_r, through the dispatched kernel (AVX2 where the CPU has
// it) and the portable body, each from a non-zero starting gradient.
TEST(KernelEquivalenceTest, GerRowsAccumBitwiseEqualsPerRowLoop) {
  Rng rng(43);
  for (const RowKernelCase& c : RowKernelCases()) {
    const std::vector<float> start = RandomVec(c.m * c.n, rng);
    std::vector<float> want = start;
    kernels::GerRowsAccumRef(c.g.data(), c.xs.data(), c.rows, c.m, c.n,
                             want.data());
    std::vector<float> dispatched = start;
    kernels::GerRowsAccum(c.g.data(), c.xs.data(), c.rows, c.m, c.n,
                          dispatched.data());
    std::vector<float> portable = start;
    kernels::GerRowsAccumPortable(c.g.data(), c.xs.data(), c.rows, c.m, c.n,
                                  portable.data());
    EXPECT_TRUE(BitwiseEqual(dispatched, want))
        << "rows=" << c.rows << " m=" << c.m << " n=" << c.n;
    EXPECT_TRUE(BitwiseEqual(portable, want))
        << "rows=" << c.rows << " m=" << c.m << " n=" << c.n;
    for (float v : want) EXPECT_FALSE(std::isnan(v));
  }
}

// dX[r] += Σ_i g[r,i] W_i, both dispatch paths.
TEST(KernelEquivalenceTest, GemvTRowsAccumBitwiseEqualsPerRowLoop) {
  Rng rng(42);
  for (const RowKernelCase& c : RowKernelCases()) {
    // W carries the inf here, so the all-zero gradient row must skip it.
    std::vector<float> w = c.w;
    w[static_cast<size_t>(c.m * c.n / 2)] =
        std::numeric_limits<float>::infinity();
    std::vector<float> g = c.g;
    for (int64_t r = 0; r < c.rows; ++r) {
      g[static_cast<size_t>(r * c.m + (c.m * c.n / 2) / c.n)] = 0.0f;
    }
    const std::vector<float> start = RandomVec(c.rows * c.n, rng);
    std::vector<float> want = start;
    kernels::GemvTRowsAccumRef(w.data(), c.m, c.n, g.data(), c.rows,
                               want.data());
    std::vector<float> dispatched = start;
    kernels::GemvTRowsAccum(w.data(), c.m, c.n, g.data(), c.rows,
                            dispatched.data());
    std::vector<float> portable = start;
    kernels::GemvTRowsAccumPortable(w.data(), c.m, c.n, g.data(), c.rows,
                                    portable.data());
    EXPECT_TRUE(BitwiseEqual(dispatched, want))
        << "rows=" << c.rows << " m=" << c.m << " n=" << c.n;
    EXPECT_TRUE(BitwiseEqual(portable, want))
        << "rows=" << c.rows << " m=" << c.m << " n=" << c.n;
    for (float v : want) EXPECT_FALSE(std::isnan(v));
  }
}

// dpre = g · act'(y) with the derivative read off the output.
TEST(KernelEquivalenceTest, ActGradRowsMatchesOutputFormulas) {
  Rng rng(55);
  const int64_t count = 37;
  std::vector<float> g = RandomVec(count, rng);
  g[3] = 0.0f;
  g[4] = -0.0f;
  std::vector<float> y = RandomVec(count, rng);
  y[5] = 0.0f;
  const float s = kernels::kLeakySlope;
  for (kernels::FusedAct act : kAllActs) {
    std::vector<float> got(static_cast<size_t>(count));
    kernels::ActGradRows(g.data(), y.data(), count, act, s, got.data());
    for (size_t e = 0; e < got.size(); ++e) {
      const float v = y[e];
      float d = 1.0f;
      if (act == kernels::FusedAct::kSigmoid) d = v * (1.0f - v);
      if (act == kernels::FusedAct::kTanh) d = 1.0f - v * v;
      if (act == kernels::FusedAct::kRelu) d = v > 0.0f ? 1.0f : 0.0f;
      if (act == kernels::FusedAct::kLeakyRelu) d = v > 0.0f ? 1.0f : s;
      const float want = g[e] * d;
      EXPECT_EQ(std::memcmp(&got[e], &want, sizeof(float)), 0)
          << "act=" << static_cast<int>(act) << " e=" << e;
    }
  }
}

// The whole op, forward and all three gradients, against a loop of
// single-row LinearAct nodes whose backward passes run in ascending row
// order — the order in which the batched kernels add rows into dW and db.
// The upstream gradient reaches each output through Dot with a fixed vector
// that holds zeros, so the zero skips are exercised too.
TEST(FusedOpsTest, LinearActRowsGradientsBitwiseEqualSingleRows) {
  const int64_t rows = 9, m = 5, n = 11;
  for (kernels::FusedAct act : kAllActs) {
    Rng rng(15);
    const std::vector<float> w0 = RandomVec(m * n, rng);
    const std::vector<float> b0 = RandomVec(m, rng);
    const std::vector<float> xs0 = RandomVec(rows * n, rng);
    std::vector<float> up = RandomVec(rows * m, rng);
    for (size_t e = 0; e < up.size(); e += 4) up[e] = 0.0f;

    Tensor w = Tensor::FromVector(Shape({m, n}), w0, /*requires_grad=*/true);
    Tensor b = Tensor::FromVector(Shape({m}), b0, /*requires_grad=*/true);
    Tensor xs =
        Tensor::FromVector(Shape({rows, n}), xs0, /*requires_grad=*/true);
    Tensor batched = LinearActRows(w, xs, b, act);
    Backward(Dot(Reshape(batched, Shape({rows * m})),
                 Tensor::FromVector(Shape({rows * m}), up)));

    Tensor ws = Tensor::FromVector(Shape({m, n}), w0, /*requires_grad=*/true);
    Tensor bs = Tensor::FromVector(Shape({m}), b0, /*requires_grad=*/true);
    for (int64_t r = 0; r < rows; ++r) {
      Tensor x = Tensor::FromVector(
          Shape({n}),
          std::vector<float>(xs0.begin() + r * n, xs0.begin() + (r + 1) * n),
          /*requires_grad=*/true);
      Tensor y = LinearAct(ws, x, bs, act);
      const std::vector<float> up_r(up.begin() + r * m,
                                    up.begin() + (r + 1) * m);
      Backward(Dot(y, Tensor::FromVector(Shape({m}), up_r)));
      const auto at = static_cast<size_t>(r);
      EXPECT_EQ(std::memcmp(batched.value().data() + at * m, y.value().data(),
                            sizeof(float) * m),
                0)
          << "forward act=" << static_cast<int>(act) << " r=" << r;
      EXPECT_EQ(std::memcmp(xs.grad().data() + at * n, x.grad().data(),
                            sizeof(float) * n),
                0)
          << "dX act=" << static_cast<int>(act) << " r=" << r;
    }
    EXPECT_EQ(std::memcmp(w.grad().data(), ws.grad().data(),
                          sizeof(float) * m * n),
              0)
        << "dW act=" << static_cast<int>(act);
    EXPECT_EQ(std::memcmp(b.grad().data(), bs.grad().data(), sizeof(float) * m),
              0)
        << "db act=" << static_cast<int>(act);
  }
}

TEST(KernelEquivalenceTest, GemvMultiMatchesRef) {
  Rng rng(50);
  for (int64_t m : kKernelSizes) {
    for (int64_t n : kKernelSizes) {
      const int64_t nq = 5;
      std::vector<float> w = RandomVec(m * n, rng);
      std::vector<float> xs = RandomVec(nq * n, rng);
      std::vector<float> want(static_cast<size_t>(nq * m));
      std::vector<float> got(static_cast<size_t>(nq * m));
      kernels::GemvMultiRef(w.data(), m, n, xs.data(), nq, want.data());
      kernels::GemvMulti(w.data(), m, n, xs.data(), nq, got.data());
      ExpectNearRel(got, want);
    }
  }
}

// nq = 1..9 covers every dispatch shape: the scalar remainder alone, the
// 4-query SSE2/AVX2 group plus remainders, and the 8-query AVX2 group
// plus a trailing query. Bitwise — GemvMulti's contract is that batching
// queries cannot change a single bit of any result.
TEST(KernelEquivalenceTest, GemvMultiBitwiseEqualsGemv) {
  Rng rng(51);
  for (int64_t nq = 1; nq <= 9; ++nq) {
    for (int64_t n : {17LL, 64LL}) {
      const int64_t m = 37;
      std::vector<float> w = RandomVec(m * n, rng);
      std::vector<float> xs = RandomVec(nq * n, rng);
      std::vector<float> batched(static_cast<size_t>(nq * m));
      kernels::GemvMulti(w.data(), m, n, xs.data(), nq, batched.data());
      for (int64_t q = 0; q < nq; ++q) {
        std::vector<float> single(static_cast<size_t>(m));
        kernels::Gemv(w.data(), m, n, xs.data() + q * n, single.data());
        for (int64_t i = 0; i < m; ++i) {
          EXPECT_EQ(batched[static_cast<size_t>(q * m + i)],
                    single[static_cast<size_t>(i)])
              << "nq=" << nq << " n=" << n << " q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, GemvMultiEmptyMatrix) {
  Rng rng(52);
  const int64_t n = 8, nq = 6;
  std::vector<float> xs = RandomVec(nq * n, rng);
  std::vector<float> ys(1, 123.0f);  // must stay untouched for m = 0
  kernels::GemvMulti(nullptr, 0, n, xs.data(), nq, ys.data());
  EXPECT_EQ(ys[0], 123.0f);
}

TEST(KernelEquivalenceTest, DotQ8MatchesRefExactly) {
  Rng rng(48);
  for (int64_t n : kKernelSizes) {
    std::vector<int8_t> q(static_cast<size_t>(n));
    std::vector<uint8_t> c(static_cast<size_t>(n));
    for (int8_t& v : q) {
      v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
    }
    for (uint8_t& v : c) v = static_cast<uint8_t>(rng.NextInt(256));
    // Integer accumulation is exact, so unlike the float kernels the
    // vectorized and reference paths must agree bitwise.
    EXPECT_EQ(kernels::DotQ8(q.data(), c.data(), n),
              kernels::DotQ8Ref(q.data(), c.data(), n))
        << "n=" << n;
  }
}

TEST(KernelEquivalenceTest, GemvQ8MatchesRefExactly) {
  Rng rng(49);
  for (int64_t rows : kKernelSizes) {
    const int64_t n = 33;
    std::vector<uint8_t> codes(static_cast<size_t>(rows * n));
    std::vector<int8_t> q(static_cast<size_t>(n));
    for (uint8_t& v : codes) v = static_cast<uint8_t>(rng.NextInt(256));
    for (int8_t& v : q) {
      v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
    }
    std::vector<int32_t> want(static_cast<size_t>(rows));
    std::vector<int32_t> got(static_cast<size_t>(rows));
    kernels::GemvQ8Ref(codes.data(), rows, n, q.data(), want.data());
    kernels::GemvQ8(codes.data(), rows, n, q.data(), got.data());
    EXPECT_EQ(got, want) << "rows=" << rows;
  }
}

TEST(KernelEquivalenceTest, DotQ8ExtremesDoNotOverflow) {
  // 65536 products of 127*255 is the documented worst case; the int32
  // accumulator holds it with room to spare.
  const int64_t n = 1 << 16;
  std::vector<int8_t> q(static_cast<size_t>(n), int8_t{127});
  std::vector<uint8_t> c(static_cast<size_t>(n), uint8_t{255});
  EXPECT_EQ(kernels::DotQ8(q.data(), c.data(), n),
            static_cast<int32_t>(n) * 127 * 255);
}

// -- Arena-backed autograd ----------------------------------------------------

TEST(ArenaOpsTest, OpsAllocateFromActiveArenaAndLeafGradsStayOnHeap) {
  Tensor w = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4},
                                /*requires_grad=*/true);
  Tensor loss;
  const Arena* arena = nullptr;
  {
    ArenaScope scope;
    arena = CurrentArena();
    ASSERT_NE(arena, nullptr);
    Tensor x = Tensor::FromVector(Shape({2}), {1, -1});
    loss = Sum(MatVec(w, x));
    EXPECT_TRUE(arena->Owns(loss.value().data()));
    Backward(loss);
    // Leaf gradients feed the optimizer across the arena reset boundary, so
    // they must live on the heap even while a scope is active.
    EXPECT_FALSE(arena->Owns(w.grad().data()));
  }
  // Reset-on-entry: values stay readable after the scope exits (the trainer
  // reads shard losses after the parallel join).
  EXPECT_FLOAT_EQ(loss.scalar(), -2.0f);  // (1-2) + (3-4)
  ExpectVectorNear(w.grad(), {1, -1, 1, -1});
}

TEST(ArenaOpsTest, ScopedStepsProduceSameResultsAsHeap) {
  Rng rng(50);
  Tensor w = Tensor::RandomUniform(Shape({4, 4}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({4}), -1, 1, rng, true);
  Tensor x = Tensor::RandomUniform(Shape({4}), -1, 1, rng);

  Tensor heap_loss = Sum(LinearSigmoid(w, x, b));
  Backward(heap_loss);
  const std::vector<float> heap_grad = w.grad();
  w.ZeroGrad();
  b.ZeroGrad();

  float arena_loss = 0.0f;
  {
    ArenaScope scope;
    Tensor loss = Sum(LinearSigmoid(w, x, b));
    Backward(loss);
    arena_loss = loss.scalar();
  }
  EXPECT_FLOAT_EQ(arena_loss, heap_loss.scalar());
  for (size_t i = 0; i < heap_grad.size(); ++i) {
    EXPECT_FLOAT_EQ(w.grad()[i], heap_grad[i]) << i;
  }
}

TEST(ArenaOpsTest, ScopeReentryReclaimsMemory) {
  size_t used_after_first = 0;
  {
    ArenaScope scope;
    Tensor a = Tensor::Zeros(Shape({1024}));
    used_after_first = CurrentArena()->bytes_used();
    EXPECT_GE(used_after_first, 1024 * sizeof(float));
  }
  {
    ArenaScope scope;
    // Entry reset: the previous step's bytes are reclaimed before this
    // scope allocates anything.
    EXPECT_EQ(CurrentArena()->bytes_used(), 0u);
    Tensor b = Tensor::Zeros(Shape({1024}));
    EXPECT_EQ(CurrentArena()->bytes_used(), used_after_first);
  }
}

}  // namespace
}  // namespace scenerec
