#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace scenerec {
namespace {

// -- Linear ---------------------------------------------------------------------

TEST(LinearTest, OutputShapeAndParams) {
  Rng rng(1);
  Linear layer(8, 4, Activation::kNone, rng);
  Tensor x = Tensor::RandomUniform(Shape({8}), -1, 1, rng);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), Shape({4}));
  EXPECT_EQ(layer.NumParameters(), 8 * 4 + 4);
}

TEST(LinearTest, IdentityWhenWeightsAreIdentity) {
  Rng rng(2);
  Linear layer(2, 2, Activation::kNone, rng);
  // Overwrite weights with identity and bias with zero.
  auto& w = const_cast<Tensor&>(layer.weight()).mutable_value();
  w = {1, 0, 0, 1};
  Tensor x = Tensor::FromVector(Shape({2}), {3.0f, -4.0f});
  testing::ExpectVectorNear(layer.Forward(x).value(), {3.0f, -4.0f});
}

TEST(LinearTest, ActivationApplied) {
  Rng rng(3);
  Linear layer(2, 2, Activation::kRelu, rng);
  auto& w = const_cast<Tensor&>(layer.weight()).mutable_value();
  w = {1, 0, 0, 1};
  Tensor x = Tensor::FromVector(Shape({2}), {3.0f, -4.0f});
  testing::ExpectVectorNear(layer.Forward(x).value(), {3.0f, 0.0f});
}

TEST(LinearTest, GradientsFlowToParameters) {
  Rng rng(4);
  Linear layer(3, 2, Activation::kTanh, rng);
  Tensor x = Tensor::RandomUniform(Shape({3}), -1, 1, rng, true);
  std::vector<Tensor> params = layer.Parameters();
  params.push_back(x);
  testing::ExpectGradientsClose(
      [&] { return Sum(Mul(layer.Forward(x), layer.Forward(x))); }, params);
}

// -- Mlp -----------------------------------------------------------------------

TEST(MlpTest, LayerDimsChain) {
  Rng rng(5);
  Mlp mlp({10, 8, 4, 1}, Activation::kLeakyRelu, Activation::kNone, rng);
  EXPECT_EQ(mlp.num_layers(), 3u);
  EXPECT_EQ(mlp.in_dim(), 10);
  EXPECT_EQ(mlp.out_dim(), 1);
  Tensor x = Tensor::RandomUniform(Shape({10}), -1, 1, rng);
  EXPECT_EQ(mlp.Forward(x).shape(), Shape({1}));
}

TEST(MlpTest, ParameterCount) {
  Rng rng(6);
  Mlp mlp({4, 3, 2}, Activation::kRelu, Activation::kNone, rng);
  EXPECT_EQ(mlp.NumParameters(), (4 * 3 + 3) + (3 * 2 + 2));
}

TEST(MlpTest, GradCheckEndToEnd) {
  Rng rng(7);
  Mlp mlp({3, 4, 1}, Activation::kTanh, Activation::kNone, rng);
  Tensor x = Tensor::RandomUniform(Shape({3}), -1, 1, rng, true);
  std::vector<Tensor> params = mlp.Parameters();
  params.push_back(x);
  testing::ExpectGradientsClose(
      [&] {
        Tensor y = mlp.Forward(x);
        return Mul(Reshape(y, Shape()), Reshape(y, Shape()));
      },
      params);
}

// -- Embedding -------------------------------------------------------------------

TEST(EmbeddingTest, LookupShapes) {
  Rng rng(8);
  Embedding emb(10, 4, rng);
  EXPECT_EQ(emb.Lookup(3).shape(), Shape({4}));
  EXPECT_EQ(emb.LookupMany({1, 2, 3}).shape(), Shape({3, 4}));
  EXPECT_EQ(emb.NumParameters(), 40);
}

TEST(EmbeddingTest, LookupMatchesTableRow) {
  Rng rng(9);
  Embedding emb(5, 3, rng);
  Tensor row = emb.Lookup(2);
  for (int j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(row.at(j), emb.table().at(2, j));
  }
}

TEST(EmbeddingTest, GradientsAreSparse) {
  Rng rng(10);
  Embedding emb(100, 4, rng);
  Tensor loss = Sum(emb.LookupMany({7, 42}));
  Backward(loss);
  const Tensor& table = emb.table();
  EXPECT_EQ(table.touched_rows().size(), 2u);
  // Only rows 7 and 42 have gradients.
  for (int64_t r = 0; r < 100; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 4; ++c) sum += std::fabs(table.grad()[r * 4 + c]);
    if (r == 7 || r == 42) {
      EXPECT_GT(sum, 0.0f) << "row " << r;
    } else {
      EXPECT_FLOAT_EQ(sum, 0.0f) << "row " << r;
    }
  }
}

// Regression: moving an Embedding (e.g. the owning model is relocated when
// a vector reallocates) must not detach the table an optimizer already
// collected, and the moved-from instance must stay fully usable. Moves
// share the ParamTable backend, so both instances expose the SAME tensor
// and the lazy touched_rows() update path keeps seeing fresh gradients.
TEST(EmbeddingTest, MoveSharesTableAndKeepsOptimizerHandlesLive) {
  Rng rng(12);
  Embedding original(20, 4, rng);
  // An optimizer collects its handles before the move.
  std::vector<Tensor> collected = original.Parameters();
  ASSERT_EQ(collected.size(), 1u);

  Embedding moved = std::move(original);
  // Both instances expose the same underlying table node...
  EXPECT_EQ(moved.table().node(), collected[0].node());
  EXPECT_EQ(original.table().node(), collected[0].node());
  EXPECT_EQ(original.vocab(), 20);

  // ...and gradients produced through EITHER instance land in the handle
  // the optimizer holds, touched rows included.
  Backward(Sum(moved.LookupMany({3})));
  Backward(Sum(original.LookupMany({9})));
  ASSERT_EQ(collected[0].touched_rows().size(), 2u);
  float sum3 = 0, sum9 = 0;
  for (int64_t c = 0; c < 4; ++c) {
    sum3 += std::fabs(collected[0].grad()[3 * 4 + c]);
    sum9 += std::fabs(collected[0].grad()[9 * 4 + c]);
  }
  EXPECT_GT(sum3, 0.0f);
  EXPECT_GT(sum9, 0.0f);

  // Move-assignment shares the same way.
  Rng rng2(13);
  Embedding other(20, 4, rng2);
  other = std::move(moved);
  EXPECT_EQ(other.table().node(), collected[0].node());
  EXPECT_EQ(moved.table().node(), collected[0].node());
}

// -- Optimizers -------------------------------------------------------------------

/// Minimizes f(w) = sum((w - target)^2) and returns final w.
template <typename Opt, typename... Args>
std::vector<float> MinimizeQuadratic(float lr, int steps, Args... args) {
  Rng rng(11);
  Tensor w = Tensor::RandomUniform(Shape({4}), -1, 1, rng, true);
  Tensor target = Tensor::FromVector(Shape({4}), {1.0f, -2.0f, 0.5f, 3.0f});
  OptimizerOptions options;
  options.learning_rate = lr;
  Opt opt({w}, options, args...);
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Tensor diff = Sub(w, target);
    Backward(Sum(Mul(diff, diff)));
    opt.Step();
  }
  return w.value();
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  auto w = MinimizeQuadratic<SgdOptimizer>(0.1f, 200);
  testing::ExpectVectorNear(w, {1.0f, -2.0f, 0.5f, 3.0f}, 1e-3f);
}

TEST(OptimizerTest, SgdMomentumConverges) {
  auto w = MinimizeQuadratic<SgdOptimizer>(0.05f, 200, 0.9f);
  testing::ExpectVectorNear(w, {1.0f, -2.0f, 0.5f, 3.0f}, 1e-2f);
}

TEST(OptimizerTest, RmsPropConvergesOnQuadratic) {
  auto w = MinimizeQuadratic<RmsPropOptimizer>(0.05f, 500);
  testing::ExpectVectorNear(w, {1.0f, -2.0f, 0.5f, 3.0f}, 5e-2f);
}

TEST(OptimizerTest, AdagradConvergesOnQuadratic) {
  auto w = MinimizeQuadratic<AdagradOptimizer>(0.5f, 500);
  testing::ExpectVectorNear(w, {1.0f, -2.0f, 0.5f, 3.0f}, 5e-2f);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  auto w = MinimizeQuadratic<AdamOptimizer>(0.1f, 500);
  testing::ExpectVectorNear(w, {1.0f, -2.0f, 0.5f, 3.0f}, 5e-2f);
}

TEST(OptimizerTest, WeightDecayShrinksParameters) {
  Tensor w = Tensor::FromVector(Shape({2}), {1.0f, -1.0f}, true);
  OptimizerOptions options;
  options.learning_rate = 0.1f;
  options.weight_decay = 1.0f;
  SgdOptimizer opt({w}, options);
  // Loss is constant zero: only weight decay acts.
  for (int i = 0; i < 10; ++i) {
    opt.ZeroGrad();
    Backward(Mul(Sum(Mul(w, w)), Tensor::Scalar(0.0f)));
    opt.Step();
  }
  EXPECT_LT(std::fabs(w.at(0)), 1.0f);
  EXPECT_LT(std::fabs(w.at(1)), 1.0f);
  EXPECT_NEAR(w.at(0), std::pow(0.9f, 10), 1e-4);
}

TEST(OptimizerTest, SparseUpdateTouchesOnlyGatheredRows) {
  Rng rng(12);
  Embedding emb(50, 2, rng);
  std::vector<float> before = emb.table().value();
  OptimizerOptions options;
  options.learning_rate = 0.5f;
  SgdOptimizer opt(emb.Parameters(), options);
  opt.ZeroGrad();
  Backward(Sum(emb.LookupMany({3, 9})));
  opt.Step();
  const auto& after = emb.table().value();
  for (int64_t r = 0; r < 50; ++r) {
    bool changed = after[r * 2] != before[r * 2] ||
                   after[r * 2 + 1] != before[r * 2 + 1];
    EXPECT_EQ(changed, r == 3 || r == 9) << "row " << r;
  }
}

TEST(OptimizerTest, GradClippingBoundsStep) {
  Tensor w = Tensor::FromVector(Shape({1}), {0.0f}, true);
  OptimizerOptions options;
  options.learning_rate = 1.0f;
  options.clip_norm = 0.5f;
  SgdOptimizer opt({w}, options);
  opt.ZeroGrad();
  // Gradient of 100*w is 100, far above the clip threshold.
  Backward(Mul(Tensor::Scalar(100.0f), Reshape(w, Shape())));
  opt.Step();
  EXPECT_NEAR(w.at(0), -0.5f, 1e-5);
}

TEST(OptimizerTest, SkipsParametersWithoutGradients) {
  Tensor used = Tensor::FromVector(Shape({1}), {1.0f}, true);
  Tensor unused = Tensor::FromVector(Shape({1}), {5.0f}, true);
  OptimizerOptions options;
  options.learning_rate = 0.1f;
  options.weight_decay = 1.0f;  // Would shrink `unused` if (wrongly) visited.
  SgdOptimizer opt({used, unused}, options);
  opt.ZeroGrad();
  Backward(Reshape(used, Shape()));
  opt.Step();
  EXPECT_FLOAT_EQ(unused.at(0), 5.0f);
  EXPECT_LT(used.at(0), 1.0f);
}

TEST(OptimizerTest, LazySparseUpdateMatchesDenseUpdateForSgd) {
  // For a stateless optimizer (plain SGD, no weight decay) the lazy
  // touched-rows path must produce exactly the same table as a dense scan:
  // untouched rows have zero gradient and no state to evolve. (Stateful
  // optimizers like RMSProp intentionally differ: lazy mode freezes the
  // second-moment cache of untouched rows — the standard lazy semantics.)
  Rng rng_a(21), rng_b(21);
  Embedding sparse_emb(30, 4, rng_a);
  Embedding dense_emb(30, 4, rng_b);
  ASSERT_EQ(sparse_emb.table().value(), dense_emb.table().value());

  OptimizerOptions options;
  options.learning_rate = 0.1f;
  SgdOptimizer sparse_opt(sparse_emb.Parameters(), options);
  SgdOptimizer dense_opt(dense_emb.Parameters(), options);

  Rng pick(5);
  for (int step = 0; step < 10; ++step) {
    std::vector<int64_t> ids{static_cast<int64_t>(pick.NextInt(30)),
                             static_cast<int64_t>(pick.NextInt(30))};
    // Sparse path: gradients land through Gather, tracked rows only.
    sparse_opt.ZeroGrad();
    Backward(Sum(sparse_emb.LookupMany(ids)));
    sparse_opt.Step();
    // Dense path: write the same gradient manually, then clear the
    // touched-row list so the optimizer takes the dense branch.
    dense_opt.ZeroGrad();
    Backward(Sum(dense_emb.LookupMany(ids)));
    Tensor table = dense_emb.table();
    table.node()->touched_rows.clear();
    dense_opt.Step();
  }
  const auto& a = sparse_emb.table().value();
  const auto& b = dense_emb.table().value();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], b[i]) << "element " << i;
  }
}

// Step dedups touched_rows with a row mark instead of a sort. Given the
// same gradients, a touched list that is shuffled and full of duplicates
// must update the parameters bitwise as its sorted distinct rows do, for
// each stateful rule, with and without clip_norm (whose double sum reads
// the rows in ascending order). A dense parameter shares the clip sum, and
// weight decay would move any untouched row that got updated.
TEST(OptimizerTest, ShuffledDuplicateTouchedRowsMatchSortedUnique) {
  const int64_t rows = 40, cols = 5;
  for (const std::string name : {"sgd", "rmsprop", "adagrad"}) {
    for (float clip : {0.0f, 0.05f}) {
      OptimizerOptions options;
      options.learning_rate = 0.1f;
      options.weight_decay = 0.01f;
      options.clip_norm = clip;
      Rng init(3);
      std::vector<float> table0(rows * cols), dense0(7);
      for (float& v : table0) v = static_cast<float>(init.NextDouble()) - 0.5f;
      for (float& v : dense0) v = static_cast<float>(init.NextDouble()) - 0.5f;
      Tensor table[2], dense[2];
      std::unique_ptr<Optimizer> opt[2];
      for (int k = 0; k < 2; ++k) {
        table[k] = Tensor::FromVector(Shape({rows, cols}), table0, true);
        dense[k] = Tensor::FromVector(Shape({7}), dense0, true);
        opt[k] = MakeOptimizer(name, {table[k], dense[k]}, options).value();
      }
      Rng rng(11);
      for (int step = 0; step < 3; ++step) {
        std::vector<int64_t> distinct, shuffled;
        for (int64_t r = 0; r < rows; ++r) {
          if (rng.NextInt(3) != 0) continue;
          distinct.push_back(r);
          const int copies = 1 + static_cast<int>(rng.NextInt(3));
          for (int c = 0; c < copies; ++c) shuffled.push_back(r);
        }
        for (size_t i = shuffled.size(); i > 1; --i) {
          std::swap(shuffled[i - 1], shuffled[rng.NextInt(i)]);
        }
        std::vector<float> g(rows * cols, 0.0f), dg(7);
        for (int64_t r : distinct) {
          for (int64_t c = 0; c < cols; ++c) {
            g[r * cols + c] = static_cast<float>(rng.NextDouble()) - 0.5f;
          }
        }
        for (float& v : dg) v = static_cast<float>(rng.NextDouble()) - 0.5f;
        for (int k = 0; k < 2; ++k) {
          opt[k]->ZeroGrad();
          auto* node = table[k].node().get();
          node->EnsureGrad();
          std::copy(g.begin(), g.end(), node->grad.begin());
          node->touched_rows = k == 0 ? shuffled : distinct;
          dense[k].node()->EnsureGrad();
          std::copy(dg.begin(), dg.end(), dense[k].node()->grad.begin());
          opt[k]->Step();
        }
        EXPECT_EQ(table[0].touched_rows(), distinct);
        EXPECT_EQ(std::memcmp(table[0].value().data(), table[1].value().data(),
                              rows * cols * sizeof(float)),
                  0)
            << name << " clip=" << clip << " step=" << step;
        EXPECT_EQ(std::memcmp(dense[0].value().data(), dense[1].value().data(),
                              7 * sizeof(float)),
                  0)
            << name << " clip=" << clip << " step=" << step;
      }
      // The ZeroGrad after a step clears every touched row.
      opt[0]->ZeroGrad();
      for (float v : table[0].grad()) EXPECT_EQ(v, 0.0f);
    }
  }
}

TEST(NoGradTest, OpsBuildNoGraphUnderGuard) {
  Tensor w = Tensor::FromVector(Shape({2}), {1.0f, 2.0f}, true);
  NoGradGuard guard;
  Tensor y = Mul(w, w);
  // No inputs recorded, no gradient requirement: the graph is not built.
  EXPECT_TRUE(y.node()->inputs.empty());
  EXPECT_FALSE(y.requires_grad());
  EXPECT_FLOAT_EQ(y.at(0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(1), 4.0f);
}

TEST(NoGradTest, GuardIsScopedAndNestable) {
  Tensor w = Tensor::FromVector(Shape({2}), {1.0f, 2.0f}, true);
  EXPECT_FALSE(NoGradGuard::enabled());
  {
    NoGradGuard outer;
    EXPECT_TRUE(NoGradGuard::enabled());
    {
      NoGradGuard inner;
      EXPECT_TRUE(NoGradGuard::enabled());
    }
    EXPECT_TRUE(NoGradGuard::enabled());
  }
  EXPECT_FALSE(NoGradGuard::enabled());
  // Graph construction resumes after the guard.
  Tensor y = Mul(w, w);
  EXPECT_TRUE(y.requires_grad());
  EXPECT_EQ(y.node()->inputs.size(), 2u);
}

TEST(OptimizerTest, FactoryByName) {
  Rng rng(13);
  Tensor w = Tensor::RandomUniform(Shape({2}), -1, 1, rng, true);
  OptimizerOptions options;
  EXPECT_TRUE(MakeOptimizer("sgd", {w}, options).ok());
  EXPECT_TRUE(MakeOptimizer("rmsprop", {w}, options).ok());
  EXPECT_TRUE(MakeOptimizer("adam", {w}, options).ok());
  EXPECT_TRUE(MakeOptimizer("adagrad", {w}, options).ok());
  EXPECT_FALSE(MakeOptimizer("adadelta", {w}, options).ok());
}

TEST(OptimizerTest, RmsPropAdaptsStepToGradientScale) {
  // Two coordinates with very different gradient magnitudes should move by
  // comparable amounts under RMSProp (unlike plain SGD).
  Tensor w = Tensor::FromVector(Shape({2}), {0.0f, 0.0f}, true);
  OptimizerOptions options;
  options.learning_rate = 0.01f;
  RmsPropOptimizer opt({w}, options);
  Tensor scale = Tensor::FromVector(Shape({2}), {100.0f, 0.01f});
  for (int i = 0; i < 10; ++i) {
    opt.ZeroGrad();
    Backward(Sum(Mul(scale, w)));
    opt.Step();
  }
  const float move0 = std::fabs(w.at(0));
  const float move1 = std::fabs(w.at(1));
  EXPECT_GT(move1, move0 * 0.5f);
  EXPECT_LT(move1, move0 * 2.0f);
}

}  // namespace
}  // namespace scenerec
