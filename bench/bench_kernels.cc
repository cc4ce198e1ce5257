// Google-benchmark microbenchmarks for the engineering substrate: tensor
// kernels (matmul, gather/scatter, softmax attention, SpMM), autograd
// overhead, graph construction, and data-pipeline primitives. These are not
// paper experiments; they document the per-op cost model that the training
// times in Table 2 decompose into.

#include <benchmark/benchmark.h>

#include "common/malloc_tuning.h"
#include "common/rng.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "graph/csr.h"
#include "models/propagation.h"
#include "nn/embedding.h"
#include "nn/mlp.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace scenerec {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandomUniform(Shape({n, n}), -1, 1, rng);
  Tensor b = Tensor::RandomUniform(Shape({n, n}), -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatVec(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Tensor w = Tensor::RandomUniform(Shape({n, n}), -1, 1, rng);
  Tensor x = Tensor::RandomUniform(Shape({n}), -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatVec(w, x));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n);
}
BENCHMARK(BM_MatVec)->Arg(64)->Arg(256);

void BM_MatVecForwardBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Tensor w = Tensor::RandomUniform(Shape({n, n}), -1, 1, rng, true);
  Tensor x = Tensor::RandomUniform(Shape({n}), -1, 1, rng, true);
  for (auto _ : state) {
    Tensor loss = Sum(MatVec(w, x));
    Backward(loss);
    w.ZeroGrad();
    x.ZeroGrad();
  }
  // Forward y = Wx is 2n² flops; backward adds dW += g xᵀ (2n²) and
  // dx += Wᵀ g (2n²).
  state.SetItemsProcessed(state.iterations() * 6 * n * n);
}
BENCHMARK(BM_MatVecForwardBackward)->Arg(64)->Arg(256);

void BM_GemmTallSkinny(benchmark::State& state) {
  // The eq. (13)/(14) shape after batching: tall activation matrices
  // [batch, 64] against square-ish weights.
  const int64_t batch = state.range(0);
  const int64_t d = 64;
  Rng rng(11);
  Tensor a = Tensor::RandomUniform(Shape({batch, 2 * d}), -1, 1, rng);
  Tensor b = Tensor::RandomUniform(Shape({2 * d, d}), -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * 2 * d * d);
}
BENCHMARK(BM_GemmTallSkinny)->Arg(64)->Arg(256)->Arg(1024);

void BM_MatVecBatch(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t n = 64;
  Rng rng(12);
  Tensor w = Tensor::RandomUniform(Shape({n, n}), -1, 1, rng);
  Tensor xs = Tensor::RandomUniform(Shape({rows, n}), -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatVecBatch(w, xs));
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * n * n);
}
BENCHMARK(BM_MatVecBatch)->Arg(16)->Arg(64)->Arg(256);

void BM_MatVecLoop(benchmark::State& state) {
  // Baseline for BM_MatVecBatch: the pre-batching pattern of one MatVec
  // graph node per entity.
  const int64_t rows = state.range(0);
  const int64_t n = 64;
  Rng rng(12);
  Tensor w = Tensor::RandomUniform(Shape({n, n}), -1, 1, rng);
  Tensor xs = Tensor::RandomUniform(Shape({rows, n}), -1, 1, rng);
  for (auto _ : state) {
    for (int64_t r = 0; r < rows; ++r) {
      benchmark::DoNotOptimize(MatVec(w, Row(xs, r)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * n * n);
}
BENCHMARK(BM_MatVecLoop)->Arg(16)->Arg(64)->Arg(256);

// One row-batched Linear node at SceneRec's eq. (14) hidden-layer shape,
// W [64, 128] with leaky ReLU, over a block of `rows` inputs; with
// `backward` each iteration also runs Backward into W, b and xs.
void LinearActRowsBench(benchmark::State& state, bool backward) {
  const int64_t rows = state.range(0);
  const int64_t m = 64, n = 128;
  Rng rng(14);
  Tensor w = Tensor::RandomUniform(Shape({m, n}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({m}), -1, 1, rng, true);
  Tensor xs = Tensor::RandomUniform(Shape({rows, n}), -1, 1, rng, true);
  for (auto _ : state) {
    Tensor out = LinearActRows(w, xs, b, kernels::FusedAct::kLeakyRelu);
    if (backward) {
      Backward(Sum(out));
      w.ZeroGrad();
      b.ZeroGrad();
      xs.ZeroGrad();
    }
    benchmark::DoNotOptimize(out);
  }
  // Forward 2·m·n per row; the backward adds dW and dxs at 2·m·n each.
  state.SetItemsProcessed(state.iterations() * (backward ? 6 : 2) * rows * m *
                          n);
}

void BM_LinearActRows(benchmark::State& state) {
  LinearActRowsBench(state, /*backward=*/false);
}
BENCHMARK(BM_LinearActRows)->Arg(32)->Arg(256);

void BM_LinearActRowsBackward(benchmark::State& state) {
  LinearActRowsBench(state, /*backward=*/true);
}
BENCHMARK(BM_LinearActRowsBackward)->Arg(32)->Arg(256);

void BM_CosineSimilarityFused(benchmark::State& state) {
  Rng rng(13);
  Tensor a = Tensor::RandomUniform(Shape({64}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({64}), -1, 1, rng, true);
  for (auto _ : state) {
    Backward(CosineSimilarity(a, b));
    a.ZeroGrad();
    b.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CosineSimilarityFused);

void BM_CosineSimilarityUnfused(benchmark::State& state) {
  // Baseline for BM_CosineSimilarityFused: the five-node composition
  // (dot, two norms, product, division) the fused op replaces.
  Rng rng(13);
  Tensor a = Tensor::RandomUniform(Shape({64}), -1, 1, rng, true);
  Tensor b = Tensor::RandomUniform(Shape({64}), -1, 1, rng, true);
  for (auto _ : state) {
    Backward(CosineSimilarityUnfused(a, b));
    a.ZeroGrad();
    b.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CosineSimilarityUnfused);

void BM_StepHeap(benchmark::State& state) {
  // A training-step-shaped op chain (batched linear + activation + reduce,
  // forward and backward) with every intermediate on the heap.
  Rng rng(14);
  Tensor w = Tensor::RandomUniform(Shape({64, 64}), -1, 1, rng, true);
  Tensor bias = Tensor::Zeros(Shape({64}), /*requires_grad=*/true);
  Tensor xs = Tensor::RandomUniform(Shape({64, 64}), -1, 1, rng);
  for (auto _ : state) {
    Tensor loss = Sum(LinearActRows(w, xs, bias, kernels::FusedAct::kTanh));
    Backward(loss);
    w.ZeroGrad();
    bias.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 64);
}
BENCHMARK(BM_StepHeap);

void BM_StepArena(benchmark::State& state) {
  // BM_StepHeap with intermediates bump-allocated from the step arena and
  // reclaimed in O(1) at the next iteration's scope entry.
  Rng rng(14);
  Tensor w = Tensor::RandomUniform(Shape({64, 64}), -1, 1, rng, true);
  Tensor bias = Tensor::Zeros(Shape({64}), /*requires_grad=*/true);
  Tensor xs = Tensor::RandomUniform(Shape({64, 64}), -1, 1, rng);
  for (auto _ : state) {
    ArenaScope step;
    Tensor loss = Sum(LinearActRows(w, xs, bias, kernels::FusedAct::kTanh));
    Backward(loss);
    w.ZeroGrad();
    bias.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 64);
}
BENCHMARK(BM_StepArena);

void BM_EmbeddingGatherScatter(benchmark::State& state) {
  const int64_t k = state.range(0);
  Rng rng(4);
  Embedding table(50000, 64, rng);
  std::vector<int64_t> ids(static_cast<size_t>(k));
  for (auto& id : ids) id = static_cast<int64_t>(rng.NextInt(50000));
  for (auto _ : state) {
    Tensor loss = Sum(table.LookupMany(ids));
    Backward(loss);
    table.ZeroGrad();  // lazy: clears only touched rows
  }
  state.SetItemsProcessed(state.iterations() * k * 64);
}
BENCHMARK(BM_EmbeddingGatherScatter)->Arg(16)->Arg(64)->Arg(256);

// The eq. (9)-(11) pattern over k neighbours: k cosine logits -> softmax ->
// weighted sum, built either from the four composed ops or as the one fused
// CosineAttention node; with `backward` each iteration also runs Backward
// from a scalar loss over the output.
void SceneAttention(benchmark::State& state, bool fused, bool backward) {
  const int64_t k = state.range(0);
  Rng rng(5);
  Tensor query = Tensor::RandomUniform(Shape({64}), -1, 1, rng, true);
  std::vector<Tensor> keys;
  for (int64_t i = 0; i < k; ++i) {
    keys.push_back(Tensor::RandomUniform(Shape({64}), -1, 1, rng, true));
  }
  Tensor values = Tensor::RandomUniform(Shape({k, 64}), -1, 1, rng, true);
  for (auto _ : state) {
    Tensor out;
    if (fused) {
      out = CosineAttention(values, query, keys);
    } else {
      std::vector<Tensor> logits;
      logits.reserve(keys.size());
      for (const Tensor& key : keys) {
        logits.push_back(CosineSimilarity(query, key));
      }
      out = WeightedSumRows(values, Softmax(Stack(logits)));
    }
    if (backward) {
      Backward(Sum(out));
      query.ZeroGrad();
      values.ZeroGrad();
      for (Tensor& key : keys) key.ZeroGrad();
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_SceneAttention(benchmark::State& state) {
  SceneAttention(state, /*fused=*/false, /*backward=*/false);
}
BENCHMARK(BM_SceneAttention)->Arg(5)->Arg(20)->Arg(50);

void BM_SceneAttentionBackward(benchmark::State& state) {
  SceneAttention(state, /*fused=*/false, /*backward=*/true);
}
BENCHMARK(BM_SceneAttentionBackward)->Arg(5)->Arg(20)->Arg(50);

void BM_SceneAttentionFused(benchmark::State& state) {
  SceneAttention(state, /*fused=*/true, /*backward=*/false);
}
BENCHMARK(BM_SceneAttentionFused)->Arg(5)->Arg(20)->Arg(50);

void BM_SceneAttentionFusedBackward(benchmark::State& state) {
  SceneAttention(state, /*fused=*/true, /*backward=*/true);
}
BENCHMARK(BM_SceneAttentionFusedBackward)->Arg(5)->Arg(20)->Arg(50);

void BM_SpMM(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  Rng rng(6);
  std::vector<Edge> edges;
  const int64_t degree = 20;
  for (int64_t s = 0; s < nodes; ++s) {
    for (int64_t j = 0; j < degree; ++j) {
      edges.push_back(
          {s, static_cast<int64_t>(rng.NextInt(static_cast<uint64_t>(nodes))),
           1.0f});
    }
  }
  CsrGraph adj = CsrGraph::FromEdges(nodes, nodes, std::move(edges));
  Tensor x = Tensor::RandomUniform(Shape({nodes, 64}), -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpMM(&adj, nullptr, x));
  }
  state.SetItemsProcessed(state.iterations() * adj.num_edges() * 64);
}
BENCHMARK(BM_SpMM)->Arg(1000)->Arg(10000);

void BM_MlpForward(benchmark::State& state) {
  Rng rng(7);
  Mlp mlp({128, 64, 1}, Activation::kLeakyRelu, Activation::kNone, rng);
  Tensor x = Tensor::RandomUniform(Shape({128}), -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(x));
  }
}
BENCHMARK(BM_MlpForward);

void BM_CsrGraphBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8);
  std::vector<Edge> edges;
  for (int64_t i = 0; i < n * 20; ++i) {
    edges.push_back(
        {static_cast<int64_t>(rng.NextInt(static_cast<uint64_t>(n))),
         static_cast<int64_t>(rng.NextInt(static_cast<uint64_t>(n))), 1.0f});
  }
  for (auto _ : state) {
    std::vector<Edge> copy = edges;
    benchmark::DoNotOptimize(CsrGraph::FromEdges(n, n, std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * n * 20);
}
BENCHMARK(BM_CsrGraphBuild)->Arg(1000)->Arg(10000);

void BM_NegativeSampling(benchmark::State& state) {
  Rng rng(9);
  std::vector<Interaction> interactions;
  for (int64_t u = 0; u < 500; ++u) {
    for (int64_t j = 0; j < 40; ++j) {
      interactions.push_back(
          {u, static_cast<int64_t>(rng.NextInt(5000))});
    }
  }
  UserItemGraph graph = UserItemGraph::Build(500, 5000, interactions);
  NegativeSampler sampler(graph);
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleNegative(user, rng));
    user = (user + 1) % 500;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeSampling);

void BM_SyntheticGeneration(benchmark::State& state) {
  SyntheticConfig config = MakeJdConfig(JdPreset::kElectronics, 0.02);
  for (auto _ : state) {
    auto dataset = GenerateSyntheticDataset(config, 42);
    benchmark::DoNotOptimize(dataset);
  }
}
BENCHMARK(BM_SyntheticGeneration)->Unit(benchmark::kMillisecond);

void BM_AliasSampler(benchmark::State& state) {
  Rng rng(10);
  std::vector<double> weights(50000);
  for (double& w : weights) w = rng.NextDouble() + 0.01;
  AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSampler);

}  // namespace
}  // namespace scenerec

int main(int argc, char** argv) {
  scenerec::TuneAllocatorForTraining();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
