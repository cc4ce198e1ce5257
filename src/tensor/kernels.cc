#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#define SCENEREC_KERNELS_X86 1
#include <immintrin.h>
#endif

#include "common/telemetry.h"
#include "common/trace.h"

/// Kernel span: recorded only when the call runs at least
/// TraceOptions::kernel_floor_ns, so tiny GEMVs inside batched loops don't
/// flood the ring. Dot/Axpy stay uninstrumented (inner-loop primitives).
#define TRACE_KERNEL(kname, m_, n_)                                        \
  SCENEREC_TRACE_SPAN_F(kname, "kernel", ::scenerec::trace::Floor::kKernel, \
                        "m=%lld n=%lld", static_cast<long long>(m_),        \
                        static_cast<long long>(n_))

namespace scenerec {
namespace kernels {

namespace {

// Kernel call + FLOP accounting (docs/observability.md). Instrumented at the
// per-call level only: Dot/Axpy run inside these kernels' inner loops and
// stay untouched, so the cost per GEMM/GEMV is one enabled-flag branch and
// two thread-local stores. GemvRows counts one gemv per row (its rows ARE
// gemv calls, bitwise), plus its own batched-call counter.
const telemetry::Counter t_gemm_calls =
    telemetry::RegisterCounter("kernels/gemm_calls");
const telemetry::Counter t_gemv_calls =
    telemetry::RegisterCounter("kernels/gemv_calls");
const telemetry::Counter t_gemv_rows_calls =
    telemetry::RegisterCounter("kernels/gemv_rows_calls");
const telemetry::Counter t_gemv_multi_calls =
    telemetry::RegisterCounter("kernels/gemv_multi_calls");
const telemetry::Counter t_accum_calls =
    telemetry::RegisterCounter("kernels/backward_accum_calls");
const telemetry::Counter t_flops = telemetry::RegisterCounter("kernels/flops");

// One definition per activation, shared by ActApply and the hoisted
// AddActDot loops, so the two cannot round differently.
inline float SigmoidOf(float x) {
  // Branch on sign for numerical stability at large |x| (same formula as
  // the standalone Sigmoid op, so fused and composed paths agree).
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

inline float ReluOf(float x) { return x > 0.0f ? x : 0.0f; }

inline float LeakyReluOf(float x, float slope) {
  return x > 0.0f ? x : slope * x;
}

}  // namespace

float ActApply(FusedAct act, float x, float leaky_slope) {
  switch (act) {
    case FusedAct::kNone:
      return x;
    case FusedAct::kSigmoid:
      return SigmoidOf(x);
    case FusedAct::kTanh:
      return std::tanh(x);
    case FusedAct::kRelu:
      return ReluOf(x);
    case FusedAct::kLeakyRelu:
      return LeakyReluOf(x, leaky_slope);
  }
  return x;
}

float ActGradFromY(FusedAct act, float y, float leaky_slope) {
  switch (act) {
    case FusedAct::kNone:
      return 1.0f;
    case FusedAct::kSigmoid:
      return y * (1.0f - y);
    case FusedAct::kTanh:
      return 1.0f - y * y;
    case FusedAct::kRelu:
      // y > 0 iff x > 0, matching the forward's strict-inequality convention.
      return y > 0.0f ? 1.0f : 0.0f;
    case FusedAct::kLeakyRelu:
      return y > 0.0f ? 1.0f : leaky_slope;
  }
  return 1.0f;
}

namespace {

/// Width of the partial-accumulator bank in Dot. Eight floats span one AVX
/// register (or two SSE registers); the bank fully unrolls, so the compiler
/// keeps it in vector registers without needing to reassociate anything.
constexpr int64_t kLanes = 8;

}  // namespace

float Dot(const float* SCENEREC_RESTRICT a, const float* SCENEREC_RESTRICT b,
          int64_t n) {
  float acc[kLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) acc[l] += a[i + l] * b[i + l];
  }
  // Fixed-shape horizontal reduction: the result depends only on n, never on
  // how the loop above was vectorized.
  float total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

namespace {

/// AddActDot's body for one activation: Dot's lane bank, reduction tree
/// and ascending tail, with each product's right factor act(a[i] + b[i]).
template <typename Act>
float AddActDotImpl(const float* SCENEREC_RESTRICT a,
                    const float* SCENEREC_RESTRICT b,
                    const float* SCENEREC_RESTRICT w, int64_t n, Act act) {
  float acc[kLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) {
      acc[l] += w[i + l] * act(a[i + l] + b[i + l]);
    }
  }
  float total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  for (; i < n; ++i) total += w[i] * act(a[i] + b[i]);
  return total;
}

}  // namespace

float AddActDot(const float* SCENEREC_RESTRICT a,
                const float* SCENEREC_RESTRICT b,
                const float* SCENEREC_RESTRICT w, int64_t n, FusedAct act,
                float leaky_slope) {
  switch (act) {
    case FusedAct::kNone:
      return AddActDotImpl(a, b, w, n, [](float x) { return x; });
    case FusedAct::kSigmoid:
      return AddActDotImpl(a, b, w, n, [](float x) { return SigmoidOf(x); });
    case FusedAct::kTanh:
      return AddActDotImpl(a, b, w, n, [](float x) { return std::tanh(x); });
    case FusedAct::kRelu:
      return AddActDotImpl(a, b, w, n, [](float x) { return ReluOf(x); });
    case FusedAct::kLeakyRelu:
      return AddActDotImpl(a, b, w, n, [leaky_slope](float x) {
        return LeakyReluOf(x, leaky_slope);
      });
  }
  return 0.0f;
}

void Axpy(float alpha, const float* SCENEREC_RESTRICT x,
          float* SCENEREC_RESTRICT y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void CountFlops(int64_t n) { t_flops.Add(static_cast<uint64_t>(n)); }

void Gemv(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
          const float* SCENEREC_RESTRICT x, float* SCENEREC_RESTRICT y) {
  TRACE_KERNEL("Gemv", m, n);
  t_gemv_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n));
  for (int64_t i = 0; i < m; ++i) y[i] = Dot(w + i * n, x, n);
}

void GemvRows(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
              const float* SCENEREC_RESTRICT xs, int64_t rows,
              float* SCENEREC_RESTRICT ys) {
  TRACE_KERNEL("GemvRows", rows * m, n);
  t_gemv_rows_calls.Add(1);
  // Each row runs the identical Gemv path — bitwise equal to `rows`
  // standalone calls, which is what lets model code batch per-entity
  // forwards without changing results. (The inner Gemv also accounts the
  // per-row calls and FLOPs.)
  for (int64_t r = 0; r < rows; ++r) {
    Gemv(w, m, n, xs + r * n, ys + r * m);
  }
}

namespace {

#if defined(SCENEREC_KERNELS_X86)

/// Dot's horizontal reduction, verbatim: lanes [l0..l7] collapse as
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). Spelled out on stored lanes so
/// the tree shape cannot depend on the vector width used to accumulate.
inline float ReduceLanes(const float* SCENEREC_RESTRICT l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// Four queries against one pass over W, SSE2. Each query keeps its own
/// 8-lane bank (two xmm); mul/add are per-lane IEEE ops, so every
/// (row, query) result is bitwise the standalone Dot.
void GemvMulti4Sse2(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
                    const float* SCENEREC_RESTRICT x0,
                    const float* SCENEREC_RESTRICT x1,
                    const float* SCENEREC_RESTRICT x2,
                    const float* SCENEREC_RESTRICT x3,
                    float* SCENEREC_RESTRICT y0, float* SCENEREC_RESTRICT y1,
                    float* SCENEREC_RESTRICT y2, float* SCENEREC_RESTRICT y3) {
  for (int64_t i = 0; i < m; ++i) {
    const float* SCENEREC_RESTRICT a = w + i * n;
    __m128 a0lo = _mm_setzero_ps(), a0hi = _mm_setzero_ps();
    __m128 a1lo = _mm_setzero_ps(), a1hi = _mm_setzero_ps();
    __m128 a2lo = _mm_setzero_ps(), a2hi = _mm_setzero_ps();
    __m128 a3lo = _mm_setzero_ps(), a3hi = _mm_setzero_ps();
    int64_t k = 0;
    for (; k + kLanes <= n; k += kLanes) {
      const __m128 rlo = _mm_loadu_ps(a + k);
      const __m128 rhi = _mm_loadu_ps(a + k + 4);
      a0lo = _mm_add_ps(a0lo, _mm_mul_ps(rlo, _mm_loadu_ps(x0 + k)));
      a0hi = _mm_add_ps(a0hi, _mm_mul_ps(rhi, _mm_loadu_ps(x0 + k + 4)));
      a1lo = _mm_add_ps(a1lo, _mm_mul_ps(rlo, _mm_loadu_ps(x1 + k)));
      a1hi = _mm_add_ps(a1hi, _mm_mul_ps(rhi, _mm_loadu_ps(x1 + k + 4)));
      a2lo = _mm_add_ps(a2lo, _mm_mul_ps(rlo, _mm_loadu_ps(x2 + k)));
      a2hi = _mm_add_ps(a2hi, _mm_mul_ps(rhi, _mm_loadu_ps(x2 + k + 4)));
      a3lo = _mm_add_ps(a3lo, _mm_mul_ps(rlo, _mm_loadu_ps(x3 + k)));
      a3hi = _mm_add_ps(a3hi, _mm_mul_ps(rhi, _mm_loadu_ps(x3 + k + 4)));
    }
    alignas(16) float lanes[kLanes];
    _mm_store_ps(lanes, a0lo);
    _mm_store_ps(lanes + 4, a0hi);
    float t0 = ReduceLanes(lanes);
    _mm_store_ps(lanes, a1lo);
    _mm_store_ps(lanes + 4, a1hi);
    float t1 = ReduceLanes(lanes);
    _mm_store_ps(lanes, a2lo);
    _mm_store_ps(lanes + 4, a2hi);
    float t2 = ReduceLanes(lanes);
    _mm_store_ps(lanes, a3lo);
    _mm_store_ps(lanes + 4, a3hi);
    float t3 = ReduceLanes(lanes);
    for (; k < n; ++k) {
      t0 += a[k] * x0[k];
      t1 += a[k] * x1[k];
      t2 += a[k] * x2[k];
      t3 += a[k] * x3[k];
    }
    y0[i] = t0;
    y1[i] = t1;
    y2[i] = t2;
    y3[i] = t3;
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define SCENEREC_KERNELS_AVX2_DISPATCH 1

/// Reduces one ymm accumulator bank through EXACTLY the Dot tree
/// ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)): every hadd lane is a single IEEE
/// add of adjacent elements, so the rounding sequence is identical to
/// ReduceLanes on the stored bank — just without the store/reload.
__attribute__((target("avx2"))) inline float ReduceYmm(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);    // l0..l3
  const __m128 hi = _mm256_extractf128_ps(v, 1);  // l4..l7
  const __m128 h1 = _mm_hadd_ps(lo, hi);  // l0+l1, l2+l3, l4+l5, l6+l7
  const __m128 h2 = _mm_hadd_ps(h1, h1);  // (l0+l1)+(l2+l3), (l4+l5)+(l6+l7)
  return _mm_cvtss_f32(_mm_add_ss(h2, _mm_shuffle_ps(h2, h2, 1)));
}

/// AVX2 twin of GemvMulti4Sse2: one ymm bank per query. vmulps/vaddps round
/// per lane exactly like mulps/addps (and like the scalar formula), and the
/// reduction runs the same tree, so results stay bitwise equal to Dot.
/// Deliberately no FMA — "avx2" alone never emits contractions.
__attribute__((target("avx2"))) void GemvMulti4Avx2(
    const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
    const float* SCENEREC_RESTRICT x0, const float* SCENEREC_RESTRICT x1,
    const float* SCENEREC_RESTRICT x2, const float* SCENEREC_RESTRICT x3,
    float* SCENEREC_RESTRICT y0, float* SCENEREC_RESTRICT y1,
    float* SCENEREC_RESTRICT y2, float* SCENEREC_RESTRICT y3) {
  for (int64_t i = 0; i < m; ++i) {
    const float* SCENEREC_RESTRICT a = w + i * n;
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    int64_t k = 0;
    for (; k + kLanes <= n; k += kLanes) {
      const __m256 r = _mm256_loadu_ps(a + k);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(r, _mm256_loadu_ps(x0 + k)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(r, _mm256_loadu_ps(x1 + k)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(r, _mm256_loadu_ps(x2 + k)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(r, _mm256_loadu_ps(x3 + k)));
    }
    float t0 = ReduceYmm(a0);
    float t1 = ReduceYmm(a1);
    float t2 = ReduceYmm(a2);
    float t3 = ReduceYmm(a3);
    for (; k < n; ++k) {
      t0 += a[k] * x0[k];
      t1 += a[k] * x1[k];
      t2 += a[k] * x2[k];
      t3 += a[k] * x3[k];
    }
    y0[i] = t0;
    y1[i] = t1;
    y2[i] = t2;
    y3[i] = t3;
  }
}

/// Eight queries per pass over W: eight ymm banks plus the row vector still
/// fit the sixteen-register AVX2 file, so each row load is amortized over
/// twice as many queries as the 4-wide kernel. `xs` packs the queries
/// contiguously (query q at xs + q*n), `ys` the results (ys[q*m + i]).
/// Same per-lane ops and reduction tree as above: bitwise Dot.
__attribute__((target("avx2"))) void GemvMulti8Avx2(
    const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
    const float* SCENEREC_RESTRICT xs, float* SCENEREC_RESTRICT ys) {
  const float* SCENEREC_RESTRICT x0 = xs;
  const float* SCENEREC_RESTRICT x1 = xs + n;
  const float* SCENEREC_RESTRICT x2 = xs + 2 * n;
  const float* SCENEREC_RESTRICT x3 = xs + 3 * n;
  const float* SCENEREC_RESTRICT x4 = xs + 4 * n;
  const float* SCENEREC_RESTRICT x5 = xs + 5 * n;
  const float* SCENEREC_RESTRICT x6 = xs + 6 * n;
  const float* SCENEREC_RESTRICT x7 = xs + 7 * n;
  for (int64_t i = 0; i < m; ++i) {
    const float* SCENEREC_RESTRICT a = w + i * n;
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    __m256 a4 = _mm256_setzero_ps(), a5 = _mm256_setzero_ps();
    __m256 a6 = _mm256_setzero_ps(), a7 = _mm256_setzero_ps();
    int64_t k = 0;
    for (; k + kLanes <= n; k += kLanes) {
      const __m256 r = _mm256_loadu_ps(a + k);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(r, _mm256_loadu_ps(x0 + k)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(r, _mm256_loadu_ps(x1 + k)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(r, _mm256_loadu_ps(x2 + k)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(r, _mm256_loadu_ps(x3 + k)));
      a4 = _mm256_add_ps(a4, _mm256_mul_ps(r, _mm256_loadu_ps(x4 + k)));
      a5 = _mm256_add_ps(a5, _mm256_mul_ps(r, _mm256_loadu_ps(x5 + k)));
      a6 = _mm256_add_ps(a6, _mm256_mul_ps(r, _mm256_loadu_ps(x6 + k)));
      a7 = _mm256_add_ps(a7, _mm256_mul_ps(r, _mm256_loadu_ps(x7 + k)));
    }
    float t[8] = {ReduceYmm(a0), ReduceYmm(a1), ReduceYmm(a2),
                  ReduceYmm(a3), ReduceYmm(a4), ReduceYmm(a5),
                  ReduceYmm(a6), ReduceYmm(a7)};
    for (; k < n; ++k) {
      const float av = a[k];
      t[0] += av * x0[k];
      t[1] += av * x1[k];
      t[2] += av * x2[k];
      t[3] += av * x3[k];
      t[4] += av * x4[k];
      t[5] += av * x5[k];
      t[6] += av * x6[k];
      t[7] += av * x7[k];
    }
    for (int64_t q = 0; q < 8; ++q) ys[q * m + i] = t[q];
  }
}
#endif  // __GNUC__ || __clang__

#endif  // SCENEREC_KERNELS_X86

}  // namespace

void GemvMulti(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
               const float* SCENEREC_RESTRICT xs, int64_t nq,
               float* SCENEREC_RESTRICT ys) {
  TRACE_KERNEL("GemvMulti", m * nq, n);
  t_gemv_multi_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n * nq));
  int64_t q = 0;
#if defined(SCENEREC_KERNELS_X86)
#if defined(SCENEREC_KERNELS_AVX2_DISPATCH)
  const bool have_avx2 = __builtin_cpu_supports("avx2");
#else
  const bool have_avx2 = false;
#endif
#if defined(SCENEREC_KERNELS_AVX2_DISPATCH)
  if (have_avx2) {
    for (; q + 8 <= nq; q += 8) {
      GemvMulti8Avx2(w, m, n, xs + q * n, ys + q * m);
    }
  }
#endif
  for (; q + 4 <= nq; q += 4) {
    const float* x0 = xs + q * n;
#if defined(SCENEREC_KERNELS_AVX2_DISPATCH)
    if (have_avx2) {
      GemvMulti4Avx2(w, m, n, x0, x0 + n, x0 + 2 * n, x0 + 3 * n, ys + q * m,
                     ys + (q + 1) * m, ys + (q + 2) * m, ys + (q + 3) * m);
      continue;
    }
#endif
    GemvMulti4Sse2(w, m, n, x0, x0 + n, x0 + 2 * n, x0 + 3 * n, ys + q * m,
                   ys + (q + 1) * m, ys + (q + 2) * m, ys + (q + 3) * m);
  }
#endif  // SCENEREC_KERNELS_X86
  // Remainder queries (and every query on non-x86 targets): the standalone
  // Gemv path — the definition the interleaved kernels are bitwise against.
  for (; q < nq; ++q) {
    const float* x = xs + q * n;
    float* y = ys + q * m;
    for (int64_t i = 0; i < m; ++i) y[i] = Dot(w + i * n, x, n);
  }
}

void GemvTAccum(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
                const float* SCENEREC_RESTRICT g,
                float* SCENEREC_RESTRICT dx) {
  t_accum_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n));
  for (int64_t i = 0; i < m; ++i) {
    const float gi = g[i];
    if (gi == 0.0f) continue;
    Axpy(gi, w + i * n, dx, n);
  }
}

void GerAccum(const float* SCENEREC_RESTRICT g, const float* SCENEREC_RESTRICT x,
              int64_t m, int64_t n, float* SCENEREC_RESTRICT dw) {
  t_accum_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n));
  for (int64_t i = 0; i < m; ++i) {
    const float gi = g[i];
    if (gi == 0.0f) continue;
    Axpy(gi, x, dw + i * n, n);
  }
}

void Gemm(const float* SCENEREC_RESTRICT a, const float* SCENEREC_RESTRICT b,
          float* SCENEREC_RESTRICT c, int64_t m, int64_t k, int64_t n) {
  TRACE_KERNEL("Gemm", m, n);
  t_gemm_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * k * n));
  std::fill(c, c + m * n, 0.0f);
  // Axpy-form i-k-j loop: streams rows of B, keeps 4 rows of C in registers.
  // Blocking over k bounds the B panel touched per C tile; because C[i, j]
  // still accumulates p in strictly ascending order, the result is
  // independent of both the tile shape and m (batch-size invariant).
  constexpr int64_t kKc = 256;
  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t p1 = std::min(p0 + kKc, k);
    int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* SCENEREC_RESTRICT a0 = a + (i + 0) * k;
      const float* SCENEREC_RESTRICT a1 = a + (i + 1) * k;
      const float* SCENEREC_RESTRICT a2 = a + (i + 2) * k;
      const float* SCENEREC_RESTRICT a3 = a + (i + 3) * k;
      float* SCENEREC_RESTRICT c0 = c + (i + 0) * n;
      float* SCENEREC_RESTRICT c1 = c + (i + 1) * n;
      float* SCENEREC_RESTRICT c2 = c + (i + 2) * n;
      float* SCENEREC_RESTRICT c3 = c + (i + 3) * n;
      for (int64_t p = p0; p < p1; ++p) {
        const float* SCENEREC_RESTRICT br = b + p * n;
        const float av0 = a0[p];
        const float av1 = a1[p];
        const float av2 = a2[p];
        const float av3 = a3[p];
        for (int64_t j = 0; j < n; ++j) {
          const float bv = br[j];
          c0[j] += av0 * bv;
          c1[j] += av1 * bv;
          c2[j] += av2 * bv;
          c3[j] += av3 * bv;
        }
      }
    }
    for (; i < m; ++i) {
      const float* SCENEREC_RESTRICT ai = a + i * k;
      float* SCENEREC_RESTRICT ci = c + i * n;
      for (int64_t p = p0; p < p1; ++p) {
        const float av = ai[p];
        const float* SCENEREC_RESTRICT br = b + p * n;
        for (int64_t j = 0; j < n; ++j) ci[j] += av * br[j];
      }
    }
  }
}

void GemmNTAccum(const float* SCENEREC_RESTRICT g,
                 const float* SCENEREC_RESTRICT b, float* SCENEREC_RESTRICT da,
                 int64_t m, int64_t n, int64_t k) {
  TRACE_KERNEL("GemmNTAccum", m, k);
  t_accum_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n * k));
  for (int64_t i = 0; i < m; ++i) {
    const float* SCENEREC_RESTRICT grow = g + i * n;
    float* SCENEREC_RESTRICT darow = da + i * k;
    for (int64_t p = 0; p < k; ++p) {
      darow[p] += Dot(grow, b + p * n, n);
    }
  }
}

void GemmTNAccum(const float* SCENEREC_RESTRICT a,
                 const float* SCENEREC_RESTRICT g, float* SCENEREC_RESTRICT db,
                 int64_t m, int64_t k, int64_t n) {
  TRACE_KERNEL("GemmTNAccum", k, n);
  t_accum_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * k * n));
  for (int64_t p = 0; p < k; ++p) {
    float* SCENEREC_RESTRICT dbrow = db + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* SCENEREC_RESTRICT grow = g + i * n;
      for (int64_t j = 0; j < n; ++j) dbrow[j] += av * grow[j];
    }
  }
}

int32_t DotQ8(const int8_t* SCENEREC_RESTRICT q,
              const uint8_t* SCENEREC_RESTRICT codes, int64_t n) {
  // Widen both sides to int32 up front; the compiler narrows back to the
  // int16-product / int32-accumulate vector idiom on its own, and integer
  // addition is exact so no partial-accumulator dance is needed.
  int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<int32_t>(q[i + 0]) * static_cast<int32_t>(codes[i + 0]);
    acc1 += static_cast<int32_t>(q[i + 1]) * static_cast<int32_t>(codes[i + 1]);
    acc2 += static_cast<int32_t>(q[i + 2]) * static_cast<int32_t>(codes[i + 2]);
    acc3 += static_cast<int32_t>(q[i + 3]) * static_cast<int32_t>(codes[i + 3]);
  }
  int32_t total = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) {
    total += static_cast<int32_t>(q[i]) * static_cast<int32_t>(codes[i]);
  }
  return total;
}

void GemvQ8(const uint8_t* SCENEREC_RESTRICT codes, int64_t rows, int64_t n,
            const int8_t* SCENEREC_RESTRICT q, int32_t* SCENEREC_RESTRICT out) {
  TRACE_KERNEL("GemvQ8", rows, n);
  for (int64_t r = 0; r < rows; ++r) out[r] = DotQ8(q, codes + r * n, n);
}

// -- Scalar references -------------------------------------------------------
//
// Naive loops with the most obvious accumulation order. The equivalence
// tests allow a small tolerance because the vectorized kernels reduce in a
// different (but fixed) order.

float DotRef(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float AddActDotRef(const float* a, const float* b, const float* w, int64_t n,
                   FusedAct act, float leaky_slope) {
  std::vector<float> h(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    h[static_cast<size_t>(i)] = ActApply(act, a[i] + b[i], leaky_slope);
  }
  return Dot(w, h.data(), n);
}

void AxpyRef(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void GemvRef(const float* w, int64_t m, int64_t n, const float* x, float* y) {
  for (int64_t i = 0; i < m; ++i) y[i] = DotRef(w + i * n, x, n);
}

void GemvMultiRef(const float* w, int64_t m, int64_t n, const float* xs,
                  int64_t nq, float* ys) {
  for (int64_t q = 0; q < nq; ++q) GemvRef(w, m, n, xs + q * n, ys + q * m);
}

void GemvTAccumRef(const float* w, int64_t m, int64_t n, const float* g,
                   float* dx) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) dx[j] += g[i] * w[i * n + j];
  }
}

void GerAccumRef(const float* g, const float* x, int64_t m, int64_t n,
                 float* dw) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) dw[i * n + j] += g[i] * x[j];
  }
}

void GemmRef(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

void GemmNTAccumRef(const float* g, const float* b, float* da, int64_t m,
                    int64_t n, int64_t k) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      da[i * k + p] += DotRef(g + i * n, b + p * n, n);
    }
  }
}

void GemmTNAccumRef(const float* a, const float* g, float* db, int64_t m,
                    int64_t k, int64_t n) {
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        db[p * n + j] += a[i * k + p] * g[i * n + j];
      }
    }
  }
}

int32_t DotQ8Ref(const int8_t* q, const uint8_t* codes, int64_t n) {
  int32_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(q[i]) * static_cast<int32_t>(codes[i]);
  }
  return acc;
}

void GemvQ8Ref(const uint8_t* codes, int64_t rows, int64_t n, const int8_t* q,
               int32_t* out) {
  for (int64_t r = 0; r < rows; ++r) out[r] = DotQ8Ref(q, codes + r * n, n);
}

}  // namespace kernels
}  // namespace scenerec
