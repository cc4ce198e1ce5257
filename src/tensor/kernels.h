#ifndef SCENEREC_TENSOR_KERNELS_H_
#define SCENEREC_TENSOR_KERNELS_H_

#include <cstdint>

// Vectorized CPU micro-kernels behind every dense op in tensor/ops.cc.
//
// Two properties every kernel here must keep (docs/kernels.md):
//
//  1. Determinism without -ffast-math: each output element accumulates its
//     terms in a fixed order that does not depend on tiling or batch size.
//     Dot products use 8 element-wise partial accumulators (which GCC/Clang
//     vectorize without reassociation licenses, because each partial sum's
//     order is preserved) followed by a fixed-shape horizontal reduction;
//     axpy-form updates keep the k loop monotonic per output element.
//
//  2. Batched == single, bitwise: GemvRows computes row r with the exact
//     same Dot kernel as a standalone Gemv, so batching per-entity model
//     code (SceneRec eval caches) cannot change results. The parallel-vs-
//     serial bitwise equivalence tests in tests/parallel_test.cc depend on
//     this.
//
// Every kernel has a *Ref scalar counterpart (naive loops, same accumulation
// order) used by the equivalence tests in tests/ops_test.cc.

#if defined(__GNUC__) || defined(__clang__)
#define SCENEREC_RESTRICT __restrict__
#else
#define SCENEREC_RESTRICT
#endif

namespace scenerec {
namespace kernels {

/// Activation fused into LinearAct/LinearActRows. Lives here rather than in
/// nn/ because tensor/ cannot depend on nn/; nn::Linear maps its Activation
/// enum onto this one.
enum class FusedAct { kNone, kSigmoid, kTanh, kRelu, kLeakyRelu };

/// Negative-side slope of kLeakyRelu everywhere it is not given explicitly:
/// the LeakyRelu/LinearAct/LinearActRows defaults and SceneRec's split
/// eq. (14) read this one constant, so the fused and split forms cannot
/// drift apart.
inline constexpr float kLeakySlope = 0.01f;

/// Applies the activation to a pre-activation value.
float ActApply(FusedAct act, float x, float leaky_slope);

/// d(act)/d(pre-activation), recovered from the *output* y = act(x). All
/// five activations admit this (sigmoid: y(1-y); tanh: 1-y²; relu/leaky:
/// sign test on y matches the forward's x > 0 convention).
float ActGradFromY(FusedAct act, float y, float leaky_slope);

// -- Vectorized kernels -----------------------------------------------------

/// Fixed-order dot product of a[0..n) and b[0..n).
float Dot(const float* SCENEREC_RESTRICT a, const float* SCENEREC_RESTRICT b,
          int64_t n);

/// y[0..n) += alpha * x[0..n).
void Axpy(float alpha, const float* SCENEREC_RESTRICT x,
          float* SCENEREC_RESTRICT y, int64_t n);

/// Dot(w, act(a + b)) over [0..n): the tail of a linear layer whose
/// pre-activation arrives as two halves (SceneRec's split eq. (14),
/// docs/models.md), fused so the activated vector is never stored. The
/// activation switch runs once per call, not per element, and the products
/// accumulate in Dot's lane order, so the result is bitwise
/// Dot(w, h) with h[i] = ActApply(act, a[i] + b[i], leaky_slope).
float AddActDot(const float* SCENEREC_RESTRICT a,
                const float* SCENEREC_RESTRICT b,
                const float* SCENEREC_RESTRICT w, int64_t n, FusedAct act,
                float leaky_slope);

/// y = W x for row-major W [m,n], x [n], y [m]. Row i is Dot(W_i, x).
void Gemv(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
          const float* SCENEREC_RESTRICT x, float* SCENEREC_RESTRICT y);

/// ys[r,:] = W xs[r,:] for xs [rows,n], ys [rows,m]. Each row goes through
/// the identical Gemv path — bitwise equal to `rows` standalone Gemv calls.
void GemvRows(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
              const float* SCENEREC_RESTRICT xs, int64_t rows,
              float* SCENEREC_RESTRICT ys);

/// ys[q*m + i] = Dot(W_i, xs_q) for queries xs [nq,n] against row-major
/// W [m,n] — a multi-query Gemv that makes ONE pass over W, scoring every
/// query while each row is hot in cache. Per (row, query) the accumulation
/// is the identical fixed-order Dot (8 partial lanes, fixed-shape
/// reduction, ascending scalar tail), so the output is bitwise equal to nq
/// standalone Gemv calls regardless of nq or tiling. x86-64 builds process
/// queries four at a time with SSE2 mul/add intrinsics (per-lane IEEE ops —
/// the same rounding as the scalar lane formula) and dispatch at runtime to
/// AVX2 variants that take queries eight (then four) at a time; FMA is
/// never emitted, since contraction would change rounding and break the
/// bitwise contract. The batched exact retrieval
/// sweep (retrieval/exact_index.cc MultiSearch) is built on this.
void GemvMulti(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
               const float* SCENEREC_RESTRICT xs, int64_t nq,
               float* SCENEREC_RESTRICT ys);

/// dx[0..n) += Wᵀ g for W [m,n], g [m]. Accumulates rows of W in ascending
/// i via axpy, so the per-element order is fixed.
void GemvTAccum(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
                const float* SCENEREC_RESTRICT g, float* SCENEREC_RESTRICT dx);

/// dw[i,j] += g[i] * x[j] (rank-1 update into row-major dw [m,n]).
void GerAccum(const float* SCENEREC_RESTRICT g, const float* SCENEREC_RESTRICT x,
              int64_t m, int64_t n, float* SCENEREC_RESTRICT dw);

/// C = A B for row-major A [m,k], B [k,n], C [m,n]. Register-tiled axpy
/// form (i-k-j) with k-blocking; C[i,j] accumulates p = 0..k-1 in order
/// regardless of tile shape.
void Gemm(const float* SCENEREC_RESTRICT a, const float* SCENEREC_RESTRICT b,
          float* SCENEREC_RESTRICT c, int64_t m, int64_t k, int64_t n);

/// dA[i,p] += Dot(G_i, B_p) — i.e. dA += G Bᵀ for G [m,n], B [k,n],
/// dA [m,k]. (B's rows are Bᵀ's columns, so this is all row dots.)
void GemmNTAccum(const float* SCENEREC_RESTRICT g,
                 const float* SCENEREC_RESTRICT b, float* SCENEREC_RESTRICT da,
                 int64_t m, int64_t n, int64_t k);

/// dB[p,:] += Σ_i A[i,p] G[i,:] — i.e. dB += Aᵀ G for A [m,k], G [m,n],
/// dB [k,n]. Ascending-i axpy per output row.
void GemmTNAccum(const float* SCENEREC_RESTRICT a,
                 const float* SCENEREC_RESTRICT g, float* SCENEREC_RESTRICT db,
                 int64_t m, int64_t k, int64_t n);

// -- Int8 quantized kernels (retrieval/) -------------------------------------
//
// Integer addition is associative, so unlike the float kernels above these
// carry no accumulation-order contract: any vectorization of the loops below
// produces the identical int32 result. Codes are uint8 (asymmetric
// per-dimension quantization of item embeddings, retrieval/quantize.h);
// queries are int8 (symmetric). Products fit int16, and with n ≤ 2^16 rows
// of 127*255 products the int32 accumulator cannot overflow.

/// Σ_i q[i] * codes[i] accumulated in int32.
int32_t DotQ8(const int8_t* SCENEREC_RESTRICT q,
              const uint8_t* SCENEREC_RESTRICT codes, int64_t n);

/// out[r] = DotQ8(q, codes + r*n) for a row-major code matrix [rows, n] —
/// the int8 analogue of Gemv, used by the quantized index scans.
void GemvQ8(const uint8_t* SCENEREC_RESTRICT codes, int64_t rows, int64_t n,
            const int8_t* SCENEREC_RESTRICT q, int32_t* SCENEREC_RESTRICT out);

// -- Scalar references (testing only) ---------------------------------------

float DotRef(const float* a, const float* b, int64_t n);
/// The unfused composition AddActDot must equal bitwise: the activated
/// vector materialized with ActApply, then Dot.
float AddActDotRef(const float* a, const float* b, const float* w, int64_t n,
                   FusedAct act, float leaky_slope);
void AxpyRef(float alpha, const float* x, float* y, int64_t n);
void GemvRef(const float* w, int64_t m, int64_t n, const float* x, float* y);
void GemvMultiRef(const float* w, int64_t m, int64_t n, const float* xs,
                  int64_t nq, float* ys);
void GemvTAccumRef(const float* w, int64_t m, int64_t n, const float* g,
                   float* dx);
void GerAccumRef(const float* g, const float* x, int64_t m, int64_t n,
                 float* dw);
void GemmRef(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n);
void GemmNTAccumRef(const float* g, const float* b, float* da, int64_t m,
                    int64_t n, int64_t k);
void GemmTNAccumRef(const float* a, const float* g, float* db, int64_t m,
                    int64_t k, int64_t n);
int32_t DotQ8Ref(const int8_t* q, const uint8_t* codes, int64_t n);
void GemvQ8Ref(const uint8_t* codes, int64_t rows, int64_t n, const int8_t* q,
               int32_t* out);

}  // namespace kernels
}  // namespace scenerec

#endif  // SCENEREC_TENSOR_KERNELS_H_
