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
//  2. Batched == single, bitwise: the row-batched Linear kernels
//     (GemvBiasActRows, ActGradRows, GerRowsAccum, GemvTRowsAccum) give
//     every output element the same terms in the same order as a loop of
//     single-row calls, so batching per-entity model code (SceneRec eval
//     caches, ShardLoss) cannot change results. The parallel-vs-serial
//     bitwise equivalence tests in tests/parallel_test.cc depend on this.
//
// Every kernel has a *Ref scalar counterpart used by the equivalence tests
// in tests/ops_test.cc: naive loops for the reductions, and the per-row
// loops themselves for the row-batched kernels.

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

/// Adds `n` to the `kernels/flops` telemetry counter for work done by
/// uninstrumented kernels (Dot, Axpy, AddActDot, which run per row and must
/// stay free of counter updates). Callers count once per op or batch call,
/// never per row or per element.
void CountFlops(int64_t n);

/// y = W x for row-major W [m,n], x [n], y [m]. Row i is Dot(W_i, x).
void Gemv(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
          const float* SCENEREC_RESTRICT x, float* SCENEREC_RESTRICT y);

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

// -- Row-batched Linear (docs/kernels.md#row-batched-linear) ----------------
//
// The forward and the three gradients of ys = act(W xs + bias) over a block
// of rows: the kernels behind every LinearAct / LinearActRows / MatVec /
// MatVecBatch node. Each is bitwise equal to its loop of single-row calls.

/// ys[r,:] = act(W xs[r,:] + bias) for W [m,n], xs [rows,n], ys [rows,m].
/// `bias` may be null (no add). The products are one GemvMulti pass over W,
/// so each element is Dot(W_i, xs_r) bitwise; bias and activation follow in
/// one sweep whose activation switch runs once per call.
void GemvBiasActRows(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
                     const float* SCENEREC_RESTRICT xs, int64_t rows,
                     const float* SCENEREC_RESTRICT bias, FusedAct act,
                     float leaky_slope, float* SCENEREC_RESTRICT ys);

/// dpre[e] = g[e] · act'(y[e]) for e in [0, count), with the derivative
/// recovered from the *output* y = act(x) (sigmoid: y(1-y); tanh: 1-y²;
/// relu/leaky: the sign test on y matches the forward's x > 0 convention).
void ActGradRows(const float* SCENEREC_RESTRICT g,
                 const float* SCENEREC_RESTRICT y, int64_t count, FusedAct act,
                 float leaky_slope, float* SCENEREC_RESTRICT dpre);

/// dW[i,:] += Σ_r g[r,i] · xs[r,:] for g [rows,m], xs [rows,n], dW [m,n]:
/// the weight gradient. Each dW element adds its rows in ascending r,
/// starting from its current value, and skips the terms whose g is ±0 — the
/// order and skips of `rows` single-row rank-1 updates, so the result is
/// bitwise GerRowsAccumRef. A column tile of one dW row stays in registers
/// while r streams; x86-64 dispatches to AVX2 at runtime (no FMA).
void GerRowsAccum(const float* SCENEREC_RESTRICT g,
                  const float* SCENEREC_RESTRICT xs, int64_t rows, int64_t m,
                  int64_t n, float* SCENEREC_RESTRICT dw);

/// dxs[r,:] += Σ_i g[r,i] · W[i,:] for W [m,n], g [rows,m], dxs [rows,n]:
/// the input gradient. Each dxs element adds the rows of W in ascending i,
/// skipping ±0 coefficients, so the result is bitwise GemvTRowsAccumRef.
/// A column tile of dxs[r] stays in registers while i streams.
void GemvTRowsAccum(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
                    const float* SCENEREC_RESTRICT g, int64_t rows,
                    float* SCENEREC_RESTRICT dxs);

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
/// The per-row loops the row-batched Linear kernels equal bitwise: a Gemv
/// and an ActApply per row; one rank-1 axpy update per row; one transposed
/// axpy sweep per row. The zero skips are part of the definition.
void GemvBiasActRowsRef(const float* w, int64_t m, int64_t n, const float* xs,
                        int64_t rows, const float* bias, FusedAct act,
                        float leaky_slope, float* ys);
void GerRowsAccumRef(const float* g, const float* xs, int64_t rows, int64_t m,
                     int64_t n, float* dw);
void GemvTRowsAccumRef(const float* w, int64_t m, int64_t n, const float* g,
                       int64_t rows, float* dxs);
/// The non-AVX2 bodies of GerRowsAccum / GemvTRowsAccum (uncounted), so the
/// tests cover both dispatch paths on an AVX2 host.
void GerRowsAccumPortable(const float* g, const float* xs, int64_t rows,
                          int64_t m, int64_t n, float* dw);
void GemvTRowsAccumPortable(const float* w, int64_t m, int64_t n,
                            const float* g, int64_t rows, float* dxs);
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
