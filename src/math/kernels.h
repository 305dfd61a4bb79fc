#ifndef KGREC_MATH_KERNELS_H_
#define KGREC_MATH_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace kgrec {

/// Shared vectorized kernel layer. Every dense inner loop in the library
/// (the Matrix-based models and generators, the nn/ops.cc
/// forward/backward closures, the batched ScoreItems fast paths) calls
/// these entry points directly, so there is exactly one implementation —
/// and one numerical specification — of each hot loop.
///
/// # The fixed-block accumulation contract
///
/// Every *reduction* kernel (Dot, SquaredDistance, CosineSimilarity, the
/// per-output dots of MatMulTransposeB / DotBatch) is specified as
/// fixed-block accumulation, NOT left-to-right summation:
///
///   1. Four independent lane accumulators l0..l3. Lane t sums the
///      products at indices i with i % 4 == t, for i in
///      [0, 4 * floor(n / 4)), visited in ascending block order.
///   2. The lanes are folded in the documented order
///      (l0 + l2) + (l1 + l3).
///   3. The tail elements i in [4 * floor(n / 4), n) are then added to
///      the folded value one at a time, in ascending order.
///
/// SSE2 implements step 1 as one 4-lane vector accumulator (addps/mulps
/// are per-lane IEEE-754 single ops, no contraction), step 2 as the
/// movehl+shuffle horizontal fold, and step 3 as scalar adds. The scalar
/// reference in kernels::ref implements the *same* block order with plain
/// float arithmetic. Because both paths perform the identical sequence of
/// IEEE operations per output, scalar and SIMD builds are bitwise
/// identical — the block order is the single reference, and which path
/// executed is unobservable in the results.
///
/// *Accumulating matrix* kernels (MatMul, MatMulTransposeAAcc) are
/// specified element-wise instead: C[i][j] accumulates its k products one
/// add at a time in ascending reduction-index order. That specification
/// is invariant under vectorizing across j (each output element still
/// sees the same add sequence), so those kernels may use any vector
/// width — including AVX2 when the compiler targets it — without
/// changing a bit.
///
/// *Elementwise* kernels (Axpy, Scale, the transcendental maps) are
/// specified per element; the transcendental maps call the same libm
/// functions as the scalar reference (a vector polynomial exp would not
/// be bitwise equal to std::exp), so their SIMD benefit is limited to the
/// surrounding arithmetic and the value of the layer is having one shared
/// definition per map.
///
/// Build-time dispatch (the `KGREC_SIMD` CMake knob):
///   auto (default) — SSE2 kernels (always available on x86-64); matrix
///                    and elementwise kernels widen to AVX2 when the
///                    compile target has it (e.g. -march=native).
///   sse2           — as auto, but never widen past 128-bit.
///   off            — public entry points alias the scalar reference;
///                    this is the specification build CI keeps green.
namespace kernels {

/// Human-readable name of the dispatched implementation: "avx2", "sse2"
/// or "scalar".
const char* Mode();

/// Fixed-block dot product of two n-vectors.
float Dot(const float* a, const float* b, size_t n);

/// Four fixed-block dot products of `a` against rows[0..3], sharing each
/// a[c] broadcast. out[q] is bitwise equal to Dot(a, rows[q], n).
void Dot4(const float* a, const float* const* rows, size_t n, float* out);

/// `count` fixed-block dot products of `a` against scattered rows — the
/// gather form of MatMulTransposeB used by the batched ScoreItems paths.
/// out[q] is bitwise equal to Dot(a, rows[q], n) for every q.
void DotBatch(const float* a, const float* const* rows, size_t count,
              size_t n, float* out);

/// y[i] += alpha * x[i] (elementwise contract).
void Axpy(float alpha, const float* x, float* y, size_t n);

/// x[i] *= alpha (elementwise contract).
void Scale(float* x, size_t n, float alpha);

/// Fixed-block sum of (a[i] - b[i])^2.
float SquaredDistance(const float* a, const float* b, size_t n);

/// Single-pass fused cosine similarity: one sweep accumulates dot, |a|^2
/// and |b|^2 (three independent fixed-block reductions), then returns
/// dot / (sqrt(|a|^2) * sqrt(|b|^2)), or 0.0f when either vector is
/// all-zero.
float CosineSimilarity(const float* a, const float* b, size_t n);

/// C = A * B with A (m x k), B (k x n), C (m x n), overwritten.
/// Element-wise contract: C[i][j] accumulates A[i][p] * B[p][j] in
/// ascending p, one add per product (no zero-skip — a skipped
/// `0 * B[p][j]` add is observable for inf/NaN operands and for -0.0
/// accumulators, and the branch blocks vectorization).
void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n);

/// C = A * B^T with A (m x k), B (n x k), C (m x n). Each C[i][j] is a
/// fixed-block Dot(A row i, B row j); `accumulate` adds into C instead of
/// overwriting (the MatMul-backward dA form).
void MatMulTransposeB(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n, bool accumulate = false);

/// C += A^T * B with A (m x k), B (m x n), C (k x n). Element-wise
/// contract: C[p][j] accumulates A[i][p] * B[i][j] in ascending i (the
/// MatMul-backward dB form).
void MatMulTransposeAAcc(const float* a, const float* b, float* c, size_t m,
                         size_t k, size_t n);

/// y[i] = sigmoid(x[i]), the numerically stable two-branch form.
void SigmoidMap(const float* x, float* y, size_t n);

/// y[i] = tanh(x[i]).
void TanhMap(const float* x, float* y, size_t n);

/// y[i] = exp(x[i]).
void ExpMap(const float* x, float* y, size_t n);

/// y[i] = softplus(x[i]) = log1p(exp(x)) with the overflow guard at 20.
void SoftplusMap(const float* x, float* y, size_t n);

/// Row-wise softmax of an (rows x cols) matrix: per row, subtract the
/// row max (sequential scan), exponentiate and sum sequentially, then
/// divide every entry by the sum (elementwise contract).
void SoftmaxRows(const float* x, float* y, size_t rows, size_t cols);

/// # Integer reduction kernels (the SQ8 quantized scan, DESIGN §12)
///
/// These reduce 8-bit codes into an int32 accumulator. Integer addition
/// is associative and exact, so unlike the float kernels above there is
/// no block-order fine print: scalar, SSE2 and AVX2 builds are bitwise
/// identical *by arithmetic*, for any accumulation order — the `ref`
/// mirrors exist as the plain-loop specification and test oracle, not as
/// a numerical contract.
///
/// Overflow caps (callers must respect; retrieval::QuantizedItemFactors
/// enforces them at encode time via kMaxSq8Dim):
///   DotI8:             |sum| <= n * 255 * 128  → safe for n <= 2^31/32640
///   SquaredDistanceI8:  sum <= n * 255 * 255   → safe for n <= 2^31/65025
/// Both hold comfortably for n <= 32768.

/// Sum of weights[i] * codes[i] with i8 weights and u8 codes — the
/// integer core of the quantized kDot scan.
int32_t DotI8(const int8_t* weights, const uint8_t* codes, size_t n);

/// `count` integer dots of `weights` against scattered u8 code rows.
/// out[q] == DotI8(weights, rows[q], n) exactly.
void DotBatchI8(const int8_t* weights, const uint8_t* const* rows,
                size_t count, size_t n, int32_t* out);

/// Fused dual reduction: two integer dots per row against the same code
/// bytes, loading each row exactly once. This is the serve-path kernel
/// for the SQ8 kDot scan, whose 15-bit query weights are carried as an
/// (hi, lo) pair of i8 vectors (retrieval::Sq8Query): a plain two-pass
/// DotBatchI8 costs a second sweep over the codes plus a second
/// horizontal fold per row, which dominates at small dims.
///   out_hi[q] == DotI8(w_hi, rows[q], n)
///   out_lo[q] == DotI8(w_lo, rows[q], n)   (both exactly)
/// Overflow caps are DotI8's, applied to each output independently.
void DotDualBatchI8(const int8_t* w_hi, const int8_t* w_lo,
                    const uint8_t* const* rows, size_t count, size_t n,
                    int32_t* out_hi, int32_t* out_lo);

/// Sum of (a[i] - b[i])^2 over u8 codes — the integer core of the
/// quantized kNegSquaredL2 scan (code-space distance).
int32_t SquaredDistanceI8(const uint8_t* a, const uint8_t* b, size_t n);

/// `count` integer squared distances of `query` against scattered u8
/// code rows. out[q] == SquaredDistanceI8(query, rows[q], n) exactly.
void SquaredDistanceBatchI8(const uint8_t* query, const uint8_t* const* rows,
                            size_t count, size_t n, int32_t* out);

/// The scalar reference implementations of every kernel above, compiled
/// in every build (deliberately without compiler auto-vectorization, so
/// this path stays the plain-float specification). The public entry
/// points must be bitwise equal to these for all inputs — that is the
/// contract tests/kernels_test.cc and bench/math_kernels.cc enforce.
/// When KGREC_SIMD=off, the public entry points simply forward here.
namespace ref {
float Dot(const float* a, const float* b, size_t n);
void Dot4(const float* a, const float* const* rows, size_t n, float* out);
void DotBatch(const float* a, const float* const* rows, size_t count,
              size_t n, float* out);
void Axpy(float alpha, const float* x, float* y, size_t n);
void Scale(float* x, size_t n, float alpha);
float SquaredDistance(const float* a, const float* b, size_t n);
float CosineSimilarity(const float* a, const float* b, size_t n);
void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n);
void MatMulTransposeB(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n, bool accumulate = false);
void MatMulTransposeAAcc(const float* a, const float* b, float* c, size_t m,
                         size_t k, size_t n);
void SigmoidMap(const float* x, float* y, size_t n);
void TanhMap(const float* x, float* y, size_t n);
void ExpMap(const float* x, float* y, size_t n);
void SoftplusMap(const float* x, float* y, size_t n);
void SoftmaxRows(const float* x, float* y, size_t rows, size_t cols);
int32_t DotI8(const int8_t* weights, const uint8_t* codes, size_t n);
void DotBatchI8(const int8_t* weights, const uint8_t* const* rows,
                size_t count, size_t n, int32_t* out);
void DotDualBatchI8(const int8_t* w_hi, const int8_t* w_lo,
                    const uint8_t* const* rows, size_t count, size_t n,
                    int32_t* out_hi, int32_t* out_lo);
int32_t SquaredDistanceI8(const uint8_t* a, const uint8_t* b, size_t n);
void SquaredDistanceBatchI8(const uint8_t* query, const uint8_t* const* rows,
                            size_t count, size_t n, int32_t* out);
}  // namespace ref

}  // namespace kernels
}  // namespace kgrec

#endif  // KGREC_MATH_KERNELS_H_
