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

/// # Integer block kernels (the SQ8 quantized scan, DESIGN §12)
///
/// The SQ8 scan stores u8 codes in blocks of kI8BlockRows rows with the
/// dimension pairs interleaved per row: pair p of row r is the two bytes
/// at offset (p * kI8BlockRows + r) * 2 of the block, holding dims 2p and
/// 2p + 1. Widened to i16, one 128-bit load of a pair feeds four rows to
/// one madd_epi16 against a broadcast operand pair, so the kernels keep
/// one int32 lane per row and never fold horizontally.
///
/// Both kernels write one int32 score per row (higher is better) and
/// return the mask of rows whose score is >= `min_score` (bit r for row
/// r). Integer addition is exact, so unlike the float kernels above there
/// is no block-order fine print: scalar, SSE2 and AVX2 builds are bitwise
/// identical *by arithmetic* — the `ref` mirrors exist as the plain-loop
/// specification and test oracle, not as a numerical contract. Never
/// maddubs: it saturates its i16 pair sum.
///
/// Overflow caps (callers must respect; retrieval::QuantizedItemFactors
/// enforces them at encode time via kMaxSq8Dim = 512):
///   DotBlockI8:                |score| <= 2 * pairs * 16256 * 255
///                              → exact in int32 for pairs <= 259
///   NegSquaredDistanceBlockI8:  |score| <= 2 * pairs * 255 * 255
inline constexpr size_t kI8BlockRows = 32;

/// scores[r] = sum over d < 2 * pairs of weights[d] * code(r, d), with
/// |weights[d]| <= 16256.
uint32_t DotBlockI8(const int16_t* weights, const uint8_t* block,
                    size_t pairs, int32_t min_score, int32_t* scores);

/// scores[r] = -(sum over d < 2 * pairs of (code(r, d) - query[d])^2),
/// with query[d] in [0, 255] (a query on the code grid).
uint32_t NegSquaredDistanceBlockI8(const int16_t* query, const uint8_t* block,
                                   size_t pairs, int32_t min_score,
                                   int32_t* scores);

/// Per-column range of the finite entries of a row-major [rows, n]
/// matrix: lo[d] is lowered to and hi[d] raised to every finite entry of
/// column d, in row order (the caller seeds them, e.g. +inf / -inf); NaN
/// and ±inf entries are skipped. Comparisons only, so every build gives
/// the same floats — including which of -0 and +0 a column keeps (the
/// first seen).
void FiniteColumnRange(const float* x, size_t rows, size_t n, float* lo,
                       float* hi);

/// SQ8 encoding of one row of n floats onto per-dimension affine grids,
/// written in the pair-interleaved block layout above: the code of x[d]
/// goes to out[(d / 2) * pair_stride + d % 2], with
///   0    for NaN and -inf, and for finite x[d] when delta[d] == 0;
///   255  for +inf;
///   otherwise the round-half-even image of
///        clamp((x[d] - vmin[d]) / delta[d], 0, 255),
/// the affine in double. Every step is exact IEEE arithmetic with no
/// rounding-mode dependence (the rounding is truncation plus an exact
/// fraction test), so the codes are bitwise identical across builds.
/// `inv_delta[d]` must be 1.0f / delta[d]: the SIMD path estimates each
/// code in float from it and redoes in double every code whose estimate
/// lies within 1e-4 of a rounding boundary — the float estimate is within
/// 5e-5 of the double quotient there — so it equals ref bitwise.
/// Returns whether every x[d] is finite.
bool EncodeRowU8(const float* x, const float* vmin, const float* delta,
                 const float* inv_delta, size_t n, size_t pair_stride,
                 uint8_t* out);

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
uint32_t DotBlockI8(const int16_t* weights, const uint8_t* block,
                    size_t pairs, int32_t min_score, int32_t* scores);
uint32_t NegSquaredDistanceBlockI8(const int16_t* query, const uint8_t* block,
                                   size_t pairs, int32_t min_score,
                                   int32_t* scores);
void FiniteColumnRange(const float* x, size_t rows, size_t n, float* lo,
                       float* hi);
bool EncodeRowU8(const float* x, const float* vmin, const float* delta,
                 const float* inv_delta, size_t n, size_t pair_stride,
                 uint8_t* out);
}  // namespace ref

}  // namespace kernels
}  // namespace kgrec

#endif  // KGREC_MATH_KERNELS_H_
