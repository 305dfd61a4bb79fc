#include "math/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

// Dispatch resolution. KGREC_SIMD_OFF comes from the KGREC_SIMD CMake
// knob; __SSE2__/__AVX2__ from the compile target.
// x86-64 always has SSE2, so the scalar path is only taken on non-x86
// targets or in the KGREC_SIMD=off specification build.
#if !defined(KGREC_SIMD_OFF) && defined(__SSE2__)
#define KGREC_KERNELS_SSE2 1
#include <emmintrin.h>
#if defined(__AVX2__)
#define KGREC_KERNELS_AVX2 1
#include <immintrin.h>
#endif
#endif

// The scalar reference is the specification: it must stay a sequence of
// plain float ops. GCC 12+ auto-vectorizes at -O2, which would keep the
// results bitwise identical (the block shape is exactly SLP-able) but
// turn the "scalar fallback" into SIMD behind our back — the reference
// build would no longer measure what scalar code costs, and a future
// cost-model change could reorder something subtle. Pin it off.
#if defined(__GNUC__) && !defined(__clang__)
#define KGREC_NO_AUTOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define KGREC_NO_AUTOVEC
#endif

namespace kgrec::kernels {

// ---------------------------------------------------------------------------
// Scalar reference: the fixed-block specification in plain float ops.
// ---------------------------------------------------------------------------

namespace ref {

KGREC_NO_AUTOVEC
float Dot(const float* a, const float* b, size_t n) {
  float l0 = 0.0f, l1 = 0.0f, l2 = 0.0f, l3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  float acc = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

KGREC_NO_AUTOVEC
void Dot4(const float* a, const float* const* rows, size_t n, float* out) {
  for (size_t q = 0; q < 4; ++q) out[q] = Dot(a, rows[q], n);
}

KGREC_NO_AUTOVEC
void DotBatch(const float* a, const float* const* rows, size_t count,
              size_t n, float* out) {
  for (size_t q = 0; q < count; ++q) out[q] = Dot(a, rows[q], n);
}

KGREC_NO_AUTOVEC
void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

KGREC_NO_AUTOVEC
void Scale(float* x, size_t n, float alpha) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

KGREC_NO_AUTOVEC
float SquaredDistance(const float* a, const float* b, size_t n) {
  float l0 = 0.0f, l1 = 0.0f, l2 = 0.0f, l3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  float acc = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

KGREC_NO_AUTOVEC
float CosineSimilarity(const float* a, const float* b, size_t n) {
  float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  float b0 = 0.0f, b1 = 0.0f, b2 = 0.0f, b3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    d0 += a[i] * b[i];
    d1 += a[i + 1] * b[i + 1];
    d2 += a[i + 2] * b[i + 2];
    d3 += a[i + 3] * b[i + 3];
    a0 += a[i] * a[i];
    a1 += a[i + 1] * a[i + 1];
    a2 += a[i + 2] * a[i + 2];
    a3 += a[i + 3] * a[i + 3];
    b0 += b[i] * b[i];
    b1 += b[i + 1] * b[i + 1];
    b2 += b[i + 2] * b[i + 2];
    b3 += b[i + 3] * b[i + 3];
  }
  float dot = (d0 + d2) + (d1 + d3);
  float na2 = (a0 + a2) + (a1 + a3);
  float nb2 = (b0 + b2) + (b1 + b3);
  for (; i < n; ++i) {
    dot += a[i] * b[i];
    na2 += a[i] * a[i];
    nb2 += b[i] * b[i];
  }
  if (na2 == 0.0f || nb2 == 0.0f) return 0.0f;
  return dot / (std::sqrt(na2) * std::sqrt(nb2));
}

KGREC_NO_AUTOVEC
void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n) {
  if (m * n != 0) std::memset(c, 0, m * n * sizeof(float));
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

KGREC_NO_AUTOVEC
void MatMulTransposeB(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n, bool accumulate) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float v = Dot(arow, b + j * k, k);
      crow[j] = accumulate ? crow[j] + v : v;
    }
  }
}

KGREC_NO_AUTOVEC
void MatMulTransposeAAcc(const float* a, const float* b, float* c, size_t m,
                         size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      float* crow = c + p * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

KGREC_NO_AUTOVEC
void SigmoidMap(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                     : std::exp(v) / (1.0f + std::exp(v));
  }
}

KGREC_NO_AUTOVEC
void TanhMap(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

KGREC_NO_AUTOVEC
void ExpMap(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
}

KGREC_NO_AUTOVEC
void SoftplusMap(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = v > 20.0f ? v : std::log1p(std::exp(std::min(v, 20.0f)));
  }
}

KGREC_NO_AUTOVEC
void SoftmaxRows(const float* x, float* y, size_t rows, size_t cols) {
  for (size_t i = 0; i < rows; ++i) {
    const float* row = x + i * cols;
    float* out = y + i * cols;
    if (cols == 0) continue;
    float max_v = row[0];
    for (size_t j = 1; j < cols; ++j) max_v = std::max(max_v, row[j]);
    float total = 0.0f;
    for (size_t j = 0; j < cols; ++j) {
      out[j] = std::exp(row[j] - max_v);
      total += out[j];
    }
    for (size_t j = 0; j < cols; ++j) out[j] /= total;
  }
}

KGREC_NO_AUTOVEC
uint32_t DotBlockI8(const int16_t* weights, const uint8_t* block,
                    size_t pairs, int32_t min_score, int32_t* scores) {
  uint32_t mask = 0;
  for (size_t r = 0; r < kI8BlockRows; ++r) {
    int32_t acc = 0;
    for (size_t d = 0; d < 2 * pairs; ++d) {
      const uint8_t code = block[((d / 2) * kI8BlockRows + r) * 2 + d % 2];
      acc += static_cast<int32_t>(weights[d]) * static_cast<int32_t>(code);
    }
    scores[r] = acc;
    if (acc >= min_score) mask |= uint32_t{1} << r;
  }
  return mask;
}

KGREC_NO_AUTOVEC
uint32_t NegSquaredDistanceBlockI8(const int16_t* query, const uint8_t* block,
                                   size_t pairs, int32_t min_score,
                                   int32_t* scores) {
  uint32_t mask = 0;
  for (size_t r = 0; r < kI8BlockRows; ++r) {
    int32_t acc = 0;
    for (size_t d = 0; d < 2 * pairs; ++d) {
      const uint8_t code = block[((d / 2) * kI8BlockRows + r) * 2 + d % 2];
      const int32_t diff =
          static_cast<int32_t>(code) - static_cast<int32_t>(query[d]);
      acc -= diff * diff;
    }
    scores[r] = acc;
    if (acc >= min_score) mask |= uint32_t{1} << r;
  }
  return mask;
}

KGREC_NO_AUTOVEC
void FiniteColumnRange(const float* x, size_t rows, size_t n, float* lo,
                       float* hi) {
  for (size_t r = 0; r < rows; ++r) {
    const float* row = x + r * n;
    for (size_t d = 0; d < n; ++d) {
      if (!std::isfinite(row[d])) continue;
      if (row[d] < lo[d]) lo[d] = row[d];
      if (row[d] > hi[d]) hi[d] = row[d];
    }
  }
}

namespace {

/// One code of EncodeRowU8. Clamping the quotient before rounding leaves
/// a value in [0, 255] whose floor is its truncation.
uint8_t EncodeU8(float x, float vmin, float delta) {
  if (std::isnan(x)) return 0;
  if (std::isinf(x)) return x > 0.0f ? 255 : 0;
  if (delta == 0.0f) return 0;
  const double v = std::clamp(
      (static_cast<double>(x) - static_cast<double>(vmin)) /
          static_cast<double>(delta),
      0.0, 255.0);
  const int32_t base = static_cast<int32_t>(v);
  const double frac = v - static_cast<double>(base);
  const bool up = frac > 0.5 || (frac == 0.5 && (base & 1) != 0);
  return static_cast<uint8_t>(base + (up ? 1 : 0));
}

}  // namespace

KGREC_NO_AUTOVEC
bool EncodeRowU8(const float* x, const float* vmin, const float* delta,
                 const float* /*inv_delta*/, size_t n, size_t pair_stride,
                 uint8_t* out) {
  bool finite = true;
  for (size_t d = 0; d < n; ++d) {
    out[(d / 2) * pair_stride + d % 2] = EncodeU8(x[d], vmin[d], delta[d]);
    finite &= std::isfinite(x[d]);
  }
  return finite;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// SIMD implementations. Each mirrors the reference op-for-op; the inline
// comments note which contract step each instruction realizes.
// ---------------------------------------------------------------------------

#if KGREC_KERNELS_SSE2

namespace {

/// Contract step 2: fold the four lane accumulators as (l0+l2)+(l1+l3).
/// movehl pairs lane 0 with 2 and 1 with 3; the final add_ss joins the
/// two partial sums.
inline float FoldLanes(__m128 acc) {
  const __m128 hi = _mm_movehl_ps(acc, acc);          // (l2, l3, l2, l3)
  const __m128 s = _mm_add_ps(acc, hi);               // (l0+l2, l1+l3, ..)
  const __m128 s1 = _mm_shuffle_ps(s, s, _MM_SHUFFLE(1, 1, 1, 1));
  return _mm_cvtss_f32(_mm_add_ss(s, s1));            // (l0+l2)+(l1+l3)
}

/// Four dot products in the lanes of one register: candidate q's dot in
/// lane q. Each candidate sees exactly the fixed-block order — lane
/// accumulator t (acc_t) sums its candidate's products at column offsets
/// c % 4 == t, the fold is (l0+l2)+(l1+l3) per candidate, and the tail
/// columns are added scalar, after the fold.
inline __m128 Dot4Blocked(const float* a, const float* r0, const float* r1,
                          const float* r2, const float* r3, size_t n) {
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  __m128 acc2 = _mm_setzero_ps();
  __m128 acc3 = _mm_setzero_ps();
  size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    __m128 v0 = _mm_loadu_ps(r0 + c);
    __m128 v1 = _mm_loadu_ps(r1 + c);
    __m128 v2 = _mm_loadu_ps(r2 + c);
    __m128 v3 = _mm_loadu_ps(r3 + c);
    // In-register 4x4 transpose: v_t becomes column c+t of all four rows.
    _MM_TRANSPOSE4_PS(v0, v1, v2, v3);
    acc0 = _mm_add_ps(acc0, _mm_mul_ps(_mm_set1_ps(a[c]), v0));
    acc1 = _mm_add_ps(acc1, _mm_mul_ps(_mm_set1_ps(a[c + 1]), v1));
    acc2 = _mm_add_ps(acc2, _mm_mul_ps(_mm_set1_ps(a[c + 2]), v2));
    acc3 = _mm_add_ps(acc3, _mm_mul_ps(_mm_set1_ps(a[c + 3]), v3));
  }
  __m128 dots = _mm_add_ps(_mm_add_ps(acc0, acc2), _mm_add_ps(acc1, acc3));
  if (c < n) {
    alignas(16) float tail[4];
    _mm_store_ps(tail, dots);
    for (; c < n; ++c) {
      tail[0] += a[c] * r0[c];
      tail[1] += a[c] * r1[c];
      tail[2] += a[c] * r2[c];
      tail[3] += a[c] * r3[c];
    }
    dots = _mm_load_ps(tail);
  }
  return dots;
}

}  // namespace

const char* Mode() {
#if KGREC_KERNELS_AVX2
  return "avx2";
#else
  return "sse2";
#endif
}

float Dot(const float* a, const float* b, size_t n) {
  __m128 acc = _mm_setzero_ps();  // contract step 1: lane t = l_t
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  }
  float r = FoldLanes(acc);
  for (; i < n; ++i) r += a[i] * b[i];  // contract step 3: scalar tail
  return r;
}

void Dot4(const float* a, const float* const* rows, size_t n, float* out) {
  _mm_storeu_ps(out, Dot4Blocked(a, rows[0], rows[1], rows[2], rows[3], n));
}

void DotBatch(const float* a, const float* const* rows, size_t count,
              size_t n, float* out) {
  size_t q = 0;
  for (; q + 4 <= count; q += 4) {
    _mm_storeu_ps(out + q, Dot4Blocked(a, rows[q], rows[q + 1], rows[q + 2],
                                       rows[q + 3], n));
  }
  for (; q < count; ++q) out[q] = Dot(a, rows[q], n);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  size_t i = 0;
#if KGREC_KERNELS_AVX2
  const __m256 va8 = _mm256_set1_ps(alpha);
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             _mm256_mul_ps(va8, _mm256_loadu_ps(x + i))));
  }
#endif
  const __m128 va = _mm_set1_ps(alpha);
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(va, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(float* x, size_t n, float alpha) {
  size_t i = 0;
#if KGREC_KERNELS_AVX2
  const __m256 va8 = _mm256_set1_ps(alpha);
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va8));
  }
#endif
  const __m128 va = _mm_set1_ps(alpha);
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(_mm_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  __m128 acc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
  }
  float r = FoldLanes(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    r += d * d;
  }
  return r;
}

float CosineSimilarity(const float* a, const float* b, size_t n) {
  // One pass, three independent fixed-block reductions sharing the loads
  // (the fusion the satellite asks for: the old dense implementation
  // swept the vectors three times, Norm2(a) + Norm2(b) + Dot).
  __m128 dacc = _mm_setzero_ps();
  __m128 aacc = _mm_setzero_ps();
  __m128 bacc = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 va = _mm_loadu_ps(a + i);
    const __m128 vb = _mm_loadu_ps(b + i);
    dacc = _mm_add_ps(dacc, _mm_mul_ps(va, vb));
    aacc = _mm_add_ps(aacc, _mm_mul_ps(va, va));
    bacc = _mm_add_ps(bacc, _mm_mul_ps(vb, vb));
  }
  float dot = FoldLanes(dacc);
  float na2 = FoldLanes(aacc);
  float nb2 = FoldLanes(bacc);
  for (; i < n; ++i) {
    dot += a[i] * b[i];
    na2 += a[i] * a[i];
    nb2 += b[i] * b[i];
  }
  if (na2 == 0.0f || nb2 == 0.0f) return 0.0f;
  return dot / (std::sqrt(na2) * std::sqrt(nb2));
}

void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n) {
  // Register-tiled over j: blocks of 16 columns live in four registers
  // across the whole p loop, so each C element is loaded/stored once and
  // accumulated in ascending p — the element-wise contract — with four
  // independent dependency chains per row for ILP.
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    size_t j = 0;
#if KGREC_KERNELS_AVX2
    for (; j + 32 <= n; j += 32) {
      __m256 c0 = _mm256_setzero_ps();
      __m256 c1 = _mm256_setzero_ps();
      __m256 c2 = _mm256_setzero_ps();
      __m256 c3 = _mm256_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        const __m256 av = _mm256_set1_ps(arow[p]);
        const float* brow = b + p * n + j;
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 16)));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 24)));
      }
      _mm256_storeu_ps(crow + j, c0);
      _mm256_storeu_ps(crow + j + 8, c1);
      _mm256_storeu_ps(crow + j + 16, c2);
      _mm256_storeu_ps(crow + j + 24, c3);
    }
#endif
    for (; j + 16 <= n; j += 16) {
      __m128 c0 = _mm_setzero_ps();
      __m128 c1 = _mm_setzero_ps();
      __m128 c2 = _mm_setzero_ps();
      __m128 c3 = _mm_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        const __m128 av = _mm_set1_ps(arow[p]);
        const float* brow = b + p * n + j;
        c0 = _mm_add_ps(c0, _mm_mul_ps(av, _mm_loadu_ps(brow)));
        c1 = _mm_add_ps(c1, _mm_mul_ps(av, _mm_loadu_ps(brow + 4)));
        c2 = _mm_add_ps(c2, _mm_mul_ps(av, _mm_loadu_ps(brow + 8)));
        c3 = _mm_add_ps(c3, _mm_mul_ps(av, _mm_loadu_ps(brow + 12)));
      }
      _mm_storeu_ps(crow + j, c0);
      _mm_storeu_ps(crow + j + 4, c1);
      _mm_storeu_ps(crow + j + 8, c2);
      _mm_storeu_ps(crow + j + 12, c3);
    }
    for (; j + 4 <= n; j += 4) {
      __m128 acc = _mm_setzero_ps();
      for (size_t p = 0; p < k; ++p) {
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(arow[p]),
                                         _mm_loadu_ps(b + p * n + j)));
      }
      _mm_storeu_ps(crow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * b[p * n + j];
      crow[j] = acc;
    }
  }
}

void MatMulTransposeB(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n, bool accumulate) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      __m128 dots = Dot4Blocked(arow, b + j * k, b + (j + 1) * k,
                                b + (j + 2) * k, b + (j + 3) * k, k);
      if (accumulate) dots = _mm_add_ps(_mm_loadu_ps(crow + j), dots);
      _mm_storeu_ps(crow + j, dots);
    }
    for (; j < n; ++j) {
      const float v = Dot(arow, b + j * k, k);
      crow[j] = accumulate ? crow[j] + v : v;
    }
  }
}

void MatMulTransposeAAcc(const float* a, const float* b, float* c, size_t m,
                         size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (size_t p = 0; p < k; ++p) {
      // Rank-1 update row: c[p][:] += arow[p] * brow[:] — Axpy keeps the
      // element-wise ascending-i contract.
      Axpy(arow[p], brow, c + p * n, n);
    }
  }
}

void SigmoidMap(const float* x, float* y, size_t n) { ref::SigmoidMap(x, y, n); }

void TanhMap(const float* x, float* y, size_t n) { ref::TanhMap(x, y, n); }

void ExpMap(const float* x, float* y, size_t n) { ref::ExpMap(x, y, n); }

void SoftplusMap(const float* x, float* y, size_t n) {
  ref::SoftplusMap(x, y, n);
}

void SoftmaxRows(const float* x, float* y, size_t rows, size_t cols) {
  // max / exp / sum follow the scalar reference exactly (std::exp has no
  // bitwise-equal vector form); the normalizing divide is elementwise,
  // so divps is free to vectorize it.
  for (size_t i = 0; i < rows; ++i) {
    const float* row = x + i * cols;
    float* out = y + i * cols;
    if (cols == 0) continue;
    float max_v = row[0];
    for (size_t j = 1; j < cols; ++j) max_v = std::max(max_v, row[j]);
    float total = 0.0f;
    for (size_t j = 0; j < cols; ++j) {
      out[j] = std::exp(row[j] - max_v);
      total += out[j];
    }
    const __m128 vt = _mm_set1_ps(total);
    size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      _mm_storeu_ps(out + j, _mm_div_ps(_mm_loadu_ps(out + j), vt));
    }
    for (; j < cols; ++j) out[j] /= total;
  }
}

// Int8 block kernels. Each 16-byte load is 8 rows x one dim pair;
// zero-extended to i16 it meets the broadcast i16 operand pair in
// madd_epi16, which sums the pair's two products into the row's int32
// lane (|w| * c <= 16256 * 255 per product, far inside i32). The
// accumulators therefore hold rows in order, one lane each: SSE2 keeps
// 8 registers of 4 rows, AVX2 4 registers of 8. The last step compares
// every lane against min_score and packs the survivors' bits.

namespace {

/// The i16 operand pair (op[2p], op[2p + 1]) of dim pair p, broadcast to
/// every 32-bit lane; little-endian puts op[2p] in the low half, facing
/// the row's first code byte.
inline int32_t OperandPair(const int16_t* op, size_t p) {
  int32_t pair;
  std::memcpy(&pair, op + 2 * p, sizeof(pair));
  return pair;
}

#if KGREC_KERNELS_AVX2

/// Rows 8j..8j+7 of dim pair p as i16 (code, code) lane pairs.
inline __m256i LoadRows8(const uint8_t* block, size_t p, int j) {
  return _mm256_cvtepu8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(
      block + p * 2 * kI8BlockRows + 16 * j)));
}

/// Stores the 32 row scores and returns the rows >= min_score.
inline uint32_t StoreAndMask(const __m256i* acc, int32_t min_score,
                             int32_t* scores) {
  const __m256i bound = _mm256_set1_epi32(min_score);
  uint32_t rejected = 0;
  for (int j = 0; j < 4; ++j) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(scores + 8 * j), acc[j]);
    const __m256i below = _mm256_cmpgt_epi32(bound, acc[j]);
    rejected |= static_cast<uint32_t>(
                    _mm256_movemask_ps(_mm256_castsi256_ps(below)))
                << (8 * j);
  }
  return ~rejected;
}

#else

/// Rows 8j..8j+3 (lo) and 8j+4..8j+7 (hi) of dim pair p as i16
/// (code, code) lane pairs.
inline void LoadRows8(const uint8_t* block, size_t p, int j, __m128i* lo,
                      __m128i* hi) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i c8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
      block + p * 2 * kI8BlockRows + 16 * j));
  *lo = _mm_unpacklo_epi8(c8, zero);
  *hi = _mm_unpackhi_epi8(c8, zero);
}

inline uint32_t StoreAndMask(const __m128i* acc, int32_t min_score,
                             int32_t* scores) {
  const __m128i bound = _mm_set1_epi32(min_score);
  uint32_t rejected = 0;
  for (int j = 0; j < 8; ++j) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(scores + 4 * j), acc[j]);
    const __m128i below = _mm_cmplt_epi32(acc[j], bound);
    rejected |= static_cast<uint32_t>(
                    _mm_movemask_ps(_mm_castsi128_ps(below)))
                << (4 * j);
  }
  return ~rejected;
}

#endif

}  // namespace

uint32_t DotBlockI8(const int16_t* weights, const uint8_t* block,
                    size_t pairs, int32_t min_score, int32_t* scores) {
#if KGREC_KERNELS_AVX2
  __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
  for (size_t p = 0; p < pairs; ++p) {
    const __m256i w = _mm256_set1_epi32(OperandPair(weights, p));
    a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(LoadRows8(block, p, 0), w));
    a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(LoadRows8(block, p, 1), w));
    a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(LoadRows8(block, p, 2), w));
    a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(LoadRows8(block, p, 3), w));
  }
  const __m256i acc[4] = {a0, a1, a2, a3};
#else
  __m128i a0 = _mm_setzero_si128(), a1 = a0, a2 = a0, a3 = a0;
  __m128i a4 = a0, a5 = a0, a6 = a0, a7 = a0;
  for (size_t p = 0; p < pairs; ++p) {
    const __m128i w = _mm_set1_epi32(OperandPair(weights, p));
    __m128i lo, hi;
    LoadRows8(block, p, 0, &lo, &hi);
    a0 = _mm_add_epi32(a0, _mm_madd_epi16(lo, w));
    a1 = _mm_add_epi32(a1, _mm_madd_epi16(hi, w));
    LoadRows8(block, p, 1, &lo, &hi);
    a2 = _mm_add_epi32(a2, _mm_madd_epi16(lo, w));
    a3 = _mm_add_epi32(a3, _mm_madd_epi16(hi, w));
    LoadRows8(block, p, 2, &lo, &hi);
    a4 = _mm_add_epi32(a4, _mm_madd_epi16(lo, w));
    a5 = _mm_add_epi32(a5, _mm_madd_epi16(hi, w));
    LoadRows8(block, p, 3, &lo, &hi);
    a6 = _mm_add_epi32(a6, _mm_madd_epi16(lo, w));
    a7 = _mm_add_epi32(a7, _mm_madd_epi16(hi, w));
  }
  const __m128i acc[8] = {a0, a1, a2, a3, a4, a5, a6, a7};
#endif
  return StoreAndMask(acc, min_score, scores);
}

uint32_t NegSquaredDistanceBlockI8(const int16_t* query, const uint8_t* block,
                                   size_t pairs, int32_t min_score,
                                   int32_t* scores) {
  // Accumulates the negated distance: madd(d, d) is the pair's squared
  // distance, subtracted from the row's lane (d fits i16: [-255, 255]).
#if KGREC_KERNELS_AVX2
  __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
  for (size_t p = 0; p < pairs; ++p) {
    const __m256i q = _mm256_set1_epi32(OperandPair(query, p));
    const __m256i d0 = _mm256_sub_epi16(LoadRows8(block, p, 0), q);
    const __m256i d1 = _mm256_sub_epi16(LoadRows8(block, p, 1), q);
    const __m256i d2 = _mm256_sub_epi16(LoadRows8(block, p, 2), q);
    const __m256i d3 = _mm256_sub_epi16(LoadRows8(block, p, 3), q);
    a0 = _mm256_sub_epi32(a0, _mm256_madd_epi16(d0, d0));
    a1 = _mm256_sub_epi32(a1, _mm256_madd_epi16(d1, d1));
    a2 = _mm256_sub_epi32(a2, _mm256_madd_epi16(d2, d2));
    a3 = _mm256_sub_epi32(a3, _mm256_madd_epi16(d3, d3));
  }
  const __m256i acc[4] = {a0, a1, a2, a3};
#else
  __m128i a0 = _mm_setzero_si128(), a1 = a0, a2 = a0, a3 = a0;
  __m128i a4 = a0, a5 = a0, a6 = a0, a7 = a0;
  for (size_t p = 0; p < pairs; ++p) {
    const __m128i q = _mm_set1_epi32(OperandPair(query, p));
    __m128i lo, hi;
    LoadRows8(block, p, 0, &lo, &hi);
    lo = _mm_sub_epi16(lo, q);
    hi = _mm_sub_epi16(hi, q);
    a0 = _mm_sub_epi32(a0, _mm_madd_epi16(lo, lo));
    a1 = _mm_sub_epi32(a1, _mm_madd_epi16(hi, hi));
    LoadRows8(block, p, 1, &lo, &hi);
    lo = _mm_sub_epi16(lo, q);
    hi = _mm_sub_epi16(hi, q);
    a2 = _mm_sub_epi32(a2, _mm_madd_epi16(lo, lo));
    a3 = _mm_sub_epi32(a3, _mm_madd_epi16(hi, hi));
    LoadRows8(block, p, 2, &lo, &hi);
    lo = _mm_sub_epi16(lo, q);
    hi = _mm_sub_epi16(hi, q);
    a4 = _mm_sub_epi32(a4, _mm_madd_epi16(lo, lo));
    a5 = _mm_sub_epi32(a5, _mm_madd_epi16(hi, hi));
    LoadRows8(block, p, 3, &lo, &hi);
    lo = _mm_sub_epi16(lo, q);
    hi = _mm_sub_epi16(hi, q);
    a6 = _mm_sub_epi32(a6, _mm_madd_epi16(lo, lo));
    a7 = _mm_sub_epi32(a7, _mm_madd_epi16(hi, hi));
  }
  const __m128i acc[8] = {a0, a1, a2, a3, a4, a5, a6, a7};
#endif
  return StoreAndMask(acc, min_score, scores);
}

void FiniteColumnRange(const float* x, size_t rows, size_t n, float* lo,
                       float* hi) {
  // Non-finite entries become NaN, and min/max take their *second*
  // operand for a NaN: minps(v, lo) = v < lo ? v : lo is the reference's
  // update exactly, ties keeping the earlier entry.
  const __m128 nan = _mm_set1_ps(std::numeric_limits<float>::quiet_NaN());
  const size_t n4 = n - n % 4;
  for (size_t r = 0; r < rows; ++r) {
    const float* row = x + r * n;
    for (size_t d = 0; d < n4; d += 4) {
      const __m128 v = _mm_loadu_ps(row + d);
      const __m128 finite = _mm_cmpeq_ps(_mm_sub_ps(v, v), _mm_setzero_ps());
      const __m128 kept =
          _mm_or_ps(_mm_and_ps(finite, v), _mm_andnot_ps(finite, nan));
      _mm_storeu_ps(lo + d, _mm_min_ps(kept, _mm_loadu_ps(lo + d)));
      _mm_storeu_ps(hi + d, _mm_max_ps(kept, _mm_loadu_ps(hi + d)));
    }
    if (n4 < n) ref::FiniteColumnRange(row + n4, 1, n - n4, lo + n4, hi + n4);
  }
}

bool EncodeRowU8(const float* x, const float* vmin, const float* delta,
                 const float* inv_delta, size_t n, size_t pair_stride,
                 uint8_t* out) {
  // Four dims per step in float. For the in-grid quotient q, the float
  // estimate p = (x - vmin) * inv_delta carries three roundings, so
  // |p - q| <= 3 * 2^-24 * 256 < 5e-5 while |p| < 2^30, and the double
  // quotient of the reference is within 1e-13 of q. Clamped, both round
  // to the same code unless p's fraction lies within 1e-4 of one half;
  // such a step — or one with an estimate out of range, NaN or a zero
  // step (inv_delta = inf) — is redone by the reference. max/min send
  // +inf to 255 and -inf to 0 like the reference. A step kept in float
  // had four finite inputs: a non-finite x[d] makes its estimate
  // non-finite, hence out of range.
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 top = _mm_set1_ps(255.0f);
  const __m128 in_range = _mm_set1_ps(1073741824.0f);  // 2^30
  const __m128 margin = _mm_set1_ps(1e-4f);
  const __m128 inf = _mm_set1_ps(std::numeric_limits<float>::infinity());
  bool finite = true;
  size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    const __m128 inv = _mm_loadu_ps(inv_delta + d);
    const __m128 p = _mm_mul_ps(
        _mm_sub_ps(_mm_loadu_ps(x + d), _mm_loadu_ps(vmin + d)), inv);
    const __m128 v = _mm_min_ps(_mm_max_ps(p, _mm_setzero_ps()), top);
    const __m128i base = _mm_cvttps_epi32(v);
    const __m128 frac = _mm_sub_ps(v, _mm_cvtepi32_ps(base));
    const __m128 sure = _mm_and_ps(
        _mm_and_ps(_mm_cmplt_ps(_mm_and_ps(p, abs_mask), in_range),
                   _mm_cmplt_ps(inv, inf)),
        _mm_cmpge_ps(_mm_and_ps(_mm_sub_ps(frac, half), abs_mask), margin));
    uint8_t* pairs = out + (d / 2) * pair_stride;
    if (_mm_movemask_ps(sure) != 0xF) {
      finite &= ref::EncodeRowU8(x + d, vmin + d, delta + d, inv_delta + d, 4,
                                 pair_stride, pairs);
      continue;
    }
    const __m128i up = _mm_castps_si128(_mm_cmpgt_ps(frac, half));
    __m128i code = _mm_sub_epi32(base, up);
    code = _mm_packus_epi16(_mm_packs_epi32(code, code), code);
    const uint32_t bytes = static_cast<uint32_t>(_mm_cvtsi128_si32(code));
    pairs[0] = static_cast<uint8_t>(bytes);
    pairs[1] = static_cast<uint8_t>(bytes >> 8);
    pairs[pair_stride] = static_cast<uint8_t>(bytes >> 16);
    pairs[pair_stride + 1] = static_cast<uint8_t>(bytes >> 24);
  }
  if (d < n) {
    finite &= ref::EncodeRowU8(x + d, vmin + d, delta + d, inv_delta + d,
                               n - d, pair_stride, out + (d / 2) * pair_stride);
  }
  return finite;
}

#else  // !KGREC_KERNELS_SSE2: the public entry points are the reference.

const char* Mode() { return "scalar"; }

float Dot(const float* a, const float* b, size_t n) { return ref::Dot(a, b, n); }
void Dot4(const float* a, const float* const* rows, size_t n, float* out) {
  ref::Dot4(a, rows, n, out);
}
void DotBatch(const float* a, const float* const* rows, size_t count,
              size_t n, float* out) {
  ref::DotBatch(a, rows, count, n, out);
}
void Axpy(float alpha, const float* x, float* y, size_t n) {
  ref::Axpy(alpha, x, y, n);
}
void Scale(float* x, size_t n, float alpha) { ref::Scale(x, n, alpha); }
float SquaredDistance(const float* a, const float* b, size_t n) {
  return ref::SquaredDistance(a, b, n);
}
float CosineSimilarity(const float* a, const float* b, size_t n) {
  return ref::CosineSimilarity(a, b, n);
}
void MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
            size_t n) {
  ref::MatMul(a, b, c, m, k, n);
}
void MatMulTransposeB(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n, bool accumulate) {
  ref::MatMulTransposeB(a, b, c, m, k, n, accumulate);
}
void MatMulTransposeAAcc(const float* a, const float* b, float* c, size_t m,
                         size_t k, size_t n) {
  ref::MatMulTransposeAAcc(a, b, c, m, k, n);
}
void SigmoidMap(const float* x, float* y, size_t n) { ref::SigmoidMap(x, y, n); }
void TanhMap(const float* x, float* y, size_t n) { ref::TanhMap(x, y, n); }
void ExpMap(const float* x, float* y, size_t n) { ref::ExpMap(x, y, n); }
void SoftplusMap(const float* x, float* y, size_t n) {
  ref::SoftplusMap(x, y, n);
}
void SoftmaxRows(const float* x, float* y, size_t rows, size_t cols) {
  ref::SoftmaxRows(x, y, rows, cols);
}
uint32_t DotBlockI8(const int16_t* weights, const uint8_t* block,
                    size_t pairs, int32_t min_score, int32_t* scores) {
  return ref::DotBlockI8(weights, block, pairs, min_score, scores);
}
uint32_t NegSquaredDistanceBlockI8(const int16_t* query, const uint8_t* block,
                                   size_t pairs, int32_t min_score,
                                   int32_t* scores) {
  return ref::NegSquaredDistanceBlockI8(query, block, pairs, min_score,
                                        scores);
}

void FiniteColumnRange(const float* x, size_t rows, size_t n, float* lo,
                       float* hi) {
  ref::FiniteColumnRange(x, rows, n, lo, hi);
}
bool EncodeRowU8(const float* x, const float* vmin, const float* delta,
                 const float* inv_delta, size_t n, size_t pair_stride,
                 uint8_t* out) {
  return ref::EncodeRowU8(x, vmin, delta, inv_delta, n, pair_stride, out);
}

#endif  // KGREC_KERNELS_SSE2

}  // namespace kgrec::kernels
