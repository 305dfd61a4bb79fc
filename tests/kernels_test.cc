// Lockdown of the shared kernel layer (math/kernels.h): bitwise equality
// of every dispatched kernel against the scalar reference across a dense
// sweep of lengths, a golden test pinning the fixed-block accumulation
// order itself (including a case where blocked != sequential), the fused
// CosineSimilarity zero-vector guard, gradient re-checks of the ops that
// were rewired onto the kernels, and the 64-byte alignment guarantee of
// Matrix / nn::Tensor backing stores.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "math/kernels.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "nn/gradcheck.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace kgrec {
namespace {

/// Bitwise float equality (distinguishes -0.0f from 0.0f and compares
/// NaNs by payload, which EXPECT_EQ on floats cannot).
bool BitEq(float a, float b) {
  uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

#define EXPECT_BITEQ(a, b)                                              \
  EXPECT_PRED2(BitEq, (a), (b)) << "lhs=" << (a) << " rhs=" << (b)

void ExpectAllBitEq(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_BITEQ(a[i], b[i]) << "at index " << i;
  }
}

std::vector<float> RandomVec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  return v;
}

constexpr size_t kMaxLen = 67;  // Exercises 0, tails 1-3, and 16+ blocks.

TEST(Kernels, ModeIsKnown) {
  const std::string mode = kernels::Mode();
  EXPECT_TRUE(mode == "avx2" || mode == "sse2" || mode == "scalar") << mode;
}

TEST(Kernels, DotBitwiseMatchesRefAllLengths) {
  Rng rng(11);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    EXPECT_BITEQ(kernels::Dot(a.data(), b.data(), n),
                 kernels::ref::Dot(a.data(), b.data(), n))
        << "n=" << n;
  }
}

// Golden lockdown of the fixed-block order: the contract is a documented
// numerical specification, so compute it longhand here and require the
// reference (and therefore every dispatched path) to reproduce it.
TEST(Kernels, DotFixedBlockGoldenOrder) {
  Rng rng(12);
  for (size_t n : {size_t{5}, size_t{8}, size_t{23}, size_t{64}}) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    float lane[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    const size_t blocked = (n / 4) * 4;
    for (size_t i = 0; i < blocked; ++i) lane[i % 4] += a[i] * b[i];
    float expected = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for (size_t i = blocked; i < n; ++i) expected += a[i] * b[i];
    EXPECT_BITEQ(kernels::ref::Dot(a.data(), b.data(), n), expected)
        << "n=" << n;
    EXPECT_BITEQ(kernels::Dot(a.data(), b.data(), n), expected) << "n=" << n;
  }
}

// The blocked order is a *different* float sum than naive left-to-right —
// pin an input where they disagree, so a regression to sequential
// accumulation cannot slip through the equality tests above.
TEST(Kernels, DotBlockedDiffersFromSequentialSomewhere) {
  Rng rng(13);
  bool found_difference = false;
  for (int trial = 0; trial < 64 && !found_difference; ++trial) {
    const std::vector<float> a = RandomVec(48, rng);
    const std::vector<float> b = RandomVec(48, rng);
    float sequential = 0.0f;
    for (size_t i = 0; i < a.size(); ++i) sequential += a[i] * b[i];
    found_difference =
        !BitEq(sequential, kernels::ref::Dot(a.data(), b.data(), a.size()));
  }
  EXPECT_TRUE(found_difference)
      << "blocked accumulation never diverged from sequential — the "
         "reference may have regressed to a left-to-right loop";
}

TEST(Kernels, Dot4AndDotBatchMatchSingleDot) {
  Rng rng(14);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    const std::vector<float> a = RandomVec(n, rng);
    std::vector<std::vector<float>> rows_data;
    for (int q = 0; q < 7; ++q) rows_data.push_back(RandomVec(n, rng));
    std::vector<const float*> rows;
    for (const auto& r : rows_data) rows.push_back(r.data());

    float out4[4];
    kernels::Dot4(a.data(), rows.data(), n, out4);
    for (int q = 0; q < 4; ++q) {
      EXPECT_BITEQ(out4[q], kernels::Dot(a.data(), rows[q], n))
          << "n=" << n << " q=" << q;
    }

    std::vector<float> out(rows.size());
    kernels::DotBatch(a.data(), rows.data(), rows.size(), n, out.data());
    std::vector<float> ref_out(rows.size());
    kernels::ref::DotBatch(a.data(), rows.data(), rows.size(), n,
                           ref_out.data());
    for (size_t q = 0; q < rows.size(); ++q) {
      EXPECT_BITEQ(out[q], kernels::Dot(a.data(), rows[q], n))
          << "n=" << n << " q=" << q;
    }
    ExpectAllBitEq(out, ref_out);
  }
}

TEST(Kernels, AxpyScaleBitwiseMatchRef) {
  Rng rng(15);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    const std::vector<float> x = RandomVec(n, rng);
    std::vector<float> y = RandomVec(n, rng);
    std::vector<float> y_ref = y;
    kernels::Axpy(0.37f, x.data(), y.data(), n);
    kernels::ref::Axpy(0.37f, x.data(), y_ref.data(), n);
    ExpectAllBitEq(y, y_ref);

    std::vector<float> s = RandomVec(n, rng);
    std::vector<float> s_ref = s;
    kernels::Scale(s.data(), n, -1.73f);
    kernels::ref::Scale(s_ref.data(), n, -1.73f);
    ExpectAllBitEq(s, s_ref);
  }
}

TEST(Kernels, SquaredDistanceAndCosineBitwiseMatchRef) {
  Rng rng(16);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    EXPECT_BITEQ(kernels::SquaredDistance(a.data(), b.data(), n),
                 kernels::ref::SquaredDistance(a.data(), b.data(), n))
        << "n=" << n;
    EXPECT_BITEQ(kernels::CosineSimilarity(a.data(), b.data(), n),
                 kernels::ref::CosineSimilarity(a.data(), b.data(), n))
        << "n=" << n;
  }
}

// Regression for the fused single-pass CosineSimilarity: the all-zero
// guard must survive the fusion (0/0 would otherwise yield NaN), and the
// fused value must agree with the three-pass formula it replaced.
TEST(Kernels, CosineSimilarityZeroVectorGuard) {
  const std::vector<float> zero(16, 0.0f);
  std::vector<float> v(16, 0.0f);
  v[3] = 2.5f;
  EXPECT_BITEQ(kernels::CosineSimilarity(zero.data(), v.data(), 16), 0.0f);
  EXPECT_BITEQ(kernels::CosineSimilarity(v.data(), zero.data(), 16), 0.0f);
  EXPECT_BITEQ(kernels::CosineSimilarity(zero.data(), zero.data(), 16), 0.0f);
  // Identical vectors: cosine is dot/(|v|*|v|), within float rounding of 1.
  EXPECT_NEAR(kernels::CosineSimilarity(v.data(), v.data(), 16), 1.0f, 1e-6f);
}

TEST(Kernels, MatMulFamilyBitwiseMatchesRef) {
  Rng rng(17);
  for (size_t m : {size_t{1}, size_t{3}, size_t{8}}) {
    for (size_t k : {size_t{1}, size_t{5}, size_t{16}, size_t{33}}) {
      for (size_t n : {size_t{1}, size_t{2}, size_t{17}, size_t{40}}) {
        const std::vector<float> a = RandomVec(m * k, rng);
        const std::vector<float> b = RandomVec(k * n, rng);
        std::vector<float> c(m * n), c_ref(m * n);
        kernels::MatMul(a.data(), b.data(), c.data(), m, k, n);
        kernels::ref::MatMul(a.data(), b.data(), c_ref.data(), m, k, n);
        ExpectAllBitEq(c, c_ref);

        // A (m x k), B^T form with B (n x k); overwrite then accumulate.
        const std::vector<float> bt = RandomVec(n * k, rng);
        std::vector<float> d = RandomVec(m * n, rng);
        std::vector<float> d_ref = d;
        kernels::MatMulTransposeB(a.data(), bt.data(), d.data(), m, k, n,
                                  /*accumulate=*/true);
        kernels::ref::MatMulTransposeB(a.data(), bt.data(), d_ref.data(), m,
                                       k, n, /*accumulate=*/true);
        ExpectAllBitEq(d, d_ref);
        kernels::MatMulTransposeB(a.data(), bt.data(), d.data(), m, k, n);
        kernels::ref::MatMulTransposeB(a.data(), bt.data(), d_ref.data(), m,
                                       k, n);
        ExpectAllBitEq(d, d_ref);
        // Each overwritten entry is a fixed-block dot of the two rows.
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            EXPECT_BITEQ(d[i * n + j],
                         kernels::Dot(a.data() + i * k, bt.data() + j * k, k));
          }
        }

        // C += A^T * B with A (m x k), B (m x n), C (k x n).
        const std::vector<float> b2 = RandomVec(m * n, rng);
        std::vector<float> e = RandomVec(k * n, rng);
        std::vector<float> e_ref = e;
        kernels::MatMulTransposeAAcc(a.data(), b2.data(), e.data(), m, k, n);
        kernels::ref::MatMulTransposeAAcc(a.data(), b2.data(), e_ref.data(),
                                          m, k, n);
        ExpectAllBitEq(e, e_ref);
      }
    }
  }
}

// MatMul dropped its `if (av == 0.0f) continue;` micro-opt: a
// skipped 0 * x add is observable when x is non-finite. Lock the IEEE
// semantics in so the skip cannot quietly return.
TEST(Kernels, MatMulZeroTimesInfIsNan) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> a = {0.0f, 1.0f};   // 1 x 2
  const std::vector<float> b = {inf, 1.0f};    // 2 x 1
  std::vector<float> c(1, -7.0f);
  kernels::MatMul(a.data(), b.data(), c.data(), 1, 2, 1);
  EXPECT_TRUE(std::isnan(c[0])) << "0 * inf must reach the accumulator";
}

TEST(Kernels, TranscendentalMapsBitwiseMatchRefAndFormula) {
  Rng rng(18);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    std::vector<float> x = RandomVec(n, rng);
    for (float& v : x) v *= 25.0f;  // Cover the softplus/sigmoid branches.
    std::vector<float> y(n), y_ref(n);

    kernels::SigmoidMap(x.data(), y.data(), n);
    kernels::ref::SigmoidMap(x.data(), y_ref.data(), n);
    ExpectAllBitEq(y, y_ref);

    kernels::TanhMap(x.data(), y.data(), n);
    kernels::ref::TanhMap(x.data(), y_ref.data(), n);
    ExpectAllBitEq(y, y_ref);
    for (size_t i = 0; i < n; ++i) EXPECT_BITEQ(y[i], std::tanh(x[i]));

    kernels::ExpMap(x.data(), y.data(), n);
    kernels::ref::ExpMap(x.data(), y_ref.data(), n);
    ExpectAllBitEq(y, y_ref);
    for (size_t i = 0; i < n; ++i) EXPECT_BITEQ(y[i], std::exp(x[i]));

    kernels::SoftplusMap(x.data(), y.data(), n);
    kernels::ref::SoftplusMap(x.data(), y_ref.data(), n);
    ExpectAllBitEq(y, y_ref);
  }
}

TEST(Kernels, SoftmaxRowsBitwiseMatchesRefAndNormalizes) {
  Rng rng(19);
  for (size_t cols : {size_t{1}, size_t{3}, size_t{8}, size_t{21}}) {
    const size_t rows = 5;
    const std::vector<float> x = RandomVec(rows * cols, rng);
    std::vector<float> y(x.size()), y_ref(x.size());
    kernels::SoftmaxRows(x.data(), y.data(), rows, cols);
    kernels::ref::SoftmaxRows(x.data(), y_ref.data(), rows, cols);
    ExpectAllBitEq(y, y_ref);
    for (size_t r = 0; r < rows; ++r) {
      float sum = 0.0f;
      for (size_t c = 0; c < cols; ++c) sum += y[r * cols + c];
      EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
  }
}

// The ops rewired onto tiled kernels must still pass finite-difference
// gradient checks (the backward closures changed their inner loops).
TEST(Kernels, RewiredOpsPassGradCheck) {
  constexpr double kTol = 2e-3;
  Rng rng(21);
  nn::Tensor a = nn::NormalInit(4, 6, 0.5f, rng);
  nn::Tensor b = nn::NormalInit(6, 5, 0.5f, rng);
  nn::Tensor c = nn::NormalInit(4, 6, 0.5f, rng);
  EXPECT_LT(nn::GradCheck([&] { return nn::Sum(nn::MatMul(a, b)); }, {a, b}),
            kTol);
  EXPECT_LT(
      nn::GradCheck([&] { return nn::Sum(nn::RowwiseDot(a, c)); }, {a, c}),
      kTol);
  EXPECT_LT(nn::GradCheck([&] { return nn::Sum(nn::Softmax(a)); }, {a}),
            kTol);
  EXPECT_LT(nn::GradCheck([&] { return nn::Sum(nn::Sigmoid(a)); }, {a}),
            kTol);
  EXPECT_LT(nn::GradCheck([&] { return nn::Sum(nn::Softplus(a)); }, {a}),
            kTol);
  nn::Tensor x = nn::NormalInit(3, 4, 0.5f, rng);
  nn::Tensor w = nn::NormalInit(3, 16, 0.5f, rng);
  EXPECT_LT(
      nn::GradCheck([&] { return nn::Sum(nn::RowwiseVecMat(x, w)); }, {x, w}),
      kTol);
}

// RowwiseDot is now a first-class fused op — its forward must equal the
// composition it replaced and each row must follow the dot contract.
TEST(Kernels, RowwiseDotForwardMatchesKernelDot) {
  Rng rng(22);
  nn::Tensor a = nn::NormalInit(5, 19, 1.0f, rng);
  nn::Tensor b = nn::NormalInit(5, 19, 1.0f, rng);
  nn::Tensor out = nn::RowwiseDot(a, b);
  ASSERT_EQ(out.rows(), 5u);
  ASSERT_EQ(out.cols(), 1u);
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_BITEQ(out.data()[r],
                 kernels::Dot(a.data() + r * 19, b.data() + r * 19, 19));
  }
}

TEST(Kernels, BackingStoresAre64ByteAligned) {
  for (size_t rows : {size_t{1}, size_t{3}, size_t{17}}) {
    Matrix m(rows, 13);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u);
    nn::Tensor t = nn::Tensor::Zeros(rows, 13, /*requires_grad=*/true);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.node()->grad.data()) % 64, 0u);
  }
}

// ---------------------------------------------------------------------
// Int8 kernels (the SQ8 scan layer): dispatched vs reference equality is
// *exact* — integer accumulation, not a block-order contract — so any
// mismatch is an outright bug, including at the extreme byte values.

std::vector<uint8_t> RandomCodes(size_t n, Rng& rng) {
  std::vector<uint8_t> v(n);
  for (uint8_t& x : v) x = static_cast<uint8_t>(rng.UniformInt(256));
  return v;
}

std::vector<int8_t> RandomWeights(size_t n, Rng& rng) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(static_cast<int>(rng.UniformInt(256)) - 128);
  }
  return v;
}

TEST(Kernels, DotI8MatchesRefAllLengths) {
  Rng rng(41);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    const std::vector<uint8_t> codes = RandomCodes(n, rng);
    const std::vector<int8_t> weights = RandomWeights(n, rng);
    EXPECT_EQ(kernels::DotI8(weights.data(), codes.data(), n),
              kernels::ref::DotI8(weights.data(), codes.data(), n))
        << "n=" << n;
  }
}

TEST(Kernels, SquaredDistanceI8MatchesRefAllLengths) {
  Rng rng(42);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    const std::vector<uint8_t> a = RandomCodes(n, rng);
    const std::vector<uint8_t> b = RandomCodes(n, rng);
    EXPECT_EQ(kernels::SquaredDistanceI8(a.data(), b.data(), n),
              kernels::ref::SquaredDistanceI8(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(Kernels, I8GoldenValuesAndExtremes) {
  // Longhand golden case.
  const uint8_t codes[5] = {0, 1, 255, 128, 7};
  const int8_t weights[5] = {-128, 127, -1, 64, 0};
  EXPECT_EQ(kernels::DotI8(weights, codes, 5),
            -128 * 0 + 127 * 1 + (-1) * 255 + 64 * 128 + 0 * 7);
  const uint8_t a[3] = {0, 255, 100};
  const uint8_t b[3] = {255, 0, 90};
  EXPECT_EQ(kernels::SquaredDistanceI8(a, b, 3), 255 * 255 + 255 * 255 + 100);

  // Saturation trap: every element at the worst-case magnitude across
  // multiple SIMD blocks. maddubs-style i16 pair saturation would cap
  // these sums; exact widening must not.
  constexpr size_t n = 64;
  std::vector<uint8_t> cmax(n, 255);
  std::vector<int8_t> wmin(n, -128);
  EXPECT_EQ(kernels::DotI8(wmin.data(), cmax.data(), n),
            static_cast<int32_t>(n) * (-128 * 255));
  EXPECT_EQ(kernels::ref::DotI8(wmin.data(), cmax.data(), n),
            static_cast<int32_t>(n) * (-128 * 255));
  std::vector<uint8_t> zeros(n, 0);
  EXPECT_EQ(kernels::SquaredDistanceI8(cmax.data(), zeros.data(), n),
            static_cast<int32_t>(n) * (255 * 255));
}

TEST(Kernels, I8BatchFormsMatchSingleForms) {
  Rng rng(43);
  constexpr size_t n = 33;
  constexpr size_t count = 9;  // exercises any internal 4-wide grouping
  std::vector<std::vector<uint8_t>> storage;
  std::vector<const uint8_t*> rows;
  for (size_t q = 0; q < count; ++q) {
    storage.push_back(RandomCodes(n, rng));
    rows.push_back(storage.back().data());
  }
  const std::vector<int8_t> weights = RandomWeights(n, rng);
  const std::vector<uint8_t> query = RandomCodes(n, rng);

  int32_t out[count], ref_out[count];
  kernels::DotBatchI8(weights.data(), rows.data(), count, n, out);
  kernels::ref::DotBatchI8(weights.data(), rows.data(), count, n, ref_out);
  for (size_t q = 0; q < count; ++q) {
    EXPECT_EQ(out[q], kernels::DotI8(weights.data(), rows[q], n)) << q;
    EXPECT_EQ(out[q], ref_out[q]) << q;
  }
  kernels::SquaredDistanceBatchI8(query.data(), rows.data(), count, n, out);
  kernels::ref::SquaredDistanceBatchI8(query.data(), rows.data(), count, n,
                                       ref_out);
  for (size_t q = 0; q < count; ++q) {
    EXPECT_EQ(out[q], kernels::SquaredDistanceI8(query.data(), rows[q], n))
        << q;
    EXPECT_EQ(out[q], ref_out[q]) << q;
  }
}

TEST(Kernels, DotDualBatchI8MatchesTwoSinglePasses) {
  Rng rng(44);
  // Lengths straddle the 16-wide SIMD step; counts straddle the 4-row
  // blocking (remainder rows 0..3) so every code path is hit.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                         size_t{17}, size_t{33}, size_t{64}}) {
    for (const size_t count :
         {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{9}}) {
      std::vector<std::vector<uint8_t>> storage;
      std::vector<const uint8_t*> rows;
      for (size_t q = 0; q < count; ++q) {
        storage.push_back(RandomCodes(n, rng));
        rows.push_back(storage.back().data());
      }
      const std::vector<int8_t> w_hi = RandomWeights(n, rng);
      const std::vector<int8_t> w_lo = RandomWeights(n, rng);
      std::vector<int32_t> hi(count), lo(count), ref_hi(count), ref_lo(count);
      kernels::DotDualBatchI8(w_hi.data(), w_lo.data(), rows.data(), count, n,
                              hi.data(), lo.data());
      kernels::ref::DotDualBatchI8(w_hi.data(), w_lo.data(), rows.data(),
                                   count, n, ref_hi.data(), ref_lo.data());
      for (size_t q = 0; q < count; ++q) {
        EXPECT_EQ(hi[q], kernels::DotI8(w_hi.data(), rows[q], n))
            << "n=" << n << " q=" << q;
        EXPECT_EQ(lo[q], kernels::DotI8(w_lo.data(), rows[q], n))
            << "n=" << n << " q=" << q;
        EXPECT_EQ(hi[q], ref_hi[q]) << "n=" << n << " q=" << q;
        EXPECT_EQ(lo[q], ref_lo[q]) << "n=" << n << " q=" << q;
      }
    }
  }
}

}  // namespace
}  // namespace kgrec
