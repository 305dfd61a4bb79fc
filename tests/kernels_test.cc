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
// Int8 block kernels (the SQ8 scan layer): dispatched vs reference
// equality is *exact* — integer accumulation, not a block-order contract
// — so any mismatch is an outright bug, including at the extreme values.
// Both are also checked against a longhand loop over row-major codes,
// which pins the [dim pair][row][2] block layout itself.

constexpr size_t kRows = kernels::kI8BlockRows;

/// Row-major codes [kRows, 2 * pairs] -> one interleaved block.
std::vector<uint8_t> ToBlock(const std::vector<uint8_t>& row_major,
                             size_t pairs) {
  std::vector<uint8_t> block(pairs * 2 * kRows);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t d = 0; d < 2 * pairs; ++d) {
      block[((d / 2) * kRows + r) * 2 + d % 2] = row_major[r * 2 * pairs + d];
    }
  }
  return block;
}

std::vector<uint8_t> RandomCodes(size_t n, Rng& rng) {
  std::vector<uint8_t> v(n);
  for (uint8_t& x : v) x = static_cast<uint8_t>(rng.UniformInt(256));
  return v;
}

/// Weights in [-16256, 16256], the range PrepareQuery emits.
std::vector<int16_t> RandomWeights(size_t n, Rng& rng) {
  std::vector<int16_t> v(n);
  for (int16_t& x : v) {
    x = static_cast<int16_t>(static_cast<int>(rng.UniformInt(32513)) - 16256);
  }
  return v;
}

std::vector<int16_t> RandomQueryCodes(size_t n, Rng& rng) {
  std::vector<int16_t> v(n);
  for (int16_t& x : v) x = static_cast<int16_t>(rng.UniformInt(256));
  return v;
}

/// Checks one block both ways against the longhand scores, at a
/// threshold that splits the rows, below every row and above every row.
void ExpectBlockKernelsMatch(const std::vector<uint8_t>& row_major,
                             const std::vector<int16_t>& operand, size_t pairs,
                             bool dot, const std::string& what) {
  const std::vector<uint8_t> block = ToBlock(row_major, pairs);
  int32_t longhand[kRows];
  for (size_t r = 0; r < kRows; ++r) {
    int64_t acc = 0;
    for (size_t d = 0; d < 2 * pairs; ++d) {
      const int64_t c = row_major[r * 2 * pairs + d];
      acc += dot ? operand[d] * c : -(c - operand[d]) * (c - operand[d]);
    }
    longhand[r] = static_cast<int32_t>(acc);
  }
  const auto run = [&](bool simd, int32_t min_score, int32_t* scores) {
    if (dot) {
      return simd ? kernels::DotBlockI8(operand.data(), block.data(), pairs,
                                        min_score, scores)
                  : kernels::ref::DotBlockI8(operand.data(), block.data(),
                                             pairs, min_score, scores);
    }
    return simd ? kernels::NegSquaredDistanceBlockI8(
                      operand.data(), block.data(), pairs, min_score, scores)
                : kernels::ref::NegSquaredDistanceBlockI8(
                      operand.data(), block.data(), pairs, min_score, scores);
  };
  for (const int32_t min_score :
       {std::numeric_limits<int32_t>::min(), longhand[7],
        std::numeric_limits<int32_t>::max()}) {
    uint32_t want = 0;
    for (size_t r = 0; r < kRows; ++r) {
      if (longhand[r] >= min_score) want |= uint32_t{1} << r;
    }
    for (const bool simd : {true, false}) {
      int32_t scores[kRows];
      EXPECT_EQ(run(simd, min_score, scores), want)
          << what << (simd ? " dispatched" : " ref") << " min " << min_score;
      for (size_t r = 0; r < kRows; ++r) {
        EXPECT_EQ(scores[r], longhand[r])
            << what << (simd ? " dispatched" : " ref") << " row " << r;
      }
    }
  }
}

TEST(Kernels, BlockI8KernelsMatchRefAllPairCounts) {
  Rng rng(41);
  for (size_t pairs = 0; pairs <= 20; ++pairs) {
    const std::vector<uint8_t> codes = RandomCodes(kRows * 2 * pairs, rng);
    ExpectBlockKernelsMatch(codes, RandomWeights(2 * pairs, rng), pairs,
                            /*dot=*/true, "dot pairs=" + std::to_string(pairs));
    ExpectBlockKernelsMatch(codes, RandomQueryCodes(2 * pairs, rng), pairs,
                            /*dot=*/false,
                            "l2 pairs=" + std::to_string(pairs));
  }
}

TEST(Kernels, BlockI8GoldenValues) {
  // Row 0 holds (0, 1, 255, 128), every other row (7, 7, 7, 7).
  std::vector<uint8_t> row_major(kRows * 4, 7);
  const uint8_t row0[4] = {0, 1, 255, 128};
  std::memcpy(row_major.data(), row0, 4);
  const std::vector<uint8_t> block = ToBlock(row_major, 2);
  const int16_t weights[4] = {-16256, 16256, -1, 64};
  int32_t scores[kRows];
  const uint32_t kept = kernels::DotBlockI8(weights, block.data(), 2,
                                            /*min_score=*/0, scores);
  EXPECT_EQ(scores[0], -16256 * 0 + 16256 * 1 + (-1) * 255 + 64 * 128);
  EXPECT_EQ(scores[1], 7 * (-16256 + 16256 - 1 + 64));
  EXPECT_EQ(kept, 0xFFFFFFFFu);  // every score is positive

  const int16_t query[4] = {255, 0, 100, 128};
  kernels::NegSquaredDistanceBlockI8(query, block.data(), 2, 0, scores);
  EXPECT_EQ(scores[0], -(255 * 255 + 1 + 155 * 155 + 0));
}

TEST(Kernels, BlockI8SumsStayExactAtTheDimCap) {
  // Every product at its worst-case magnitude over 256 pairs (512 dims,
  // retrieval::kMaxSq8Dim): the int32 dot sums reach
  // 512 * 16256 * 255 = 2122383360 < 2^31 without wrapping, and the i16
  // pair sums inside madd never saturate.
  constexpr size_t pairs = 256;
  const std::vector<uint8_t> cmax(kRows * 2 * pairs, 255);
  ExpectBlockKernelsMatch(cmax, std::vector<int16_t>(2 * pairs, 16256), pairs,
                          /*dot=*/true, "dot max");
  ExpectBlockKernelsMatch(cmax, std::vector<int16_t>(2 * pairs, -16256),
                          pairs, /*dot=*/true, "dot min");
  ExpectBlockKernelsMatch(cmax, std::vector<int16_t>(2 * pairs, 0), pairs,
                          /*dot=*/false, "l2 max");
  int32_t scores[kRows];
  const std::vector<int16_t> wmin(2 * pairs, -16256);
  kernels::DotBlockI8(wmin.data(), ToBlock(cmax, pairs).data(), pairs, 0,
                      scores);
  EXPECT_EQ(scores[0], -2122383360);
}

// ---------------------------------------------------------------------
// SQ8 encoding kernels: the dispatched float-estimate path must equal the
// exact double reference code for code, above all next to the rounding
// boundaries where it falls back.

TEST(Kernels, EncodeRowU8MatchesRefIncludingBoundaries) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(45);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                   size_t{16}, size_t{33}}) {
    std::vector<float> vmin(n), delta(n), inv(n);
    for (size_t d = 0; d < n; ++d) {
      vmin[d] = static_cast<float>(rng.Normal());
      // Column 1 is flat (zero step), column 2 a subnormal step.
      delta[d] = d == 1 ? 0.0f
                 : d == 2 ? 1e-40f
                          : static_cast<float>(0.001 + rng.Uniform());
      inv[d] = 1.0f / delta[d];
    }
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<float> x(n);
      for (size_t d = 0; d < n; ++d) {
        const int kind = static_cast<int>(rng.UniformInt(8));
        // Exact half-steps and their float neighbours, plain values,
        // out-of-grid values and the non-finite ones.
        const double half = static_cast<double>(rng.UniformInt(256)) + 0.5;
        const float on_half = static_cast<float>(vmin[d] + half * delta[d]);
        x[d] = kind == 0   ? on_half
               : kind == 1 ? std::nextafter(on_half, kInf)
               : kind == 2 ? std::nextafter(on_half, -kInf)
               : kind == 3 ? vmin[d] + static_cast<float>(rng.Uniform() *
                                                          300.0 - 20.0) *
                                           delta[d]
               : kind == 4 ? static_cast<float>(rng.Normal() * 1e6)
               : kind == 5 ? kNan
               : kind == 6 ? (rng.UniformInt(2) != 0 ? kInf : -kInf)
                           : vmin[d];
      }
      constexpr size_t kStride = 5;
      std::vector<uint8_t> got(kStride * (n / 2 + 1), 0);
      std::vector<uint8_t> want(got.size(), 0);
      const bool got_finite = kernels::EncodeRowU8(
          x.data(), vmin.data(), delta.data(), inv.data(), n, kStride,
          got.data());
      const bool want_finite = kernels::ref::EncodeRowU8(
          x.data(), vmin.data(), delta.data(), inv.data(), n, kStride,
          want.data());
      ASSERT_EQ(got, want) << "n=" << n << " trial " << trial;
      bool finite = true;
      for (float v : x) finite &= std::isfinite(v);
      ASSERT_EQ(got_finite, finite) << "n=" << n << " trial " << trial;
      ASSERT_EQ(want_finite, finite) << "n=" << n << " trial " << trial;
    }
  }
  // Goldens: ties to even on both sides, the clamp, the non-finite policy
  // and the zero step.
  const float vmin[8] = {0, 0, 0, 0, 0, 0, 0, 5};
  const float delta[8] = {1, 1, 1, 1, 1, 1, 1, 0};
  float inv[8];
  for (int d = 0; d < 8; ++d) inv[d] = 1.0f / delta[d];
  const float x[8] = {2.5f, 3.5f, -7.0f, 300.0f, kNan, kInf, -kInf, 9.0f};
  uint8_t out[8];
  EXPECT_FALSE(
      kernels::EncodeRowU8(x, vmin, delta, inv, 8, /*pair_stride=*/2, out));
  const uint8_t expected[8] = {2, 4, 0, 255, 0, 255, 0, 0};
  for (int d = 0; d < 8; ++d) EXPECT_EQ(out[d], expected[d]) << d;
  EXPECT_TRUE(
      kernels::EncodeRowU8(x, vmin, delta, inv, 4, /*pair_stride=*/2, out));
}

TEST(Kernels, FiniteColumnRangeMatchesRef) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(46);
  for (size_t n : {size_t{1}, size_t{4}, size_t{6}, size_t{17}}) {
    const size_t rows = 50;
    std::vector<float> x(rows * n);
    for (float& v : x) {
      const int kind = static_cast<int>(rng.UniformInt(10));
      v = kind == 0   ? kNan
          : kind == 1 ? kInf
          : kind == 2 ? -kInf
          : kind == 3 ? (rng.UniformInt(2) != 0 ? 0.0f : -0.0f)
                      : static_cast<float>(rng.Normal());
    }
    std::vector<float> lo(n, kInf), hi(n, -kInf), ref_lo(lo), ref_hi(hi);
    kernels::FiniteColumnRange(x.data(), rows, n, lo.data(), hi.data());
    kernels::ref::FiniteColumnRange(x.data(), rows, n, ref_lo.data(),
                                    ref_hi.data());
    for (size_t d = 0; d < n; ++d) {
      EXPECT_BITEQ(lo[d], ref_lo[d]);
      EXPECT_BITEQ(hi[d], ref_hi[d]);
      EXPECT_TRUE(std::isfinite(lo[d]) && std::isfinite(hi[d])) << d;
    }
  }
}

}  // namespace
}  // namespace kgrec
