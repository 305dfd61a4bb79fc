// Unit tests for the math substrate: RNG, dense kernels, sparse CSR,
// top-k selection, k-means and NMF.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "math/kernels.h"
#include "math/kmeans.h"
#include "math/matrix.h"
#include "math/nmf.h"
#include "math/rng.h"
#include "math/sparse.h"
#include "math/topk.h"

namespace kgrec {
namespace {

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
  bool any_different = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.NextUint64() != c.NextUint64()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const uint64_t k = rng.UniformInt(7);
    EXPECT_LT(k, 7u);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(2);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(4);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 4000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.6);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::sort(sample.begin(), sample.end());
    EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
    for (size_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Dense, DotAxpyNorm) {
  const float a[] = {1, 2, 3};
  float b[] = {4, 5, 6};
  EXPECT_FLOAT_EQ(kernels::Dot(a, b, 3), 32.0f);
  kernels::Axpy(2.0f, a, b, 3);
  EXPECT_FLOAT_EQ(b[0], 6.0f);
  EXPECT_FLOAT_EQ(b[2], 12.0f);
  EXPECT_FLOAT_EQ(std::sqrt(kernels::Dot(a, a, 3)), std::sqrt(14.0f));
  EXPECT_FLOAT_EQ(kernels::SquaredDistance(a, a, 3), 0.0f);
}

TEST(Dense, MatMulAgainstHand) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4];
  kernels::MatMul(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19.0f);
  EXPECT_FLOAT_EQ(c[1], 22.0f);
  EXPECT_FLOAT_EQ(c[2], 43.0f);
  EXPECT_FLOAT_EQ(c[3], 50.0f);
  // A * B^T with B stored row-major as (n x k).
  float d[4];
  kernels::MatMulTransposeB(a, b, d, 2, 2, 2);
  EXPECT_FLOAT_EQ(d[0], 1 * 5 + 2 * 6);
  EXPECT_FLOAT_EQ(d[1], 1 * 7 + 2 * 8);
}

TEST(Dense, CosineSimilarity) {
  const float a[] = {1, 0};
  const float b[] = {0, 1};
  const float c[] = {2, 0};
  const float zero[] = {0, 0};
  EXPECT_FLOAT_EQ(kernels::CosineSimilarity(a, b, 2), 0.0f);
  EXPECT_FLOAT_EQ(kernels::CosineSimilarity(a, c, 2), 1.0f);
  EXPECT_FLOAT_EQ(kernels::CosineSimilarity(a, zero, 2), 0.0f);
}

TEST(Sparse, FromTripletsMergesDuplicates) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 3, {{0, 1, 1.0f}, {0, 1, 2.0f}, {1, 2, 4.0f}, {0, 0, 1.0f}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_FLOAT_EQ(m.At(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(1, 2), 4.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 0.0f);
  EXPECT_DOUBLE_EQ(m.Sum(), 8.0);
}

TEST(Sparse, MultiplyMatchesDense) {
  Rng rng(7);
  std::vector<std::tuple<int32_t, int32_t, float>> ta, tb;
  for (int i = 0; i < 30; ++i) {
    ta.emplace_back(rng.UniformInt(6), rng.UniformInt(5),
                    static_cast<float>(rng.Uniform()));
    tb.emplace_back(rng.UniformInt(5), rng.UniformInt(4),
                    static_cast<float>(rng.Uniform()));
  }
  CsrMatrix a = CsrMatrix::FromTriplets(6, 5, ta);
  CsrMatrix b = CsrMatrix::FromTriplets(5, 4, tb);
  CsrMatrix c = a.Multiply(b);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      float expected = 0.0f;
      for (size_t k = 0; k < 5; ++k) expected += a.At(i, k) * b.At(k, j);
      EXPECT_NEAR(c.At(i, j), expected, 1e-5f);
    }
  }
}

TEST(Sparse, TransposeRoundTrip) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 4, {{0, 3, 1.5f}, {2, 1, -2.0f}, {1, 0, 0.5f}});
  CsrMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(m.At(i, j), t.At(j, i));
    }
  }
}

TEST(Sparse, MultiplyVector) {
  CsrMatrix m =
      CsrMatrix::FromTriplets(2, 3, {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 1, 3.0f}});
  const float x[] = {1.0f, 2.0f, 3.0f};
  float y[2];
  m.MultiplyVector(x, y);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(TopK, OrderAndTies) {
  std::vector<float> scores{1.0f, 5.0f, 5.0f, 2.0f, 0.0f};
  std::vector<int32_t> top = TopKIndices(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1);  // tie broken toward lower index
  EXPECT_EQ(top[1], 2);
  EXPECT_EQ(top[2], 3);
  EXPECT_EQ(TopKIndices(scores, 100).size(), scores.size());
  auto scored = TopKScored(scores, 2);
  EXPECT_FLOAT_EQ(scored[0].second, 5.0f);
}

TEST(KMeans, SeparatesObviousClusters) {
  Rng rng(8);
  Matrix points(40, 2);
  for (int i = 0; i < 20; ++i) {
    points.At(i, 0) = static_cast<float>(rng.Normal(0.0, 0.1));
    points.At(i, 1) = static_cast<float>(rng.Normal(0.0, 0.1));
    points.At(20 + i, 0) = static_cast<float>(rng.Normal(10.0, 0.1));
    points.At(20 + i, 1) = static_cast<float>(rng.Normal(10.0, 0.1));
  }
  KMeansResult result = KMeans(points, 2, 20, rng);
  // All points of one blob share a cluster id, different from the other.
  for (int i = 1; i < 20; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[0]);
    EXPECT_EQ(result.assignment[20 + i], result.assignment[20]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[20]);
}

TEST(Nmf, ReconstructsLowRankMatrix) {
  Rng rng(9);
  // Build a rank-2 non-negative matrix.
  Matrix u(8, 2), v(6, 2);
  for (size_t i = 0; i < u.size(); ++i) {
    u.data()[i] = static_cast<float>(rng.Uniform(0.0, 1.0));
  }
  for (size_t i = 0; i < v.size(); ++i) {
    v.data()[i] = static_cast<float>(rng.Uniform(0.0, 1.0));
  }
  std::vector<std::tuple<int32_t, int32_t, float>> triplets;
  for (int32_t i = 0; i < 8; ++i) {
    for (int32_t j = 0; j < 6; ++j) {
      triplets.emplace_back(i, j, kernels::Dot(u.Row(i), v.Row(j), 2));
    }
  }
  CsrMatrix r = CsrMatrix::FromTriplets(8, 6, triplets);
  NmfResult nmf = Nmf(r, 2, 200, rng);
  double err = 0.0, total = 0.0;
  for (int32_t i = 0; i < 8; ++i) {
    for (int32_t j = 0; j < 6; ++j) {
      const float approx = kernels::Dot(nmf.user_factors.Row(i),
                                        nmf.item_factors.Row(j), 2);
      err += std::fabs(approx - r.At(i, j));
      total += r.At(i, j);
    }
  }
  EXPECT_LT(err / total, 0.05);
}

}  // namespace
}  // namespace kgrec
