// Tests of the evaluation protocols using oracle models with known
// behaviour, plus randomized sparse-algebra property checks and
// failure-injection death tests for programmer-error invariants.

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "data/interactions.h"
#include "eval/protocol.h"
#include "math/sparse.h"
#include "nn/ops.h"

namespace kgrec {
namespace {

/// Scores exactly the pairs of a reference dataset as 1, others as 0.
class OracleRecommender : public Recommender {
 public:
  explicit OracleRecommender(const InteractionDataset* truth, bool inverted)
      : truth_(truth), inverted_(inverted) {}
  std::string name() const override { return "Oracle"; }
  void Fit(const RecContext&) override {}
  float Score(int32_t user, int32_t item) const override {
    const float s = truth_->Contains(user, item) ? 1.0f : -1.0f;
    return inverted_ ? -s : s;
  }

 private:
  const InteractionDataset* truth_;
  bool inverted_;
};

struct ProtocolFixture {
  InteractionDataset train{20, 40};
  InteractionDataset test{20, 40};

  ProtocolFixture() {
    Rng rng(3);
    for (int32_t u = 0; u < 20; ++u) {
      for (int k = 0; k < 5; ++k) {
        const int32_t item = static_cast<int32_t>(rng.UniformInt(40));
        if (!train.Contains(u, item)) train.Add(u, item);
      }
      for (int k = 0; k < 3; ++k) {
        const int32_t item = static_cast<int32_t>(rng.UniformInt(40));
        if (!train.Contains(u, item) && !test.Contains(u, item)) {
          test.Add(u, item);
        }
      }
    }
  }
};

TEST(Protocol, OracleGetsPerfectCtrMetrics) {
  ProtocolFixture f;
  OracleRecommender oracle(&f.test, /*inverted=*/false);
  EvalOptions options;
  options.seed = Rng(9).NextUint64();
  CtrMetrics m = EvaluateCtr(oracle, f.train, f.test, options);
  EXPECT_DOUBLE_EQ(m.auc, 1.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  // num_pairs counts (positive, negative) pairs, i.e. evaluated test
  // interactions — not the 2x score-vector length it once reported.
  EXPECT_EQ(m.num_pairs, f.test.num_interactions());
}

TEST(Protocol, DenseWorldNeverLabelsATestPositiveAsNegative) {
  // Per user: items 0-7 in train, 8-58 in test, item 59 untouched. The
  // negative pool is then 51 test positives + 1 valid negative, so the
  // 50-attempt rejection run exhausts for a large fraction of the 204
  // pairs (p ~ 0.37 each). The old fallback silently emitted the test
  // positive itself as the "negative"; the exhaustive fallback must find
  // item 59 every time.
  InteractionDataset train(4, 60);
  InteractionDataset test(4, 60);
  for (int32_t u = 0; u < 4; ++u) {
    for (int32_t item = 0; item < 59; ++item) {
      if (item < 8) {
        train.Add(u, item);
      } else {
        test.Add(u, item);
      }
    }
  }
  OracleRecommender oracle(&test, /*inverted=*/false);
  EvalOptions options;
  CtrMetrics m = EvaluateCtr(oracle, train, test, options);
  EXPECT_EQ(m.num_pairs, test.num_interactions());
  // The oracle scores positives 1 and true negatives -1: any sneaked-in
  // test positive would score 1 under label 0 and break the separation.
  EXPECT_DOUBLE_EQ(m.auc, 1.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(Protocol, FullyInteractedUsersSkipTheirCtrPairs) {
  // Users 0/1 have consumed the whole catalog (train + test): no valid
  // negative exists, so their pairs must be skipped, not mislabeled.
  InteractionDataset train(2, 6);
  InteractionDataset test(2, 6);
  for (int32_t u = 0; u < 2; ++u) {
    for (int32_t item = 0; item < 6; ++item) {
      if (item == 5) {
        test.Add(u, item);
      } else {
        train.Add(u, item);
      }
    }
  }
  OracleRecommender oracle(&test, /*inverted=*/false);
  EvalOptions options;
  CtrMetrics m = EvaluateCtr(oracle, train, test, options);
  EXPECT_EQ(m.num_pairs, 0u);
  EXPECT_DOUBLE_EQ(m.auc, 0.0);
}

TEST(Protocol, InvertedOracleGetsZeroAuc) {
  ProtocolFixture f;
  OracleRecommender inverted(&f.test, /*inverted=*/true);
  EvalOptions options;
  options.seed = Rng(9).NextUint64();
  CtrMetrics m = EvaluateCtr(inverted, f.train, f.test, options);
  EXPECT_DOUBLE_EQ(m.auc, 0.0);
}

TEST(Protocol, OracleGetsPerfectTopK) {
  ProtocolFixture f;
  OracleRecommender oracle(&f.test, /*inverted=*/false);
  EvalOptions options;
  options.num_negatives = 30;
  options.seed = Rng(10).NextUint64();
  TopKMetrics m = EvaluateTopK(oracle, f.train, f.test, options);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
}

TEST(Protocol, EmptyTestYieldsZeroPairs) {
  ProtocolFixture f;
  InteractionDataset empty(20, 40);
  OracleRecommender oracle(&f.test, false);
  // Both evaluations draw their seeds, in order, from one generator.
  Rng rng(11);
  EvalOptions ctr_options;
  ctr_options.seed = rng.NextUint64();
  CtrMetrics m = EvaluateCtr(oracle, f.train, empty, ctr_options);
  EXPECT_EQ(m.num_pairs, 0u);
  EvalOptions topk_options;
  topk_options.num_negatives = 30;
  topk_options.seed = rng.NextUint64();
  TopKMetrics t = EvaluateTopK(oracle, f.train, empty, topk_options);
  EXPECT_EQ(t.num_users, 0u);
}

TEST(SparseProperty, DoubleTransposeIsIdentity) {
  Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::tuple<int32_t, int32_t, float>> triplets;
    for (int i = 0; i < 40; ++i) {
      triplets.emplace_back(rng.UniformInt(7), rng.UniformInt(9),
                            static_cast<float>(rng.Normal()));
    }
    CsrMatrix m = CsrMatrix::FromTriplets(7, 9, triplets);
    CsrMatrix round_trip = m.Transpose().Transpose();
    for (size_t r = 0; r < 7; ++r) {
      for (size_t c = 0; c < 9; ++c) {
        EXPECT_FLOAT_EQ(m.At(r, c), round_trip.At(r, c));
      }
    }
  }
}

TEST(SparseProperty, MultiplicationIsAssociative) {
  Rng rng(13);
  auto random_matrix = [&rng](size_t rows, size_t cols) {
    std::vector<std::tuple<int32_t, int32_t, float>> triplets;
    for (size_t i = 0; i < rows * cols / 2; ++i) {
      triplets.emplace_back(rng.UniformInt(rows), rng.UniformInt(cols),
                            static_cast<float>(rng.Uniform()));
    }
    return CsrMatrix::FromTriplets(rows, cols, triplets);
  };
  CsrMatrix a = random_matrix(5, 6);
  CsrMatrix b = random_matrix(6, 4);
  CsrMatrix c = random_matrix(4, 7);
  CsrMatrix left = a.Multiply(b).Multiply(c);
  CsrMatrix right = a.Multiply(b.Multiply(c));
  for (size_t r = 0; r < 5; ++r) {
    for (size_t k = 0; k < 7; ++k) {
      EXPECT_NEAR(left.At(r, k), right.At(r, k), 1e-4f);
    }
  }
}

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, TensorShapeMismatchAborts) {
  nn::Tensor a = nn::Tensor::Zeros(2, 3);
  nn::Tensor b = nn::Tensor::Zeros(3, 3);
  EXPECT_DEATH((void)nn::Add(a, b), "KGREC_CHECK failed");
}

TEST(CheckDeathTest, ScalarValueOfMatrixAborts) {
  nn::Tensor a = nn::Tensor::Zeros(2, 2);
  EXPECT_DEATH((void)a.value(), "KGREC_CHECK failed");
}

TEST(CheckDeathTest, GatherOutOfRangeAborts) {
  nn::Tensor table = nn::Tensor::Zeros(3, 2);
  EXPECT_DEATH((void)nn::Gather(table, {5}), "KGREC_CHECK failed");
}

}  // namespace
}  // namespace kgrec
