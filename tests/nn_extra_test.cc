// Tests for the nn engine beyond gradients: tensor API, forward-value
// correctness, numerical stability and optimizer behavior.

#include <gtest/gtest.h>

#include <cmath>

#include "math/rng.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec::nn {
namespace {

TEST(TensorApi, ZerosScalarFromData) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2u);
  EXPECT_EQ(z.cols(), 3u);
  for (size_t i = 0; i < z.size(); ++i) EXPECT_FLOAT_EQ(z.data()[i], 0.0f);
  Tensor s = Tensor::Scalar(2.5f);
  EXPECT_FLOAT_EQ(s.value(), 2.5f);
  Tensor d = Tensor::FromData(1, 2, {1.0f, -1.0f});
  EXPECT_FALSE(d.requires_grad());
  Tensor undefined;
  EXPECT_FALSE(undefined.defined());
}

TEST(TensorApi, FromAlignedAdoptsTheBufferAndDefersTheGradient) {
  AlignedVector<float> values{1.0f, 2.0f, 3.0f, 4.0f};
  const float* buffer = values.data();
  Tensor w = Tensor::FromAligned(2, 2, std::move(values),
                                 /*requires_grad=*/true);
  EXPECT_EQ(w.data(), buffer);
  EXPECT_TRUE(w.node()->grad.empty());
  // First use allocates it zero-filled; training then runs as usual.
  for (size_t i = 0; i < w.size(); ++i) EXPECT_FLOAT_EQ(w.grad()[i], 0.0f);
  Tensor fresh = Tensor::FromAligned(2, 2, AlignedVector<float>(4, 1.0f),
                                     /*requires_grad=*/true);
  Sgd opt({fresh}, 0.5f);
  Backward(Sum(Square(fresh)));
  opt.Step();
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_FLOAT_EQ(fresh.data()[i], 0.0f);  // 1 - 0.5 * 2
  }
}

TEST(ForwardValues, ElementwiseAndMatMul) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromData(2, 2, {5, 6, 7, 8});
  Tensor sum = Add(a, b);
  EXPECT_FLOAT_EQ(sum.data()[0], 6.0f);
  EXPECT_FLOAT_EQ(sum.data()[3], 12.0f);
  Tensor prod = MatMul(a, b);
  EXPECT_FLOAT_EQ(prod.data()[0], 19.0f);
  EXPECT_FLOAT_EQ(prod.data()[3], 50.0f);
  Tensor t = Transpose(a);
  EXPECT_FLOAT_EQ(t.data()[1], 3.0f);
}

TEST(ForwardValues, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, -1, 0, 1});
  Tensor s = Softmax(a);
  for (size_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (size_t c = 0; c < 3; ++c) total += s.data()[r * 3 + c];
    EXPECT_NEAR(total, 1.0f, 1e-6f);
  }
  // Monotone within a row.
  EXPECT_LT(s.data()[0], s.data()[1]);
  EXPECT_LT(s.data()[1], s.data()[2]);
}

TEST(ForwardValues, SoftmaxStableForHugeLogits) {
  Tensor a = Tensor::FromData(1, 3, {1000.0f, 999.0f, -1000.0f});
  Tensor s = Softmax(a);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(s.data()[i]));
  }
  EXPECT_GT(s.data()[0], s.data()[1]);
}

TEST(ForwardValues, BceStableForHugeLogits) {
  Tensor logits =
      Tensor::FromData(2, 1, {500.0f, -500.0f}, /*requires_grad=*/true);
  Tensor loss = BceWithLogits(logits, {1.0f, 0.0f});
  EXPECT_TRUE(std::isfinite(loss.value()));
  EXPECT_NEAR(loss.value(), 0.0f, 1e-6f);
  Backward(loss);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isfinite(logits.grad()[i]));
  }
}

TEST(ForwardValues, GatherCopiesRows) {
  Tensor table = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = Gather(table, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_FLOAT_EQ(g.data()[0], 5.0f);
  EXPECT_FLOAT_EQ(g.data()[2], 1.0f);
  EXPECT_FLOAT_EQ(g.data()[4], 5.0f);
}

TEST(ForwardValues, ReshapeGroupSumSlice) {
  Tensor a = Tensor::FromData(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor r = Reshape(a, 2, 4);
  EXPECT_FLOAT_EQ(r.data()[3], 4.0f);
  Tensor g = GroupSumRows(a, 2);
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_FLOAT_EQ(g.data()[0], 4.0f);   // 1+3
  EXPECT_FLOAT_EQ(g.data()[3], 14.0f);  // 6+8
  Tensor s = SliceCols(r, 1, 2);
  EXPECT_FLOAT_EQ(s.data()[0], 2.0f);
  EXPECT_FLOAT_EQ(s.data()[1], 3.0f);
  Tensor idx = IndexedSumRows(a, {1, 0, 1, 1}, 2);
  EXPECT_FLOAT_EQ(idx.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(idx.data()[2], 1.0f + 5.0f + 7.0f);
}

TEST(ForwardValues, RowwiseVecMatMatchesHand) {
  // x = [1, 2], M = [[1, 0], [0, 3]] -> x M = [1, 6].
  Tensor x = Tensor::FromData(1, 2, {1, 2});
  Tensor m = Tensor::FromData(1, 4, {1, 0, 0, 3});
  Tensor out = RowwiseVecMat(x, m);
  EXPECT_FLOAT_EQ(out.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(out.data()[1], 6.0f);
}

TEST(Optim, SgdMinimizesQuadratic) {
  Tensor w = Tensor::FromData(1, 1, {5.0f}, /*requires_grad=*/true);
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    Backward(Square(w));
    opt.Step();
  }
  EXPECT_NEAR(w.value(), 0.0f, 1e-4f);
}

TEST(Optim, AdamAndAdagradMinimizeQuadratic) {
  for (int which = 0; which < 2; ++which) {
    Tensor w = Tensor::FromData(1, 2, {4.0f, -3.0f}, /*requires_grad=*/true);
    std::unique_ptr<Optimizer> opt;
    if (which == 0) {
      opt = std::make_unique<Adam>(std::vector<Tensor>{w}, 0.1f);
    } else {
      opt = std::make_unique<Adagrad>(std::vector<Tensor>{w}, 0.5f);
    }
    for (int i = 0; i < 300; ++i) {
      opt->ZeroGrad();
      Backward(Sum(Square(w)));
      opt->Step();
    }
    EXPECT_NEAR(w.data()[0], 0.0f, 1e-2f);
    EXPECT_NEAR(w.data()[1], 0.0f, 1e-2f);
  }
}

TEST(Optim, WeightDecayShrinksUnusedParams) {
  Tensor w = Tensor::FromData(1, 1, {1.0f}, /*requires_grad=*/true);
  Sgd opt({w}, 0.1f, /*weight_decay=*/0.5f);
  opt.ZeroGrad();  // gradient stays zero
  for (int i = 0; i < 10; ++i) opt.Step();
  EXPECT_LT(w.value(), 1.0f);
}

TEST(Init, XavierBoundsAndDeterminism) {
  Rng rng1(7), rng2(7);
  Tensor a = XavierUniform(10, 10, rng1);
  Tensor b = XavierUniform(10, 10, rng2);
  const float bound = std::sqrt(6.0f / 20.0f);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::fabs(a.data()[i]), bound);
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
  EXPECT_TRUE(a.requires_grad());
}

TEST(Layers, LinearShapesAndBias) {
  Rng rng(8);
  Linear layer(3, 2, rng);
  Tensor x = Tensor::Zeros(4, 3);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  // Zero input -> output equals bias broadcast (initialized zero).
  for (size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y.data()[i], 0.0f);
}

TEST(Layers, GruAndLstmShapes) {
  Rng rng(9);
  GruCell gru(3, 5, rng);
  Tensor x = Tensor::FromData(2, 3, {1, 0, -1, 0.5f, 0.5f, 0.5f});
  Tensor h = Tensor::Zeros(2, 5);
  Tensor h2 = gru.Step(x, h);
  EXPECT_EQ(h2.rows(), 2u);
  EXPECT_EQ(h2.cols(), 5u);
  EXPECT_EQ(gru.Params().size(), 12u);

  LstmCell lstm(3, 5, rng);
  auto state = lstm.InitialState(2);
  state = lstm.Step(x, state);
  EXPECT_EQ(state.h.rows(), 2u);
  EXPECT_EQ(state.c.cols(), 5u);
  EXPECT_EQ(lstm.Params().size(), 16u);
}

TEST(BackwardGraph, NoGradGraphIsNoOp) {
  Tensor a = Tensor::FromData(1, 1, {3.0f});
  Tensor loss = Square(a);
  Backward(loss);  // must not crash even with no trainable parents
  SUCCEED();
}

}  // namespace
}  // namespace kgrec::nn
