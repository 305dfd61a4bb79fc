// Determinism lockdown of the multi-threaded training paths: training
// with num_threads = 0, 1, 2 and 8 must produce **bitwise identical**
// parameters (KGE substrate, compared via SnapshotParams) and scores
// (model families, compared via Score() grids). The shard layout,
// per-shard counter-forked RNG streams (Rng::Fork) and the ordered
// gradient reduction are all functions of the configuration alone, never
// of the thread count or work order.
//
// This suite (plus parallel_eval_test and thread_pool_test) is re-run by
// the CI matrix under ThreadSanitizer (-DKGREC_SANITIZE=thread).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "data/synthetic.h"
#include "embed/cfkg.h"
#include "graph/knowledge_graph.h"
#include "kge/kge_model.h"
#include "kge/kge_trainer.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "path/kprn.h"
#include "unified/kgat.h"
#include "unified/ripplenet.h"

namespace kgrec {
namespace {

// ---------------------------------------------------------------------
// MiniBatchTrainer unit: a tiny least-squares model whose shard function
// draws per-shard randomness, trained at several thread counts.
// ---------------------------------------------------------------------

struct TrainedToy {
  std::vector<float> weights;
  std::vector<double> losses;
};

TrainedToy TrainToy(size_t num_threads) {
  constexpr size_t kExamples = 24;
  constexpr size_t kFeatures = 4;
  std::vector<float> x(kExamples * kFeatures);
  std::vector<float> y(kExamples);
  Rng data_rng(7);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(data_rng.UniformInt(9)) * 0.25f - 1.0f;
  }
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<float>(data_rng.UniformInt(5)) * 0.5f;
  }

  nn::Tensor w = nn::Tensor::FromData(
      kFeatures, 1, {0.1f, -0.2f, 0.3f, -0.4f}, /*requires_grad=*/true);
  nn::Sgd optimizer({w}, 0.05f);
  nn::MiniBatchTrainer trainer(optimizer, /*shard_size=*/5, num_threads);

  TrainedToy result;
  Rng rng(13);
  for (int step = 0; step < 6; ++step) {
    const Rng batch_rng = rng.Fork(static_cast<uint64_t>(step));
    const double loss = trainer.Step(
        kExamples, batch_rng,
        [&](size_t begin, size_t end, Rng& shard_rng) {
          const size_t n = end - begin;
          std::vector<float> xs(x.begin() + begin * kFeatures,
                                x.begin() + end * kFeatures);
          std::vector<float> ys(n);
          for (size_t i = 0; i < n; ++i) {
            // Per-shard jitter: exercises the counter-forked streams.
            ys[i] = y[begin + i] +
                    static_cast<float>(shard_rng.UniformInt(100)) * 0.001f;
          }
          nn::Tensor features =
              nn::Tensor::FromData(n, kFeatures, std::move(xs));
          nn::Tensor targets = nn::Tensor::FromData(n, 1, std::move(ys));
          nn::Tensor residual = nn::Sub(nn::MatMul(features, w), targets);
          return nn::ScaleBy(nn::Sum(nn::Square(residual)),
                             1.0f / kExamples);
        });
    result.losses.push_back(loss);
  }
  result.weights.assign(w.data(), w.data() + w.size());
  return result;
}

TEST(MiniBatchTrainerTest, BitwiseIdenticalAcrossThreadCounts) {
  const TrainedToy ref = TrainToy(1);
  for (double loss : ref.losses) EXPECT_TRUE(std::isfinite(loss));
  for (size_t threads : {2u, 8u}) {
    const TrainedToy other = TrainToy(threads);
    EXPECT_EQ(other.weights, ref.weights) << threads << " threads";
    EXPECT_EQ(other.losses, ref.losses) << threads << " threads";
  }
}

TEST(MiniBatchTrainerTest, EmptyBatchIsANoOp) {
  nn::Tensor w = nn::Tensor::FromData(2, 1, {1.0f, 2.0f},
                                      /*requires_grad=*/true);
  nn::Sgd optimizer({w}, 0.1f);
  nn::MiniBatchTrainer trainer(optimizer, 4, 2);
  const double loss =
      trainer.Step(0, Rng(1), [&](size_t, size_t, Rng&) -> nn::Tensor {
        ADD_FAILURE() << "shard function must not run for an empty batch";
        return nn::Tensor();
      });
  EXPECT_EQ(loss, 0.0);
  EXPECT_EQ(w.data()[0], 1.0f);
  EXPECT_EQ(w.data()[1], 2.0f);
}

// ---------------------------------------------------------------------
// KGE substrate: all five backends, sharded trainer.
// ---------------------------------------------------------------------

/// The learnable pattern graph of kge_test: entities 0..9 relate to
/// entity (i % 3) + 10 via relation 0 and back via relation 1.
KnowledgeGraph PatternGraph() {
  KnowledgeGraph kg;
  for (int i = 0; i < 13; ++i) kg.AddEntity("e" + std::to_string(i));
  kg.AddRelation("r");
  kg.AddRelation("s");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(kg.AddTriple(i, 0, 10 + (i % 3)).ok());
    EXPECT_TRUE(kg.AddTriple(10 + (i % 3), 1, i).ok());
  }
  kg.Finalize();
  return kg;
}

struct TrainedKge {
  std::vector<NamedTensor> params;
  float loss = 0.0f;
};

TrainedKge TrainBackend(const std::string& backend, size_t num_threads) {
  KnowledgeGraph kg = PatternGraph();
  Rng rng(21);
  auto model =
      MakeKgeModel(backend, kg.num_entities(), kg.num_relations(), 8, rng);
  KgeTrainConfig config;
  config.epochs = 10;
  config.batch_size = 16;
  config.shard_size = 4;
  config.num_threads = num_threads;
  TrainedKge result;
  result.loss = TrainKge(*model, kg, config);
  result.params = SnapshotParams(model->Params());
  return result;
}

void ExpectBitwiseEqualParams(const std::vector<NamedTensor>& a,
                              const std::vector<NamedTensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rows, b[i].rows);
    ASSERT_EQ(a[i].cols, b[i].cols);
    EXPECT_EQ(a[i].data, b[i].data) << "param " << i;
  }
}

class ParallelKgeTrain : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelKgeTrain, ParamsBitwiseIdenticalAcrossThreadCounts) {
  const TrainedKge ref = TrainBackend(GetParam(), 1);
  ASSERT_FALSE(ref.params.empty());
  EXPECT_TRUE(std::isfinite(ref.loss));
  for (size_t threads : {0u, 2u, 8u}) {
    const TrainedKge other = TrainBackend(GetParam(), threads);
    EXPECT_EQ(other.loss, ref.loss) << threads << " threads";
    ExpectBitwiseEqualParams(other.params, ref.params);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ParallelKgeTrain,
                         ::testing::ValuesIn(KgeModelNames()));

// ---------------------------------------------------------------------
// Model families that opted into threaded training. Trained parameters
// are not exposed, so the bitwise contract is asserted on Score() grids.
// ---------------------------------------------------------------------

struct Fixture {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  Fixture() {
    WorldConfig config;
    config.num_users = 40;
    config.num_items = 60;
    config.avg_interactions_per_user = 10.0;
    config.item_relations = {{"genre", 6, 1, 0.9f}, {"studio", 10, 1, 0.7f}};
    config.seed = 177;
    world = GenerateWorld(config);
    Rng rng(13);
    split = RatioSplit(world.interactions, 0.25, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }

  RecContext Context() const {
    RecContext ctx;
    ctx.train = &split.train;
    ctx.item_kg = &world.item_kg;
    ctx.user_item_graph = &ui_graph;
    ctx.seed = 31;
    return ctx;
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

std::vector<float> ScoreGrid(const Recommender& model, const Fixture& f) {
  std::vector<float> out;
  const int32_t num_users =
      static_cast<int32_t>(f.split.train.num_users());
  const int32_t num_items =
      static_cast<int32_t>(f.split.train.num_items());
  for (int32_t u = 0; u < num_users; u += 7) {
    for (int32_t i = 0; i < num_items; i += 11) {
      out.push_back(model.Score(u, i));
    }
  }
  return out;
}

template <typename Model, typename Config>
std::vector<float> TrainAndScore(Config config, const Fixture& f) {
  Model model(config);
  model.Fit(f.Context());
  return ScoreGrid(model, f);
}

TEST(ParallelTrainFamilies, CfkgBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  auto run = [&](size_t threads) {
    CfkgConfig config;
    config.epochs = 4;
    config.num_threads = threads;
    return TrainAndScore<CfkgRecommender>(config, f);
  };
  const std::vector<float> ref = run(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(0), ref);
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

TEST(ParallelTrainFamilies, RippleNetBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  auto run = [&](size_t threads) {
    RippleNetConfig config;
    config.epochs = 2;
    config.hop_size = 8;
    config.num_threads = threads;
    return TrainAndScore<RippleNetRecommender>(config, f);
  };
  const std::vector<float> ref = run(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(0), ref);
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

TEST(ParallelTrainFamilies, KgatBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  auto run = [&](size_t threads) {
    KgatConfig config;
    config.epochs = 2;
    config.batch_size = 128;
    config.num_threads = threads;
    return TrainAndScore<KgatRecommender>(config, f);
  };
  const std::vector<float> ref = run(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

TEST(ParallelTrainFamilies, KprnBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  auto run = [&](size_t threads) {
    KprnConfig config;
    config.epochs = 1;
    config.num_threads = threads;
    return TrainAndScore<KprnRecommender>(config, f);
  };
  const std::vector<float> ref = run(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

}  // namespace
}  // namespace kgrec
