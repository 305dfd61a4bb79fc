// End-to-end training of the second wave of surveyed methods:
// Hete-CF, entity2rec, SHINE, KSR, KNI, RippleNet-agg.

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "data/synthetic.h"
#include "embed/entity2rec.h"
#include "embed/ksr.h"
#include "embed/shine.h"
#include "eval/protocol.h"
#include "path/hete_cf.h"
#include "unified/kni.h"
#include "unified/ripplenet_agg.h"

namespace kgrec {
namespace {

struct Fixture {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  Fixture() {
    WorldConfig config;
    config.num_users = 150;
    config.num_items = 250;
    config.avg_interactions_per_user = 16.0;
    config.item_relations = {{"genre", 10, 1, 0.9f}, {"studio", 25, 1, 0.7f}};
    config.seed = 91;
    world = GenerateWorld(config);
    Rng rng(10);
    split = RatioSplit(world.interactions, 0.2, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

double TrainAndAuc(Recommender& model, uint64_t seed = 37) {
  Fixture& f = SharedFixture();
  RecContext ctx;
  ctx.train = &f.split.train;
  ctx.item_kg = &f.world.item_kg;
  ctx.user_item_graph = &f.ui_graph;
  ctx.seed = seed;
  model.Fit(ctx);
  EvalOptions options;
  options.seed = Rng(222).NextUint64();
  return EvaluateCtr(model, f.split.train, f.split.test, options).auc;
}

TEST(IntegrationExtended, HeteCfLearns) {
  HeteCfConfig config;
  config.epochs = 25;
  HeteCfRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationExtended, Entity2RecLearns) {
  Entity2RecRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.62);
}

TEST(IntegrationExtended, ShineLearns) {
  ShineConfig config;
  config.epochs = 15;
  ShineRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.62);
}

TEST(IntegrationExtended, KsrLearns) {
  // Every context seed in a range must clear the bound, so one lucky
  // seed cannot carry the gate.
  for (uint64_t seed = 37; seed <= 46; ++seed) {
    KsrRecommender model;  // default epochs
    EXPECT_GT(TrainAndAuc(model, seed), 0.58) << "context seed " << seed;
  }
}

TEST(IntegrationExtended, KniLearns) {
  KniConfig config;
  config.epochs = 10;
  KniRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.62);
}

TEST(IntegrationExtended, RippleNetAggLearns) {
  RippleNetConfig config;
  config.epochs = 8;
  RippleNetAggRecommender model(config);
  EXPECT_EQ(model.name(), "RippleNet-agg");
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

}  // namespace
}  // namespace kgrec
