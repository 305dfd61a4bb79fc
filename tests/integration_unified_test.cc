// End-to-end training of the unified family (survey Section 4.3).

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "unified/akupm.h"
#include "unified/kgat.h"
#include "unified/kgcn.h"
#include "unified/ripplenet.h"

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
    config.seed = 55;
    world = GenerateWorld(config);
    Rng rng(8);
    split = RatioSplit(world.interactions, 0.2, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

double TrainAndAuc(Recommender& model) {
  Fixture& f = SharedFixture();
  RecContext ctx;
  ctx.train = &f.split.train;
  ctx.item_kg = &f.world.item_kg;
  ctx.user_item_graph = &f.ui_graph;
  ctx.seed = 23;
  model.Fit(ctx);
  EvalOptions options;
  options.seed = Rng(99).NextUint64();
  return EvaluateCtr(model, f.split.train, f.split.test, options).auc;
}

TEST(IntegrationUnified, RippleNetLearns) {
  RippleNetConfig config;
  config.epochs = 10;
  RippleNetRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationUnified, AkupmLearns) {
  RippleNetConfig config;
  config.epochs = 10;
  AkupmRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationUnified, KgcnLearns) {
  KgcnConfig config;
  config.epochs = 10;
  KgcnRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationUnified, KgcnLsLearns) {
  KgcnConfig config;
  config.epochs = 10;
  config.ls_weight = 0.5f;
  KgcnRecommender model(config);
  EXPECT_EQ(model.name(), "KGCN-LS");
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationUnified, KgatLearns) {
  KgatConfig config;
  config.epochs = 10;
  KgatRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationUnified, KgcnAllAggregatorsLearn) {
  for (AggregatorKind kind :
       {AggregatorKind::kSum, AggregatorKind::kConcat,
        AggregatorKind::kNeighbor, AggregatorKind::kBiInteraction}) {
    KgcnConfig config;
    config.epochs = 6;
    config.aggregator = kind;
    KgcnRecommender model(config);
    EXPECT_GT(TrainAndAuc(model), 0.6) << AggregatorKindName(kind);
  }
}

}  // namespace
}  // namespace kgrec
