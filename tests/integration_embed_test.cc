// End-to-end training of the embedding-based family (survey Section 4.1)
// on a small synthetic world: every model must clearly beat chance.

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "data/synthetic.h"
#include "embed/cfkg.h"
#include "embed/cke.h"
#include "embed/dkn.h"
#include "embed/ktup.h"
#include "embed/mkr.h"
#include "eval/protocol.h"

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
    config.seed = 31;
    world = GenerateWorld(config);
    Rng rng(6);
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
  ctx.seed = 17;
  model.Fit(ctx);
  EvalOptions options;
  options.seed = Rng(88).NextUint64();
  return EvaluateCtr(model, f.split.train, f.split.test, options).auc;
}

TEST(IntegrationEmbed, CkeLearns) {
  CkeConfig config;
  config.epochs = 20;
  CkeRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationEmbed, CfkgLearns) {
  CfkgConfig config;
  config.epochs = 20;
  CfkgRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.6);
}

TEST(IntegrationEmbed, KtupLearns) {
  KtupConfig config;
  config.epochs = 20;
  KtupRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationEmbed, MkrLearns) {
  MkrConfig config;
  config.epochs = 15;
  MkrRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationEmbed, DknLearns) {
  DknConfig config;
  config.epochs = 8;
  DknRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.6);
}

}  // namespace
}  // namespace kgrec
