// End-to-end: generate a synthetic world, train the CF baselines, and
// verify they beat chance on held-out interactions.

#include <gtest/gtest.h>

#include <memory>

#include "cf/fm.h"
#include "cf/knn.h"
#include "cf/mf.h"
#include "cf/popularity.h"
#include "core/recommender.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "eval/protocol.h"

namespace kgrec {
namespace {

struct Fixture {
  SyntheticWorld world;
  DataSplit split;

  Fixture() {
    WorldConfig config;
    config.num_users = 150;
    config.num_items = 250;
    config.avg_interactions_per_user = 18.0;
    config.item_relations = {{"genre", 10, 1, 0.9f}, {"brand", 25, 1, 0.7f}};
    config.seed = 99;
    world = GenerateWorld(config);
    Rng rng(5);
    split = RatioSplit(world.interactions, 0.2, rng);
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
  ctx.seed = 13;
  model.Fit(ctx);
  EvalOptions options;
  options.seed = Rng(77).NextUint64();
  return EvaluateCtr(model, f.split.train, f.split.test, options).auc;
}

TEST(IntegrationCf, PopularityBeatsChance) {
  PopularityRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.55);
}

TEST(IntegrationCf, ItemKnnLearns) {
  ItemKnnRecommender model(15);
  EXPECT_GT(TrainAndAuc(model), 0.6);
}

TEST(IntegrationCf, UserKnnLearns) {
  UserKnnRecommender model(15);
  EXPECT_GT(TrainAndAuc(model), 0.6);
}

TEST(IntegrationCf, MfLearns) {
  MfConfig config;
  config.epochs = 25;
  MfRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationCf, BprMfLearns) {
  MfConfig config;
  config.epochs = 25;
  BprMfRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationCf, FmWithKgFeaturesLearns) {
  FmConfig config;
  config.epochs = 15;
  FmRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationCf, TopKEvaluationProducesSaneValues) {
  Fixture& f = SharedFixture();
  MfConfig config;
  config.epochs = 20;
  BprMfRecommender model(config);
  RecContext ctx;
  ctx.train = &f.split.train;
  ctx.seed = 13;
  model.Fit(ctx);
  EvalOptions options;
  options.seed = Rng(123).NextUint64();
  TopKMetrics topk = EvaluateTopK(model, f.split.train, f.split.test, options);
  EXPECT_GT(topk.num_users, 50u);
  EXPECT_GT(topk.ndcg, 0.2);
  EXPECT_GE(topk.hit_rate, topk.recall);
  EXPECT_LE(topk.ndcg, 1.0);
}

}  // namespace
}  // namespace kgrec
