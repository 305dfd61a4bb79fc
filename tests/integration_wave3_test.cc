// End-to-end training of the third wave of surveyed methods:
// SED, ProPPR, DKFM, ECFKG (with its KGE-ranked explanations).

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "data/synthetic.h"
#include "embed/dkfm.h"
#include "embed/ecfkg.h"
#include "embed/sed.h"
#include "eval/protocol.h"
#include "embed/ktgan.h"
#include "path/ekar.h"
#include "path/herec.h"
#include "path/mcrec.h"
#include "path/proppr.h"

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
    config.seed = 123;
    world = GenerateWorld(config);
    Rng rng(12);
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
  ctx.seed = 41;
  model.Fit(ctx);
  EvalOptions options;
  options.seed = Rng(321).NextUint64();
  return EvaluateCtr(model, f.split.train, f.split.test, options).auc;
}

TEST(IntegrationWave3, SedBeatsChanceWithoutTraining) {
  SedRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.55);
}

TEST(IntegrationWave3, ProPprLearns) {
  ProPprRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationWave3, DkfmLearns) {
  DkfmRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationWave3, EcfkgLearnsAndExplains) {
  EcfkgRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.6);
  // Some pair must be explainable with a KGE-ranked path.
  Fixture& f = SharedFixture();
  bool explained = false;
  for (int32_t u = 0; u < 20 && !explained; ++u) {
    for (int32_t i = 0; i < f.split.train.num_items(); ++i) {
      const std::string path = model.Explain(u, i);
      if (!path.empty()) {
        EXPECT_NE(path.find("-["), std::string::npos);
        explained = true;
        break;
      }
    }
  }
  EXPECT_TRUE(explained);
}

TEST(IntegrationWave3, McRecLearns) {
  McRecConfig config;
  config.epochs = 4;
  McRecRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.6);
}

TEST(IntegrationWave3, HERecLearns) {
  HERecRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationWave3, KtganLearns) {
  KtganRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.6);
}

TEST(IntegrationWave3, EkarLearns) {
  EkarRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.58);
}

}  // namespace
}  // namespace kgrec
