// End-to-end training of the path-based family (survey Section 4.2).

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "path/fmg.h"
#include "path/hete_mf.h"
#include "path/heterec.h"
#include "path/kprn.h"
#include "path/pgpr.h"
#include "path/rkge.h"
#include "path/rulerec.h"

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
    config.seed = 77;
    world = GenerateWorld(config);
    Rng rng(9);
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
  ctx.seed = 29;
  model.Fit(ctx);
  EvalOptions options;
  options.seed = Rng(111).NextUint64();
  return EvaluateCtr(model, f.split.train, f.split.test, options).auc;
}

TEST(IntegrationPath, HeteMfLearns) {
  HeteMfConfig config;
  config.epochs = 25;
  HeteMfRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationPath, HeteRecLearns) {
  HeteRecRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationPath, HeteRecPLearns) {
  HeteRecConfig config;
  config.num_user_clusters = 4;
  HeteRecRecommender model(config);
  EXPECT_EQ(model.name(), "HeteRec-p");
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationPath, FmgLearns) {
  FmgRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.65);
}

TEST(IntegrationPath, RuleRecLearnsAndExplains) {
  RuleRecRecommender model;
  EXPECT_GT(TrainAndAuc(model), 0.65);
  auto rules = model.Rules();
  ASSERT_FALSE(rules.empty());
  // The aligned "genre" rule should carry positive weight.
  bool found_genre = false;
  for (const auto& [name, weight] : rules) {
    if (name.find("genre") != std::string::npos && weight > 0.0f) {
      found_genre = true;
    }
  }
  EXPECT_TRUE(found_genre);
  const std::string reason = model.Explain(0, 5);
  EXPECT_FALSE(reason.empty());
}

TEST(IntegrationPath, RkgeLearns) {
  RkgeConfig config;
  config.epochs = 4;
  RkgeRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.62);
}

TEST(IntegrationPath, KprnLearnsAndExplains) {
  KprnConfig config;
  config.epochs = 4;
  KprnRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.62);
}

TEST(IntegrationPath, PgprLearnsAndExplains) {
  PgprConfig config;
  PgprRecommender model(config);
  EXPECT_GT(TrainAndAuc(model), 0.6);
  // At least one user should have explainable beam-reached items.
  size_t explained = 0;
  for (int32_t u = 0; u < 150 && explained == 0; ++u) {
    for (int32_t i = 0; i < 250; ++i) {
      if (!model.ExplainPath(u, i).empty()) {
        ++explained;
        break;
      }
    }
  }
  EXPECT_GT(explained, 0u);
}

}  // namespace
}  // namespace kgrec
