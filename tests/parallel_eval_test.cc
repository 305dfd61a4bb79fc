// Determinism lockdown of the parallel evaluation harness: for one model
// per family (CF / embedding / path / unified), EvaluateCtr and
// EvaluateTopK must produce **bitwise identical** metrics at 1, 2 and 8
// threads — the per-user counter-based RNG streams (Rng::Fork) make the
// sampled negatives independent of thread count and work order.
//
// This suite (plus thread_pool_test) is the one the CI matrix re-runs
// under ThreadSanitizer (-DKGREC_SANITIZE=thread).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "eval/protocol.h"

namespace kgrec {
namespace {

struct Fixture {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  Fixture() {
    WorldConfig config;
    config.num_users = 80;
    config.num_items = 120;
    config.avg_interactions_per_user = 12.0;
    config.item_relations = {{"genre", 8, 1, 0.9f}, {"studio", 15, 1, 0.7f}};
    config.seed = 77;
    world = GenerateWorld(config);
    Rng rng(11);
    split = RatioSplit(world.interactions, 0.25, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }

  RecContext Context() const {
    RecContext ctx;
    ctx.train = &split.train;
    ctx.item_kg = &world.item_kg;
    ctx.user_item_graph = &ui_graph;
    ctx.seed = 29;
    return ctx;
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

/// One representative per survey family. All four must hold the bitwise
/// contract; model internals differ wildly (dense MF, autodiff graphs,
/// path enumeration, ripple propagation), so together they exercise
/// Score() under concurrency across the whole zoo's substrate.
const char* kFamilyRepresentatives[] = {
    "BPR-MF",     // CF baseline
    "CKE",        // embedding-based
    "Hete-MF",    // path-based
    "RippleNet",  // unified
};

class ParallelEval : public ::testing::TestWithParam<const char*> {};

void ExpectBitwiseEqualCtr(const CtrMetrics& a, const CtrMetrics& b) {
  EXPECT_EQ(a.auc, b.auc);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.f1, b.f1);
  EXPECT_EQ(a.num_pairs, b.num_pairs);
}

void ExpectBitwiseEqualTopK(const TopKMetrics& a, const TopKMetrics& b) {
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.ndcg, b.ndcg);
  EXPECT_EQ(a.mrr, b.mrr);
  EXPECT_EQ(a.num_users, b.num_users);
}

TEST_P(ParallelEval, MetricsBitwiseIdenticalAcrossThreadCounts) {
  Fixture& f = SharedFixture();
  std::unique_ptr<Recommender> model = MakeRecommender(GetParam());
  ASSERT_NE(model, nullptr);
  model->Fit(f.Context());

  EvalOptions serial;
  serial.num_threads = 1;
  serial.num_negatives = 40;
  serial.k = 10;
  serial.seed = 4242;
  const CtrMetrics ctr_ref =
      EvaluateCtr(*model, f.split.train, f.split.test, serial);
  const TopKMetrics topk_ref =
      EvaluateTopK(*model, f.split.train, f.split.test, serial);
  EXPECT_GT(ctr_ref.num_pairs, 0u);
  EXPECT_GT(topk_ref.num_users, 0u);

  for (size_t threads : {2u, 8u}) {
    EvalOptions parallel = serial;
    parallel.num_threads = threads;
    ExpectBitwiseEqualCtr(
        EvaluateCtr(*model, f.split.train, f.split.test, parallel), ctr_ref);
    ExpectBitwiseEqualTopK(
        EvaluateTopK(*model, f.split.train, f.split.test, parallel),
        topk_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(FamilyRepresentatives, ParallelEval,
                         ::testing::ValuesIn(kFamilyRepresentatives),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ParallelEvalProtocol, RepeatedRunsAreIdentical) {
  // Same seed, same thread count -> same metrics run to run (the pool
  // introduces no hidden state).
  Fixture& f = SharedFixture();
  std::unique_ptr<Recommender> model = MakeRecommender("BPR-MF");
  model->Fit(f.Context());
  EvalOptions options;
  options.num_threads = 4;
  options.seed = 99;
  const TopKMetrics first =
      EvaluateTopK(*model, f.split.train, f.split.test, options);
  const TopKMetrics second =
      EvaluateTopK(*model, f.split.train, f.split.test, options);
  ExpectBitwiseEqualTopK(first, second);
}

TEST(ParallelEvalProtocol, DifferentSeedsChangeSampledNegatives) {
  // Sanity that the seed actually matters (the contract is "identical
  // across threads", not "identical across seeds").
  Fixture& f = SharedFixture();
  std::unique_ptr<Recommender> model = MakeRecommender("BPR-MF");
  model->Fit(f.Context());
  EvalOptions a;
  a.seed = 1;
  EvalOptions b;
  b.seed = 2;
  const CtrMetrics ma = EvaluateCtr(*model, f.split.train, f.split.test, a);
  const CtrMetrics mb = EvaluateCtr(*model, f.split.train, f.split.test, b);
  EXPECT_NE(ma.auc, mb.auc);
}

TEST(ParallelEvalProtocol, EmptyTestSetStaysEmptyAtAnyThreadCount) {
  Fixture& f = SharedFixture();
  std::unique_ptr<Recommender> model = MakeRecommender("Popularity");
  model->Fit(f.Context());
  InteractionDataset empty(f.split.train.num_users(),
                           f.split.train.num_items());
  for (size_t threads : {1u, 8u}) {
    EvalOptions options;
    options.num_threads = threads;
    const CtrMetrics ctr =
        EvaluateCtr(*model, f.split.train, empty, options);
    EXPECT_EQ(ctr.num_pairs, 0u);
    const TopKMetrics topk =
        EvaluateTopK(*model, f.split.train, empty, options);
    EXPECT_EQ(topk.num_users, 0u);
  }
}

}  // namespace
}  // namespace kgrec
