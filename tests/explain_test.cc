// Tests of the explanation engine (Figure 1) and model-intrinsic
// explanations.

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "explain/explainer.h"
#include "path/path_finder.h"

namespace kgrec {
namespace {

struct Fixture {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph graph;

  Fixture() {
    WorldConfig config;
    config.num_users = 50;
    config.num_items = 80;
    config.avg_interactions_per_user = 12.0;
    config.item_relations = {{"genre", 6, 1, 0.9f}};
    config.seed = 404;
    world = GenerateWorld(config);
    Rng rng(3);
    split = RatioSplit(world.interactions, 0.2, rng);
    graph = BuildUserItemGraph(world, split.train);
  }
};

TEST(PathFinderTest, PathsAreValidGraphWalks) {
  Fixture f;
  TemplatePathFinder finder(f.graph, f.split.train, 3);
  size_t total = 0;
  for (int32_t u = 0; u < 10; ++u) {
    for (int32_t i = 0; i < 20; ++i) {
      for (const PathInstance& p : finder.FindPaths(u, i)) {
        ++total;
        // Every template path has 4 entities: the path models batch many
        // candidates' paths through one recurrent pass on that basis.
        ASSERT_EQ(p.entities.size(), 4u);
        ASSERT_EQ(p.relations.size(), 3u);
        EXPECT_EQ(p.entities.front(), f.graph.UserEntity(u));
        EXPECT_EQ(p.entities.back(), f.graph.ItemEntity(i));
        for (size_t k = 0; k < p.relations.size(); ++k) {
          EXPECT_TRUE(f.graph.kg.HasTriple(p.entities[k], p.relations[k],
                                           p.entities[k + 1]));
        }
        // The direct interact edge must never be the whole path.
        EXPECT_GT(p.relations.size(), 1u);
      }
    }
  }
  EXPECT_GT(total, 0u);
}

TEST(PathFinderTest, PathsIdenticalAcrossThreadCounts) {
  // The finder indexes every user's history in its constructor; the
  // index, and so every answer, must not depend on the thread count.
  Fixture f;
  const TemplatePathFinder serial(f.graph, f.split.train, 3, 1);
  for (size_t threads : {2u, 8u}) {
    const TemplatePathFinder parallel(f.graph, f.split.train, 3, threads);
    for (int32_t u = 0; u < f.split.train.num_users(); ++u) {
      for (int32_t i = 0; i < f.split.train.num_items(); ++i) {
        const std::vector<PathInstance> want = serial.FindPaths(u, i);
        const std::vector<PathInstance> got = parallel.FindPaths(u, i);
        ASSERT_EQ(got.size(), want.size()) << threads << " " << u << " " << i;
        for (size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(got[k].entities, want[k].entities);
          EXPECT_EQ(got[k].relations, want[k].relations);
        }
      }
    }
  }
}

TEST(PathFinderTest, RespectsPerTemplateCap) {
  Fixture f;
  TemplatePathFinder finder(f.graph, f.split.train, 2);
  for (int32_t u = 0; u < 10; ++u) {
    for (int32_t i = 0; i < 20; ++i) {
      EXPECT_LE(finder.FindPaths(u, i).size(), 4u);
    }
  }
}

TEST(ExplainerTest, VerbalizesSharedAttributeReason) {
  Fixture f;
  Explainer explainer(f.graph, f.split.train);
  // Find a pair with an explanation.
  bool found_attribute_reason = false;
  for (int32_t u = 0; u < f.split.train.num_users() && !found_attribute_reason;
       ++u) {
    for (int32_t i = 0; i < f.split.train.num_items(); ++i) {
      for (const Explanation& e : explainer.Explain(u, i)) {
        EXPECT_FALSE(e.text.empty());
        if (e.text.find("shares genre") != std::string::npos) {
          found_attribute_reason = true;
          EXPECT_NE(e.text.find("which you interacted with"),
                    std::string::npos);
        }
      }
      if (found_attribute_reason) break;
    }
  }
  EXPECT_TRUE(found_attribute_reason);
}

TEST(ExplainerTest, NoPathsMeansNoExplanations) {
  // A user whose history shares nothing with a target item of another
  // genre and no co-consumers may yield zero explanations; the API must
  // return an empty list, not crash. We just exercise many pairs.
  Fixture f;
  Explainer explainer(f.graph, f.split.train);
  for (int32_t i = 0; i < f.split.train.num_items(); ++i) {
    (void)explainer.Explain(0, i, 2);
  }
  SUCCEED();
}

}  // namespace
}  // namespace kgrec
