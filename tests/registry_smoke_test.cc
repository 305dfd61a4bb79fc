// Registry-wide smoke test: every implemented method in the zoo must
// construct, Fit on a tiny synthetic world, produce finite scores and
// rankings, and survive the evaluation protocols. Integration tests
// cover each family's quality; this suite catches models that a future
// registry edit silently breaks (wrong factory wiring, crashes on small
// data, NaN scores) without the cost of quality thresholds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cf/mf.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "core/serialize.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "math/topk.h"
#include "unistd.h"

namespace kgrec {
namespace {

struct TinyWorld {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  TinyWorld() {
    WorldConfig config;
    config.num_users = 40;
    config.num_items = 60;
    config.avg_interactions_per_user = 10.0;
    config.item_relations = {{"genre", 6, 1, 0.9f}, {"studio", 10, 1, 0.7f}};
    config.seed = 313;
    world = GenerateWorld(config);
    Rng rng(14);
    split = RatioSplit(world.interactions, 0.25, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }

  RecContext Context() const {
    RecContext ctx;
    ctx.train = &split.train;
    ctx.item_kg = &world.item_kg;
    ctx.user_item_graph = &ui_graph;
    ctx.seed = 23;
    return ctx;
  }
};

TinyWorld& SharedWorld() {
  static TinyWorld* world = new TinyWorld();
  return *world;
}

/// The serving layer holds models as `const Recommender&` (see
/// serve/serve_handle.h): this helper is the compile-time audit that the
/// whole serve path — Score, ScoreItems, ScoreAll — is reachable through
/// a const reference. A model that needs a non-const scoring method (a
/// lazy cache, a scratch buffer) breaks this file's build, not a serving
/// process at 3am.
std::vector<float> ScoreItemsViaConstRef(const Recommender& model,
                                         int32_t user,
                                         std::span<const int32_t> items) {
  return model.ScoreItems(user, items);
}

TEST(RegistrySmoke, EveryImplementedMethodHasAFactory) {
  size_t implemented = 0;
  for (const MethodInfo& info : AllMethods()) {
    if (!info.implemented) {
      EXPECT_EQ(MakeRecommender(info.name), nullptr)
          << info.name << " is catalogued as unimplemented but has a factory";
      continue;
    }
    ++implemented;
    EXPECT_NE(MakeRecommender(info.name), nullptr)
        << info.name << " is marked implemented but MakeRecommender fails";
  }
  EXPECT_EQ(implemented, ImplementedMethodNames().size());
  EXPECT_EQ(implemented, 38u) << "the README promises 38 implemented models";
}

class RegistrySmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySmoke, FitScoreRecommendEvaluate) {
  TinyWorld& w = SharedWorld();
  std::unique_ptr<Recommender> model = MakeRecommender(GetParam());
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name().empty(), false);
  model->Fit(w.Context());

  // Score: finite for seen and unseen pairs.
  for (int32_t user : {0, 7, 39}) {
    for (int32_t item : {0, 31, 59}) {
      const float s = model->Score(user, item);
      EXPECT_TRUE(std::isfinite(s))
          << GetParam() << " Score(" << user << "," << item << ") = " << s;
    }
  }

  // Batched inference: ScoreItems must equal per-item Score bitwise (the
  // contract the eval protocols rely on), including duplicate candidates,
  // edge users, and the empty list.
  for (int32_t user : {0, 7, 39}) {
    const std::vector<int32_t> candidates{0, 31, 59, 31, 1, 58, 0};
    const std::vector<float> batched = model->ScoreItems(user, candidates);
    ASSERT_EQ(batched.size(), candidates.size()) << GetParam();
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(batched[i], model->Score(user, candidates[i]))
          << GetParam() << " ScoreItems(" << user << ")[" << i
          << "] diverges from Score(" << user << "," << candidates[i] << ")";
    }
  }
  EXPECT_TRUE(model->ScoreItems(0, {}).empty()) << GetParam();

  // Const serve-path audit: the same call through a const reference (the
  // type every ServeHandle holds) must compile and match bitwise.
  {
    const std::vector<int32_t> candidates{0, 31, 59};
    const std::vector<float> via_const =
        ScoreItemsViaConstRef(*model, 7, candidates);
    const std::vector<float> direct = model->ScoreItems(7, candidates);
    ASSERT_EQ(via_const.size(), direct.size()) << GetParam();
    for (size_t i = 0; i < via_const.size(); ++i) {
      EXPECT_EQ(via_const[i], direct[i]) << GetParam();
    }
  }

  // Recommend: ScoreAll + top-k selection yields a full, finite ranking.
  const std::vector<float> all = model->ScoreAll(3, w.world.config.num_items);
  ASSERT_EQ(all.size(), static_cast<size_t>(w.world.config.num_items));
  for (float s : all) EXPECT_TRUE(std::isfinite(s)) << GetParam();
  const std::vector<int32_t> top = TopKIndices(all, 10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(all[top[i - 1]], all[top[i]]) << GetParam();
  }

  // Evaluate: both protocols succeed and stay in range (2 threads, so the
  // whole zoo also smoke-tests concurrent Score()).
  EvalOptions options;
  options.num_threads = 2;
  options.num_negatives = 10;
  options.k = 5;
  const CtrMetrics ctr =
      EvaluateCtr(*model, w.split.train, w.split.test, options);
  EXPECT_GT(ctr.num_pairs, 0u);
  EXPECT_TRUE(std::isfinite(ctr.auc));
  EXPECT_GE(ctr.auc, 0.0);
  EXPECT_LE(ctr.auc, 1.0);
  const TopKMetrics topk =
      EvaluateTopK(*model, w.split.train, w.split.test, options);
  EXPECT_GT(topk.num_users, 0u);
  for (double m : {topk.precision, topk.recall, topk.hit_rate, topk.ndcg,
                   topk.mrr}) {
    EXPECT_TRUE(std::isfinite(m)) << GetParam();
    EXPECT_GE(m, 0.0) << GetParam();
    EXPECT_LE(m, 1.0) << GetParam();
  }
}

// ---- Checkpoint/restore across the whole zoo --------------------------

std::string CheckpointPath(const std::string& model_name) {
  std::string file = model_name;
  for (char& c : file) {
    if (c == '-' || c == ' ') c = '_';
  }
  return std::string(::testing::TempDir()) + "/" + file + ".kgrc";
}

TEST_P(RegistrySmoke, SaveLoadRoundtripIsBitwise) {
  TinyWorld& w = SharedWorld();
  std::unique_ptr<Recommender> fitted = MakeRecommender(GetParam());
  ASSERT_NE(fitted, nullptr);
  fitted->Fit(w.Context());

  const std::string path = CheckpointPath(GetParam());
  ASSERT_TRUE(fitted->Save(path).ok()) << GetParam();

  // LoadModel reconstructs the concrete type from the typed header alone.
  std::unique_ptr<Recommender> restored;
  const Status load = LoadModel(w.Context(), path, &restored);
  ASSERT_TRUE(load.ok()) << GetParam() << ": " << load.message();
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), fitted->name());

  // CloneModel restores the same packed state with no file involved, and
  // must score bit for bit like the file round-trip.
  std::unique_ptr<Recommender> clone;
  const Status cloned = CloneModel(*fitted, w.Context(), &clone);
  ASSERT_TRUE(cloned.ok()) << GetParam() << ": " << cloned.message();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->name(), fitted->name());

  // The serve path must be bitwise identical to the fitted model's —
  // derived state (ripple sets, path contexts, sampled neighborhoods,
  // beam caches) is recomputed on load, and any divergence there shows
  // up as a float mismatch here.
  const std::vector<int32_t> candidates{0, 31, 59, 31, 1, 58, 0};
  for (int32_t user : {0, 7, 39}) {
    const std::vector<float> before = fitted->ScoreItems(user, candidates);
    const std::vector<float> after = restored->ScoreItems(user, candidates);
    const std::vector<float> copied = clone->ScoreItems(user, candidates);
    ASSERT_EQ(before.size(), after.size());
    ASSERT_EQ(after.size(), copied.size());
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i], after[i])
          << GetParam() << " diverges after restore at user " << user
          << " candidate " << candidates[i];
      EXPECT_EQ(std::memcmp(&after[i], &copied[i], sizeof(float)), 0)
          << GetParam() << " diverges after CloneModel at user " << user
          << " candidate " << candidates[i];
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointNegative, UnknownModelNameIsInvalidArgument) {
  const std::string path =
      std::string(::testing::TempDir()) + "/unknown_model.kgrc";
  CheckpointHeader header;
  header.model_name = "NotARealModel";
  ASSERT_TRUE(SaveCheckpoint(path, header, {}).ok());
  std::unique_ptr<Recommender> out;
  const Status status = LoadModel(SharedWorld().Context(), path, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("NotARealModel"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointNegative, WrongModelClassIsFailedPrecondition) {
  TinyWorld& w = SharedWorld();
  std::unique_ptr<Recommender> pop = MakeRecommender("Popularity");
  pop->Fit(w.Context());
  const std::string path =
      std::string(::testing::TempDir()) + "/wrong_class.kgrc";
  ASSERT_TRUE(pop->Save(path).ok());
  std::unique_ptr<Recommender> mf = MakeRecommender("MF");
  EXPECT_EQ(mf->Load(w.Context(), path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointNegative, StaleHyperFingerprintIsFailedPrecondition) {
  // A checkpoint trained under a non-default config must not restore
  // into the registry's default-config instance.
  TinyWorld& w = SharedWorld();
  MfConfig config;
  config.dim = 8;  // registry default is 16
  MfRecommender custom(config);
  custom.Fit(w.Context());
  const std::string path =
      std::string(::testing::TempDir()) + "/stale_fingerprint.kgrc";
  ASSERT_TRUE(custom.Save(path).ok());
  std::unique_ptr<Recommender> out;
  const Status status = LoadModel(w.Context(), path, &out);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointNegative, TruncatedCheckpointFailsCleanly) {
  TinyWorld& w = SharedWorld();
  std::unique_ptr<Recommender> model = MakeRecommender("MF");
  model->Fit(w.Context());
  const std::string path =
      std::string(::testing::TempDir()) + "/truncated.kgrc";
  ASSERT_TRUE(model->Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  std::unique_ptr<Recommender> out;
  EXPECT_FALSE(LoadModel(w.Context(), path, &out).ok());
  std::remove(path.c_str());
}

TEST(CheckpointNegative, StaleFormatVersionIsInvalidArgument) {
  // A checkpoint from a hypothetical future format revision must be
  // refused up front, not misparsed.
  const std::string path =
      std::string(::testing::TempDir()) + "/stale_version.kgrc";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t version = kCheckpointFormatVersion + 1;
  ASSERT_EQ(std::fwrite("KGRC", 1, 4, f), 4u);
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  std::fclose(f);
  std::unique_ptr<Recommender> out;
  const Status status = LoadModel(SharedWorld().Context(), path, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllImplemented, RegistrySmoke,
                         ::testing::ValuesIn(ImplementedMethodNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == ' ') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace kgrec
