// Functional coverage of the serving layer (serve/serve_handle.h,
// serve/router.h): handle construction from checkpoints and from fitted
// models, request/response round-trips through the router, bitwise
// equality of batched/coalesced serving against direct ScoreItems calls
// across model families, hot-swap generation accounting, admission
// control, and the error paths (missing/mismatched checkpoints must
// surface as Status, never as a crash or a silently wrong model).
//
// Synchronization in these tests follows the DESIGN §9 rule: never a
// sleep — a blocked request is modelled by a GateRecommender that parks
// inside ScoreItems on a std::latch the test releases.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <vector>

#include "cf/mf.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "math/topk.h"
#include "serve/router.h"
#include "serve/serve_handle.h"

namespace kgrec {
namespace {

using serve::Router;
using serve::RouterConfig;
using serve::RouterStats;
using serve::ScoreRequest;
using serve::ScoreResponse;
using serve::ServeHandle;

struct ServeWorld {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  ServeWorld() {
    WorldConfig config;
    config.num_users = 30;
    config.num_items = 40;
    config.avg_interactions_per_user = 8.0;
    config.item_relations = {{"genre", 5, 1, 0.9f}, {"studio", 8, 1, 0.7f}};
    config.seed = 414;
    world = GenerateWorld(config);
    Rng rng(11);
    split = RatioSplit(world.interactions, 0.25, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }

  RecContext Context(uint64_t seed = 23) const {
    RecContext ctx;
    ctx.train = &split.train;
    ctx.item_kg = &world.item_kg;
    ctx.user_item_graph = &ui_graph;
    ctx.seed = seed;
    return ctx;
  }
};

ServeWorld& SharedWorld() {
  static ServeWorld* world = new ServeWorld();
  return *world;
}

std::string TempCheckpoint(const std::string& tag) {
  std::string file = tag;
  for (char& c : file) {
    if (c == '-' || c == ' ') c = '_';
  }
  return std::string(::testing::TempDir()) + "/serve_" + file + ".kgrc";
}

/// Fits `name` on the shared world, checkpoints it, restores it with
/// LoadModel and adopts the restored model into a handle. Returns the
/// still-live fitted model through `fitted` for bitwise comparisons.
std::shared_ptr<const ServeHandle> FitSaveLoad(
    const std::string& name, uint64_t generation,
    std::unique_ptr<Recommender>* fitted) {
  ServeWorld& w = SharedWorld();
  std::unique_ptr<Recommender> model = MakeRecommender(name);
  EXPECT_NE(model, nullptr) << name;
  model->Fit(w.Context());
  const std::string path = TempCheckpoint(name);
  EXPECT_TRUE(model->Save(path).ok()) << name;
  std::unique_ptr<Recommender> loaded;
  const Status status = LoadModel(w.Context(), path, &loaded);
  EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  std::remove(path.c_str());
  if (fitted != nullptr) *fitted = std::move(model);
  if (loaded == nullptr) return nullptr;
  return ServeHandle::Adopt(std::move(loaded), w.Context(), generation);
}

// ---- ServeHandle ------------------------------------------------------

TEST(ServeHandle, LoadedCheckpointServesBitwise) {
  std::unique_ptr<Recommender> fitted;
  std::shared_ptr<const ServeHandle> handle = FitSaveLoad("MF", 5, &fitted);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->model_name(), "MF");
  EXPECT_EQ(handle->generation(), 5u);
  EXPECT_EQ(handle->num_items(), 40);

  const std::vector<int32_t> items{0, 17, 39, 17, 3};
  for (int32_t user : {0, 12, 29}) {
    const std::vector<float> direct = fitted->ScoreItems(user, items);
    const std::vector<float> served = handle->ScoreItems(user, items);
    ASSERT_EQ(direct.size(), served.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(served[i], direct[i]) << "user " << user << " slot " << i;
    }
    EXPECT_EQ(handle->Score(user, items[0]), fitted->Score(user, items[0]));
  }
}

TEST(ServeHandle, MissingCheckpointReturnsStatus) {
  std::unique_ptr<Recommender> model;
  const Status status = LoadModel(SharedWorld().Context(),
                                  "/nonexistent/dir/model.kgrc", &model);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(model, nullptr);  // nothing to adopt
}

TEST(ServeHandle, WrongHyperparametersReturnsStatus) {
  // A checkpoint written under non-registry hyper-parameters must be
  // refused by the serve path with FailedPrecondition, exactly like a
  // direct LoadModel — never served with garbage weights.
  ServeWorld& w = SharedWorld();
  MfConfig config;
  config.dim = 8;  // registry default is 16
  MfRecommender custom(config);
  custom.Fit(w.Context());
  const std::string path = TempCheckpoint("wrong_hypers");
  ASSERT_TRUE(custom.Save(path).ok());
  std::unique_ptr<Recommender> model;
  const Status status = LoadModel(w.Context(), path, &model);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(model, nullptr);  // nothing to adopt
  std::remove(path.c_str());
}

TEST(ServeHandle, PrototypeLoadServesCustomHyperparameters) {
  // The escape hatch for the test above: a caller-constructed prototype
  // with the matching config loads the same checkpoint, and the handle
  // adopting it serves it bitwise.
  ServeWorld& w = SharedWorld();
  MfConfig config;
  config.dim = 8;
  MfRecommender custom(config);
  custom.Fit(w.Context());
  const std::string path = TempCheckpoint("prototype");
  ASSERT_TRUE(custom.Save(path).ok());
  auto prototype = std::make_unique<MfRecommender>(config);
  const Status status = prototype->Load(w.Context(), path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::shared_ptr<const ServeHandle> handle =
      ServeHandle::Adopt(std::move(prototype), w.Context(), 3);
  EXPECT_EQ(handle->generation(), 3u);
  const std::vector<int32_t> items{0, 20, 39};
  EXPECT_EQ(handle->ScoreItems(8, items), custom.ScoreItems(8, items));
  std::remove(path.c_str());
}

TEST(ServeHandle, AdoptServesFittedModel) {
  ServeWorld& w = SharedWorld();
  std::unique_ptr<Recommender> model = MakeRecommender("BPR-MF");
  ASSERT_NE(model, nullptr);
  model->Fit(w.Context());
  const float expected = model->Score(4, 21);
  std::shared_ptr<const ServeHandle> handle =
      ServeHandle::Adopt(std::move(model), w.Context(), 1);
  EXPECT_EQ(handle->model_name(), "BPR-MF");
  EXPECT_EQ(handle->Score(4, 21), expected);
}

TEST(ServeHandle, RecommendMatchesScoreAllTopK) {
  std::unique_ptr<Recommender> fitted;
  std::shared_ptr<const ServeHandle> handle = FitSaveLoad("MF", 1, &fitted);
  const std::vector<float> all = fitted->ScoreAll(6, handle->num_items());
  const auto expected = TopKScored(all, 5);
  const auto got = handle->Recommend(6, 5);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, expected[i].first) << "rank " << i;
    EXPECT_EQ(got[i].second, expected[i].second) << "rank " << i;
  }

  // Exclusion: the excluded items never appear, the rest keep their
  // relative order.
  const std::vector<int32_t> exclude{expected[0].first, expected[2].first};
  const auto filtered = handle->Recommend(6, 5, exclude);
  for (const auto& [item, score] : filtered) {
    EXPECT_NE(item, exclude[0]);
    EXPECT_NE(item, exclude[1]);
  }
  ASSERT_GE(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].first, expected[1].first);
}

// ---- Router: round-trip and bitwise equality --------------------------

TEST(ServeRouter, RoundTripBitwise) {
  std::unique_ptr<Recommender> fitted;
  std::shared_ptr<const ServeHandle> handle =
      FitSaveLoad("RippleNet", 1, &fitted);
  RouterConfig config;
  config.num_threads = 2;
  Router router(config, handle);
  EXPECT_EQ(router.current()->generation(), 1u);

  const std::vector<int32_t> items{0, 9, 39, 9, 2};
  std::vector<std::future<ScoreResponse>> futures;
  const std::vector<int32_t> users{0, 7, 29, 7};
  futures.reserve(users.size());
  for (int32_t user : users) {
    futures.push_back(router.Submit({user, items}));
  }
  for (size_t r = 0; r < users.size(); ++r) {
    ScoreResponse response = futures[r].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.generation, 1u);
    EXPECT_GE(response.completed_ns, response.submitted_ns);
    const std::vector<float> direct = fitted->ScoreItems(users[r], items);
    ASSERT_EQ(response.scores.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(response.scores[i], direct[i])
          << "request " << r << " slot " << i;
    }
  }
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.accepted, users.size());
  EXPECT_EQ(stats.responses, users.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServeRouter, BatchedVsDirectAcrossFamilies) {
  // One family per KG-usage column of the survey plus a CF baseline:
  // routed responses (including same-user coalescing) must be bitwise
  // what a direct ScoreItems call on the fitted model returns.
  const std::vector<std::string> families{"MF", "CKE", "KGCN", "KPRN",
                                          "RippleNet"};
  for (const std::string& name : families) {
    std::unique_ptr<Recommender> fitted;
    std::shared_ptr<const ServeHandle> handle = FitSaveLoad(name, 1, &fitted);
    RouterConfig config;
    config.num_threads = 2;
    Router router(config, handle);

    std::vector<std::vector<int32_t>> item_lists{
        {0, 5, 39}, {17, 17, 2, 30}, {8}, {3, 1, 4, 1, 5}};
    std::vector<int32_t> users{3, 3, 11, 28};  // two same-user requests
    std::vector<std::future<ScoreResponse>> futures;
    for (size_t r = 0; r < users.size(); ++r) {
      futures.push_back(router.Submit({users[r], item_lists[r]}));
    }
    for (size_t r = 0; r < users.size(); ++r) {
      ScoreResponse response = futures[r].get();
      ASSERT_TRUE(response.status.ok())
          << name << ": " << response.status.ToString();
      const std::vector<float> direct =
          fitted->ScoreItems(users[r], item_lists[r]);
      ASSERT_EQ(response.scores.size(), direct.size()) << name;
      for (size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(response.scores[i], direct[i])
            << name << " request " << r << " slot " << i;
      }
    }
  }
}

// ---- Router: hot swap -------------------------------------------------

TEST(ServeRouter, SwapFlipsGenerationAndModel) {
  ServeWorld& w = SharedWorld();
  // Two MF fits under different training seeds: genuinely different
  // parameters, same hyper-fingerprint.
  std::unique_ptr<Recommender> model_a = MakeRecommender("MF");
  model_a->Fit(w.Context(23));
  std::unique_ptr<Recommender> model_b = MakeRecommender("MF");
  model_b->Fit(w.Context(57));
  const std::vector<int32_t> items{1, 13, 37};
  const std::vector<float> expect_a = model_a->ScoreItems(9, items);
  const std::vector<float> expect_b = model_b->ScoreItems(9, items);
  ASSERT_NE(expect_a, expect_b) << "seeds should differentiate the fits";

  const std::string path_b = TempCheckpoint("swap_b");
  ASSERT_TRUE(model_b->Save(path_b).ok());

  Router router({}, ServeHandle::Adopt(std::move(model_a), w.Context(), 1));
  ScoreResponse before = router.ScoreSync({9, items});
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.generation, 1u);
  EXPECT_EQ(before.scores, expect_a);

  const Status swapped = router.SwapFromCheckpoint(w.Context(57), path_b);
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  EXPECT_EQ(router.current()->generation(), 2u);

  ScoreResponse after = router.ScoreSync({9, items});
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.generation, 2u);
  EXPECT_EQ(after.scores, expect_b);
  EXPECT_EQ(router.Stats().swaps, 1u);
  std::remove(path_b.c_str());
}

TEST(ServeRouter, FailedSwapKeepsOldHandleServing) {
  std::unique_ptr<Recommender> fitted;
  std::shared_ptr<const ServeHandle> handle = FitSaveLoad("MF", 1, &fitted);
  Router router({}, handle);

  const Status bad = router.SwapFromCheckpoint(SharedWorld().Context(),
                                               "/nonexistent/model.kgrc");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(router.current()->generation(), 1u);
  EXPECT_EQ(router.Stats().swaps, 0u);

  const std::vector<int32_t> items{2, 4, 6};
  ScoreResponse response = router.ScoreSync({1, items});
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.generation, 1u);
  EXPECT_EQ(response.scores, fitted->ScoreItems(1, items));
}

// ---- Router: admission control and lifecycle --------------------------

/// A stub whose first ScoreItems call parks on `release` after signalling
/// `entered`, turning "the pool is busy serving" into a deterministic
/// test state (DESIGN §9: latches, not sleeps).
class GateRecommender : public Recommender {
 public:
  GateRecommender(std::latch* entered, std::latch* release)
      : entered_(entered), release_(release) {}

  std::string name() const override { return "Gate"; }
  void Fit(const RecContext&) override {}
  float Score(int32_t user, int32_t item) const override {
    return static_cast<float>(user * 1000 + item);
  }
  std::vector<float> ScoreItems(
      int32_t user, std::span<const int32_t> items) const override {
    entered_->count_down();
    release_->wait();  // no-op once the latch has been opened
    return Recommender::ScoreItems(user, items);
  }

 private:
  std::latch* entered_;
  std::latch* release_;
};

TEST(ServeRouter, AdmissionQueueRejectsWhenFull) {
  ServeWorld& w = SharedWorld();
  std::latch entered(1);
  std::latch release(1);
  auto gate = std::make_unique<GateRecommender>(&entered, &release);
  RouterConfig config;
  config.num_threads = 1;  // single worker: the gate blocks the pool
  config.max_queue = 3;
  Router router(config, ServeHandle::Adopt(std::move(gate), w.Context(), 1));

  // First request: drained immediately, then parks inside ScoreItems.
  std::vector<std::future<ScoreResponse>> futures;
  futures.push_back(router.Submit({0, {1, 2}}));
  entered.wait();

  // The worker is parked, so these stack up in the admission queue...
  for (int32_t r = 0; r < 3; ++r) {
    futures.push_back(router.Submit({r + 1, {3}}));
  }
  // ...and the queue is now full: the next request is refused instantly.
  ScoreResponse rejected = router.Submit({9, {4}}).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(rejected.scores.empty());

  release.count_down();
  for (size_t r = 0; r < futures.size(); ++r) {
    ScoreResponse response = futures[r].get();
    EXPECT_TRUE(response.status.ok()) << "request " << r;
  }
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.responses, 4u);
}

TEST(ServeRouter, CoalescesSameUserRequests) {
  ServeWorld& w = SharedWorld();
  std::latch entered(1);
  std::latch release(1);
  auto gate = std::make_unique<GateRecommender>(&entered, &release);
  RouterConfig config;
  config.num_threads = 1;
  Router router(config, ServeHandle::Adopt(std::move(gate), w.Context(), 1));

  // Park the worker, then queue three same-user requests plus one other:
  // the next drain must steal all four at once and coalesce user 7's
  // three requests into a single ScoreItems dispatch.
  std::vector<std::future<ScoreResponse>> futures;
  futures.push_back(router.Submit({0, {1}}));
  entered.wait();
  futures.push_back(router.Submit({7, {10, 11}}));
  futures.push_back(router.Submit({7, {12}}));
  futures.push_back(router.Submit({7, {13, 14, 15}}));
  futures.push_back(router.Submit({5, {20}}));
  release.count_down();

  for (auto& future : futures) {
    ScoreResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    // The gate scores user*1000 + item: coalescing must not leak one
    // request's items into another's response.
    EXPECT_FALSE(response.scores.empty());
  }
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.responses, 5u);
  // Batches: gate request (1) + user 7 (1, coalescing 3 requests) +
  // user 5 (1) = 3; two of user 7's requests were merged away.
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.coalesced, 2u);
}

TEST(ServeRouter, SplitsCoalescedResponsesCorrectly) {
  // Same shape as above, but against a real model so the split points of
  // the concatenated ScoreItems result are checked bitwise.
  std::unique_ptr<Recommender> fitted;
  std::shared_ptr<const ServeHandle> handle = FitSaveLoad("CKE", 1, &fitted);
  RouterConfig config;
  config.num_threads = 1;
  Router router(config, handle);

  const std::vector<std::vector<int32_t>> lists{{10, 11}, {12}, {13, 14, 15}};
  std::vector<std::future<ScoreResponse>> futures;
  futures.reserve(lists.size());
  for (const auto& list : lists) {
    futures.push_back(router.Submit({7, list}));
  }
  for (size_t r = 0; r < lists.size(); ++r) {
    ScoreResponse response = futures[r].get();
    ASSERT_TRUE(response.status.ok());
    const std::vector<float> direct = fitted->ScoreItems(7, lists[r]);
    ASSERT_EQ(response.scores.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(response.scores[i], direct[i])
          << "request " << r << " slot " << i;
    }
  }
}

TEST(ServeRouter, RejectsIdsOutsideTheServedTables) {
  std::unique_ptr<Recommender> fitted;
  std::shared_ptr<const ServeHandle> handle = FitSaveLoad("MF", 1, &fitted);
  const int32_t num_users = handle->num_users();
  const int32_t num_items = handle->num_items();
  ASSERT_EQ(num_users, SharedWorld().split.train.num_users());
  RouterConfig config;
  config.num_threads = 2;
  Router router(config, handle);

  for (const ScoreRequest& bad :
       {ScoreRequest{num_users, {0, 1}}, ScoreRequest{-1, {0, 1}},
        ScoreRequest{3, {0, num_items}}, ScoreRequest{3, {-1}}}) {
    const ScoreResponse response = router.ScoreSync(bad);
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
        << "user " << bad.user;
    EXPECT_TRUE(response.scores.empty());
    EXPECT_EQ(response.generation, 1u);
  }
  for (const int32_t user : {num_users, -1}) {
    const serve::RecommendResponse response =
        router.RecommendSync({user, 5, {}});
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
        << "user " << user;
    EXPECT_TRUE(response.items.empty());
  }
  // Exclusion lists keep tolerating out-of-range ids: they select, never
  // index.
  const serve::RecommendResponse tolerated =
      router.RecommendSync({3, 5, {num_items, -1}});
  ASSERT_TRUE(tolerated.status.ok()) << tolerated.status.ToString();
  EXPECT_EQ(tolerated.items, handle->Recommend(3, 5));
  EXPECT_EQ(router.Stats().responses, 7u);
}

TEST(ServeRouter, OutOfRangeRequestLeavesItsUserGroupBitwise) {
  // One invalid request coalesced with two valid ones for the same user:
  // it alone is refused, and the others are scored bitwise as if it had
  // never arrived. The post-steal hook parks the single worker on the
  // first drain so the next three requests are stolen as one group.
  std::unique_ptr<Recommender> fitted;
  std::shared_ptr<const ServeHandle> handle = FitSaveLoad("MF", 1, &fitted);
  std::latch entered(1);
  std::latch release(1);
  std::atomic<bool> parked{false};
  RouterConfig config;
  config.num_threads = 1;
  Router router(config, handle);
  router.SetPostStealHookForTest([&] {
    if (parked.exchange(true)) return;
    entered.count_down();
    release.wait();
  });

  std::future<ScoreResponse> first = router.Submit({2, {0}});
  entered.wait();
  const std::vector<std::vector<int32_t>> lists{
      {10, 11}, {12, handle->num_items()}, {13, 14, 15}};
  std::vector<std::future<ScoreResponse>> futures;
  for (const auto& list : lists) futures.push_back(router.Submit({7, list}));
  release.count_down();

  EXPECT_TRUE(first.get().status.ok());
  for (size_t r = 0; r < lists.size(); ++r) {
    const ScoreResponse response = futures[r].get();
    if (r == 1) {
      EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(response.scores.empty());
      continue;
    }
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const std::vector<float> direct = fitted->ScoreItems(7, lists[r]);
    ASSERT_EQ(response.scores.size(), direct.size());
    EXPECT_EQ(std::memcmp(response.scores.data(), direct.data(),
                          direct.size() * sizeof(float)),
              0)
        << "request " << r;
  }
  EXPECT_EQ(router.Stats().coalesced, 2u);
}

TEST(ServeRouter, DestructorDeliversEveryAdmittedRequest) {
  std::unique_ptr<Recommender> fitted;
  std::shared_ptr<const ServeHandle> handle = FitSaveLoad("MF", 1, &fitted);
  std::vector<std::future<ScoreResponse>> futures;
  {
    RouterConfig config;
    config.num_threads = 2;
    Router router(config, handle);
    futures.reserve(16);
    for (int32_t r = 0; r < 16; ++r) {
      futures.push_back(router.Submit({r % 30, {0, 1, 2}}));
    }
    // Router destroyed with requests possibly still in flight.
  }
  for (auto& future : futures) {
    ASSERT_TRUE(future.valid());
    ScoreResponse response = future.get();  // must not hang or throw
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

}  // namespace
}  // namespace kgrec
