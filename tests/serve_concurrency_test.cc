// Concurrency lockdown of the serving layer, run under ThreadSanitizer
// in CI (ctest label `tsan`, see tests/CMakeLists.txt):
//
//  * N concurrent clients scoring through one immutable ServeHandle —
//    the const-audited serve path must be mutation-free, so TSan sees no
//    writes at all on shared model state;
//  * clients hammering a Router while another thread performs repeated
//    hot swaps, for five model families — no response may be lost or
//    duplicated, and every response must be consistent with exactly one
//    checkpoint generation (a torn response mixing two generations fails
//    the bitwise check);
//  * the swap drain protocol — when Swap() returns, every response
//    served by the old generation has already been delivered.
//
// Synchronization rule (DESIGN §9): no sleeps — thread phasing uses
// std::latch and future readiness only, so the tests cannot go flaky on
// a loaded or single-core machine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/recommender.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "serve/router.h"
#include "serve/serve_handle.h"

namespace kgrec {
namespace {

using serve::Router;
using serve::RouterConfig;
using serve::RouterStats;
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
    config.seed = 515;
    world = GenerateWorld(config);
    Rng rng(12);
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
  return std::string(::testing::TempDir()) + "/serve_conc_" + tag + ".kgrc";
}

// ---- Concurrent clients against one immutable handle ------------------

TEST(ServeConcurrency, ConcurrentScoreItemsOneHandlePerFamily) {
  // One representative per family: CF baseline, KG-embedding, GNN
  // aggregation, preference propagation. Each hoists different per-user
  // state in its ScoreItems override; all of it must be call-local.
  const std::vector<std::string> families{"MF", "CKE", "KGCN", "RippleNet"};
  const std::vector<std::vector<int32_t>> patterns{
      {0, 17, 39, 17}, {5, 6, 7}, {39, 0}, {12, 24, 36, 1, 2}};
  constexpr int kClients = 4;
  constexpr int kRounds = 8;

  ServeWorld& w = SharedWorld();
  for (const std::string& name : families) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    ASSERT_NE(model, nullptr) << name;
    model->Fit(w.Context());

    // Expected scores, computed single-threaded before any concurrency.
    std::vector<std::vector<std::vector<float>>> expected(30);
    for (int32_t user = 0; user < 30; ++user) {
      for (const auto& pattern : patterns) {
        expected[user].push_back(model->ScoreItems(user, pattern));
      }
    }

    std::shared_ptr<const ServeHandle> handle =
        ServeHandle::Adopt(std::move(model), w.Context(), 1);
    std::latch go(1);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        go.wait();
        for (int round = 0; round < kRounds; ++round) {
          const int32_t user = (t * 11 + round * 7) % 30;
          const size_t p = static_cast<size_t>(t + round) % patterns.size();
          const std::vector<float> got =
              handle->ScoreItems(user, patterns[p]);
          ASSERT_EQ(got.size(), expected[user][p].size()) << name;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], expected[user][p][i])
                << name << " user " << user << " pattern " << p << " slot "
                << i;
          }
        }
      });
    }
    go.count_down();
    for (std::thread& client : clients) client.join();
  }
}

// ---- Router under hot-swap churn --------------------------------------

// One family per KG-usage column of the survey plus a CF baseline.
class ServeConcurrencyFamily : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeConcurrencyFamily, RouterServesUnderHotSwapChurn) {
  ServeWorld& w = SharedWorld();
  const std::string& name = GetParam();
  // Two fits under different seeds — odd generations serve A, even
  // generations serve B, and the two produce different floats, so a
  // response's scores identify its generation's model exactly. Every
  // generation after the first is loaded from a checkpoint, so this also
  // holds Fit → Save → load → serve bitwise per family.
  std::unique_ptr<Recommender> model_a = MakeRecommender(name);
  ASSERT_NE(model_a, nullptr) << name;
  model_a->Fit(w.Context(23));
  std::unique_ptr<Recommender> model_b = MakeRecommender(name);
  model_b->Fit(w.Context(57));

  const std::vector<std::vector<int32_t>> patterns{
      {0, 17, 39, 17}, {5, 6, 7}, {12, 24, 36, 1, 2}};
  std::vector<std::vector<std::vector<float>>> expect_a(30), expect_b(30);
  for (int32_t user = 0; user < 30; ++user) {
    for (const auto& pattern : patterns) {
      expect_a[user].push_back(model_a->ScoreItems(user, pattern));
      expect_b[user].push_back(model_b->ScoreItems(user, pattern));
    }
  }
  ASSERT_NE(expect_a[0][0], expect_b[0][0])
      << "seeds should differentiate the fits";

  const std::string path_a = TempCheckpoint("churn_a_" + name);
  const std::string path_b = TempCheckpoint("churn_b_" + name);
  ASSERT_TRUE(model_a->Save(path_a).ok());
  ASSERT_TRUE(model_b->Save(path_b).ok());

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 20;
  constexpr int kSwaps = 5;

  RouterConfig config;
  config.num_threads = 2;
  Router router(config, ServeHandle::Adopt(std::move(model_a), w.Context(), 1));

  struct Issued {
    int32_t user;
    size_t pattern;
    std::future<ScoreResponse> future;
  };
  std::vector<std::vector<Issued>> issued(kClients);
  std::latch go(1);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      go.wait();
      issued[t].reserve(kRequestsPerClient);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int32_t user = (t * 13 + r * 5) % 30;
        const size_t p = static_cast<size_t>(t + r) % patterns.size();
        Issued record;
        record.user = user;
        record.pattern = p;
        record.future = router.Submit({user, patterns[p]});
        issued[t].push_back(std::move(record));
      }
    });
  }
  // Swapper: alternate B, A, B, ... from checkpoints, mid-traffic. Each
  // SwapFromCheckpoint loads on this thread, flips, and drains the old
  // generation before the next iteration.
  std::thread swapper([&] {
    go.wait();
    for (int s = 0; s < kSwaps; ++s) {
      const bool to_b = (s % 2 == 0);  // generations 2,4 = B; 3,5 = A
      const Status swapped = router.SwapFromCheckpoint(
          w.Context(to_b ? 57 : 23), to_b ? path_b : path_a);
      EXPECT_TRUE(swapped.ok()) << "swap " << s << ": " << swapped.ToString();
    }
  });
  go.count_down();
  for (std::thread& client : clients) client.join();
  swapper.join();

  // Every submitted request produced exactly one response (futures are
  // single-shot, so duplication is structurally impossible; readiness of
  // all of them rules out loss), and each response's scores are bitwise
  // the output of exactly one generation's model.
  size_t delivered = 0;
  for (int t = 0; t < kClients; ++t) {
    for (Issued& record : issued[t]) {
      ASSERT_TRUE(record.future.valid());
      ScoreResponse response = record.future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ++delivered;
      ASSERT_GE(response.generation, 1u);
      ASSERT_LE(response.generation, 1u + kSwaps);
      const auto& expect =
          (response.generation % 2 == 1) ? expect_a : expect_b;
      const std::vector<float>& want = expect[record.user][record.pattern];
      ASSERT_EQ(response.scores.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(response.scores[i], want[i])
            << "generation " << response.generation << " user "
            << record.user << " pattern " << record.pattern << " slot " << i;
      }
    }
  }
  EXPECT_EQ(delivered, static_cast<size_t>(kClients * kRequestsPerClient));

  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.accepted, delivered);
  EXPECT_EQ(stats.responses, delivered);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.swaps, static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(router.current()->generation(), 1u + kSwaps);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

INSTANTIATE_TEST_SUITE_P(Families, ServeConcurrencyFamily,
                         ::testing::Values("MF", "CKE", "KGCN", "KPRN",
                                           "RippleNet"),
                         [](const auto& info) { return info.param; });

// ---- Swap drain protocol ----------------------------------------------

/// Parks inside ScoreItems on `release` after signalling `entered`
/// (same latch pattern as serve_test.cc).
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
    release_->wait();
    return Recommender::ScoreItems(user, items);
  }

 private:
  std::latch* entered_;
  std::latch* release_;
};

TEST(ServeConcurrency, SwapDrainsInFlightResponsesBeforeReturning) {
  ServeWorld& w = SharedWorld();
  std::latch entered(1);
  std::latch release(1);
  auto gate = std::make_unique<GateRecommender>(&entered, &release);
  RouterConfig config;
  config.num_threads = 1;
  Router router(config, ServeHandle::Adopt(std::move(gate), w.Context(), 1));

  std::unique_ptr<Recommender> fresh = MakeRecommender("Popularity");
  fresh->Fit(w.Context());
  std::shared_ptr<const ServeHandle> next =
      ServeHandle::Adopt(std::move(fresh), w.Context(), 2);

  // Request 1 is dispatched on generation 1 and parks inside ScoreItems.
  std::future<ScoreResponse> parked = router.Submit({3, {1, 2}});
  entered.wait();

  std::latch swap_started(1);
  std::atomic<bool> delivered_at_swap_return{false};
  std::thread swapper([&] {
    swap_started.count_down();
    const Status swapped = router.Swap(next);
    EXPECT_TRUE(swapped.ok()) << swapped.ToString();
    // The drain contract: by the time Swap() returns, the old
    // generation's in-flight response has been delivered.
    delivered_at_swap_return.store(
        parked.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready);
  });
  swap_started.wait();
  release.count_down();  // un-park generation 1's batch
  swapper.join();

  EXPECT_TRUE(delivered_at_swap_return.load());
  ScoreResponse old_response = parked.get();
  ASSERT_TRUE(old_response.status.ok());
  EXPECT_EQ(old_response.generation, 1u);
  EXPECT_EQ(old_response.scores,
            (std::vector<float>{3001.0f, 3002.0f}));  // gate formula

  // New traffic lands on generation 2.
  ScoreResponse after = router.ScoreSync({3, {1, 2}});
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.generation, 2u);
}

TEST(ServeConcurrency, StolenBatchHoldsDrainLeaseThroughGroupingWindow) {
  // Regression for a drain race: DrainLoop steals the queue under the
  // router lock, releases the lock to group requests by user, and only
  // then re-locks to register per-group leases. A swap landing in that
  // unlocked window must still observe the stolen batch as in-flight on
  // the old generation — the provisional lease registered at steal time
  // — or Swap() could return before the batch is served (and delivered)
  // on the old handle, violating the drain contract.
  ServeWorld& w = SharedWorld();
  std::unique_ptr<Recommender> model = MakeRecommender("Popularity");
  model->Fit(w.Context());
  RouterConfig config;
  config.num_threads = 1;
  Router router(config, ServeHandle::Adopt(std::move(model), w.Context(), 1));
  const ServeHandle* generation1 = router.current().get();

  std::atomic<int> window_hits{0};
  std::atomic<size_t> lease_in_window{0};
  router.SetPostStealHookForTest([&] {
    if (window_hits.fetch_add(1) == 0) {
      lease_in_window.store(router.InflightForTest(generation1));
    }
  });

  const ScoreResponse response = router.ScoreSync({3, {1, 2}});
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.generation, 1u);
  EXPECT_GE(window_hits.load(), 1);
  EXPECT_EQ(lease_in_window.load(), 1u)
      << "grouping window left the old generation drainable";
}

// ---- Accounting under overload -----------------------------------------

TEST(ServeConcurrency, NoLostOrDuplicatedResponsesUnderOverload) {
  ServeWorld& w = SharedWorld();
  std::unique_ptr<Recommender> model = MakeRecommender("MF");
  model->Fit(w.Context());
  const std::vector<int32_t> items{2, 4, 8, 16};
  std::vector<std::vector<float>> expected(30);
  for (int32_t user = 0; user < 30; ++user) {
    expected[user] = model->ScoreItems(user, items);
  }

  RouterConfig config;
  config.num_threads = 1;
  config.max_queue = 4;  // tiny: force admission rejections under load
  Router router(config, ServeHandle::Adopt(std::move(model), w.Context(), 1));

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 30;
  std::vector<std::vector<std::pair<int32_t, std::future<ScoreResponse>>>>
      issued(kClients);
  std::latch go(1);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      go.wait();
      issued[t].reserve(kRequestsPerClient);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int32_t user = (t * 17 + r) % 30;
        issued[t].emplace_back(user, router.Submit({user, items}));
      }
    });
  }
  go.count_down();
  for (std::thread& client : clients) client.join();

  size_t ok_count = 0;
  size_t rejected_count = 0;
  for (int t = 0; t < kClients; ++t) {
    for (auto& [user, future] : issued[t]) {
      ASSERT_TRUE(future.valid());
      ScoreResponse response = future.get();
      if (response.status.ok()) {
        ++ok_count;
        ASSERT_EQ(response.scores.size(), items.size());
        for (size_t i = 0; i < items.size(); ++i) {
          EXPECT_EQ(response.scores[i], expected[user][i]);
        }
      } else {
        ++rejected_count;
        EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
        EXPECT_TRUE(response.scores.empty());
      }
    }
  }
  EXPECT_EQ(ok_count + rejected_count,
            static_cast<size_t>(kClients * kRequestsPerClient));
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.accepted, ok_count);
  EXPECT_EQ(stats.rejected, rejected_count);
  EXPECT_EQ(stats.responses, ok_count);
}

}  // namespace
}  // namespace kgrec
