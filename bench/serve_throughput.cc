// Serving-layer correctness gate: Fit → Save → LoadModel → Adopt →
// Router, then an unpaced burst from several concurrent clients per
// model family, with one hot swap (to a reload of the same checkpoint)
// in the middle of the run. Verifies every routed response is **bitwise
// identical** to a direct ScoreItems call on the fitted model, whichever
// generation served it, and that every admitted request is delivered
// exactly once. It asserts correctness and accounting only, never
// timing, so it cannot go flaky on a loaded CI machine; serving latency,
// throughput and swap cost are measured by perfbench/.
//
// Exits non-zero on any save/load/serve failure, lost response, or score
// divergence.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/presets.h"
#include "serve/router.h"
#include "serve/serve_handle.h"

namespace {

using kgrec::serve::Router;
using kgrec::serve::RouterConfig;
using kgrec::serve::ScoreResponse;
using kgrec::serve::ServeHandle;

struct LoadResult {
  size_t requests = 0;
  size_t delivered = 0;
  bool bitwise = true;
  std::string error;
};

/// Drives one model family end to end.
LoadResult DriveFamily(const std::string& name,
                       const kgrec::bench::Workbench& bench,
                       size_t num_clients, size_t requests_per_client,
                       size_t candidates_per_request) {
  LoadResult result;
  const kgrec::RecContext ctx = bench.Context(17);
  const int32_t num_users = ctx.train->num_users();
  const int32_t num_items = ctx.train->num_items();

  std::unique_ptr<kgrec::Recommender> fitted = kgrec::MakeRecommender(name);
  if (fitted == nullptr) {
    result.error = "no factory";
    return result;
  }
  fitted->Fit(ctx);

  const std::string path = "/tmp/kgrec_serve_" + std::to_string(getpid()) +
                           ".kgrc";
  const kgrec::Status saved = fitted->Save(path);
  if (!saved.ok()) {
    result.error = "save: " + saved.ToString();
    return result;
  }
  std::unique_ptr<kgrec::Recommender> loaded;
  const kgrec::Status load = kgrec::LoadModel(ctx, path, &loaded);
  if (!load.ok()) {
    result.error = "load: " + load.ToString();
    std::remove(path.c_str());
    return result;
  }
  const std::shared_ptr<const ServeHandle> handle =
      ServeHandle::Adopt(std::move(loaded), ctx, 1);

  // Request patterns: a deterministic rotation of candidate windows, so
  // expected scores are precomputable per (user, pattern).
  std::vector<std::vector<int32_t>> patterns;
  for (size_t p = 0; p < 4; ++p) {
    std::vector<int32_t> items;
    for (size_t i = 0; i < candidates_per_request; ++i) {
      items.push_back(static_cast<int32_t>((p * 7 + i * 3) %
                                           static_cast<size_t>(num_items)));
    }
    patterns.push_back(std::move(items));
  }

  RouterConfig config;
  config.num_threads = kgrec::ThreadPool::HardwareThreads();
  config.max_queue = num_clients * requests_per_client;  // never reject
  Router router(config, handle);

  struct Issued {
    int32_t user;
    size_t pattern;
    std::future<ScoreResponse> future;
  };
  std::vector<std::vector<Issued>> issued(num_clients);

  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t t = 0; t < num_clients; ++t) {
    clients.emplace_back([&, t] {
      issued[t].reserve(requests_per_client);
      for (size_t r = 0; r < requests_per_client; ++r) {
        Issued record;
        record.user =
            static_cast<int32_t>((t * 13 + r * 5) %
                                 static_cast<size_t>(num_users));
        record.pattern = (t + r) % patterns.size();
        record.future =
            router.Submit({record.user, patterns[record.pattern]});
        issued[t].push_back(std::move(record));
      }
    });
  }

  // Mid-run hot swap: reload the same checkpoint as generation 2 while
  // the clients keep submitting. Served scores are identical across the
  // two generations (PR 5's bitwise restore contract), so the bitwise
  // check below holds through the swap.
  const kgrec::Status swapped = router.SwapFromCheckpoint(ctx, path);
  if (!swapped.ok()) {
    result.error = "swap: " + swapped.ToString();
  }

  for (std::thread& client : clients) client.join();

  // Expected scores (computed after the traffic so the bench never
  // reads them concurrently with anything).
  std::vector<std::vector<std::vector<float>>> expected(
      static_cast<size_t>(num_users));
  for (int32_t user = 0; user < num_users; ++user) {
    for (const auto& pattern : patterns) {
      expected[static_cast<size_t>(user)].push_back(
          fitted->ScoreItems(user, pattern));
    }
  }

  for (size_t t = 0; t < num_clients; ++t) {
    for (Issued& record : issued[t]) {
      ++result.requests;
      if (!record.future.valid()) {
        result.error = "invalid future (lost response)";
        result.bitwise = false;
        continue;
      }
      ScoreResponse response = record.future.get();
      if (!response.status.ok()) {
        result.error = "response: " + response.status.ToString();
        result.bitwise = false;
        continue;
      }
      ++result.delivered;
      const std::vector<float>& want =
          expected[static_cast<size_t>(record.user)][record.pattern];
      if (response.scores.size() != want.size() ||
          std::memcmp(response.scores.data(), want.data(),
                      want.size() * sizeof(float)) != 0) {
        result.bitwise = false;
        result.error = "score divergence at user " +
                       std::to_string(record.user) + " (generation " +
                       std::to_string(response.generation) + ")";
      }
    }
  }
  std::remove(path.c_str());
  return result;
}

}  // namespace

int main() {
  kgrec::WorldConfig config = kgrec::GetPreset("movielens-100k").config;
  const size_t num_clients = 4;
  const size_t requests_per_client = 40;
  const size_t candidates = 8;
  config.num_users = 30;
  config.num_items = 40;
  config.avg_interactions_per_user = 8.0;
  kgrec::bench::Workbench bench = kgrec::bench::MakeWorkbench(config);

  const std::vector<std::string> families{"MF", "CKE", "KGCN", "KPRN",
                                          "RippleNet"};

  std::printf(
      "== serve correctness (%d users, %d items; %zu clients x %zu reqs x "
      "%zu candidates, unpaced, one mid-traffic swap) ==\n\n",
      config.num_users, config.num_items, num_clients, requests_per_client,
      candidates);
  std::printf("%-12s %9s %9s\n", "model", "served", "bitwise");
  kgrec::bench::PrintRule(32);

  kgrec::bench::Report report("serve", /*smoke=*/true);
  for (const std::string& name : families) {
    const LoadResult row = DriveFamily(name, bench, num_clients,
                                       requests_per_client, candidates);
    const bool bitwise = row.error.empty() && row.bitwise;
    const bool all_delivered = row.delivered == row.requests;
    if (bitwise && all_delivered) {
      std::printf("%-12s %9zu %9s\n", name.c_str(), row.delivered, "yes");
    } else {
      std::printf("%-12s %9zu  FAIL: %s\n", name.c_str(), row.delivered,
                  row.error.c_str());
    }
    report.Gate(name + "/bitwise", bitwise);
    report.Gate(name + "/all_delivered", all_delivered);
    report.Metric(name + "/delivered", row.delivered);
  }
  kgrec::bench::PrintRule(32);
  std::printf(
      "\nContract: every routed response — across per-user coalescing and a\n"
      "mid-traffic hot swap — is bitwise what a direct ScoreItems call on\n"
      "the fitted model returns, and every admitted request is delivered\n"
      "exactly once.\n");
  return report.Finish();
}
