// Serving-layer load generator: Fit → Save → LoadModel → Adopt → Router,
// then open-loop traffic from several concurrent clients per model
// family, with one hot swap (to a reload of the same checkpoint) in the
// middle of the run. Reports achieved QPS and p50/p99 response latency,
// and — the contract this bench exists to gate — verifies every routed
// response is **bitwise identical** to a direct ScoreItems call on the
// fitted model, whichever generation served it.
//
//   ./serve_throughput          full sweep (open-loop paced traffic)
//   ./serve_throughput --smoke  tiny world, unpaced burst, for CI
//
// Open-loop means arrival times come from a precomputed schedule and
// never wait for completions, so queueing delay shows up in the latency
// percentiles instead of being hidden by client back-pressure. The smoke
// mode asserts only correctness and accounting (never timing), so it
// cannot go flaky on a loaded single-core CI machine.
//
// Exits non-zero on any save/load/serve failure, lost response, or score
// divergence.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/mem_stats.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/presets.h"
#include "math/rng.h"
#include "serve/router.h"
#include "serve/serve_handle.h"

namespace {

using Clock = std::chrono::steady_clock;
using kgrec::serve::Router;
using kgrec::serve::RouterConfig;
using kgrec::serve::RouterStats;
using kgrec::serve::ScoreResponse;
using kgrec::serve::ServeHandle;

struct LoadResult {
  size_t requests = 0;
  size_t delivered = 0;
  size_t rejected = 0;
  double wall_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double swap_ms = 0.0;
  bool bitwise = true;
  std::string error;
};

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(index, sorted_us.size() - 1)];
}

/// Drives one model family end to end. `paced` selects genuine open-loop
/// arrivals (full mode) vs an unpaced burst (smoke mode).
LoadResult DriveFamily(const std::string& name,
                       const kgrec::bench::Workbench& bench, bool paced,
                       size_t num_clients, size_t requests_per_client,
                       size_t candidates_per_request, double target_qps) {
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
  const auto start = Clock::now();
  const std::chrono::nanoseconds interval(
      target_qps > 0.0 ? static_cast<int64_t>(
                             1e9 * static_cast<double>(num_clients) /
                             target_qps)
                       : 0);

  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t t = 0; t < num_clients; ++t) {
    clients.emplace_back([&, t] {
      issued[t].reserve(requests_per_client);
      for (size_t r = 0; r < requests_per_client; ++r) {
        if (paced) {
          // Open loop: arrival r of client t fires at its scheduled
          // time whether or not earlier requests completed.
          std::this_thread::sleep_until(start + interval * (r + 1));
        }
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
  const auto swap_start = Clock::now();
  const kgrec::Status swapped = router.SwapFromCheckpoint(ctx, path);
  result.swap_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - swap_start)
          .count();
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

  std::vector<double> latencies_us;
  uint64_t last_completed_ns = 0;
  uint64_t first_submitted_ns = ~0ull;
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
        ++result.rejected;
        result.error = "response: " + response.status.ToString();
        result.bitwise = false;
        continue;
      }
      ++result.delivered;
      latencies_us.push_back(
          static_cast<double>(response.completed_ns -
                              response.submitted_ns) /
          1e3);
      last_completed_ns = std::max(last_completed_ns, response.completed_ns);
      first_submitted_ns =
          std::min(first_submitted_ns, response.submitted_ns);
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
  std::sort(latencies_us.begin(), latencies_us.end());
  result.p50_us = Percentile(latencies_us, 0.50);
  result.p99_us = Percentile(latencies_us, 0.99);
  result.wall_s =
      last_completed_ns > first_submitted_ns
          ? static_cast<double>(last_completed_ns - first_submitted_ns) / 1e9
          : 0.0;
  std::remove(path.c_str());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  kgrec::WorldConfig config = kgrec::GetPreset("movielens-100k").config;
  size_t num_clients = 4;
  size_t requests_per_client = smoke ? 40 : 200;
  size_t candidates = smoke ? 8 : 32;
  const double target_qps = smoke ? 0.0 : 2000.0;  // 0 = unpaced burst
  if (smoke) {
    config.num_users = 30;
    config.num_items = 40;
    config.avg_interactions_per_user = 8.0;
  } else {
    config.num_users = 150;
    config.num_items = 200;
    config.avg_interactions_per_user = 10.0;
  }
  kgrec::bench::Workbench bench = kgrec::bench::MakeWorkbench(config);

  const std::vector<std::string> families{"MF", "CKE", "KGCN", "KPRN",
                                          "RippleNet"};

  std::printf(
      "== serve throughput (%s world: %d users, %d items; %zu clients x "
      "%zu reqs x %zu candidates, %s) ==\n\n",
      smoke ? "smoke" : "full", config.num_users, config.num_items,
      num_clients, requests_per_client, candidates,
      smoke ? "unpaced" : "open-loop");
  std::printf("%-12s %9s %9s %11s %11s %9s %9s\n", "model", "served",
              "qps", "p50_us", "p99_us", "swap_ms", "bitwise");
  kgrec::bench::PrintRule(76);

  bool all_ok = true;
  std::vector<std::string> json_rows;
  for (const std::string& name : families) {
    const LoadResult row =
        DriveFamily(name, bench, !smoke, num_clients, requests_per_client,
                    candidates, target_qps);
    const bool ok = row.error.empty() && row.bitwise &&
                    row.delivered == row.requests;
    const double qps =
        row.wall_s > 0.0 ? static_cast<double>(row.delivered) / row.wall_s
                         : 0.0;
    if (ok) {
      std::printf("%-12s %9zu %9.0f %11.1f %11.1f %9.2f %9s\n", name.c_str(),
                  row.delivered, qps, row.p50_us, row.p99_us, row.swap_ms,
                  "yes");
    } else {
      std::printf("%-12s %9zu %9s %11s %11s %9s  FAIL: %s\n", name.c_str(),
                  row.delivered, "-", "-", "-", "-", row.error.c_str());
      all_ok = false;
    }
    json_rows.push_back(kgrec::bench::JsonWriter()
                            .Field("model", name)
                            .Field("delivered", row.delivered)
                            .Field("qps", qps)
                            .Field("p50_us", row.p50_us)
                            .Field("p99_us", row.p99_us)
                            .Field("swap_ms", row.swap_ms)
                            .Field("bitwise", row.bitwise)
                            .Field("error", row.error)
                            .str());
  }
  kgrec::bench::PrintRule(76);
  kgrec::bench::JsonWriter::WriteFile(
      "BENCH_serve.json", kgrec::bench::JsonWriter()
                              .Field("bench", "serve_throughput")
                              .Field("mode", smoke ? "smoke" : "full")
                              .Field("peak_rss_bytes",
                                     kgrec::PeakRssBytes())
                              .Field("pass", all_ok)
                              .Raw("rows", kgrec::bench::JsonWriter::Array(
                                               json_rows))
                              .str());
  std::printf(
      "\nContract: every routed response — across per-user coalescing and a\n"
      "mid-traffic hot swap — is bitwise what a direct ScoreItems call on\n"
      "the fitted model returns, and every admitted request is delivered\n"
      "exactly once. Latency percentiles are informational (1-core CI\n"
      "machines); the bitwise and accounting columns are the gate.\n");
  return all_ok ? 0 : 1;
}
