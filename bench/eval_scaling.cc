// Parallel-evaluation scaling harness: times EvaluateCtr / EvaluateTopK
// at 1/2/4/8 threads on the table3_method_matrix world and verifies the
// determinism contract — every thread count must produce **bitwise
// identical** metrics, because negatives come from per-user counter-based
// RNG streams (Rng::Fork) and reductions run in a fixed order.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/presets.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool SameTopK(const kgrec::TopKMetrics& a, const kgrec::TopKMetrics& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameCtr(const kgrec::CtrMetrics& a, const kgrec::CtrMetrics& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

}  // namespace

int main() {
  // The same world profile as table3_method_matrix, scaled up so the
  // evaluation loop (not model training) dominates the timings.
  kgrec::WorldConfig config = kgrec::GetPreset("movielens-100k").config;
  config.num_users = 600;
  config.num_items = 800;
  config.avg_interactions_per_user = 12.0;
  kgrec::bench::Workbench bench = kgrec::bench::MakeWorkbench(config);

  auto model = kgrec::MakeRecommender("KGCN");
  model->Fit(bench.Context(17));

  std::printf("== parallel evaluation scaling (hardware threads: %zu) ==\n\n",
              kgrec::ThreadPool::HardwareThreads());
  std::printf("%8s %10s %10s %12s %10s\n", "threads", "ctr_s", "topk_s",
              "topk_speedup", "bitwise");

  kgrec::CtrMetrics ctr_ref;
  kgrec::TopKMetrics topk_ref;
  double topk_serial = 0.0;
  kgrec::bench::Report report("eval_scaling", /*smoke=*/false);
  report.Metric("hardware_threads", kgrec::ThreadPool::HardwareThreads());
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    kgrec::EvalOptions options;
    options.num_threads = threads;
    options.num_negatives = 200;
    options.k = 10;

    const auto t0 = Clock::now();
    kgrec::CtrMetrics ctr =
        EvaluateCtr(*model, bench.split.train, bench.split.test, options);
    const auto t1 = Clock::now();
    kgrec::TopKMetrics topk =
        EvaluateTopK(*model, bench.split.train, bench.split.test, options);
    const auto t2 = Clock::now();

    const double topk_s = Seconds(t1, t2);
    bool bitwise = true;
    if (threads == 1) {
      ctr_ref = ctr;
      topk_ref = topk;
      topk_serial = topk_s;
    } else {
      bitwise = SameCtr(ctr, ctr_ref) && SameTopK(topk, topk_ref);
    }
    std::printf("%8zu %10.3f %10.3f %11.2fx %10s\n", threads,
                Seconds(t0, t1), topk_s, topk_serial / topk_s,
                bitwise ? "yes" : "NO — BUG");
    const std::string row = "threads=" + std::to_string(threads);
    if (threads > 1) report.Gate(row + "/bitwise", bitwise);
    report.Timing(row + "/ctr_seconds", Seconds(t0, t1));
    report.Timing(row + "/topk_seconds", topk_s);
    report.Timing(row + "/topk_speedup", topk_serial / topk_s);
  }
  std::printf(
      "\nContract: the bitwise column must read 'yes' on every row; the\n"
      "speedup column tracks the machine's core count (1.0x on 1 core).\n");
  return report.Finish();
}
