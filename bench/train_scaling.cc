// Threaded-training scaling harness: times serial (num_threads = 1)
// versus threaded Fit for each family that opted into deterministic
// multi-threaded training — the sharded KGE trainer, a KGE-backed
// recommender (CFKG), the parallel ripple-set build (RippleNet), the
// per-entity attention refresh (KGAT) and the per-user path-context
// precompute (KPRN) — and verifies the determinism contract: every
// thread count >= 1 must produce **bitwise identical** parameters /
// scores, because shard layouts, per-unit counter-forked RNG streams
// (Rng::Fork) and gradient reductions are functions of the configuration
// alone. Exits non-zero on any divergence.
//
// On a 1-core container the speedup column is informational only; the
// bitwise column is the contract.
//
// `--smoke` shrinks the world and epoch counts for the tier-1 ctest leg.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/serialize.h"
#include "core/thread_pool.h"
#include "data/presets.h"
#include "embed/cfkg.h"
#include "kge/kge_model.h"
#include "kge/kge_trainer.h"
#include "path/kprn.h"
#include "unified/kgat.h"
#include "unified/ripplenet.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed training run: wall time plus a float fingerprint (trained
/// parameters or a score grid) that must be bitwise-stable across thread
/// counts.
struct Timed {
  double seconds = 0.0;
  std::vector<float> fingerprint;
};

/// A family row: `run(threads)` trains from scratch at the given thread
/// count and fingerprints the result.
struct Family {
  std::string name;
  std::function<Timed(size_t threads)> run;
};

std::vector<float> ScoreGrid(const kgrec::Recommender& model,
                             const kgrec::bench::Workbench& bench) {
  std::vector<float> out;
  const auto num_users =
      static_cast<int32_t>(bench.split.train.num_users());
  const auto num_items =
      static_cast<int32_t>(bench.split.train.num_items());
  for (int32_t u = 0; u < num_users; u += 13) {
    for (int32_t i = 0; i < num_items; i += 17) {
      out.push_back(model.Score(u, i));
    }
  }
  return out;
}

template <typename Model, typename Config>
Timed TimeRecommender(Config config, const kgrec::bench::Workbench& bench) {
  Model model(config);
  Timed result;
  const auto t0 = Clock::now();
  model.Fit(bench.Context(17));
  const auto t1 = Clock::now();
  result.seconds = Seconds(t0, t1);
  result.fingerprint = ScoreGrid(model, bench);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  kgrec::WorldConfig world_config =
      kgrec::GetPreset("movielens-100k").config;
  world_config.num_users = smoke ? 40 : 300;
  world_config.num_items = smoke ? 60 : 400;
  world_config.avg_interactions_per_user = smoke ? 8.0 : 12.0;
  const kgrec::bench::Workbench bench =
      kgrec::bench::MakeWorkbench(world_config);

  const std::vector<size_t> thread_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};

  std::vector<Family> families;

  families.push_back(
      {"kge-transe", [&](size_t threads) {
         kgrec::Rng rng(21);
         const kgrec::KnowledgeGraph& kg = bench.world.item_kg;
         auto model = kgrec::MakeKgeModel("transe", kg.num_entities(),
                                          kg.num_relations(), 16, rng);
         kgrec::KgeTrainConfig config;
         config.epochs = smoke ? 3 : 10;
         config.batch_size = 128;
         config.num_threads = threads;
         Timed result;
         const auto t0 = Clock::now();
         kgrec::TrainKge(*model, kg, config);
         result.seconds = Seconds(t0, Clock::now());
         for (const kgrec::NamedTensor& t :
              kgrec::SnapshotParams(model->Params())) {
           result.fingerprint.insert(result.fingerprint.end(),
                                     t.data.begin(), t.data.end());
         }
         return result;
       }});

  families.push_back({"CFKG", [&](size_t threads) {
                        kgrec::CfkgConfig config;
                        config.epochs = smoke ? 3 : 10;
                        config.num_threads = threads;
                        return TimeRecommender<kgrec::CfkgRecommender>(
                            config, bench);
                      }});

  families.push_back({"RippleNet", [&](size_t threads) {
                        kgrec::RippleNetConfig config;
                        config.epochs = smoke ? 2 : 6;
                        config.hop_size = 16;
                        config.num_threads = threads;
                        return TimeRecommender<kgrec::RippleNetRecommender>(
                            config, bench);
                      }});

  families.push_back({"KGAT", [&](size_t threads) {
                        kgrec::KgatConfig config;
                        config.epochs = smoke ? 2 : 5;
                        config.num_threads = threads;
                        return TimeRecommender<kgrec::KgatRecommender>(
                            config, bench);
                      }});

  families.push_back({"KPRN", [&](size_t threads) {
                        kgrec::KprnConfig config;
                        config.epochs = smoke ? 1 : 2;
                        config.num_threads = threads;
                        return TimeRecommender<kgrec::KprnRecommender>(
                            config, bench);
                      }});

  std::printf(
      "== threaded training scaling (hardware threads: %zu%s) ==\n\n",
      kgrec::ThreadPool::HardwareThreads(), smoke ? ", smoke" : "");
  std::printf("%12s %8s %10s %9s %10s\n", "family", "threads", "fit_s",
              "speedup", "bitwise");

  kgrec::bench::Report report("train_scaling", smoke);
  for (const Family& family : families) {
    double serial_seconds = 0.0;
    std::vector<float> reference;
    for (size_t threads : thread_counts) {
      const Timed run = family.run(threads);
      const std::string row =
          family.name + "/threads=" + std::to_string(threads);
      bool bitwise = true;
      if (threads == 1) {
        serial_seconds = run.seconds;
        reference = run.fingerprint;
      } else {
        bitwise = run.fingerprint == reference;
        report.Gate(row + "/bitwise", bitwise);
      }
      std::printf("%12s %8zu %10.3f %8.2fx %10s\n", family.name.c_str(),
                  threads, run.seconds, serial_seconds / run.seconds,
                  bitwise ? "yes" : "NO — BUG");
      report.Timing(row + "/fit_seconds", run.seconds);
      report.Timing(row + "/speedup", serial_seconds / run.seconds);
    }
  }

  std::printf(
      "\nContract: the bitwise column must read 'yes' on every row; the\n"
      "speedup column tracks the machine's core count (~1.0x on 1 core).\n");
  return report.Finish();
}
