// Checkpoint/restore harness: Fit → Save → LoadModel → score, model by
// model across the whole zoo, and verify the serve-path contract — the
// restored model's ScoreItems() must be **bitwise identical** to the
// fitted model's. Derived state (ripple sets, path contexts, sampled
// neighborhoods, beam caches) is recomputed on load rather than stored,
// so any drift in those rebuild paths shows up here as a float mismatch.
// Also reports checkpoint size and save/load wall time per model.
//
//   ./checkpoint_roundtrip          full sweep (all 38 models)
//   ./checkpoint_roundtrip --smoke  tiny world, same full zoo, for CI
//
// Exits non-zero if any model fails to save, fails to load, or diverges.

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/presets.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

long FileSize(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

struct RowResult {
  long bytes = -1;
  double save_s = 0.0;
  double load_s = 0.0;
  bool ok = false;
  std::string error;
};

RowResult Roundtrip(kgrec::Recommender& fitted, const kgrec::RecContext& ctx,
                    const std::string& path, int32_t num_users,
                    int32_t num_items) {
  RowResult row;
  const auto t0 = Clock::now();
  const kgrec::Status saved = fitted.Save(path);
  const auto t1 = Clock::now();
  if (!saved.ok()) {
    row.error = "save: " + saved.ToString();
    return row;
  }
  row.save_s = Seconds(t0, t1);
  row.bytes = FileSize(path);

  std::unique_ptr<kgrec::Recommender> restored;
  const auto t2 = Clock::now();
  const kgrec::Status loaded = kgrec::LoadModel(ctx, path, &restored);
  const auto t3 = Clock::now();
  if (!loaded.ok()) {
    row.error = "load: " + loaded.ToString();
    return row;
  }
  row.load_s = Seconds(t2, t3);

  // Probe a spread of users against a duplicate-bearing candidate list;
  // bitwise comparison, not a tolerance.
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < num_items; i += 3) candidates.push_back(i);
  candidates.push_back(candidates.front());
  for (int32_t user = 0; user < num_users; user += num_users / 4 + 1) {
    const std::vector<float> before = fitted.ScoreItems(user, candidates);
    const std::vector<float> after = restored->ScoreItems(user, candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (std::memcmp(&before[i], &after[i], sizeof(float)) != 0) {
        row.error = "score divergence at user " + std::to_string(user) +
                    " item " + std::to_string(candidates[i]);
        return row;
      }
    }
  }
  row.ok = true;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  kgrec::WorldConfig config = kgrec::GetPreset("movielens-100k").config;
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

  kgrec::bench::Report report("checkpoint_roundtrip", smoke);
  const std::string dir =
      "/tmp/kgrec_ckpt_" + std::to_string(static_cast<long>(getpid()));
  if (mkdir(dir.c_str(), 0755) != 0) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    report.Gate("checkpoint_dir_created", false);
    return report.Finish();
  }

  std::printf(
      "== checkpoint roundtrip (%s world: %d users, %d items) ==\n\n",
      smoke ? "smoke" : "full", config.num_users, config.num_items);
  std::printf("%-16s %10s %10s %10s %12s\n", "model", "bytes", "save_s",
              "load_s", "roundtrip");
  kgrec::bench::PrintRule(64);

  for (const std::string& name : kgrec::ImplementedMethodNames()) {
    std::unique_ptr<kgrec::Recommender> model = kgrec::MakeRecommender(name);
    if (model == nullptr) {
      std::printf("%-16s (no factory)\n", name.c_str());
      report.Gate(name + "/bitwise", false);
      continue;
    }
    model->Fit(bench.Context(17));
    std::string file = name;
    for (char& c : file) {
      if (c == '-' || c == ' ') c = '_';
    }
    const std::string path = dir + "/" + file + ".kgrc";
    const RowResult row = Roundtrip(*model, bench.Context(17), path,
                                    config.num_users, config.num_items);
    if (row.ok) {
      std::printf("%-16s %10ld %10.4f %10.4f %12s\n", name.c_str(), row.bytes,
                  row.save_s, row.load_s, "bitwise");
    } else {
      std::printf("%-16s %10s %10s %10s  FAIL: %s\n", name.c_str(), "-", "-",
                  "-", row.error.c_str());
    }
    report.Gate(name + "/bitwise", row.ok);
    report.Metric(name + "/checkpoint_bytes", row.bytes > 0 ? row.bytes : 0);
    report.Timing(name + "/save_seconds", row.save_s);
    report.Timing(name + "/load_seconds", row.load_s);
    std::remove(path.c_str());
  }
  rmdir(dir.c_str());
  kgrec::bench::PrintRule(64);
  std::printf(
      "\nContract: every row must read 'bitwise' — a restored model serves\n"
      "exactly the scores the fitted model did. Checkpoints store learned\n"
      "parameters only; derived state is recomputed on load from the same\n"
      "data and seed, which is what this harness locks down.\n");
  return report.Finish();
}
