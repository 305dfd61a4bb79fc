#ifndef KGREC_BENCH_BENCH_UTIL_H_
#define KGREC_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mem_stats.h"
#include "core/recommender.h"
#include "core/thread_pool.h"
#include "data/synthetic.h"
#include "eval/protocol.h"

namespace kgrec::bench {

/// A prepared experiment world: split + both graph views.
struct Workbench {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  RecContext Context(uint64_t seed = 17) const {
    RecContext ctx;
    ctx.train = &split.train;
    ctx.item_kg = &world.item_kg;
    ctx.user_item_graph = &ui_graph;
    ctx.seed = seed;
    return ctx;
  }
};

inline Workbench MakeWorkbench(const WorldConfig& config,
                               double test_fraction = 0.2,
                               uint64_t split_seed = 5) {
  Workbench w;
  w.world = GenerateWorld(config);
  Rng rng(split_seed);
  w.split = RatioSplit(w.world.interactions, test_fraction, rng);
  w.ui_graph = BuildUserItemGraph(w.world, w.split.train);
  return w;
}

/// Result of one model run.
struct RunResult {
  CtrMetrics ctr;
  TopKMetrics topk;
  double train_seconds = 0.0;
};

/// Trains the model and evaluates it with `eval_threads` workers. The
/// metrics are bitwise independent of `eval_threads` (EvalOptions'
/// determinism contract), so benches are free to pick any thread count —
/// a sweep that is itself parallel passes 1 to avoid nested pools.
inline RunResult RunModel(Recommender& model, const Workbench& bench,
                          uint64_t seed = 17,
                          size_t eval_threads = ThreadPool::HardwareThreads()) {
  const auto start = std::chrono::steady_clock::now();
  model.Fit(bench.Context(seed));
  const auto end = std::chrono::steady_clock::now();
  RunResult result;
  result.train_seconds =
      std::chrono::duration<double>(end - start).count();
  EvalOptions ctr_options;
  ctr_options.num_threads = eval_threads;
  ctr_options.seed = Rng(101).NextUint64();
  result.ctr = EvaluateCtr(model, bench.split.train, bench.split.test,
                           ctr_options);
  EvalOptions topk_options;
  topk_options.num_threads = eval_threads;
  topk_options.k = 10;
  topk_options.num_negatives = 50;
  topk_options.seed = Rng(102).NextUint64();
  result.topk = EvaluateTopK(model, bench.split.train, bench.split.test,
                             topk_options);
  return result;
}

/// Runs `body(i)` for i in [0, n) across the hardware threads and returns
/// each row's preformatted output in index order, so sweeps over models /
/// configs parallelize while the printed table stays deterministic.
/// Bodies should evaluate with eval_threads = 1: the sweep itself already
/// saturates the machine.
inline std::vector<std::string> RunRowsParallel(
    size_t n, const std::function<std::string(size_t)>& body) {
  std::vector<std::string> rows(n);
  const Status status =
      ParallelFor(n, ThreadPool::HardwareThreads(),
                  [&](size_t begin, size_t end) -> Status {
                    for (size_t i = begin; i < end; ++i) rows[i] = body(i);
                    return Status::OK();
                  });
  if (!status.ok()) {
    std::fprintf(stderr, "bench sweep failed: %s\n",
                 status.ToString().c_str());
  }
  return rows;
}

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// The one machine-readable artifact of a bench, BENCH_<name>.json:
///
///   {"bench": name, "mode": "smoke" | "full",
///    "gates": {...}, "metrics": {...}, "timings": {...}, "rss": {...}}
///
/// Every section is a flat name -> value object; row lists flatten into
/// "<row>/<field>" keys such as "MF/sq8_bitwise" or
/// "2000/ivf/probes=8/recall_at_10".
///   gates    pass/fail contract checks (bool). The exit code Finish()
///            returns is their AND, so a bench's exit status and its
///            artifact cannot disagree.
///   metrics  deterministic numbers (AUC, recall, bytes, pool sizes):
///            any change between two runs is news.
///   timings  wall clock and quotients of it: noisy.
///   rss      resident-set bytes: noisy.
/// tools/bench_diff.py reads these four sections and nothing else.
class Report {
 public:
  Report(std::string name, bool smoke)
      : name_(std::move(name)), mode_(smoke ? "smoke" : "full") {}

  /// Records a gate; recording the same name again ANDs into it, so a
  /// loop can fold per-item checks into one gate.
  void Gate(const std::string& name, bool ok) {
    bool& gate = gates_.try_emplace(name, true).first->second;
    gate = gate && ok;
  }
  void Metric(const std::string& name, double value) { metrics_[name] = value; }
  void Timing(const std::string& name, double value) { timings_[name] = value; }
  void Rss(const std::string& name, double bytes) { rss_[name] = bytes; }

  /// Writes BENCH_<name>.json (adding the process's "peak_rss_bytes"
  /// unless the bench recorded it) and returns the process exit code: 0
  /// only if the file was written and every gate is true. Failed gates
  /// are named on stderr.
  int Finish() {
    rss_.emplace("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
    bool ok = true;
    for (const auto& [gate, passed] : gates_) {
      if (!passed) std::fprintf(stderr, "FAIL gate %s\n", gate.c_str());
      ok = ok && passed;
    }
    // One line per section: tools/bench_diff.py, not a text diff, is
    // how two artifacts are compared.
    const std::string json =
        "{\"bench\": " + Quote(name_) + ", \"mode\": " + Quote(mode_) +
        ",\n \"gates\": " + Section(gates_) +
        ",\n \"metrics\": " + Section(metrics_) +
        ",\n \"timings\": " + Section(timings_) +
        ",\n \"rss\": " + Section(rss_) + "}\n";
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool written = f != nullptr && std::fputs(json.c_str(), f) >= 0;
    if (f != nullptr) written = std::fclose(f) == 0 && written;
    if (!written) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok && written ? 0 : 1;
  }

 private:
  // Names are bench-chosen ASCII identifiers; only '"' and '\\' need
  // escaping.
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
  static std::string Value(bool v) { return v ? "true" : "false"; }
  /// Shortest round-trip form; JSON has no NaN/inf, so those are null.
  static std::string Value(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
  template <typename T>
  static std::string Section(const std::map<std::string, T>& entries) {
    std::string out;
    for (const auto& [name, value] : entries) {
      out += (out.empty() ? "" : ", ") + Quote(name) + ": " + Value(value);
    }
    return "{" + out + "}";
  }

  std::string name_;
  std::string mode_;
  std::map<std::string, bool> gates_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> timings_;
  std::map<std::string, double> rss_;
};

}  // namespace kgrec::bench

#endif  // KGREC_BENCH_BENCH_UTIL_H_
