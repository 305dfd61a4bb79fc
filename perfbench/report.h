// Turns what a workload measured into the metric lists a run prints, and
// prints the run's validity diagnostics.
#ifndef KGREC_PERFBENCH_REPORT_H_
#define KGREC_PERFBENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "bench_common.h"

namespace perfbench {

/// Raw measurements of one run, filled in by a workload.
struct Measured {
  std::vector<double> setup_s;       ///< one per set-up repetition
  double throughput_rps = 0.0;       ///< closed-loop phase
  std::vector<double> closed_us;     ///< closed loop, submitted->completed
  std::vector<double> open_us;       ///< open loop, due->completed
  std::vector<double> freshness_ms;  ///< swap due->returned
  std::vector<double> lateness_us;   ///< open-loop generator lateness
  uint64_t steal_ticks = 0;
  int threads = 0;
  /// PeakRssBytes() when the timed phases end (peak_rss_mib), and when
  /// set-up ends; bytes the phase logs hold at that point.
  size_t peak_rss_bytes = 0;
  size_t setup_rss_bytes = 0;
  size_t log_bytes = 0;
  std::string mode_before;           ///< retrieval_mode() before swaps
  std::string mode_after;            ///< and after
  /// Per-layer values measured on this workload's path, by metric name.
  /// Per-layer metrics absent here are reported as 0 (layer not on the
  /// workload's path) and listed as such in the text output.
  std::map<std::string, double> layer;
};

/// Open-loop generator lateness at p90 above which a run is flagged in
/// its diagnostics: the generator, not the program, would then be
/// setting part of the reported open-loop p90.
inline constexpr double kLateFlagUs = 100.0;

/// Fills result->end_to_end and result->per_layer from `m` and prints the
/// human-readable summary and diagnostics.
void Report(const Options& options, const Measured& m, RunResult* result);

/// The per-layer metric names with their units, in BENCHMARK.json order.
struct LayerSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerSpec>& LayerCatalog();

}  // namespace perfbench

#endif  // KGREC_PERFBENCH_REPORT_H_
