#include "report.h"

#include <cstdio>

namespace perfbench {

const std::vector<LayerSpec>& LayerCatalog() {
  static const std::vector<LayerSpec> catalog = {
      {"serve.submit_us", "us"},
      {"serve.router_self_us", "us"},
      {"serve.coalesced_frac", "ratio"},
      {"serve.batch_size_mean", "count"},
      {"serve.swap_ms", "ms"},
      {"serve.swap_self_ms", "ms"},
      {"serve.mode_kept", "0/1"},
      {"retrieval.query_prep_us", "us"},
      {"retrieval.scan_us", "us"},
      {"retrieval.scan_f32_us", "us"},
      {"retrieval.pool_useful_frac", "ratio"},
      {"retrieval.index_build_ms", "ms"},
      {"math.scan_bytes_per_query", "B"},
      {"unified.score_items_us", "us"},
      {"unified.score_ns_per_candidate", "ns"},
      {"embed.update_ms", "ms"},
      {"embed.update_events_per_s", "1/s"},
      {"core.save_ms", "ms"},
      {"core.load_ms", "ms"},
      {"core.checkpoint_bytes", "B"},
      {"data.apply_batch_ms", "ms"},
      {"data.world_s", "s"},
      {"cf.fit_s", "s"},
      {"unified.fit_s", "s"},
      {"embed.fit_s", "s"},
      {"bench.generator_late_p50_us", "us"},
      {"bench.generator_late_p99_us", "us"},
      {"bench.steal_ticks", "count"},
      {"bench.threads", "count"},
      {"bench.trace_overhead_p50_us", "us"},
      {"bench.trace_overhead_frac", "ratio"},
  };
  return catalog;
}

void Report(const Options& options, const Measured& m, RunResult* result) {
  const LatencySummary setup = Summarize(m.setup_s);
  const LatencySummary closed = Summarize(m.closed_us);
  const LatencySummary open = Summarize(m.open_us);
  const LatencySummary fresh = Summarize(m.freshness_ms);
  const LatencySummary late = Summarize(m.lateness_us);
  constexpr double kMiB = 1024.0 * 1024.0;
  const double rss_mib = static_cast<double>(m.peak_rss_bytes) / kMiB;

  std::printf("workload %s  seed %llu  seconds %.0f  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("  setup reps %zu: median %.3fs\n", setup.count, setup.p50);
  std::printf("  closed loop: %.1f req/s\n", m.throughput_rps);
  PrintSummary("closed latency", "us", closed);
  PrintSummary("open latency (from due)", "us", open);
  PrintSummary("freshness", "ms", fresh);
  std::printf("  sliced (slice rank %.2f of %zu): closed p50=%.1fus "
              "p90=%.1fus  open p50=%.1fus p90=%.1fus\n",
              kSliceRank, kSlices,
              SlicedPercentile(m.closed_us, 0.5),
              SlicedPercentile(m.closed_us, 0.9),
              SlicedPercentile(m.open_us, 0.5),
              SlicedPercentile(m.open_us, 0.9));
  std::printf("  peak rss %.1f MiB at the end of the timed phases (%.1f MiB "
              "after set-up; request logs %.1f MiB of it)\n",
              rss_mib, static_cast<double>(m.setup_rss_bytes) / kMiB,
              static_cast<double>(m.log_bytes) / kMiB);
  std::printf("diagnostics:\n");
  PrintSummary("generator lateness", "us", late);
  std::printf("  steal ticks %llu  threads %d\n",
              static_cast<unsigned long long>(m.steal_ticks), m.threads);
  std::printf("  retrieval mode before swaps '%s', after '%s'\n",
              m.mode_before.c_str(), m.mode_after.c_str());
  if (late.p90 > kLateFlagUs) {
    std::printf("  VALIDITY WARNING: generator p90 lateness %.1fus > %.0fus\n",
                late.p90, kLateFlagUs);
  }

  // Swaps are sliced 20 to a slice; fewer than 40 swaps are one sample.
  constexpr size_t kSwapsPerSlice = 20;
  const size_t swap_slices =
      std::max<size_t>(2, m.freshness_ms.size() / kSwapsPerSlice);
  result->end_to_end = {
      {"setup_s", setup.p50, "s"},
      {"throughput_rps", m.throughput_rps, "req/s"},
      {"latency_p50_us", SlicedPercentile(m.closed_us, 0.5), "us"},
      {"latency_p90_us", SlicedPercentile(m.closed_us, 0.9), "us"},
      {"open_p50_us", SlicedPercentile(m.open_us, 0.5), "us"},
      {"open_p90_us", SlicedPercentile(m.open_us, 0.9), "us"},
      {"freshness_p50_ms", SlicedPercentile(m.freshness_ms, 0.5, swap_slices,
                                            kSwapsPerSlice),
       "ms"},
      {"freshness_p90_ms", SlicedPercentile(m.freshness_ms, 0.9, swap_slices,
                                            kSwapsPerSlice),
       "ms"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };

  std::map<std::string, double> layer = m.layer;
  layer["bench.generator_late_p50_us"] = late.p50;
  layer["bench.generator_late_p99_us"] = late.p99;
  layer["bench.steal_ticks"] = static_cast<double>(m.steal_ticks);
  layer["bench.threads"] = m.threads;
  layer["serve.mode_kept"] = m.mode_before == m.mode_after ? 1.0 : 0.0;
  result->per_layer.clear();
  std::string absent;
  for (const LayerSpec& spec : LayerCatalog()) {
    auto it = layer.find(spec.name);
    if (it == layer.end()) absent += std::string(" ") + spec.name;
    result->per_layer.push_back(
        {spec.name, it == layer.end() ? 0.0 : it->second, spec.unit});
  }
  if (options.trace) {
    std::printf("per-layer:\n");
    for (const Metric& metric : result->per_layer) {
      std::printf("  %-32s %14.4f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    std::printf("  not on this workload's path (reported as 0):%s\n",
                absent.c_str());
  }
}

}  // namespace perfbench
