// The three serving workloads. Each builds its world from fixed configs,
// generates its requests from Options::seed, drives a live Router, checks
// every response against an independent reference, and fills a
// RunResult with every end-to-end and per-layer metric.
#ifndef KGREC_PERFBENCH_WORKLOADS_H_
#define KGREC_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench_common.h"

namespace perfbench {

/// Names accepted by RunWorkload, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// Runs one workload. Returns false (with *error set) only when the run
/// could not be set up at all; failed operations are counted in *result.
bool RunWorkload(const Options& options, RunResult* result,
                 std::string* error);

}  // namespace perfbench

#endif  // KGREC_PERFBENCH_WORKLOADS_H_
