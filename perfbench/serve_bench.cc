// Serving benchmark program.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--scratch <dir>]
//
// Runs one workload (see workloads.h and README.md), prints a
// human-readable summary with validity diagnostics, and as its last
// stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits non-zero, printing no result, when the workload
// cannot be set up.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: serve_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>]\n"
               "workloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--scratch") {
      options->scratch_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

void PrintJson(const perfbench::RunResult& result, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const auto& metrics = trace ? result.per_layer : result.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  perfbench::RunResult result;
  std::string error;
  if (!perfbench::RunWorkload(options, &result, &error)) {
    std::fprintf(stderr, "serve_bench: %s\n", error.c_str());
    return 1;
  }
  if (!result.correct) {
    std::printf("CORRECTNESS: %llu of %llu operations failed\n",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
  }
  PrintJson(result, options.trace);
  std::fflush(stdout);
  return 0;
}
