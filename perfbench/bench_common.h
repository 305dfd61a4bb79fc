// Shared plumbing of the serving benchmark: clocks, percentiles and the
// sliced estimators, the metric list a run prints, the machine
// diagnostics every run records (steal ticks, thread count), and the
// CPU placement of the benchmark's threads.
#ifndef KGREC_PERFBENCH_BENCH_COMMON_H_
#define KGREC_PERFBENCH_BENCH_COMMON_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// steady_clock nanoseconds — the same clock the Router stamps
/// submitted_ns / completed_ns with, so bench and router times compare.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options; the workload sees only what these generate.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for checkpoints and span dumps.
  std::string scratch_dir = ".bench_build/perfbench/run";
};

/// Nearest-rank percentile of an unsorted sample (copied, then sorted).
/// 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Median of an unsorted sample.
inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Number of consecutive slices a phase is cut into by SlicedPercentile
/// and the closed-loop throughput.
inline constexpr size_t kSlices = 20;
/// Which slice a sliced figure reports: the one at this rank among the
/// slices ordered from fastest to slowest (0.75: the edge of the slower
/// quarter). On shared virtual CPUs a run meets host episodes lasting
/// seconds, some slower (preemption) and, more often, some up to twice
/// as fast; a program change moves every slice, an episode only the
/// slices it covers. The figure holds unless a fast episode covers three
/// quarters of the phase or a slow one a quarter.
inline constexpr double kSliceRank = 0.75;

/// The q-percentile within each of `slices` consecutive slices of a
/// sample kept in time order, then the kSliceRank-th lowest of those.
/// Falls back to the whole-sample percentile when a slice would hold
/// fewer than `min_per_slice` samples.
double SlicedPercentile(const std::vector<double>& values, double q,
                        size_t slices = kSlices, size_t min_per_slice = 50);

/// Count of samples strictly above the q-percentile: how many samples a
/// reported tail percentile rests on.
size_t SamplesBeyond(const std::vector<double>& values, double q);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports. `attempted` counts requests plus swaps;
/// `failed` counts admission rejections, non-OK statuses, responses that
/// fail the correctness check and non-OK swaps. End-to-end metrics print
/// in untraced runs, per-layer metrics in traced runs.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Fail(uint64_t n = 1) {
    failed += n;
    if (n > 0) correct = false;
  }
};

/// Latency summary with the sample counts the tail percentiles rest on.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  size_t beyond_p90 = 0;
  size_t beyond_p99 = 0;
};
LatencySummary Summarize(const std::vector<double>& values);

/// Prints "label: n=... p50=... p90=... (k beyond) p99=... (k beyond)".
void PrintSummary(const std::string& label, const std::string& unit,
                  const LatencySummary& summary);

/// Host CPU steal ticks (all CPUs, /proc/stat); 0 when unavailable.
uint64_t StealTicks();

/// Current thread count of this process (/proc/self/status); 0 when
/// unavailable.
int ThreadCount();

/// CPUs the benchmark's threads run on: the generator (the main thread),
/// the router worker and the swapper each get their own, so the guest
/// scheduler never stacks two of them on one CPU (wake-affine placement
/// otherwise decides per process whether they share one, and runs split
/// into a fast and a slow mode). kAnyCpu lifts the pin.
inline constexpr int kGeneratorCpu = 0;
inline constexpr int kWorkerCpu = 1;
inline constexpr int kSwapperCpu = 2;
inline constexpr int kAnyCpu = -1;

/// Pins the calling thread to one CPU (or to all, for kAnyCpu) for the
/// scope's lifetime; threads started inside the scope inherit the pin.
/// A CPU the machine lacks leaves the placement unchanged.
class ScopedCpu {
 public:
  explicit ScopedCpu(int cpu);
  ~ScopedCpu();
  ScopedCpu(const ScopedCpu&) = delete;
  ScopedCpu& operator=(const ScopedCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

/// Keeps CPUs from idling while it lives: one SCHED_IDLE thread per CPU
/// spins, so any runnable normal thread preempts it at once, but the
/// virtual CPU never halts. On a VM a halted vCPU is woken through the
/// host scheduler, which costs from tens of µs to milliseconds — as much
/// as a whole stream read; this is the user-space form of idle=poll.
class KeepCpusAwake {
 public:
  explicit KeepCpusAwake(const std::vector<int>& cpus);
  ~KeepCpusAwake();
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Waits until `deadline_ns` on the steady clock: sleeps while more than
/// 120 µs away, then spins. A generator that only sleeps wakes tens of µs
/// late; one that only spins keeps a vCPU busy, and on a shared host a
/// busier VM gets its vCPUs preempted for milliseconds at a time.
void WaitUntil(uint64_t deadline_ns);

}  // namespace perfbench

#endif  // KGREC_PERFBENCH_BENCH_COMMON_H_
