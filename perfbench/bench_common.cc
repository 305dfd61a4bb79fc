#include "bench_common.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

/// Spin-loop hint: lets a hyperthread sibling run while this one waits.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double SlicedPercentile(const std::vector<double>& values, double q,
                        size_t slices, size_t min_per_slice) {
  if (values.size() < min_per_slice * slices) return Percentile(values, q);
  std::vector<double> per_slice;
  for (size_t k = 0; k < slices; ++k) {
    per_slice.push_back(Percentile(
        std::vector<double>(values.begin() + k * values.size() / slices,
                            values.begin() + (k + 1) * values.size() / slices),
        q));
  }
  return Percentile(per_slice, kSliceRank);
}

size_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return static_cast<size_t>(std::count_if(
      values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.count = values.size();
  s.p50 = Percentile(values, 0.50);
  s.p90 = Percentile(values, 0.90);
  s.p99 = Percentile(values, 0.99);
  s.beyond_p90 = SamplesBeyond(values, 0.90);
  s.beyond_p99 = SamplesBeyond(values, 0.99);
  return s;
}

void PrintSummary(const std::string& label, const std::string& unit,
                  const LatencySummary& s) {
  std::printf(
      "  %-28s n=%zu  p50=%.1f%s  p90=%.1f%s (%zu beyond)  "
      "p99=%.1f%s (%zu beyond)\n",
      label.c_str(), s.count, s.p50, unit.c_str(), s.p90, unit.c_str(),
      s.beyond_p90, s.p99, unit.c_str(), s.beyond_p99);
}

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  std::istringstream fields(line);
  std::string cpu;
  uint64_t value = 0;
  fields >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> value)) return 0;
  }
  return value;
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

ScopedCpu::ScopedCpu(int cpu) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpu == kAnyCpu) {
    for (int c = 0; c < cpus; ++c) CPU_SET(c, &set);
  } else if (cpu < cpus) {
    CPU_SET(cpu, &set);
  } else {
    return;
  }
  restore_ = sched_setaffinity(0, sizeof(set), &set) == 0;
}

ScopedCpu::~ScopedCpu() {
  if (restore_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

KeepCpusAwake::KeepCpusAwake(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    const ScopedCpu pin(cpu);  // the spinner inherits the pin
    threads_.emplace_back([this] {
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) CpuRelax();
    });
  }
}

KeepCpusAwake::~KeepCpusAwake() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

void WaitUntil(uint64_t deadline_ns) {
  constexpr uint64_t kSpinNs = 120'000;
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= deadline_ns) return;
    if (deadline_ns - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
    } else {
      CpuRelax();
    }
  }
}

}  // namespace perfbench
