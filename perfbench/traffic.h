// Load generators and the swapper thread of the serving benchmark.
//
//  * ClosedLoop: one generator thread (the caller) keeps a fixed window
//    of requests in flight; the next request is sent only when the oldest
//    outstanding one completes.
//  * OpenLoop: the caller sends on a fixed-rate schedule whatever the
//    backlog; each request is timed from when it was due.
//  * Swapper: a thread that performs a hot swap each time one falls due,
//    records due -> swap-returned freshness, then runs the operator's
//    follow-up work off the freshness path.
//
// The generators keep no request and no response payload: request i of
// a phase is a pure function of its index (the check regenerates it),
// and each response is kept as a compact record holding a digest of its
// payload's exact bytes. The memory a run holds is then the program's,
// not the traffic log's.
#ifndef KGREC_PERFBENCH_TRAFFIC_H_
#define KGREC_PERFBENCH_TRAFFIC_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/status.h"
#include "serve/router.h"

namespace perfbench {

/// 64-bit digest of a sequence of 4-byte values (splitmix64 finalizer
/// per element): two payloads with equal digests are, up to a 2^-64
/// collision, bitwise equal.
template <class T>
uint64_t DigestOf(const T* data, size_t count) {
  static_assert(sizeof(T) % 4 == 0);
  const size_t words = count * sizeof(T) / 4;
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(data);
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ words;
  for (size_t w = 0; w < words; ++w) {
    uint32_t v;
    std::memcpy(&v, bytes + 4 * w, 4);
    h = (h ^ v) + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

inline uint64_t Digest(const std::vector<std::pair<int32_t, float>>& items) {
  static_assert(sizeof(std::pair<int32_t, float>) == 8);
  return DigestOf(items.data(), items.size());
}
inline uint64_t Digest(const std::vector<float>& scores) {
  return DigestOf(scores.data(), scores.size());
}
inline uint64_t Digest(const kgrec::serve::RecommendResponse& r) {
  return Digest(r.items);
}
inline uint64_t Digest(const kgrec::serve::ScoreResponse& r) {
  return Digest(r.scores);
}

/// One finished request, kept compact (24 bytes): record i of a phase is
/// request i.
struct Completed {
  uint64_t completed_ns = 0;  ///< the response's fulfilment stamp
  uint64_t digest = 0;        ///< Digest of the response payload
  /// completed_ns minus the admission stamp, saturating at ~4.3 s.
  uint32_t routed_ns = 0;
  uint32_t generation : 31 = 0;
  uint32_t ok : 1 = 0;        ///< status OK

  uint64_t submitted_ns() const { return completed_ns - routed_ns; }
};
static_assert(sizeof(Completed) == 24);

template <class Response>
Completed Finish(const Response& response) {
  Completed c;
  c.completed_ns = response.completed_ns;
  c.digest = Digest(response);
  c.routed_ns = static_cast<uint32_t>(std::min<uint64_t>(
      response.completed_ns - response.submitted_ns, UINT32_MAX));
  c.generation = static_cast<uint32_t>(response.generation);
  c.ok = response.status.ok() ? 1 : 0;
  return c;
}

/// When the generator called Submit and when the call returned (kept in
/// traced runs only).
struct CallTimes {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

struct PhaseLog {
  std::vector<Completed> done;
  /// done[i]'s submit call; empty unless the phase kept call times.
  std::vector<CallTimes> calls;
  /// First send to last response observed by the generator.
  double wall_s = 0.0;
  /// Open loop only: the schedule (request i falls due at
  /// due_start_ns + due_interval_ns * (i / burst)), and how late the
  /// generator woke for each burst (its first send minus the due time),
  /// microseconds.
  uint64_t due_start_ns = 0;
  double due_interval_ns = 0.0;
  size_t burst = 1;
  std::vector<double> lateness_us;
  /// Process thread count sampled mid-phase.
  int threads = 0;

  uint64_t DueNs(size_t i) const {
    return due_start_ns +
           static_cast<uint64_t>(due_interval_ns *
                                 static_cast<double>(i / burst));
  }
};

/// Closed loop over `count` requests. `submit(i)` sends request i and
/// returns its future; `after_submit(n)` runs after the n-th send (n
/// counted from 1).
template <class Response, class SubmitFn, class AfterFn>
PhaseLog ClosedLoop(size_t count, size_t window, bool keep_calls,
                    SubmitFn submit, AfterFn after_submit) {
  PhaseLog log;
  log.done.reserve(count);
  if (keep_calls) log.calls.reserve(count);
  std::deque<std::pair<CallTimes, std::future<Response>>> inflight;
  size_t next = 0;
  auto send = [&] {
    CallTimes call;
    call.begin_ns = NowNs();
    std::future<Response> future = submit(next);
    call.end_ns = NowNs();
    inflight.emplace_back(call, std::move(future));
    ++next;
    after_submit(next);
  };
  const uint64_t start = NowNs();
  while (inflight.size() < window && next < count) send();
  while (!inflight.empty()) {
    auto& [call, future] = inflight.front();
    log.done.push_back(Finish(future.get()));
    if (keep_calls) log.calls.push_back(call);
    inflight.pop_front();
    if (log.threads == 0 && log.done.size() == 64) log.threads = ThreadCount();
    if (next < count) send();
  }
  log.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  if (log.threads == 0) log.threads = ThreadCount();
  return log;
}

/// Open loop: `count` requests at a mean `rate` per second, sent in
/// bursts of `burst` that fall due together. `make(i)` builds request i
/// (a burst is built before its due time, so building is never timed);
/// `submit(request)` sends it. Responses already in are collected after
/// each burst, so only the backlog is held in flight.
template <class Response, class MakeFn, class SubmitFn>
PhaseLog OpenLoop(double rate, size_t burst, size_t count, bool keep_calls,
                  MakeFn make, SubmitFn submit) {
  using Request = decltype(make(size_t{0}));
  PhaseLog log;
  log.done.reserve(count);
  if (keep_calls) log.calls.reserve(count);
  std::deque<std::pair<CallTimes, std::future<Response>>> inflight;
  const auto collect = [&](bool wait) {
    while (!inflight.empty()) {
      auto& [call, future] = inflight.front();
      if (!wait && future.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
        return;
      }
      log.done.push_back(Finish(future.get()));
      if (keep_calls) log.calls.push_back(call);
      inflight.pop_front();
    }
  };
  log.due_start_ns = NowNs() + 1'000'000;
  log.due_interval_ns = 1e9 * static_cast<double>(burst) / rate;
  log.burst = burst;
  std::vector<Request> requests;
  for (size_t first = 0; first < count; first += burst) {
    requests.clear();
    for (size_t i = first; i < std::min(count, first + burst); ++i) {
      requests.push_back(make(i));
    }
    const uint64_t due = log.DueNs(first);
    WaitUntil(due);
    for (size_t j = 0; j < requests.size(); ++j) {
      CallTimes call;
      call.begin_ns = NowNs();
      std::future<Response> future = submit(std::move(requests[j]));
      call.end_ns = NowNs();
      if (j == 0) {
        log.lateness_us.push_back(
            static_cast<double>(call.begin_ns - due) / 1e3);
      }
      inflight.emplace_back(call, std::move(future));
    }
    if (log.threads == 0 && first >= count / 2) log.threads = ThreadCount();
    collect(false);
  }
  collect(true);
  log.wall_s = static_cast<double>(NowNs() - log.due_start_ns) / 1e9;
  return log;
}

/// Performs swaps on its own thread, in due order. A swap that falls due
/// while the previous one runs waits for it; that wait is part of its
/// freshness.
class Swapper {
 public:
  struct Record {
    size_t index = 0;
    uint64_t due_ns = 0;
    uint64_t end_ns = 0;
    kgrec::Status status;
  };
  using SwapFn = std::function<kgrec::Status(size_t index)>;
  using AfterFn = std::function<void(size_t index)>;

  /// `after(i)` runs once swap i has returned and been recorded.
  explicit Swapper(SwapFn swap, AfterFn after = {})
      : swap_(std::move(swap)), after_(std::move(after)) {
    const ScopedCpu swapper_cpu(kSwapperCpu);  // the thread inherits it
    thread_ = std::thread([this] { Loop(); });
  }
  ~Swapper() { Finish(); }

  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  /// Swap `index` falls due now.
  void Due(size_t index) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back(index, NowNs());
    }
    cv_.notify_one();
  }

  /// Runs every swap already due, then joins the thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      finishing_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Finish().
  const std::vector<Record>& records() const { return records_; }

 private:
  void Loop() {
    for (;;) {
      std::pair<size_t, uint64_t> due;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return finishing_ || !queue_.empty(); });
        if (queue_.empty()) return;
        due = queue_.front();
        queue_.pop_front();
      }
      Record record;
      record.index = due.first;
      record.due_ns = due.second;
      try {
        record.status = swap_(due.first);
      } catch (const std::exception& e) {
        record.status = kgrec::Status::Internal(e.what());
      }
      record.end_ns = NowNs();
      records_.push_back(std::move(record));
      if (after_) after_(due.first);
    }
  }

  SwapFn swap_;
  AfterFn after_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<size_t, uint64_t>> queue_;
  bool finishing_ = false;
  std::vector<Record> records_;  // swapper thread only until joined
  std::thread thread_;           // last: started after the rest exists
};

}  // namespace perfbench

#endif  // KGREC_PERFBENCH_TRAFFIC_H_
