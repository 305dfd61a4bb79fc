#ifndef KGREC_SERVE_ROUTER_H_
#define KGREC_SERVE_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "serve/serve_handle.h"

namespace kgrec::serve {

/// Router knobs. The defaults serve a test-sized deployment; production
/// callers size the admission queue to their latency budget (a full queue
/// rejects with Unavailable instead of growing an unbounded backlog).
struct RouterConfig {
  /// Worker threads of the router's ThreadPool (the existing core pool;
  /// clamped to at least 1).
  size_t num_threads = ThreadPool::HardwareThreads();
  /// Admission bound: requests beyond this many *queued* (not yet
  /// dispatched) are rejected immediately with StatusCode::kUnavailable.
  size_t max_queue = 1024;
};

/// One scoring request: rank these candidate items for this user.
struct ScoreRequest {
  int32_t user = 0;
  std::vector<int32_t> items;
};

/// One top-k request: the user's catalog top-k minus `exclude`
/// (ServeHandle::Recommend semantics — any order, duplicates and
/// out-of-range ids tolerated).
struct RecommendRequest {
  int32_t user = 0;
  size_t k = 0;
  std::vector<int32_t> exclude;
};

/// The response to one ScoreRequest. `scores[i]` corresponds to
/// `items[i]` and is **bitwise** what `ScoreItems(user, items)[i]` on the
/// serving model returns — batching and per-user coalescing never change
/// a float (the ScoreItems contract makes concatenation exact).
struct ScoreResponse {
  Status status;
  std::vector<float> scores;
  /// Generation tag of the ServeHandle that produced the scores; all
  /// scores of one response come from exactly one handle.
  uint64_t generation = 0;
  /// steady-clock nanoseconds at admission and at fulfilment, for
  /// latency accounting in benches (0 when rejected at admission).
  uint64_t submitted_ns = 0;
  uint64_t completed_ns = 0;
};

/// The response to one RecommendRequest: (item, score) pairs best-first
/// under the library ranking order, exactly what
/// `handle->Recommend(user, k, exclude)` returns on the serving handle —
/// admission-queue batching never changes a result. That includes
/// handles built with RetrievalSpec::scan = ScanPrecision::kSq8: the
/// quantized scan's float re-rank keeps the served ranking bitwise the
/// float32 one, and the per-thread SearchScratch behind
/// ServeHandle::Recommend makes steady-state recommend traffic
/// allocation-free on the worker threads.
struct RecommendResponse {
  Status status;
  std::vector<std::pair<int32_t, float>> items;
  /// Generation tag of the ServeHandle that produced the ranking.
  uint64_t generation = 0;
  /// steady-clock nanoseconds at admission and at fulfilment, for
  /// latency accounting in benches (0 when rejected at admission).
  uint64_t submitted_ns = 0;
  uint64_t completed_ns = 0;
};

/// Counters exposed for tests and benches; a snapshot, not a sync point.
struct RouterStats {
  uint64_t accepted = 0;   ///< requests admitted to the queue
  uint64_t rejected = 0;   ///< requests refused (queue full / stopping)
  uint64_t responses = 0;  ///< promises fulfilled by worker tasks
  uint64_t batches = 0;    ///< dispatched groups (per-user score batches
                           ///< plus singleton recommend dispatches)
  uint64_t coalesced = 0;  ///< requests merged into another request's batch
  uint64_t swaps = 0;      ///< successful hot swaps
};

/// A long-lived serving front-end over an atomically swappable
/// ServeHandle.
///
/// Requests enter a bounded admission queue; a drain task on the router's
/// ThreadPool periodically steals the whole queue, groups the stolen
/// requests *by user* (concatenating their candidate lists, so one
/// ScoreItems call amortizes the per-user state hoisting that PR 2 built
/// into every model), and dispatches one pool task per user group. Each
/// group captures one `shared_ptr<const ServeHandle>` at steal time, so
/// every response is served by — and stamped with — exactly one model
/// generation even while a swap is in flight.
///
/// Hot swap protocol (Swap / SwapFromCheckpoint):
///   1. build the new handle (for SwapFromCheckpoint, load the checkpoint
///      on the calling thread — traffic keeps flowing on the old handle);
///   2. atomically flip the current-handle pointer under the router lock;
///   3. drain: block until every already-dispatched batch on the *old*
///      handle has delivered its responses, then release the old handle.
/// When Swap returns, no request is executing against the old model and
/// every response it served has been delivered; requests still queued at
/// flip time are served by the new generation. A failed checkpoint load
/// leaves the old handle serving untouched.
///
/// Thread-safety: Submit and current() may be called from any thread;
/// swaps are serialized among themselves and must not be called from a
/// router pool task (the drain wait would starve the pool).
class Router {
 public:
  Router(const RouterConfig& config,
         std::shared_ptr<const ServeHandle> initial);

  /// Rejects queued work, waits for dispatched work to deliver, then
  /// joins the pool. Safe while clients still hold futures.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Admits a request (or rejects it with an immediately-ready
  /// Unavailable response when the queue is full or the router is
  /// stopping). Every returned future is eventually fulfilled exactly
  /// once — responses are never lost or duplicated. A request whose user
  /// or any item lies outside the tables of the handle that serves it
  /// (ServeHandle::num_users / num_items) is answered InvalidArgument;
  /// the other requests of its user group are served unchanged.
  std::future<ScoreResponse> Submit(ScoreRequest request);

  /// Convenience: Submit + wait.
  ScoreResponse ScoreSync(ScoreRequest request);

  /// Admits a top-k request through the same bounded queue, drain leases
  /// and generation stamping as Submit(). Recommend requests ride the
  /// drain but are never coalesced — each carries its own k and
  /// exclusion list, so each dispatches as its own pool task. A user
  /// outside the serving handle's user table is answered InvalidArgument.
  std::future<RecommendResponse> SubmitRecommend(RecommendRequest request);

  /// Convenience: SubmitRecommend + wait.
  RecommendResponse RecommendSync(RecommendRequest request);

  /// Installs `fresh` as the serving handle and drains the old one (see
  /// the class comment for the protocol). The caller gives distinct
  /// handles distinct generation tags; SwapFromCheckpoint does this
  /// automatically.
  Status Swap(std::shared_ptr<const ServeHandle> fresh);

  /// Loads the checkpoint at `path` with LoadModel, Adopt()s it under the
  /// kAuto spec (current generation + 1), then Swap()s it in. On load
  /// failure the old handle keeps serving and the load Status is
  /// returned.
  Status SwapFromCheckpoint(const RecContext& context,
                            const std::string& path);

  /// Applies an online Update (DESIGN §13) to a *copy* of the live
  /// model, then Swap()s the updated copy in (current generation + 1).
  /// The copy is made in memory by CloneModel (core/registry.h) — the
  /// model's packed checkpoint state restored against `restore_context`,
  /// the PRE-batch world the live model was fitted under, so the stored
  /// shapes match — then Update(update_context, batch) against the
  /// POST-batch world. No file is written, so routers in one process
  /// never share state. Everything runs off the router lock: traffic
  /// keeps flowing on the old handle throughout, and any failure (a
  /// model the registry cannot clone, kUnimplemented from a
  /// non-updatable model) leaves it serving untouched and returns the
  /// Status.
  Status SwapFromUpdate(const RecContext& restore_context,
                        const RecContext& update_context,
                        const EventBatch& batch);

  /// The handle serving newly admitted requests right now.
  std::shared_ptr<const ServeHandle> current() const;

  RouterStats Stats() const;

  /// Test-only: `hook` runs on the drain task, outside the router lock,
  /// right after a batch is stolen — i.e. inside the unlocked grouping
  /// window that the provisional drain lease protects. Set it before any
  /// traffic is submitted; it is not synchronized against running drains.
  void SetPostStealHookForTest(std::function<void()> hook);

  /// Test-only: current drain-lease count for `handle` (0 when absent).
  size_t InflightForTest(const ServeHandle* handle) const;

 private:
  struct Pending {
    enum class Kind { kScore, kRecommend };
    Kind kind = Kind::kScore;
    int32_t user = 0;
    /// kScore: candidate items. kRecommend: exclusion list.
    std::vector<int32_t> items;
    /// kRecommend only.
    size_t k = 0;
    std::promise<ScoreResponse> promise;          // kScore
    std::promise<RecommendResponse> rec_promise;  // kRecommend
    uint64_t submitted_ns = 0;
    /// kScore: the dispatch-time range check against the serving handle.
    Status check;
  };

  /// Swap body, assuming swap_mutex_ is already held by the caller.
  Status SwapLocked(std::shared_ptr<const ServeHandle> fresh);

  /// Pool task: repeatedly steal the queue and dispatch user groups
  /// until the queue is empty.
  void DrainLoop();

  /// Serves one user group on `handle` and fulfils its promises.
  void ServeGroup(const std::shared_ptr<const ServeHandle>& handle,
                  std::vector<Pending> group);

  /// Serves one recommend request on `handle` and fulfils its promise.
  void ServeRecommend(const std::shared_ptr<const ServeHandle>& handle,
                      Pending pending);

  /// Releases one drain lease on `handle` and wakes Swap's drain wait.
  void ReleaseLease(const ServeHandle* handle);

  static std::future<ScoreResponse> Rejected(std::string why);
  static std::future<RecommendResponse> RejectedRecommend(std::string why);

  const RouterConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::deque<Pending> pending_;
  std::shared_ptr<const ServeHandle> current_;
  /// Dispatched-but-undelivered batch count per handle; Swap's drain
  /// waits for the old handle's count to reach zero. Keyed by raw
  /// pointer — entries are erased when the count drops to zero, so the
  /// map stays as small as the number of generations in flight.
  std::unordered_map<const ServeHandle*, size_t> inflight_;
  bool drain_scheduled_ = false;
  bool stopping_ = false;
  RouterStats stats_;
  std::function<void()> post_steal_hook_;

  /// Serializes swaps against each other (never held by pool tasks).
  std::mutex swap_mutex_;

  /// Last member: destroyed (and therefore joined) first.
  ThreadPool pool_;
};

}  // namespace kgrec::serve

#endif  // KGREC_SERVE_ROUTER_H_
