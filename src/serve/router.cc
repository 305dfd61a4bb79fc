#include "serve/router.h"

#include <chrono>
#include <exception>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/check.h"
#include "core/registry.h"

namespace kgrec::serve {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Dispatch-time range check against the handle that serves the
// request. It cannot run at admission: SwapFromUpdate grows the user
// count between generations. Recommend passes no items, since its
// exclusion list tolerates out-of-range ids.
Status CheckRequest(const ServeHandle& handle, int32_t user,
                    std::span<const int32_t> items) {
  if (user < 0 || user >= handle.num_users()) {
    return Status::InvalidArgument(
        "user " + std::to_string(user) + " outside [0, " +
        std::to_string(handle.num_users()) + ")");
  }
  for (const int32_t item : items) {
    if (item < 0 || item >= handle.num_items()) {
      return Status::InvalidArgument(
          "item " + std::to_string(item) + " outside [0, " +
          std::to_string(handle.num_items()) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

Router::Router(const RouterConfig& config,
               std::shared_ptr<const ServeHandle> initial)
    : config_(config),
      current_(std::move(initial)),
      pool_(config.num_threads) {}

Router::~Router() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  // Every admitted request either sits in pending_ with a drain task
  // scheduled, or is already dispatched — Wait() therefore runs all of
  // them to completion and no future is ever abandoned.
  pool_.Wait();
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftovers.swap(pending_);
  }
  for (Pending& p : leftovers) {
    if (p.kind == Pending::Kind::kRecommend) {
      RecommendResponse response;
      response.status = Status::Unavailable("router destroyed");
      response.submitted_ns = p.submitted_ns;
      p.rec_promise.set_value(std::move(response));
    } else {
      ScoreResponse response;
      response.status = Status::Unavailable("router destroyed");
      response.submitted_ns = p.submitted_ns;
      p.promise.set_value(std::move(response));
    }
  }
}

std::future<ScoreResponse> Router::Rejected(std::string why) {
  std::promise<ScoreResponse> promise;
  ScoreResponse response;
  response.status = Status::Unavailable(std::move(why));
  promise.set_value(std::move(response));
  return promise.get_future();
}

std::future<RecommendResponse> Router::RejectedRecommend(std::string why) {
  std::promise<RecommendResponse> promise;
  RecommendResponse response;
  response.status = Status::Unavailable(std::move(why));
  promise.set_value(std::move(response));
  return promise.get_future();
}

std::future<ScoreResponse> Router::Submit(ScoreRequest request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    ++stats_.rejected;
    return Rejected("router is stopping");
  }
  if (pending_.size() >= config_.max_queue) {
    ++stats_.rejected;
    return Rejected("admission queue full");
  }
  Pending pending;
  pending.user = request.user;
  pending.items = std::move(request.items);
  pending.submitted_ns = NowNs();
  std::future<ScoreResponse> future = pending.promise.get_future();
  pending_.push_back(std::move(pending));
  ++stats_.accepted;
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    pool_.Submit([this] { DrainLoop(); });
  }
  return future;
}

ScoreResponse Router::ScoreSync(ScoreRequest request) {
  return Submit(std::move(request)).get();
}

std::future<RecommendResponse> Router::SubmitRecommend(
    RecommendRequest request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    ++stats_.rejected;
    return RejectedRecommend("router is stopping");
  }
  if (pending_.size() >= config_.max_queue) {
    ++stats_.rejected;
    return RejectedRecommend("admission queue full");
  }
  Pending pending;
  pending.kind = Pending::Kind::kRecommend;
  pending.user = request.user;
  pending.items = std::move(request.exclude);
  pending.k = request.k;
  pending.submitted_ns = NowNs();
  std::future<RecommendResponse> future = pending.rec_promise.get_future();
  pending_.push_back(std::move(pending));
  ++stats_.accepted;
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    pool_.Submit([this] { DrainLoop(); });
  }
  return future;
}

RecommendResponse Router::RecommendSync(RecommendRequest request) {
  return SubmitRecommend(std::move(request)).get();
}

void Router::DrainLoop() {
  for (;;) {
    std::deque<Pending> stolen;
    std::shared_ptr<const ServeHandle> handle;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.empty()) {
        // A Submit observing drain_scheduled_ == false (under this same
        // lock) schedules a fresh drain, so no request is stranded.
        drain_scheduled_ = false;
        return;
      }
      stolen.swap(pending_);
      handle = current_;
      // Provisional lease: the stolen batch must hold Swap's drain open
      // while the lock is released for grouping — otherwise a swap in
      // that window could observe zero inflight work and return before
      // the batch is served on the old generation. Converted to
      // one-lease-per-group below.
      ++inflight_[handle.get()];
    }
    if (post_steal_hook_) post_steal_hook_();

    // Group the stolen requests by user, preserving arrival order both
    // across groups (first-arrival) and within each group, so the
    // dispatch is deterministic given the admission order. Recommend
    // requests are never coalesced — each carries its own k and
    // exclusion list — so each becomes a singleton group.
    std::vector<std::vector<Pending>> groups;
    std::unordered_map<int32_t, size_t> group_of_user;
    for (Pending& p : stolen) {
      if (p.kind == Pending::Kind::kRecommend) {
        groups.emplace_back();
        groups.back().push_back(std::move(p));
        continue;
      }
      auto [it, inserted] = group_of_user.try_emplace(p.user, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(std::move(p));
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Convert the provisional lease into one lease per group on the
      // handle that will serve it; Swap's drain waits for these to
      // return to zero. `groups` is non-empty (stolen was non-empty),
      // but handle the general case: a zero-group batch releases the
      // provisional lease and wakes the drain.
      auto it = inflight_.find(handle.get());
      KGREC_CHECK(it != inflight_.end());
      it->second += groups.size();
      if (--it->second == 0) {
        inflight_.erase(it);
        drained_cv_.notify_all();
      }
      stats_.batches += groups.size();
      for (const std::vector<Pending>& group : groups) {
        stats_.coalesced += group.size() - 1;
      }
    }
    for (std::vector<Pending>& group : groups) {
      // shared_ptr wrapper because std::function requires a copyable
      // callable and Pending holds a move-only promise.
      auto boxed = std::make_shared<std::vector<Pending>>(std::move(group));
      pool_.Submit([this, handle, boxed] {
        if (boxed->front().kind == Pending::Kind::kRecommend) {
          ServeRecommend(handle, std::move(boxed->front()));
        } else {
          ServeGroup(handle, std::move(*boxed));
        }
      });
    }
  }
}

void Router::ServeGroup(const std::shared_ptr<const ServeHandle>& handle,
                        std::vector<Pending> group) {
  // Out-of-range requests are answered alone; the rest of the group is
  // merged and served as if they had never arrived.
  std::vector<int32_t> merged;
  size_t total = 0;
  for (Pending& p : group) {
    p.check = CheckRequest(*handle, p.user, p.items);
    if (p.check.ok()) total += p.items.size();
  }
  merged.reserve(total);
  for (const Pending& p : group) {
    if (p.check.ok()) {
      merged.insert(merged.end(), p.items.begin(), p.items.end());
    }
  }

  // One batched ScoreItems call per user group: the contract
  // ScoreItems(u, I)[i] == Score(u, I[i]) (bitwise) makes splitting the
  // concatenated result exactly equal to per-request calls.
  Status status = Status::OK();
  std::vector<float> scores;
  try {
    if (!merged.empty()) {
      scores = handle->ScoreItems(group.front().user, merged);
    }
  } catch (const std::exception& e) {
    status = Status::Internal(std::string("serve failure: ") + e.what());
  } catch (...) {
    status = Status::Internal("serve failure");
  }
  // A model violating the ScoreItems contract (one score per item) must
  // surface as a clean Internal status, not an out-of-bounds slice below.
  if (status.ok() && scores.size() != merged.size()) {
    status = Status::Internal("serve failure: model returned " +
                              std::to_string(scores.size()) + " scores for " +
                              std::to_string(merged.size()) + " items");
  }
  const uint64_t completed_ns = NowNs();

  // Account the deliveries first: a client that has already collected
  // its response must see it reflected in Stats().
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.responses += group.size();
  }

  // Deliver responses *before* releasing the lease: when Swap's drain
  // returns, every response served by the old generation has been set.
  size_t offset = 0;
  for (Pending& p : group) {
    ScoreResponse response;
    response.generation = handle->generation();
    response.submitted_ns = p.submitted_ns;
    response.completed_ns = completed_ns;
    if (!p.check.ok()) {
      response.status = std::move(p.check);
      p.promise.set_value(std::move(response));
      continue;
    }
    response.status = status;
    if (status.ok()) {
      response.scores.assign(scores.begin() + offset,
                             scores.begin() + offset + p.items.size());
    }
    offset += p.items.size();
    p.promise.set_value(std::move(response));
  }

  ReleaseLease(handle.get());
}

void Router::ServeRecommend(const std::shared_ptr<const ServeHandle>& handle,
                            Pending pending) {
  Status status = CheckRequest(*handle, pending.user, {});
  std::vector<std::pair<int32_t, float>> items;
  try {
    if (status.ok()) {
      items = handle->Recommend(pending.user, pending.k, pending.items);
    }
  } catch (const std::exception& e) {
    status = Status::Internal(std::string("serve failure: ") + e.what());
  } catch (...) {
    status = Status::Internal("serve failure");
  }
  const uint64_t completed_ns = NowNs();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.responses;
  }

  // Deliver before releasing the lease (same invariant as ServeGroup):
  // when Swap's drain returns, this response has been set.
  RecommendResponse response;
  response.status = status;
  response.generation = handle->generation();
  response.submitted_ns = pending.submitted_ns;
  response.completed_ns = completed_ns;
  if (status.ok()) response.items = std::move(items);
  pending.rec_promise.set_value(std::move(response));

  ReleaseLease(handle.get());
}

void Router::ReleaseLease(const ServeHandle* handle) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(handle);
    KGREC_CHECK(it != inflight_.end());  // leasing invariant
    if (--it->second == 0) inflight_.erase(it);
  }
  drained_cv_.notify_all();
}

Status Router::Swap(std::shared_ptr<const ServeHandle> fresh) {
  std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  return SwapLocked(std::move(fresh));
}

Status Router::SwapLocked(std::shared_ptr<const ServeHandle> fresh) {
  if (fresh == nullptr) {
    return Status::InvalidArgument("Swap: null handle");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) return Status::Unavailable("router is stopping");
  std::shared_ptr<const ServeHandle> old =
      std::exchange(current_, std::move(fresh));
  ++stats_.swaps;
  if (old.get() == current_.get()) return Status::OK();  // self-swap
  // Drain: batches dispatched on the old handle before the flip must
  // deliver before we let go of it. Requests still *queued* at flip time
  // are served by the new generation.
  const ServeHandle* raw = old.get();
  drained_cv_.wait(lock, [&] { return !inflight_.contains(raw); });
  return Status::OK();
}

Status Router::SwapFromCheckpoint(const RecContext& context,
                                  const std::string& path) {
  std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  uint64_t next_generation;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    next_generation = current_->generation() + 1;
  }
  // The load runs without the router lock: traffic keeps flowing on the
  // old handle for however long the checkpoint takes to restore.
  std::unique_ptr<Recommender> model;
  KGREC_RETURN_IF_ERROR(LoadModel(context, path, &model));
  return SwapLocked(
      ServeHandle::Adopt(std::move(model), context, next_generation));
}

Status Router::SwapFromUpdate(const RecContext& restore_context,
                              const RecContext& update_context,
                              const EventBatch& batch) {
  std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  std::shared_ptr<const ServeHandle> live;
  uint64_t next_generation;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live = current_;
    next_generation = current_->generation() + 1;
  }
  // Clone the live model in memory, off the router lock — traffic keeps
  // flowing on the old handle for however long the clone + fold takes.
  std::unique_ptr<Recommender> clone;
  KGREC_RETURN_IF_ERROR(CloneModel(live->model(), restore_context, &clone));
  KGREC_RETURN_IF_ERROR(clone->Update(update_context, batch));
  return SwapLocked(ServeHandle::Adopt(std::move(clone), update_context,
                                       next_generation));
}

std::shared_ptr<const ServeHandle> Router::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

RouterStats Router::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Router::SetPostStealHookForTest(std::function<void()> hook) {
  post_steal_hook_ = std::move(hook);
}

size_t Router::InflightForTest(const ServeHandle* handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = inflight_.find(handle);
  return it == inflight_.end() ? 0 : it->second;
}

}  // namespace kgrec::serve
