// Tracing for the serving benchmark's traced mode: an in-memory span
// recorder written out when the run ends, and forwarding models that
// time the calls the Router's worker thread makes into the model layer.
// Nothing here changes a result: the wrappers forward every const call
// unchanged to the model they own.
#ifndef KGREC_PERFBENCH_TRACING_H_
#define KGREC_PERFBENCH_TRACING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "retrieval/factors.h"

namespace perfbench {

/// One timed interval. `parent` is the index of the enclosing span (-1
/// for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Keeps spans in memory; written out once, after the measured phases.
class SpanRecorder {
 public:
  /// Appends a span and returns its index (the id children refer to).
  int64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint64_t request);

  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  bool WriteJsonl(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// One call into the model made on a Router worker thread.
struct ModelCall {
  int32_t user = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Thread-safe append-only log of model calls.
class CallLog {
 public:
  void Add(const ModelCall& call) {
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back(call);
  }
  /// The calls sorted by start time.
  std::vector<ModelCall> Sorted() const;

 private:
  mutable std::mutex mutex_;
  std::vector<ModelCall> calls_;
};

/// Forwarding Recommender: owns the served model and records every
/// ScoreItems call. Not trainable and not checkpointable (Save fails
/// with FailedPrecondition through the default VisitState), so it is
/// only ever the first generation a Router serves.
class TracedModel : public kgrec::Recommender {
 public:
  TracedModel(std::unique_ptr<const kgrec::Recommender> inner,
              std::shared_ptr<CallLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  std::string name() const override { return inner_->name(); }
  void Fit(const kgrec::RecContext& context) override;
  float Score(int32_t user, int32_t item) const override {
    return inner_->Score(user, item);
  }
  std::vector<float> ScoreItems(
      int32_t user, std::span<const int32_t> items) const override;
  std::vector<float> ScoreAll(int32_t user,
                              int32_t num_items) const override {
    return inner_->ScoreAll(user, num_items);
  }
  std::string HyperFingerprint() const override {
    return inner_->HyperFingerprint();
  }

 protected:
  const kgrec::Recommender& inner() const { return *inner_; }
  CallLog& log() const { return *log_; }

 private:
  std::unique_ptr<const kgrec::Recommender> inner_;
  std::shared_ptr<CallLog> log_;
};

/// TracedModel for a factorizable model: also forwards the factor export
/// and records every FillUserQuery (the only per-request model call on
/// the index path of ServeHandle::Recommend).
class TracedFactorModel : public TracedModel, public kgrec::DotProductFactors {
 public:
  TracedFactorModel(std::unique_ptr<const kgrec::Recommender> inner,
                    std::shared_ptr<CallLog> log);

  size_t factor_dim() const override { return factors_->factor_dim(); }
  kgrec::retrieval::ScoreKernel factor_kernel() const override {
    return factors_->factor_kernel();
  }
  kgrec::retrieval::ItemFactors ExportItemFactors() const override {
    return factors_->ExportItemFactors();
  }
  void FillUserQuery(int32_t user, std::span<float> out) const override;

 private:
  const kgrec::DotProductFactors* factors_ = nullptr;
};

/// Wraps `model` in the matching traced forwarder.
std::unique_ptr<const kgrec::Recommender> WrapTraced(
    std::unique_ptr<const kgrec::Recommender> model,
    std::shared_ptr<CallLog> log);

/// For each routed request (user, submitted_ns, completed_ns), the index
/// into `calls` (sorted by start) of the model call that served it: the
/// latest call on the same user that started inside the request's routed
/// interval. -1 when none matches (e.g. a later, untraced generation).
std::vector<int64_t> MatchCalls(const std::vector<ModelCall>& calls,
                                const std::vector<int32_t>& users,
                                const std::vector<uint64_t>& submitted_ns,
                                const std::vector<uint64_t>& completed_ns);

}  // namespace perfbench

#endif  // KGREC_PERFBENCH_TRACING_H_
