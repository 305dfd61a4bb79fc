#include "tracing.h"

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/check.h"
#include "core/registry.h"

namespace perfbench {

int64_t SpanRecorder::Add(const char* name, uint64_t start_ns,
                          uint64_t end_ns, int64_t parent,
                          uint64_t request) {
  spans_.push_back({name, start_ns, std::max(start_ns, end_ns), parent,
                    request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::vector<ModelCall> CallLog::Sorted() const {
  std::vector<ModelCall> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = calls_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ModelCall& a, const ModelCall& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

void TracedModel::Fit(const kgrec::RecContext& /*context*/) {
  KGREC_CHECK(false);  // a forwarder serves a fitted model; never trains
}

std::vector<float> TracedModel::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  const uint64_t start = NowNs();
  std::vector<float> scores = inner_->ScoreItems(user, items);
  log_->Add({user, start, NowNs()});
  return scores;
}

TracedFactorModel::TracedFactorModel(
    std::unique_ptr<const kgrec::Recommender> inner,
    std::shared_ptr<CallLog> log)
    : TracedModel(std::move(inner), std::move(log)),
      factors_(kgrec::AsFactorizable(this->inner())) {
  KGREC_CHECK(factors_ != nullptr);
}

void TracedFactorModel::FillUserQuery(int32_t user,
                                      std::span<float> out) const {
  const uint64_t start = NowNs();
  factors_->FillUserQuery(user, out);
  log().Add({user, start, NowNs()});
}

std::unique_ptr<const kgrec::Recommender> WrapTraced(
    std::unique_ptr<const kgrec::Recommender> model,
    std::shared_ptr<CallLog> log) {
  if (kgrec::IsFactorizable(*model)) {
    return std::make_unique<TracedFactorModel>(std::move(model),
                                               std::move(log));
  }
  return std::make_unique<TracedModel>(std::move(model), std::move(log));
}

std::vector<int64_t> MatchCalls(const std::vector<ModelCall>& calls,
                                const std::vector<int32_t>& users,
                                const std::vector<uint64_t>& submitted_ns,
                                const std::vector<uint64_t>& completed_ns) {
  std::vector<int64_t> out(users.size(), -1);
  for (size_t r = 0; r < users.size(); ++r) {
    // First call starting after completion; walk back inside the routed
    // interval. One worker serves calls in order, so the walk is short.
    auto it = std::upper_bound(calls.begin(), calls.end(), completed_ns[r],
                               [](uint64_t t, const ModelCall& c) {
                                 return t < c.start_ns;
                               });
    while (it != calls.begin()) {
      --it;
      if (it->start_ns < submitted_ns[r]) break;
      if (it->user == users[r] && it->end_ns <= completed_ns[r]) {
        out[r] = it - calls.begin();
        break;
      }
    }
  }
  return out;
}

}  // namespace perfbench
