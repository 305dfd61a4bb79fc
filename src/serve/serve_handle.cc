#include "serve/serve_handle.h"

#include "core/check.h"
#include "core/registry.h"
#include "math/topk.h"
#include "retrieval/factors.h"

namespace kgrec::serve {

ServeHandle::ServeHandle(std::unique_ptr<const Recommender> model,
                         const RecContext& context, uint64_t generation)
    : model_(std::move(model)),
      model_name_(model_->name()),
      num_users_(context.train != nullptr ? context.train->num_users() : 0),
      num_items_(context.train != nullptr ? context.train->num_items() : 0),
      generation_(generation) {}

Status ServeHandle::BuildRetrieval(const RetrievalSpec& spec) {
  factors_ = AsFactorizable(*model_);
  const bool sq8 = spec.scan.precision == retrieval::ScanPrecision::kSq8;
  switch (spec.mode) {
    case RetrievalSpec::Mode::kExhaustive:
      retrieval_mode_ = "exhaustive";
      return Status::OK();
    case RetrievalSpec::Mode::kAuto:
      if (factors_ == nullptr) {
        retrieval_mode_ = "exhaustive";
        return Status::OK();
      }
      [[fallthrough]];
    case RetrievalSpec::Mode::kExact: {
      if (factors_ == nullptr) {
        return Status::FailedPrecondition(
            "RetrievalSpec::kExact: model '" + model_name_ +
            "' does not export DotProductFactors");
      }
      KGREC_RETURN_IF_ERROR(
          retrieval::ValidateScan(spec.scan, factors_->factor_dim()));
      // The handle owns the model and drops the index first, so the index
      // may scan the model's own item table instead of a copy of it.
      const retrieval::ItemFactorView table = factors_->BorrowItemFactors();
      if (table.data != nullptr) {
        index_ = std::make_unique<retrieval::BruteForceIndex>(table, spec.scan);
      } else {
        index_ = std::make_unique<retrieval::BruteForceIndex>(
            factors_->ExportItemFactors(), spec.scan);
      }
      retrieval_mode_ = sq8 ? "exact-index+sq8" : "exact-index";
      return Status::OK();
    }
    case RetrievalSpec::Mode::kIvf: {
      if (factors_ == nullptr) {
        return Status::FailedPrecondition(
            "RetrievalSpec::kIvf: model '" + model_name_ +
            "' does not export DotProductFactors");
      }
      KGREC_RETURN_IF_ERROR(
          retrieval::ValidateScan(spec.scan, factors_->factor_dim()));
      index_ = std::make_unique<retrieval::IvfIndex>(
          factors_->ExportItemFactors(), spec.ivf, spec.scan);
      retrieval_mode_ = sq8 ? "ivf-index+sq8" : "ivf-index";
      return Status::OK();
    }
    case RetrievalSpec::Mode::kTwoStage: {
      if (spec.candidate_model == nullptr) {
        return Status::InvalidArgument(
            "RetrievalSpec::kTwoStage: no candidate model");
      }
      std::unique_ptr<const retrieval::TwoStageRetriever> two_stage;
      KGREC_RETURN_IF_ERROR(retrieval::TwoStageRetriever::Create(
          spec.candidate_model, spec.two_stage, &two_stage));
      two_stage_ = std::move(two_stage);
      retrieval_mode_ =
          spec.two_stage.scan.precision == retrieval::ScanPrecision::kSq8
              ? "two-stage+sq8"
              : "two-stage";
      return Status::OK();
    }
  }
  return Status::InvalidArgument("RetrievalSpec: unknown mode");
}

std::shared_ptr<const ServeHandle> ServeHandle::Adopt(
    std::unique_ptr<const Recommender> model, const RecContext& context,
    uint64_t generation) {
  std::shared_ptr<const ServeHandle> handle;
  // kAuto only indexes models that export factors, so it fails only on a
  // model fit on another catalog than the context's.
  const Status status = Adopt(std::move(model), context, generation,
                              RetrievalSpec{}, &handle);
  KGREC_CHECK(status.ok());
  return handle;
}

Status ServeHandle::Adopt(std::unique_ptr<const Recommender> model,
                          const RecContext& context, uint64_t generation,
                          const RetrievalSpec& spec,
                          std::shared_ptr<const ServeHandle>* out) {
  KGREC_CHECK(model != nullptr);
  // std::shared_ptr cannot reach the private constructor through
  // make_shared; the extra allocation is once per handle.
  std::shared_ptr<ServeHandle> handle(
      new ServeHandle(std::move(model), context, generation));
  KGREC_RETURN_IF_ERROR(handle->BuildRetrieval(spec));
  // Every served id comes from the index, so an index over another
  // catalog would hand the model ids past its tables.
  const retrieval::ItemIndex* index = handle->index();
  if (index != nullptr &&
      index->num_items() != static_cast<size_t>(handle->num_items_)) {
    return Status::FailedPrecondition(
        "RetrievalSpec: the index holds " + std::to_string(index->num_items()) +
        " items, the served catalog " + std::to_string(handle->num_items_));
  }
  // Stage 1 reads each served user's query from the candidate model, so
  // its user table must cover the served range.
  const retrieval::TwoStageRetriever* two_stage = handle->two_stage_.get();
  if (two_stage != nullptr &&
      two_stage->num_users() < static_cast<size_t>(handle->num_users_)) {
    return Status::FailedPrecondition(
        "RetrievalSpec::kTwoStage: the candidate model covers " +
        std::to_string(two_stage->num_users()) + " users, the served range " +
        std::to_string(handle->num_users_));
  }
  *out = std::move(handle);
  return Status::OK();
}

float ServeHandle::Score(int32_t user, int32_t item) const {
  return model_->Score(user, item);
}

std::vector<float> ServeHandle::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  return model_->ScoreItems(user, items);
}

std::vector<std::pair<int32_t, float>> ServeHandle::Recommend(
    int32_t user, size_t k, std::span<const int32_t> exclude) const {
  const std::vector<int32_t> sorted_exclude =
      retrieval::SanitizeExclude(exclude, num_items_);

  if (two_stage_ != nullptr) {
    return two_stage_->Recommend(*model_, user, k, sorted_exclude);
  }
  if (index_ != nullptr) {
    // One scratch per serving thread: block buffers, heaps, quantized
    // query and the FillUserQuery staging vector all reach steady-state
    // capacity after the first requests, so per-request index traffic
    // stops allocating (the block-scratch hoist; see retrieval/index.h
    // SearchScratch).
    static thread_local retrieval::SearchScratch scratch;
    scratch.user_query.resize(factors_->factor_dim());
    factors_->FillUserQuery(user, scratch.user_query);
    std::vector<std::pair<int32_t, float>> out;
    index_->QueryInto(scratch.user_query, k, sorted_exclude, scratch, &out);
    return out;
  }

  // Exhaustive fallback for non-factorizable models: one ScoreAll, then
  // a streaming bounded top-K that *skips* excluded ids. The old -inf
  // sentinel overwrite is gone — it conflated "excluded" with "scored
  // -inf", returning excluded items whenever a model legitimately
  // produced -inf and dropping legitimate -inf items near a short
  // catalog's tail.
  const std::vector<float> scores = model_->ScoreAll(user, num_items_);
  BoundedTopK top(k);
  size_t e = 0;
  for (int32_t item = 0; item < num_items_; ++item) {
    while (e < sorted_exclude.size() && sorted_exclude[e] < item) ++e;
    if (e < sorted_exclude.size() && sorted_exclude[e] == item) continue;
    top.Push(item, scores[item]);
  }
  return top.TakeSorted();
}

}  // namespace kgrec::serve
