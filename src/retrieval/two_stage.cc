#include "retrieval/two_stage.h"

#include <algorithm>

#include "core/check.h"
#include "math/topk.h"

namespace kgrec::retrieval {

Status TwoStageRetriever::Create(
    std::shared_ptr<const Recommender> candidate_model,
    const TwoStageConfig& config,
    std::unique_ptr<const TwoStageRetriever>* out) {
  if (candidate_model == nullptr) {
    return Status::InvalidArgument("two-stage: null candidate model");
  }
  const auto* factors =
      dynamic_cast<const DotProductFactors*>(candidate_model.get());
  if (factors == nullptr) {
    return Status::FailedPrecondition(
        "two-stage: candidate model '" + candidate_model->name() +
        "' does not export dot-product factors");
  }
  ItemFactors exported = factors->ExportItemFactors();
  if (exported.items.rows() == 0) {
    return Status::FailedPrecondition(
        "two-stage: candidate model '" + candidate_model->name() +
        "' exported an empty item matrix (not fitted?)");
  }
  KGREC_RETURN_IF_ERROR(ValidateScan(config.scan, exported.items.cols()));
  auto index = std::make_unique<const BruteForceIndex>(std::move(exported),
                                                       config.scan);
  out->reset(new TwoStageRetriever(std::move(candidate_model), factors,
                                   std::move(index), config));
  return Status::OK();
}

std::vector<std::pair<int32_t, float>> TwoStageRetriever::Recommend(
    const Recommender& ranker, int32_t user, size_t k,
    std::span<const int32_t> sorted_exclude) const {
  if (k == 0) return {};
  const size_t num_candidates = std::max(
      k * std::max<size_t>(1, config_.candidates_per_k),
      config_.min_candidates);

  // Stage 1: candidate generation through the index.
  std::vector<float> query(factors_->factor_dim());
  factors_->FillUserQuery(user, query);
  std::vector<std::pair<int32_t, float>> candidates =
      index_->Query(query, num_candidates, sorted_exclude);

  // Stage 2: one batched exact re-rank on the serving model.
  std::vector<int32_t> ids;
  ids.reserve(candidates.size());
  for (const auto& [item, score] : candidates) ids.push_back(item);
  const std::vector<float> scores = ranker.ScoreItems(user, ids);
  KGREC_CHECK_EQ(scores.size(), ids.size());

  BoundedTopK top(k);
  for (size_t i = 0; i < ids.size(); ++i) top.Push(ids[i], scores[i]);
  return top.TakeSorted();
}

}  // namespace kgrec::retrieval
