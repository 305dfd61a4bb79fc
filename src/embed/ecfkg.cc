#include "embed/ecfkg.h"

#include <limits>

#include "core/check.h"

namespace kgrec {

void EcfkgRecommender::Fit(const RecContext& context) {
  CfkgRecommender::Fit(context);
  KGREC_CHECK(context.train != nullptr);
  finder_ = std::make_unique<TemplatePathFinder>(*graph_, *context.train,
                                                 /*max_paths_per_template=*/4);
}

Status EcfkgRecommender::PrepareLoad(const RecContext& context) {
  KGREC_RETURN_IF_ERROR(CfkgRecommender::PrepareLoad(context));
  KGREC_CHECK(context.train != nullptr);
  finder_ = std::make_unique<TemplatePathFinder>(*graph_, *context.train,
                                                 /*max_paths_per_template=*/4);
  return Status::OK();
}

std::string EcfkgRecommender::Explain(int32_t user, int32_t item) const {
  const std::vector<PathInstance> paths = finder_->FindPaths(user, item);
  if (paths.empty()) return "";
  // Rank paths by the mean KGE plausibility of their edges: the path the
  // learned embeddings themselves consider most credible.
  float best_score = -std::numeric_limits<float>::infinity();
  const PathInstance* best = nullptr;
  for (const PathInstance& path : paths) {
    float total = 0.0f;
    for (size_t i = 0; i < path.relations.size(); ++i) {
      std::vector<int32_t> h{path.entities[i]};
      std::vector<int32_t> r{path.relations[i]};
      std::vector<int32_t> t{path.entities[i + 1]};
      total += model_->ScoreBatch(h, r, t).value();
    }
    const float mean = total / path.relations.size();
    if (mean > best_score) {
      best_score = mean;
      best = &path;
    }
  }
  return FormatPath(graph_->kg, *best);
}

}  // namespace kgrec
