#include "embed/entity2rec.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/model_state.h"
#include "math/kernels.h"

namespace kgrec {

void Entity2RecRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  const KnowledgeGraph& kg = graph_->kg;
  const size_t n = kg.num_entities();
  const size_t d = config_.dim;
  Rng rng(context.seed);

  in_emb_ = Matrix(n, d);
  out_emb_ = Matrix(n, d);
  for (size_t i = 0; i < in_emb_.size(); ++i) {
    in_emb_.data()[i] = static_cast<float>(rng.Uniform(-0.5, 0.5)) / d;
  }

  std::vector<EntityId> walk;
  walk.reserve(config_.walk_length);
  const float lr = config_.learning_rate;
  std::vector<float> grad_center(d);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t start_node = 0; start_node < n; ++start_node) {
      for (size_t w = 0; w < config_.walks_per_node; ++w) {
        // Uniform random walk over out-edges.
        walk.clear();
        EntityId current = static_cast<EntityId>(start_node);
        walk.push_back(current);
        for (size_t step = 1; step < config_.walk_length; ++step) {
          const size_t degree = kg.OutDegree(current);
          if (degree == 0) break;
          current = kg.OutEdges(current)[rng.UniformInt(degree)].target;
          walk.push_back(current);
        }
        // Skip-gram with negative sampling over the window.
        for (size_t center = 0; center < walk.size(); ++center) {
          const size_t lo =
              center >= config_.window ? center - config_.window : 0;
          const size_t hi =
              std::min(walk.size(), center + config_.window + 1);
          float* vc = in_emb_.Row(walk[center]);
          for (size_t ctx = lo; ctx < hi; ++ctx) {
            if (ctx == center) continue;
            std::fill(grad_center.begin(), grad_center.end(), 0.0f);
            // Positive pair + sampled negatives.
            for (int neg = -1; neg < config_.negatives; ++neg) {
              const EntityId target =
                  neg < 0 ? walk[ctx]
                          : static_cast<EntityId>(rng.UniformInt(n));
              const float label = neg < 0 ? 1.0f : 0.0f;
              float* vo = out_emb_.Row(target);
              float dot = 0.0f;
              for (size_t c = 0; c < d; ++c) dot += vc[c] * vo[c];
              const float prob =
                  dot >= 0.0f ? 1.0f / (1.0f + std::exp(-dot))
                              : std::exp(dot) / (1.0f + std::exp(dot));
              const float g = lr * (label - prob);
              for (size_t c = 0; c < d; ++c) {
                grad_center[c] += g * vo[c];
                vo[c] += g * vc[c];
              }
            }
            for (size_t c = 0; c < d; ++c) vc[c] += grad_center[c];
          }
        }
      }
    }
  }
}

float Entity2RecRecommender::Score(int32_t user, int32_t item) const {
  return kernels::CosineSimilarity(in_emb_.Row(graph_->UserEntity(user)),
                                   in_emb_.Row(graph_->ItemEntity(item)),
                                   in_emb_.cols());
}

std::string Entity2RecRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("walks_per_node", static_cast<double>(config_.walks_per_node))
      .Add("walk_length", static_cast<double>(config_.walk_length))
      .Add("window", static_cast<double>(config_.window))
      .Add("negatives", config_.negatives)
      .Add("epochs", config_.epochs)
      .Add("lr", config_.learning_rate)
      .str();
}

Status Entity2RecRecommender::VisitState(StateVisitor* visitor) {
  return visitor->Matrix("in_emb", &in_emb_);
}

Status Entity2RecRecommender::PrepareLoad(const RecContext& context) {
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  return Status::OK();
}

}  // namespace kgrec
