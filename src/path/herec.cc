#include "path/herec.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "math/kernels.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {
namespace {

/// Skip-gram with negative sampling over item co-occurrences produced by
/// meta-path constrained random walks item -r-> a -r^-1-> item -r-> ...
Matrix MetaPathSgns(const KnowledgeGraph& kg, int32_t num_items,
                    RelationId forward, RelationId inverse,
                    const HERecConfig& config, Rng& rng) {
  const size_t d = config.dim;
  Matrix in_emb(num_items, d);
  Matrix out_emb(num_items, d);
  for (size_t i = 0; i < in_emb.size(); ++i) {
    in_emb.data()[i] = static_cast<float>(rng.Uniform(-0.5, 0.5)) / d;
  }
  auto step = [&](EntityId from, RelationId wanted) -> EntityId {
    const size_t degree = kg.OutDegree(from);
    const Edge* edges = kg.OutEdges(from);
    std::vector<EntityId> matching;
    for (size_t i = 0; i < degree; ++i) {
      if (edges[i].relation == wanted) matching.push_back(edges[i].target);
    }
    if (matching.empty()) return -1;
    return matching[rng.UniformInt(matching.size())];
  };
  std::vector<int32_t> walk;
  std::vector<float> grad_center(d);
  const float lr = config.learning_rate;
  for (int epoch = 0; epoch < config.sgns_epochs; ++epoch) {
    for (int32_t start = 0; start < num_items; ++start) {
      for (size_t w = 0; w < config.walks_per_item; ++w) {
        // Item-level walk: record only the item positions.
        walk.clear();
        EntityId current = start;
        walk.push_back(current);
        for (size_t hop = 1; hop < config.walk_length; ++hop) {
          const EntityId attr = step(current, forward);
          if (attr < 0) break;
          const EntityId next = step(attr, inverse);
          if (next < 0) break;
          current = next;
          walk.push_back(current);
        }
        for (size_t center = 0; center < walk.size(); ++center) {
          const size_t lo =
              center >= config.window ? center - config.window : 0;
          const size_t hi = std::min(walk.size(), center + config.window + 1);
          float* vc = in_emb.Row(walk[center]);
          for (size_t ctx = lo; ctx < hi; ++ctx) {
            if (ctx == center) continue;
            std::fill(grad_center.begin(), grad_center.end(), 0.0f);
            for (int neg = -1; neg < config.negatives; ++neg) {
              const int32_t target =
                  neg < 0 ? walk[ctx]
                          : static_cast<int32_t>(rng.UniformInt(num_items));
              const float label = neg < 0 ? 1.0f : 0.0f;
              float* vo = out_emb.Row(target);
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
  return in_emb;
}

}  // namespace

void HERecRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = *context.item_kg;
  train_ = &train;
  const int32_t m = train.num_users();
  const int32_t n = train.num_items();
  const size_t d = config_.dim;
  Rng rng(context.seed);

  // --- Per-meta-path SGNS item embeddings ------------------------------
  path_item_emb_.clear();
  for (size_t r = 0; r < kg.num_relations(); ++r) {
    const std::string& name = kg.relation_name(static_cast<RelationId>(r));
    if (name.size() > 3 && name.substr(name.size() - 3) == "^-1") continue;
    RelationId inverse = -1;
    if (!kg.FindRelation(name + "^-1", &inverse).ok()) continue;
    path_item_emb_.push_back(MetaPathSgns(
        kg, n, static_cast<RelationId>(r), inverse, config_, rng));
  }
  KGREC_CHECK(!path_item_emb_.empty());
  const size_t num_paths = path_item_emb_.size();

  // --- Per-path user profiles (mean history embedding) -----------------
  path_user_profile_.assign(num_paths, Matrix(m, d));
  for (size_t l = 0; l < num_paths; ++l) {
    for (int32_t u = 0; u < m; ++u) {
      const auto& history = train.UserItems(u);
      if (history.empty()) continue;
      float* profile = path_user_profile_[l].Row(u);
      for (int32_t j : history) {
        kernels::Axpy(1.0f / history.size(), path_item_emb_[l].Row(j), profile,
                      d);
      }
    }
  }

  // --- Extended MF: u.v + sum_l theta_l (profile_u^l . e_i^l) ----------
  user_emb_ = nn::NormalInit(m, d, 0.1f, rng);
  item_emb_ = nn::NormalInit(n, d, 0.1f, rng);
  path_weights_.assign(num_paths, 0.5f);
  nn::Adagrad optimizer({user_emb_, item_emb_}, config_.learning_rate,
                        config_.l2);
  NegativeSampler sampler(train);
  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<int32_t> users, pos_items, neg_items;
      for (size_t i = start; i < end; ++i) {
        const Interaction& x = train.interactions()[order[i]];
        users.push_back(x.user);
        pos_items.push_back(x.item);
        neg_items.push_back(sampler.Sample(x.user, rng));
      }
      // MF part with autodiff.
      nn::Tensor u = nn::Gather(user_emb_, users);
      nn::Tensor pos = nn::Gather(item_emb_, pos_items);
      nn::Tensor neg = nn::Gather(item_emb_, neg_items);
      nn::Tensor loss =
          nn::BprLoss(nn::RowwiseDot(u, pos), nn::RowwiseDot(u, neg));
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
      // Fusion weights with a manual BPR step on the frozen features.
      for (size_t i = 0; i < users.size(); ++i) {
        const std::vector<float> fpos = PairFeatures(users[i], pos_items[i]);
        const std::vector<float> fneg = PairFeatures(users[i], neg_items[i]);
        float margin = 0.0f;
        for (size_t l = 0; l < num_paths; ++l) {
          margin += path_weights_[l] * (fpos[l] - fneg[l]);
        }
        const float sig = 1.0f / (1.0f + std::exp(margin));
        for (size_t l = 0; l < num_paths; ++l) {
          path_weights_[l] +=
              config_.learning_rate * sig * (fpos[l] - fneg[l]);
        }
      }
    }
  }
}

std::vector<float> HERecRecommender::PairFeatures(int32_t user,
                                                  int32_t item) const {
  std::vector<float> out(path_item_emb_.size());
  for (size_t l = 0; l < path_item_emb_.size(); ++l) {
    out[l] = kernels::Dot(path_user_profile_[l].Row(user),
                          path_item_emb_[l].Row(item), config_.dim);
  }
  return out;
}

std::string HERecRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("walks_per_item", static_cast<double>(config_.walks_per_item))
      .Add("walk_length", static_cast<double>(config_.walk_length))
      .Add("window", static_cast<double>(config_.window))
      .Add("negatives", config_.negatives)
      .Add("sgns_epochs", config_.sgns_epochs)
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .str();
}

Status HERecRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->MatrixList("path_item_emb", &path_item_emb_));
  KGREC_RETURN_IF_ERROR(
      visitor->MatrixList("path_user_profile", &path_user_profile_));
  KGREC_RETURN_IF_ERROR(visitor->Floats("path_weights", &path_weights_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("user_emb", &user_emb_));
  return visitor->Tensor("item_emb", &item_emb_);
}

Status HERecRecommender::PrepareLoad(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  train_ = context.train;
  return Status::OK();
}

float HERecRecommender::Score(int32_t user, int32_t item) const {
  const size_t d = config_.dim;
  float score = kernels::Dot(user_emb_.data() + user * d,
                             item_emb_.data() + item * d, d);
  const std::vector<float> features = PairFeatures(user, item);
  for (size_t l = 0; l < features.size(); ++l) {
    score += path_weights_[l] * features[l];
  }
  return score;
}

std::vector<float> HERecRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  const size_t d = config_.dim;
  const size_t count = items.size();
  std::vector<const float*> rows(count);
  // MF term.
  const float* u = user_emb_.data() + user * d;
  for (size_t i = 0; i < count; ++i) {
    rows[i] = item_emb_.data() + items[i] * d;
  }
  std::vector<float> out(count);
  kernels::DotBatch(u, rows.data(), count, d, out.data());
  // Per-path affinity terms, folded in the same ascending path order as
  // Score(): out[i] += w_l * f_l is exactly score += w_l * features[l].
  std::vector<float> features(count);
  for (size_t l = 0; l < path_item_emb_.size(); ++l) {
    const float* profile = path_user_profile_[l].Row(user);
    for (size_t i = 0; i < count; ++i) {
      rows[i] = path_item_emb_[l].Row(items[i]);
    }
    kernels::DotBatch(profile, rows.data(), count, d, features.data());
    kernels::Axpy(path_weights_[l], features.data(), out.data(), count);
  }
  return out;
}

}  // namespace kgrec
