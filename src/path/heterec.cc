#include "path/heterec.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "math/kernels.h"
#include "math/kmeans.h"
#include "math/nmf.h"
#include "path/metapaths.h"

namespace kgrec {

void HeteRecRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  const InteractionDataset& train = *context.train;
  const int32_t m = train.num_users();
  Rng rng(context.seed);

  // Diffused preference matrices R~(l) = R S(l) (Eq. 16). The identity
  // path (S = I, plain R) is always included as path 0.
  CsrMatrix r = train.ToCsr();
  std::vector<CsrMatrix> diffused;
  diffused.push_back(r);
  for (ItemSimilarity& sim : ItemMetaPathSimilarities(
           *context.item_kg, train.num_items(), config_.top_k)) {
    diffused.push_back(r.Multiply(sim.matrix));
  }

  user_factors_.clear();
  item_factors_.clear();
  for (const CsrMatrix& matrix : diffused) {
    NmfResult nmf = Nmf(matrix, config_.rank, config_.nmf_iterations, rng);
    user_factors_.push_back(std::move(nmf.user_factors));
    item_factors_.push_back(std::move(nmf.item_factors));
  }
  const size_t num_paths = user_factors_.size();

  // --- User clustering (HeteRec-p, Eq. 18) ---------------------------
  const size_t c = std::max<size_t>(1, config_.num_user_clusters);
  membership_.assign(m, std::vector<float>(c, 1.0f));
  Matrix centroids;
  if (c > 1) {
    // Cluster users on their concatenated per-path latent profiles.
    Matrix profiles(m, num_paths * config_.rank);
    for (int32_t u = 0; u < m; ++u) {
      for (size_t l = 0; l < num_paths; ++l) {
        std::copy_n(user_factors_[l].Row(u), config_.rank,
                    profiles.Row(u) + l * config_.rank);
      }
    }
    KMeansResult km = KMeans(profiles, c, 15, rng);
    centroids = km.centroids;
    for (int32_t u = 0; u < m; ++u) {
      float total = 0.0f;
      for (size_t k = 0; k < c; ++k) {
        const float sim = std::max(
            0.0f, kernels::CosineSimilarity(profiles.Row(u), centroids.Row(k),
                                            profiles.cols()));
        membership_[u][k] = sim;
        total += sim;
      }
      if (total <= 0.0f) {
        membership_[u].assign(c, 1.0f / c);
      } else {
        for (float& v : membership_[u]) v /= total;
      }
    }
  }

  // --- Learn path weights theta by BPR (Eq. 17/18) --------------------
  theta_.assign(c, std::vector<float>(num_paths, 1.0f / num_paths));
  NegativeSampler sampler(train);
  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int epoch = 0; epoch < config_.weight_epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const Interaction& x = train.interactions()[idx];
      const int32_t neg = sampler.Sample(x.user, rng);
      const std::vector<float> f_pos = PairFeatures(x.user, x.item);
      const std::vector<float> f_neg = PairFeatures(x.user, neg);
      // Current margin under the user's mixed weights.
      float margin = 0.0f;
      for (size_t k = 0; k < c; ++k) {
        for (size_t l = 0; l < num_paths; ++l) {
          margin += membership_[x.user][k] * theta_[k][l] *
                    (f_pos[l] - f_neg[l]);
        }
      }
      const float sig = 1.0f / (1.0f + std::exp(margin));  // d(-logsig)/dm
      for (size_t k = 0; k < c; ++k) {
        const float coef =
            config_.weight_learning_rate * sig * membership_[x.user][k];
        for (size_t l = 0; l < num_paths; ++l) {
          theta_[k][l] += coef * (f_pos[l] - f_neg[l]);
        }
      }
    }
  }
}

std::vector<float> HeteRecRecommender::PairFeatures(int32_t user,
                                                    int32_t item) const {
  std::vector<float> out(user_factors_.size());
  for (size_t l = 0; l < user_factors_.size(); ++l) {
    out[l] = kernels::Dot(user_factors_[l].Row(user),
                          item_factors_[l].Row(item), config_.rank);
  }
  return out;
}

std::string HeteRecRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("rank", static_cast<double>(config_.rank))
      .Add("nmf_iterations", config_.nmf_iterations)
      .Add("weight_epochs", config_.weight_epochs)
      .Add("weight_lr", config_.weight_learning_rate)
      .Add("top_k", static_cast<double>(config_.top_k))
      .Add("num_user_clusters", static_cast<double>(config_.num_user_clusters))
      .str();
}

Status HeteRecRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->MatrixList("user_factors", &user_factors_));
  KGREC_RETURN_IF_ERROR(visitor->MatrixList("item_factors", &item_factors_));
  KGREC_RETURN_IF_ERROR(visitor->RaggedFloats("theta", &theta_));
  return visitor->RaggedFloats("membership", &membership_);
}

float HeteRecRecommender::Score(int32_t user, int32_t item) const {
  const std::vector<float> features = PairFeatures(user, item);
  float score = 0.0f;
  for (size_t k = 0; k < theta_.size(); ++k) {
    for (size_t l = 0; l < features.size(); ++l) {
      score += membership_[user][k] * theta_[k][l] * features[l];
    }
  }
  return score;
}

}  // namespace kgrec
