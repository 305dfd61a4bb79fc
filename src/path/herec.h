#ifndef KGREC_PATH_HEREC_H_
#define KGREC_PATH_HEREC_H_

#include <vector>

#include "core/recommender.h"
#include "math/matrix.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for HERec.
struct HERecConfig {
  size_t dim = 16;
  /// Random-walk embedding parameters (per meta-path).
  size_t walks_per_item = 8;
  size_t walk_length = 10;
  size_t window = 2;
  int negatives = 4;
  int sgns_epochs = 2;
  /// MF + fusion training.
  int epochs = 25;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
};

/// HERec (Shi et al., TKDE'19): heterogeneous information network
/// embedding for recommendation. Meta-path constrained random walks
/// (item -r-> attribute -r^-1-> item, one walk corpus per meta-path)
/// produce skip-gram item embeddings; these per-path embeddings are
/// fused into an extended matrix factorization — here the user side
/// builds a per-path profile (mean embedding of the user's history) and
/// the final score is u.v plus learned per-path profile-item affinities.
class HERecRecommender : public Recommender {
 public:
  explicit HERecRecommender(HERecConfig config = {}) : config_(config) {}

  std::string name() const override { return "HERec"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path: the MF term and each meta-path affinity term run
  /// through kernels::DotBatch, folded as score += w_l * f_l in the same
  /// ascending path order as Score(), so outputs are bitwise equal.
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  std::string HyperFingerprint() const override;

 protected:
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  std::vector<float> PairFeatures(int32_t user, int32_t item) const;

  HERecConfig config_;
  const InteractionDataset* train_ = nullptr;
  /// Per meta-path: item embeddings [n, dim] from SGNS.
  std::vector<Matrix> path_item_emb_;
  /// Per meta-path per user: history profile [dim].
  std::vector<Matrix> path_user_profile_;
  std::vector<float> path_weights_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_HEREC_H_
