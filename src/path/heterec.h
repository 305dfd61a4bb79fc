#ifndef KGREC_PATH_HETEREC_H_
#define KGREC_PATH_HETEREC_H_

#include <vector>

#include "core/recommender.h"
#include "math/matrix.h"

namespace kgrec {

/// Hyper-parameters for HeteRec / HeteRec-p.
struct HeteRecConfig {
  /// Rank of the per-meta-path NMF factorization.
  size_t rank = 8;
  int nmf_iterations = 40;
  /// Epochs of BPR training for the path weights theta.
  int weight_epochs = 10;
  float weight_learning_rate = 0.05f;
  /// Strongest neighbors kept per item and meta-path.
  size_t top_k = 10;
  /// HeteRec-p only: number of user clusters c (Eq. 18). 1 = plain
  /// HeteRec (a single global weight vector).
  size_t num_user_clusters = 1;
};

/// HeteRec (Yu et al., RecSys'13; survey Eq. 16-17) and its personalized
/// extension HeteRec-p (WSDM'14; Eq. 18).
///
/// For each meta-path l the interaction matrix is diffused,
/// R~(l) = R S(l), factorized with NMF into (U(l), V(l)), and the final
/// score is sum_l theta_l u_i(l) . v_j(l), with theta learned by BPR.
/// HeteRec-p clusters users (k-means on their diffused preference
/// profiles) and learns per-cluster weights, mixed by cosine similarity
/// to each cluster centroid.
class HeteRecRecommender : public Recommender {
 public:
  explicit HeteRecRecommender(HeteRecConfig config = {}) : config_(config) {}

  std::string name() const override {
    return config_.num_user_clusters > 1 ? "HeteRec-p" : "HeteRec";
  }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// NMF factors, path weights and cluster memberships are all learned
  /// (RNG-dependent) state, so the checkpoint stores everything.
  Status VisitState(StateVisitor* visitor) override;

 private:
  /// Per-path latent dot product features for a (user, item) pair.
  std::vector<float> PairFeatures(int32_t user, int32_t item) const;

  HeteRecConfig config_;
  std::vector<Matrix> user_factors_;  // per path: m x rank
  std::vector<Matrix> item_factors_;  // per path: n x rank
  /// theta[k][l]: weight of path l for cluster k.
  std::vector<std::vector<float>> theta_;
  /// Soft cluster membership per user (HeteRec-p), or a single 1.0.
  std::vector<std::vector<float>> membership_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_HETEREC_H_
