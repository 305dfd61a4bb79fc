#ifndef KGREC_PATH_FMG_H_
#define KGREC_PATH_FMG_H_

#include <vector>

#include "core/recommender.h"
#include "math/matrix.h"
#include "nn/layers.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for FMG.
struct FmgConfig {
  size_t rank = 8;
  int nmf_iterations = 40;
  /// FM factor dimension over the concatenated latent features.
  size_t fm_dim = 8;
  int epochs = 15;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-4f;
  size_t top_k = 10;
};

/// FMG (Zhao et al., KDD'17): meta-graph based recommendation fusion.
/// Meta-graphs (combinations of meta-paths, here: pairs of attribute
/// round-trips plus the co-interaction path) produce similarity matrices;
/// each yields NMF latent factors; a factorization machine over the
/// concatenated user/item latent features fuses them (second-order
/// interactions across meta-graphs).
class FmgRecommender : public Recommender {
 public:
  explicit FmgRecommender(FmgConfig config = {}) : config_(config) {}

  std::string name() const override { return "FMG"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  Status VisitState(StateVisitor* visitor) override;

 private:
  /// Dense FM input: concatenated per-meta-graph user and item factors.
  std::vector<float> PairFeatures(int32_t user, int32_t item) const;

  FmgConfig config_;
  std::vector<Matrix> user_factors_;
  std::vector<Matrix> item_factors_;
  nn::Tensor fm_linear_;   // [1, F]
  nn::Tensor fm_factors_;  // [F, fm_dim]
  float bias_ = 0.0f;
};

}  // namespace kgrec

#endif  // KGREC_PATH_FMG_H_
