#ifndef KGREC_EMBED_KTUP_H_
#define KGREC_EMBED_KTUP_H_

#include "core/recommender.h"
#include "math/matrix.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for KTUP.
struct KtupConfig {
  size_t dim = 16;
  /// Number of latent preference vectors in the TUP module.
  size_t num_preferences = 4;
  int epochs = 25;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// lambda of the joint objective L = L_rec + lambda * L_KG (Eq. 9).
  float kg_weight = 0.5f;
  float margin = 1.0f;
};

/// KTUP (Cao et al., WWW'19; survey Eq. 10-11): jointly learns
/// recommendation (TUP — translation-based user preference: the user
/// reaches the item through a soft-attended latent preference vector
/// p_uv, f = ||u + p - v||^2) and KG completion (TransH hinge loss on
/// the item graph). Item embeddings are enhanced by their aligned KG
/// entities: v_used = v + e_v.
class KtupRecommender : public Recommender {
 public:
  explicit KtupRecommender(KtupConfig config = {}) : config_(config) {}

  std::string name() const override { return "KTUP"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  Status VisitState(StateVisitor* visitor) override;

 private:
  KtupConfig config_;
  Matrix user_vecs_;
  Matrix item_vecs_;
  Matrix preference_vecs_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_KTUP_H_
