#ifndef KGREC_EMBED_KTGAN_H_
#define KGREC_EMBED_KTGAN_H_

#include "core/recommender.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for KTGAN.
struct KtganConfig {
  size_t dim = 16;
  int epochs = 15;
  /// Items the generator proposes per user per epoch.
  size_t samples_per_user = 5;
  float g_learning_rate = 0.05f;
  float d_learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Metapath2vec-style initialization walks.
  size_t init_walks_per_node = 4;
  size_t init_walk_length = 6;
};

/// KTGAN (Yang et al., ICDM'18): knowledge-enhanced adversarial
/// recommendation. Initial user/item representations come from
/// Metapath2Vec-style walks over the user-item KG (the knowledge
/// embedding) combined with attribute-tag embeddings; a generator G then
/// learns to propose relevant items per user (softmax over its scores,
/// trained by policy gradient against the discriminator's signal) while
/// the discriminator D learns to tell true interactions from G's
/// proposals (survey Eq. 8). Recommendation uses G's refined scores.
class KtganRecommender : public Recommender {
 public:
  explicit KtganRecommender(KtganConfig config = {}) : config_(config) {}

  std::string name() const override { return "KTGAN"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  Status VisitState(StateVisitor* visitor) override;

 private:
  KtganConfig config_;
  nn::Tensor g_user_emb_, g_item_emb_;  // generator
  nn::Tensor d_user_emb_, d_item_emb_;  // discriminator
};

}  // namespace kgrec

#endif  // KGREC_EMBED_KTGAN_H_
