#ifndef KGREC_EMBED_CKE_H_
#define KGREC_EMBED_CKE_H_

#include <memory>
#include <vector>

#include "core/recommender.h"
#include "kge/kge_model.h"
#include "math/matrix.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Hyper-parameters for CKE.
struct CkeConfig {
  size_t dim = 16;
  int epochs = 25;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Weight of the structural-knowledge (TransR) loss in the joint
  /// objective L = L_rec + lambda * L_KG (survey Eq. 9).
  float kg_weight = 0.5f;
  float margin = 1.0f;
};

/// Collaborative Knowledge-base Embedding (Zhang et al., KDD'16; survey
/// Eq. 2-3). The item representation aggregates
///   v_j = eta_j + x_j + z_j
/// where eta_j is the collaborative offset, x_j the TransR structural
/// embedding of the item's KG entity, and z_j a content embedding — here
/// the mean of the item's attribute-entity content vectors, standing in
/// for the paper's autoencoder text/image codes (see DESIGN.md
/// substitutions). Trained jointly: BPR pairwise loss + TransR hinge loss.
class CkeRecommender : public Recommender, public DotProductFactors {
 public:
  explicit CkeRecommender(CkeConfig config = {}) : config_(config) {}

  std::string name() const override { return "CKE"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path through kernels::DotBatch; bitwise equal to
  /// Score() since both follow the shared fixed-block dot contract.
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  /// Online update (DESIGN §13): CKE serves from its cached final
  /// user/item vectors, so the fold operates directly on them — new
  /// users get counter-keyed rows and each kNewInteraction folds a few
  /// BPR-SGD passes on the caches. KG events are no-ops here: the
  /// TransR and content channels are collapsed into item_vecs_ once at
  /// fit time.
  Status Update(const RecContext& context, const EventBatch& batch) override;
  bool SupportsUpdate() const override { return true; }

  std::string HyperFingerprint() const override;

  // DotProductFactors: the cached final user/item vectors are already
  // the factorization Score() dots.
  size_t factor_dim() const override { return config_.dim; }
  retrieval::ScoreKernel factor_kernel() const override {
    return retrieval::ScoreKernel::kDot;
  }
  retrieval::ItemFactorView BorrowItemFactors() const override {
    return {factor_kernel(), item_vecs_.data(), item_vecs_.rows(),
            item_vecs_.cols()};
  }
  void FillUserQuery(int32_t user, std::span<float> out) const override;
  size_t factor_users() const override { return user_vecs_.rows(); }

 protected:
  /// The cached final user/item vectors are the whole serving state.
  Status VisitState(StateVisitor* visitor) override;

 private:
  CkeConfig config_;
  Matrix user_vecs_;
  Matrix item_vecs_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_CKE_H_
