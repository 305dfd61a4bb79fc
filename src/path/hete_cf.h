#ifndef KGREC_PATH_HETE_CF_H_
#define KGREC_PATH_HETE_CF_H_

#include "core/recommender.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Hyper-parameters for Hete-CF.
struct HeteCfConfig {
  size_t dim = 16;
  int epochs = 30;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Weights of the three similarity regularizers (survey Eq. 13-15).
  float user_user_weight = 0.05f;
  float item_item_weight = 0.1f;
  float user_item_weight = 0.05f;
  size_t top_k = 10;
};

/// Hete-CF (Luo et al., ICDM'14; survey Eq. 13-15): matrix factorization
/// with *all three* meta-path similarity regularizers — user-user
/// (co-interaction PathSim), item-item (shared-attribute PathSim) and
/// user-item (diffused preference) — which is why it outperforms Hete-MF
/// (item-item only) in the survey's account.
class HeteCfRecommender : public Recommender, public DotProductFactors {
 public:
  explicit HeteCfRecommender(HeteCfConfig config = {}) : config_(config) {}

  std::string name() const override { return "Hete-CF"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path through kernels::DotBatch; bitwise equal to
  /// Score() since both follow the shared fixed-block dot contract.
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  std::string HyperFingerprint() const override;

  // DotProductFactors: the score *is* the factor dot, so the export is
  // the raw factor tables.
  size_t factor_dim() const override { return config_.dim; }
  retrieval::ScoreKernel factor_kernel() const override {
    return retrieval::ScoreKernel::kDot;
  }
  retrieval::ItemFactorView BorrowItemFactors() const override {
    if (!item_emb_.defined()) return {};
    return {factor_kernel(), item_emb_.data(), item_emb_.rows(),
            item_emb_.cols()};
  }
  void FillUserQuery(int32_t user, std::span<float> out) const override;
  size_t factor_users() const override {
    return user_emb_.defined() ? user_emb_.rows() : 0;
  }

 protected:
  Status VisitState(StateVisitor* visitor) override;

 private:
  HeteCfConfig config_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_HETE_CF_H_
