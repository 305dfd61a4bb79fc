#ifndef KGREC_PATH_HETE_MF_H_
#define KGREC_PATH_HETE_MF_H_

#include "core/recommender.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Hyper-parameters for Hete-MF.
struct HeteMfConfig {
  size_t dim = 16;
  int epochs = 30;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Weight of the meta-path item-item similarity regularizer (Eq. 14).
  float similarity_weight = 0.1f;
  /// Strongest neighbors kept per item and meta-path.
  size_t top_k = 10;
};

/// Hete-MF (Yu et al., IJCAI-HINA'13; survey Eq. 14): matrix
/// factorization whose item factors are regularized to be close for items
/// with high meta-path (PathSim) similarity:
///   min L_mf + w * sum_l sum_{i,j} s^l_ij ||v_i - v_j||^2.
class HeteMfRecommender : public Recommender, public DotProductFactors {
 public:
  explicit HeteMfRecommender(HeteMfConfig config = {}) : config_(config) {}

  std::string name() const override { return "Hete-MF"; }
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
  HeteMfConfig config_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_HETE_MF_H_
