#ifndef KGREC_CF_MF_H_
#define KGREC_CF_MF_H_

#include "core/recommender.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Shared hyper-parameters of the latent-factor baselines.
struct MfConfig {
  size_t dim = 16;
  int epochs = 30;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Pointwise MF: negatives per positive.
  int negatives_per_positive = 1;
};

/// Pointwise matrix factorization (the model-based CF latent factor model
/// of survey Section 2.2): y_hat = u . v, trained with binary
/// cross-entropy on observed pairs vs sampled negatives.
class MfRecommender : public Recommender, public DotProductFactors {
 public:
  explicit MfRecommender(MfConfig config = {}) : config_(config) {}

  std::string name() const override { return "MF"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Online update (DESIGN §13): grows the user table for kNewUser
  /// events (each new row drawn from a counter-keyed fork, so growing in
  /// two batches == growing once) and folds every kNewInteraction with a
  /// few plain-SGD passes of the model's own loss. KG events are no-ops
  /// for a pure-CF model. Inherited by BPR-MF, which swaps the fold
  /// gradient via FoldInteraction().
  Status Update(const RecContext& context, const EventBatch& batch) override;
  bool SupportsUpdate() const override { return true; }

  /// Batched fast path through kernels::DotBatch; bitwise equal to
  /// Score() since both follow the shared fixed-block dot contract.
  /// Inherited by BPR-MF, which shares the factor layout.
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  std::string HyperFingerprint() const override;

  // DotProductFactors: the score *is* the factor dot, so the export is
  // the raw factor tables (inherited by BPR-MF).
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
  /// Both factor tensors are stored; BPR-MF inherits the same layout.
  Status VisitState(StateVisitor* visitor) override;

  /// One event's SGD fold: a few passes of this model's loss on the
  /// (user, item) positive with negatives drawn from `rng` (the event's
  /// counter-keyed stream). MF folds pointwise BCE; BPR-MF overrides
  /// with the pairwise BPR gradient.
  virtual void FoldInteraction(int32_t user, int32_t item,
                               const NegativeSampler& sampler, Rng& rng);

  MfConfig config_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
};

/// Bayesian personalized ranking MF (Rendle et al.): pairwise loss
/// -log sigmoid(y_hat_pos - y_hat_neg), the standard implicit-feedback
/// CF baseline the surveyed papers compare against.
class BprMfRecommender : public MfRecommender {
 public:
  explicit BprMfRecommender(MfConfig config = {}) : MfRecommender(config) {}

  std::string name() const override { return "BPR-MF"; }
  void Fit(const RecContext& context) override;

 protected:
  void FoldInteraction(int32_t user, int32_t item,
                       const NegativeSampler& sampler, Rng& rng) override;
};

}  // namespace kgrec

#endif  // KGREC_CF_MF_H_
