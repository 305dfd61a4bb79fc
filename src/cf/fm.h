#ifndef KGREC_CF_FM_H_
#define KGREC_CF_FM_H_

#include <vector>

#include "core/recommender.h"
#include "math/matrix.h"

namespace kgrec {

/// Factorization-machine hyper-parameters.
struct FmConfig {
  size_t dim = 16;
  int epochs = 25;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  int negatives_per_positive = 1;
};

/// Second-order factorization machine (Rendle) over sparse features
///   {user id} ∪ {item id} ∪ {the item's KG attribute entities},
/// the fusion model of FMG (survey Section 4.2) and the hybrid baseline
/// of Section 2.2. Trained pointwise with logistic loss and hand-derived
/// gradients (FM gradients are closed-form; no autodiff needed).
class FmRecommender : public Recommender {
 public:
  explicit FmRecommender(FmConfig config = {}) : config_(config) {}

  std::string name() const override { return "FM"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// Stores bias/linear/factors; the feature map (item attribute lists)
  /// is rebuilt from the context on load.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  /// Derives num_users_/num_items_/item_attributes_ from the context and
  /// returns the feature-space size. Shared by Fit and PrepareLoad.
  size_t BuildFeatureSpace(const RecContext& context);
  /// Feature ids of (user, item): user -> user, item -> m + item,
  /// attribute entity a (>= num items in the item KG) -> m + a.
  std::vector<int32_t> Features(int32_t user, int32_t item) const;

  float ScoreFeatures(const std::vector<int32_t>& features) const;

  FmConfig config_;
  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  /// Attribute entity ids per item, from the item KG (empty without one).
  std::vector<std::vector<int32_t>> item_attributes_;
  float bias_ = 0.0f;
  std::vector<float> linear_;
  Matrix factors_;
};

}  // namespace kgrec

#endif  // KGREC_CF_FM_H_
