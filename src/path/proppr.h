#ifndef KGREC_PATH_PROPPR_H_
#define KGREC_PATH_PROPPR_H_

#include <vector>

#include "core/recommender.h"
#include "math/matrix.h"

namespace kgrec {

/// Hyper-parameters for ProPPR-style recommendation.
struct ProPprConfig {
  /// Restart probability alpha of the personalized random walk.
  float restart = 0.2f;
  int iterations = 20;
};

/// ProPPR (Catherine & Cohen, RecSys'16): personalized recommendations
/// with a probabilistic logic system whose inference is a personalized
/// PageRank over the proof/knowledge graph. Here the logic program's
/// ground graph is the user-item KG itself, and the preference for an
/// item is its stationary personalized-PageRank mass when restarting at
/// the user — the standard random-walk reading of ProPPR's "sim(u, v)".
class ProPprRecommender : public Recommender {
 public:
  explicit ProPprRecommender(ProPprConfig config = {}) : config_(config) {}

  std::string name() const override { return "ProPPR"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// The PPR table is a deterministic fixed-point iteration over the
  /// graph, so Load recomputes it instead of storing m x n floats.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  ProPprConfig config_;
  /// ppr_.At(u, j): stationary mass of item j for user u.
  Matrix ppr_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_PROPPR_H_
