#ifndef KGREC_EMBED_SED_H_
#define KGREC_EMBED_SED_H_

#include "core/recommender.h"
#include "math/matrix.h"

namespace kgrec {

/// Hyper-parameters for SED.
struct SedConfig {
  /// BFS cutoff when computing entity distances in the item KG.
  int32_t max_depth = 6;
  /// How many most-recent history items are averaged.
  size_t max_history = 20;
};

/// SED (Joseph & Jiang, WWW'19 companion): content-based news
/// recommendation via Shortest Entity Distance over knowledge graphs.
/// The preference for a candidate is the (negated) average shortest KG
/// distance between the candidate and the user's clicked items — a
/// training-free, purely structural recommender that showcases how much
/// signal the raw KG topology carries.
class SedRecommender : public Recommender {
 public:
  explicit SedRecommender(SedConfig config = {}) : config_(config) {}

  std::string name() const override { return "SED"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// Training-free model: the BFS distance table is recomputed on load.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  SedConfig config_;
  const InteractionDataset* train_ = nullptr;
  /// distance_.At(a, b): hop distance between items a and b (capped).
  Matrix distance_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_SED_H_
