#ifndef KGREC_EMBED_CFKG_H_
#define KGREC_EMBED_CFKG_H_

#include <memory>

#include "core/recommender.h"
#include "kge/kge_model.h"
#include "math/matrix.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Hyper-parameters for CFKG.
struct CfkgConfig {
  size_t dim = 16;
  int epochs = 20;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float margin = 1.0f;
  float l2 = 1e-5f;
  /// KGE backend name ("transe" in the paper; any backend works).
  std::string kge = "transe";
  /// Training threads: a speed knob only (0 runs inline like 1).
  size_t num_threads = 1;
};

/// CFKG (Zhang et al., survey Eq. 7): user behaviour becomes a relation
/// in a single user-item knowledge graph, a translation model is trained
/// over all its triples, and candidates are ranked by ascending
/// d(u + r_interact, v) — i.e. the KGE plausibility of the "interact"
/// fact itself.
///
/// Serving computes that plausibility through the backend's
/// fixed-relation factorization (KgeModel::FillHeadQuery /
/// FillTailFactor, DESIGN §10): the "interact"-projected item vectors are
/// materialized once after Fit/Load, a per-user query vector is built per
/// call, and the score is the backend's retrieval kernel over the two —
/// which makes CFKG a DotProductFactors exporter whose index scans are
/// bitwise Score().
///
/// CFKG (and ECFKG) have no online Update (DESIGN §13): a per-triple SGD
/// fold scored below the stale model in the online_updates frontier, so
/// a growing world keeps serving the fitted generation until a refit.
class CfkgRecommender : public Recommender, public DotProductFactors {
 public:
  explicit CfkgRecommender(CfkgConfig config = {}) : config_(config) {}

  std::string name() const override { return "CFKG"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path: hoists the per-user query vector out of the
  /// candidate loop and evaluates the retrieval kernel over the
  /// materialized item factors; bitwise equal to Score().
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  std::string HyperFingerprint() const override;

  // DotProductFactors (retrieval/factors.h).
  size_t factor_dim() const override { return config_.dim; }
  retrieval::ScoreKernel factor_kernel() const override;
  retrieval::ItemFactorView BorrowItemFactors() const override {
    return {factor_kernel(), item_factors_.data(), item_factors_.rows(),
            item_factors_.cols()};
  }
  void FillUserQuery(int32_t user, std::span<float> out) const override;
  size_t factor_users() const override;

 protected:
  /// The KGE backend is reconstructed by PrepareLoad and its parameters
  /// restored in place; ECFKG layers its path finder on top. The
  /// materialized item factors are derived state — rebuilt by
  /// FinishLoad, never stored.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;
  Status FinishLoad(const RecContext& context) override;

  CfkgConfig config_;
  std::unique_ptr<KgeModel> model_;
  const UserItemGraph* graph_ = nullptr;

 private:
  /// Projects every item entity through the fixed "interact" relation.
  void BuildItemFactors();

  /// [num_items, dim]: FillTailFactor of each item entity under the
  /// interact relation.
  Matrix item_factors_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_CFKG_H_
