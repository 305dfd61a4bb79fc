#ifndef KGREC_UNIFIED_KGAT_H_
#define KGREC_UNIFIED_KGAT_H_

#include <vector>

#include "core/recommender.h"
#include "graph/aggregators.h"
#include "math/matrix.h"
#include "nn/tensor.h"
#include "retrieval/factors.h"

namespace kgrec {

/// Hyper-parameters for KGAT.
struct KgatConfig {
  size_t dim = 16;
  /// Number of propagation layers (survey Eq. 34: H).
  size_t num_layers = 2;
  int epochs = 15;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Weight of the auxiliary TransR-style KG loss (trained jointly).
  float kg_weight = 0.5f;
  float margin = 1.0f;
  /// Threads for the per-entity attention refresh. The pass is grouped
  /// by head entity (softmax denominators never mix across heads), so
  /// any value >= 1 produces bitwise-identical attention — this is a
  /// pure speed knob, not a mode switch.
  size_t num_threads = 1;
};

/// KGAT (Wang et al., KDD'19; survey Eq. 34): attentive embedding
/// propagation over the *user-item* KG. Every entity (users included)
/// repeatedly aggregates its neighborhood with knowledge-aware attention
/// pi(h, r, t) = e_t . tanh(e_h + e_r) (softmax-normalized per head,
/// refreshed every epoch), using the bi-interaction aggregator; the final
/// representation concatenates all layer embeddings, and preference is
/// their inner product. A translation hinge loss on the KG triples is
/// trained jointly.
class KgatRecommender : public Recommender, public DotProductFactors {
 public:
  explicit KgatRecommender(KgatConfig config = {}) : config_(config) {}

  std::string name() const override { return "KGAT"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path: hoists the user row lookup and scores candidates
  /// four at a time through kernels::DotBatch. Every output follows the
  /// shared fixed-block dot contract, so scores are bitwise equal to
  /// Score().
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  std::string HyperFingerprint() const override;

  // DotProductFactors: preference is the inner product of final
  // concatenated embeddings, so the export slices the item-entity rows
  // out of final_emb_ and the query is the user-entity row.
  size_t factor_dim() const override { return final_emb_.cols(); }
  retrieval::ScoreKernel factor_kernel() const override {
    return retrieval::ScoreKernel::kDot;
  }
  retrieval::ItemFactorView BorrowItemFactors() const override;
  void FillUserQuery(int32_t user, std::span<float> out) const override;
  size_t factor_users() const override;

 protected:
  /// Serving only reads the final concatenated embeddings (the training
  /// graph's embeddings, relations and aggregators are all baked into
  /// final_emb_), so that matrix is the whole checkpoint; PrepareLoad
  /// just re-binds the graph used for entity-id lookups.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  KgatConfig config_;
  const UserItemGraph* graph_ = nullptr;
  /// Final concatenated embeddings [num_entities, dim * (layers + 1)].
  Matrix final_emb_;
};

}  // namespace kgrec

#endif  // KGREC_UNIFIED_KGAT_H_
