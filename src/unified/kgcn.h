#ifndef KGREC_UNIFIED_KGCN_H_
#define KGREC_UNIFIED_KGCN_H_

#include <cstdint>
#include <vector>

#include "core/recommender.h"
#include "graph/aggregators.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for KGCN / KGCN-LS.
struct KgcnConfig {
  size_t dim = 16;
  /// Receptive-field depth H.
  size_t num_layers = 2;
  /// Fixed number of sampled neighbors per entity.
  size_t num_neighbors = 6;
  AggregatorKind aggregator = AggregatorKind::kSum;
  int epochs = 12;
  size_t batch_size = 128;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// KGCN-LS only: weight of the label-smoothness regularizer.
  float ls_weight = 0.0f;
};

/// KGCN (Wang et al., WWW'19; survey Eq. 28-29): the candidate item's
/// representation is computed by sampling a fixed-size receptive field in
/// the item KG and aggregating neighbor embeddings inward, with
/// user-relation attention pi(u, r) = u . r deciding how much each edge
/// matters to this user. All four aggregators of Eq. 30-33 are supported.
///
/// KGCN and KGCN-LS have no online Update (DESIGN §13): refreshing the
/// receptive field of the entities a batch touched, with no SGD, scored
/// below the stale model in the online_updates frontier.
class KgcnRecommender : public Recommender {
 public:
  explicit KgcnRecommender(KgcnConfig config = {}) : config_(config) {}

  std::string name() const override {
    return config_.ls_weight > 0.0f ? "KGCN-LS" : "KGCN";
  }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path. For a fixed user, a receptive-field node's
  /// sweep-i update depends only on its entity (the neighbor sample is
  /// static), so instead of materialising B * k^l rows per level this
  /// computes each *distinct* entity once per sweep, with the u . r
  /// attention logits built once per relation. Every op involved is
  /// row-independent with the same in-order accumulation as Forward(),
  /// so results are bitwise equal to per-item Score() calls.
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  std::string HyperFingerprint() const override;

 protected:
  /// Stores the user/entity/relation embeddings and per-layer aggregator
  /// parameters; the static receptive field is rebuilt by PrepareLoad
  /// replaying Fit's exact Rng prefix.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  /// Fit's preamble, shared with PrepareLoad: allocates the parameter
  /// tensors and aggregators, then samples the static receptive field.
  /// All draws come from `rng` in a fixed order, so calling this with
  /// Rng(context.seed) reproduces the neighbor sample exactly.
  void BuildModel(const RecContext& context, Rng& rng);

  /// Differentiable forward: logits [B,1] for (users, items). When
  /// `ls_logits` is non-null also emits label-smoothness logits (the
  /// attention-propagated interaction labels of the 1-hop neighborhood).
  nn::Tensor Forward(const std::vector<int32_t>& users,
                     const std::vector<int32_t>& items,
                     nn::Tensor* ls_logits) const;

  KgcnConfig config_;
  int32_t num_items_ = 0;
  const InteractionDataset* train_ = nullptr;
  /// Static receptive field, arena-backed: row e of the flat buffer holds
  /// entity e's num_neighbors sampled (relation, target) pairs
  /// (resampled-with-replacement when degree is small). Isolated entities
  /// carry a flag instead of a short row; Forward substitutes self-loops
  /// for them, exactly as the old empty per-entity vector did.
  std::vector<Edge> sampled_edges_;       // [num_entities * num_neighbors]
  std::vector<uint8_t> entity_isolated_;  // [num_entities]
  nn::Tensor user_emb_;
  nn::Tensor entity_emb_;
  nn::Tensor relation_emb_;
  std::vector<Aggregator> aggregators_;  // one per layer
};

}  // namespace kgrec

#endif  // KGREC_UNIFIED_KGCN_H_
