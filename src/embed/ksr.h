#ifndef KGREC_EMBED_KSR_H_
#define KGREC_EMBED_KSR_H_

#include <memory>
#include <vector>

#include "core/recommender.h"
#include "kge/kge_model.h"
#include "math/matrix.h"
#include "nn/layers.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for KSR.
struct KsrConfig {
  size_t dim = 16;
  size_t hidden_dim = 16;
  int epochs = 30;
  size_t batch_size = 32;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Maximum sequence length fed to the GRU.
  size_t max_sequence = 10;
  /// TransE pretraining epochs. The memory values are the pretrained
  /// attribute embeddings, so an undertrained TransE caps KSR's accuracy.
  int kge_epochs = 40;
  /// Training threads: a speed knob only (0 runs inline like 1).
  size_t num_threads = 1;
};

/// KSR (Huang et al., SIGIR'18): knowledge-enhanced sequential
/// recommendation. A GRU encodes the user's interaction sequence
/// (interaction-level preference h_t); a key-value memory whose keys are
/// the KG relation types and whose values accumulate the TransE
/// embeddings of consumed items' attribute entities encodes the
/// attribute-level preference m_t; the user representation is
/// u_t = h_t ++ m_t and the item representation is q_j ++ e_j
/// (survey Section 4.1).
class KsrRecommender : public Recommender {
 public:
  explicit KsrRecommender(KsrConfig config = {}) : config_(config) {}

  std::string name() const override { return "KSR"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// Serving reads only the cached user reps and the item/entity tables;
  /// the GRU, memory and projection are training-time modules whose
  /// effect is baked into user_reps_, so they are not stored.
  Status VisitState(StateVisitor* visitor) override;

 private:
  /// Attribute-level memory readout for a batch of users conditioned on
  /// nothing (the survey's m_t; attention over relation-keyed slots).
  nn::Tensor MemoryReadout(const std::vector<int32_t>& users,
                           const nn::Tensor& hidden) const;

  /// Item representation q_j ++ e_j for a batch.
  nn::Tensor ItemReps(const std::vector<int32_t>& items) const;

  KsrConfig config_;
  int32_t num_items_ = 0;
  size_t num_relations_ = 0;
  std::vector<std::vector<int32_t>> sequences_;
  /// Per-user, per-relation memory value (mean attribute embedding),
  /// fixed from the pretrained KGE (the survey's memory write phase).
  Matrix memory_;  // [num_users * num_relations, dim]
  nn::Tensor item_emb_;    // GRU-space item embeddings q
  nn::Tensor entity_emb_;  // KGE entity embeddings e (fine-tuned)
  nn::Tensor key_emb_;     // relation keys for memory attention
  nn::GruCell gru_;
  nn::Linear user_proj_;   // (hidden + dim) -> 2*dim to match item reps
  /// Cached final user representations after Fit.
  Matrix user_reps_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_KSR_H_
