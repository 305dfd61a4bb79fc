#ifndef KGREC_EMBED_DKN_H_
#define KGREC_EMBED_DKN_H_

#include <vector>

#include "core/recommender.h"
#include "nn/layers.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for DKN.
struct DknConfig {
  size_t dim = 16;
  int epochs = 12;
  size_t batch_size = 64;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Maximum number of clicked items in the attention history.
  size_t max_history = 10;
  /// Pseudo-words per item beyond its KG entities (title noise words).
  size_t noise_words_per_item = 2;
  /// Training threads: a speed knob only (0 runs inline like 1).
  size_t num_threads = 1;
};

/// DKN (Wang et al., WWW'18; survey Eq. 4-5): each news item is encoded
/// by a knowledge channel (mean of its KG-entity embeddings, pretrained
/// with TransD) concatenated with a word channel (mean of title-word
/// embeddings — here the item's attribute mentions plus noise words,
/// substituting for Kim-CNN over raw text). The user embedding is a
/// candidate-conditioned attention sum over clicked items (Eq. 4-5), and
/// a DNN produces the click probability.
class DknRecommender : public Recommender {
 public:
  explicit DknRecommender(DknConfig config = {}) : config_(config) {}

  std::string name() const override { return "DKN"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// Stores both embedding tables and the four layers; item content
  /// lists and clipped histories are RNG-free functions of the data and
  /// are rebuilt on load.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  /// Rebuilds item_entities_/item_words_/histories_ from the context.
  void BuildContent(const RecContext& context);

  /// Item channel vectors [B, 2*dim] for the given items (differentiable).
  nn::Tensor ItemVectors(const std::vector<int32_t>& items) const;

  DknConfig config_;
  std::vector<std::vector<int32_t>> item_entities_;
  std::vector<std::vector<int32_t>> item_words_;
  std::vector<std::vector<int32_t>> histories_;
  nn::Tensor entity_emb_;
  nn::Tensor word_emb_;
  nn::Linear attention_hidden_;
  nn::Linear attention_out_;
  nn::Linear score_hidden_;
  nn::Linear score_out_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_DKN_H_
