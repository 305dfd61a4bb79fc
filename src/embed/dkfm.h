#ifndef KGREC_EMBED_DKFM_H_
#define KGREC_EMBED_DKFM_H_

#include "core/recommender.h"
#include "nn/layers.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for DKFM.
struct DkfmConfig {
  size_t dim = 16;
  int epochs = 35;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  int kge_epochs = 10;
  /// Training threads: a speed knob only (0 runs inline like 1).
  size_t num_threads = 1;
};

/// DKFM (Dadoun et al., WWW'19 companion): deep knowledge factorization
/// machine for next-trip/POI recommendation. A TransE embedding of the
/// destination (item) KG enriches the item representation, which a
/// DeepFM-style model consumes: a factorization term u . v plus a deep
/// tower over [user ++ item ++ KG-entity] features.
class DkfmRecommender : public Recommender {
 public:
  explicit DkfmRecommender(DkfmConfig config = {}) : config_(config) {}

  std::string name() const override { return "DKFM"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// All three embedding tables (including the frozen TransE entities)
  /// plus the deep-tower layers are stored.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  nn::Tensor Logits(const std::vector<int32_t>& users,
                    const std::vector<int32_t>& items) const;

  DkfmConfig config_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
  nn::Tensor entity_emb_;  // frozen TransE city/destination embeddings
  nn::Linear deep_hidden_;
  nn::Linear deep_out_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_DKFM_H_
