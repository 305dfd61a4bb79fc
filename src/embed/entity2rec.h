#ifndef KGREC_EMBED_ENTITY2REC_H_
#define KGREC_EMBED_ENTITY2REC_H_

#include "core/recommender.h"
#include "math/matrix.h"

namespace kgrec {

/// Hyper-parameters for entity2rec.
struct Entity2RecConfig {
  size_t dim = 16;
  size_t walks_per_node = 6;
  size_t walk_length = 8;
  size_t window = 3;
  int negatives = 4;
  int epochs = 3;
  float learning_rate = 0.05f;
};

/// entity2rec (Palumbo et al., RecSys'17): property-specific random walks
/// over the user-item knowledge graph, embedded with skip-gram +
/// negative sampling (node2vec style); user-item relatedness is the
/// similarity of the learned entity vectors. Here walks mix all
/// relations (the collaborative "feedback" property plus the content
/// properties), which matches the paper's combined relatedness score.
class Entity2RecRecommender : public Recommender {
 public:
  explicit Entity2RecRecommender(Entity2RecConfig config = {})
      : config_(config) {}

  std::string name() const override { return "entity2rec"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;
  std::string HyperFingerprint() const override;

 protected:
  /// Stores the input embeddings (out_emb_ is SGNS training state that
  /// scoring never reads); the graph pointer is rebound on load.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  Entity2RecConfig config_;
  const UserItemGraph* graph_ = nullptr;
  Matrix in_emb_;
  Matrix out_emb_;
};

}  // namespace kgrec

#endif  // KGREC_EMBED_ENTITY2REC_H_
