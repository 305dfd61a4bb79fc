#ifndef KGREC_PATH_MCREC_H_
#define KGREC_PATH_MCREC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "path/path_finder.h"

namespace kgrec {

/// Hyper-parameters for MCRec.
struct McRecConfig {
  size_t dim = 16;
  int epochs = 6;
  size_t batch_size = 64;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Path instances sampled per meta-path type (padded by repetition).
  size_t instances_per_type = 3;
  /// Threads for the path finder's per-user index build (Fit and Load).
  /// The build is RNG-free, so any value >= 1 gives identical paths and
  /// training — this is a pure speed knob.
  size_t num_threads = 1;
};

/// MCRec (Hu et al., KDD'18): meta-path based context for top-N
/// recommendation with a neural co-attention model. For each user-item
/// pair, path instances of every meta-path type are encoded with a CNN
/// (window-2 convolution over the entity sequence + max-pooling), pooled
/// into per-type context vectors, fused with user-conditioned attention
/// into a single interaction context, and the preference is an MLP over
/// [user ++ context ++ item].
class McRecRecommender : public Recommender {
 public:
  explicit McRecRecommender(McRecConfig config = {}) : config_(config) {}

  std::string name() const override { return "MCRec"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path: one chunked Forward() with the user repeated.
  /// Every op in Forward() is row-independent per pair, so the batched
  /// rows are bitwise equal to per-item Score() calls.
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  std::string HyperFingerprint() const override;

 protected:
  /// Stores all embedding tables and layer parameters; the path finder
  /// and meta-path type keys are rebuilt on load.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  /// Rebuilds the path finder and meta-path type keys (RNG-free).
  void BuildPathIndex(const RecContext& context);

  /// Logits [B,1] for user-item pairs (differentiable).
  nn::Tensor Forward(const std::vector<int32_t>& users,
                     const std::vector<int32_t>& items) const;

  McRecConfig config_;
  std::unique_ptr<TemplatePathFinder> finder_;
  const UserItemGraph* graph_ = nullptr;
  /// Meta-path type signatures (relation-id sequences rendered to keys).
  std::vector<std::string> type_keys_;
  nn::Tensor user_emb_;
  nn::Tensor item_emb_;
  nn::Tensor entity_emb_;
  nn::Linear conv_;         // window-2 convolution, 2*dim -> dim
  nn::Linear att_hidden_;   // attention over path types
  nn::Linear att_out_;
  nn::Linear score_hidden_;
  nn::Linear score_out_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_MCREC_H_
