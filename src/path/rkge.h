#ifndef KGREC_PATH_RKGE_H_
#define KGREC_PATH_RKGE_H_

#include <memory>
#include <vector>

#include "core/recommender.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "path/path_finder.h"

namespace kgrec {

/// Hyper-parameters for RKGE.
struct RkgeConfig {
  size_t dim = 16;
  size_t hidden_dim = 16;
  int epochs = 6;
  size_t batch_size = 64;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  size_t max_paths_per_template = 3;
  /// Threads for the path finder's per-user index build (Fit and Load).
  /// The build is RNG-free, so any value >= 1 gives identical paths and
  /// training — this is a pure speed knob.
  size_t num_threads = 1;
};

/// RKGE (Sun et al., RecSys'18; survey Eq. 19-20): recurrent knowledge
/// graph embedding. All (<= 3-edge) semantic paths connecting a user-item
/// pair are each encoded by a GRU over the path's entity embeddings; the
/// final hidden states are average-pooled and a fully-connected layer
/// yields the preference score. Pairs with no connecting path fall back
/// to a learned bias.
class RkgeRecommender : public Recommender {
 public:
  explicit RkgeRecommender(RkgeConfig config = {}) : config_(config) {}

  std::string name() const override { return "RKGE"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path: encodes all candidates' paths in one GRU pass
  /// (every path has 4 entities, so the step count matches the per-pair
  /// call), then mean-pools each candidate's gathered hidden states
  /// through the same PoolAndScore as PairLogit — bitwise equal to
  /// Score().
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  std::string HyperFingerprint() const override;

 protected:
  /// Stores the entity embeddings, GRU/output parameters and the no-path
  /// bias; the path finder is rebuilt on load.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  /// Rebuilds the path finder (RNG-free).
  void BuildPathIndex(const RecContext& context);

  /// Final GRU states [P, hidden] of the paths (differentiable).
  nn::Tensor EncodePaths(const std::vector<PathInstance>& paths) const;

  /// Mean-pools one pair's path states [P, hidden] into its logit [1,1].
  nn::Tensor PoolAndScore(const nn::Tensor& h) const;

  /// Scalar logit [1,1] for one pair (differentiable).
  nn::Tensor PairLogit(int32_t user, int32_t item) const;

  RkgeConfig config_;
  std::unique_ptr<TemplatePathFinder> finder_;
  nn::Tensor entity_emb_;
  nn::GruCell gru_;
  nn::Linear output_;
  nn::Tensor no_path_bias_;  // [1,1]
};

}  // namespace kgrec

#endif  // KGREC_PATH_RKGE_H_
