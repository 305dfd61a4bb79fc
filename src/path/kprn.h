#ifndef KGREC_PATH_KPRN_H_
#define KGREC_PATH_KPRN_H_

#include <memory>
#include <vector>

#include "core/recommender.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "path/path_finder.h"

namespace kgrec {

/// Hyper-parameters for KPRN.
struct KprnConfig {
  size_t dim = 16;
  size_t hidden_dim = 16;
  int epochs = 6;
  size_t batch_size = 64;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  size_t max_paths_per_template = 3;
  /// Temperature gamma of the weighted pooling layer
  /// s = gamma * log sum exp(s_p / gamma).
  float pooling_gamma = 1.0f;
  /// Threads for the path finder's per-user index build (Fit and Load).
  /// The build is RNG-free, so any value >= 1 gives identical paths and
  /// training — this is a pure speed knob.
  size_t num_threads = 1;
};

/// KPRN (Wang et al., AAAI'19): knowledge-aware path recurrent network.
/// Each user->item path is a sequence of (entity embedding ++ relation
/// embedding) steps (the relation that leaves the entity; a special <end>
/// relation for the final entity), encoded by an LSTM; a two-layer MLP
/// scores each path and the path scores are fused with the paper's
/// weighted (log-sum-exp) pooling, which both smooths training and lets
/// the per-path scores rank explanations.
class KprnRecommender : public Recommender {
 public:
  explicit KprnRecommender(KprnConfig config = {}) : config_(config) {}

  std::string name() const override { return "KPRN"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path: runs all candidates' paths through one LSTM pass
  /// (every path has 4 entities, so the step count matches the per-pair
  /// call), then pools each candidate's gathered score rows through the
  /// same Pool as PairLogit — bitwise equal to Score().
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  /// The highest-scoring path for the pair rendered as text, or "" when
  /// no path connects them. This is the model's explanation (Figure 1).
  std::string ExplainBestPath(int32_t user, int32_t item) const;

  std::string HyperFingerprint() const override;

 protected:
  /// Stores the entity/relation embeddings, LSTM and scorer parameters
  /// and the no-path bias; the path finder is rebuilt on load.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

 private:
  /// Rebuilds the path finder (RNG-free).
  void BuildPathIndex(const RecContext& context);

  /// Per-path scores [P, 1] for the pair's paths (differentiable);
  /// undefined tensor when there are no paths.
  nn::Tensor PathScores(const std::vector<PathInstance>& paths) const;

  /// Weighted (log-sum-exp) pooling of one pair's path scores [P, 1].
  nn::Tensor Pool(const nn::Tensor& scores) const;

  /// Pooled scalar logit for one pair.
  nn::Tensor PairLogit(int32_t user, int32_t item) const;

  KprnConfig config_;
  std::unique_ptr<TemplatePathFinder> finder_;
  nn::Tensor entity_emb_;
  nn::Tensor relation_emb_;  // num_relations + 1 rows (<end> sentinel)
  int32_t end_relation_ = 0;
  nn::LstmCell lstm_;
  nn::Linear score_hidden_;
  nn::Linear score_out_;
  nn::Tensor no_path_bias_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_KPRN_H_
