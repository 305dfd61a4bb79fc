#ifndef KGREC_PATH_PGPR_H_
#define KGREC_PATH_PGPR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/recommender.h"
#include "kge/kge_model.h"
#include "nn/layers.h"
#include "path/path_finder.h"

namespace kgrec {

/// Hyper-parameters for PGPR.
struct PgprConfig {
  size_t dim = 16;
  /// TransE pretraining epochs on the user-item KG (reward function).
  int kge_epochs = 12;
  /// REINFORCE epochs; each epoch runs episodes_per_user rollouts.
  int rl_epochs = 6;
  size_t episodes_per_user = 6;
  size_t max_path_length = 3;
  /// Maximum actions (out-edges) considered per step (action pruning).
  size_t max_actions = 24;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Beam width of the inference-time path search.
  size_t beam_width = 24;
  /// Training threads: a speed knob only (0 runs inline like 1).
  size_t num_threads = 1;
};

/// PGPR (Xian et al., SIGIR'19): policy-guided path reasoning. The
/// recommendation problem is cast as an MDP on the user-item KG: starting
/// at the user, an agent walks up to T edges; reaching an unconsumed item
/// yields a terminal reward given by a pretrained KGE scoring function
/// (sigmoid of the <user, interact, item> plausibility). The policy (an
/// MLP over [user ++ current ++ relation ++ target] embeddings) is
/// trained with REINFORCE; at inference a beam search materializes paths,
/// which are simultaneously the recommendations and their explanations.
class PgprRecommender : public Recommender {
 public:
  explicit PgprRecommender(PgprConfig config = {}) : config_(config) {}

  std::string name() const override { return "PGPR"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path: beam-reached candidates are map lookups; all
  /// remaining candidates share one KGE ScoreBatch call (the KGE scorers
  /// are rowwise, so the batched scores are bitwise equal to Score()).
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  /// The path by which the beam search reached this item for this user,
  /// rendered as text ("" if the item was not reached).
  std::string ExplainPath(int32_t user, int32_t item) const;

  std::string HyperFingerprint() const override;

 protected:
  /// Stores the KGE backend and policy-network parameters. PrepareLoad
  /// replays Fit's exact constructor/Rng prefix so the pruned action sets
  /// come out identical, and FinishLoad re-runs the (deterministic) beam
  /// search against the restored parameters. Ekar inherits all of this:
  /// only name() and Reward() differ, both config-free.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;
  Status FinishLoad(const RecContext& context) override;

  struct ReachedItem {
    float value = 0.0f;
    PathInstance path;
  };

  /// Policy logits over the pruned out-edges of `current` for `user`.
  nn::Tensor ActionLogits(int32_t user, EntityId current,
                          const std::vector<Edge>& actions) const;

  /// Pruned deterministic action set of an entity.
  const std::vector<Edge>& Actions(EntityId entity) const;

  /// Reward of ending at `entity` for `user`. Virtual: Ekar overrides
  /// with its binary known-interaction reward.
  virtual float Reward(int32_t user, EntityId entity) const;

  void RunBeamSearch();

  PgprConfig config_;
  const UserItemGraph* graph_ = nullptr;
  const InteractionDataset* train_ = nullptr;
  std::unique_ptr<KgeModel> kge_;
  nn::Linear policy_hidden_;
  nn::Linear policy_out_;
  std::vector<std::vector<Edge>> pruned_actions_;
  /// Per user: items reached by the beam with their path and value.
  std::vector<std::unordered_map<int32_t, ReachedItem>> reached_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_PGPR_H_
