#ifndef KGREC_UNIFIED_RIPPLENET_H_
#define KGREC_UNIFIED_RIPPLENET_H_

#include <cstdint>
#include <vector>

#include "core/mem_stats.h"
#include "core/recommender.h"
#include "graph/ripple.h"
#include "nn/tensor.h"

namespace kgrec {

/// Hyper-parameters for RippleNet.
struct RippleNetConfig {
  size_t dim = 16;
  /// Number of ripple hops H.
  size_t num_hops = 2;
  /// Fixed ripple-set size per hop (padded by resampling).
  size_t hop_size = 32;
  int epochs = 15;
  size_t batch_size = 128;
  float learning_rate = 0.05f;
  float l2 = 1e-5f;
  /// Weight of the KGE regularization term ||R - E^T E|| surrogate
  /// (we regularize hop triple plausibility h^T R t).
  float kge_weight = 0.01f;
  /// Training threads: a speed knob only (0 runs inline like 1).
  size_t num_threads = 1;
};

/// RippleNet (Wang et al., CIKM'18; survey Eq. 24-26): the first
/// preference-propagation model. A user's interests ripple outward from
/// their clicked items along KG triples; hop responses
///   o_u^h = sum_i softmax_i(v^T R_i h_i) t_i
/// are summed into the user embedding and scored against the candidate
/// with a sigmoid inner product.
class RippleNetRecommender : public Recommender {
 public:
  explicit RippleNetRecommender(RippleNetConfig config = {})
      : config_(config) {}

  std::string name() const override { return "RippleNet"; }
  void Fit(const RecContext& context) override;
  float Score(int32_t user, int32_t item) const override;

  /// Batched fast path: the ripple-set tensors (seed response, per-hop
  /// h^T R products and tail embeddings) depend only on the user, so they
  /// are computed once and re-tiled across candidates, skipping the
  /// O(hop_size * dim^2) RowwiseVecMat per candidate that Score() pays.
  /// Uses the same op sequence as Forward(), so results are bitwise equal.
  /// Covers RippleNet-agg and AKUPM through the ItemVectors /
  /// CombineResponses hooks (both are candidate-rowwise).
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const override;

  /// Online update (DESIGN §13): a structural refresh, no SGD. The
  /// entity table and ripple arena grow for kNewEntity / kNewUser
  /// events (counter-keyed rows); then every user whose ripple sets
  /// could see the batch — users with new interactions plus users whose
  /// history lies within num_hops of a new fact's endpoints (one
  /// multi-source BFS over the updated KG) — gets their ripple row
  /// rebuilt from their own Fork(user)-keyed streams. Subclass aux
  /// (RippleNet-agg's item neighborhoods) refreshes through the
  /// RefreshAux hook; AKUPM inherits everything.
  Status Update(const RecContext& context, const EventBatch& batch) override;
  bool SupportsUpdate() const override { return true; }

  std::string HyperFingerprint() const override;

 protected:
  /// Stores the entity embeddings and relation matrices — the only
  /// learned parameters. The ripple sets (and any subclass aux built by
  /// PrepareAux) are rebuilt by PrepareLoad replaying Fit's exact Rng
  /// prefix, so they match training bitwise. Subclasses (RippleNet-agg,
  /// AKUPM) add no parameters of their own and inherit these hooks.
  Status VisitState(StateVisitor* visitor) override;
  Status PrepareLoad(const RecContext& context) override;

  /// Fit's preamble, shared with PrepareLoad: allocates the parameter
  /// tensors, runs PrepareAux and builds every user's ripple sets. All
  /// draws come from `rng` in a fixed order, so calling this with
  /// Rng(context.seed) reproduces Fit's derived state exactly.
  void BuildPropagationState(const RecContext& context, Rng& rng);

  /// Dense arena holding every user's fixed-size padded ripple sets.
  /// All per-user shapes are static (num_hops x hop_size triples plus
  /// hop_size seeds), so instead of 3 heap-allocated vectors per hop per
  /// user the whole model shares six flat buffers with computed strides
  /// — at 10^6 users that removes millions of small allocations and
  /// their per-vector header overhead.
  struct RippleArena {
    size_t num_hops = 0;
    size_t hop_size = 0;
    /// [num_users * num_hops * hop_size] each.
    std::vector<int32_t> heads;
    std::vector<int32_t> relations;
    std::vector<int32_t> tails;
    /// [num_users * hop_size]: seed items padded to hop_size with
    /// per-slot averaging weights (the 0-hop response o_u^0 = mean of
    /// clicked-item embeddings).
    std::vector<int32_t> seeds;
    std::vector<float> seed_weights;
    /// [num_users]: 0 until the user's slices are filled (users with no
    /// training history stay unfilled and score 0).
    std::vector<uint8_t> filled;

    void Reset(size_t num_users, size_t hops, size_t size);
    /// Appends zero-filled rows for users [old, num_users); existing
    /// rows are untouched (the layout is user-major).
    void Grow(size_t num_users);
    bool empty(int32_t user) const { return filled[user] == 0; }
    size_t SeedOffset(int32_t user) const {
      return static_cast<size_t>(user) * hop_size;
    }
    size_t HopOffset(int32_t user, size_t hop) const {
      return (static_cast<size_t>(user) * num_hops + hop) * hop_size;
    }
    void MemoryUse(MemoryVisitor& visitor) const;
  };

  /// Differentiable forward: logits [B,1] for (users, items) pairs.
  nn::Tensor Forward(const std::vector<int32_t>& users,
                     const std::vector<int32_t>& items) const;

  /// Hook: combines hop responses [B*H rows grouped] into the user
  /// vector. RippleNet sums; AKUPM overrides with self-attention.
  virtual nn::Tensor CombineResponses(const std::vector<nn::Tensor>& responses,
                                      const nn::Tensor& item_vecs) const;

  /// Hook: candidate-item representation [B, dim]. RippleNet uses the
  /// plain entity embedding; RippleNet-agg aggregates the item's entity
  /// ripple set (its KG neighborhood) into it.
  virtual nn::Tensor ItemVectors(const std::vector<int32_t>& items) const;

  /// Hook: called at the start of Fit() after embeddings exist, so
  /// subclasses can build auxiliary structures (sampled neighborhoods).
  virtual void PrepareAux(const RecContext& context, Rng& rng);

  /// Hook: called by Update() with the (deduped, ascending) item
  /// entities whose KG adjacency the batch changed, so subclasses can
  /// refresh per-item aux. Item j must draw only from base_rng.Fork(j).
  /// Default does nothing.
  virtual void RefreshAux(const RecContext& context,
                          const std::vector<int32_t>& touched_items,
                          const Rng& base_rng);

  /// Builds one user's padded seed slots and hop triples into the arena
  /// from their training history (users with none stay unfilled). Hop
  /// construction draws from hop_rng.Fork(user) and padding from
  /// pad_rng.Fork(user). Shared by the fit-time build and Update's
  /// refresh; users own disjoint arena rows, so they may be built
  /// concurrently.
  void BuildUserRipples(const InteractionDataset& train,
                        const KnowledgeGraph& kg, int32_t user,
                        const Rng& hop_rng, const Rng& pad_rng);

  RippleNetConfig config_;
  RippleArena ripples_;
  nn::Tensor entity_emb_;
  nn::Tensor relation_mats_;  // [num_relations, dim*dim]
};

}  // namespace kgrec

#endif  // KGREC_UNIFIED_RIPPLENET_H_
