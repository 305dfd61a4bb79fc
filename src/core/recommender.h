#ifndef KGREC_CORE_RECOMMENDER_H_
#define KGREC_CORE_RECOMMENDER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/interactions.h"
#include "data/synthetic.h"
#include "graph/knowledge_graph.h"

namespace kgrec {

class StateVisitor;
struct CheckpointHeader;  // core/serialize.h
struct NamedTensor;       // core/serialize.h
struct EventBatch;        // data/event_stream.h

/// Everything a model may consume at training time. Models use the
/// subset they need: CF baselines read only `train`; embedding-based
/// methods add `item_kg`; CFKG/KGAT/path-based methods read
/// `user_item_graph`.
///
/// Entity-layout conventions:
///  * in `item_kg`, entity j == item j for j < train->num_items();
///  * in `user_item_graph->kg`, entity u == user u and entity
///    (num_users + j) == item j (see UserItemGraph helpers).
struct RecContext {
  const InteractionDataset* train = nullptr;
  const KnowledgeGraph* item_kg = nullptr;
  const UserItemGraph* user_item_graph = nullptr;
  uint64_t seed = 7;
};

/// Base interface of every recommender in the zoo (survey Section 2.2):
/// learn representations, expose a scoring function f(u, v) -> y_hat, and
/// rank items by descending preference score.
///
/// Serve-path contract: after Fit() (or Load()), the const methods —
/// Score, ScoreItems, ScoreAll — are **mutation-free and thread-safe**:
/// any number of threads may score concurrently with no locking. No model
/// may hide writes behind `mutable` members or const_cast on this path;
/// per-call scratch lives on the stack of the call. The serving layer
/// (serve/serve_handle.h) holds models as `const Recommender` so the
/// compiler enforces the const half, and the TSan-gated serve concurrency
/// suite enforces the no-hidden-writes half across the zoo.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// A short identifier, e.g. "RippleNet".
  virtual std::string name() const = 0;

  /// Trains the model. Must be called exactly once before scoring.
  virtual void Fit(const RecContext& context) = 0;

  /// Predicted preference y_hat_{u,v} as an unnormalized score (higher =
  /// preferred). Implementations must be usable for any valid user/item
  /// pair, including items unseen in training (cold start).
  virtual float Score(int32_t user, int32_t item) const = 0;

  /// Scores a batch of candidate items for one user; the hot path of both
  /// evaluation protocols and of top-N serving (rank N candidates with
  /// one call instead of N f(u, v) evaluations).
  ///
  /// Contract: `ScoreItems(u, items)[i]` must equal `Score(u, items[i])`
  /// **bitwise** for every model, so the eval protocols may route through
  /// either path without changing metrics (registry_smoke_test locks this
  /// down for the whole zoo). The default loops over Score(); models that
  /// recompute per-user state on every Score() call (ripple sets, H-hop
  /// receptive fields, path enumeration) override it to hoist that state
  /// out of the per-candidate loop. Overrides must therefore only batch
  /// row-independent work — never fold scores across candidates.
  virtual std::vector<float> ScoreItems(int32_t user,
                                        std::span<const int32_t> items) const;

  /// Scores every item for the user. Routed through ScoreItems(), so a
  /// batched override accelerates full-catalog ranking too.
  virtual std::vector<float> ScoreAll(int32_t user, int32_t num_items) const;

  /// Serializes the fitted model to a KGRC checkpoint at `path`: PackState
  /// followed by SaveCheckpoint (core/serialize.h). The write is atomic —
  /// a failed save never clobbers an existing good checkpoint. Must be
  /// called after Fit().
  Status Save(const std::string& path) const;

  /// Restores a model saved by Save() into this un-fitted instance:
  /// LoadCheckpoint followed by RestoreState. The context must describe
  /// the same dataset the model was trained on: derived state that is
  /// deterministically rebuildable (ripple sets, path contexts,
  /// similarity lists, sampled neighborhoods) is recomputed from it
  /// rather than stored, and the restored model's ScoreItems() output is
  /// bitwise identical to the fitted one's (enforced zoo-wide by
  /// bench/checkpoint_roundtrip and registry_smoke_test). Refuses
  /// checkpoints whose model name, format version or hyper-parameter
  /// fingerprint do not match.
  Status Load(const RecContext& context, const std::string& path);

  /// The pack half of Save(), with no file involved: fills `header`
  /// (model name, hyper-parameter fingerprint) and `tensors` (the learned
  /// state named by VisitState). Must be called after Fit().
  Status PackState(CheckpointHeader* header,
                   std::vector<NamedTensor>* tensors) const;

  /// The restore half of Load(): refuses a header naming another model
  /// or fingerprint with FailedPrecondition, then runs PrepareLoad,
  /// unpacks `tensors` through VisitState (every tensor must be
  /// consumed) and runs FinishLoad. `source` names where the state came
  /// from (a path, or a clone) in error messages.
  Status RestoreState(const RecContext& context,
                      const CheckpointHeader& header,
                      std::vector<NamedTensor> tensors,
                      const std::string& source);

  /// Deterministic "key=value;..." rendering of the hyper-parameters,
  /// stored in the checkpoint header and compared on Load so a
  /// checkpoint trained under one config cannot be silently served under
  /// another.
  virtual std::string HyperFingerprint() const { return ""; }

  /// Opt-in online update (DESIGN.md §13): folds a batch of stream
  /// events into the fitted model without a full retrain. `context`
  /// must point at the world AFTER the batch was applied (the grown
  /// InteractionDataset / KnowledgeGraph / UserItemGraph), with the
  /// same seed the model was fit under.
  ///
  /// Contract for implementers (enforced zoo-wide by the update suite
  /// and bench/online_updates --smoke):
  ///  * deterministic — runs serially; every RNG draw comes from
  ///    counter-keyed forks of Rng(context.seed) (per-event:
  ///    Fork(event.timestamp); per-new-row: Fork(row id)), never from
  ///    stored RNG state, so fit->update and save->load->update are
  ///    bitwise identical and no thread count enters the result;
  ///  * after Update returns, the serve-path const contract holds
  ///    again (Score/ScoreItems thread-safe, mutation-free);
  ///  * on any non-OK return the model is unchanged;
  ///  * it passes its own full online_updates gate (<model>/recovers):
  ///    a fold that serves worse than not folding is worse than none.
  /// The default refuses with kUnimplemented and touches nothing.
  virtual Status Update(const RecContext& context, const EventBatch& batch);

  /// True when this model implements Update(). Registry-queryable via
  /// SupportsUpdate(name) without fitting (a property of the type).
  virtual bool SupportsUpdate() const { return false; }

 protected:
  /// Names every piece of learned state for PackState and RestoreState;
  /// see StateVisitor (core/model_state.h). State rebuildable from the
  /// RecContext belongs in PrepareLoad/FinishLoad instead.
  virtual Status VisitState(StateVisitor* visitor);

  /// Load step 1, before the state is unpacked: rebuild derived
  /// structures and construct parameter-holding modules (layers, KGE
  /// backends) so VisitState can restore them in place. Deterministic
  /// replays of the Fit() preamble belong here.
  virtual Status PrepareLoad(const RecContext& context);

  /// Load step 2, after the state is unpacked: recompute caches that
  /// depend on the restored parameters (e.g. PGPR's beam search).
  virtual Status FinishLoad(const RecContext& context);
};

}  // namespace kgrec

#endif  // KGREC_CORE_RECOMMENDER_H_
