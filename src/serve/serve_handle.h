#ifndef KGREC_SERVE_SERVE_HANDLE_H_
#define KGREC_SERVE_SERVE_HANDLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/recommender.h"
#include "core/status.h"
#include "retrieval/index.h"
#include "retrieval/two_stage.h"

namespace kgrec::serve {

/// How a handle answers Recommend() (DESIGN §10). Everything except kIvf
/// returns the model's *exact* top-k; the default kAuto never fails and
/// never changes a result — it only swaps the O(catalog)-memory scan for
/// the O(K)-memory index scan when the model's factorization allows it.
struct RetrievalSpec {
  enum class Mode {
    /// Exact index when the model is factorizable, else exhaustive.
    kAuto,
    /// ScoreAll + streaming bounded top-K (any model).
    kExhaustive,
    /// BruteForceIndex over the model's factor export — bitwise the
    /// exhaustive result; requires DotProductFactors.
    kExact,
    /// IvfIndex (approximate, sublinear); requires DotProductFactors.
    kIvf,
    /// `candidate_model`'s index retrieves C candidates, the served
    /// model re-ranks them exactly — the path for non-factorizable
    /// rankers (RippleNet, path RNNs, KTUP).
    kTwoStage,
  };
  Mode mode = Mode::kAuto;
  /// IVF build knobs (kIvf).
  retrieval::IvfConfig ivf;
  /// Stage-1 model (kTwoStage); must implement DotProductFactors.
  std::shared_ptr<const Recommender> candidate_model;
  /// Candidate-generation knobs (kTwoStage) — including its own stage-1
  /// ScanSpec (two_stage.scan).
  retrieval::TwoStageConfig two_stage;
  /// Scan representation for the index modes (kAuto/kExact/kIvf):
  /// float32, or SQ8 — the quantized scan with exact float32 re-rank
  /// (retrieval/index.h ScanSpec). SQ8 keeps the served top-k bitwise
  /// identical to float32 whenever the over-fetched candidate pool
  /// contains the true top-k, which the retrieval gates hold zoo-wide.
  retrieval::ScanSpec scan;
};

/// An immutable, thread-safe serving view of one fitted model.
///
/// A ServeHandle owns its model through a `const Recommender` pointer, so
/// the whole serve path — Score / ScoreItems / Recommend — is const by
/// construction: a model whose scoring needs to mutate state (a lazy
/// cache, a scratch buffer) does not compile behind a handle. Combined
/// with the zoo-wide audit that no Score path writes through `mutable`
/// members or const_cast (see DESIGN §9), any number of threads may call
/// into one handle concurrently with no locking.
///
/// Handles are created once, by adopting a fitted or loaded model via
/// Adopt(), and never modified; "updating" a serving process means
/// building a *new* handle and atomically swapping it in (see Router).
/// They are therefore always held as `std::shared_ptr<const
/// ServeHandle>`: an in-flight request keeps its generation of the model
/// alive however quickly the router moves on.
class ServeHandle {
 public:
  /// Wraps a fitted model under the default kAuto retrieval spec, which
  /// fails (a CHECK) only for a model fit on another catalog than the
  /// context's. The model comes from Fit() in-process, from a
  /// checkpoint via LoadModel() (core/registry.h), or — for models
  /// trained under non-registry hyper-parameters, whose checkpoints
  /// LoadModel() refuses — from Load() into a caller-constructed
  /// instance of the matching config. The context supplies the catalog
  /// size; the handle takes ownership of the model. `generation` is an
  /// opaque tag stamped into every response served from this handle (the
  /// Router assigns consecutive generations; standalone users may pass
  /// anything).
  static std::shared_ptr<const ServeHandle> Adopt(
      std::unique_ptr<const Recommender> model, const RecContext& context,
      uint64_t generation);

  /// Adopt with an explicit retrieval spec. Unlike the kAuto overload
  /// above this can fail (kExact/kIvf on a non-factorizable model,
  /// kTwoStage with a non-factorizable candidate, or an index whose
  /// catalog size differs from the context's), so it returns Status.
  static Status Adopt(std::unique_ptr<const Recommender> model,
                      const RecContext& context, uint64_t generation,
                      const RetrievalSpec& spec,
                      std::shared_ptr<const ServeHandle>* out);

  const std::string& model_name() const { return model_name_; }
  uint64_t generation() const { return generation_; }
  /// context.train's user and item counts at Adopt. The model's tables
  /// cover exactly these ranges: Score, ScoreItems and Recommend read
  /// out of bounds for any other id, so the Router rejects such requests
  /// with InvalidArgument.
  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }

  /// f(u, v) — forwards to the model's const Score().
  float Score(int32_t user, int32_t item) const;

  /// Batched candidate scoring — forwards to the model's const
  /// ScoreItems(), inheriting its bitwise-equality contract with Score().
  std::vector<float> ScoreItems(int32_t user,
                                std::span<const int32_t> items) const;

  /// Catalog top-k: (item, score) pairs, best-first under the library
  /// ranking order (math/topk.h RankBetter: higher score first, NaN last,
  /// ties toward the smaller item id). `exclude` (e.g. the user's
  /// training history; any order, duplicates and out-of-range ids
  /// tolerated) never appears in the result — exclusion is a selection
  /// filter, not a score overwrite, so items whose *real* score is -inf
  /// are still ranked and excluded items are never returned.
  ///
  /// Which machinery answers is fixed at construction (RetrievalSpec);
  /// every mode except kIvf returns the model's exact top-k, and the
  /// index modes return it without materializing a catalog-sized score
  /// vector per request.
  std::vector<std::pair<int32_t, float>> Recommend(
      int32_t user, size_t k, std::span<const int32_t> exclude = {}) const;

  /// The wrapped model, const-only — the compiler enforces that callers
  /// cannot reach a mutating member function from a serving context.
  const Recommender& model() const { return *model_; }

  /// "exhaustive", "exact-index", "ivf-index" or "two-stage"; the index
  /// modes append "+sq8" when the scan is quantized (e.g.
  /// "exact-index+sq8").
  const std::string& retrieval_mode() const { return retrieval_mode_; }

  /// The index answering Recommend(), or nullptr on the exhaustive path
  /// (for two-stage, the candidate index).
  const retrieval::ItemIndex* index() const {
    return two_stage_ != nullptr ? &two_stage_->index() : index_.get();
  }

 private:
  ServeHandle(std::unique_ptr<const Recommender> model,
              const RecContext& context, uint64_t generation);

  /// Builds index_/two_stage_ per `spec`; called once before publishing.
  Status BuildRetrieval(const RetrievalSpec& spec);

  std::unique_ptr<const Recommender> model_;
  std::string model_name_;
  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  uint64_t generation_ = 0;

  /// The model's factor surface when it has one (a view into *model_).
  const DotProductFactors* factors_ = nullptr;
  /// Exactly one of these is set for the index modes; both empty on the
  /// exhaustive path.
  std::unique_ptr<const retrieval::ItemIndex> index_;
  std::unique_ptr<const retrieval::TwoStageRetriever> two_stage_;
  std::string retrieval_mode_ = "exhaustive";
};

}  // namespace kgrec::serve

#endif  // KGREC_SERVE_SERVE_HANDLE_H_
