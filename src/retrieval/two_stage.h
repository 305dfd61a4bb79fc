#ifndef KGREC_RETRIEVAL_TWO_STAGE_H_
#define KGREC_RETRIEVAL_TWO_STAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/recommender.h"
#include "core/status.h"
#include "retrieval/index.h"

namespace kgrec::retrieval {

/// Candidate-generation knobs for the two-stage path.
struct TwoStageConfig {
  /// Candidates retrieved per requested k (C = max(k * candidates_per_k,
  /// min_candidates)): the re-rank stage sees C exact scores, so a
  /// larger multiplier trades re-rank cost for recall.
  size_t candidates_per_k = 8;
  size_t min_candidates = 128;
  /// Scan representation of the stage-1 index, an exact blocked scan
  /// whose top-C is the candidate model's true top-C (float32, or SQ8
  /// with float re-rank — see retrieval/index.h ScanSpec).
  ScanSpec scan;
};

/// The two-stage retrieve-then-rerank architecture every production
/// recommender converges on (ROADMAP; DESIGN §10): a *factorizable*
/// candidate model (stage 1) retrieves C candidates through an index
/// over its exported item factors, and the serving model (stage 2 — any
/// Recommender, factorizable or not: RippleNet, path RNNs, ...) re-ranks
/// exactly those C candidates with one batched ScoreItems call. Returned
/// scores are the *ranker's* — bitwise what the exhaustive path would
/// have assigned those items.
class TwoStageRetriever {
 public:
  /// Builds the candidate index from `candidate_model`'s factor export.
  /// Fails with FailedPrecondition when the model does not implement
  /// DotProductFactors. The retriever shares ownership of the candidate
  /// model (its factors are copied into the index; the model itself is
  /// only needed for FillUserQuery at query time).
  static Status Create(std::shared_ptr<const Recommender> candidate_model,
                       const TwoStageConfig& config,
                       std::unique_ptr<const TwoStageRetriever>* out);

  /// Stage 1 + stage 2 for one user. `sorted_exclude` must be canonical
  /// (retrieval::SanitizeExclude). Returns min(k, candidates) pairs,
  /// best-first under the ranker's scores (RankBetter order).
  std::vector<std::pair<int32_t, float>> Recommend(
      const Recommender& ranker, int32_t user, size_t k,
      std::span<const int32_t> sorted_exclude = {}) const;

  const ItemIndex& index() const { return *index_; }
  /// Users stage 1 can serve: the candidate model's factor_users().
  size_t num_users() const { return factors_->factor_users(); }
  const TwoStageConfig& config() const { return config_; }

 private:
  TwoStageRetriever(std::shared_ptr<const Recommender> candidate_model,
                    const DotProductFactors* factors,
                    std::unique_ptr<const ItemIndex> index,
                    const TwoStageConfig& config)
      : candidate_model_(std::move(candidate_model)),
        factors_(factors),
        index_(std::move(index)),
        config_(config) {}

  std::shared_ptr<const Recommender> candidate_model_;
  const DotProductFactors* factors_;  // view into *candidate_model_
  std::unique_ptr<const ItemIndex> index_;
  TwoStageConfig config_;
};

}  // namespace kgrec::retrieval

#endif  // KGREC_RETRIEVAL_TWO_STAGE_H_
