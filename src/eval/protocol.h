#ifndef KGREC_EVAL_PROTOCOL_H_
#define KGREC_EVAL_PROTOCOL_H_

#include <cstddef>
#include <cstdint>

#include "core/recommender.h"
#include "data/interactions.h"

namespace kgrec {

/// Knobs of the evaluation protocols. The defaults reproduce the
/// library-wide convention (K = 10, 50 sampled negatives, serial).
///
/// Determinism contract: for a fixed `seed`, both evaluators produce
/// **bitwise identical** metrics for every value of `num_threads`.
/// Negatives are drawn from per-work-unit counter-based RNG streams
/// (`Rng::Fork`): EvaluateTopK forks one stream per user id, EvaluateCtr
/// one stream per test-interaction index, so the sampled candidates never
/// depend on the order in which threads pick up work. Per-user partial
/// metrics are written into preallocated slots and reduced serially in
/// user order, so even floating-point summation order is fixed.
///
/// Both evaluators score candidates through `Recommender::ScoreItems`
/// (one batched call per user); its bitwise-equivalence contract with
/// `Score` keeps metrics identical to the historical per-item loop.
struct EvalOptions {
  /// Worker threads for the per-user / per-interaction loops. 1 = run
  /// inline on the caller's thread; values above 1 use a ThreadPool.
  size_t num_threads = 1;
  /// Sampled negatives per user in the top-K candidate pool.
  size_t num_negatives = 50;
  /// Cutoff of the @K ranking metrics.
  size_t k = 10;
  /// Root seed of the per-unit RNG streams.
  uint64_t seed = 0x5eedULL;
};

/// Click-through-rate style evaluation: for every test interaction a
/// random non-interacted item is paired as a negative (1:1), the model
/// scores both, and threshold-free / threshold metrics are computed.
/// A pair is skipped (not scored, not counted) only when the user has
/// interacted with every item in the catalog, i.e. no valid negative
/// exists.
struct CtrMetrics {
  double auc = 0.0;
  double accuracy = 0.0;
  double f1 = 0.0;
  /// Number of evaluated (positive, negative) pairs — equal to the number
  /// of test interactions minus any skipped pairs. (Historically this
  /// reported 2× the pair count, the raw score-vector length.)
  size_t num_pairs = 0;
};

CtrMetrics EvaluateCtr(const Recommender& model, const InteractionDataset& train,
                       const InteractionDataset& test,
                       const EvalOptions& options = {});

/// Top-K evaluation: for every user with test interactions, rank that
/// user's test items against `num_negatives` sampled non-interacted items
/// (the standard sampled-candidate protocol) and average ranking metrics.
struct TopKMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double hit_rate = 0.0;
  double ndcg = 0.0;
  double mrr = 0.0;
  size_t num_users = 0;
};

TopKMetrics EvaluateTopK(const Recommender& model,
                         const InteractionDataset& train,
                         const InteractionDataset& test,
                         const EvalOptions& options = {});

}  // namespace kgrec

#endif  // KGREC_EVAL_PROTOCOL_H_
