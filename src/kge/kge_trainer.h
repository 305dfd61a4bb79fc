#ifndef KGREC_KGE_KGE_TRAINER_H_
#define KGREC_KGE_KGE_TRAINER_H_

#include <cstdint>

#include "graph/knowledge_graph.h"
#include "kge/kge_model.h"
#include "math/rng.h"

namespace kgrec {

/// Hyper-parameters for margin-ranking KGE training (survey Eq. 11).
struct KgeTrainConfig {
  int epochs = 20;
  size_t batch_size = 256;
  float learning_rate = 0.05f;
  float margin = 1.0f;
  float l2 = 1e-5f;
  uint64_t seed = 11;
  /// Training threads: a speed knob only (0 runs inline like 1).
  size_t num_threads = 1;
  /// Examples per gradient shard. Each minibatch splits into fixed
  /// shards; shard s of batch b draws its negatives from Fork(b).Fork(s)
  /// and shard gradients reduce in shard order, so trained parameters
  /// depend on (seed, batch_size, shard_size) and never on num_threads.
  size_t shard_size = 64;
};

/// Trains a KGE model on the graph's triples with uniform head-or-tail
/// corruption negatives and the hinge loss
///   [margin - g(h,r,t) + g(h',r,t')]_+   (scores: higher = plausible).
/// Returns the final mean epoch loss.
float TrainKge(KgeModel& model, const KnowledgeGraph& graph,
               const KgeTrainConfig& config);

/// Link-prediction quality on a sample of the graph's triples: each test
/// triple's tail is ranked against `num_candidates` random corrupted
/// tails (filtered: corruptions that form true triples are skipped).
struct LinkPredictionMetrics {
  double mrr = 0.0;
  double hits_at_1 = 0.0;
  double hits_at_3 = 0.0;
  double hits_at_10 = 0.0;
  size_t num_queries = 0;
};

LinkPredictionMetrics EvaluateLinkPrediction(const KgeModel& model,
                                             const KnowledgeGraph& graph,
                                             size_t num_queries,
                                             size_t num_candidates, Rng& rng);

}  // namespace kgrec

#endif  // KGREC_KGE_KGE_TRAINER_H_
