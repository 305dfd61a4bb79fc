#include "kge/kge_trainer.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "nn/optim.h"

namespace kgrec {

// Minibatch b splits into fixed-size shards, shard s draws its
// corruption negatives from rng.Fork(b).Fork(s), and MiniBatchTrainer
// reduces shard gradients in shard order before a single Adagrad apply.
// The epoch RNG advances only through Shuffle, so per-batch forks are
// reproducible; thread count never enters the arithmetic.
float TrainKge(KgeModel& model, const KnowledgeGraph& graph,
               const KgeTrainConfig& config) {
  KGREC_CHECK_GT(graph.num_triples(), 0u);
  Rng rng(config.seed);
  const auto& triples = graph.triples();
  nn::Adagrad optimizer(model.Params(), config.learning_rate);
  nn::MiniBatchTrainer trainer(optimizer, config.shard_size,
                               config.num_threads);

  std::vector<size_t> order(triples.size());
  std::iota(order.begin(), order.end(), size_t{0});

  float last_epoch_loss = 0.0f;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t num_batches = 0;
    for (size_t start = 0; start < order.size();
         start += config.batch_size) {
      const size_t end = std::min(order.size(), start + config.batch_size);
      const size_t batch_count = end - start;
      const Rng batch_rng = rng.Fork(num_batches);
      epoch_loss += trainer.Step(
          batch_count, batch_rng,
          [&](size_t shard_begin, size_t shard_end, Rng& shard_rng) {
            std::vector<int32_t> heads, rels, tails;
            std::vector<int32_t> neg_heads, neg_tails;
            heads.reserve(shard_end - shard_begin);
            rels.reserve(shard_end - shard_begin);
            tails.reserve(shard_end - shard_begin);
            neg_heads.reserve(shard_end - shard_begin);
            neg_tails.reserve(shard_end - shard_begin);
            for (size_t i = shard_begin; i < shard_end; ++i) {
              const Triple& t = triples[order[start + i]];
              heads.push_back(t.head);
              rels.push_back(t.relation);
              tails.push_back(t.tail);
              int32_t nh = t.head, nt = t.tail;
              if (shard_rng.Bernoulli(0.5)) {
                nh = static_cast<int32_t>(
                    shard_rng.UniformInt(graph.num_entities()));
              } else {
                nt = static_cast<int32_t>(
                    shard_rng.UniformInt(graph.num_entities()));
              }
              neg_heads.push_back(nh);
              neg_tails.push_back(nt);
            }
            nn::Tensor pos = model.ScoreBatch(heads, rels, tails);
            nn::Tensor neg = model.ScoreBatch(neg_heads, rels, neg_tails);
            // Shard-decomposable form of the batch-mean hinge: each
            // shard contributes Sum(...)/batch_count, so the ordered
            // sum of shard gradients equals the whole-batch mean
            // gradient. The L2 term is already a per-element sum.
            nn::Tensor loss = nn::ScaleBy(
                nn::Sum(nn::Relu(
                    nn::AddConst(nn::Sub(neg, pos), config.margin))),
                1.0f / static_cast<float>(batch_count));
            if (config.l2 > 0.0f) {
              nn::Tensor reg = nn::Add(nn::L2Norm(pos), nn::L2Norm(neg));
              loss = nn::Add(loss, nn::ScaleBy(reg, config.l2));
            }
            return loss;
          });
      ++num_batches;
    }
    model.PostEpoch();
    last_epoch_loss =
        num_batches > 0 ? static_cast<float>(epoch_loss / num_batches) : 0.0f;
  }
  return last_epoch_loss;
}

LinkPredictionMetrics EvaluateLinkPrediction(const KgeModel& model,
                                             const KnowledgeGraph& graph,
                                             size_t num_queries,
                                             size_t num_candidates,
                                             Rng& rng) {
  LinkPredictionMetrics out;
  const auto& triples = graph.triples();
  if (triples.empty()) return out;
  num_queries = std::min(num_queries, triples.size());
  std::vector<size_t> picks =
      rng.SampleWithoutReplacement(triples.size(), num_queries);
  for (size_t pick : picks) {
    const Triple& t = triples[pick];
    std::vector<int32_t> heads{t.head}, rels{t.relation}, tails{t.tail};
    size_t guard = 0;
    while (tails.size() < num_candidates + 1 &&
           guard++ < num_candidates * 20) {
      const int32_t cand =
          static_cast<int32_t>(rng.UniformInt(graph.num_entities()));
      if (cand == t.tail) continue;
      if (graph.HasTriple(t.head, t.relation, cand)) continue;  // filtered
      heads.push_back(t.head);
      rels.push_back(t.relation);
      tails.push_back(cand);
    }
    nn::Tensor scores = model.ScoreBatch(heads, rels, tails);
    const float true_score = scores.data()[0];
    size_t rank = 1;
    for (size_t i = 1; i < scores.size(); ++i) {
      if (scores.data()[i] > true_score) ++rank;
    }
    out.mrr += 1.0 / static_cast<double>(rank);
    out.hits_at_1 += rank <= 1 ? 1.0 : 0.0;
    out.hits_at_3 += rank <= 3 ? 1.0 : 0.0;
    out.hits_at_10 += rank <= 10 ? 1.0 : 0.0;
    ++out.num_queries;
  }
  if (out.num_queries > 0) {
    out.mrr /= out.num_queries;
    out.hits_at_1 /= out.num_queries;
    out.hits_at_3 /= out.num_queries;
    out.hits_at_10 /= out.num_queries;
  }
  return out;
}

}  // namespace kgrec
