#include "unified/kgat.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "core/thread_pool.h"
#include "math/kernels.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

void KgatRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = graph_->kg;
  const size_t num_entities = kg.num_entities();
  const size_t d = config_.dim;
  Rng rng(context.seed);

  nn::Tensor entity_emb = nn::NormalInit(num_entities, d, 0.1f, rng);
  nn::Tensor relation_emb = nn::NormalInit(kg.num_relations(), d, 0.1f, rng);
  std::vector<Aggregator> aggregators;
  for (size_t l = 0; l < config_.num_layers; ++l) {
    aggregators.emplace_back(AggregatorKind::kBiInteraction, d, rng);
  }

  // Edge arrays over the whole user-item KG.
  const auto& triples = kg.triples();
  std::vector<int32_t> edge_heads, edge_rels, edge_tails;
  edge_heads.reserve(triples.size());
  for (const Triple& t : triples) {
    edge_heads.push_back(t.head);
    edge_rels.push_back(t.relation);
    edge_tails.push_back(t.tail);
  }

  // Group triple indices by head entity once (stable counting sort, so
  // each head's triples keep their global scan order). The attention
  // softmax never mixes heads: max, denominator, and normalization all
  // stay within one head's contiguous index range.
  std::vector<size_t> head_ptr(num_entities + 1, 0);
  for (int32_t h : edge_heads) ++head_ptr[static_cast<size_t>(h) + 1];
  for (size_t e = 0; e < num_entities; ++e) head_ptr[e + 1] += head_ptr[e];
  std::vector<size_t> head_triples(triples.size());
  {
    std::vector<size_t> cursor(head_ptr.begin(), head_ptr.end() - 1);
    for (size_t i = 0; i < triples.size(); ++i) {
      head_triples[cursor[edge_heads[i]]++] = i;
    }
  }

  // Knowledge-aware attention, refreshed once per epoch from the current
  // level-0 embeddings (as KGAT alternates attention and embedding
  // updates): pi(h,r,t) = e_t . tanh(e_h + e_r), softmaxed per head.
  // One pass per head entity, parallelized over entities: heads are
  // independent and within-head accumulation follows ascending triple
  // index, so the result is bitwise-identical at any thread count.
  std::vector<float> edge_attention(triples.size(), 0.0f);
  auto refresh_attention = [&] {
    const Status status = ParallelFor(
        num_entities, config_.num_threads, [&](size_t begin, size_t end) {
          for (size_t h = begin; h < end; ++h) {
            const size_t lo = head_ptr[h];
            const size_t hi = head_ptr[h + 1];
            if (lo == hi) continue;
            float max_v = -std::numeric_limits<float>::infinity();
            for (size_t idx = lo; idx < hi; ++idx) {
              const size_t i = head_triples[idx];
              const float* he = entity_emb.data() + edge_heads[i] * d;
              const float* re = relation_emb.data() + edge_rels[i] * d;
              const float* te = entity_emb.data() + edge_tails[i] * d;
              float acc = 0.0f;
              for (size_t c = 0; c < d; ++c) {
                acc += te[c] * std::tanh(he[c] + re[c]);
              }
              edge_attention[i] = acc;
              max_v = std::max(max_v, acc);
            }
            float denom = 0.0f;
            for (size_t idx = lo; idx < hi; ++idx) {
              const size_t i = head_triples[idx];
              edge_attention[i] = std::exp(edge_attention[i] - max_v);
              denom += edge_attention[i];
            }
            for (size_t idx = lo; idx < hi; ++idx) {
              edge_attention[head_triples[idx]] /= denom;
            }
          }
          return Status::OK();
        });
    KGREC_CHECK(status.ok());
  };

  // Full-graph propagation producing the concatenated representation.
  auto propagate = [&] {
    nn::Tensor layer = entity_emb;
    nn::Tensor final_rep = layer;
    nn::Tensor att = nn::Tensor::FromData(
        triples.size(), 1,
        std::vector<float>(edge_attention.begin(), edge_attention.end()));
    for (size_t l = 0; l < config_.num_layers; ++l) {
      nn::Tensor messages = nn::Mul(nn::Gather(layer, edge_tails), att);
      nn::Tensor neighborhood =
          nn::IndexedSumRows(messages, edge_heads, num_entities);
      layer = aggregators[l].Forward(layer, neighborhood,
                                     /*final_layer=*/l + 1 ==
                                         config_.num_layers);
      final_rep = nn::Concat(final_rep, layer);
    }
    return final_rep;
  };

  std::vector<nn::Tensor> params{entity_emb, relation_emb};
  for (const Aggregator& agg : aggregators) {
    for (const auto& p : agg.Params()) params.push_back(p);
  }
  nn::Adagrad optimizer(params, config_.learning_rate, config_.l2);
  NegativeSampler sampler(train);
  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    refresh_attention();
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<int32_t> users, pos_items, neg_items;
      std::vector<int32_t> heads, rels, tails, neg_tails;
      for (size_t i = start; i < end; ++i) {
        const Interaction& x = train.interactions()[order[i]];
        users.push_back(graph_->UserEntity(x.user));
        pos_items.push_back(graph_->ItemEntity(x.item));
        neg_items.push_back(
            graph_->ItemEntity(sampler.Sample(x.user, rng)));
        const Triple& t = triples[rng.UniformInt(triples.size())];
        heads.push_back(t.head);
        rels.push_back(t.relation);
        tails.push_back(t.tail);
        neg_tails.push_back(
            static_cast<int32_t>(rng.UniformInt(num_entities)));
      }
      nn::Tensor rep = propagate();
      nn::Tensor u = nn::Gather(rep, users);
      nn::Tensor pos = nn::Gather(rep, pos_items);
      nn::Tensor neg = nn::Gather(rep, neg_items);
      nn::Tensor cf_loss =
          nn::BprLoss(nn::RowwiseDot(u, pos), nn::RowwiseDot(u, neg));
      // Joint translation loss on the KG (TransE-form surrogate of the
      // paper's TransR stage).
      nn::Tensor h = nn::Gather(entity_emb, heads);
      nn::Tensor r = nn::Gather(relation_emb, rels);
      nn::Tensor t_pos = nn::Gather(entity_emb, tails);
      nn::Tensor t_neg = nn::Gather(entity_emb, neg_tails);
      nn::Tensor d_pos =
          nn::SumRows(nn::Square(nn::Sub(nn::Add(h, r), t_pos)));
      nn::Tensor d_neg =
          nn::SumRows(nn::Square(nn::Sub(nn::Add(h, r), t_neg)));
      nn::Tensor kg_loss =
          nn::MarginRankingLoss(d_pos, d_neg, config_.margin);
      nn::Tensor loss =
          nn::Add(cf_loss, nn::ScaleBy(kg_loss, config_.kg_weight));
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }

  // Cache the final propagated representation for scoring.
  refresh_attention();
  nn::Tensor rep = propagate();
  final_emb_ = Matrix(rep.rows(), rep.cols());
  std::copy_n(rep.data(), rep.size(), final_emb_.data());
}

std::string KgatRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("layers", static_cast<double>(config_.num_layers))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("kg_weight", config_.kg_weight)
      .Add("margin", config_.margin)
      .str();
}

Status KgatRecommender::VisitState(StateVisitor* visitor) {
  return visitor->Matrix("final_emb", &final_emb_);
}

Status KgatRecommender::PrepareLoad(const RecContext& context) {
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  return Status::OK();
}

float KgatRecommender::Score(int32_t user, int32_t item) const {
  return kernels::Dot(final_emb_.Row(graph_->UserEntity(user)),
                      final_emb_.Row(graph_->ItemEntity(item)),
                      final_emb_.cols());
}

std::vector<float> KgatRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  // The shared batched-dot kernel replaces the private SSE2 block this
  // method used to carry: every output is a fixed-block Dot of the user
  // row against one candidate row, so it stays bitwise equal to Score(),
  // calls kernels::Dot.
  const float* u = final_emb_.Row(graph_->UserEntity(user));
  std::vector<const float*> rows(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    rows[i] = final_emb_.Row(graph_->ItemEntity(items[i]));
  }
  std::vector<float> out(items.size());
  kernels::DotBatch(u, rows.data(), rows.size(), final_emb_.cols(),
                    out.data());
  return out;
}

retrieval::ItemFactorView KgatRecommender::BorrowItemFactors() const {
  // Item entities are the contiguous rows after the users'.
  if (graph_ == nullptr) return {};
  return {factor_kernel(), final_emb_.Row(graph_->ItemEntity(0)),
          static_cast<size_t>(graph_->num_items), final_emb_.cols()};
}

size_t KgatRecommender::factor_users() const {
  return graph_ != nullptr ? static_cast<size_t>(graph_->num_users) : 0;
}

void KgatRecommender::FillUserQuery(int32_t user, std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), final_emb_.cols());
  std::copy_n(final_emb_.Row(graph_->UserEntity(user)), final_emb_.cols(),
              out.data());
}

}  // namespace kgrec
