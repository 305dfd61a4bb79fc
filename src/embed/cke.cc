#include "embed/cke.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "data/event_stream.h"
#include "math/kernels.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

namespace {

// Update-path RNG streams (counter-keyed forks of Rng(context.seed)).
constexpr uint64_t kGrowStream = 101;
constexpr uint64_t kFoldStream = 102;
constexpr int kFoldPasses = 3;

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

void CkeRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = *context.item_kg;
  const int32_t m = train.num_users();
  const int32_t n = train.num_items();
  const size_t d = config_.dim;
  Rng rng(context.seed);

  // Attribute lists per item (content channel).
  std::vector<std::vector<int32_t>> item_attrs(n);
  for (int32_t j = 0; j < n; ++j) {
    const size_t degree = kg.OutDegree(j);
    const Edge* edges = kg.OutEdges(j);
    for (size_t e = 0; e < degree; ++e) {
      if (edges[e].target >= n) item_attrs[j].push_back(edges[e].target);
    }
  }

  nn::Tensor user_emb = nn::NormalInit(m, d, 0.1f, rng);
  nn::Tensor offset_emb = nn::NormalInit(n, d, 0.1f, rng);
  std::unique_ptr<KgeModel> transr =
      MakeKgeModel("transr", kg.num_entities(), kg.num_relations(), d, rng);
  nn::Tensor content_emb = nn::NormalInit(kg.num_entities(), d, 0.1f, rng);

  std::vector<nn::Tensor> params{user_emb, offset_emb, content_emb};
  for (const auto& p : transr->Params()) params.push_back(p);
  nn::Adagrad optimizer(params, config_.learning_rate, config_.l2);
  NegativeSampler sampler(train);
  const auto& triples = kg.triples();

  // Builds v = offset + entity + mean(content[attrs]) for an item batch.
  auto item_vectors = [&](const std::vector<int32_t>& items) {
    nn::Tensor v = nn::Add(nn::Gather(offset_emb, items),
                           nn::Gather(transr->entity_embeddings(), items));
    // Content channel: one attribute content vector sampled per item per
    // batch — an unbiased estimate of the full attribute mean, so over
    // training it converges to the mean used at inference time below.
    std::vector<int32_t> sampled(items.size(), 0);
    std::vector<float> scale(items.size(), 1.0f);
    for (size_t i = 0; i < items.size(); ++i) {
      const auto& attrs = item_attrs[items[i]];
      if (!attrs.empty()) {
        sampled[i] = attrs[rng.UniformInt(attrs.size())];
      } else {
        sampled[i] = items[i];
        scale[i] = 0.0f;
      }
    }
    nn::Tensor z = nn::Gather(content_emb, sampled);
    nn::Tensor mask = nn::Tensor::FromData(items.size(), 1, std::move(scale));
    return nn::Add(v, nn::Mul(z, mask));
  };

  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<int32_t> users, pos_items, neg_items;
      std::vector<int32_t> heads, rels, tails, neg_heads, neg_tails;
      for (size_t i = start; i < end; ++i) {
        const Interaction& x = train.interactions()[order[i]];
        users.push_back(x.user);
        pos_items.push_back(x.item);
        neg_items.push_back(sampler.Sample(x.user, rng));
        // One KG triple per interaction keeps the two losses balanced.
        const Triple& t = triples[rng.UniformInt(triples.size())];
        heads.push_back(t.head);
        rels.push_back(t.relation);
        tails.push_back(t.tail);
        int32_t nh = t.head, nt = t.tail;
        if (rng.Bernoulli(0.5)) {
          nh = static_cast<int32_t>(rng.UniformInt(kg.num_entities()));
        } else {
          nt = static_cast<int32_t>(rng.UniformInt(kg.num_entities()));
        }
        neg_heads.push_back(nh);
        neg_tails.push_back(nt);
      }
      nn::Tensor u = nn::Gather(user_emb, users);
      nn::Tensor pos = item_vectors(pos_items);
      nn::Tensor neg = item_vectors(neg_items);
      nn::Tensor rec_loss =
          nn::BprLoss(nn::RowwiseDot(u, pos), nn::RowwiseDot(u, neg));
      nn::Tensor kg_pos = transr->ScoreBatch(heads, rels, tails);
      nn::Tensor kg_neg = transr->ScoreBatch(neg_heads, rels, neg_tails);
      nn::Tensor kg_loss =
          nn::MarginRankingLoss(kg_neg, kg_pos, config_.margin);
      nn::Tensor loss =
          nn::Add(rec_loss, nn::ScaleBy(kg_loss, config_.kg_weight));
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
    transr->PostEpoch();
  }

  // Cache final vectors; content uses the full attribute mean.
  user_vecs_ = Matrix(m, d);
  std::copy_n(user_emb.data(), user_vecs_.size(), user_vecs_.data());
  item_vecs_ = Matrix(n, d);
  const float* entity = transr->entity_embeddings().data();
  for (int32_t j = 0; j < n; ++j) {
    float* row = item_vecs_.Row(j);
    const float* off = offset_emb.data() + j * d;
    const float* ent = entity + j * d;
    for (size_t c = 0; c < d; ++c) row[c] = off[c] + ent[c];
    if (!item_attrs[j].empty()) {
      const float inv = 1.0f / item_attrs[j].size();
      for (int32_t a : item_attrs[j]) {
        const float* content = content_emb.data() + a * d;
        for (size_t c = 0; c < d; ++c) row[c] += inv * content[c];
      }
    }
  }
}

Status CkeRecommender::Update(const RecContext& context,
                              const EventBatch& batch) {
  KGREC_CHECK(context.train != nullptr);
  if (user_vecs_.rows() == 0) {
    return Status::FailedPrecondition(
        "CKE Update() requires a fitted (or loaded) model");
  }
  const InteractionDataset& train = *context.train;
  const size_t d = config_.dim;
  const Rng base_rng(context.seed);
  if (static_cast<size_t>(train.num_users()) > user_vecs_.rows()) {
    Matrix grown(train.num_users(), d);
    std::copy_n(user_vecs_.data(), user_vecs_.size(), grown.data());
    const Rng grow_rng = base_rng.Fork(kGrowStream);
    for (size_t r = user_vecs_.rows(); r < grown.rows(); ++r) {
      Rng row_rng = grow_rng.Fork(r);
      float* row = grown.Row(r);
      for (size_t c = 0; c < d; ++c) {
        row[c] = static_cast<float>(row_rng.Normal(0.0, 0.1));
      }
    }
    user_vecs_ = std::move(grown);
  }
  NegativeSampler sampler(train);
  for (const Event& e : batch.events) {
    if (e.kind != EventKind::kNewInteraction) continue;  // KG events: no-op
    Rng rng =
        base_rng.Fork(kFoldStream).Fork(static_cast<uint64_t>(e.timestamp));
    const float lr = config_.learning_rate;
    const float l2 = config_.l2;
    float* u = user_vecs_.Row(e.user);
    float* pos = item_vecs_.Row(e.item);
    for (int pass = 0; pass < kFoldPasses; ++pass) {
      float* neg = item_vecs_.Row(sampler.Sample(e.user, rng));
      const float margin =
          kernels::Dot(u, pos, d) - kernels::Dot(u, neg, d);
      const float g = -Sigmoid(-margin);  // BPR gradient, as in Fit()
      for (size_t c = 0; c < d; ++c) {
        const float uc = u[c];
        u[c] -= lr * (g * (pos[c] - neg[c]) + l2 * uc);
        pos[c] -= lr * (g * uc + l2 * pos[c]);
        neg[c] -= lr * (-g * uc + l2 * neg[c]);
      }
    }
  }
  return Status::OK();
}

std::string CkeRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("kg_weight", config_.kg_weight)
      .Add("margin", config_.margin)
      .str();
}

Status CkeRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Matrix("user_vecs", &user_vecs_));
  return visitor->Matrix("item_vecs", &item_vecs_);
}

float CkeRecommender::Score(int32_t user, int32_t item) const {
  return kernels::Dot(user_vecs_.Row(user), item_vecs_.Row(item),
                      user_vecs_.cols());
}

std::vector<float> CkeRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  const float* u = user_vecs_.Row(user);
  std::vector<const float*> rows(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    rows[i] = item_vecs_.Row(items[i]);
  }
  std::vector<float> out(items.size());
  kernels::DotBatch(u, rows.data(), rows.size(), user_vecs_.cols(),
                    out.data());
  return out;
}

void CkeRecommender::FillUserQuery(int32_t user, std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), user_vecs_.cols());
  std::copy_n(user_vecs_.Row(user), user_vecs_.cols(), out.data());
}

}  // namespace kgrec
