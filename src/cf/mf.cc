#include "cf/mf.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "data/event_stream.h"
#include "math/kernels.h"
#include "math/matrix.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

namespace {

// Update-path RNG streams: disjoint counter-keyed forks of
// Rng(context.seed), so row initialization depends only on the row id
// and fold draws only on the event timestamp.
constexpr uint64_t kGrowStream = 101;
constexpr uint64_t kFoldStream = 102;
// SGD passes folded per kNewInteraction event.
constexpr int kFoldPasses = 3;

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

void MfRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  const InteractionDataset& train = *context.train;
  Rng rng(context.seed);
  user_emb_ = nn::NormalInit(train.num_users(), config_.dim, 0.1f, rng);
  item_emb_ = nn::NormalInit(train.num_items(), config_.dim, 0.1f, rng);
  nn::Adagrad optimizer({user_emb_, item_emb_}, config_.learning_rate,
                        config_.l2);
  NegativeSampler sampler(train);

  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<int32_t> users, items;
      std::vector<float> labels;
      for (size_t i = start; i < end; ++i) {
        const Interaction& x = train.interactions()[order[i]];
        users.push_back(x.user);
        items.push_back(x.item);
        labels.push_back(1.0f);
        for (int k = 0; k < config_.negatives_per_positive; ++k) {
          users.push_back(x.user);
          items.push_back(sampler.Sample(x.user, rng));
          labels.push_back(0.0f);
        }
      }
      nn::Tensor u = nn::Gather(user_emb_, users);
      nn::Tensor v = nn::Gather(item_emb_, items);
      nn::Tensor logits = nn::RowwiseDot(u, v);
      nn::Tensor loss = nn::BceWithLogits(logits, labels);
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

float MfRecommender::Score(int32_t user, int32_t item) const {
  return kernels::Dot(user_emb_.data() + user * config_.dim,
                      item_emb_.data() + item * config_.dim, config_.dim);
}

std::vector<float> MfRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  const size_t d = config_.dim;
  const float* u = user_emb_.data() + user * d;
  std::vector<const float*> rows(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    rows[i] = item_emb_.data() + items[i] * d;
  }
  std::vector<float> out(items.size());
  kernels::DotBatch(u, rows.data(), rows.size(), d, out.data());
  return out;
}

void MfRecommender::FillUserQuery(int32_t user, std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), config_.dim);
  std::copy_n(user_emb_.data() + user * config_.dim, config_.dim, out.data());
}

std::string MfRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("negatives", config_.negatives_per_positive)
      .str();
}

Status MfRecommender::Update(const RecContext& context,
                             const EventBatch& batch) {
  KGREC_CHECK(context.train != nullptr);
  // defined() first: rows() dereferences the tensor node, and a
  // never-fitted model has no node at all.
  if (!user_emb_.defined() || user_emb_.rows() == 0) {
    return Status::FailedPrecondition(
        "MF Update() requires a fitted (or loaded) model");
  }
  const InteractionDataset& train = *context.train;
  const Rng base_rng(context.seed);
  if (static_cast<size_t>(train.num_users()) > user_emb_.rows()) {
    user_emb_ = nn::GrowRowsNormal(user_emb_, train.num_users(),
                                   base_rng.Fork(kGrowStream), 0.1f);
  }
  NegativeSampler sampler(train);
  for (const Event& e : batch.events) {
    if (e.kind != EventKind::kNewInteraction) continue;  // KG events: no-op
    Rng rng =
        base_rng.Fork(kFoldStream).Fork(static_cast<uint64_t>(e.timestamp));
    FoldInteraction(e.user, e.item, sampler, rng);
  }
  return Status::OK();
}

void MfRecommender::FoldInteraction(int32_t user, int32_t item,
                                    const NegativeSampler& sampler,
                                    Rng& rng) {
  const size_t d = config_.dim;
  const float lr = config_.learning_rate;
  const float l2 = config_.l2;
  float* u = user_emb_.data() + user * d;
  for (int pass = 0; pass < kFoldPasses; ++pass) {
    // Positive then sampled negatives, each a pointwise BCE step — the
    // same loss Fit() minimizes, folded with plain SGD.
    {
      float* v = item_emb_.data() + item * d;
      const float g = Sigmoid(kernels::Dot(u, v, d)) - 1.0f;
      for (size_t c = 0; c < d; ++c) {
        const float uc = u[c];
        u[c] -= lr * (g * v[c] + l2 * uc);
        v[c] -= lr * (g * uc + l2 * v[c]);
      }
    }
    for (int k = 0; k < config_.negatives_per_positive; ++k) {
      float* v = item_emb_.data() + sampler.Sample(user, rng) * d;
      const float g = Sigmoid(kernels::Dot(u, v, d));
      for (size_t c = 0; c < d; ++c) {
        const float uc = u[c];
        u[c] -= lr * (g * v[c] + l2 * uc);
        v[c] -= lr * (g * uc + l2 * v[c]);
      }
    }
  }
}

Status MfRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("user_emb", &user_emb_));
  return visitor->Tensor("item_emb", &item_emb_);
}

void BprMfRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  const InteractionDataset& train = *context.train;
  Rng rng(context.seed);
  user_emb_ = nn::NormalInit(train.num_users(), config_.dim, 0.1f, rng);
  item_emb_ = nn::NormalInit(train.num_items(), config_.dim, 0.1f, rng);
  nn::Adagrad optimizer({user_emb_, item_emb_}, config_.learning_rate,
                        config_.l2);
  NegativeSampler sampler(train);

  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<int32_t> users, pos_items, neg_items;
      for (size_t i = start; i < end; ++i) {
        const Interaction& x = train.interactions()[order[i]];
        users.push_back(x.user);
        pos_items.push_back(x.item);
        neg_items.push_back(sampler.Sample(x.user, rng));
      }
      nn::Tensor u = nn::Gather(user_emb_, users);
      nn::Tensor pos = nn::Gather(item_emb_, pos_items);
      nn::Tensor neg = nn::Gather(item_emb_, neg_items);
      nn::Tensor loss =
          nn::BprLoss(nn::RowwiseDot(u, pos), nn::RowwiseDot(u, neg));
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

void BprMfRecommender::FoldInteraction(int32_t user, int32_t item,
                                       const NegativeSampler& sampler,
                                       Rng& rng) {
  const size_t d = config_.dim;
  const float lr = config_.learning_rate;
  const float l2 = config_.l2;
  float* u = user_emb_.data() + user * d;
  float* pos = item_emb_.data() + item * d;
  for (int pass = 0; pass < kFoldPasses; ++pass) {
    float* neg = item_emb_.data() + sampler.Sample(user, rng) * d;
    const float margin = kernels::Dot(u, pos, d) - kernels::Dot(u, neg, d);
    // d(-log sigmoid(margin)) / d margin.
    const float g = -Sigmoid(-margin);
    for (size_t c = 0; c < d; ++c) {
      const float uc = u[c];
      u[c] -= lr * (g * (pos[c] - neg[c]) + l2 * uc);
      pos[c] -= lr * (g * uc + l2 * pos[c]);
      neg[c] -= lr * (-g * uc + l2 * neg[c]);
    }
  }
}

}  // namespace kgrec
