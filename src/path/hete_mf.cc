#include "path/hete_mf.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "math/kernels.h"
#include "math/matrix.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "path/metapaths.h"

namespace kgrec {

void HeteMfRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  const InteractionDataset& train = *context.train;
  Rng rng(context.seed);
  const size_t d = config_.dim;
  user_emb_ = nn::NormalInit(train.num_users(), d, 0.1f, rng);
  item_emb_ = nn::NormalInit(train.num_items(), d, 0.1f, rng);

  // Flatten all meta-path similarity entries into one weighted pair list.
  std::vector<ItemSimilarity> sims = ItemMetaPathSimilarities(
      *context.item_kg, train.num_items(), config_.top_k);
  struct SimPair {
    int32_t a, b;
    float s;
  };
  std::vector<SimPair> pairs;
  for (const ItemSimilarity& sim : sims) {
    for (size_t r = 0; r < sim.matrix.rows(); ++r) {
      const int32_t* cols = sim.matrix.RowCols(r);
      const float* vals = sim.matrix.RowVals(r);
      for (size_t i = 0; i < sim.matrix.RowNnz(r); ++i) {
        pairs.push_back({static_cast<int32_t>(r), cols[i], vals[i]});
      }
    }
  }

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
        users.push_back(x.user);
        items.push_back(sampler.Sample(x.user, rng));
        labels.push_back(0.0f);
      }
      nn::Tensor u = nn::Gather(user_emb_, users);
      nn::Tensor v = nn::Gather(item_emb_, items);
      nn::Tensor loss = nn::BceWithLogits(nn::RowwiseDot(u, v), labels);
      if (!pairs.empty() && config_.similarity_weight > 0.0f) {
        // Sampled similarity regularizer (Eq. 14), one pair per example.
        std::vector<int32_t> left, right;
        std::vector<float> weights;
        for (size_t i = 0; i < users.size(); ++i) {
          const SimPair& p = pairs[rng.UniformInt(pairs.size())];
          left.push_back(p.a);
          right.push_back(p.b);
          weights.push_back(p.s);
        }
        nn::Tensor vi = nn::Gather(item_emb_, left);
        nn::Tensor vj = nn::Gather(item_emb_, right);
        const size_t num_weights = weights.size();
        nn::Tensor w =
            nn::Tensor::FromData(num_weights, 1, std::move(weights));
        nn::Tensor reg = nn::Mean(
            nn::Mul(nn::SumRows(nn::Square(nn::Sub(vi, vj))), w));
        loss = nn::Add(loss, nn::ScaleBy(reg, config_.similarity_weight));
      }
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

std::string HeteMfRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("similarity_weight", config_.similarity_weight)
      .Add("top_k", static_cast<double>(config_.top_k))
      .str();
}

Status HeteMfRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("user_emb", &user_emb_));
  return visitor->Tensor("item_emb", &item_emb_);
}

float HeteMfRecommender::Score(int32_t user, int32_t item) const {
  const size_t d = user_emb_.cols();
  return kernels::Dot(user_emb_.data() + user * d, item_emb_.data() + item * d,
                      d);
}

std::vector<float> HeteMfRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  const size_t d = user_emb_.cols();
  const float* u = user_emb_.data() + user * d;
  std::vector<const float*> rows(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    rows[i] = item_emb_.data() + items[i] * d;
  }
  std::vector<float> out(items.size());
  kernels::DotBatch(u, rows.data(), rows.size(), d, out.data());
  return out;
}

void HeteMfRecommender::FillUserQuery(int32_t user,
                                      std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), config_.dim);
  std::copy_n(user_emb_.data() + user * config_.dim, config_.dim, out.data());
}

}  // namespace kgrec
