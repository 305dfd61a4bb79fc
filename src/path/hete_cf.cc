#include "path/hete_cf.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "graph/pathsim.h"
#include "math/kernels.h"
#include "math/matrix.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "path/metapaths.h"

namespace kgrec {
namespace {

struct WeightedPair {
  int32_t a, b;
  float s;
};

std::vector<WeightedPair> Flatten(const CsrMatrix& matrix) {
  std::vector<WeightedPair> out;
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const int32_t* cols = matrix.RowCols(r);
    const float* vals = matrix.RowVals(r);
    for (size_t i = 0; i < matrix.RowNnz(r); ++i) {
      out.push_back({static_cast<int32_t>(r), cols[i], vals[i]});
    }
  }
  return out;
}

}  // namespace

void HeteCfRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  const InteractionDataset& train = *context.train;
  Rng rng(context.seed);
  const size_t d = config_.dim;
  user_emb_ = nn::NormalInit(train.num_users(), d, 0.1f, rng);
  item_emb_ = nn::NormalInit(train.num_items(), d, 0.1f, rng);

  // Item-item pairs from the attribute meta-paths (Eq. 14).
  std::vector<WeightedPair> item_pairs;
  for (const ItemSimilarity& sim : ItemMetaPathSimilarities(
           *context.item_kg, train.num_items(), config_.top_k)) {
    std::vector<WeightedPair> flat = Flatten(sim.matrix);
    item_pairs.insert(item_pairs.end(), flat.begin(), flat.end());
  }
  // User-user pairs from the co-interaction meta-path U-I-U (Eq. 13).
  CsrMatrix r = train.ToCsr();
  CsrMatrix uu = PathSim(r.Multiply(r.Transpose()));
  std::vector<WeightedPair> user_pairs = Flatten(TopKPerRow(uu, config_.top_k));
  // User-item pairs from the one-hop diffused preference R S (Eq. 15).
  std::vector<WeightedPair> cross_pairs;
  {
    std::vector<ItemSimilarity> sims = ItemMetaPathSimilarities(
        *context.item_kg, train.num_items(), config_.top_k);
    if (!sims.empty()) {
      CsrMatrix diffused = r.Multiply(sims[0].matrix);
      // Normalize to [0, 1] so it is a similarity target for u . v.
      float max_val = 1e-6f;
      for (float v : diffused.values()) max_val = std::max(max_val, v);
      for (const WeightedPair& p : Flatten(TopKPerRow(diffused, config_.top_k))) {
        cross_pairs.push_back({p.a, p.b, p.s / max_val});
      }
    }
  }

  nn::Adagrad optimizer({user_emb_, item_emb_}, config_.learning_rate,
                        config_.l2);
  NegativeSampler sampler(train);
  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});

  auto pair_regularizer = [&](const std::vector<WeightedPair>& pairs,
                              const nn::Tensor& table, size_t count) {
    std::vector<int32_t> left, right;
    std::vector<float> weights;
    for (size_t i = 0; i < count; ++i) {
      const WeightedPair& p = pairs[rng.UniformInt(pairs.size())];
      left.push_back(p.a);
      right.push_back(p.b);
      weights.push_back(p.s);
    }
    nn::Tensor vi = nn::Gather(table, left);
    nn::Tensor vj = nn::Gather(table, right);
    const size_t rows = weights.size();
    nn::Tensor w = nn::Tensor::FromData(rows, 1, std::move(weights));
    return nn::Mean(nn::Mul(nn::SumRows(nn::Square(nn::Sub(vi, vj))), w));
  };

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
      const size_t count = users.size();
      if (!item_pairs.empty() && config_.item_item_weight > 0.0f) {
        loss = nn::Add(loss,
                       nn::ScaleBy(pair_regularizer(item_pairs, item_emb_,
                                                    count),
                                   config_.item_item_weight));
      }
      if (!user_pairs.empty() && config_.user_user_weight > 0.0f) {
        loss = nn::Add(loss,
                       nn::ScaleBy(pair_regularizer(user_pairs, user_emb_,
                                                    count),
                                   config_.user_user_weight));
      }
      if (!cross_pairs.empty() && config_.user_item_weight > 0.0f) {
        // Eq. 15: (u . v - s)^2 on diffused user-item pairs.
        std::vector<int32_t> cu, ci;
        std::vector<float> targets;
        for (size_t i = 0; i < count; ++i) {
          const WeightedPair& p = cross_pairs[rng.UniformInt(cross_pairs.size())];
          cu.push_back(p.a);
          ci.push_back(p.b);
          targets.push_back(p.s);
        }
        nn::Tensor cu_emb = nn::Gather(user_emb_, cu);
        nn::Tensor ci_emb = nn::Gather(item_emb_, ci);
        nn::Tensor reg = nn::MseLoss(nn::RowwiseDot(cu_emb, ci_emb), targets);
        loss = nn::Add(loss, nn::ScaleBy(reg, config_.user_item_weight));
      }
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

std::string HeteCfRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("user_user_weight", config_.user_user_weight)
      .Add("item_item_weight", config_.item_item_weight)
      .Add("user_item_weight", config_.user_item_weight)
      .Add("top_k", static_cast<double>(config_.top_k))
      .str();
}

Status HeteCfRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("user_emb", &user_emb_));
  return visitor->Tensor("item_emb", &item_emb_);
}

float HeteCfRecommender::Score(int32_t user, int32_t item) const {
  const size_t d = user_emb_.cols();
  return kernels::Dot(user_emb_.data() + user * d, item_emb_.data() + item * d,
                      d);
}

std::vector<float> HeteCfRecommender::ScoreItems(
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

void HeteCfRecommender::FillUserQuery(int32_t user,
                                      std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), config_.dim);
  std::copy_n(user_emb_.data() + user * config_.dim, config_.dim, out.data());
}

}  // namespace kgrec
