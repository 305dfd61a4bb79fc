#include "embed/ktgan.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/model_state.h"
#include "data/synthetic.h"
#include "math/kernels.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {
namespace {

/// Metapath2Vec-style initialization: random walks over the user-item KG
/// feed a light SGNS whose user/item rows become the initial latent
/// vectors of both players.
void WalkInitialize(const UserItemGraph& graph, const KtganConfig& config,
                    Rng& rng, Matrix* user_init, Matrix* item_init) {
  const KnowledgeGraph& kg = graph.kg;
  const size_t n_entities = kg.num_entities();
  const size_t d = config.dim;
  Matrix in_emb(n_entities, d), out_emb(n_entities, d);
  for (size_t i = 0; i < in_emb.size(); ++i) {
    in_emb.data()[i] = static_cast<float>(rng.Uniform(-0.5, 0.5)) / d;
  }
  std::vector<EntityId> walk;
  std::vector<float> grad_center(d);
  const float lr = 0.05f;
  for (size_t start = 0; start < n_entities; ++start) {
    for (size_t w = 0; w < config.init_walks_per_node; ++w) {
      walk.clear();
      EntityId current = static_cast<EntityId>(start);
      walk.push_back(current);
      for (size_t hop = 1; hop < config.init_walk_length; ++hop) {
        const size_t degree = kg.OutDegree(current);
        if (degree == 0) break;
        current = kg.OutEdges(current)[rng.UniformInt(degree)].target;
        walk.push_back(current);
      }
      for (size_t center = 0; center < walk.size(); ++center) {
        const size_t lo = center >= 2 ? center - 2 : 0;
        const size_t hi = std::min(walk.size(), center + 3);
        float* vc = in_emb.Row(walk[center]);
        for (size_t ctx = lo; ctx < hi; ++ctx) {
          if (ctx == center) continue;
          std::fill(grad_center.begin(), grad_center.end(), 0.0f);
          for (int neg = -1; neg < 3; ++neg) {
            const EntityId target =
                neg < 0 ? walk[ctx]
                        : static_cast<EntityId>(rng.UniformInt(n_entities));
            const float label = neg < 0 ? 1.0f : 0.0f;
            float* vo = out_emb.Row(target);
            float dot = 0.0f;
            for (size_t c = 0; c < d; ++c) dot += vc[c] * vo[c];
            const float prob =
                dot >= 0.0f ? 1.0f / (1.0f + std::exp(-dot))
                            : std::exp(dot) / (1.0f + std::exp(dot));
            const float g = lr * (label - prob);
            for (size_t c = 0; c < d; ++c) {
              grad_center[c] += g * vo[c];
              vo[c] += g * vc[c];
            }
          }
          for (size_t c = 0; c < d; ++c) vc[c] += grad_center[c];
        }
      }
    }
  }
  for (int32_t u = 0; u < graph.num_users; ++u) {
    std::copy_n(in_emb.Row(graph.UserEntity(u)), d, user_init->Row(u));
  }
  for (int32_t j = 0; j < graph.num_items; ++j) {
    std::copy_n(in_emb.Row(graph.ItemEntity(j)), d, item_init->Row(j));
  }
}

nn::Tensor FromMatrix(const Matrix& m, bool requires_grad) {
  return nn::Tensor::FromData(
      m.rows(), m.cols(),
      std::vector<float>(m.data(), m.data() + m.size()), requires_grad);
}

}  // namespace

void KtganRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.user_item_graph != nullptr);
  const InteractionDataset& train = *context.train;
  const UserItemGraph& graph = *context.user_item_graph;
  const int32_t m = train.num_users();
  const int32_t n = train.num_items();
  const size_t d = config_.dim;
  Rng rng(context.seed);

  // Phase 1: knowledge/tag initialization (Metapath2Vec over the KG).
  Matrix user_init(m, d), item_init(n, d);
  WalkInitialize(graph, config_, rng, &user_init, &item_init);
  g_user_emb_ = FromMatrix(user_init, /*requires_grad=*/true);
  g_item_emb_ = FromMatrix(item_init, /*requires_grad=*/true);
  d_user_emb_ = FromMatrix(user_init, /*requires_grad=*/true);
  d_item_emb_ = FromMatrix(item_init, /*requires_grad=*/true);

  nn::Adagrad g_optimizer({g_user_emb_, g_item_emb_},
                          config_.g_learning_rate, config_.l2);
  nn::Adagrad d_optimizer({d_user_emb_, d_item_emb_},
                          config_.d_learning_rate, config_.l2);

  // Phase 1b: pretrain the generator on the observed interactions (BPR),
  // as adversarial training only refines an already-sensible sampler.
  {
    NegativeSampler sampler(train);
    std::vector<size_t> order(train.num_interactions());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (int epoch = 0; epoch < 15; ++epoch) {
      rng.Shuffle(order);
      for (size_t start = 0; start < order.size(); start += 256) {
        const size_t end = std::min(order.size(), start + 256);
        std::vector<int32_t> users, pos_items, neg_items;
        for (size_t i = start; i < end; ++i) {
          const Interaction& x = train.interactions()[order[i]];
          users.push_back(x.user);
          pos_items.push_back(x.item);
          neg_items.push_back(sampler.Sample(x.user, rng));
        }
        nn::Tensor gu = nn::Gather(g_user_emb_, users);
        nn::Tensor pos = nn::Gather(g_item_emb_, pos_items);
        nn::Tensor neg = nn::Gather(g_item_emb_, neg_items);
        nn::Tensor loss =
            nn::BprLoss(nn::RowwiseDot(gu, pos), nn::RowwiseDot(gu, neg));
        g_optimizer.ZeroGrad();
        nn::Backward(loss);
        g_optimizer.Step();
      }
    }
  }

  // Phase 2: adversarial training (survey Eq. 8), IRGAN-style.
  float baseline = 0.5f;
  std::vector<int32_t> user_order(m);
  for (int32_t u = 0; u < m; ++u) user_order[u] = u;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(user_order);
    for (int32_t u : user_order) {
      const auto& truth = train.UserItems(u);
      if (truth.empty()) continue;
      // --- Generator proposes items from softmax of its scores --------
      std::vector<int32_t> user_rep(1, u);
      nn::Tensor gu = nn::Gather(g_user_emb_, user_rep);          // [1, d]
      nn::Tensor g_scores =
          nn::MatMul(gu, nn::Transpose(g_item_emb_));             // [1, n]
      nn::Tensor g_probs = nn::Softmax(g_scores);
      std::vector<double> weights(n);
      for (int32_t j = 0; j < n; ++j) weights[j] = g_probs.data()[j];
      std::vector<int32_t> fake_items;
      for (size_t k = 0; k < config_.samples_per_user; ++k) {
        fake_items.push_back(static_cast<int32_t>(rng.Categorical(weights)));
      }
      // --- Discriminator: true pairs vs generated pairs ----------------
      std::vector<int32_t> d_users, d_items;
      std::vector<float> d_labels;
      for (size_t k = 0; k < config_.samples_per_user; ++k) {
        d_users.push_back(u);
        d_items.push_back(truth[rng.UniformInt(truth.size())]);
        d_labels.push_back(1.0f);
        d_users.push_back(u);
        d_items.push_back(fake_items[k]);
        d_labels.push_back(0.0f);
      }
      nn::Tensor du = nn::Gather(d_user_emb_, d_users);
      nn::Tensor dv = nn::Gather(d_item_emb_, d_items);
      nn::Tensor d_logits = nn::RowwiseDot(du, dv);
      nn::Tensor d_loss = nn::BceWithLogits(d_logits, d_labels);
      d_optimizer.ZeroGrad();
      nn::Backward(d_loss);
      d_optimizer.Step();
      // --- Generator: policy gradient with D's signal as reward --------
      nn::Tensor g_loss;
      for (size_t k = 0; k < config_.samples_per_user; ++k) {
        std::vector<int32_t> uu{u}, jj{fake_items[k]};
        const float d_score =
            nn::RowwiseDot(nn::Gather(d_user_emb_, uu),
                           nn::Gather(d_item_emb_, jj))
                .value();
        const float reward =
            d_score >= 0.0f ? 1.0f / (1.0f + std::exp(-d_score))
                            : std::exp(d_score) / (1.0f + std::exp(d_score));
        baseline = 0.99f * baseline + 0.01f * reward;
        const float advantage = reward - baseline;
        if (std::fabs(advantage) < 1e-6f) continue;
        nn::Tensor logp =
            nn::Log(nn::SliceCols(g_probs, fake_items[k], 1));
        nn::Tensor term = nn::ScaleBy(logp, -advantage);
        g_loss = g_loss.defined() ? nn::Add(g_loss, term) : term;
      }
      if (g_loss.defined()) {
        g_optimizer.ZeroGrad();
        nn::Backward(g_loss);
        g_optimizer.Step();
      }
    }
  }
}

std::string KtganRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("samples_per_user", static_cast<double>(config_.samples_per_user))
      .Add("g_lr", config_.g_learning_rate)
      .Add("d_lr", config_.d_learning_rate)
      .Add("l2", config_.l2)
      .Add("init_walks_per_node",
           static_cast<double>(config_.init_walks_per_node))
      .Add("init_walk_length", static_cast<double>(config_.init_walk_length))
      .str();
}

Status KtganRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("g_user_emb", &g_user_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("g_item_emb", &g_item_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("d_user_emb", &d_user_emb_));
  return visitor->Tensor("d_item_emb", &d_item_emb_);
}

float KtganRecommender::Score(int32_t user, int32_t item) const {
  const size_t d = config_.dim;
  // G's refined score function ranks the recommendations (the paper's
  // prediction stage uses p_theta).
  return kernels::Dot(g_user_emb_.data() + user * d,
                      g_item_emb_.data() + item * d, d);
}

}  // namespace kgrec
