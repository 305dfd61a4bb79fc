#include "embed/ksr.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "kge/kge_trainer.h"
#include "math/kernels.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

nn::Tensor KsrRecommender::MemoryReadout(const std::vector<int32_t>& users,
                                         const nn::Tensor& hidden) const {
  const size_t batch = users.size();
  const size_t r = num_relations_;
  const size_t d = config_.dim;
  // Attention over relation keys: [B, R].
  nn::Tensor logits = nn::MatMul(hidden, nn::Transpose(key_emb_));
  nn::Tensor att = nn::Softmax(logits);
  // Gather the users' memory slots: [B*R, d] (constant values).
  std::vector<float> slots(batch * r * d);
  for (size_t b = 0; b < batch; ++b) {
    std::copy_n(memory_.Row(users[b] * r), r * d,
                slots.data() + b * r * d);
  }
  nn::Tensor mem = nn::Tensor::FromData(batch * r, d, std::move(slots));
  nn::Tensor att_flat = nn::Reshape(att, batch * r, 1);
  return nn::GroupSumRows(nn::Mul(mem, att_flat), r);  // [B, d]
}

nn::Tensor KsrRecommender::ItemReps(const std::vector<int32_t>& items) const {
  return nn::Concat(nn::Gather(item_emb_, items),
                    nn::Gather(entity_emb_, items));
}

void KsrRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  KGREC_CHECK_EQ(config_.hidden_dim, config_.dim);  // shared query space
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = *context.item_kg;
  const int32_t m = train.num_users();
  num_items_ = train.num_items();
  const size_t d = config_.dim;
  Rng rng(context.seed);

  // --- Pretrain TransE; count forward relations ------------------------
  std::unique_ptr<KgeModel> transe =
      MakeKgeModel("transe", kg.num_entities(), kg.num_relations(), d, rng);
  KgeTrainConfig kge_config;
  kge_config.epochs = config_.kge_epochs;
  kge_config.seed = context.seed + 2;
  kge_config.num_threads = config_.num_threads;
  TrainKge(*transe, kg, kge_config);
  std::vector<RelationId> forward_relations;
  for (size_t rel = 0; rel < kg.num_relations(); ++rel) {
    const std::string& name = kg.relation_name(static_cast<RelationId>(rel));
    if (name.size() > 3 && name.substr(name.size() - 3) == "^-1") continue;
    forward_relations.push_back(static_cast<RelationId>(rel));
  }
  num_relations_ = forward_relations.size();
  KGREC_CHECK_GT(num_relations_, 0u);

  // --- Memory write phase: per user x relation mean attribute vector ---
  const float* pretrained = transe->entity_embeddings().data();
  memory_ = Matrix(m * num_relations_, d);
  std::vector<int> counts(m * num_relations_, 0);
  for (const Interaction& x : train.interactions()) {
    const size_t degree = kg.OutDegree(x.item);
    const Edge* edges = kg.OutEdges(x.item);
    for (size_t e = 0; e < degree; ++e) {
      for (size_t rel = 0; rel < num_relations_; ++rel) {
        if (edges[e].relation == forward_relations[rel]) {
          float* slot = memory_.Row(x.user * num_relations_ + rel);
          const float* value = pretrained + edges[e].target * d;
          for (size_t c = 0; c < d; ++c) slot[c] += value[c];
          ++counts[x.user * num_relations_ + rel];
        }
      }
    }
  }
  for (size_t slot = 0; slot < static_cast<size_t>(m) * num_relations_;
       ++slot) {
    if (counts[slot] > 0) {
      kernels::Scale(memory_.Row(slot), d, 1.0f / counts[slot]);
    }
  }

  // --- Sequences and trainable modules ----------------------------------
  sequences_.assign(m, {});
  for (int32_t u = 0; u < m; ++u) {
    const auto& items = train.UserItems(u);
    const size_t take = std::min(items.size(), config_.max_sequence);
    sequences_[u].assign(items.end() - take, items.end());
  }
  item_emb_ = nn::NormalInit(num_items_, d, 0.1f, rng);
  entity_emb_ = nn::Tensor::FromData(
      kg.num_entities(), d,
      std::vector<float>(pretrained,
                         pretrained + transe->entity_embeddings().size()),
      /*requires_grad=*/true);
  key_emb_ = nn::NormalInit(num_relations_, d, 0.1f, rng);
  gru_ = nn::GruCell(d, config_.hidden_dim, rng);
  user_proj_ = nn::Linear(config_.hidden_dim + d, 2 * d, rng);

  std::vector<nn::Tensor> params{item_emb_, entity_emb_, key_emb_};
  for (const auto& p : gru_.Params()) params.push_back(p);
  for (const auto& p : user_proj_.Params()) params.push_back(p);
  nn::Adagrad optimizer(params, config_.learning_rate, config_.l2);
  NegativeSampler sampler(train);

  // Users with >= 2 items (need a prefix and a target).
  std::vector<int32_t> trainable_users;
  for (int32_t u = 0; u < m; ++u) {
    if (sequences_[u].size() >= 2) trainable_users.push_back(u);
  }

  // Encodes, for each user, the prefix of the first `prefix_len[b]`
  // sequence items (front-padded with the first item).
  auto user_reps = [&](const std::vector<int32_t>& users,
                       const std::vector<size_t>& prefix_len) {
    const size_t batch = users.size();
    const size_t steps = config_.max_sequence;
    nn::Tensor h = nn::Tensor::Zeros(batch, config_.hidden_dim);
    for (size_t t = 0; t < steps; ++t) {
      std::vector<int32_t> step_items(batch);
      for (size_t b = 0; b < batch; ++b) {
        const auto& seq = sequences_[users[b]];
        const size_t len = std::min(prefix_len[b], seq.size());
        const size_t at = t + len >= steps ? t + len - steps : 0;
        step_items[b] = seq[std::min(at, len - 1)];
      }
      h = gru_.Step(nn::Gather(item_emb_, step_items), h);
    }
    nn::Tensor memory = MemoryReadout(users, h);
    return user_proj_.Forward(nn::Concat(h, memory));  // [B, 2d]
  };

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(trainable_users);
    for (size_t start = 0; start < trainable_users.size();
         start += config_.batch_size) {
      const size_t end =
          std::min(trainable_users.size(), start + config_.batch_size);
      std::vector<int32_t> users(trainable_users.begin() + start,
                                 trainable_users.begin() + end);
      if (users.empty()) continue;
      // A random (prefix -> next item) pair per user per step, so every
      // position of the sequence contributes training signal.
      std::vector<size_t> prefix_len;
      std::vector<int32_t> targets, negatives;
      for (int32_t u : users) {
        const auto& seq = sequences_[u];
        const size_t target_at = 1 + rng.UniformInt(seq.size() - 1);
        prefix_len.push_back(target_at);
        targets.push_back(seq[target_at]);
        negatives.push_back(sampler.Sample(u, rng));
      }
      nn::Tensor u_rep = user_reps(users, prefix_len);
      nn::Tensor pos = ItemReps(targets);
      nn::Tensor neg = ItemReps(negatives);
      nn::Tensor loss = nn::BprLoss(nn::RowwiseDot(u_rep, pos),
                                    nn::RowwiseDot(u_rep, neg));
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }

  // Cache final user representations over the full sequence.
  user_reps_ = Matrix(m, 2 * d);
  for (int32_t u = 0; u < m; ++u) {
    if (sequences_[u].empty()) continue;
    nn::Tensor rep = user_reps({u}, {sequences_[u].size()});
    std::copy_n(rep.data(), 2 * d, user_reps_.Row(u));
  }
}

std::string KsrRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("hidden_dim", static_cast<double>(config_.hidden_dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("max_sequence", static_cast<double>(config_.max_sequence))
      .Add("kge_epochs", config_.kge_epochs)
      .str();
}

Status KsrRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("item_emb", &item_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("entity_emb", &entity_emb_));
  return visitor->Matrix("user_reps", &user_reps_);
}

float KsrRecommender::Score(int32_t user, int32_t item) const {
  const size_t d = config_.dim;
  const float* u = user_reps_.Row(user);
  float acc = 0.0f;
  const float* q = item_emb_.data() + item * d;
  const float* e = entity_emb_.data() + item * d;
  for (size_t c = 0; c < d; ++c) acc += u[c] * q[c];
  for (size_t c = 0; c < d; ++c) acc += u[d + c] * e[c];
  return acc;
}

}  // namespace kgrec
