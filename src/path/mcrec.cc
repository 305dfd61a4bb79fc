#include "path/mcrec.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "core/check.h"
#include "core/model_state.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "path/metapaths.h"

namespace kgrec {
namespace {

constexpr size_t kPathLen = 4;  // entities per (padded) path instance

std::string SignatureKey(const std::vector<RelationId>& relations) {
  std::string key;
  for (RelationId r : relations) {
    key += std::to_string(r);
    key += ',';
  }
  return key;
}

}  // namespace

nn::Tensor McRecRecommender::Forward(const std::vector<int32_t>& users,
                                     const std::vector<int32_t>& items) const {
  const size_t batch = users.size();
  const size_t num_types = type_keys_.size();
  const size_t p = config_.instances_per_type;
  const size_t rows = batch * num_types * p;

  // Collect padded instances and per-type presence masks.
  std::vector<std::vector<int32_t>> step_entities(
      kPathLen, std::vector<int32_t>(rows));
  std::vector<float> type_mask(batch * num_types, -1e9f);
  for (size_t b = 0; b < batch; ++b) {
    const std::vector<PathInstance> paths =
        finder_->FindPaths(users[b], items[b]);
    std::unordered_map<std::string, std::vector<const PathInstance*>> by_type;
    for (const PathInstance& path : paths) {
      by_type[SignatureKey(path.relations)].push_back(&path);
    }
    for (size_t t = 0; t < num_types; ++t) {
      const auto it = by_type.find(type_keys_[t]);
      const bool present = it != by_type.end() && !it->second.empty();
      if (present) type_mask[b * num_types + t] = 0.0f;
      for (size_t k = 0; k < p; ++k) {
        const size_t row = (b * num_types + t) * p + k;
        if (present) {
          const PathInstance& inst = *it->second[k % it->second.size()];
          for (size_t step = 0; step < kPathLen; ++step) {
            step_entities[step][row] =
                inst.entities[std::min(step, inst.entities.size() - 1)];
          }
        } else {
          // Dummy walk (masked out of the attention): user -> item.
          const int32_t ue = graph_->UserEntity(users[b]);
          const int32_t ie = graph_->ItemEntity(items[b]);
          for (size_t step = 0; step < kPathLen; ++step) {
            step_entities[step][row] = step == 0 ? ue : ie;
          }
        }
      }
    }
  }

  // CNN instance encoder: window-2 convolution over the entity sequence,
  // relu, then max-pool over the 3 positions.
  std::vector<nn::Tensor> step_emb(kPathLen);
  for (size_t step = 0; step < kPathLen; ++step) {
    step_emb[step] = nn::Gather(entity_emb_, step_entities[step]);
  }
  nn::Tensor pooled;
  for (size_t pos = 0; pos + 1 < kPathLen; ++pos) {
    nn::Tensor window = nn::Concat(step_emb[pos], step_emb[pos + 1]);
    nn::Tensor feature = nn::Relu(conv_.Forward(window));  // [rows, d]
    pooled = pooled.defined() ? nn::Max(pooled, feature) : feature;
  }

  // Max-pool the P instances of each (pair, type).
  nn::Tensor type_ctx;
  for (size_t k = 0; k < p; ++k) {
    std::vector<int32_t> pick(batch * num_types);
    for (size_t g = 0; g < pick.size(); ++g) {
      pick[g] = static_cast<int32_t>(g * p + k);
    }
    nn::Tensor instance = nn::Gather(pooled, pick);  // [B*T, d]
    type_ctx = type_ctx.defined() ? nn::Max(type_ctx, instance) : instance;
  }

  // User-conditioned attention over the path types.
  nn::Tensor u_rep = nn::Gather(user_emb_, users);  // [B, d]
  std::vector<int32_t> repeat(batch * num_types);
  for (size_t g = 0; g < repeat.size(); ++g) {
    repeat[g] = static_cast<int32_t>(g / num_types);
  }
  nn::Tensor u_rep_t = nn::Gather(u_rep, repeat);  // [B*T, d]
  nn::Tensor att_logit = att_out_.Forward(
      nn::Relu(att_hidden_.Forward(nn::Concat(u_rep_t, type_ctx))));
  nn::Tensor mask = nn::Tensor::FromData(
      batch * num_types, 1, std::vector<float>(type_mask));
  nn::Tensor att = nn::Softmax(
      nn::Reshape(nn::Add(att_logit, mask), batch, num_types));
  nn::Tensor att_flat = nn::Reshape(att, batch * num_types, 1);
  nn::Tensor context =
      nn::GroupSumRows(nn::Mul(type_ctx, att_flat), num_types);  // [B, d]

  nn::Tensor v_rep = nn::Gather(item_emb_, items);
  nn::Tensor features = nn::Concat(nn::Concat(u_rep, context), v_rep);
  return score_out_.Forward(nn::Relu(score_hidden_.Forward(features)));
}

void McRecRecommender::BuildPathIndex(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  finder_ = std::make_unique<TemplatePathFinder>(
      *graph_, *context.train, config_.instances_per_type,
      config_.num_threads);
  // Meta-path types: the >=2-edge user->item meta-paths of the schema
  // (shared-attribute per relation + collaborative), matching the
  // finder's templates.
  type_keys_.clear();
  for (const MetaPath& meta : UserItemMetaPaths(*graph_)) {
    if (meta.relations.size() < 2) continue;  // direct edge excluded
    type_keys_.push_back(SignatureKey(meta.relations));
  }
  KGREC_CHECK(!type_keys_.empty());
}

void McRecRecommender::Fit(const RecContext& context) {
  BuildPathIndex(context);
  const InteractionDataset& train = *context.train;
  const size_t d = config_.dim;
  Rng rng(context.seed);

  user_emb_ = nn::NormalInit(train.num_users(), d, 0.1f, rng);
  item_emb_ = nn::NormalInit(train.num_items(), d, 0.1f, rng);
  entity_emb_ = nn::NormalInit(graph_->kg.num_entities(), d, 0.1f, rng);
  conv_ = nn::Linear(2 * d, d, rng);
  att_hidden_ = nn::Linear(2 * d, d, rng);
  att_out_ = nn::Linear(d, 1, rng);
  score_hidden_ = nn::Linear(3 * d, d, rng);
  score_out_ = nn::Linear(d, 1, rng);

  std::vector<nn::Tensor> params{user_emb_, item_emb_, entity_emb_};
  for (const nn::Linear* l :
       {&conv_, &att_hidden_, &att_out_, &score_hidden_, &score_out_}) {
    for (const auto& x : l->Params()) params.push_back(x);
  }
  nn::Adagrad optimizer(params, config_.learning_rate, config_.l2);
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
      nn::Tensor loss = nn::BceWithLogits(Forward(users, items), labels);
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

std::string McRecRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("instances", static_cast<double>(config_.instances_per_type))
      .str();
}

Status McRecRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("user_emb", &user_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("item_emb", &item_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("entity_emb", &entity_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Params("conv", conv_.Params()));
  KGREC_RETURN_IF_ERROR(visitor->Params("att_hidden", att_hidden_.Params()));
  KGREC_RETURN_IF_ERROR(visitor->Params("att_out", att_out_.Params()));
  KGREC_RETURN_IF_ERROR(visitor->Params("score_hidden", score_hidden_.Params()));
  return visitor->Params("score_out", score_out_.Params());
}

Status McRecRecommender::PrepareLoad(const RecContext& context) {
  BuildPathIndex(context);
  // Layers only need their parameter tensors allocated at the right
  // shapes before the in-place restore; any seed works.
  const size_t d = config_.dim;
  Rng rng(context.seed);
  conv_ = nn::Linear(2 * d, d, rng);
  att_hidden_ = nn::Linear(2 * d, d, rng);
  att_out_ = nn::Linear(d, 1, rng);
  score_hidden_ = nn::Linear(3 * d, d, rng);
  score_out_ = nn::Linear(d, 1, rng);
  return Status::OK();
}

float McRecRecommender::Score(int32_t user, int32_t item) const {
  std::vector<int32_t> users{user}, items{item};
  return Forward(users, items).value();
}

std::vector<float> McRecRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  std::vector<float> out(items.size());
  // Chunked so the [B*T*P, d] instance tensors stay cache-resident.
  constexpr size_t kChunk = 128;
  for (size_t start = 0; start < items.size(); start += kChunk) {
    const size_t batch = std::min(items.size() - start, kChunk);
    const std::vector<int32_t> users(batch, user);
    const std::vector<int32_t> chunk(items.begin() + start,
                                     items.begin() + start + batch);
    nn::Tensor logits = Forward(users, chunk);  // [B, 1]
    std::copy(logits.data(), logits.data() + batch, out.begin() + start);
  }
  return out;
}

}  // namespace kgrec
