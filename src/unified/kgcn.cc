#include "unified/kgcn.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

nn::Tensor KgcnRecommender::Forward(const std::vector<int32_t>& users,
                                    const std::vector<int32_t>& items,
                                    nn::Tensor* ls_logits) const {
  const size_t batch = users.size();
  const size_t k = config_.num_neighbors;
  const size_t depth = config_.num_layers;

  // Build the receptive field: entities[l] has batch * k^l rows.
  std::vector<std::vector<int32_t>> entities(depth + 1);
  std::vector<std::vector<int32_t>> relations(depth + 1);  // edge into row
  entities[0] = items;
  for (size_t l = 0; l < depth; ++l) {
    entities[l + 1].reserve(entities[l].size() * k);
    relations[l + 1].reserve(entities[l].size() * k);
    for (int32_t e : entities[l]) {
      if (entity_isolated_[e]) {
        for (size_t j = 0; j < k; ++j) {
          entities[l + 1].push_back(e);  // self-loop for isolated nodes
          relations[l + 1].push_back(0);
        }
        continue;
      }
      const Edge* row = sampled_edges_.data() + static_cast<size_t>(e) * k;
      for (size_t j = 0; j < k; ++j) {
        entities[l + 1].push_back(row[j].target);
        relations[l + 1].push_back(row[j].relation);
      }
    }
  }

  // Initial vectors per level.
  std::vector<nn::Tensor> vecs(depth + 1);
  for (size_t l = 0; l <= depth; ++l) {
    vecs[l] = nn::Gather(entity_emb_, entities[l]);
  }

  // Per-level user-relation attention, fixed across iterations.
  auto attention_for_level = [&](size_t l) {
    const size_t rows = entities[l].size();  // == batch * k^l
    const size_t per_user = rows / batch;
    std::vector<int32_t> user_of_row(rows);
    for (size_t i = 0; i < rows; ++i) {
      user_of_row[i] = users[i / per_user];
    }
    nn::Tensor u = nn::Gather(user_emb_, user_of_row);
    nn::Tensor r = nn::Gather(relation_emb_, relations[l]);
    nn::Tensor logits = nn::SumRows(nn::Mul(u, r));  // [rows, 1]
    nn::Tensor att =
        nn::Softmax(nn::Reshape(logits, rows / k, k));  // per parent node
    return nn::Reshape(att, rows, 1);
  };

  std::vector<nn::Tensor> attention(depth + 1);
  for (size_t l = 1; l <= depth; ++l) attention[l] = attention_for_level(l);

  // Label smoothness (KGCN-LS): the attention-propagated interaction
  // labels of the item's 1-hop neighborhood should predict the label.
  if (ls_logits != nullptr && depth >= 1) {
    std::vector<float> signed_labels(entities[1].size());
    for (size_t i = 0; i < entities[1].size(); ++i) {
      const int32_t e = entities[1][i];
      const int32_t u = users[i / k];
      const bool positive =
          e < num_items_ && train_->Contains(u, e);
      signed_labels[i] = positive ? 1.0f : -1.0f;
    }
    nn::Tensor labels =
        nn::Tensor::FromData(entities[1].size(), 1, std::move(signed_labels));
    *ls_logits = nn::ScaleBy(
        nn::GroupSumRows(nn::Mul(labels, attention[1]), k), 4.0f);
  }

  // Iterative inward aggregation (Eq. 29): H sweeps; sweep i updates
  // levels 0 .. depth-1-i.
  for (size_t i = 0; i < depth; ++i) {
    const bool final_sweep = (i + 1 == depth);
    std::vector<nn::Tensor> next(depth + 1);
    for (size_t l = 0; l + i < depth; ++l) {
      nn::Tensor weighted = nn::Mul(vecs[l + 1], attention[l + 1]);
      nn::Tensor pooled = nn::GroupSumRows(weighted, k);  // [rows(l), d]
      next[l] = aggregators_[i].Forward(vecs[l], pooled, final_sweep);
    }
    for (size_t l = 0; l + i < depth; ++l) vecs[l] = next[l];
  }

  nn::Tensor u = nn::Gather(user_emb_, users);
  return nn::SumRows(nn::Mul(u, vecs[0]));
}

void KgcnRecommender::BuildModel(const RecContext& context, Rng& rng) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = *context.item_kg;
  train_ = &train;
  num_items_ = train.num_items();
  const size_t d = config_.dim;

  user_emb_ = nn::NormalInit(train.num_users(), d, 0.1f, rng);
  entity_emb_ = nn::NormalInit(kg.num_entities(), d, 0.1f, rng);
  relation_emb_ = nn::NormalInit(kg.num_relations(), d, 0.1f, rng);
  aggregators_.clear();
  for (size_t l = 0; l < config_.num_layers; ++l) {
    aggregators_.emplace_back(config_.aggregator, d, rng);
  }

  // Static fixed-size receptive field (the paper resamples per batch; a
  // static sample keeps runs deterministic and is a standard variant).
  // Arena layout: the sampler always returns exactly num_neighbors edges
  // for connected entities, so rows pack at a fixed stride; isolated
  // entities (empty sample) only set a flag.
  sampled_edges_.assign(kg.num_entities() * config_.num_neighbors,
                        Edge{0, 0});
  entity_isolated_.assign(kg.num_entities(), 0);
  std::vector<Edge> sampled;  // reused across entities
  for (size_t e = 0; e < kg.num_entities(); ++e) {
    kg.SampleNeighbors(static_cast<EntityId>(e), config_.num_neighbors, rng,
                       &sampled);
    if (sampled.empty()) {
      entity_isolated_[e] = 1;
      continue;
    }
    KGREC_CHECK_EQ(sampled.size(), config_.num_neighbors);
    std::copy(sampled.begin(), sampled.end(),
              sampled_edges_.begin() + e * config_.num_neighbors);
  }
}

std::string KgcnRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("layers", static_cast<double>(config_.num_layers))
      .Add("neighbors", static_cast<double>(config_.num_neighbors))
      .Add("agg", static_cast<double>(config_.aggregator))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("ls_weight", config_.ls_weight)
      .str();
}

Status KgcnRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("user_emb", &user_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("entity_emb", &entity_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("relation_emb", &relation_emb_));
  for (size_t l = 0; l < aggregators_.size(); ++l) {
    KGREC_RETURN_IF_ERROR(visitor->Params("agg." + std::to_string(l),
                                          aggregators_[l].Params()));
  }
  return Status::OK();
}

Status KgcnRecommender::PrepareLoad(const RecContext& context) {
  // Replays Fit's preamble with Fit's seed: the embedding and aggregator
  // inits consume the same draws before the neighbor sampler, so the
  // static receptive field matches training bitwise; the parameter
  // values themselves are overwritten by the restore.
  Rng rng(context.seed);
  BuildModel(context, rng);
  return Status::OK();
}

void KgcnRecommender::Fit(const RecContext& context) {
  Rng rng(context.seed);
  BuildModel(context, rng);
  const InteractionDataset& train = *context.train;

  std::vector<nn::Tensor> params{user_emb_, entity_emb_, relation_emb_};
  for (const Aggregator& agg : aggregators_) {
    for (const auto& p : agg.Params()) params.push_back(p);
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
      nn::Tensor ls;
      nn::Tensor logits = Forward(
          users, items, config_.ls_weight > 0.0f ? &ls : nullptr);
      nn::Tensor loss = nn::BceWithLogits(logits, labels);
      if (config_.ls_weight > 0.0f) {
        loss = nn::Add(
            loss, nn::ScaleBy(nn::BceWithLogits(ls, labels),
                              config_.ls_weight));
      }
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

float KgcnRecommender::Score(int32_t user, int32_t item) const {
  std::vector<int32_t> users{user}, items{item};
  return Forward(users, items, nullptr).value();
}

std::vector<float> KgcnRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  std::vector<float> out(items.size());
  if (items.empty()) return out;
  const size_t k = config_.num_neighbors;
  const size_t depth = config_.num_layers;
  const size_t num_entities = entity_isolated_.size();

  // Once-per-user attention table: u . r for every relation, built with
  // the exact op sequence attention_for_level uses per row.
  const size_t num_relations = static_cast<size_t>(relation_emb_.rows());
  std::vector<int32_t> user_rows(num_relations, user);
  std::vector<int32_t> all_relations(num_relations);
  std::iota(all_relations.begin(), all_relations.end(), 0);
  nn::Tensor att_table = nn::SumRows(
      nn::Mul(nn::Gather(user_emb_, user_rows),
              nn::Gather(relation_emb_, all_relations)));  // [R, 1]

  // In Forward(), sweep i recomputes every receptive-field slot even
  // though the update for a slot holding entity e depends only on
  // (user, e): it is agg_i(U_{i-1}(e), pool(U_{i-1}(children(e)))) with
  // U_{-1} = entity_emb_ and the static neighbor sample fixed per
  // entity. For a single user we therefore compute each *distinct*
  // entity once per sweep — rows are capped by the entity count instead
  // of growing as B * k^depth — and every op (Gather / Mul /
  // GroupSumRows / per-parent Softmax / rowwise aggregator) runs the
  // same in-order float sequence per row, so scores stay bitwise equal
  // to Score().
  const auto child_of = [&](int32_t e, size_t j) {
    if (entity_isolated_[e]) return Edge{0, e};  // self-loop, relation 0
    return sampled_edges_[static_cast<size_t>(e) * k + j];
  };

  // Distinct candidates, first-occurrence order; slot[i] = distinct row.
  std::vector<int32_t> row_of(num_entities, -1);
  std::vector<int32_t> distinct;
  std::vector<int32_t> slot(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (row_of[items[i]] < 0) {
      row_of[items[i]] = static_cast<int32_t>(distinct.size());
      distinct.push_back(items[i]);
    }
    slot[i] = row_of[items[i]];
  }

  // need[i]: entities whose sweep-i output is required. Walking top-down,
  // sweep i's inputs are need[i] plus their sampled children.
  const auto expand = [&](const std::vector<int32_t>& s) {
    std::vector<char> seen(num_entities, 0);
    std::vector<int32_t> result = s;
    for (int32_t e : s) seen[e] = 1;
    for (int32_t e : s) {
      for (size_t j = 0; j < k; ++j) {
        const int32_t child = child_of(e, j).target;
        if (!seen[child]) {
          seen[child] = 1;
          result.push_back(child);
        }
      }
    }
    return result;
  };
  std::vector<std::vector<int32_t>> need(depth);
  if (depth > 0) need[depth - 1] = distinct;
  for (size_t i = depth; i-- > 1;) need[i - 1] = expand(need[i]);
  const std::vector<int32_t> base =
      depth > 0 ? expand(need[0]) : distinct;

  // U holds post-sweep representations; its rows follow `order`.
  std::vector<int32_t> order = base;
  nn::Tensor u_level = nn::Gather(entity_emb_, order);
  const auto reindex = [&](const std::vector<int32_t>& ord) {
    row_of.assign(num_entities, -1);
    for (size_t idx = 0; idx < ord.size(); ++idx) {
      row_of[ord[idx]] = static_cast<int32_t>(idx);
    }
  };
  reindex(order);
  for (size_t i = 0; i < depth; ++i) {
    const std::vector<int32_t>& s = need[i];
    const size_t rows = s.size() * k;
    std::vector<int32_t> child_rows;
    std::vector<int32_t> self_rows;
    std::vector<float> logit_data;
    child_rows.reserve(rows);
    self_rows.reserve(s.size());
    logit_data.reserve(rows);
    for (int32_t e : s) {
      self_rows.push_back(row_of[e]);
      for (size_t j = 0; j < k; ++j) {
        const Edge edge = child_of(e, j);
        child_rows.push_back(row_of[edge.target]);
        logit_data.push_back(att_table.data()[edge.relation]);
      }
    }
    nn::Tensor logits =
        nn::Tensor::FromData(rows, 1, std::move(logit_data));
    nn::Tensor att = nn::Reshape(
        nn::Softmax(nn::Reshape(logits, s.size(), k)), rows, 1);
    nn::Tensor pooled =
        nn::GroupSumRows(nn::Mul(nn::Gather(u_level, child_rows), att), k);
    u_level = aggregators_[i].Forward(nn::Gather(u_level, self_rows),
                                      pooled, i + 1 == depth);
    order = s;
    reindex(order);
  }

  // order == distinct here; dot with the user and scatter to candidates.
  std::vector<int32_t> user_of_row(distinct.size(), user);
  nn::Tensor scores = nn::SumRows(
      nn::Mul(nn::Gather(user_emb_, user_of_row), u_level));
  for (size_t i = 0; i < items.size(); ++i) {
    out[i] = scores.data()[slot[i]];
  }
  return out;
}

}  // namespace kgrec
