#include "embed/mkr.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "math/kernels.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

nn::Tensor MkrRecommender::Cross(const nn::Tensor& item_vecs,
                                 const nn::Tensor& entity_vecs,
                                 nn::Tensor* out_entity) const {
  nn::Tensor v = item_vecs;
  nn::Tensor e = entity_vecs;
  for (const CrossUnit& unit : cross_units_) {
    // Row-broadcast weights compress the cross features C = v e^T:
    // C w == v (e . w); C^T w == e (v . w).
    nn::Tensor ew_vv = nn::SumRows(nn::Mul(e, unit.w_vv));  // [B,1]
    nn::Tensor vw_ev = nn::SumRows(nn::Mul(v, unit.w_ev));
    nn::Tensor ew_ve = nn::SumRows(nn::Mul(e, unit.w_ve));
    nn::Tensor vw_ee = nn::SumRows(nn::Mul(v, unit.w_ee));
    // Residual keeps v' well-scaled at initialization (the compressed
    // cross term starts near zero at our small embedding scale).
    nn::Tensor v_next = nn::Add(
        v, nn::Add(nn::Add(nn::Mul(v, ew_vv), nn::Mul(e, vw_ev)), unit.b_v));
    nn::Tensor e_next = nn::Add(
        e, nn::Add(nn::Add(nn::Mul(v, ew_ve), nn::Mul(e, vw_ee)), unit.b_e));
    v = v_next;
    e = e_next;
  }
  if (out_entity != nullptr) *out_entity = e;
  return v;
}

void MkrRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = *context.item_kg;
  const int32_t m = train.num_users();
  num_items_ = train.num_items();
  const size_t d = config_.dim;
  Rng rng(context.seed);

  user_emb_ = nn::NormalInit(m, d, 0.1f, rng);
  item_emb_ = nn::NormalInit(num_items_, d, 0.1f, rng);
  entity_emb_ = nn::NormalInit(kg.num_entities(), d, 0.1f, rng);
  relation_emb_ = nn::NormalInit(kg.num_relations(), d, 0.1f, rng);
  cross_units_.clear();
  for (int l = 0; l < config_.num_cross_layers; ++l) {
    CrossUnit unit;
    unit.w_vv = nn::UniformInit(1, d, -0.5f, 0.5f, rng);
    unit.w_ev = nn::UniformInit(1, d, -0.5f, 0.5f, rng);
    unit.w_ve = nn::UniformInit(1, d, -0.5f, 0.5f, rng);
    unit.w_ee = nn::UniformInit(1, d, -0.5f, 0.5f, rng);
    unit.b_v = nn::Tensor::Zeros(1, d, /*requires_grad=*/true);
    unit.b_e = nn::Tensor::Zeros(1, d, /*requires_grad=*/true);
    cross_units_.push_back(unit);
  }
  kge_hidden_ = nn::Linear(2 * d, d, rng);

  std::vector<nn::Tensor> params{user_emb_, item_emb_, entity_emb_,
                                 relation_emb_};
  for (const CrossUnit& unit : cross_units_) {
    for (const auto& p : unit.Params()) params.push_back(p);
  }
  for (const auto& p : kge_hidden_.Params()) params.push_back(p);
  nn::Adagrad optimizer(params, config_.learning_rate, config_.l2);
  NegativeSampler sampler(train);
  const auto& triples = kg.triples();

  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      // --- Recommendation task -------------------------------------
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
      nn::Tensor v = Cross(nn::Gather(item_emb_, items),
                           nn::Gather(entity_emb_, items), nullptr);
      nn::Tensor rec_loss = nn::BceWithLogits(nn::RowwiseDot(u, v), labels);
      // --- KGE task: predict tail from (head, relation) -------------
      std::vector<int32_t> heads, rels, tails;
      std::vector<float> kge_labels;
      const size_t kg_batch = end - start;
      for (size_t i = 0; i < kg_batch; ++i) {
        const Triple& t = triples[rng.UniformInt(triples.size())];
        heads.push_back(t.head);
        rels.push_back(t.relation);
        tails.push_back(t.tail);
        kge_labels.push_back(1.0f);
        heads.push_back(t.head);
        rels.push_back(t.relation);
        tails.push_back(
            static_cast<int32_t>(rng.UniformInt(kg.num_entities())));
        kge_labels.push_back(0.0f);
      }
      // Heads that are items pass through cross&compress with the item
      // table; attribute entities use their embeddings directly. For
      // batching simplicity all heads cross with an item-or-self vector.
      std::vector<int32_t> head_item_ids;
      for (int32_t hd : heads) {
        head_item_ids.push_back(hd < num_items_ ? hd : 0);
      }
      std::vector<float> head_is_item;
      for (int32_t hd : heads) {
        head_is_item.push_back(hd < num_items_ ? 1.0f : 0.0f);
      }
      nn::Tensor h_plain = nn::Gather(entity_emb_, heads);
      nn::Tensor crossed_entity;
      Cross(nn::Gather(item_emb_, head_item_ids), h_plain, &crossed_entity);
      nn::Tensor gate = nn::Tensor::FromData(heads.size(), 1,
                                             std::move(head_is_item));
      nn::Tensor inv_gate = nn::AddConst(nn::Neg(gate), 1.0f);
      nn::Tensor h = nn::Add(nn::Mul(crossed_entity, gate),
                             nn::Mul(h_plain, inv_gate));
      nn::Tensor r = nn::Gather(relation_emb_, rels);
      nn::Tensor t_pred = nn::Tanh(kge_hidden_.Forward(nn::Concat(h, r)));
      nn::Tensor t_true = nn::Gather(entity_emb_, tails);
      nn::Tensor kge_loss =
          nn::BceWithLogits(nn::RowwiseDot(t_pred, t_true), kge_labels);
      nn::Tensor loss =
          nn::Add(rec_loss, nn::ScaleBy(kge_loss, config_.kg_weight));
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

std::string MkrRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("kg_weight", config_.kg_weight)
      .Add("num_cross_layers", config_.num_cross_layers)
      .str();
}

Status MkrRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("user_emb", &user_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("item_emb", &item_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("entity_emb", &entity_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("relation_emb", &relation_emb_));
  for (size_t l = 0; l < cross_units_.size(); ++l) {
    KGREC_RETURN_IF_ERROR(visitor->Params(
        "cross." + std::to_string(l), cross_units_[l].Params()));
  }
  return visitor->Params("kge_hidden", kge_hidden_.Params());
}

Status MkrRecommender::PrepareLoad(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  num_items_ = context.train->num_items();
  const size_t d = config_.dim;
  Rng rng(context.seed);
  cross_units_.clear();
  for (int l = 0; l < config_.num_cross_layers; ++l) {
    CrossUnit unit;
    unit.w_vv = nn::UniformInit(1, d, -0.5f, 0.5f, rng);
    unit.w_ev = nn::UniformInit(1, d, -0.5f, 0.5f, rng);
    unit.w_ve = nn::UniformInit(1, d, -0.5f, 0.5f, rng);
    unit.w_ee = nn::UniformInit(1, d, -0.5f, 0.5f, rng);
    unit.b_v = nn::Tensor::Zeros(1, d, /*requires_grad=*/true);
    unit.b_e = nn::Tensor::Zeros(1, d, /*requires_grad=*/true);
    cross_units_.push_back(unit);
  }
  kge_hidden_ = nn::Linear(2 * d, d, rng);
  return Status::OK();
}

float MkrRecommender::Score(int32_t user, int32_t item) const {
  std::vector<int32_t> items{item};
  nn::Tensor v = Cross(nn::Gather(item_emb_, items),
                       nn::Gather(entity_emb_, items), nullptr);
  const size_t d = config_.dim;
  return kernels::Dot(user_emb_.data() + user * d, v.data(), d);
}

}  // namespace kgrec
