#include "embed/cfkg.h"

#include "core/check.h"
#include "core/model_state.h"
#include "kge/kge_trainer.h"

namespace kgrec {

void CfkgRecommender::Fit(const RecContext& context) {
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  const KnowledgeGraph& kg = graph_->kg;
  Rng rng(context.seed);
  model_ = MakeKgeModel(config_.kge, kg.num_entities(), kg.num_relations(),
                        config_.dim, rng);
  KgeTrainConfig train_config;
  train_config.epochs = config_.epochs;
  train_config.batch_size = config_.batch_size;
  train_config.learning_rate = config_.learning_rate;
  train_config.margin = config_.margin;
  train_config.l2 = config_.l2;
  train_config.seed = context.seed + 1;
  train_config.num_threads = config_.num_threads;
  TrainKge(*model_, kg, train_config);
  BuildItemFactors();
}

std::string CfkgRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("margin", config_.margin)
      .Add("l2", config_.l2)
      .Add("kge", config_.kge)
      .str();
}

Status CfkgRecommender::VisitState(StateVisitor* visitor) {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("CFKG has no KGE backend (not fitted)");
  }
  return visitor->Params("kge", model_->Params());
}

Status CfkgRecommender::PrepareLoad(const RecContext& context) {
  KGREC_CHECK(context.user_item_graph != nullptr);
  graph_ = context.user_item_graph;
  // Any seed works here: the backend only needs its parameter tensors
  // allocated at the right shapes before the in-place restore.
  Rng rng(context.seed);
  model_ = MakeKgeModel(config_.kge, graph_->kg.num_entities(),
                        graph_->kg.num_relations(), config_.dim, rng);
  return Status::OK();
}

Status CfkgRecommender::FinishLoad(const RecContext& /*context*/) {
  // Derived, not stored: the projected item matrix is a pure function of
  // the restored backend parameters, so the rebuild is bitwise the
  // fitted one.
  BuildItemFactors();
  return Status::OK();
}

void CfkgRecommender::BuildItemFactors() {
  KGREC_CHECK(graph_ != nullptr);
  item_factors_ = Matrix(graph_->num_items, config_.dim);
  for (int32_t item = 0; item < graph_->num_items; ++item) {
    model_->FillTailFactor(graph_->ItemEntity(item),
                           graph_->interact_relation,
                           item_factors_.Row(item));
  }
}

retrieval::ScoreKernel CfkgRecommender::factor_kernel() const {
  KGREC_CHECK(model_ != nullptr);
  return model_->retrieval_kernel();
}

void CfkgRecommender::FillUserQuery(int32_t user,
                                    std::span<float> out) const {
  KGREC_CHECK_EQ(out.size(), config_.dim);
  model_->FillHeadQuery(graph_->UserEntity(user), graph_->interact_relation,
                        out.data());
}

size_t CfkgRecommender::factor_users() const {
  return graph_ != nullptr ? static_cast<size_t>(graph_->num_users) : 0;
}

float CfkgRecommender::Score(int32_t user, int32_t item) const {
  // KGE plausibility of <user, interact, item> (higher = preferred,
  // survey Eq. 7), computed through the fixed-relation factorization so
  // Score, ScoreItems and index scans share one float sequence.
  std::vector<float> query(config_.dim);
  FillUserQuery(user, query);
  return retrieval::KernelScore(factor_kernel(), query.data(),
                                item_factors_.Row(item), config_.dim);
}

std::vector<float> CfkgRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  std::vector<float> query(config_.dim);
  FillUserQuery(user, query);
  std::vector<const float*> rows(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    rows[i] = item_factors_.Row(items[i]);
  }
  std::vector<float> out(items.size());
  retrieval::KernelScoreBatch(factor_kernel(), query.data(), rows.data(),
                              rows.size(), config_.dim, out.data());
  return out;
}

}  // namespace kgrec
