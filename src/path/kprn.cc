#include "path/kprn.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

nn::Tensor KprnRecommender::PathScores(
    const std::vector<PathInstance>& paths) const {
  if (paths.empty()) return nn::Tensor();
  size_t max_len = 0;
  for (const PathInstance& p : paths) {
    max_len = std::max(max_len, p.entities.size());
  }
  const size_t batch = paths.size();
  nn::LstmCell::State state = lstm_.InitialState(batch);
  for (size_t step = 0; step < max_len; ++step) {
    std::vector<int32_t> ents(batch), rels(batch);
    for (size_t p = 0; p < batch; ++p) {
      const auto& entities = paths[p].entities;
      const auto& relations = paths[p].relations;
      const size_t at = std::min(step, entities.size() - 1);
      ents[p] = entities[at];
      rels[p] = at < relations.size() ? relations[at] : end_relation_;
    }
    nn::Tensor x = nn::Concat(nn::Gather(entity_emb_, ents),
                              nn::Gather(relation_emb_, rels));
    state = lstm_.Step(x, state);
  }
  return score_out_.Forward(
      nn::Relu(score_hidden_.Forward(state.h)));  // [P, 1]
}

nn::Tensor KprnRecommender::Pool(const nn::Tensor& scores) const {
  // Weighted pooling (KPRN Eq. 9): gamma * log sum exp(s_p / gamma).
  const float gamma = config_.pooling_gamma;
  nn::Tensor scaled = nn::ScaleBy(scores, 1.0f / gamma);
  return nn::ScaleBy(nn::Log(nn::Sum(nn::Exp(scaled))), gamma);
}

nn::Tensor KprnRecommender::PairLogit(int32_t user, int32_t item) const {
  nn::Tensor scores = PathScores(finder_->FindPaths(user, item));
  return scores.defined() ? Pool(scores) : no_path_bias_;
}

void KprnRecommender::BuildPathIndex(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.user_item_graph != nullptr);
  finder_ = std::make_unique<TemplatePathFinder>(
      *context.user_item_graph, *context.train,
      config_.max_paths_per_template, config_.num_threads);
}

void KprnRecommender::Fit(const RecContext& context) {
  BuildPathIndex(context);
  const InteractionDataset& train = *context.train;
  const UserItemGraph& graph = *context.user_item_graph;
  Rng rng(context.seed);

  entity_emb_ =
      nn::NormalInit(graph.kg.num_entities(), config_.dim, 0.1f, rng);
  end_relation_ = static_cast<int32_t>(graph.kg.num_relations());
  relation_emb_ =
      nn::NormalInit(graph.kg.num_relations() + 1, config_.dim, 0.1f, rng);
  lstm_ = nn::LstmCell(2 * config_.dim, config_.hidden_dim, rng);
  score_hidden_ = nn::Linear(config_.hidden_dim, config_.hidden_dim, rng);
  score_out_ = nn::Linear(config_.hidden_dim, 1, rng);
  no_path_bias_ =
      nn::Tensor::FromData(1, 1, {-1.0f}, /*requires_grad=*/true);

  std::vector<nn::Tensor> params{entity_emb_, relation_emb_, no_path_bias_};
  for (const auto& p : lstm_.Params()) params.push_back(p);
  for (const auto& p : score_hidden_.Params()) params.push_back(p);
  for (const auto& p : score_out_.Params()) params.push_back(p);
  nn::Adagrad optimizer(params, config_.learning_rate, config_.l2);
  NegativeSampler sampler(train);
  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      nn::Tensor logits;
      std::vector<float> labels;
      for (size_t i = start; i < end; ++i) {
        const Interaction& x = train.interactions()[order[i]];
        nn::Tensor pos = PairLogit(x.user, x.item);
        nn::Tensor neg = PairLogit(x.user, sampler.Sample(x.user, rng));
        logits = logits.defined() ? nn::Concat(nn::Concat(logits, pos), neg)
                                  : nn::Concat(pos, neg);
        labels.push_back(1.0f);
        labels.push_back(0.0f);
      }
      nn::Tensor loss = nn::BceWithLogits(logits, labels);
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

std::string KprnRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("hidden_dim", static_cast<double>(config_.hidden_dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("max_paths", static_cast<double>(config_.max_paths_per_template))
      .Add("gamma", config_.pooling_gamma)
      .str();
}

Status KprnRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("entity_emb", &entity_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Tensor("relation_emb", &relation_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Params("lstm", lstm_.Params()));
  KGREC_RETURN_IF_ERROR(visitor->Params("score_hidden", score_hidden_.Params()));
  KGREC_RETURN_IF_ERROR(visitor->Params("score_out", score_out_.Params()));
  return visitor->Tensor("no_path_bias", &no_path_bias_);
}

Status KprnRecommender::PrepareLoad(const RecContext& context) {
  BuildPathIndex(context);
  end_relation_ =
      static_cast<int32_t>(context.user_item_graph->kg.num_relations());
  // Layers only need their parameter tensors allocated at the right
  // shapes before the in-place restore; any seed works.
  Rng rng(context.seed);
  lstm_ = nn::LstmCell(2 * config_.dim, config_.hidden_dim, rng);
  score_hidden_ = nn::Linear(config_.hidden_dim, config_.hidden_dim, rng);
  score_out_ = nn::Linear(config_.hidden_dim, 1, rng);
  return Status::OK();
}

float KprnRecommender::Score(int32_t user, int32_t item) const {
  return PairLogit(user, item).value();
}

std::vector<float> KprnRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  std::vector<float> out(items.size());
  // Chunked so the [P, hidden] LSTM intermediates stay bounded. Every
  // template path has 4 entities, so one LSTM pass over many candidates'
  // paths takes the same steps as the per-pair call.
  constexpr size_t kChunk = 512;
  for (size_t start = 0; start < items.size(); start += kChunk) {
    const size_t end = std::min(items.size(), start + kChunk);
    std::vector<PathInstance> batch_paths;
    std::vector<size_t> counts;
    for (size_t i = start; i < end; ++i) {
      std::vector<PathInstance> paths = finder_->FindPaths(user, items[i]);
      counts.push_back(paths.size());
      std::move(paths.begin(), paths.end(), std::back_inserter(batch_paths));
    }
    nn::Tensor scores = PathScores(batch_paths);  // [P, 1]
    int32_t offset = 0;
    for (size_t i = start; i < end; ++i) {
      const size_t count = counts[i - start];
      if (count == 0) {
        out[i] = no_path_bias_.value();
        continue;
      }
      std::vector<int32_t> rows(count);
      std::iota(rows.begin(), rows.end(), offset);
      offset += static_cast<int32_t>(count);
      out[i] = Pool(nn::Gather(scores, rows)).value();
    }
  }
  return out;
}

std::string KprnRecommender::ExplainBestPath(int32_t user,
                                             int32_t item) const {
  const std::vector<PathInstance> paths = finder_->FindPaths(user, item);
  nn::Tensor scores = PathScores(paths);
  if (!scores.defined()) return "";
  size_t best = 0;
  for (size_t p = 1; p < scores.size(); ++p) {
    if (scores.data()[p] > scores.data()[best]) best = p;
  }
  return FormatPath(finder_->graph().kg, paths[best]);
}

}  // namespace kgrec
