#include "path/rkge.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

nn::Tensor RkgeRecommender::EncodePaths(
    const std::vector<PathInstance>& paths) const {
  // Paths are padded to the longest by repeating the final entity (a
  // no-op for the state that reached it: negligible at these lengths).
  size_t max_len = 0;
  for (const PathInstance& p : paths) {
    max_len = std::max(max_len, p.entities.size());
  }
  const size_t batch = paths.size();
  nn::Tensor h = nn::Tensor::Zeros(batch, config_.hidden_dim);
  for (size_t step = 0; step < max_len; ++step) {
    std::vector<int32_t> ids(batch);
    for (size_t p = 0; p < batch; ++p) {
      const auto& entities = paths[p].entities;
      ids[p] = entities[std::min(step, entities.size() - 1)];
    }
    h = gru_.Step(nn::Gather(entity_emb_, ids), h);
  }
  return h;
}

nn::Tensor RkgeRecommender::PoolAndScore(const nn::Tensor& h) const {
  // Average-pool the final states, then FC (Eq. 19-20).
  const size_t count = h.rows();
  nn::Tensor pooled =
      nn::ScaleBy(nn::GroupSumRows(h, count), 1.0f / count);  // [1, hidden]
  return output_.Forward(pooled);  // [1,1]
}

nn::Tensor RkgeRecommender::PairLogit(int32_t user, int32_t item) const {
  const std::vector<PathInstance> paths = finder_->FindPaths(user, item);
  if (paths.empty()) return no_path_bias_;
  return PoolAndScore(EncodePaths(paths));
}

void RkgeRecommender::BuildPathIndex(const RecContext& context) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.user_item_graph != nullptr);
  finder_ = std::make_unique<TemplatePathFinder>(
      *context.user_item_graph, *context.train,
      config_.max_paths_per_template, config_.num_threads);
}

void RkgeRecommender::Fit(const RecContext& context) {
  BuildPathIndex(context);
  const InteractionDataset& train = *context.train;
  const UserItemGraph& graph = *context.user_item_graph;
  Rng rng(context.seed);

  entity_emb_ =
      nn::NormalInit(graph.kg.num_entities(), config_.dim, 0.1f, rng);
  gru_ = nn::GruCell(config_.dim, config_.hidden_dim, rng);
  output_ = nn::Linear(config_.hidden_dim, 1, rng);
  no_path_bias_ =
      nn::Tensor::FromData(1, 1, {-1.0f}, /*requires_grad=*/true);

  std::vector<nn::Tensor> params{entity_emb_, no_path_bias_};
  for (const auto& p : gru_.Params()) params.push_back(p);
  for (const auto& p : output_.Params()) params.push_back(p);
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

std::string RkgeRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("hidden_dim", static_cast<double>(config_.hidden_dim))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("max_paths", static_cast<double>(config_.max_paths_per_template))
      .str();
}

Status RkgeRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("entity_emb", &entity_emb_));
  KGREC_RETURN_IF_ERROR(visitor->Params("gru", gru_.Params()));
  KGREC_RETURN_IF_ERROR(visitor->Params("output", output_.Params()));
  return visitor->Tensor("no_path_bias", &no_path_bias_);
}

Status RkgeRecommender::PrepareLoad(const RecContext& context) {
  BuildPathIndex(context);
  // The GRU and output layer only need their parameter tensors allocated
  // at the right shapes before the in-place restore; any seed works.
  Rng rng(context.seed);
  gru_ = nn::GruCell(config_.dim, config_.hidden_dim, rng);
  output_ = nn::Linear(config_.hidden_dim, 1, rng);
  return Status::OK();
}

float RkgeRecommender::Score(int32_t user, int32_t item) const {
  return PairLogit(user, item).value();
}

std::vector<float> RkgeRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  std::vector<float> out(items.size());
  // Chunked so the [P, hidden] GRU intermediates stay bounded. Every
  // template path has 4 entities, so one GRU pass over many candidates'
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
    nn::Tensor h = EncodePaths(batch_paths);  // [P, hidden]
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
      out[i] = PoolAndScore(nn::Gather(h, rows)).value();
    }
  }
  return out;
}

}  // namespace kgrec
