// Quickstart: the 60-second tour of kgrec.
//   1. generate a synthetic recommendation world (interactions + item KG),
//   2. split it, 3. train a KG-based recommender (RippleNet),
//   4. evaluate, 5. print top-5 recommendations for one user,
//   6. checkpoint the model and serve the same top-5 from a fresh load,
//   7. stand up the serving layer (ServeHandle + Router) over the
//      checkpoint and hot-swap a new generation under live requests,
//   8. serve catalog top-K through the retrieval layer: a factorizable
//      model answers through an exact index (bitwise the exhaustive
//      scan, O(K) memory), then through the SQ8 quantized scan
//      (ScanPrecision::kSq8 — 4x fewer bytes streamed, same bitwise
//      top-K after the exact re-rank), and the non-factorizable
//      RippleNet ranker serves through the two-stage
//      retrieve-then-rerank path.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "cf/mf.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "math/topk.h"
#include "serve/router.h"
#include "serve/serve_handle.h"
#include "unified/ripplenet.h"

int main() {
  using namespace kgrec;  // example-local convenience

  // 1. A world: 200 users, 300 movies, a KG with genres and directors.
  WorldConfig config;
  config.num_users = 200;
  config.num_items = 300;
  config.avg_interactions_per_user = 15.0;
  config.item_relations = {{"genre", 12, 1, 0.9f},
                           {"director", 40, 1, 0.8f}};
  config.seed = 42;
  SyntheticWorld world = GenerateWorld(config);
  std::printf("world: %zu interactions, KG with %zu entities / %zu facts\n",
              world.interactions.num_interactions(),
              world.item_kg.num_entities(), world.item_kg.num_triples());

  // 2. Hold out 20% of each user's history for evaluation.
  Rng rng(7);
  DataSplit split = RatioSplit(world.interactions, 0.2, rng);

  // 3. Train RippleNet (preference propagation over the item KG).
  RippleNetConfig model_config;
  model_config.epochs = 8;
  RippleNetRecommender model(model_config);
  RecContext ctx;
  ctx.train = &split.train;
  ctx.item_kg = &world.item_kg;
  ctx.seed = 1;
  model.Fit(ctx);

  // 4. Evaluate: CTR AUC and top-10 ranking quality. Evaluation is
  // parallel; per-user RNG streams make the metrics bitwise identical at
  // any thread count.
  EvalOptions eval;
  eval.num_threads = ThreadPool::HardwareThreads();
  eval.k = 10;
  eval.num_negatives = 50;
  eval.seed = 9;
  CtrMetrics ctr = EvaluateCtr(model, split.train, split.test, eval);
  TopKMetrics topk = EvaluateTopK(model, split.train, split.test, eval);
  std::printf("AUC=%.3f  ACC=%.3f  NDCG@10=%.3f  Recall@10=%.3f\n", ctr.auc,
              ctr.accuracy, topk.ndcg, topk.recall);

  // 5. Top-5 unseen items for user 0.
  const int32_t user = 0;
  std::vector<float> scores = model.ScoreAll(user, config.num_items);
  for (int32_t j = 0; j < config.num_items; ++j) {
    if (split.train.Contains(user, j)) scores[j] = -1e30f;
  }
  const std::vector<int32_t> top5 = TopKIndices(scores, 5);
  std::printf("top-5 for user %d:", user);
  for (int32_t j : top5) {
    std::printf(" %s", world.item_kg.entity_name(j).c_str());
  }
  std::printf("\n");

  // 6. Checkpoint and serve from a fresh process-like restore. Save()
  // writes only the learned parameters (atomically — a crashed save
  // never clobbers a good checkpoint); Load() recomputes derived state
  // (here: the ripple sets) from the same data and seed, so the restored
  // model serves *bitwise* the scores the fitted one did. Loading into a
  // mismatched model type or hyper-parameter set fails with a clear
  // Status instead of garbage scores; kgrec::LoadModel() reconstructs
  // the concrete type from the checkpoint header alone when the model
  // was trained with registry-default hyper-parameters.
  const std::string path = "/tmp/kgrec_quickstart.kgrc";
  Status status = model.Save(path);
  if (!status.ok()) {
    std::printf("save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  RippleNetRecommender served(model_config);
  status = served.Load(ctx, path);
  if (!status.ok()) {
    std::printf("load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::vector<float> served_scores = served.ScoreAll(user, config.num_items);
  for (int32_t j = 0; j < config.num_items; ++j) {
    if (split.train.Contains(user, j)) served_scores[j] = -1e30f;
  }
  const std::vector<int32_t> served_top5 = TopKIndices(served_scores, 5);
  std::printf("top-5 after restore:");
  for (int32_t j : served_top5) {
    std::printf(" %s", world.item_kg.entity_name(j).c_str());
  }
  std::printf("  (%s)\n",
              served_top5 == top5 ? "identical" : "DIVERGED — BUG");
  if (served_top5 != top5) return 1;

  // 7. The long-lived serving layer: wrap the checkpoint in an immutable
  // ServeHandle and put a Router in front of it — per-user request
  // batching on a thread pool behind a bounded admission queue. Then hot
  // swap: load a new generation (here: the same checkpoint again),
  // atomically flip the serving handle, and drain in-flight requests on
  // the old one. Responses carry the generation that served them, and
  // the scores stay bitwise identical to direct ScoreItems calls.
  // A handle adopts a loaded model. This one was trained under
  // non-default hyper-parameters, so it loads into an explicitly
  // configured prototype; a checkpoint of a registry-default model loads
  // with kgrec::LoadModel() instead.
  const auto load_generation =
      [&](uint64_t generation,
          std::shared_ptr<const serve::ServeHandle>* out) -> Status {
    auto prototype = std::make_unique<RippleNetRecommender>(model_config);
    KGREC_RETURN_IF_ERROR(prototype->Load(ctx, path));
    *out = serve::ServeHandle::Adopt(std::move(prototype), ctx, generation);
    return Status::OK();
  };
  std::shared_ptr<const serve::ServeHandle> handle;
  status = load_generation(/*generation=*/1, &handle);
  if (!status.ok()) {
    std::printf("serve load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  serve::Router router({}, handle);
  serve::ScoreResponse before_swap = router.ScoreSync({user, top5});
  std::shared_ptr<const serve::ServeHandle> next_generation;
  status = load_generation(/*generation=*/2, &next_generation);
  if (status.ok()) status = router.Swap(next_generation);
  if (!status.ok()) {
    std::printf("hot swap failed: %s\n", status.ToString().c_str());
    return 1;
  }
  serve::ScoreResponse after_swap = router.ScoreSync({user, top5});
  const bool swap_ok = before_swap.status.ok() && after_swap.status.ok() &&
                       before_swap.scores == after_swap.scores;
  std::printf(
      "served top-5 via router: generation %llu -> %llu after hot swap "
      "(%s)\n",
      static_cast<unsigned long long>(before_swap.generation),
      static_cast<unsigned long long>(after_swap.generation),
      swap_ok ? "scores bitwise identical" : "DIVERGED — BUG");
  if (!swap_ok) {
    std::remove(path.c_str());
    return 1;
  }

  // 8. Catalog top-K through the retrieval layer. A factorizable model
  // (MF: score = u . v) adopted with the default RetrievalSpec serves
  // Recommend() through an exact index over its exported item factors —
  // bitwise identical to scoring the whole catalog, but O(K) memory per
  // request. Exclusion (here: the user's training history) is a
  // selection filter, never a score overwrite, so it composes with any
  // score a model can emit (including -inf).
  std::vector<int32_t> history;
  for (int32_t j = 0; j < config.num_items; ++j) {
    if (split.train.Contains(user, j)) history.push_back(j);
  }
  auto mf = std::make_unique<MfRecommender>();
  mf->Fit(ctx);
  const auto indexed =
      serve::ServeHandle::Adopt(std::move(mf), ctx, /*generation=*/3);
  const auto via_index = indexed->Recommend(user, 5, history);
  std::printf("MF top-5 via %s:", indexed->retrieval_mode().c_str());
  for (const auto& [item, score] : via_index) {
    std::printf(" %s", world.item_kg.entity_name(item).c_str());
  }
  std::printf("\n");

  // The same model through the SQ8 quantized scan: item factors are
  // stored as one byte per entry (4x smaller working set), the scan
  // runs on the int8 SIMD kernels, and an exact float32 re-rank of the
  // over-fetched candidate pool restores the ranking — the served
  // top-K is bitwise identical to the float32 index's.
  auto mf_sq8 = std::make_unique<MfRecommender>();
  mf_sq8->Fit(ctx);
  serve::RetrievalSpec sq8_spec;
  sq8_spec.scan.precision = retrieval::ScanPrecision::kSq8;
  std::shared_ptr<const serve::ServeHandle> quantized;
  status = serve::ServeHandle::Adopt(std::move(mf_sq8), ctx,
                                     /*generation=*/5, sq8_spec, &quantized);
  if (!status.ok()) {
    std::printf("sq8 adopt failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const auto via_sq8 = quantized->Recommend(user, 5, history);
  std::printf("MF top-5 via %s: %s\n", quantized->retrieval_mode().c_str(),
              via_sq8 == via_index ? "bitwise identical to the float scan"
                                   : "DIVERGED — BUG");
  if (via_sq8 != via_index) return 1;

  // Non-factorizable rankers (RippleNet's score has no (q_u, x_v)
  // form) use the two-stage architecture: a factorizable candidate
  // model's index retrieves C candidates, the ranker re-ranks exactly
  // those with one batched ScoreItems call. Returned scores are the
  // ranker's own — here the checkpoint-restored RippleNet's.
  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(ctx);
  auto ranker = std::make_unique<RippleNetRecommender>(model_config);
  status = ranker->Load(ctx, path);
  std::remove(path.c_str());
  if (!status.ok()) {
    std::printf("ranker load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  serve::RetrievalSpec spec;
  spec.mode = serve::RetrievalSpec::Mode::kTwoStage;
  spec.candidate_model = candidate;
  std::shared_ptr<const serve::ServeHandle> two_stage;
  status = serve::ServeHandle::Adopt(std::move(ranker), ctx,
                                     /*generation=*/4, spec, &two_stage);
  if (!status.ok()) {
    std::printf("two-stage adopt failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const auto reranked = two_stage->Recommend(user, 5, history);
  std::printf("%s top-5 via %s (MF candidates):", two_stage->model_name().c_str(),
              two_stage->retrieval_mode().c_str());
  for (const auto& [item, score] : reranked) {
    std::printf(" %s", world.item_kg.entity_name(item).c_str());
  }
  std::printf("\n");
  return reranked.size() == 5 ? 0 : 1;
}
