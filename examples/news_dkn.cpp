// News recommendation with DKN (survey Section 5, Bing-News scenario):
// news items are entity-rich but user histories are shallow, so the
// knowledge channel carries most of the signal. DKN is compared against
// BPR-MF on a Bing-News-like world.
//
// Build & run:  ./build/examples/news_dkn

#include <cstdio>

#include "cf/mf.h"
#include "core/recommender.h"
#include "data/presets.h"
#include "embed/dkn.h"
#include "eval/protocol.h"

int main() {
  using namespace kgrec;  // example-local convenience

  WorldConfig config = GetPreset("bing-news").config;
  config.num_users = 250;
  config.num_items = 400;
  SyntheticWorld world = GenerateWorld(config);
  Rng rng(6);
  DataSplit split = RatioSplit(world.interactions, 0.25, rng);
  std::printf(
      "bing-news-like world: %zu clicks, density %.2f%%, KG: %zu entities\n",
      split.train.num_interactions(), 100.0 * split.train.Density(),
      world.item_kg.num_entities());

  RecContext ctx;
  ctx.train = &split.train;
  ctx.item_kg = &world.item_kg;
  ctx.seed = 11;

  auto evaluate = [&](Recommender& model) {
    model.Fit(ctx);
    Rng eval_rng(12);
    EvalOptions ctr_options;
    ctr_options.seed = eval_rng.NextUint64();
    CtrMetrics ctr = EvaluateCtr(model, split.train, split.test, ctr_options);
    EvalOptions topk_options;
    topk_options.seed = eval_rng.NextUint64();
    TopKMetrics topk =
        EvaluateTopK(model, split.train, split.test, topk_options);
    std::printf("%-8s AUC=%.3f  F1=%.3f  NDCG@10=%.3f  HR@10=%.3f\n",
                model.name().c_str(), ctr.auc, ctr.f1, topk.ndcg,
                topk.hit_rate);
  };

  BprMfRecommender baseline;
  evaluate(baseline);
  DknConfig dkn_config;
  dkn_config.epochs = 8;
  DknRecommender dkn(dkn_config);
  evaluate(dkn);
  std::printf(
      "\nDKN's candidate-conditioned attention over the click history plus\n"
      "the TransD entity channel lifts quality over plain MF on this\n"
      "entity-rich, shallow-history workload (survey Section 5, News).\n");
  return 0;
}
