// Tests of the KGE backends: parameterized over all five models.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/knowledge_graph.h"
#include "kge/kge_model.h"
#include "kge/kge_trainer.h"
#include "retrieval/factors.h"

namespace kgrec {
namespace {

/// A bipartite-ish graph with strong regularity: entities 0..9 relate to
/// entity (i % 3) + 10 via relation 0, so the pattern is learnable.
KnowledgeGraph PatternGraph() {
  KnowledgeGraph kg;
  for (int i = 0; i < 13; ++i) kg.AddEntity("e" + std::to_string(i));
  kg.AddRelation("r");
  kg.AddRelation("s");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(kg.AddTriple(i, 0, 10 + (i % 3)).ok());
    EXPECT_TRUE(kg.AddTriple(10 + (i % 3), 1, i).ok());
  }
  kg.Finalize();
  return kg;
}

class KgeBackendTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KgeBackendTest, FactoryAndShapes) {
  Rng rng(1);
  auto model = MakeKgeModel(GetParam(), 20, 4, 8, rng);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->dim(), 8u);
  EXPECT_EQ(model->entity_embeddings().rows(), 20u);
  EXPECT_EQ(model->entity_embeddings().cols(), 8u);
  EXPECT_EQ(model->relation_embeddings().rows(), 4u);
  nn::Tensor scores = model->ScoreBatch({0, 1}, {0, 1}, {2, 3});
  EXPECT_EQ(scores.rows(), 2u);
  EXPECT_EQ(scores.cols(), 1u);
  EXPECT_FALSE(model->Params().empty());
}

TEST_P(KgeBackendTest, TrainingSeparatesTrueFromCorrupted) {
  KnowledgeGraph kg = PatternGraph();
  Rng rng(2);
  auto model =
      MakeKgeModel(GetParam(), kg.num_entities(), kg.num_relations(), 8, rng);
  KgeTrainConfig config;
  config.epochs = 60;
  config.batch_size = 8;
  TrainKge(*model, kg, config);
  // Average score of true triples must exceed corrupted ones clearly.
  double true_score = 0.0, corrupt_score = 0.0;
  size_t n = 0;
  Rng corrupt_rng(3);
  for (const Triple& t : kg.triples()) {
    true_score += model->ScoreBatch({t.head}, {t.relation}, {t.tail}).value();
    int32_t wrong = static_cast<int32_t>(
        corrupt_rng.UniformInt(kg.num_entities()));
    while (kg.HasTriple(t.head, t.relation, wrong)) {
      wrong = static_cast<int32_t>(corrupt_rng.UniformInt(kg.num_entities()));
    }
    corrupt_score +=
        model->ScoreBatch({t.head}, {t.relation}, {wrong}).value();
    ++n;
  }
  EXPECT_GT(true_score / n, corrupt_score / n + 0.1) << GetParam();
}

TEST_P(KgeBackendTest, LinkPredictionBeatsRandom) {
  KnowledgeGraph kg = PatternGraph();
  Rng rng(4);
  auto model =
      MakeKgeModel(GetParam(), kg.num_entities(), kg.num_relations(), 8, rng);
  KgeTrainConfig config;
  config.epochs = 60;
  config.batch_size = 8;
  TrainKge(*model, kg, config);
  Rng eval_rng(5);
  LinkPredictionMetrics metrics =
      EvaluateLinkPrediction(*model, kg, 20, 10, eval_rng);
  EXPECT_GT(metrics.num_queries, 0u);
  // Random guessing over 11 candidates gives MRR ~ 0.27.
  EXPECT_GT(metrics.mrr, 0.45) << GetParam();
  EXPECT_GE(metrics.hits_at_10, metrics.hits_at_3);
  EXPECT_GE(metrics.hits_at_3, metrics.hits_at_1);
}

TEST_P(KgeBackendTest, FixedRelationFactorizationMatchesTripleScore) {
  // The retrieval export (FillHeadQuery / FillTailFactor under a pinned
  // relation) must agree with the backend's own ScoreBatch on every
  // triple of a trained model. The two are separate float sequences, so
  // they agree to rounding, not bitwise.
  KnowledgeGraph kg = PatternGraph();
  Rng rng(7);
  const size_t dim = 16;
  auto model = MakeKgeModel(GetParam(), kg.num_entities(), kg.num_relations(),
                            dim, rng);
  KgeTrainConfig config;
  config.epochs = 30;
  config.batch_size = 8;
  TrainKge(*model, kg, config);
  std::vector<float> query(dim), tail_factor(dim);
  const auto num_entities = static_cast<int32_t>(kg.num_entities());
  const auto num_relations = static_cast<int32_t>(kg.num_relations());
  for (int32_t r = 0; r < num_relations; ++r) {
    for (int32_t h = 0; h < num_entities; ++h) {
      model->FillHeadQuery(h, r, query.data());
      for (int32_t t = 0; t < num_entities; ++t) {
        model->FillTailFactor(t, r, tail_factor.data());
        const float factored = retrieval::KernelScore(
            model->retrieval_kernel(), query.data(), tail_factor.data(), dim);
        const float direct = model->ScoreBatch({h}, {r}, {t}).value();
        ASSERT_NEAR(factored, direct,
                    1e-5f * std::max(1.0f, std::fabs(direct)))
            << GetParam() << " (" << h << ", " << r << ", " << t << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KgeBackendTest,
                         ::testing::ValuesIn(KgeModelNames()));

TEST(KgeModelNamesTest, ListsFiveBackends) {
  EXPECT_EQ(KgeModelNames().size(), 5u);
}

TEST(KgeNormalization, TransEPostEpochBoundsEntityNorms) {
  Rng rng(6);
  auto model = MakeKgeModel("transe", 5, 2, 4, rng);
  // Inflate an entity row, then normalize.
  nn::Tensor& emb = const_cast<nn::Tensor&>(model->entity_embeddings());
  for (size_t c = 0; c < 4; ++c) emb.data()[c] = 10.0f;
  model->PostEpoch();
  float norm = 0.0f;
  for (size_t c = 0; c < 4; ++c) norm += emb.data()[c] * emb.data()[c];
  EXPECT_NEAR(std::sqrt(norm), 1.0f, 1e-4f);
}

}  // namespace
}  // namespace kgrec
