// Unit and property tests for the KG/HIN engine: graph construction,
// meta-paths, PathSim, path enumeration, ripple sets and aggregators.

#include <gtest/gtest.h>

#include <set>
#include <cmath>
#include <unordered_set>

#include "graph/aggregators.h"
#include "graph/hin.h"
#include "graph/knowledge_graph.h"
#include "graph/paths.h"
#include "graph/pathsim.h"
#include "graph/ripple.h"

namespace kgrec {
namespace {

/// The Figure 1 style movie graph used across tests:
///   bob -watched-> avatar, interstellar; alice -watched-> interstellar
///   avatar/interstellar -genre-> scifi; blood_diamond -genre-> drama
///   avatar -actor-> sam; blood_diamond -actor-> leo
KnowledgeGraph MovieGraph() {
  KnowledgeGraph kg;
  const EntityId bob = kg.AddEntity("bob");
  const EntityId alice = kg.AddEntity("alice");
  const EntityId avatar = kg.AddEntity("avatar");
  const EntityId interstellar = kg.AddEntity("interstellar");
  const EntityId blood_diamond = kg.AddEntity("blood_diamond");
  const EntityId scifi = kg.AddEntity("scifi");
  const EntityId drama = kg.AddEntity("drama");
  const RelationId watched = kg.AddRelation("watched");
  const RelationId genre = kg.AddRelation("genre");
  EXPECT_TRUE(kg.AddTriple(bob, watched, avatar).ok());
  EXPECT_TRUE(kg.AddTriple(bob, watched, interstellar).ok());
  EXPECT_TRUE(kg.AddTriple(alice, watched, interstellar).ok());
  EXPECT_TRUE(kg.AddTriple(avatar, genre, scifi).ok());
  EXPECT_TRUE(kg.AddTriple(interstellar, genre, scifi).ok());
  EXPECT_TRUE(kg.AddTriple(blood_diamond, genre, drama).ok());
  kg.AddInverseRelations();
  kg.Finalize();
  return kg;
}

TEST(KnowledgeGraph, EntityAndRelationRegistration) {
  KnowledgeGraph kg;
  const EntityId a = kg.AddEntity("a");
  const EntityId a_again = kg.AddEntity("a");
  EXPECT_EQ(a, a_again);
  EXPECT_EQ(kg.num_entities(), 1u);
  EntityId found = -1;
  EXPECT_TRUE(kg.FindEntity("a", &found).ok());
  EXPECT_EQ(found, a);
  EXPECT_EQ(kg.FindEntity("missing", &found).code(), StatusCode::kNotFound);
  RelationId r = -1;
  EXPECT_EQ(kg.FindRelation("nope", &r).code(), StatusCode::kNotFound);
}

TEST(KnowledgeGraph, AddTripleValidation) {
  KnowledgeGraph kg;
  kg.AddEntity("a");
  const RelationId r = kg.AddRelation("r");
  EXPECT_EQ(kg.AddTriple(0, r, 5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kg.AddTriple(-1, r, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kg.AddTriple(0, 7, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(kg.AddTriple(0, r, 0).ok());
  kg.Finalize();
  EXPECT_EQ(kg.AddTriple(0, r, 0).code(), StatusCode::kFailedPrecondition);
}

TEST(KnowledgeGraph, InverseRelationsDoubleTriples) {
  KnowledgeGraph kg = MovieGraph();
  EXPECT_EQ(kg.num_relations(), 4u);  // watched, genre + inverses
  EXPECT_EQ(kg.num_triples(), 12u);
  RelationId genre_inv = -1;
  ASSERT_TRUE(kg.FindRelation("genre^-1", &genre_inv).ok());
  EntityId scifi = -1, avatar = -1;
  ASSERT_TRUE(kg.FindEntity("scifi", &scifi).ok());
  ASSERT_TRUE(kg.FindEntity("avatar", &avatar).ok());
  EXPECT_TRUE(kg.HasTriple(scifi, genre_inv, avatar));
}

TEST(KnowledgeGraph, OutEdgesAndDegree) {
  KnowledgeGraph kg = MovieGraph();
  EntityId bob = -1;
  ASSERT_TRUE(kg.FindEntity("bob", &bob).ok());
  EXPECT_EQ(kg.OutDegree(bob), 2u);
  const Edge* edges = kg.OutEdges(bob);
  std::set<EntityId> targets{edges[0].target, edges[1].target};
  EntityId avatar = -1, interstellar = -1;
  ASSERT_TRUE(kg.FindEntity("avatar", &avatar).ok());
  ASSERT_TRUE(kg.FindEntity("interstellar", &interstellar).ok());
  EXPECT_TRUE(targets.count(avatar));
  EXPECT_TRUE(targets.count(interstellar));
}

TEST(KnowledgeGraph, SampleNeighborsFixedSize) {
  KnowledgeGraph kg = MovieGraph();
  Rng rng(1);
  EntityId bob = -1;
  ASSERT_TRUE(kg.FindEntity("bob", &bob).ok());
  // Degree 2, request 5: padded with resamples.
  std::vector<Edge> sample = kg.SampleNeighbors(bob, 5, rng);
  EXPECT_EQ(sample.size(), 5u);
  // Degree 2, request 1: subsample without replacement.
  sample = kg.SampleNeighbors(bob, 1, rng);
  EXPECT_EQ(sample.size(), 1u);
  // Isolated entity: no edges.
  KnowledgeGraph isolated;
  isolated.AddEntity("lonely");
  isolated.Finalize();
  EXPECT_TRUE(isolated.SampleNeighbors(0, 3, rng).empty());
}

TEST(KnowledgeGraph, SampleNeighborsOutParamMatchesByValue) {
  // The buffer-reusing overload must draw the same RNG stream and produce
  // the same edges as the by-value one, including the clear-on-entry
  // semantics when the buffer already holds stale edges.
  KnowledgeGraph kg = MovieGraph();
  Rng by_value_rng(9);
  Rng out_param_rng(9);
  std::vector<Edge> buffer(3, Edge{99, 99});  // stale content
  for (EntityId e = 0; e < static_cast<EntityId>(kg.num_entities()); ++e) {
    for (size_t count : {1u, 2u, 5u}) {
      const std::vector<Edge> expected =
          kg.SampleNeighbors(e, count, by_value_rng);
      kg.SampleNeighbors(e, count, out_param_rng, &buffer);
      ASSERT_EQ(buffer.size(), expected.size());
      for (size_t i = 0; i < buffer.size(); ++i) {
        EXPECT_EQ(buffer[i].relation, expected[i].relation);
        EXPECT_EQ(buffer[i].target, expected[i].target);
      }
    }
  }
  // Both RNGs consumed the exact same number of draws.
  EXPECT_EQ(by_value_rng.NextUint64(), out_param_rng.NextUint64());
}

TEST(KnowledgeGraph, HasTripleMatchesLinearScan) {
  // HasTriple binary-searches the per-head CSR range that Finalize()
  // sorts by (relation, target); it must agree with a plain linear scan
  // for every (head, relation, tail) probe, hits and misses alike.
  KnowledgeGraph kg;
  constexpr int kEntities = 12;
  constexpr int kRelations = 3;
  for (int i = 0; i < kEntities; ++i) {
    kg.AddEntity("e" + std::to_string(i));
  }
  for (int r = 0; r < kRelations; ++r) {
    kg.AddRelation("r" + std::to_string(r));
  }
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    const EntityId head = static_cast<EntityId>(rng.UniformInt(kEntities));
    const RelationId rel =
        static_cast<RelationId>(rng.UniformInt(kRelations));
    const EntityId tail = static_cast<EntityId>(rng.UniformInt(kEntities));
    EXPECT_TRUE(kg.AddTriple(head, rel, tail).ok());
  }
  kg.Finalize();
  for (EntityId h = 0; h < kEntities; ++h) {
    for (RelationId r = 0; r < kRelations; ++r) {
      for (EntityId t = 0; t < kEntities; ++t) {
        bool expected = false;
        const Edge* edges = kg.OutEdges(h);
        for (size_t i = 0; i < kg.OutDegree(h); ++i) {
          if (edges[i].relation == r && edges[i].target == t) {
            expected = true;
          }
        }
        EXPECT_EQ(kg.HasTriple(h, r, t), expected)
            << "(" << h << ", " << r << ", " << t << ")";
      }
    }
  }
}

TEST(KnowledgeGraph, CsrTailEntityWithZeroOutDegree) {
  // The last entity registered has no outgoing edges; the CSR offset
  // array's tail must still be well-formed (OutDegree 0, empty range)
  // and the entity before it must see its full range. This is the
  // classic off-by-one surface of a compacted offset array.
  KnowledgeGraph kg;
  const EntityId a = kg.AddEntity("a");
  const EntityId b = kg.AddEntity("b");
  const EntityId tail = kg.AddEntity("tail_no_edges");
  const RelationId r = kg.AddRelation("r");
  ASSERT_TRUE(kg.AddTriple(a, r, tail).ok());
  ASSERT_TRUE(kg.AddTriple(b, r, tail).ok());
  ASSERT_TRUE(kg.AddTriple(b, r, a).ok());
  kg.Finalize();
  EXPECT_EQ(kg.OutDegree(a), 1u);
  EXPECT_EQ(kg.OutDegree(b), 2u);
  EXPECT_EQ(kg.OutDegree(tail), 0u);
  Rng rng(7);
  EXPECT_TRUE(kg.SampleNeighbors(tail, 4, rng).empty());
  EXPECT_FALSE(kg.HasTriple(tail, r, a));
}

TEST(KnowledgeGraph, TripleCapacityGuardRejectsAddTriple) {
  // The 32-bit AdjOffset cap is enforced at insertion; the test hook
  // lowers it so the rejection path runs without 4e9 inserts.
  KnowledgeGraph kg;
  kg.AddEntity("a");
  kg.AddEntity("b");
  const RelationId r = kg.AddRelation("r");
  kg.SetTripleCapacityForTesting(2);
  EXPECT_TRUE(kg.AddTriple(0, r, 1).ok());
  EXPECT_TRUE(kg.AddTriple(1, r, 0).ok());
  EXPECT_EQ(kg.AddTriple(0, r, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kg.num_triples(), 2u);  // rejected insert left no residue
}

TEST(KnowledgeGraph, TripleCapacityGuardRejectsInverseDoubling) {
  // AddInverseRelations doubles the triple count; when that would cross
  // the cap it must fail up front and leave the graph untouched.
  KnowledgeGraph kg;
  kg.AddEntity("a");
  kg.AddEntity("b");
  const RelationId r = kg.AddRelation("r");
  ASSERT_TRUE(kg.AddTriple(0, r, 1).ok());
  ASSERT_TRUE(kg.AddTriple(1, r, 0).ok());
  kg.SetTripleCapacityForTesting(3);
  EXPECT_EQ(kg.AddInverseRelations().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kg.num_triples(), 2u);
  EXPECT_EQ(kg.num_relations(), 1u);  // no half-added inverse relations
  kg.SetTripleCapacityForTesting(4);
  EXPECT_TRUE(kg.AddInverseRelations().ok());
  EXPECT_EQ(kg.num_triples(), 4u);
  EXPECT_EQ(kg.num_relations(), 2u);
}

TEST(KnowledgeGraph, MemoryUseTotalIsSumOfEntries) {
  KnowledgeGraph kg = MovieGraph();
  MemoryVisitor visitor;
  kg.MemoryUse(visitor);
  EXPECT_FALSE(visitor.entries().empty());
  size_t sum = 0;
  for (const auto& [name, bytes] : visitor.entries()) sum += bytes;
  EXPECT_EQ(visitor.total(), sum);
  EXPECT_GT(visitor.total(), 0u);
}

TEST(KnowledgeGraph, EntityNamesInternedOnce) {
  // Re-registering a name must not grow the name pool: the bytes are
  // stored exactly once and the lookup index references them.
  KnowledgeGraph once;
  once.AddEntity("the_same_long_entity_name");
  MemoryVisitor v_once;
  once.MemoryUse(v_once);

  KnowledgeGraph many;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(many.AddEntity("the_same_long_entity_name"), 0);
  }
  EXPECT_EQ(many.num_entities(), 1u);
  MemoryVisitor v_many;
  many.MemoryUse(v_many);
  EXPECT_EQ(v_once.total(), v_many.total());
}

TEST(KnowledgeGraph, AnonymousEntitiesSkipNameStorage) {
  KnowledgeGraph kg;
  EXPECT_EQ(kg.AddEntities(100), 0);
  EXPECT_EQ(kg.AddEntities(50), 100);
  EXPECT_EQ(kg.num_entities(), 150u);
  EXPECT_TRUE(kg.names_dropped());
  EntityId found = -1;
  EXPECT_EQ(kg.FindEntity("anything", &found).code(),
            StatusCode::kNotFound);
  const RelationId r = kg.AddRelation("r");
  ASSERT_TRUE(kg.AddTriple(0, r, 149).ok());
  kg.Finalize();
  EXPECT_TRUE(kg.HasTriple(0, r, 149));

  // The anonymous graph stores no entity-name bytes; a named graph of
  // the same shape does.
  KnowledgeGraph named;
  for (int i = 0; i < 150; ++i) named.AddEntity("e" + std::to_string(i));
  const RelationId named_r = named.AddRelation("r");
  ASSERT_TRUE(named.AddTriple(0, named_r, 149).ok());
  named.Finalize();
  MemoryVisitor v_anon, v_named;
  kg.MemoryUse(v_anon);
  named.MemoryUse(v_named);
  EXPECT_LT(v_anon.total(), v_named.total());
}

TEST(KnowledgeGraph, ReleaseTriplesKeepsCsrAdjacency) {
  KnowledgeGraph kg = MovieGraph();
  // Record the CSR view, release the triple list, and verify every
  // adjacency query still answers identically.
  std::vector<std::vector<Edge>> before;
  for (EntityId e = 0; e < static_cast<EntityId>(kg.num_entities()); ++e) {
    const Edge* edges = kg.OutEdges(e);
    before.emplace_back(edges, edges + kg.OutDegree(e));
  }
  const size_t triples_before = kg.num_triples();
  MemoryVisitor v_full;
  kg.MemoryUse(v_full);
  kg.ReleaseTriples();
  EXPECT_TRUE(kg.triples_released());
  EXPECT_EQ(kg.num_triples(), triples_before);  // the count survives
  MemoryVisitor v_released;
  kg.MemoryUse(v_released);
  EXPECT_LT(v_released.total(), v_full.total());
  for (EntityId e = 0; e < static_cast<EntityId>(kg.num_entities()); ++e) {
    ASSERT_EQ(kg.OutDegree(e), before[e].size());
    const Edge* edges = kg.OutEdges(e);
    for (size_t i = 0; i < before[e].size(); ++i) {
      EXPECT_EQ(edges[i].relation, before[e][i].relation);
      EXPECT_EQ(edges[i].target, before[e][i].target);
    }
  }
}

TEST(Hin, TypedQueriesAndRelationMatrix) {
  KnowledgeGraph kg = MovieGraph();
  // types: 0 user, 1 movie, 2 genre
  std::vector<int32_t> types{0, 0, 1, 1, 1, 2, 2};
  Hin hin(&kg, types, {"user", "movie", "genre"});
  EXPECT_EQ(hin.num_types(), 3u);
  EXPECT_EQ(hin.EntitiesOfType(0).size(), 2u);
  EXPECT_EQ(hin.EntitiesOfType(1).size(), 3u);
  RelationId genre = -1;
  ASSERT_TRUE(kg.FindRelation("genre", &genre).ok());
  CsrMatrix m = hin.RelationMatrix(genre);
  EXPECT_EQ(m.nnz(), 3u);
}

TEST(Hin, CommutingMatrixCountsPaths) {
  KnowledgeGraph kg = MovieGraph();
  std::vector<int32_t> types{0, 0, 1, 1, 1, 2, 2};
  Hin hin(&kg, types, {"user", "movie", "genre"});
  RelationId genre = -1, genre_inv = -1;
  ASSERT_TRUE(kg.FindRelation("genre", &genre).ok());
  ASSERT_TRUE(kg.FindRelation("genre^-1", &genre_inv).ok());
  MetaPath path{"shared-genre", {genre, genre_inv}};
  CsrMatrix commuting = hin.CommutingMatrix(path);
  EntityId avatar = -1, interstellar = -1, blood = -1;
  ASSERT_TRUE(kg.FindEntity("avatar", &avatar).ok());
  ASSERT_TRUE(kg.FindEntity("interstellar", &interstellar).ok());
  ASSERT_TRUE(kg.FindEntity("blood_diamond", &blood).ok());
  EXPECT_FLOAT_EQ(commuting.At(avatar, interstellar), 1.0f);
  EXPECT_FLOAT_EQ(commuting.At(avatar, avatar), 1.0f);
  EXPECT_FLOAT_EQ(commuting.At(avatar, blood), 0.0f);
  // Meta-graph: union of the genre path with itself doubles counts.
  MetaGraph mg{"double", {path, path}};
  CsrMatrix combined = hin.CommutingMatrix(mg);
  EXPECT_FLOAT_EQ(combined.At(avatar, interstellar), 2.0f);
}

TEST(PathSim, SelfSimilarityIsOneAndSymmetric) {
  KnowledgeGraph kg = MovieGraph();
  std::vector<int32_t> types{0, 0, 1, 1, 1, 2, 2};
  Hin hin(&kg, types, {"user", "movie", "genre"});
  RelationId genre = -1, genre_inv = -1;
  ASSERT_TRUE(kg.FindRelation("genre", &genre).ok());
  ASSERT_TRUE(kg.FindRelation("genre^-1", &genre_inv).ok());
  CsrMatrix sim = PathSim(hin, MetaPath{"g", {genre, genre_inv}});
  for (EntityId e = 0; e < static_cast<EntityId>(kg.num_entities()); ++e) {
    for (EntityId f = 0; f < static_cast<EntityId>(kg.num_entities()); ++f) {
      const float s = sim.At(e, f);
      EXPECT_GE(s, 0.0f);
      EXPECT_LE(s, 1.0f);
      EXPECT_FLOAT_EQ(s, sim.At(f, e));  // symmetric meta-path => symmetric
      if (e == f && s != 0.0f) {
        EXPECT_FLOAT_EQ(s, 1.0f);
      }
    }
  }
  EntityId avatar = -1, interstellar = -1;
  ASSERT_TRUE(kg.FindEntity("avatar", &avatar).ok());
  ASSERT_TRUE(kg.FindEntity("interstellar", &interstellar).ok());
  EXPECT_FLOAT_EQ(sim.At(avatar, interstellar), 1.0f);
}

TEST(Paths, EnumerateFindsKnownPaths) {
  KnowledgeGraph kg = MovieGraph();
  EntityId bob = -1, blood = -1;
  ASSERT_TRUE(kg.FindEntity("bob", &bob).ok());
  ASSERT_TRUE(kg.FindEntity("blood_diamond", &blood).ok());
  // bob -> blood_diamond requires 3+ hops through genre; with our graph
  // genres differ (scifi vs drama), so only longer collaborative routes
  // exist; at max length 3 there is no path.
  EXPECT_TRUE(EnumeratePaths(kg, bob, blood, 3, 10).empty());
  EntityId interstellar = -1;
  ASSERT_TRUE(kg.FindEntity("interstellar", &interstellar).ok());
  std::vector<PathInstance> paths =
      EnumeratePaths(kg, bob, interstellar, 3, 10);
  ASSERT_FALSE(paths.empty());
  for (const PathInstance& p : paths) {
    EXPECT_EQ(p.entities.front(), bob);
    EXPECT_EQ(p.entities.back(), interstellar);
    EXPECT_EQ(p.entities.size(), p.relations.size() + 1);
    // Simple path: no repeated entities.
    std::unordered_set<EntityId> seen(p.entities.begin(), p.entities.end());
    EXPECT_EQ(seen.size(), p.entities.size());
    // Every edge must exist in the graph.
    for (size_t i = 0; i < p.relations.size(); ++i) {
      EXPECT_TRUE(
          kg.HasTriple(p.entities[i], p.relations[i], p.entities[i + 1]));
    }
  }
}

TEST(Paths, SampleMetaPathInstancesMatchTemplate) {
  KnowledgeGraph kg = MovieGraph();
  Rng rng(2);
  EntityId bob = -1;
  ASSERT_TRUE(kg.FindEntity("bob", &bob).ok());
  RelationId watched = -1, genre = -1;
  ASSERT_TRUE(kg.FindRelation("watched", &watched).ok());
  ASSERT_TRUE(kg.FindRelation("genre", &genre).ok());
  std::vector<PathInstance> instances =
      SampleMetaPathInstances(kg, bob, {watched, genre}, 8, rng);
  ASSERT_FALSE(instances.empty());
  for (const PathInstance& p : instances) {
    ASSERT_EQ(p.relations.size(), 2u);
    EXPECT_EQ(p.relations[0], watched);
    EXPECT_EQ(p.relations[1], genre);
  }
}

TEST(Paths, FormatPathIsReadable) {
  KnowledgeGraph kg = MovieGraph();
  EntityId bob = -1, avatar = -1;
  ASSERT_TRUE(kg.FindEntity("bob", &bob).ok());
  ASSERT_TRUE(kg.FindEntity("avatar", &avatar).ok());
  RelationId watched = -1;
  ASSERT_TRUE(kg.FindRelation("watched", &watched).ok());
  PathInstance p;
  p.entities = {bob, avatar};
  p.relations = {watched};
  EXPECT_EQ(FormatPath(kg, p), "bob -[watched]-> avatar");
}

TEST(Ripple, HopsFollowTheRecurrence) {
  KnowledgeGraph kg = MovieGraph();
  Rng rng(3);
  EntityId avatar = -1, interstellar = -1;
  ASSERT_TRUE(kg.FindEntity("avatar", &avatar).ok());
  ASSERT_TRUE(kg.FindEntity("interstellar", &interstellar).ok());
  std::vector<EntityId> seeds{avatar, interstellar};
  std::vector<RippleHop> hops = BuildRippleSets(kg, seeds, 3, 64, rng);
  ASSERT_EQ(hops.size(), 3u);
  // Hop 1: every head must be a seed (Section 3 definition).
  std::unordered_set<EntityId> frontier(seeds.begin(), seeds.end());
  for (size_t k = 0; k < hops.size(); ++k) {
    ASSERT_FALSE(hops[k].triples.empty());
    std::unordered_set<EntityId> next;
    for (const Triple& t : hops[k].triples) {
      EXPECT_TRUE(frontier.count(t.head) > 0)
          << "hop " << k << " head not in previous relevant set";
      EXPECT_TRUE(kg.HasTriple(t.head, t.relation, t.tail));
      next.insert(t.tail);
    }
    frontier = std::move(next);
  }
  // RelevantEntities(k) == tails of hop k.
  std::vector<EntityId> e1 = RelevantEntities(hops, 1, seeds);
  for (EntityId e : e1) {
    bool found = false;
    for (const Triple& t : hops[0].triples) {
      if (t.tail == e) found = true;
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(RelevantEntities(hops, 0, seeds), seeds);
}

TEST(Ripple, HopSizeIsCapped) {
  KnowledgeGraph kg = MovieGraph();
  Rng rng(4);
  EntityId scifi = -1;
  ASSERT_TRUE(kg.FindEntity("scifi", &scifi).ok());
  std::vector<RippleHop> hops = BuildRippleSets(kg, {scifi}, 2, 1, rng);
  for (const RippleHop& hop : hops) {
    EXPECT_LE(hop.triples.size(), 1u);
  }
}

class AggregatorParamTest
    : public ::testing::TestWithParam<AggregatorKind> {};

TEST_P(AggregatorParamTest, ShapeAndFiniteness) {
  Rng rng(5);
  Aggregator agg(GetParam(), 8, rng);
  nn::Tensor self = nn::Tensor::FromData(3, 8, std::vector<float>(24, 0.5f));
  nn::Tensor neigh = nn::Tensor::FromData(3, 8, std::vector<float>(24, -0.25f));
  for (bool final_layer : {false, true}) {
    nn::Tensor out = agg.Forward(self, neigh, final_layer);
    EXPECT_EQ(out.rows(), 3u);
    EXPECT_EQ(out.cols(), 8u);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(std::isfinite(out.data()[i]));
      if (final_layer) {
        EXPECT_LE(out.data()[i],
                  GetParam() == AggregatorKind::kBiInteraction ? 2.0f : 1.0f);
      }
    }
  }
  EXPECT_FALSE(agg.Params().empty());
}

TEST_P(AggregatorParamTest, NameRoundTrip) {
  EXPECT_EQ(AggregatorKindFromName(AggregatorKindName(GetParam())),
            GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AggregatorParamTest,
                         ::testing::Values(AggregatorKind::kSum,
                                           AggregatorKind::kConcat,
                                           AggregatorKind::kNeighbor,
                                           AggregatorKind::kBiInteraction));

TEST(Aggregator, NeighborKindIgnoresSelf) {
  Rng rng(6);
  Aggregator agg(AggregatorKind::kNeighbor, 4, rng);
  nn::Tensor self_a = nn::Tensor::FromData(1, 4, {1, 2, 3, 4});
  nn::Tensor self_b = nn::Tensor::FromData(1, 4, {-9, -9, -9, -9});
  nn::Tensor neigh = nn::Tensor::FromData(1, 4, {0.5f, 0.5f, 0.5f, 0.5f});
  nn::Tensor out_a = agg.Forward(self_a, neigh, false);
  nn::Tensor out_b = agg.Forward(self_b, neigh, false);
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_FLOAT_EQ(out_a.data()[i], out_b.data()[i]);
  }
}

}  // namespace
}  // namespace kgrec
