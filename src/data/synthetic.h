#ifndef KGREC_DATA_SYNTHETIC_H_
#define KGREC_DATA_SYNTHETIC_H_

#include <string>
#include <vector>

#include "data/interactions.h"
#include "graph/hin.h"
#include "graph/knowledge_graph.h"
#include "math/matrix.h"

namespace kgrec {

/// One attribute relation of the synthetic item knowledge graph
/// (e.g. "genre" with 12 attribute entities, one link per item).
struct RelationSpec {
  std::string name;
  /// Number of attribute entities of this relation.
  size_t num_values = 8;
  /// How many attribute entities each item links to.
  size_t links_per_item = 1;
  /// In [0,1]: 1 means the attribute assignment is a pure clustering of
  /// the items' true latent factors (the KG carries full preference
  /// signal); 0 means random assignment (pure noise).
  float latent_alignment = 1.0f;
};

/// Configuration of a synthetic recommendation world.
///
/// The generator substitutes for the real datasets of survey Table 4: a
/// ground-truth latent factor model produces both the implicit feedback
/// *and* the knowledge graph (attribute entities are clusters of the item
/// latent vectors), so the KG genuinely carries the signal that KG-based
/// recommenders are designed to exploit.
struct WorldConfig {
  std::string name = "world";
  int32_t num_users = 300;
  int32_t num_items = 500;
  size_t latent_dim = 16;
  /// Average interactions per user; controls the sparsity of R.
  double avg_interactions_per_user = 20.0;
  /// Gumbel temperature when sampling interactions; larger = noisier
  /// preferences, weaker collaborative signal.
  double interaction_noise = 0.6;
  std::vector<RelationSpec> item_relations;
  uint64_t seed = 42;
};

/// A generated world: the full interaction set, the item knowledge graph
/// (entity j == item j for j < num_items; attribute entities follow), the
/// ground-truth factors, and HIN typing information.
struct SyntheticWorld {
  WorldConfig config;
  InteractionDataset interactions;
  KnowledgeGraph item_kg;
  Matrix user_factors;
  Matrix item_factors;
  /// Type of each item_kg entity: 0 = item, 1 + k = attribute of the k-th
  /// relation spec.
  std::vector<int32_t> entity_types;
  std::vector<std::string> type_names;
  /// Relation ids of the forward attribute relations, per spec.
  std::vector<RelationId> relation_ids;
  /// Relation ids of the inverse attribute relations, per spec.
  std::vector<RelationId> inverse_relation_ids;

  /// Typed view of the item graph.
  Hin MakeHin() const {
    return Hin(&item_kg, entity_types, type_names);
  }
};

/// Generates a world deterministically from the config's seed. The item
/// graph is finalized with inverse relations added.
SyntheticWorld GenerateWorld(const WorldConfig& config);

/// A user-item graph (survey Section 4.1, second family): users, items
/// and attributes in one KG, with the training interactions materialized
/// as an "interact" relation. Entity layout: user u -> u,
/// item j -> num_users + j, attributes after.
struct UserItemGraph {
  KnowledgeGraph kg;
  RelationId interact_relation = -1;
  int32_t num_users = 0;
  int32_t num_items = 0;
  /// 0 = user, 1 = item, 2 + k = attribute of relation spec k.
  std::vector<int32_t> entity_types;
  std::vector<std::string> type_names;

  EntityId UserEntity(int32_t user) const { return user; }
  EntityId ItemEntity(int32_t item) const { return num_users + item; }

  Hin MakeHin() const { return Hin(&kg, entity_types, type_names); }
};

/// Builds the user-item KG from a world's item graph and a training set.
/// Only training interactions are added (the test set must stay unseen).
/// The graph is finalized with inverse relations.
UserItemGraph BuildUserItemGraph(const SyntheticWorld& world,
                                 const InteractionDataset& train);

/// Cold-start split: all interactions of a random `item_fraction` of the
/// interacted items go to test (these items are unseen in training);
/// remaining interactions go to train. Survey Section 1's cold-start
/// scenario.
DataSplit ColdItemSplit(const InteractionDataset& data, double item_fraction,
                        Rng& rng);

}  // namespace kgrec

#endif  // KGREC_DATA_SYNTHETIC_H_
