#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/check.h"
#include "math/kernels.h"
#include "math/kmeans.h"
#include "math/topk.h"

namespace kgrec {
namespace {

/// Projects item factors through a per-relation random map and blends with
/// noise according to the alignment knob, so different relations cluster
/// the items along different (but latent-derived) views.
Matrix RelationView(const Matrix& item_factors, float alignment, Rng& rng) {
  const size_t n = item_factors.rows();
  const size_t d = item_factors.cols();
  Matrix projection(d, d);
  for (size_t i = 0; i < projection.size(); ++i) {
    projection.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0 / std::sqrt(d)));
  }
  Matrix view(n, d);
  kernels::MatMul(item_factors.data(), projection.data(), view.data(), n, d, d);
  const float noise_scale = 1.5f * (1.0f - alignment);
  for (size_t i = 0; i < view.size(); ++i) {
    view.data()[i] = alignment * view.data()[i] +
                     static_cast<float>(rng.Normal(0.0, noise_scale));
  }
  return view;
}

}  // namespace

SyntheticWorld GenerateWorld(const WorldConfig& config) {
  KGREC_CHECK_GT(config.num_users, 0);
  KGREC_CHECK_GT(config.num_items, 0);
  Rng rng(config.seed);

  SyntheticWorld world;
  world.config = config;
  const int32_t m = config.num_users;
  const int32_t n = config.num_items;
  const size_t d = config.latent_dim;

  world.user_factors = Matrix(m, d);
  world.item_factors = Matrix(n, d);
  for (size_t i = 0; i < world.user_factors.size(); ++i) {
    world.user_factors.data()[i] = static_cast<float>(rng.Normal());
  }
  for (size_t i = 0; i < world.item_factors.size(); ++i) {
    world.item_factors.data()[i] = static_cast<float>(rng.Normal());
  }

  // --- Item knowledge graph -------------------------------------------
  world.type_names.push_back("item");
  for (int32_t j = 0; j < n; ++j) {
    world.item_kg.AddEntity("item_" + std::to_string(j));
    world.entity_types.push_back(0);
  }
  for (size_t k = 0; k < config.item_relations.size(); ++k) {
    const RelationSpec& spec = config.item_relations[k];
    KGREC_CHECK_GT(spec.num_values, 0u);
    world.type_names.push_back(spec.name);
    const RelationId rel = world.item_kg.AddRelation(spec.name);
    world.relation_ids.push_back(rel);
    std::vector<EntityId> values;
    for (size_t v = 0; v < spec.num_values; ++v) {
      values.push_back(world.item_kg.AddEntity(spec.name + "_" +
                                               std::to_string(v)));
      world.entity_types.push_back(static_cast<int32_t>(1 + k));
    }
    // Cluster the relation-specific latent view of the items.
    Matrix view = RelationView(world.item_factors, spec.latent_alignment, rng);
    const size_t clusters = std::min<size_t>(spec.num_values, n);
    KMeansResult km = KMeans(view, clusters, /*max_iters=*/15, rng);
    for (int32_t j = 0; j < n; ++j) {
      if (spec.links_per_item <= 1) {
        KGREC_CHECK(world.item_kg
                        .AddTriple(j, rel, values[km.assignment[j]])
                        .ok());
      } else {
        // Link to the nearest `links_per_item` centroids.
        std::vector<float> neg_dist(clusters);
        for (size_t c = 0; c < clusters; ++c) {
          neg_dist[c] = -kernels::SquaredDistance(view.Row(j),
                                                  km.centroids.Row(c), d);
        }
        for (int32_t c : TopKIndices(neg_dist, spec.links_per_item)) {
          KGREC_CHECK(world.item_kg.AddTriple(j, rel, values[c]).ok());
        }
      }
    }
  }
  KGREC_CHECK(world.item_kg.AddInverseRelations().ok());
  for (size_t k = 0; k < config.item_relations.size(); ++k) {
    RelationId inv = -1;
    KGREC_CHECK(world.item_kg
                    .FindRelation(config.item_relations[k].name + "^-1", &inv)
                    .ok());
    world.inverse_relation_ids.push_back(inv);
  }
  world.item_kg.Finalize();

  // --- Implicit feedback ----------------------------------------------
  world.interactions = InteractionDataset(m, n);
  const double temperature = std::max(1e-3, config.interaction_noise);
  for (int32_t u = 0; u < m; ++u) {
    const double target = config.avg_interactions_per_user *
                          (0.5 + rng.Uniform());
    size_t count = std::max<size_t>(1, static_cast<size_t>(target));
    count = std::min<size_t>(count, static_cast<size_t>(n));
    // Gumbel top-k sampling: the users pick their (noisily) preferred
    // items, yielding implicit feedback that follows the latent model.
    std::vector<float> perturbed(n);
    for (int32_t j = 0; j < n; ++j) {
      const float affinity = kernels::Dot(world.user_factors.Row(u),
                                          world.item_factors.Row(j), d);
      double uniform = 0.0;
      do {
        uniform = rng.Uniform();
      } while (uniform <= 1e-300);
      const float gumbel = static_cast<float>(-std::log(-std::log(uniform)));
      perturbed[j] = affinity + static_cast<float>(temperature) * gumbel;
    }
    for (int32_t j : TopKIndices(perturbed, count)) {
      world.interactions.Add(u, j);
    }
  }
  return world;
}

UserItemGraph BuildUserItemGraph(const SyntheticWorld& world,
                                 const InteractionDataset& train) {
  UserItemGraph out;
  out.num_users = train.num_users();
  out.num_items = train.num_items();
  KGREC_CHECK_EQ(out.num_items, world.config.num_items);

  out.type_names.push_back("user");
  out.type_names.push_back("item");
  for (size_t k = 0; k < world.config.item_relations.size(); ++k) {
    out.type_names.push_back(world.config.item_relations[k].name);
  }

  for (int32_t u = 0; u < out.num_users; ++u) {
    out.kg.AddEntity("user_" + std::to_string(u));
    out.entity_types.push_back(0);
  }
  // Re-create the item-graph entities, preserving order, with types
  // shifted by one (user type occupies 0).
  for (size_t e = 0; e < world.item_kg.num_entities(); ++e) {
    out.kg.AddEntity(world.item_kg.entity_name(static_cast<EntityId>(e)));
    out.entity_types.push_back(world.entity_types[e] + 1);
  }
  out.interact_relation = out.kg.AddRelation("interact");
  std::vector<RelationId> rel_map(world.item_kg.num_relations(), -1);
  for (size_t r = 0; r < world.item_kg.num_relations(); ++r) {
    const std::string& name =
        world.item_kg.relation_name(static_cast<RelationId>(r));
    // Skip inverse relations; AddInverseRelations() below re-creates them.
    if (name.size() > 3 && name.substr(name.size() - 3) == "^-1") continue;
    rel_map[r] = out.kg.AddRelation(name);
  }
  for (const Interaction& x : train.interactions()) {
    KGREC_CHECK(out.kg
                    .AddTriple(out.UserEntity(x.user), out.interact_relation,
                               out.ItemEntity(x.item))
                    .ok());
  }
  const EntityId offset = out.num_users;
  for (const Triple& t : world.item_kg.triples()) {
    if (rel_map[t.relation] < 0) continue;  // inverse; re-added below
    KGREC_CHECK(out.kg
                    .AddTriple(t.head + offset, rel_map[t.relation],
                               t.tail + offset)
                    .ok());
  }
  KGREC_CHECK(out.kg.AddInverseRelations().ok());
  out.kg.Finalize();
  return out;
}

DataSplit ColdItemSplit(const InteractionDataset& data, double item_fraction,
                        Rng& rng) {
  KGREC_CHECK(item_fraction >= 0.0 && item_fraction < 1.0);
  std::vector<int32_t> interacted = data.ItemsWithInteractions();
  rng.Shuffle(interacted);
  const size_t num_cold =
      static_cast<size_t>(interacted.size() * item_fraction);
  std::unordered_set<int32_t> cold(interacted.begin(),
                                   interacted.begin() + num_cold);
  DataSplit split;
  split.train = InteractionDataset(data.num_users(), data.num_items());
  split.test = InteractionDataset(data.num_users(), data.num_items());
  for (const Interaction& x : data.interactions()) {
    if (cold.count(x.item) > 0) {
      split.test.Add(x.user, x.item);
    } else {
      split.train.Add(x.user, x.item);
    }
  }
  return split;
}

}  // namespace kgrec
