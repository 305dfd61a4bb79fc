#include "path/path_finder.h"

#include "core/check.h"
#include "core/thread_pool.h"

namespace kgrec {

TemplatePathFinder::TemplatePathFinder(const UserItemGraph& graph,
                                       const InteractionDataset& train,
                                       size_t max_paths_per_template,
                                       size_t num_threads)
    : graph_(&graph),
      train_(&train),
      max_per_template_(max_paths_per_template) {
  const KnowledgeGraph& kg = graph.kg;
  KGREC_CHECK(kg.finalized());
  KGREC_CHECK(
      kg.FindRelation(kg.relation_name(graph.interact_relation) + "^-1",
                      &interact_inv_)
          .ok());
  item_attrs_.assign(train.num_items(), {});
  item_users_.assign(train.num_items(), {});
  for (int32_t j = 0; j < train.num_items(); ++j) {
    const EntityId entity = graph.ItemEntity(j);
    const size_t degree = kg.OutDegree(entity);
    const Edge* edges = kg.OutEdges(entity);
    for (size_t e = 0; e < degree; ++e) {
      // Attribute targets live beyond the item range.
      if (edges[e].target >= graph.ItemEntity(train.num_items()) &&
          edges[e].relation != graph.interact_relation &&
          edges[e].relation != interact_inv_) {
        item_attrs_[j].push_back(edges[e]);
      }
    }
  }
  for (const Interaction& x : train.interactions()) {
    item_users_[x.item].push_back(x.user);
  }
  inverse_relation_.assign(kg.num_relations(), RelationId{-1});
  for (size_t r = 0; r < kg.num_relations(); ++r) {
    RelationId inverse = -1;
    const RelationId rel = static_cast<RelationId>(r);
    if (kg.FindRelation(kg.relation_name(rel) + "^-1", &inverse).ok()) {
      inverse_relation_[r] = inverse;
    }
  }
  user_ctx_.resize(train.num_users());
  const Status status = ParallelFor(
      train.num_users(), num_threads, [&](size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
          user_ctx_[u] = BuildUserContext(static_cast<int32_t>(u));
        }
        return Status::OK();
      });
  KGREC_CHECK(status.ok());
}

TemplatePathFinder::UserPathContext TemplatePathFinder::BuildUserContext(
    int32_t user) const {
  UserPathContext ctx;
  for (int32_t j : train_->UserItems(user)) {
    for (const Edge& e : item_attrs_[j]) {
      auto& list = ctx[e.target];
      if (!list.empty() && list.back().first == j) {
        // Parallel edge from j to the same attribute: keep the last
        // relation.
        list.back().second = e.relation;
      } else {
        list.emplace_back(j, e.relation);
      }
    }
  }
  return ctx;
}

std::vector<PathInstance> TemplatePathFinder::FindPaths(int32_t user,
                                                        int32_t item) const {
  KGREC_CHECK(static_cast<size_t>(user) < user_ctx_.size());
  std::vector<PathInstance> out;
  const EntityId user_entity = graph_->UserEntity(user);
  const EntityId item_entity = graph_->ItemEntity(item);
  const RelationId interact = graph_->interact_relation;

  // The direct U -I-> v edge is intentionally excluded: during training
  // it is present for every positive and absent for every negative, so a
  // path model would learn that shortcut and transfer nothing to held-out
  // items (which never have the direct edge either).

  // Template 1: shared attribute U -I-> j -r-> a -r^-1-> v, attribute-
  // major and history-minor, probing the user's attribute index.
  const UserPathContext& ctx = user_ctx_[user];
  size_t found = 0;
  for (const Edge& attr : item_attrs_[item]) {
    if (found >= max_per_template_) break;
    const auto it = ctx.find(attr.target);
    if (it == ctx.end()) continue;
    const RelationId inverse = inverse_relation_[attr.relation];
    if (inverse < 0) continue;
    for (const auto& [j, relation] : it->second) {
      if (j == item) continue;
      PathInstance p;
      p.entities = {user_entity, graph_->ItemEntity(j), attr.target,
                    item_entity};
      p.relations = {interact, relation, inverse};
      out.push_back(std::move(p));
      if (++found >= max_per_template_) break;
    }
  }

  // Template 2: collaborative U -I-> j -I^-1-> u' -I-> v.
  found = 0;
  for (int32_t other : item_users_[item]) {
    if (found >= max_per_template_) break;
    if (other == user) continue;
    for (int32_t j : train_->UserItems(other)) {
      if (j == item) continue;
      if (!train_->Contains(user, j)) continue;
      PathInstance p;
      p.entities = {user_entity, graph_->ItemEntity(j),
                    graph_->UserEntity(other), item_entity};
      p.relations = {interact, interact_inv_, interact};
      out.push_back(std::move(p));
      ++found;
      break;  // one witness item per collaborating user
    }
  }
  return out;
}

}  // namespace kgrec
