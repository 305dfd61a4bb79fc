#ifndef KGREC_PATH_PATH_FINDER_H_
#define KGREC_PATH_PATH_FINDER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/interactions.h"
#include "data/synthetic.h"
#include "graph/paths.h"

namespace kgrec {

/// Efficient extraction of user->item path instances in a user-item KG,
/// following the standard semantic templates
///   U -interact-> I                                 (direct history)
///   U -interact-> J -r-> A -r^-1-> I                (shared attribute)
///   U -interact-> J -interact^-1-> U' -interact-> I (collaborative)
/// instead of unbounded DFS: paths are found by meeting in the middle,
/// which keeps RKGE/KPRN training tractable (RKGE's "automatic"
/// enumeration explores the same <=3-edge path space; the templates are
/// exactly the relation sequences that exist in this schema).
class TemplatePathFinder {
 public:
  /// `graph` and `train` must outlive the finder. Indexes every user's
  /// history once, on `num_threads` threads; the index is RNG-free, so
  /// FindPaths answers identically at any thread count.
  TemplatePathFinder(const UserItemGraph& graph,
                     const InteractionDataset& train,
                     size_t max_paths_per_template = 3,
                     size_t num_threads = 1);

  /// Path instances from the user to the item (entity ids of the
  /// user-item KG), at most 2 * max_paths_per_template, deterministic.
  /// Every path has exactly 4 entities. Requires 0 <= user < num_users.
  std::vector<PathInstance> FindPaths(int32_t user, int32_t item) const;

  const UserItemGraph& graph() const { return *graph_; }

 private:
  /// One user's side of the shared-attribute template: per attribute
  /// entity, the user's history items that reach it with the connecting
  /// relation, in history order (parallel edges from one item collapse
  /// to the last relation).
  using UserPathContext =
      std::unordered_map<EntityId,
                         std::vector<std::pair<int32_t, RelationId>>>;

  UserPathContext BuildUserContext(int32_t user) const;

  const UserItemGraph* graph_;
  const InteractionDataset* train_;
  size_t max_per_template_;
  RelationId interact_inv_ = -1;
  /// Attribute edges per item: (relation, attribute entity).
  std::vector<std::vector<Edge>> item_attrs_;
  /// Users per item (train interactions).
  std::vector<std::vector<int32_t>> item_users_;
  /// Per relation id: the id of "<name>^-1", or -1 when absent (resolved
  /// once here instead of a string lookup per emitted path).
  std::vector<RelationId> inverse_relation_;
  /// Per user: the shared-attribute index, so a candidate probes it
  /// instead of the whole history.
  std::vector<UserPathContext> user_ctx_;
};

}  // namespace kgrec

#endif  // KGREC_PATH_PATH_FINDER_H_
