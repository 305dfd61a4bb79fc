#include "graph/ripple.h"

#include <algorithm>
#include <unordered_set>

#include "core/check.h"

namespace kgrec {

std::vector<RippleHop> BuildRippleSets(const KnowledgeGraph& graph,
                                       const std::vector<EntityId>& seeds,
                                       size_t num_hops, size_t max_hop_size,
                                       Rng& rng) {
  KGREC_CHECK(graph.finalized());
  std::vector<RippleHop> hops;
  std::vector<EntityId> frontier = seeds;
  for (size_t k = 0; k < num_hops; ++k) {
    std::vector<Triple> candidates;
    for (EntityId head : frontier) {
      const size_t degree = graph.OutDegree(head);
      const Edge* edges = graph.OutEdges(head);
      for (size_t i = 0; i < degree; ++i) {
        candidates.push_back({head, edges[i].relation, edges[i].target});
      }
    }
    RippleHop hop;
    if (candidates.empty()) {
      // Reuse the previous hop (RippleNet's fallback for dead ends).
      if (!hops.empty()) hop = hops.back();
      hops.push_back(std::move(hop));
      // Frontier unchanged.
      continue;
    }
    if (candidates.size() <= max_hop_size) {
      hop.triples = std::move(candidates);
    } else {
      for (size_t i :
           rng.SampleWithoutReplacement(candidates.size(), max_hop_size)) {
        hop.triples.push_back(candidates[i]);
      }
    }
    std::unordered_set<EntityId> next;
    for (const Triple& t : hop.triples) next.insert(t.tail);
    frontier.assign(next.begin(), next.end());
    std::sort(frontier.begin(), frontier.end());
    hops.push_back(std::move(hop));
  }
  return hops;
}

std::vector<EntityId> RelevantEntities(const std::vector<RippleHop>& hops,
                                       size_t k,
                                       const std::vector<EntityId>& seeds) {
  if (k == 0) return seeds;
  KGREC_CHECK_LE(k, hops.size());
  std::unordered_set<EntityId> set;
  for (const Triple& t : hops[k - 1].triples) set.insert(t.tail);
  std::vector<EntityId> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace kgrec
