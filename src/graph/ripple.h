#ifndef KGREC_GRAPH_RIPPLE_H_
#define KGREC_GRAPH_RIPPLE_H_

#include <vector>

#include "graph/knowledge_graph.h"

namespace kgrec {

/// One hop of a ripple set: the triples whose head entities are the
/// previous hop's relevant entities (survey Section 3, "User Ripple Set" /
/// "Entity Ripple Set").
struct RippleHop {
  std::vector<Triple> triples;
};

/// Extracts H ripple-set hops starting from the given seed entities.
///
/// Hop k (1-based) contains triples <e_h, r, e_t> with e_h in the (k-1)-hop
/// relevant entity set E^{k-1}; E^0 = seeds (a user's interacted items, or
/// an entity itself). Each hop is down-sampled to at most `max_hop_size`
/// triples (RippleNet's fixed-size ripple sets). When a hop would be empty,
/// the previous hop is reused, as RippleNet does, so that every hop is
/// non-empty whenever the seeds have any outgoing edge.
std::vector<RippleHop> BuildRippleSets(const KnowledgeGraph& graph,
                                       const std::vector<EntityId>& seeds,
                                       size_t num_hops, size_t max_hop_size,
                                       Rng& rng);

/// The k-hop relevant entity set E^k implied by ripple hops: the tails of
/// hop k (E^0 = seeds).
std::vector<EntityId> RelevantEntities(const std::vector<RippleHop>& hops,
                                       size_t k,
                                       const std::vector<EntityId>& seeds);

}  // namespace kgrec

#endif  // KGREC_GRAPH_RIPPLE_H_
