#include "unified/ripplenet.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "core/model_state.h"
#include "core/thread_pool.h"
#include "data/event_stream.h"
#include "graph/ripple.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace kgrec {

namespace {

// Update-path RNG streams (counter-keyed forks of Rng(context.seed)).
constexpr uint64_t kGrowStream = 101;
constexpr uint64_t kHopStream = 103;
constexpr uint64_t kPadStream = 104;
constexpr uint64_t kAuxStream = 105;

}  // namespace

void RippleNetRecommender::RippleArena::Reset(size_t num_users, size_t hops,
                                              size_t size) {
  num_hops = hops;
  hop_size = size;
  heads.assign(num_users * hops * size, 0);
  relations.assign(num_users * hops * size, 0);
  tails.assign(num_users * hops * size, 0);
  seeds.assign(num_users * size, 0);
  seed_weights.assign(num_users * size, 0.0f);
  filled.assign(num_users, 0);
}

void RippleNetRecommender::RippleArena::Grow(size_t num_users) {
  heads.resize(num_users * num_hops * hop_size, 0);
  relations.resize(num_users * num_hops * hop_size, 0);
  tails.resize(num_users * num_hops * hop_size, 0);
  seeds.resize(num_users * hop_size, 0);
  seed_weights.resize(num_users * hop_size, 0.0f);
  filled.resize(num_users, 0);
}

void RippleNetRecommender::RippleArena::MemoryUse(
    MemoryVisitor& visitor) const {
  visitor.Add("ripples.heads", VectorBytes(heads));
  visitor.Add("ripples.relations", VectorBytes(relations));
  visitor.Add("ripples.tails", VectorBytes(tails));
  visitor.Add("ripples.seeds", VectorBytes(seeds));
  visitor.Add("ripples.seed_weights", VectorBytes(seed_weights));
  visitor.Add("ripples.filled", VectorBytes(filled));
}

nn::Tensor RippleNetRecommender::Forward(
    const std::vector<int32_t>& users,
    const std::vector<int32_t>& items) const {
  const size_t batch = users.size();
  const size_t s = config_.hop_size;
  nn::Tensor v = ItemVectors(items);  // [B, d]

  // Flat per-hop index arrays across the batch.
  std::vector<nn::Tensor> responses;
  std::vector<int32_t> repeat(batch * s);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t k = 0; k < s; ++k) repeat[b * s + k] = static_cast<int32_t>(b);
  }
  // 0-hop response: mean of the user's clicked-item embeddings.
  std::vector<int32_t> seed_flat(batch * s);
  std::vector<float> seed_w(batch * s);
  for (size_t b = 0; b < batch; ++b) {
    const size_t so = ripples_.SeedOffset(users[b]);
    for (size_t k = 0; k < s; ++k) {
      seed_flat[b * s + k] = ripples_.seeds[so + k];
      seed_w[b * s + k] = ripples_.seed_weights[so + k];
    }
  }
  nn::Tensor seed_emb = nn::Gather(entity_emb_, seed_flat);
  nn::Tensor seed_weights =
      nn::Tensor::FromData(batch * s, 1, std::move(seed_w));
  std::vector<nn::Tensor> all_responses{
      nn::GroupSumRows(nn::Mul(seed_emb, seed_weights), s)};

  nn::Tensor probe = v;  // Eq. 24 starts with the candidate item.
  for (size_t hop = 0; hop < config_.num_hops; ++hop) {
    std::vector<int32_t> heads(batch * s), rels(batch * s), tails(batch * s);
    for (size_t b = 0; b < batch; ++b) {
      const size_t ho = ripples_.HopOffset(users[b], hop);
      for (size_t k = 0; k < s; ++k) {
        heads[b * s + k] = ripples_.heads[ho + k];
        rels[b * s + k] = ripples_.relations[ho + k];
        tails[b * s + k] = ripples_.tails[ho + k];
      }
    }
    nn::Tensor h = nn::Gather(entity_emb_, heads);        // [B*s, d]
    nn::Tensor r = nn::Gather(relation_mats_, rels);      // [B*s, d*d]
    nn::Tensor t = nn::Gather(entity_emb_, tails);        // [B*s, d]
    nn::Tensor rh = nn::RowwiseVecMat(h, r);              // [B*s, d]
    nn::Tensor probe_rep = nn::Gather(probe, repeat);     // [B*s, d]
    nn::Tensor logits = nn::SumRows(nn::Mul(rh, probe_rep));  // [B*s, 1]
    nn::Tensor p = nn::Softmax(nn::Reshape(logits, batch, s));
    nn::Tensor p_flat = nn::Reshape(p, batch * s, 1);
    nn::Tensor o = nn::GroupSumRows(nn::Mul(t, p_flat), s);  // [B, d]
    responses.push_back(o);
    all_responses.push_back(o);
    probe = o;  // Eq. 24 replaces v with o^(h-1) for the next hop.
  }
  nn::Tensor u = CombineResponses(all_responses, v);
  return nn::SumRows(nn::Mul(u, v));  // logits; sigma applied in the loss
}

nn::Tensor RippleNetRecommender::ItemVectors(
    const std::vector<int32_t>& items) const {
  return nn::Gather(entity_emb_, items);
}

void RippleNetRecommender::PrepareAux(const RecContext& /*context*/,
                                      Rng& /*rng*/) {}

void RippleNetRecommender::RefreshAux(
    const RecContext& /*context*/,
    const std::vector<int32_t>& /*touched_items*/, const Rng& /*base_rng*/) {}

void RippleNetRecommender::BuildUserRipples(const InteractionDataset& train,
                                            const KnowledgeGraph& kg,
                                            int32_t u, const Rng& hop_rng,
                                            const Rng& pad_rng) {
  const auto& items = train.UserItems(u);
  if (items.empty()) return;
  const std::vector<EntityId> seed_entities(items.begin(), items.end());
  Rng user_hop_rng = hop_rng.Fork(u);
  const std::vector<RippleHop> hops =
      BuildRippleSets(kg, seed_entities, config_.num_hops,
                      config_.hop_size * 4, user_hop_rng);
  Rng resample_rng = pad_rng.Fork(u);
  // Pads the seed slots and each hop to hop_size by resampling
  // (self-loops for isolated seeds keep shapes fixed).
  ripples_.filled[u] = 1;
  int32_t* seeds = ripples_.seeds.data() + ripples_.SeedOffset(u);
  float* weights = ripples_.seed_weights.data() + ripples_.SeedOffset(u);
  for (size_t k = 0; k < config_.hop_size; ++k) {
    seeds[k] = seed_entities[k % seed_entities.size()];
    weights[k] =
        k < seed_entities.size()
            ? 1.0f / std::min<size_t>(seed_entities.size(), config_.hop_size)
            : 0.0f;
  }
  KGREC_CHECK_EQ(hops.size(), config_.num_hops);
  for (size_t hop = 0; hop < hops.size(); ++hop) {
    int32_t* heads = ripples_.heads.data() + ripples_.HopOffset(u, hop);
    int32_t* rels = ripples_.relations.data() + ripples_.HopOffset(u, hop);
    int32_t* tails = ripples_.tails.data() + ripples_.HopOffset(u, hop);
    if (hops[hop].triples.empty()) {
      for (size_t k = 0; k < config_.hop_size; ++k) {
        heads[k] = seed_entities[0];
        rels[k] = 0;
        tails[k] = seed_entities[0];
      }
    } else {
      for (size_t k = 0; k < config_.hop_size; ++k) {
        const Triple& t = hops[hop].triples[resample_rng.UniformInt(
            hops[hop].triples.size())];
        heads[k] = t.head;
        rels[k] = t.relation;
        tails[k] = t.tail;
      }
    }
  }
}

nn::Tensor RippleNetRecommender::CombineResponses(
    const std::vector<nn::Tensor>& responses,
    const nn::Tensor& /*item_vecs*/) const {
  nn::Tensor u = responses[0];
  for (size_t i = 1; i < responses.size(); ++i) {
    u = nn::Add(u, responses[i]);
  }
  return u;
}

void RippleNetRecommender::BuildPropagationState(const RecContext& context,
                                                 Rng& rng) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = *context.item_kg;
  const size_t d = config_.dim;

  entity_emb_ = nn::NormalInit(kg.num_entities(), d, 0.1f, rng);
  relation_mats_ = nn::NormalInit(kg.num_relations(), d * d, 0.1f, rng);
  // Identity bias so h^T R t starts near h . t.
  for (size_t r = 0; r < kg.num_relations(); ++r) {
    for (size_t i = 0; i < d; ++i) {
      relation_mats_.data()[r * d * d + i * d + i] += 1.0f;
    }
  }

  PrepareAux(context, rng);

  // Precompute fixed-size ripple sets per user from training history.
  // Each user draws from their own counter-forked streams, so results are
  // bitwise-identical at any thread count. Fork() is const, so the main
  // stream is unaffected by how many draws the build makes.
  ripples_.Reset(train.num_users(), config_.num_hops, config_.hop_size);
  const Rng hop_rng = rng.Fork(1);
  const Rng pad_rng = rng.Fork(2);
  const Status status = ParallelFor(
      train.num_users(), config_.num_threads, [&](size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
          BuildUserRipples(train, kg, static_cast<int32_t>(u), hop_rng,
                           pad_rng);
        }
        return Status::OK();
      });
  KGREC_CHECK(status.ok());
}

Status RippleNetRecommender::Update(const RecContext& context,
                                    const EventBatch& batch) {
  KGREC_CHECK(context.train != nullptr);
  KGREC_CHECK(context.item_kg != nullptr);
  if (!entity_emb_.defined() || ripples_.filled.empty()) {
    return Status::FailedPrecondition(
        "RippleNet Update() requires a fitted (or loaded) model");
  }
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = *context.item_kg;
  const Rng base_rng(context.seed);

  // Growth: new entities get counter-keyed embedding rows, new users
  // get zeroed (unfilled) arena rows.
  if (kg.num_entities() > entity_emb_.rows()) {
    entity_emb_ = nn::GrowRowsNormal(entity_emb_, kg.num_entities(),
                                     base_rng.Fork(kGrowStream), 0.1f);
  }
  if (static_cast<size_t>(train.num_users()) > ripples_.filled.size()) {
    ripples_.Grow(train.num_users());
  }

  // Who needs a ripple rebuild? Users with new interactions, plus users
  // whose history lies within num_hops of any new fact's endpoints
  // (conservative: a hop-k head sits at distance <= k-1 from a seed).
  std::vector<uint8_t> refresh(train.num_users(), 0);
  std::vector<EntityId> fact_frontier;
  std::vector<int32_t> touched_items;
  for (const Event& e : batch.events) {
    switch (e.kind) {
      case EventKind::kNewUser:
      case EventKind::kNewEntity:
        break;  // growth above is the whole fold
      case EventKind::kNewInteraction:
        refresh[e.user] = 1;
        break;
      case EventKind::kNewFact:
        fact_frontier.push_back(e.head);
        fact_frontier.push_back(e.tail);
        if (e.head < train.num_items()) touched_items.push_back(e.head);
        if (e.tail < train.num_items()) touched_items.push_back(e.tail);
        break;
    }
  }
  if (!fact_frontier.empty()) {
    // One multi-source BFS over the updated KG (inverse relations make
    // it effectively undirected) marks every item entity within
    // num_hops of a new fact; any user seeded on such an item might now
    // ripple through it.
    std::vector<int32_t> depth(kg.num_entities(), -1);
    std::vector<EntityId> frontier;
    for (EntityId e : fact_frontier) {
      if (depth[e] < 0) {
        depth[e] = 0;
        frontier.push_back(e);
      }
    }
    for (size_t hop = 0; hop < config_.num_hops && !frontier.empty(); ++hop) {
      std::vector<EntityId> next;
      for (EntityId e : frontier) {
        const Edge* edges = kg.OutEdges(e);
        const size_t degree = kg.OutDegree(e);
        for (size_t i = 0; i < degree; ++i) {
          const EntityId t = edges[i].target;
          if (depth[t] < 0) {
            depth[t] = static_cast<int32_t>(hop + 1);
            next.push_back(t);
          }
        }
      }
      frontier = std::move(next);
    }
    for (int32_t u = 0; u < train.num_users(); ++u) {
      if (refresh[u] || ripples_.empty(u)) continue;
      for (int32_t item : train.UserItems(u)) {
        if (depth[item] >= 0) {
          refresh[u] = 1;
          break;
        }
      }
    }
  }

  // Per-item aux (RippleNet-agg neighborhoods) for adjacency changes.
  std::sort(touched_items.begin(), touched_items.end());
  touched_items.erase(
      std::unique(touched_items.begin(), touched_items.end()),
      touched_items.end());
  RefreshAux(context, touched_items, base_rng.Fork(kAuxStream));

  // Rebuild each marked user's ripple row with the fit-time build.
  const Rng hop_rng = base_rng.Fork(kHopStream);
  const Rng pad_rng = base_rng.Fork(kPadStream);
  for (int32_t u = 0; u < train.num_users(); ++u) {
    if (refresh[u]) BuildUserRipples(train, kg, u, hop_rng, pad_rng);
  }
  return Status::OK();
}

std::string RippleNetRecommender::HyperFingerprint() const {
  return FingerprintBuilder()
      .Add("dim", static_cast<double>(config_.dim))
      .Add("hops", static_cast<double>(config_.num_hops))
      .Add("hop_size", static_cast<double>(config_.hop_size))
      .Add("epochs", config_.epochs)
      .Add("batch_size", static_cast<double>(config_.batch_size))
      .Add("lr", config_.learning_rate)
      .Add("l2", config_.l2)
      .Add("kge_weight", config_.kge_weight)
      // Marks the Fork(user)-keyed ripple build. Checkpoints from the
      // retired shared-stream build carried 0 and are refused, since
      // PrepareLoad could not rebuild their ripple sets.
      .Add("ripple_rng", 1.0)
      .str();
}

Status RippleNetRecommender::VisitState(StateVisitor* visitor) {
  KGREC_RETURN_IF_ERROR(visitor->Tensor("entity_emb", &entity_emb_));
  return visitor->Tensor("relation_mats", &relation_mats_);
}

Status RippleNetRecommender::PrepareLoad(const RecContext& context) {
  // Replays Fit's preamble with Fit's seed: the parameter inits consume
  // the same draws before PrepareAux and the ripple build, so the ripple
  // sets (and RippleNet-agg's item neighborhoods) match training bitwise;
  // the parameter values themselves are overwritten by the restore.
  Rng rng(context.seed);
  BuildPropagationState(context, rng);
  return Status::OK();
}

void RippleNetRecommender::Fit(const RecContext& context) {
  Rng rng(context.seed);
  BuildPropagationState(context, rng);
  const InteractionDataset& train = *context.train;
  const KnowledgeGraph& kg = *context.item_kg;

  nn::Adagrad optimizer({entity_emb_, relation_mats_},
                        config_.learning_rate, config_.l2);
  NegativeSampler sampler(train);
  std::vector<size_t> order(train.num_interactions());
  std::iota(order.begin(), order.end(), size_t{0});
  const auto& triples = kg.triples();
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<int32_t> users, items;
      std::vector<float> labels;
      for (size_t i = start; i < end; ++i) {
        const Interaction& x = train.interactions()[order[i]];
        if (ripples_.empty(x.user)) continue;
        users.push_back(x.user);
        items.push_back(x.item);
        labels.push_back(1.0f);
        users.push_back(x.user);
        items.push_back(sampler.Sample(x.user, rng));
        labels.push_back(0.0f);
      }
      if (users.empty()) continue;
      nn::Tensor logits = Forward(users, items);
      nn::Tensor loss = nn::BceWithLogits(logits, labels);
      if (config_.kge_weight > 0.0f) {
        // KGE regularizer: sampled triples should satisfy h^T R t > 0.
        std::vector<int32_t> heads, rels, tails;
        std::vector<float> kge_labels;
        for (size_t i = 0; i < users.size() / 2; ++i) {
          const Triple& t = triples[rng.UniformInt(triples.size())];
          heads.push_back(t.head);
          rels.push_back(t.relation);
          tails.push_back(t.tail);
          kge_labels.push_back(1.0f);
          // Corrupted tail as a negative, so the regularizer separates
          // true facts from noise instead of inflating all scores.
          heads.push_back(t.head);
          rels.push_back(t.relation);
          tails.push_back(
              static_cast<int32_t>(rng.UniformInt(kg.num_entities())));
          kge_labels.push_back(0.0f);
        }
        nn::Tensor h = nn::Gather(entity_emb_, heads);
        nn::Tensor r = nn::Gather(relation_mats_, rels);
        nn::Tensor t = nn::Gather(entity_emb_, tails);
        nn::Tensor plaus = nn::SumRows(nn::Mul(nn::RowwiseVecMat(h, r), t));
        loss = nn::Add(loss, nn::ScaleBy(nn::BceWithLogits(plaus, kge_labels),
                                         config_.kge_weight));
      }
      optimizer.ZeroGrad();
      nn::Backward(loss);
      optimizer.Step();
    }
  }
}

float RippleNetRecommender::Score(int32_t user, int32_t item) const {
  if (ripples_.empty(user)) return 0.0f;
  std::vector<int32_t> users{user}, items{item};
  return Forward(users, items).value();
}

std::vector<float> RippleNetRecommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  std::vector<float> out(items.size(), 0.0f);
  if (items.empty() || ripples_.empty(user)) return out;
  const size_t s = config_.hop_size;
  const size_t so = ripples_.SeedOffset(user);

  // Once-per-user tensors, built with the same ops (and therefore the
  // same floats) a B=1 Forward() would produce for this user.
  const std::vector<int32_t> seed_ids(ripples_.seeds.begin() + so,
                                      ripples_.seeds.begin() + so + s);
  nn::Tensor seed_emb = nn::Gather(entity_emb_, seed_ids);
  nn::Tensor seed_weights = nn::Tensor::FromData(
      s, 1,
      std::vector<float>(ripples_.seed_weights.begin() + so,
                         ripples_.seed_weights.begin() + so + s));
  nn::Tensor o0 = nn::GroupSumRows(nn::Mul(seed_emb, seed_weights), s);
  std::vector<nn::Tensor> rh_hops, tail_hops;
  for (size_t hop = 0; hop < config_.num_hops; ++hop) {
    const size_t ho = ripples_.HopOffset(user, hop);
    const std::vector<int32_t> heads(ripples_.heads.begin() + ho,
                                     ripples_.heads.begin() + ho + s);
    const std::vector<int32_t> rels(ripples_.relations.begin() + ho,
                                    ripples_.relations.begin() + ho + s);
    const std::vector<int32_t> tails(ripples_.tails.begin() + ho,
                                     ripples_.tails.begin() + ho + s);
    nn::Tensor h = nn::Gather(entity_emb_, heads);        // [s, d]
    nn::Tensor r = nn::Gather(relation_mats_, rels);      // [s, d*d]
    rh_hops.push_back(nn::RowwiseVecMat(h, r));           // [s, d]
    tail_hops.push_back(nn::Gather(entity_emb_, tails));  // [s, d]
  }

  // Chunked so the [B*s, d] intermediates stay cache-resident.
  constexpr size_t kChunk = 256;
  for (size_t start = 0; start < items.size(); start += kChunk) {
    const size_t batch = std::min(items.size() - start, kChunk);
    const std::vector<int32_t> chunk(items.begin() + start,
                                     items.begin() + start + batch);
    nn::Tensor v = ItemVectors(chunk);  // [B, d]
    std::vector<int32_t> tile(batch * s), repeat(batch * s);
    for (size_t b = 0; b < batch; ++b) {
      for (size_t k = 0; k < s; ++k) {
        tile[b * s + k] = static_cast<int32_t>(k);
        repeat[b * s + k] = static_cast<int32_t>(b);
      }
    }
    const std::vector<int32_t> zeros(batch, 0);
    std::vector<nn::Tensor> all_responses{nn::Gather(o0, zeros)};  // [B, d]
    nn::Tensor probe = v;
    for (size_t hop = 0; hop < config_.num_hops; ++hop) {
      nn::Tensor rh = nn::Gather(rh_hops[hop], tile);      // [B*s, d]
      nn::Tensor t = nn::Gather(tail_hops[hop], tile);     // [B*s, d]
      nn::Tensor probe_rep = nn::Gather(probe, repeat);    // [B*s, d]
      nn::Tensor logits = nn::SumRows(nn::Mul(rh, probe_rep));
      nn::Tensor p = nn::Softmax(nn::Reshape(logits, batch, s));
      nn::Tensor p_flat = nn::Reshape(p, batch * s, 1);
      nn::Tensor o = nn::GroupSumRows(nn::Mul(t, p_flat), s);  // [B, d]
      all_responses.push_back(o);
      probe = o;
    }
    nn::Tensor u = CombineResponses(all_responses, v);
    nn::Tensor scores = nn::SumRows(nn::Mul(u, v));  // [B, 1]
    std::copy(scores.data(), scores.data() + batch, out.begin() + start);
  }
  return out;
}

}  // namespace kgrec
