// Lockdown for the streaming/online-update layer (DESIGN.md §13): the
// event-stream replay contract, the registry-wide Recommender::Update()
// determinism contract, the InteractionDataset frozen-epoch machinery
// that lets serve-path readers survive a streaming writer, the
// KnowledgeGraph incremental-batch growth path, and the router's
// SwapFromUpdate hot swap.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <deque>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cf/mf.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/event_stream.h"
#include "data/interactions.h"
#include "data/synthetic.h"
#include "eval/protocol.h"
#include "graph/knowledge_graph.h"
#include "serve/router.h"
#include "serve/serve_handle.h"
#include "unified/akupm.h"
#include "unified/ripplenet.h"
#include "unified/ripplenet_agg.h"

namespace kgrec {
namespace {

EventStreamConfig TinyStreamConfig() {
  WorldConfig world;
  world.name = "update-test";
  world.num_users = 26;
  world.num_items = 20;
  world.avg_interactions_per_user = 5.0;
  world.item_relations = {
      {.name = "genre", .num_values = 6, .links_per_item = 2},
      {.name = "studio", .num_values = 5, .links_per_item = 1},
  };
  EventStreamConfig config;
  config.world = world;
  config.base_user_fraction = 0.7;
  config.held_out_values_per_relation = 2;
  config.stream_seed = 17;
  return config;
}

RecContext MakeContext(const InteractionDataset& train,
                       const KnowledgeGraph& kg, const UserItemGraph& uig) {
  RecContext ctx;
  ctx.train = &train;
  ctx.item_kg = &kg;
  ctx.user_item_graph = &uig;
  ctx.seed = 17;
  return ctx;
}

/// Bitwise score equality over a spread of users (old and new) and a
/// duplicate-bearing candidate list.
void ExpectScoresBitwise(const Recommender& a, const Recommender& b,
                         int32_t num_users, int32_t num_items) {
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < num_items; i += 2) candidates.push_back(i);
  candidates.push_back(candidates.front());
  for (int32_t user = 0; user < num_users; user += 3) {
    const std::vector<float> sa = a.ScoreItems(user, candidates);
    const std::vector<float> sb = b.ScoreItems(user, candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
      ASSERT_EQ(std::memcmp(&sa[i], &sb[i], sizeof(float)), 0)
          << a.name() << ": user " << user << " item " << candidates[i];
    }
  }
}

/// Every world state of a stream cut into equal batches: state b is the
/// base world plus batches 0..b-1, so SwapFromUpdate(Context(b),
/// Context(b + 1), batches[b]) folds batch b. Deques keep each state's
/// address stable for the RecContexts pointing at it.
struct WorldChain {
  std::deque<InteractionDataset> train;
  std::deque<KnowledgeGraph> kg;
  std::deque<UserItemGraph> uig;
  std::vector<EventBatch> batches;

  WorldChain(const EventStream& stream, size_t num_batches) {
    train.push_back(stream.BaseInteractions());
    kg.push_back(stream.BaseItemKg());
    uig.push_back(stream.BaseUserItemGraph());
    const size_t n = stream.size();
    for (size_t b = 0; b < num_batches; ++b) {
      batches.push_back(
          stream.Batch(b * n / num_batches, (b + 1) * n / num_batches));
      train.push_back(train.back());
      kg.push_back(kg.back());
      uig.push_back(uig.back());
      stream.ApplyBatch(batches.back(), &train.back(), &kg.back());
      stream.ApplyBatchToUserItemGraph(batches.back(), &uig.back());
    }
  }

  RecContext Context(size_t state, uint64_t seed) const {
    RecContext ctx = MakeContext(train[state], kg[state], uig[state]);
    ctx.seed = seed;
    return ctx;
  }
};

// ---------------------------------------------------------------------
// Event stream: replay == from-scratch build, and stream shape.

TEST(EventStream, PrefixReplayMatchesFromScratchBuild) {
  const EventStream stream(TinyStreamConfig());
  const size_t n = stream.size();
  ASSERT_GT(n, 0u);

  InteractionDataset replayed = stream.BaseInteractions();
  KnowledgeGraph replayed_kg = stream.BaseItemKg();
  size_t prev = 0;
  for (const size_t t : {size_t{0}, n / 4, n / 2, n}) {
    stream.ApplyBatch(stream.Batch(prev, t), &replayed, &replayed_kg);
    prev = t;
    const StreamSnapshot snap = stream.MaterializeAt(static_cast<int64_t>(t));
    std::string why;
    EXPECT_TRUE(StreamEquals(replayed, replayed_kg, snap.interactions,
                             snap.item_kg, &why))
        << "prefix " << t << ": " << why;
  }
  EXPECT_EQ(replayed.num_users(), stream.total_num_users());
  EXPECT_EQ(replayed_kg.num_entities(), stream.total_num_entities());
}

TEST(EventStream, StreamShapeInvariants) {
  const EventStream stream(TinyStreamConfig());
  const auto& events = stream.events();
  ASSERT_FALSE(events.empty());

  int32_t users_so_far = stream.base_num_users();
  EntityId next_entity = static_cast<EntityId>(stream.base_num_entities());
  int64_t expected_ts = 1;
  for (const Event& e : events) {
    EXPECT_EQ(e.timestamp, expected_ts++);  // dense, strictly increasing
    switch (e.kind) {
      case EventKind::kNewUser:
        EXPECT_EQ(e.user, users_so_far++);  // id suffix, arrival order
        break;
      case EventKind::kNewInteraction:
        EXPECT_GE(e.user, 0);
        EXPECT_LT(e.user, users_so_far);  // the user already arrived
        EXPECT_GE(e.item, 0);
        EXPECT_LT(e.item, stream.num_items());
        break;
      case EventKind::kNewEntity:
        EXPECT_EQ(e.entity, next_entity++);  // compact suffix ids
        EXPECT_GE(e.entity_type, 1);
        EXPECT_FALSE(e.entity_name.empty());
        break;
      case EventKind::kNewFact:
        EXPECT_GE(e.head, 0);
        EXPECT_LT(e.head, next_entity);
        EXPECT_GE(e.tail, 0);
        EXPECT_LT(e.tail, next_entity);
        EXPECT_GE(e.relation, 0);
        EXPECT_NE(e.relation, e.inverse_relation);
        break;
    }
  }
  EXPECT_EQ(users_so_far, stream.total_num_users());
  EXPECT_EQ(static_cast<size_t>(next_entity), stream.total_num_entities());
}

// ---------------------------------------------------------------------
// The registry-wide Update() contract.

TEST(OnlineUpdate, RegistryAgreesWithModels) {
  for (const std::string& name : ImplementedMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(SupportsUpdate(name), model->SupportsUpdate()) << name;
  }
  // The updatable zoo spans the MF, KGE and propagation families. Each
  // of these folds passes its own online_updates recovery gate; CFKG,
  // ECFKG, KGCN and KGCN-LS folded below their stale twins and have none.
  const std::vector<std::string> expected{
      "MF", "BPR-MF", "CKE", "RippleNet", "RippleNet-agg", "AKUPM"};
  EXPECT_EQ(UpdatableMethodNames(), expected);
}

// Every updatable model: fit -> update must serve bitwise the same
// scores as fit -> save -> load -> update (no hidden RNG state survives
// a checkpoint), and the updated model's metrics must be bitwise
// identical at 1/2/8 eval threads.
TEST(OnlineUpdate, BitwiseAcrossRoundtripAndThreadCounts) {
  const EventStream stream(TinyStreamConfig());
  const size_t n = stream.size();

  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);

  InteractionDataset live_train = base_train;
  KnowledgeGraph live_kg = base_kg;
  UserItemGraph live_uig = base_uig;
  const RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);

  // Fit + clone everything on the pristine base, then stream the world
  // in two batches (so folds must not depend on batch partitioning).
  const std::string ckpt = testing::TempDir() + "update_roundtrip.kgrc";
  std::vector<std::unique_ptr<Recommender>> fitted, restored;
  for (const std::string& name : UpdatableMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    model->Fit(base_ctx);
    ASSERT_TRUE(model->Save(ckpt).ok()) << name;
    std::unique_ptr<Recommender> clone;
    ASSERT_TRUE(LoadModel(base_ctx, ckpt, &clone).ok()) << name;
    fitted.push_back(std::move(model));
    restored.push_back(std::move(clone));
  }
  std::remove(ckpt.c_str());
  size_t prev = 0;
  for (const size_t t : {n / 2, n}) {
    const EventBatch batch = stream.Batch(prev, t);
    prev = t;
    stream.ApplyBatch(batch, &live_train, &live_kg);
    stream.ApplyBatchToUserItemGraph(batch, &live_uig);
    for (size_t i = 0; i < fitted.size(); ++i) {
      ASSERT_TRUE(fitted[i]->Update(live_ctx, batch).ok())
          << fitted[i]->name();
      ASSERT_TRUE(restored[i]->Update(live_ctx, batch).ok())
          << restored[i]->name();
    }
  }

  // An eval probe over the streamed tail (determinism check, so overlap
  // with the folded events is irrelevant).
  InteractionDataset probe(live_train.num_users(), live_train.num_items());
  const auto& events = stream.events();
  for (size_t i = 3 * n / 4; i < n; ++i) {
    if (events[i].kind == EventKind::kNewInteraction) {
      probe.Add(events[i].user, events[i].item);
    }
  }
  ASSERT_GT(probe.num_interactions(), 0u);

  for (size_t i = 0; i < fitted.size(); ++i) {
    ExpectScoresBitwise(*fitted[i], *restored[i], stream.total_num_users(),
                        stream.num_items());
    EvalOptions options;
    options.seed = Rng(102).NextUint64();
    options.num_threads = 1;
    const TopKMetrics serial =
        EvaluateTopK(*fitted[i], live_train, probe, options);
    for (const size_t threads : {size_t{2}, size_t{8}}) {
      options.num_threads = threads;
      const TopKMetrics parallel =
          EvaluateTopK(*fitted[i], live_train, probe, options);
      EXPECT_EQ(std::memcmp(&serial.ndcg, &parallel.ndcg, sizeof(double)), 0)
          << fitted[i]->name() << " at " << threads << " threads";
      EXPECT_EQ(std::memcmp(&serial.mrr, &parallel.mrr, sizeof(double)), 0)
          << fitted[i]->name() << " at " << threads << " threads";
      EXPECT_EQ(serial.num_users, parallel.num_users) << fitted[i]->name();
    }
  }
}

TEST(OnlineUpdate, NonUpdatableRefusesAndStaysUntouched) {
  const EventStream stream(TinyStreamConfig());
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);

  std::string non_updatable;
  for (const std::string& name : ImplementedMethodNames()) {
    if (!SupportsUpdate(name)) {
      non_updatable = name;
      break;
    }
  }
  ASSERT_FALSE(non_updatable.empty());

  std::unique_ptr<Recommender> model = MakeRecommender(non_updatable);
  model->Fit(base_ctx);
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < stream.num_items(); ++i) candidates.push_back(i);
  const std::vector<float> before = model->ScoreItems(0, candidates);

  const Status status =
      model->Update(base_ctx, stream.Batch(0, stream.size()));
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(model->SupportsUpdate());

  const std::vector<float> after = model->ScoreItems(0, candidates);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(std::memcmp(&before[i], &after[i], sizeof(float)), 0);
  }
}

TEST(OnlineUpdate, UnfittedModelFailsPrecondition) {
  const EventStream stream(TinyStreamConfig());
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);
  for (const char* name : {"MF", "RippleNet"}) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    const Status status =
        model->Update(base_ctx, stream.Batch(0, stream.size()));
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << name;
  }
}

// ---------------------------------------------------------------------
// InteractionDataset frozen epochs: the streaming writer's contract.

TEST(FreezeThaw, FrozenEpochPinsReadsAndGeneration) {
  InteractionDataset data(4, 8);
  data.Add(0, 1);
  data.Add(0, 2);
  data.Add(1, 3);
  ASSERT_FALSE(data.UserItems(0).empty());  // builds the index
  const uint64_t built = data.index_generation();
  EXPECT_GT(built, 0u);

  data.Freeze();
  EXPECT_TRUE(data.frozen());
  const std::span<const int32_t> pinned = data.UserItems(0);
  data.Add(0, 7);       // lands in the log, invisible to the epoch
  data.GrowUsers(2);    // deferred: new users report empty histories
  EXPECT_EQ(data.num_users(), 6);
  EXPECT_EQ(data.num_interactions(), 4u);
  EXPECT_EQ(data.index_generation(), built);  // no rebuild while frozen
  EXPECT_FALSE(data.Contains(0, 7));          // pinned-epoch answer
  EXPECT_EQ(data.UserItems(0).size(), 2u);
  EXPECT_EQ(data.UserItems(0).data(), pinned.data());  // same storage
  EXPECT_TRUE(data.UserItems(4).empty());

  data.Thaw();
  EXPECT_FALSE(data.frozen());
  EXPECT_TRUE(data.Contains(0, 7));  // appended event now visible
  EXPECT_EQ(data.UserItems(0).size(), 3u);
  EXPECT_GT(data.index_generation(), built);
}

TEST(FreezeThaw, ContainsFallsBackToLinearScanOnDirtyIndex) {
  InteractionDataset data(3, 40);
  data.Add(0, 4);
  data.Add(0, 30);
  // No index built yet: Contains answers from the log without forcing a
  // build (a one-off query must never reallocate under span holders).
  EXPECT_TRUE(data.Contains(0, 30));
  EXPECT_FALSE(data.Contains(0, 5));
  EXPECT_EQ(data.index_generation(), 0u);

  ASSERT_EQ(data.UserItems(0).size(), 2u);  // builds; binary-search lane
  const uint64_t built = data.index_generation();
  EXPECT_TRUE(data.Contains(0, 4));
  EXPECT_EQ(data.index_generation(), built);

  // Dirty the index: Contains must see the new pair via the linear
  // fallback and must NOT rebuild (generation unchanged).
  data.Add(1, 17);
  EXPECT_TRUE(data.Contains(1, 17));
  EXPECT_FALSE(data.Contains(1, 16));
  EXPECT_EQ(data.index_generation(), built);
  // The next span request rebuilds.
  EXPECT_EQ(data.UserItems(1).size(), 1u);
  EXPECT_GT(data.index_generation(), built);
}

// TSan regression: reader threads hammer UserItems()/Contains() and hold
// spans across calls while the single streaming writer appends into a
// frozen epoch and widens the user space. Any index rebuild concurrent
// with those reads is a race; the frozen epoch is what forbids it.
TEST(FreezeThaw, ConcurrentEpochReadersDuringFrozenAppends) {
  constexpr int32_t kUsers = 24;
  constexpr int32_t kItems = 16;
  InteractionDataset data(kUsers, kItems);
  Rng rng(11);
  for (int32_t u = 0; u < kUsers; ++u) {
    for (int k = 0; k < 5; ++k) {
      data.Add(u, static_cast<int32_t>(rng.UniformInt(kItems - 1)));
    }
  }
  data.Freeze();
  std::vector<std::vector<int32_t>> pinned(kUsers);
  for (int32_t u = 0; u < kUsers; ++u) {
    const auto span = data.UserItems(u);
    pinned[u].assign(span.begin(), span.end());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> readers_ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        for (int32_t u = 0; u < kUsers; ++u) {
          const auto span = data.UserItems(u);
          if (span.size() != pinned[u].size() ||
              !std::equal(span.begin(), span.end(), pinned[u].begin())) {
            readers_ok.store(false, std::memory_order_release);
          }
          // Item kItems-1 never appears pre-freeze; while frozen the
          // writer's appends of it must stay invisible.
          if (data.Contains(u, kItems - 1)) {
            readers_ok.store(false, std::memory_order_release);
          }
        }
      }
    });
  }
  for (int32_t i = 0; i < 2400; ++i) {
    data.Add(i % kUsers, kItems - 1);
  }
  data.GrowUsers(4);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(readers_ok.load());

  data.Thaw();
  EXPECT_EQ(data.num_users(), kUsers + 4);
  EXPECT_TRUE(data.Contains(0, kItems - 1));
  EXPECT_EQ(data.UserItems(0).size(), pinned[0].size() + 2400 / kUsers);
}

// ---------------------------------------------------------------------
// KnowledgeGraph incremental batches.

TEST(IncrementalBatch, RebuiltCsrEqualsFromScratchBuild) {
  // Base graph, finalized.
  KnowledgeGraph inc;
  for (int i = 0; i < 6; ++i) inc.AddEntity("e" + std::to_string(i));
  const RelationId a = inc.AddRelation("a");
  const RelationId b = inc.AddRelation("b");
  ASSERT_TRUE(inc.AddTriple(0, a, 3).ok());
  ASSERT_TRUE(inc.AddTriple(1, a, 4).ok());
  ASSERT_TRUE(inc.AddTriple(2, b, 5).ok());
  inc.Finalize();

  // Post-finalize stray writes are rejected, not absorbed.
  EXPECT_EQ(inc.AddTriple(0, b, 5).code(), StatusCode::kFailedPrecondition);

  // Grow through the sanctioned bracket, deliberately in a different
  // insertion order than the from-scratch build below.
  ASSERT_TRUE(inc.BeginIncrementalBatch().ok());
  EXPECT_EQ(inc.BeginIncrementalBatch().code(),
            StatusCode::kFailedPrecondition);  // no nesting
  const EntityId e6 = inc.AddEntity("e6");
  EXPECT_EQ(e6, 6);
  ASSERT_TRUE(inc.AddTriple(e6, b, 0).ok());
  ASSERT_TRUE(inc.AddTriple(0, b, e6).ok());
  ASSERT_TRUE(inc.FinalizeIncrementalBatch().ok());
  EXPECT_EQ(inc.FinalizeIncrementalBatch().code(),
            StatusCode::kFailedPrecondition);  // bracket closed

  // From-scratch reference with the same final content.
  KnowledgeGraph ref;
  for (int i = 0; i < 7; ++i) ref.AddEntity("e" + std::to_string(i));
  const RelationId ra = ref.AddRelation("a");
  const RelationId rb = ref.AddRelation("b");
  ASSERT_TRUE(ref.AddTriple(0, rb, 6).ok());  // different insertion order
  ASSERT_TRUE(ref.AddTriple(6, rb, 0).ok());
  ASSERT_TRUE(ref.AddTriple(0, ra, 3).ok());
  ASSERT_TRUE(ref.AddTriple(1, ra, 4).ok());
  ASSERT_TRUE(ref.AddTriple(2, rb, 5).ok());
  ref.Finalize();

  ASSERT_EQ(inc.num_entities(), ref.num_entities());
  ASSERT_EQ(inc.num_triples(), ref.num_triples());
  for (EntityId e = 0; e < static_cast<EntityId>(inc.num_entities()); ++e) {
    ASSERT_EQ(inc.OutDegree(e), ref.OutDegree(e)) << "entity " << e;
    EXPECT_EQ(std::memcmp(inc.OutEdges(e), ref.OutEdges(e),
                          inc.OutDegree(e) * sizeof(Edge)),
              0)
        << "entity " << e;  // rows sorted: bitwise, not just set-equal
  }
  EXPECT_TRUE(inc.HasTriple(0, b, e6));
  EXPECT_TRUE(inc.HasTriple(e6, b, 0));
}

TEST(IncrementalBatch, RejectsUnfinalizedAndReleasedGraphs) {
  KnowledgeGraph building;
  building.AddEntity("x");
  EXPECT_EQ(building.BeginIncrementalBatch().code(),
            StatusCode::kFailedPrecondition);  // not finalized yet

  KnowledgeGraph released;
  released.AddEntity("x");
  released.AddEntity("y");
  const RelationId r = released.AddRelation("r");
  ASSERT_TRUE(released.AddTriple(0, r, 1).ok());
  released.Finalize();
  released.ReleaseTriples();
  EXPECT_EQ(released.BeginIncrementalBatch().code(),
            StatusCode::kFailedPrecondition);  // needs the triple list
}

// ---------------------------------------------------------------------
// Router::SwapFromUpdate.

TEST(SwapFromUpdate, InstallsUpdatedCopyAndBumpsGeneration) {
  const EventStream stream(TinyStreamConfig());
  const size_t n = stream.size();
  const InteractionDataset base_train = stream.BaseInteractions();
  const KnowledgeGraph base_kg = stream.BaseItemKg();
  const UserItemGraph base_uig = stream.BaseUserItemGraph();
  const RecContext base_ctx = MakeContext(base_train, base_kg, base_uig);

  InteractionDataset live_train = base_train;
  KnowledgeGraph live_kg = base_kg;
  UserItemGraph live_uig = base_uig;
  const RecContext live_ctx = MakeContext(live_train, live_kg, live_uig);
  const EventBatch batch = stream.Batch(0, n);
  stream.ApplyBatch(batch, &live_train, &live_kg);
  stream.ApplyBatchToUserItemGraph(batch, &live_uig);

  // The reference path: the same fit + update, applied directly.
  std::unique_ptr<Recommender> reference = MakeRecommender("MF");
  reference->Fit(base_ctx);
  ASSERT_TRUE(reference->Update(live_ctx, batch).ok());

  std::unique_ptr<Recommender> serving = MakeRecommender("MF");
  serving->Fit(base_ctx);
  serve::RouterConfig config;
  config.num_threads = 2;
  serve::Router router(config,
                       serve::ServeHandle::Adopt(std::move(serving),
                                                 base_ctx, 1));
  ASSERT_EQ(router.current()->generation(), 1u);

  ASSERT_TRUE(router.SwapFromUpdate(base_ctx, live_ctx, batch).ok());
  const std::shared_ptr<const serve::ServeHandle> handle = router.current();
  EXPECT_EQ(handle->generation(), 2u);
  EXPECT_EQ(router.Stats().swaps, 1u);
  ExpectScoresBitwise(handle->model(), *reference, stream.total_num_users(),
                      stream.num_items());

  // Traffic through the router is served by the updated generation.
  serve::ScoreRequest request;
  request.user = stream.total_num_users() - 1;  // arrived mid-stream
  for (int32_t i = 0; i < stream.num_items(); i += 4) {
    request.items.push_back(i);
  }
  const serve::ScoreResponse response = router.ScoreSync(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.generation, 2u);
  const std::vector<float> direct =
      reference->ScoreItems(request.user, request.items);
  for (size_t i = 0; i < request.items.size(); ++i) {
    EXPECT_EQ(std::memcmp(&response.scores[i], &direct[i], sizeof(float)), 0);
  }
}

TEST(SwapFromUpdate, NonUpdatableModelLeavesOldHandleServing) {
  // A refused fold leaves the base generation serving in a world that
  // has grown past it: base users are served bitwise, and users that
  // arrived with the batch are rejected instead of read out of bounds.
  const EventStream stream(TinyStreamConfig());
  const WorldChain world(stream, 1);
  const RecContext base_ctx = world.Context(0, 17);
  const int32_t base_users = stream.base_num_users();
  ASSERT_LT(base_users, stream.total_num_users());
  for (const char* name : {"CFKG", "KGCN"}) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    ASSERT_FALSE(model->SupportsUpdate()) << name;
    model->Fit(base_ctx);
    const std::vector<int32_t> items{0, 5, 9};
    const std::vector<float> before = model->ScoreItems(base_users - 1, items);
    serve::RouterConfig config;
    config.num_threads = 2;
    serve::Router router(config,
                         serve::ServeHandle::Adopt(std::move(model),
                                                   base_ctx, 1));

    const Status status = router.SwapFromUpdate(
        base_ctx, world.Context(1, 17), world.batches[0]);
    EXPECT_EQ(status.code(), StatusCode::kUnimplemented) << name;
    EXPECT_EQ(router.current()->generation(), 1u);  // old handle untouched
    EXPECT_EQ(router.Stats().swaps, 0u);

    const serve::ScoreResponse served =
        router.ScoreSync({base_users - 1, items});
    ASSERT_TRUE(served.status.ok()) << name;
    EXPECT_EQ(served.generation, 1u);
    EXPECT_EQ(std::memcmp(served.scores.data(), before.data(),
                          before.size() * sizeof(float)),
              0)
        << name;
    EXPECT_EQ(router.ScoreSync({base_users, items}).status.code(),
              StatusCode::kInvalidArgument)
        << name;
    EXPECT_EQ(router.RecommendSync({base_users, 3, {}}).status.code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(SwapFromUpdate, NonRegistryConfigCloneFailsAndOldGenerationServes) {
  // The in-memory clone restores into a registry-default instance, so a
  // model trained under another config is refused with
  // FailedPrecondition — and the router keeps serving the old generation.
  const EventStream stream(TinyStreamConfig());
  const WorldChain world(stream, 1);
  const RecContext base_ctx = world.Context(0, 17);
  MfConfig config;
  config.dim = 8;  // registry default is 16
  auto custom = std::make_unique<MfRecommender>(config);
  custom->Fit(base_ctx);
  std::unique_ptr<Recommender> clone;
  EXPECT_EQ(CloneModel(*custom, base_ctx, &clone).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(clone, nullptr);

  const std::vector<int32_t> items{0, 7, 19};
  const std::vector<float> before = custom->ScoreItems(3, items);
  serve::RouterConfig router_config;
  router_config.num_threads = 1;
  serve::Router router(router_config,
                       serve::ServeHandle::Adopt(std::move(custom),
                                                 base_ctx, 1));
  const Status status = router.SwapFromUpdate(
      base_ctx, world.Context(1, 17), world.batches[0]);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(router.current()->generation(), 1u);
  EXPECT_EQ(router.Stats().swaps, 0u);
  const serve::ScoreResponse response = router.ScoreSync({3, items});
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.generation, 1u);
  EXPECT_EQ(std::memcmp(response.scores.data(), before.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(SwapFromUpdate, ThreadedRippleFamilyClonesAndSwaps) {
  // Thread count is not a hyper-parameter: a RippleNet-family model fit
  // with 4 threads clones into the registry-default instance with
  // bitwise-equal scores, and the router folds a batch into it.
  const EventStream stream(TinyStreamConfig());
  const WorldChain world(stream, 1);
  const RecContext base_ctx = world.Context(0, 17);
  RippleNetConfig config;
  config.num_threads = 4;
  std::vector<std::unique_ptr<Recommender>> models;
  models.push_back(std::make_unique<RippleNetRecommender>(config));
  models.push_back(std::make_unique<RippleNetAggRecommender>(config));
  models.push_back(std::make_unique<AkupmRecommender>(config));
  serve::RouterConfig router_config;
  router_config.num_threads = 1;
  for (std::unique_ptr<Recommender>& model : models) {
    const std::string name = model->name();
    model->Fit(base_ctx);
    std::unique_ptr<Recommender> clone;
    ASSERT_TRUE(CloneModel(*model, base_ctx, &clone).ok()) << name;
    ExpectScoresBitwise(*clone, *model, world.train[0].num_users(),
                        stream.num_items());

    serve::Router router(router_config,
                         serve::ServeHandle::Adopt(std::move(model),
                                                   base_ctx, 1));
    EXPECT_TRUE(router
                    .SwapFromUpdate(base_ctx, world.Context(1, 17),
                                    world.batches[0])
                    .ok())
        << name;
    EXPECT_EQ(router.current()->generation(), 2u) << name;
  }
}

TEST(SwapFromUpdate, ConcurrentRoutersMatchTheirOwnSerialChains) {
  // Two routers in one process fold the same batches into models fitted
  // under different seeds, swapping the same generation at the same
  // time. The clone behind each swap is in memory, so neither router can
  // see the other's state: each must end bitwise on its own serial
  // Fit -> Update(b1..bn) chain.
  constexpr size_t kBatches = 4;
  const EventStream stream(TinyStreamConfig());
  struct Lane {
    uint64_t seed;
    WorldChain world;
    std::unique_ptr<Recommender> reference;
    std::unique_ptr<serve::Router> router;
    Status status;
  };
  std::vector<Lane> lanes;
  for (const uint64_t seed : {uint64_t{17}, uint64_t{29}}) {
    lanes.push_back({seed, WorldChain(stream, kBatches), nullptr, nullptr,
                     Status::OK()});
  }
  serve::RouterConfig config;
  config.num_threads = 1;
  for (Lane& lane : lanes) {
    lane.reference = MakeRecommender("CKE");
    lane.reference->Fit(lane.world.Context(0, lane.seed));
    for (size_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(lane.reference
                      ->Update(lane.world.Context(b + 1, lane.seed),
                               lane.world.batches[b])
                      .ok());
    }
    std::unique_ptr<Recommender> serving = MakeRecommender("CKE");
    serving->Fit(lane.world.Context(0, lane.seed));
    lane.router = std::make_unique<serve::Router>(
        config, serve::ServeHandle::Adopt(std::move(serving),
                                          lane.world.Context(0, lane.seed),
                                          1));
  }

  // The latch starts both swap loops together; the barrier keeps them in
  // lockstep, so every generation is built by both routers at once.
  std::latch start(static_cast<std::ptrdiff_t>(lanes.size()));
  std::barrier step(static_cast<std::ptrdiff_t>(lanes.size()));
  std::vector<std::thread> swappers;
  for (Lane& lane : lanes) {
    swappers.emplace_back([&lane, &start, &step] {
      start.arrive_and_wait();
      for (size_t b = 0; b < kBatches; ++b) {
        const Status status = lane.router->SwapFromUpdate(
            lane.world.Context(b, lane.seed),
            lane.world.Context(b + 1, lane.seed), lane.world.batches[b]);
        if (lane.status.ok()) lane.status = status;
        step.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : swappers) t.join();

  const int32_t num_users = stream.total_num_users();
  const int32_t num_items = stream.num_items();
  for (const Lane& lane : lanes) {
    ASSERT_TRUE(lane.status.ok()) << lane.status.ToString();
    const std::shared_ptr<const serve::ServeHandle> handle =
        lane.router->current();
    EXPECT_EQ(handle->generation(), 1u + kBatches);
    ExpectScoresBitwise(handle->model(), *lane.reference, num_users,
                        num_items);
  }
  // The seeds give the two chains different weights, so a router serving
  // the other router's state would fail the check above.
  const std::vector<int32_t> items{0, 5, 11};
  EXPECT_NE(lanes[0].reference->ScoreItems(1, items),
            lanes[1].reference->ScoreItems(1, items));
}

}  // namespace
}  // namespace kgrec
