// Lockdown of the retrieval layer (src/retrieval/) and the top-K
// correctness fixes that came with it:
//
//  * math/topk.h — RankBetter is a total order (NaN last, ties toward
//    the smaller index), so TopKIndices/TopKScored are well-defined on
//    NaN-laced inputs (the old comparator was UB inside partial_sort)
//    and BoundedTopK's streaming selection is scan-order independent.
//  * the DotProductFactors export contract: for every factorizable
//    registry model and every KGE backend, an exact index scan over the
//    export is bitwise ScoreAll + TopKScored.
//  * IvfIndex: bitwise-deterministic build at any thread count, exact
//    when probes == clusters, candidate-complete under exclusions.
//  * the serve path: Recommend()'s exclusion handling (the old -inf
//    sentinel dropped legitimate -inf scores and could return excluded
//    items), edge cases (k=0, k > catalog, everything excluded,
//    duplicate/out-of-range ids, NaN scores) against a brute-force
//    reference, and the router's recommend traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cf/mf.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "embed/cfkg.h"
#include "math/rng.h"
#include "math/topk.h"
#include "retrieval/factors.h"
#include "retrieval/index.h"
#include "retrieval/quantize.h"
#include "retrieval/two_stage.h"
#include "serve/router.h"
#include "serve/serve_handle.h"

// ---------------------------------------------------------------------
// Counting global operator new: the RetrievalScratch allocation pin.
// Replacement operators must have external linkage (outside any
// namespace); counting is armed per thread so concurrent test machinery
// never perturbs the count.

namespace kgrec_test_alloc {
thread_local bool g_counting = false;
thread_local size_t g_count = 0;
}  // namespace kgrec_test_alloc

void* operator new(std::size_t size) {
  if (kgrec_test_alloc::g_counting) ++kgrec_test_alloc::g_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line: once inlined into a caller, GCC pairs the free() with
// the `new` it sees there and warns -Wmismatched-new-delete.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace kgrec {
namespace {

using retrieval::BruteForceIndex;
using retrieval::ItemFactors;
using retrieval::IvfConfig;
using retrieval::IvfIndex;
using retrieval::QuantizedItemFactors;
using retrieval::ScoreKernel;
using retrieval::Sq8Query;
using retrieval::TwoStageConfig;
using retrieval::TwoStageRetriever;
using serve::RetrievalSpec;
using serve::ServeHandle;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---------------------------------------------------------------------
// Shared fitted world (one Fit per model class across all tests).

struct RetrievalWorld {
  SyntheticWorld world;
  DataSplit split;
  UserItemGraph ui_graph;

  RetrievalWorld() {
    WorldConfig config;
    config.num_users = 30;
    config.num_items = 40;
    config.avg_interactions_per_user = 8.0;
    config.item_relations = {{"genre", 5, 1, 0.9f}, {"studio", 8, 1, 0.7f}};
    config.seed = 515;
    world = GenerateWorld(config);
    Rng rng(12);
    split = RatioSplit(world.interactions, 0.25, rng);
    ui_graph = BuildUserItemGraph(world, split.train);
  }

  RecContext Context(uint64_t seed = 29) const {
    RecContext ctx;
    ctx.train = &split.train;
    ctx.item_kg = &world.item_kg;
    ctx.user_item_graph = &ui_graph;
    ctx.seed = seed;
    return ctx;
  }
};

RetrievalWorld& SharedWorld() {
  static RetrievalWorld* world = new RetrievalWorld();
  return *world;
}

void ExpectSameRanking(const std::vector<std::pair<int32_t, float>>& want,
                       const std::vector<std::pair<int32_t, float>>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].first, got[i].first) << what << " rank " << i;
    // Bitwise: NaN == NaN must pass.
    EXPECT_EQ(std::memcmp(&want[i].second, &got[i].second, sizeof(float)), 0)
        << what << " rank " << i << ": " << want[i].second << " vs "
        << got[i].second;
  }
}

/// The reference selection: rank every non-excluded (item, score) pair
/// with a full sort under RankBetter and cut at k. Deliberately naive.
std::vector<std::pair<int32_t, float>> BruteReference(
    const std::vector<float>& scores, size_t k,
    std::vector<int32_t> exclude = {}) {
  std::sort(exclude.begin(), exclude.end());
  std::vector<std::pair<int32_t, float>> pairs;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (std::binary_search(exclude.begin(), exclude.end(),
                           static_cast<int32_t>(i))) {
      continue;
    }
    pairs.emplace_back(static_cast<int32_t>(i), scores[i]);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& x, const auto& y) {
              return RankBetter(x.second, x.first, y.second, y.first);
            });
  if (pairs.size() > k) pairs.resize(k);
  return pairs;
}

// ---------------------------------------------------------------------
// RetrievalTopK: the NaN/tie ordering fix and the streaming heap.

TEST(RetrievalTopK, NanRanksLastAndTiesBreakTowardSmallerIndex) {
  // Regression for the strict-weak-ordering violation: NaN interleaved
  // with real scores used to be UB inside std::partial_sort. Under the
  // fixed total order the result is fully determined.
  const std::vector<float> scores{kNan, 2.0f, kNan, 2.0f, -kInf, 3.0f};
  const std::vector<int32_t> want_order{5, 1, 3, 4, 0, 2};
  EXPECT_EQ(TopKIndices(scores, scores.size()), want_order);

  const auto top3 = TopKScored(scores, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0], (std::pair<int32_t, float>{5, 3.0f}));
  EXPECT_EQ(top3[1], (std::pair<int32_t, float>{1, 2.0f}));
  EXPECT_EQ(top3[2], (std::pair<int32_t, float>{3, 2.0f}));

  // All-NaN input: pure index order, k respected.
  const std::vector<float> all_nan{kNan, kNan, kNan};
  EXPECT_EQ(TopKIndices(all_nan, 2), (std::vector<int32_t>{0, 1}));
}

TEST(RetrievalTopK, NanLacedVectorsAreDeterministic) {
  // Many NaN patterns, many k: the selection must never depend on
  // partial_sort's whims. Compare against the naive full-sort reference.
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> scores(37);
    for (float& s : scores) {
      const double u = rng.Uniform();
      if (u < 0.2) {
        s = kNan;
      } else if (u < 0.3) {
        s = (u < 0.25) ? kInf : -kInf;
      } else {
        // Coarse grid so duplicate scores (ties) are common.
        s = static_cast<float>(static_cast<int>(rng.Uniform(-5, 5)));
      }
    }
    for (size_t k : {size_t{0}, size_t{1}, size_t{7}, scores.size(),
                     scores.size() + 10}) {
      const auto got = TopKScored(scores, k);
      const auto want = BruteReference(scores, k);
      ExpectSameRanking(want, got, "trial " + std::to_string(trial));
    }
  }
}

TEST(RetrievalTopK, BoundedTopKMatchesTopKScoredAnyScanOrder) {
  // The streaming bounded heap must select the same unique top-K as the
  // full-vector sort, whatever order the items are fed in — the property
  // that makes blocked index scans exact.
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<float> scores(64);
    for (float& s : scores) {
      const double u = rng.Uniform();
      s = u < 0.15 ? kNan
                   : static_cast<float>(static_cast<int>(rng.Uniform(-4, 4)));
    }
    std::vector<int32_t> order(scores.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int32_t>(i);
    }
    rng.Shuffle(order);
    for (size_t k : {size_t{0}, size_t{1}, size_t{10}, scores.size() + 3}) {
      BoundedTopK top(k);
      for (int32_t id : order) top.Push(id, scores[id]);
      ExpectSameRanking(TopKScored(scores, k), top.TakeSorted(),
                        "k=" + std::to_string(k));
    }
  }
}

TEST(RetrievalTopK, BoundedTopKWouldAcceptAgreesWithPush) {
  BoundedTopK top(2);
  EXPECT_TRUE(top.WouldAccept(0, 1.0f));
  top.Push(0, 1.0f);
  top.Push(1, 2.0f);
  // Full at {2.0 @1, 1.0 @0}: a worse score is refused, a better kept.
  EXPECT_FALSE(top.WouldAccept(5, 0.5f));
  EXPECT_TRUE(top.WouldAccept(5, 1.5f));
  // Equal score, larger index than the current worst: refused (ties
  // break toward the smaller index).
  EXPECT_FALSE(top.WouldAccept(5, 1.0f));
  top.Push(5, 1.5f);
  const auto out = top.TakeSorted();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[1].first, 5);
}

// ---------------------------------------------------------------------
// RetrievalExport: the factor-export contract, zoo-wide.

TEST(RetrievalExport, RegistryQueryNamesTheFactorizableZoo) {
  const std::vector<std::string> names = FactorizableMethodNames();
  for (const char* expected :
       {"MF", "BPR-MF", "CKE", "CFKG", "ECFKG", "Hete-MF", "Hete-CF",
        "KGAT"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " should be factorizable";
  }
  // Spot-check the negative side: scores that are not one fixed kernel
  // over static vectors must not claim the export surface.
  for (const char* expected : {"KTUP", "HERec", "RippleNet", "Popularity"}) {
    EXPECT_EQ(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " must not be factorizable";
  }
  std::unique_ptr<Recommender> mf = MakeRecommender("MF");
  EXPECT_TRUE(IsFactorizable(*mf));
  std::unique_ptr<Recommender> pop = MakeRecommender("Popularity");
  EXPECT_FALSE(IsFactorizable(*pop));
}

void ExpectExportContract(Recommender& model, const std::string& name) {
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_items = world.split.train.num_items();
  const int32_t num_users = world.split.train.num_users();
  const DotProductFactors* factors = AsFactorizable(model);
  ASSERT_NE(factors, nullptr) << name;

  const ItemFactors exported = factors->ExportItemFactors();
  ASSERT_EQ(exported.items.rows(), static_cast<size_t>(num_items)) << name;
  ASSERT_EQ(exported.items.cols(), factors->factor_dim()) << name;
  EXPECT_EQ(factors->factor_users(), static_cast<size_t>(num_users)) << name;
  // The borrowed table is the exported one, in place.
  const retrieval::ItemFactorView borrowed = factors->BorrowItemFactors();
  ASSERT_NE(borrowed.data, nullptr) << name;
  ASSERT_EQ(borrowed.rows, exported.items.rows()) << name;
  ASSERT_EQ(borrowed.dim, exported.items.cols()) << name;
  EXPECT_EQ(borrowed.kernel, exported.kernel) << name;
  EXPECT_EQ(std::memcmp(borrowed.data, exported.items.data(),
                        exported.items.size() * sizeof(float)),
            0)
      << name;

  // Pointwise: kernel(query, row) must be bitwise Score().
  std::vector<float> query(factors->factor_dim());
  for (int32_t user = 0; user < num_users; ++user) {
    factors->FillUserQuery(user, query);
    for (int32_t item = 0; item < num_items; ++item) {
      const float via_export =
          retrieval::KernelScore(exported.kernel, query.data(),
                                 exported.items.Row(item),
                                 factors->factor_dim());
      const float direct = model.Score(user, item);
      ASSERT_EQ(std::memcmp(&via_export, &direct, sizeof(float)), 0)
          << name << " user " << user << " item " << item;
    }
  }

  // Selection: the exact index must be bitwise ScoreAll + TopKScored,
  // with and without exclusions.
  BruteForceIndex index(factors->ExportItemFactors());
  const std::vector<int32_t> exclude_raw{3, 3, 1, num_items + 7, -2, 0};
  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(exclude_raw, num_items);
  for (int32_t user = 0; user < std::min<int32_t>(num_users, 8); ++user) {
    const std::vector<float> scores = model.ScoreAll(user, num_items);
    factors->FillUserQuery(user, query);
    ExpectSameRanking(TopKScored(scores, 10), index.Query(query, 10),
                      name + " plain");
    ExpectSameRanking(BruteReference(scores, 10, exclude_raw),
                      index.Query(query, 10, exclude),
                      name + " excluded");
  }
}

TEST(RetrievalExport, EveryFactorizableModelScansBitwise) {
  for (const std::string& name : FactorizableMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    model->Fit(SharedWorld().Context());
    ExpectExportContract(*model, name);
  }
}

TEST(RetrievalExport, EveryKgeBackendFactorizes) {
  // CFKG over each of the five KGE backends, translation-distance and
  // bilinear alike: CFKG's Score() is defined through the fixed-relation
  // factorization, so the export must reproduce it bitwise. Agreement
  // with the backend's own triple score (ScoreBatch) is to rounding only
  // and is checked in kge_test.
  for (const char* backend :
       {"transe", "transh", "transr", "transd", "distmult"}) {
    CfkgConfig config;
    config.kge = backend;
    config.epochs = 4;
    CfkgRecommender model(config);
    model.Fit(SharedWorld().Context());
    ExpectExportContract(model, std::string("CFKG/") + backend);
  }
}

// ---------------------------------------------------------------------
// RetrievalIvf: determinism, exactness at full probe, exclusion.

ItemFactors MixtureFactors(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  const size_t clusters = 8;
  Matrix centers(clusters, dim);
  for (size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Normal());
  }
  ItemFactors factors;
  factors.kernel = ScoreKernel::kDot;
  factors.items = Matrix(n, dim);
  for (size_t i = 0; i < n; ++i) {
    const float* center = centers.Row(rng.UniformInt(clusters));
    float* row = factors.items.Row(i);
    for (size_t c = 0; c < dim; ++c) {
      row[c] = center[c] + 0.2f * static_cast<float>(rng.Normal());
    }
  }
  return factors;
}

ItemFactors CopyFactors(const ItemFactors& factors) {
  ItemFactors copy;
  copy.kernel = factors.kernel;
  copy.items = factors.items;
  return copy;
}

TEST(RetrievalIvf, BuildIsBitwiseIdenticalAtAnyThreadCount) {
  const ItemFactors factors = MixtureFactors(300, 8, 41);
  IvfConfig config;
  config.num_clusters = 12;
  config.num_probes = 3;

  IvfConfig threaded = config;
  threaded.num_threads = 4;
  const IvfIndex serial(CopyFactors(factors), config);
  const IvfIndex parallel(CopyFactors(factors), threaded);

  Rng rng(7);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(serial.Query(query, 10), parallel.Query(query, 10),
                      "threaded build trial " + std::to_string(trial));
  }
}

TEST(RetrievalIvf, FullProbeIsBitwiseBruteForce) {
  const ItemFactors factors = MixtureFactors(250, 8, 42);
  const BruteForceIndex exact(CopyFactors(factors));
  IvfConfig config;
  config.num_clusters = 10;
  config.num_probes = 10;  // probes == clusters: nothing pruned
  const IvfIndex ivf(CopyFactors(factors), config);

  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(std::vector<int32_t>{5, 17, 101}, 250);
  Rng rng(8);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 10), ivf.Query(query, 10),
                      "full probe");
    ExpectSameRanking(exact.Query(query, 10, exclude),
                      ivf.Query(query, 10, exclude), "full probe excluded");
  }
}

TEST(RetrievalIvf, ReasonableRecallAtDefaultProbes) {
  // Not the CI gate (bench/retrieval_scaling --smoke gates 0.95); this
  // is a sanity floor that catches a broken probe ranking outright.
  const ItemFactors factors = MixtureFactors(400, 8, 43);
  const BruteForceIndex exact(CopyFactors(factors));
  const IvfIndex ivf(CopyFactors(factors), IvfConfig{});

  Rng rng(9);
  std::vector<float> query(8);
  double recall = 0.0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    const auto want = exact.Query(query, 10);
    const auto got = ivf.Query(query, 10);
    size_t hits = 0;
    for (const auto& [item, score] : got) {
      for (const auto& entry : want) {
        if (item == entry.first) {
          ++hits;
          break;
        }
      }
    }
    recall += static_cast<double>(hits) / static_cast<double>(want.size());
  }
  EXPECT_GE(recall / trials, 0.7);
}

// ---------------------------------------------------------------------
// RetrievalTwoStage: candidate generation + exact re-rank.

/// A deliberately non-factorizable ranker: score is a fixed function of
/// (user, item) with no inner-product structure.
class QuirkyRanker : public Recommender {
 public:
  std::string name() const override { return "QuirkyRanker"; }
  void Fit(const RecContext&) override {}
  float Score(int32_t user, int32_t item) const override {
    return static_cast<float>(((user * 31 + item * 17) % 23) -
                              (item % 5) * 0.25f);
  }
};

TEST(RetrievalTwoStage, RequiresFactorizableCandidateModel) {
  std::shared_ptr<const Recommender> bad =
      std::shared_ptr<Recommender>(MakeRecommender("Popularity"));
  std::unique_ptr<const TwoStageRetriever> retriever;
  const Status status =
      TwoStageRetriever::Create(bad, TwoStageConfig{}, &retriever);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(RetrievalTwoStage, RanksCandidatesWithTheRankerScores) {
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_items = world.split.train.num_items();

  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(world.Context());
  std::unique_ptr<const TwoStageRetriever> retriever;
  TwoStageConfig config;
  // Candidate pool covers the entire catalog: stage 2 then re-ranks
  // everything, so the result must equal the ranker's exhaustive top-k.
  config.min_candidates = static_cast<size_t>(num_items);
  ASSERT_TRUE(
      TwoStageRetriever::Create(candidate, config, &retriever).ok());

  const QuirkyRanker ranker;
  for (int32_t user = 0; user < 6; ++user) {
    const std::vector<float> scores = ranker.ScoreAll(user, num_items);
    ExpectSameRanking(BruteReference(scores, 10),
                      retriever->Recommend(ranker, user, 10),
                      "user " + std::to_string(user));
  }

  // With a narrow pool the results are the ranker's scores over the
  // candidate model's shortlist — every returned item must carry its
  // exact ranker score.
  TwoStageConfig narrow;
  narrow.candidates_per_k = 2;
  narrow.min_candidates = 8;
  std::unique_ptr<const TwoStageRetriever> shortlist;
  ASSERT_TRUE(
      TwoStageRetriever::Create(candidate, narrow, &shortlist).ok());
  const auto out = shortlist->Recommend(ranker, 1, 4);
  ASSERT_EQ(out.size(), 4u);
  for (const auto& [item, score] : out) {
    const float direct = ranker.Score(1, item);
    EXPECT_EQ(std::memcmp(&score, &direct, sizeof(float)), 0);
  }
}

// ---------------------------------------------------------------------
// RetrievalServe: ServeHandle::Recommend edge cases and the -inf fix.

/// Scores straight out of a table — lets tests plant NaN and -inf.
class TableModel : public Recommender {
 public:
  explicit TableModel(Matrix scores) : scores_(std::move(scores)) {}
  std::string name() const override { return "TableModel"; }
  void Fit(const RecContext&) override {}
  float Score(int32_t user, int32_t item) const override {
    return scores_.At(user, item);
  }

 private:
  Matrix scores_;
};

std::shared_ptr<const ServeHandle> TableHandle(const Matrix& scores) {
  const RetrievalWorld& world = SharedWorld();
  // The handle takes the catalog size from the context; the shared
  // world's 40 items must match the table width.
  EXPECT_EQ(scores.cols(), static_cast<size_t>(40));
  return ServeHandle::Adopt(std::make_unique<TableModel>(scores),
                            world.Context(), 1);
}

Matrix FiniteScores(uint64_t seed) {
  Matrix scores(30, 40);
  Rng rng(seed);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores.data()[i] = static_cast<float>(rng.Normal());
  }
  return scores;
}

TEST(RetrievalServe, RecommendHandlesEdgeCasesAgainstReference) {
  const Matrix scores = FiniteScores(4242);
  const auto handle = TableHandle(scores);
  const int32_t n = 40;

  std::vector<float> row(scores.Row(2), scores.Row(2) + n);
  // k = 0 and k > catalog.
  EXPECT_TRUE(handle->Recommend(2, 0).empty());
  ExpectSameRanking(BruteReference(row, n + 25),
                    handle->Recommend(2, static_cast<size_t>(n) + 25),
                    "k > catalog");

  // All items excluded.
  std::vector<int32_t> all(n);
  for (int32_t i = 0; i < n; ++i) all[i] = i;
  EXPECT_TRUE(handle->Recommend(2, 10, all).empty());

  // Duplicate and out-of-range exclude ids are tolerated and the listed
  // items never come back.
  const std::vector<int32_t> messy{7, 7, -3, n + 100, 0, 7};
  const auto got = handle->Recommend(2, 10, messy);
  ExpectSameRanking(BruteReference(row, 10, messy), got, "messy excludes");
  for (const auto& [item, score] : got) {
    EXPECT_NE(item, 7);
    EXPECT_NE(item, 0);
  }
}

TEST(RetrievalServe, RecommendRanksNanLastDeterministically) {
  Matrix scores = FiniteScores(777);
  for (int32_t item = 0; item < 40; item += 3) {
    scores.At(4, item) = kNan;
  }
  const auto handle = TableHandle(scores);
  std::vector<float> row(scores.Row(4), scores.Row(4) + 40);
  ExpectSameRanking(BruteReference(row, 40), handle->Recommend(4, 40),
                    "NaN row");
}

TEST(RetrievalServe, NegativeInfinityScoresAreNotConfusedWithExclusion) {
  // Regression for the -inf sentinel scheme. A model that legitimately
  // scores items -inf must still have them ranked (last among non-NaN),
  // and excluded items must never resurface.
  Matrix scores = FiniteScores(31337);
  for (int32_t item = 0; item < 40; ++item) {
    scores.At(6, item) = -kInf;  // user 6 hates everything
  }
  scores.At(6, 13) = 1.0f;
  const auto handle = TableHandle(scores);

  // k = catalog with no exclusions: every item comes back, the -inf ones
  // in index order after item 13 — none silently dropped (the old code
  // popped every trailing -inf).
  const auto full = handle->Recommend(6, 40);
  ASSERT_EQ(full.size(), 40u);
  EXPECT_EQ(full[0].first, 13);
  EXPECT_EQ(full[1].first, 0);
  EXPECT_EQ(full[1].second, -kInf);

  // Excluding the only finite item: the result is 10 genuine -inf items,
  // 13 absent (the old code could return the excluded item here since
  // its sentinel score tied with the real -inf scores).
  const std::vector<int32_t> exclude{13};
  const auto got = handle->Recommend(6, 10, exclude);
  ASSERT_EQ(got.size(), 10u);
  for (const auto& [item, score] : got) {
    EXPECT_NE(item, 13);
    EXPECT_EQ(score, -kInf);
  }
  std::vector<float> row(scores.Row(6), scores.Row(6) + 40);
  ExpectSameRanking(BruteReference(row, 10, exclude), got, "-inf exclusion");
}

TEST(RetrievalServe, IndexedHandleIsBitwiseExhaustive) {
  // A factorizable model behind kAuto serves through the exact index;
  // kExhaustive forces the ScoreAll path. Both must agree bitwise.
  const RetrievalWorld& world = SharedWorld();
  auto fitted = std::make_unique<MfRecommender>();
  fitted->Fit(world.Context());
  auto fitted_copy = std::make_unique<MfRecommender>();
  fitted_copy->Fit(world.Context());

  const auto indexed =
      ServeHandle::Adopt(std::move(fitted), world.Context(), 1);
  EXPECT_EQ(indexed->retrieval_mode(), "exact-index");
  ASSERT_NE(indexed->index(), nullptr);

  RetrievalSpec exhaustive;
  exhaustive.mode = RetrievalSpec::Mode::kExhaustive;
  std::shared_ptr<const ServeHandle> scan;
  ASSERT_TRUE(ServeHandle::Adopt(std::move(fitted_copy), world.Context(), 1,
                                 exhaustive, &scan)
                  .ok());
  EXPECT_EQ(scan->retrieval_mode(), "exhaustive");

  const std::vector<int32_t> exclude{1, 5, 5, 200};
  for (int32_t user = 0; user < 8; ++user) {
    ExpectSameRanking(scan->Recommend(user, 10), indexed->Recommend(user, 10),
                      "indexed vs exhaustive");
    ExpectSameRanking(scan->Recommend(user, 10, exclude),
                      indexed->Recommend(user, 10, exclude),
                      "indexed vs exhaustive excluded");
  }
}

TEST(RetrievalServe, SpecFailsCleanlyOnNonFactorizableModels) {
  const RetrievalWorld& world = SharedWorld();
  RetrievalSpec exact;
  exact.mode = RetrievalSpec::Mode::kExact;
  std::shared_ptr<const ServeHandle> handle;
  const Status status =
      ServeHandle::Adopt(std::make_unique<TableModel>(FiniteScores(1)),
                         world.Context(), 1, exact, &handle);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(handle, nullptr);

  // kAuto on the same model falls back to the exhaustive path instead.
  const auto served = ServeHandle::Adopt(
      std::make_unique<TableModel>(FiniteScores(1)), world.Context(), 1);
  EXPECT_EQ(served->retrieval_mode(), "exhaustive");
}

TEST(RetrievalServe, TwoStageHandleServesRankerScores) {
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_items = world.split.train.num_items();
  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(world.Context());

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kTwoStage;
  spec.candidate_model = candidate;
  spec.two_stage.min_candidates = static_cast<size_t>(num_items);
  std::shared_ptr<const ServeHandle> handle;
  ASSERT_TRUE(ServeHandle::Adopt(std::make_unique<QuirkyRanker>(),
                                 world.Context(), 1, spec, &handle)
                  .ok());
  EXPECT_EQ(handle->retrieval_mode(), "two-stage");

  const QuirkyRanker reference;
  for (int32_t user = 0; user < 6; ++user) {
    const std::vector<float> scores = reference.ScoreAll(user, num_items);
    ExpectSameRanking(BruteReference(scores, 10), handle->Recommend(user, 10),
                      "two-stage user " + std::to_string(user));
  }
}

TEST(RetrievalServe, IndexOverAnotherCatalogIsRefused) {
  // An index over 48 items would hand a 40-item model ids past its
  // tables, so Adopt must refuse it: as a two-stage candidate and as the
  // served model's own exact index.
  const RetrievalWorld& world = SharedWorld();
  WorldConfig config;
  config.num_users = 30;
  config.num_items = 48;
  config.avg_interactions_per_user = 8.0;
  config.seed = 516;
  const SyntheticWorld wider = GenerateWorld(config);
  RecContext wider_ctx;
  wider_ctx.train = &wider.interactions;
  wider_ctx.seed = 29;
  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(wider_ctx);

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kTwoStage;
  spec.candidate_model = candidate;
  std::shared_ptr<const ServeHandle> handle;
  const Status status = ServeHandle::Adopt(
      std::make_unique<QuirkyRanker>(), world.Context(), 1, spec, &handle);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_EQ(handle, nullptr);

  auto served = std::make_unique<MfRecommender>();
  served->Fit(wider_ctx);
  RetrievalSpec exact;
  exact.mode = RetrievalSpec::Mode::kExact;
  EXPECT_EQ(ServeHandle::Adopt(std::move(served), world.Context(), 1, exact,
                               &handle)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(handle, nullptr);
}

TEST(RetrievalServe, TwoStageCandidateMustCoverTheServedUsers) {
  // An MF candidate fit on 10 users, under a ranker served for 30: stage
  // 1 would read user 25's query from past the candidate's 10-row user
  // table, so Adopt must refuse it. Same 40-item catalog, so only the
  // user range differs.
  const RetrievalWorld& world = SharedWorld();
  WorldConfig config;
  config.num_users = 10;
  config.num_items = 40;
  config.avg_interactions_per_user = 8.0;
  config.seed = 517;
  const SyntheticWorld narrow = GenerateWorld(config);
  RecContext narrow_ctx;
  narrow_ctx.train = &narrow.interactions;
  narrow_ctx.seed = 29;
  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(narrow_ctx);
  ASSERT_EQ(candidate->factor_users(), 10u);
  ASSERT_EQ(candidate->ExportItemFactors().items.rows(), 40u);
  ASSERT_EQ(world.split.train.num_users(), 30);

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kTwoStage;
  spec.candidate_model = candidate;
  std::shared_ptr<const ServeHandle> handle;
  const Status status = ServeHandle::Adopt(
      std::make_unique<QuirkyRanker>(), world.Context(), 1, spec, &handle);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_EQ(handle, nullptr);
}

// ---------------------------------------------------------------------
// RetrievalRouter: recommend traffic through the admission machinery.

TEST(RetrievalRouter, RecommendSyncMatchesDirectHandleCall) {
  const RetrievalWorld& world = SharedWorld();
  auto fitted = std::make_unique<MfRecommender>();
  fitted->Fit(world.Context());
  const auto handle = ServeHandle::Adopt(std::move(fitted), world.Context(), 7);

  serve::RouterConfig config;
  config.num_threads = 2;
  serve::Router router(config, handle);

  for (int32_t user = 0; user < 8; ++user) {
    serve::RecommendRequest request;
    request.user = user;
    request.k = 5;
    request.exclude = {2, 2, -1, 999};
    const serve::RecommendResponse response =
        router.RecommendSync(std::move(request));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.generation, 7u);
    EXPECT_GT(response.completed_ns, 0u);
    const std::vector<int32_t> exclude{2, 2, -1, 999};
    ExpectSameRanking(handle->Recommend(user, 5, exclude), response.items,
                      "router user " + std::to_string(user));
  }
}

TEST(RetrievalRouter, MixedScoreAndRecommendTrafficBothDeliver) {
  const RetrievalWorld& world = SharedWorld();
  auto fitted = std::make_unique<MfRecommender>();
  fitted->Fit(world.Context());
  const auto handle = ServeHandle::Adopt(std::move(fitted), world.Context(), 3);

  serve::RouterConfig config;
  config.num_threads = 3;
  serve::Router router(config, handle);

  std::vector<std::future<serve::ScoreResponse>> score_futures;
  std::vector<std::future<serve::RecommendResponse>> rec_futures;
  std::vector<int32_t> items{0, 1, 2, 3, 4};
  for (int round = 0; round < 20; ++round) {
    const int32_t user = round % 6;
    serve::ScoreRequest score_request;
    score_request.user = user;
    score_request.items = items;
    score_futures.push_back(router.Submit(std::move(score_request)));
    serve::RecommendRequest rec_request;
    rec_request.user = user;
    rec_request.k = 4;
    rec_futures.push_back(router.SubmitRecommend(std::move(rec_request)));
  }
  for (size_t i = 0; i < score_futures.size(); ++i) {
    const int32_t user = static_cast<int32_t>(i) % 6;
    const serve::ScoreResponse response = score_futures[i].get();
    ASSERT_TRUE(response.status.ok());
    const std::vector<float> want = handle->ScoreItems(user, items);
    ASSERT_EQ(response.scores.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(std::memcmp(&response.scores[j], &want[j], sizeof(float)), 0);
    }
    const serve::RecommendResponse rec = rec_futures[i].get();
    ASSERT_TRUE(rec.status.ok());
    ExpectSameRanking(handle->Recommend(user, 4), rec.items,
                      "mixed round " + std::to_string(i));
  }
  const serve::RouterStats stats = router.Stats();
  EXPECT_EQ(stats.accepted, 40u);
  EXPECT_EQ(stats.responses, 40u);
  EXPECT_EQ(stats.rejected, 0u);
}

// ---------------------------------------------------------------------
// RetrievalSq8: the quantized scan with exact float re-rank must return
// the float32 index's result bitwise (the DESIGN §12 gate).

retrieval::ScanSpec Sq8Spec() {
  retrieval::ScanSpec spec;
  spec.precision = retrieval::ScanPrecision::kSq8;
  return spec;
}

TEST(RetrievalSq8, BruteDotScanIsBitwiseFloat) {
  const ItemFactors factors = MixtureFactors(400, 12, 321);
  const BruteForceIndex exact(CopyFactors(factors));
  const BruteForceIndex sq8(CopyFactors(factors), Sq8Spec());
  ASSERT_NE(sq8.quantized(), nullptr);
  // 13 blocks of 32 rows x 6 dim pairs x 2 bytes: the 400 x 12 codes plus
  // the tail block's 16 padding rows.
  EXPECT_EQ(sq8.quantized()->code_bytes(), 13u * 6u * 2u * 32u);

  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(std::vector<int32_t>{3, 44, 101, 399}, 400);
  Rng rng(17);
  std::vector<float> query(12);
  for (int trial = 0; trial < 25; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    for (size_t k : {size_t{1}, size_t{10}, size_t{40}}) {
      ExpectSameRanking(exact.Query(query, k), sq8.Query(query, k),
                        "sq8 dot k=" + std::to_string(k));
      ExpectSameRanking(exact.Query(query, k, exclude),
                        sq8.Query(query, k, exclude),
                        "sq8 dot excluded k=" + std::to_string(k));
    }
  }
}

TEST(RetrievalSq8, BruteL2ScanIsBitwiseFloat) {
  ItemFactors factors = MixtureFactors(400, 12, 654);
  factors.kernel = ScoreKernel::kNegSquaredL2;
  const BruteForceIndex exact(CopyFactors(factors));
  const BruteForceIndex sq8(CopyFactors(factors), Sq8Spec());

  Rng rng(18);
  std::vector<float> query(12);
  for (int trial = 0; trial < 25; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 10), sq8.Query(query, 10),
                      "sq8 l2 trial " + std::to_string(trial));
  }
}

TEST(RetrievalSq8, NonFiniteFactorRowsStayBitwise) {
  // A few NaN/±inf item rows: the approximate scan gives them arbitrary
  // finite pool scores, the re-rank restores their true (NaN-last /
  // inf-first) placement. The widened pool absorbs the shuffling.
  ItemFactors factors = MixtureFactors(300, 8, 777);
  factors.items.At(5, 2) = kNan;
  factors.items.At(17, 0) = kInf;
  factors.items.At(42, 6) = -kInf;
  for (size_t d = 0; d < 8; ++d) factors.items.At(99, d) = kNan;
  const BruteForceIndex exact(CopyFactors(factors));
  const BruteForceIndex sq8(CopyFactors(factors), Sq8Spec());

  Rng rng(19);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 10), sq8.Query(query, 10),
                      "sq8 weird trial " + std::to_string(trial));
  }
}

TEST(RetrievalSq8, PoolCoveringCatalogIsExactByConstruction) {
  // k + rerank_slack >= catalog: the pool holds every non-excluded item,
  // so the re-rank IS the full float scan — equality is structural, not
  // empirical.
  const ItemFactors factors = MixtureFactors(60, 6, 888);
  const BruteForceIndex exact(CopyFactors(factors));
  retrieval::ScanSpec spec = Sq8Spec();
  spec.rerank_factor = 1;
  spec.rerank_slack = 60;
  const BruteForceIndex sq8(CopyFactors(factors), spec);
  Rng rng(20);
  std::vector<float> query(6);
  for (int trial = 0; trial < 10; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 25), sq8.Query(query, 25),
                      "covering pool");
  }
}

TEST(RetrievalSq8, IvfSq8FullProbeIsBitwiseBruteFloat) {
  const ItemFactors factors = MixtureFactors(250, 8, 999);
  const BruteForceIndex exact(CopyFactors(factors));
  IvfConfig config;
  config.num_clusters = 10;
  config.num_probes = 10;  // nothing pruned: sq8 rerank must equal brute
  const IvfIndex ivf(CopyFactors(factors), config, Sq8Spec());

  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(std::vector<int32_t>{5, 17, 101}, 250);
  Rng rng(21);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(exact.Query(query, 10), ivf.Query(query, 10),
                      "ivf sq8 full probe");
    ExpectSameRanking(exact.Query(query, 10, exclude),
                      ivf.Query(query, 10, exclude),
                      "ivf sq8 full probe excluded");
  }
}

TEST(RetrievalSq8, IvfSq8MatchesIvfFloatAtPartialProbes) {
  // Same probes, different scan representation: probe selection is
  // always float, so the scanned id set is identical and the re-rank
  // must reproduce the float IVF result bitwise.
  const ItemFactors factors = MixtureFactors(300, 8, 1001);
  IvfConfig config;
  config.num_clusters = 12;
  config.num_probes = 4;
  const IvfIndex f32(CopyFactors(factors), config);
  const IvfIndex sq8(CopyFactors(factors), config, Sq8Spec());
  Rng rng(22);
  std::vector<float> query(8);
  for (int trial = 0; trial < 20; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    ExpectSameRanking(f32.Query(query, 10), sq8.Query(query, 10),
                      "ivf sq8 partial probes");
  }
}

void ExpectSq8ServesBitwise(Recommender& model, const std::string& name) {
  const DotProductFactors* factors = AsFactorizable(model);
  ASSERT_NE(factors, nullptr) << name;
  const BruteForceIndex exact(factors->ExportItemFactors());
  const BruteForceIndex sq8(factors->ExportItemFactors(), Sq8Spec());
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_users = world.split.train.num_users();
  std::vector<float> query(factors->factor_dim());
  for (int32_t user = 0; user < std::min<int32_t>(num_users, 8); ++user) {
    factors->FillUserQuery(user, query);
    ExpectSameRanking(exact.Query(query, 10), sq8.Query(query, 10),
                      name + " sq8 user " + std::to_string(user));
  }
}

TEST(RetrievalSq8, EveryFactorizableModelServesBitwise) {
  for (const std::string& name : FactorizableMethodNames()) {
    std::unique_ptr<Recommender> model = MakeRecommender(name);
    model->Fit(SharedWorld().Context());
    ExpectSq8ServesBitwise(*model, name);
  }
}

TEST(RetrievalSq8, EveryKgeBackendServesBitwise) {
  for (const char* backend :
       {"transe", "transh", "transr", "transd", "distmult"}) {
    CfkgConfig config;
    config.kge = backend;
    config.epochs = 4;
    CfkgRecommender model(config);
    model.Fit(SharedWorld().Context());
    ExpectSq8ServesBitwise(model, std::string("CFKG/") + backend);
  }
}

TEST(RetrievalSq8, ServeHandleAndRouterCarryTheSq8Mode) {
  const RetrievalWorld& world = SharedWorld();
  auto fitted = std::make_unique<MfRecommender>();
  fitted->Fit(world.Context());
  auto fitted_copy = std::make_unique<MfRecommender>();
  fitted_copy->Fit(world.Context());

  const auto float_handle =
      ServeHandle::Adopt(std::move(fitted_copy), world.Context(), 1);

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kExact;
  spec.scan = Sq8Spec();
  std::shared_ptr<const ServeHandle> sq8_handle;
  ASSERT_TRUE(ServeHandle::Adopt(std::move(fitted), world.Context(), 1, spec,
                                 &sq8_handle)
                  .ok());
  EXPECT_EQ(sq8_handle->retrieval_mode(), "exact-index+sq8");
  ASSERT_NE(sq8_handle->index(), nullptr);
  EXPECT_EQ(sq8_handle->index()->precision(),
            retrieval::ScanPrecision::kSq8);

  const std::vector<int32_t> exclude{1, 5, 5, 200};
  for (int32_t user = 0; user < 8; ++user) {
    ExpectSameRanking(float_handle->Recommend(user, 10, exclude),
                      sq8_handle->Recommend(user, 10, exclude),
                      "sq8 handle user " + std::to_string(user));
  }

  // Router recommend traffic over the sq8 handle: batching and worker
  // threads change nothing.
  serve::RouterConfig router_config;
  router_config.num_threads = 2;
  serve::Router router(router_config, sq8_handle);
  for (int32_t user = 0; user < 6; ++user) {
    serve::RecommendRequest request;
    request.user = user;
    request.k = 5;
    const serve::RecommendResponse response =
        router.RecommendSync(std::move(request));
    ASSERT_TRUE(response.status.ok());
    ExpectSameRanking(sq8_handle->Recommend(user, 5), response.items,
                      "sq8 router user " + std::to_string(user));
  }
}

TEST(RetrievalSq8, TwoStageWithSq8StageOneServesRankerScores) {
  const RetrievalWorld& world = SharedWorld();
  const int32_t num_items = world.split.train.num_items();
  auto candidate = std::make_shared<MfRecommender>();
  candidate->Fit(world.Context());

  RetrievalSpec spec;
  spec.mode = RetrievalSpec::Mode::kTwoStage;
  spec.candidate_model = candidate;
  spec.two_stage.min_candidates = static_cast<size_t>(num_items);
  spec.two_stage.scan = Sq8Spec();
  std::shared_ptr<const ServeHandle> handle;
  ASSERT_TRUE(ServeHandle::Adopt(std::make_unique<QuirkyRanker>(),
                                 world.Context(), 1, spec, &handle)
                  .ok());
  EXPECT_EQ(handle->retrieval_mode(), "two-stage+sq8");

  const QuirkyRanker reference;
  for (int32_t user = 0; user < 6; ++user) {
    const std::vector<float> scores = reference.ScoreAll(user, num_items);
    ExpectSameRanking(BruteReference(scores, 10), handle->Recommend(user, 10),
                      "two-stage sq8 user " + std::to_string(user));
  }
}

// ---------------------------------------------------------------------
// RetrievalSq8Edges: the block scan's edges — partial and padded blocks,
// odd dims, non-finite rows, exclusions on block boundaries, k past the
// catalog, the zero query and the dim cap. Every case must return the
// float32 top-k bitwise, for brute force and for IVF at every probe
// count, on both kernels.

/// Four random queries and the zero query (scale 0: every row ties).
std::vector<std::vector<float>> EdgeQueries(size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> queries(4, std::vector<float>(dim));
  for (std::vector<float>& query : queries) {
    for (float& v : query) v = static_cast<float>(rng.Normal());
  }
  queries.emplace_back(dim, 0.0f);
  return queries;
}

void ExpectSq8EqualsFloat(const ItemFactors& factors,
                          const std::vector<std::vector<float>>& queries,
                          const std::vector<size_t>& ks,
                          const std::vector<int32_t>& exclude,
                          const std::string& what) {
  const BruteForceIndex f32(CopyFactors(factors));
  const BruteForceIndex sq8(CopyFactors(factors), Sq8Spec());
  IvfConfig config;
  config.num_clusters = std::min<size_t>(5, factors.items.rows());
  for (size_t probes = 1; probes <= config.num_clusters; ++probes) {
    config.num_probes = probes;
    const IvfIndex ivf_f32(CopyFactors(factors), config);
    const IvfIndex ivf_sq8(CopyFactors(factors), config, Sq8Spec());
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t k : ks) {
        const std::string tag = what + " query " + std::to_string(q) +
                                " k=" + std::to_string(k);
        if (probes == 1) {
          ExpectSameRanking(f32.Query(queries[q], k, exclude),
                            sq8.Query(queries[q], k, exclude), tag + " brute");
        }
        ExpectSameRanking(ivf_f32.Query(queries[q], k, exclude),
                          ivf_sq8.Query(queries[q], k, exclude),
                          tag + " ivf probes=" + std::to_string(probes));
        if (probes == config.num_clusters) {
          ExpectSameRanking(f32.Query(queries[q], k, exclude),
                            ivf_sq8.Query(queries[q], k, exclude),
                            tag + " ivf full probe vs brute");
        }
      }
    }
  }
}

ItemFactors KernelFactors(ScoreKernel kernel, size_t n, size_t dim,
                          uint64_t seed) {
  ItemFactors factors = MixtureFactors(n, dim, seed);
  factors.kernel = kernel;
  return factors;
}

constexpr ScoreKernel kBothKernels[] = {ScoreKernel::kDot,
                                        ScoreKernel::kNegSquaredL2};

TEST(RetrievalSq8Edges, CatalogSizesAroundTheBlock) {
  for (const ScoreKernel kernel : kBothKernels) {
    for (const size_t n : {size_t{1}, size_t{31}, size_t{32}, size_t{33},
                           size_t{1000}}) {
      ExpectSq8EqualsFloat(KernelFactors(kernel, n, 8, 40 + n),
                           EdgeQueries(8, 50 + n), {1, 10}, {},
                           std::string(retrieval::ScoreKernelName(kernel)) +
                               " n=" + std::to_string(n));
    }
  }
}

TEST(RetrievalSq8Edges, OddDims) {
  for (const ScoreKernel kernel : kBothKernels) {
    for (const size_t dim : {size_t{1}, size_t{3}, size_t{17}}) {
      ExpectSq8EqualsFloat(KernelFactors(kernel, 100, dim, 60 + dim),
                           EdgeQueries(dim, 70 + dim), {10}, {},
                           std::string(retrieval::ScoreKernelName(kernel)) +
                               " dim=" + std::to_string(dim));
    }
  }
}

TEST(RetrievalSq8Edges, NonFiniteRowsInTheTailBlock) {
  // 70 items: rows 64..69 fill the tail block of the catalog. Item 66
  // holds a NaN, 68 a -inf and 69 a +inf; the second pass excludes 66
  // and 69, which must then never be forced into the re-rank.
  for (const ScoreKernel kernel : kBothKernels) {
    ItemFactors factors = KernelFactors(kernel, 70, 6, 80);
    factors.items.At(66, 2) = kNan;
    factors.items.At(68, 0) = -kInf;
    factors.items.At(69, 5) = kInf;
    const std::string name = retrieval::ScoreKernelName(kernel);
    ExpectSq8EqualsFloat(factors, EdgeQueries(6, 81), {1, 10}, {},
                         name + " tail non-finite");
    ExpectSq8EqualsFloat(factors, EdgeQueries(6, 82), {1, 10}, {66, 69},
                         name + " tail non-finite excluded");
  }
}

TEST(RetrievalSq8Edges, ExclusionsOnBlockBoundaries) {
  const std::vector<int32_t> exclude{0, 31, 32, 63, 64, 95, 96, 99};
  for (const ScoreKernel kernel : kBothKernels) {
    ExpectSq8EqualsFloat(KernelFactors(kernel, 100, 8, 90), EdgeQueries(8, 91),
                         {1, 10, 40}, exclude,
                         std::string(retrieval::ScoreKernelName(kernel)) +
                             " boundary exclusions");
  }
}

TEST(RetrievalSq8Edges, KAtOrPastTheCatalog) {
  for (const ScoreKernel kernel : kBothKernels) {
    ExpectSq8EqualsFloat(KernelFactors(kernel, 50, 8, 100),
                         EdgeQueries(8, 101), {49, 50, 80}, {3, 40},
                         std::string(retrieval::ScoreKernelName(kernel)) +
                             " k >= catalog");
  }
}

TEST(RetrievalSq8Edges, DimCapSumsStayExactInInt32) {
  // kMaxSq8Dim dims with every column spanning [0, 1]: the codes are 0 or
  // 255 and an all-ones query weighs every dim at |W| = 16256, so an
  // all-ones row scores 512 * 16256 * 255 = 2122383360, within 1.2% of
  // 2^31. A wrapped sum would reorder the pool; the results must still
  // be the float32 ones.
  constexpr size_t dim = retrieval::kMaxSq8Dim;
  constexpr size_t n = 40;
  ItemFactors factors;
  factors.kernel = ScoreKernel::kDot;
  factors.items = Matrix(n, dim);
  Rng rng(110);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      factors.items.At(i, d) =
          i < 3 || d == 0 ? 1.0f : static_cast<float>(rng.UniformInt(2));
    }
  }
  for (size_t d = 0; d < dim; ++d) factors.items.At(n - 1, d) = 0.0f;
  std::vector<std::vector<float>> queries = EdgeQueries(dim, 111);
  queries.emplace_back(dim, 1.0f);
  queries.emplace_back(dim, -1.0f);
  ExpectSq8EqualsFloat(factors, queries, {1, 10}, {}, "dim cap");

  const BruteForceIndex sq8(CopyFactors(factors), Sq8Spec());
  Sq8Query prepared;
  sq8.quantized()->PrepareQuery(queries[5], &prepared);
  int32_t scores[QuantizedItemFactors::kBlockRows];
  sq8.quantized()->ScanBlock(0, prepared, 0, scores);
  EXPECT_EQ(scores[0], 2122383360);

  // One dim past the cap has no exact int32 sum: serving refuses it.
  EXPECT_EQ(retrieval::ValidateScan(Sq8Spec(), dim + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(retrieval::ValidateScan(Sq8Spec(), dim).ok());
  EXPECT_TRUE(retrieval::ValidateScan(retrieval::ScanSpec{}, dim + 1).ok());
}

// ---------------------------------------------------------------------
// RetrievalScratch: the hoisted per-call scratch makes steady-state
// queries allocation-free, pinned with a counting operator new.

TEST(RetrievalScratch, SteadyStateQueriesAreAllocationFree) {
  const ItemFactors factors = MixtureFactors(500, 16, 2025);
  const BruteForceIndex f32(CopyFactors(factors));
  const BruteForceIndex sq8(CopyFactors(factors), Sq8Spec());
  IvfConfig ivf_config;
  ivf_config.num_clusters = 16;
  ivf_config.num_probes = 4;
  const IvfIndex ivf(CopyFactors(factors), ivf_config, Sq8Spec());

  retrieval::SearchScratch scratch;
  std::vector<std::pair<int32_t, float>> out;
  const std::vector<int32_t> exclude =
      retrieval::SanitizeExclude(std::vector<int32_t>{3, 10, 77, 410}, 500);
  Rng rng(23);
  std::vector<float> query(16);
  for (float& q : query) q = static_cast<float>(rng.Normal());

  // Warm-up: every scratch buffer reaches steady-state capacity.
  for (int i = 0; i < 3; ++i) {
    f32.QueryInto(query, 10, exclude, scratch, &out);
    sq8.QueryInto(query, 10, exclude, scratch, &out);
    ivf.QueryInto(query, 10, exclude, scratch, &out);
  }

  kgrec_test_alloc::g_count = 0;
  kgrec_test_alloc::g_counting = true;
  for (int i = 0; i < 5; ++i) {
    f32.QueryInto(query, 10, exclude, scratch, &out);
    sq8.QueryInto(query, 10, exclude, scratch, &out);
    ivf.QueryInto(query, 10, exclude, scratch, &out);
  }
  kgrec_test_alloc::g_counting = false;
  EXPECT_EQ(kgrec_test_alloc::g_count, 0u)
      << "steady-state QueryInto allocated";
}

TEST(RetrievalScratch, QueryIntoMatchesQueryAcrossScratchReuse) {
  // One scratch reused across different indexes, kernels and k values
  // must never leak state between calls.
  ItemFactors dot_factors = MixtureFactors(200, 8, 31);
  ItemFactors l2_factors = MixtureFactors(200, 8, 32);
  l2_factors.kernel = ScoreKernel::kNegSquaredL2;
  const BruteForceIndex dot_sq8(CopyFactors(dot_factors), Sq8Spec());
  const BruteForceIndex l2_sq8(CopyFactors(l2_factors), Sq8Spec());
  const BruteForceIndex dot_f32(CopyFactors(dot_factors));

  retrieval::SearchScratch scratch;
  std::vector<std::pair<int32_t, float>> out;
  Rng rng(24);
  std::vector<float> query(8);
  for (int trial = 0; trial < 15; ++trial) {
    for (float& q : query) q = static_cast<float>(rng.Normal());
    const size_t k = 1 + static_cast<size_t>(trial);
    dot_sq8.QueryInto(query, k, {}, scratch, &out);
    ExpectSameRanking(dot_sq8.Query(query, k), out, "reuse dot");
    l2_sq8.QueryInto(query, k, {}, scratch, &out);
    ExpectSameRanking(l2_sq8.Query(query, k), out, "reuse l2");
    dot_f32.QueryInto(query, k, {}, scratch, &out);
    ExpectSameRanking(dot_f32.Query(query, k), out, "reuse f32");
  }
}

}  // namespace
}  // namespace kgrec
