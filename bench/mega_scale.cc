// Million-scale world build + peak-RSS trajectory bench and CI gate.
//
//   ./mega_scale          full tier: MegaPreset() (10^6 users, 2x10^5
//                         items, 10^7 facts) streamed into the compacted
//                         substrate, KG finalize + triple release, MF
//                         fit, brute-force + IVF + SQ8 index build and
//                         queries. Gates on the documented peak-RSS
//                         budget for the tier, on the SQ8 top-K being
//                         bitwise the float32 top-K at catalog scale,
//                         and on the SQ8 scan bytes being <= 0.30x the
//                         float factor matrix (the 4x-smaller-factors
//                         claim, measured not asserted). The SQ8-vs-
//                         float throughput ratio is recorded as
//                         informational (this container is one core).
//   ./mega_scale --smoke  CI gate (tier1): MegaLitePreset(); asserts
//                         (a) the streamed drop-names world is
//                             structurally identical to the
//                             materializing named reference path
//                             (triples, interactions, CSR adjacency),
//                         (b) MF Fit / ScoreItems / index top-K on the
//                             compacted substrate are bitwise equal to
//                             the reference path — including the
//                             ScanPrecision::kSq8 index, whose top-K
//                             must match the float32 index bitwise,
//                         (c) peak RSS stays within the smoke budget.
//
// Every stage records its wall seconds, current/peak RSS and logical
// substrate bytes under "<stage>/" keys in BENCH_mega.json — the memory
// trajectory the compaction work is judged by. Compare runs with tools/bench_diff.py.
// Exits non-zero on any gate failure.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "cf/mf.h"
#include "core/mem_stats.h"
#include "data/mega.h"
#include "retrieval/factors.h"
#include "retrieval/index.h"

namespace {

using Clock = std::chrono::steady_clock;
using kgrec::EntityId;
using kgrec::InteractionDataset;
using kgrec::KnowledgeGraph;
using kgrec::MegaWorld;
using kgrec::MegaWorldConfig;
using kgrec::MemoryVisitor;
using kgrec::MfConfig;
using kgrec::MfRecommender;
using kgrec::RecContext;
using kgrec::retrieval::BruteForceIndex;
using kgrec::retrieval::IvfConfig;
using kgrec::retrieval::IvfIndex;
using kgrec::retrieval::ScanPrecision;
using kgrec::retrieval::ScanSpec;

ScanSpec Sq8Spec() {
  ScanSpec spec;
  spec.precision = ScanPrecision::kSq8;
  return spec;
}

/// SQ8 scan working-set bytes must stay at or under 0.30x the float
/// factor matrix: codes are exactly 0.25x, and the grid vectors plus
/// rounding headroom must not eat the win. A hard gate — if the
/// quantized layout ever grows past this, the bench fails.
constexpr double kSq8BytesRatioBudget = 0.30;

// Peak-RSS budgets (bytes). These are deliberate regression tripwires,
// not aspirations: the measured peak of the compacted substrate plus
// generous headroom for allocator noise and toolchain drift. Raising
// one is a reviewed decision — see DESIGN.md "Memory model" for the
// measured baselines behind each number (full tier: ~629 MiB peak,
// reached during the MF fit; smoke: ~6 MiB).
constexpr size_t kMiB = size_t{1} << 20;
constexpr size_t kPeakRssBudgetFull = size_t{1024} * kMiB;
constexpr size_t kPeakRssBudgetSmoke = size_t{64} * kMiB;

constexpr size_t kTopK = 10;

/// Logical bytes of the data substrate (KG + interaction log + indices).
size_t SubstrateBytes(const KnowledgeGraph& kg,
                      const InteractionDataset& interactions) {
  MemoryVisitor visitor;
  kg.MemoryUse(visitor);
  interactions.MemoryUse(visitor);
  return visitor.total();
}

/// The memory trajectory: every stage records its wall time, current
/// and peak RSS, and the substrate's logical bytes (`logical_bytes`,
/// measured before the stage runs) under "<stage>/" in the report.
class Trajectory {
 public:
  explicit Trajectory(kgrec::bench::Report* report) : report_(report) {}

  /// Runs `body`, then records the stage's trajectory point.
  template <typename Body>
  void Stage(const std::string& name, size_t logical_bytes, Body&& body) {
    const auto start = Clock::now();
    body();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const size_t current_rss = kgrec::CurrentRssBytes();
    const size_t peak_rss = kgrec::PeakRssBytes();
    std::printf("%-24s %8.2fs  rss %7.1f MiB  peak %7.1f MiB  logical %7.1f MiB\n",
                name.c_str(), seconds,
                static_cast<double>(current_rss) / kMiB,
                static_cast<double>(peak_rss) / kMiB,
                static_cast<double>(logical_bytes) / kMiB);
    report_->Timing(name + "/seconds", seconds);
    report_->Rss(name + "/current_rss_bytes", current_rss);
    report_->Rss(name + "/peak_rss_bytes", peak_rss);
    report_->Metric(name + "/logical_bytes", logical_bytes);
  }

 private:
  kgrec::bench::Report* report_;
};

/// Records the end-of-run peak RSS and gates it on `budget`.
void GatePeakRss(size_t budget, kgrec::bench::Report* report) {
  const size_t peak = kgrec::PeakRssBytes();
  if (peak > budget) {
    std::fprintf(stderr, "FAIL peak RSS %.1f MiB > budget %.1f MiB\n",
                 static_cast<double>(peak) / kMiB,
                 static_cast<double>(budget) / kMiB);
  }
  report->Rss("peak_rss_bytes", peak);
  report->Metric("rss_budget_bytes", budget);
  report->Gate("peak_rss_within_budget", peak <= budget);
}

bool BitwiseEqual(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Structural equality of two worlds: entity/relation counts, the raw
/// triple list, the interaction log, and every CSR adjacency row. Both
/// graphs must already be finalized.
bool SameWorld(const MegaWorld& a, const MegaWorld& b) {
  if (a.kg.num_entities() != b.kg.num_entities() ||
      a.kg.num_relations() != b.kg.num_relations() ||
      a.kg.num_triples() != b.kg.num_triples()) {
    std::fprintf(stderr, "FAIL world: KG shape differs\n");
    return false;
  }
  if (!(a.kg.triples() == b.kg.triples())) {
    std::fprintf(stderr, "FAIL world: triple lists differ\n");
    return false;
  }
  const auto& xa = a.interactions.interactions();
  const auto& xb = b.interactions.interactions();
  if (xa.size() != xb.size()) {
    std::fprintf(stderr, "FAIL world: interaction counts differ\n");
    return false;
  }
  for (size_t i = 0; i < xa.size(); ++i) {
    if (xa[i].user != xb[i].user || xa[i].item != xb[i].item) {
      std::fprintf(stderr, "FAIL world: interaction %zu differs\n", i);
      return false;
    }
  }
  for (size_t e = 0; e < a.kg.num_entities(); ++e) {
    const EntityId id = static_cast<EntityId>(e);
    const size_t degree = a.kg.OutDegree(id);
    if (degree != b.kg.OutDegree(id) ||
        (degree > 0 &&
         std::memcmp(a.kg.OutEdges(id), b.kg.OutEdges(id),
                     degree * sizeof(kgrec::Edge)) != 0)) {
      std::fprintf(stderr, "FAIL world: CSR row %zu differs\n", e);
      return false;
    }
  }
  return true;
}

MfConfig SmokeMfConfig() {
  MfConfig config;
  config.dim = 16;
  config.epochs = 5;
  // No weight decay, for the same reason as the full tier (see RunFull):
  // Adagrad's dense decay collapses cold embeddings toward zero, and the
  // retrieval gates should run over a healthy factor table.
  config.l2 = 0.0f;
  return config;
}

/// Fits MF on one world and returns the trained model.
MfRecommender FitMf(const MegaWorld& world, const MfConfig& config) {
  MfRecommender model(config);
  RecContext context;
  context.train = &world.interactions;
  context.item_kg = &world.kg;
  context.seed = 17;
  model.Fit(context);
  return model;
}

/// The compacted-vs-reference bitwise gate (smoke mode): same factors,
/// same per-user scores, same exact and approximate top-K — and the SQ8
/// index's top-K bitwise equal to the float32 index's (*sq8_ok).
bool SameModel(const MfRecommender& a, const MfRecommender& b,
               int32_t num_users, int32_t num_items, bool* sq8_ok) {
  const kgrec::retrieval::ItemFactors fa = a.ExportItemFactors();
  const kgrec::retrieval::ItemFactors fb = b.ExportItemFactors();
  if (!BitwiseEqual({fa.items.data(), fa.items.size()},
                    {fb.items.data(), fb.items.size()})) {
    std::fprintf(stderr, "FAIL model: item factors diverge\n");
    return false;
  }
  std::vector<int32_t> all_items(num_items);
  for (int32_t j = 0; j < num_items; ++j) all_items[j] = j;
  const int32_t user_step = std::max(1, num_users / 64);
  BruteForceIndex index_a(a.ExportItemFactors());
  BruteForceIndex index_b(b.ExportItemFactors());
  BruteForceIndex sq8_a(a.ExportItemFactors(), Sq8Spec());
  IvfConfig ivf_config;
  IvfIndex ivf_a(a.ExportItemFactors(), ivf_config);
  IvfIndex ivf_b(b.ExportItemFactors(), ivf_config);
  *sq8_ok = true;
  std::vector<float> qa(a.factor_dim()), qb(b.factor_dim());
  for (int32_t u = 0; u < num_users; u += user_step) {
    if (!BitwiseEqual(a.ScoreItems(u, all_items),
                      b.ScoreItems(u, all_items))) {
      std::fprintf(stderr, "FAIL model: ScoreItems(%d) diverges\n", u);
      return false;
    }
    a.FillUserQuery(u, qa);
    b.FillUserQuery(u, qb);
    if (!BitwiseEqual(qa, qb)) {
      std::fprintf(stderr, "FAIL model: user query %d diverges\n", u);
      return false;
    }
    const auto top_a = index_a.Query(qa, kTopK);
    const auto top_b = index_b.Query(qb, kTopK);
    const auto ivf_top_a = ivf_a.Query(qa, kTopK);
    const auto ivf_top_b = ivf_b.Query(qb, kTopK);
    const auto same = [](const std::vector<std::pair<int32_t, float>>& x,
                         const std::vector<std::pair<int32_t, float>>& y) {
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first ||
            std::memcmp(&x[i].second, &y[i].second, sizeof(float)) != 0) {
          return false;
        }
      }
      return true;
    };
    if (!same(top_a, top_b) || !same(ivf_top_a, ivf_top_b)) {
      std::fprintf(stderr, "FAIL model: top-%zu for user %d diverges\n",
                   kTopK, u);
      return false;
    }
    if (!same(sq8_a.Query(qa, kTopK), top_a)) {
      std::fprintf(stderr,
                   "FAIL model: SQ8 top-%zu for user %d is not bitwise "
                   "the float32 top-%zu\n",
                   kTopK, u, kTopK);
      *sq8_ok = false;
      return false;
    }
  }
  return true;
}

int RunSmoke() {
  kgrec::bench::Report report("mega", /*smoke=*/true);
  Trajectory traj(&report);
  MegaWorld streamed;
  MegaWorld reference;
  traj.Stage("generate_streamed", 0, [&] {
    streamed = kgrec::GenerateMegaWorld(kgrec::MegaLitePreset());
  });
  traj.Stage("generate_reference", 0, [&] {
    MegaWorldConfig named = kgrec::MegaLitePreset();
    named.drop_names = false;  // fully uncompacted: named + materialized
    reference = kgrec::GenerateMegaWorldReference(named);
  });
  bool world_ok = false;
  traj.Stage("finalize_compare",
             SubstrateBytes(streamed.kg, streamed.interactions), [&] {
               streamed.kg.Finalize();
               reference.kg.Finalize();
               world_ok = SameWorld(streamed, reference);
             });
  bool model_ok = false;
  bool sq8_ok = false;
  traj.Stage("mf_fit_compare",
             SubstrateBytes(streamed.kg, streamed.interactions), [&] {
               const MfRecommender a = FitMf(streamed, SmokeMfConfig());
               const MfRecommender b = FitMf(reference, SmokeMfConfig());
               model_ok = SameModel(a, b, streamed.config.num_users,
                                    streamed.config.num_items, &sq8_ok);
             });

  report.Gate("world_bitwise", world_ok);
  report.Gate("model_bitwise", model_ok);
  report.Gate("sq8_bitwise", sq8_ok);
  GatePeakRss(kPeakRssBudgetSmoke, &report);
  return report.Finish();
}

int RunFull() {
  kgrec::bench::Report report("mega", /*smoke=*/false);
  Trajectory traj(&report);
  MegaWorld world;
  traj.Stage("generate_streamed", 0, [&] {
    world = kgrec::GenerateMegaWorld(kgrec::MegaPreset());
  });
  traj.Stage("kg_finalize", SubstrateBytes(world.kg, world.interactions),
             [&] { world.kg.Finalize(); });
  traj.Stage("kg_release_triples",
             SubstrateBytes(world.kg, world.interactions),
             [&] { world.kg.ReleaseTriples(); });
  MfConfig mf_config;
  mf_config.dim = 16;
  mf_config.epochs = 2;
  // The dense Adagrad step walks every parameter (19.2M floats here) per
  // batch; at the default batch_size=256 that is ~78k full-table sweeps
  // — hours on one core. Large batches amortize the dense step to a
  // tractable count without changing what the stage measures (the
  // substrate's memory trajectory, not MF quality).
  mf_config.batch_size = 1 << 16;
  // No weight decay: Adagrad's dense decay term shrinks every
  // *untouched* embedding by ~lr per step (the decay gradient is
  // self-normalized by its own accumulator), and at this scale most of
  // the 200k items are cold in any given batch — two epochs collapse
  // the table from init 0.1 down to 1e-17..1e-5, a 12-decade spread
  // that makes the retrieval stage an accidental degenerate-input
  // stress test instead of a perf measurement over a healthy
  // embedding table.
  mf_config.l2 = 0.0f;
  MfRecommender model(mf_config);
  traj.Stage("mf_fit", SubstrateBytes(world.kg, world.interactions), [&] {
    RecContext context;
    context.train = &world.interactions;
    context.item_kg = &world.kg;
    context.seed = 17;
    model.Fit(context);
  });
  std::unique_ptr<BruteForceIndex> brute;
  traj.Stage("brute_index_build",
             SubstrateBytes(world.kg, world.interactions), [&] {
               brute = std::make_unique<BruteForceIndex>(
                   model.ExportItemFactors());
             });
  std::unique_ptr<IvfIndex> ivf;
  traj.Stage("ivf_index_build",
             SubstrateBytes(world.kg, world.interactions), [&] {
               ivf = std::make_unique<IvfIndex>(model.ExportItemFactors(),
                                                IvfConfig{});
             });
  std::unique_ptr<BruteForceIndex> sq8;
  traj.Stage("sq8_index_build",
             SubstrateBytes(world.kg, world.interactions), [&] {
               sq8 = std::make_unique<BruteForceIndex>(
                   model.ExportItemFactors(), Sq8Spec());
             });

  // The 4x-smaller-factors claim, measured at catalog scale: bytes the
  // SQ8 scan keeps resident (codes + grid) vs the float factor matrix.
  const size_t factor_bytes =
      brute->num_items() * brute->dim() * sizeof(float);
  const size_t sq8_bytes =
      sq8->quantized()->code_bytes() + sq8->quantized()->grid_bytes();
  const double sq8_bytes_ratio =
      factor_bytes > 0
          ? static_cast<double>(sq8_bytes) / static_cast<double>(factor_bytes)
          : 0.0;
  const bool sq8_bytes_ok = sq8_bytes_ratio <= kSq8BytesRatioBudget;
  report.Gate("sq8_bytes_ratio_within_budget", sq8_bytes_ok);
  report.Metric("factor_bytes", factor_bytes);
  report.Metric("sq8_code_bytes", sq8->quantized()->code_bytes());
  report.Metric("sq8_grid_bytes", sq8->quantized()->grid_bytes());
  report.Metric("sq8_bytes_ratio", sq8_bytes_ratio);
  report.Metric("sq8_bytes_ratio_budget", kSq8BytesRatioBudget);
  if (!sq8_bytes_ok) {
    std::fprintf(stderr,
                 "FAIL sq8 bytes ratio %.3f > budget %.2f "
                 "(%zu sq8 bytes vs %zu float bytes)\n",
                 sq8_bytes_ratio, kSq8BytesRatioBudget, sq8_bytes,
                 factor_bytes);
  }

  constexpr int32_t kQueryUsers = 512;
  double brute_qps = 0.0, ivf_qps = 0.0, sq8_qps = 0.0;
  bool sq8_bitwise = true;
  traj.Stage("queries", SubstrateBytes(world.kg, world.interactions), [&] {
    std::vector<float> query(model.factor_dim());
    const int32_t step =
        std::max(1, world.config.num_users / kQueryUsers);
    auto time_index = [&](const kgrec::retrieval::ItemIndex& index) {
      const auto start = Clock::now();
      size_t queries = 0;
      for (int32_t u = 0; u < world.config.num_users; u += step) {
        model.FillUserQuery(u, query);
        index.Query(query, kTopK);
        ++queries;
      }
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      return seconds > 0.0 ? queries / seconds : 0.0;
    };
    brute_qps = time_index(*brute);
    ivf_qps = time_index(*ivf);
    sq8_qps = time_index(*sq8);
    // Bitwise gate at catalog scale: sampled users, full top-K compare.
    const int32_t check_step =
        std::max(1, world.config.num_users / 64);
    for (int32_t u = 0; u < world.config.num_users; u += check_step) {
      model.FillUserQuery(u, query);
      const auto exact = brute->Query(query, kTopK);
      const auto approx = sq8->Query(query, kTopK);
      if (exact.size() != approx.size() ||
          std::memcmp(exact.data(), approx.data(),
                      exact.size() * sizeof(exact[0])) != 0) {
        std::fprintf(stderr,
                     "FAIL sq8 top-%zu for user %d is not bitwise the "
                     "float32 top-%zu\n",
                     kTopK, u, kTopK);
        sq8_bitwise = false;
        break;
      }
    }
  });

  report.Gate("sq8_bitwise", sq8_bitwise);

  // Per-structure logical-byte breakdown for the JSON artifact.
  MemoryVisitor visitor;
  world.kg.MemoryUse(visitor);
  world.interactions.MemoryUse(visitor);
  for (const auto& [name, bytes] : visitor.entries()) {
    report.Metric(name + "/bytes", bytes);
  }
  report.Metric("num_users", world.config.num_users);
  report.Metric("num_items", world.config.num_items);
  report.Metric("num_facts", world.kg.num_triples());
  report.Metric("num_interactions", world.interactions.num_interactions());

  // sq8_speedup is informational: at dim 16 the float scan is still
  // cache-resident here, so the two run at parity and the 4x byte
  // shrink is a capacity win, not a latency one. The bytes ratio and
  // the bitwise equality are the hard gates.
  const double sq8_speedup = brute_qps > 0.0 ? sq8_qps / brute_qps : 0.0;
  report.Timing("brute_qps", brute_qps);
  report.Timing("ivf_qps", ivf_qps);
  report.Timing("sq8_brute_qps", sq8_qps);
  report.Timing("sq8_speedup", sq8_speedup);
  GatePeakRss(kPeakRssBudgetFull, &report);
  std::printf("\nbrute %.0f q/s  ivf %.0f q/s  sq8 %.0f q/s "
              "(%.2fx brute, %.3fx bytes)\n",
              brute_qps, ivf_qps, sq8_qps, sq8_speedup, sq8_bytes_ratio);
  return report.Finish();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  return smoke ? RunSmoke() : RunFull();
}
