// Retrieval-layer scaling bench and CI gate.
//
//   ./retrieval_scaling          full sweep: catalog size × probe count,
//                                recall@10 vs speedup over the exact scan
//   ./retrieval_scaling --smoke  CI gate (tier1): tiny sweep, asserts
//                                (a) BruteForceIndex top-K is bitwise
//                                    ScoreAll + TopKScored for every
//                                    factorizable registry model,
//                                (b) IvfIndex recall@10 >= 0.95 at the
//                                    default probe setting,
//                                (c) probes == clusters is bitwise the
//                                    brute-force result,
//                                (d) the SQ8 quantized scan + exact
//                                    re-rank is bitwise the float32 scan
//                                    for every factorizable model AND
//                                    the dispatched int8 kernels agree
//                                    with the scalar reference on every
//                                    candidate-pool score (DESIGN §12).
//
// Two parts. Part 1 fits every factorizable model on a small world and
// checks its exact index against the exhaustive reference — the
// export-contract gate (DESIGN §10) — then repeats the comparison with a
// ScanPrecision::kSq8 index and cross-checks the integer scan scores
// against kernels::ref. Part 2 sweeps synthetic Gaussian embeddings
// (retrieval cost depends only on catalog geometry, not on how the
// factors were trained) and reports exact-scan vs SQ8-scan vs IVF QPS,
// latency percentiles, measured recall, and the SQ8 pool's
// recall-before-rerank (how often the quantized scan alone already finds
// the true top-10 — the margin the re-rank consumes).
//
// Emits machine-readable BENCH_retrieval.json into the working directory.
// Exits non-zero on any gate failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/recommender.h"
#include "core/registry.h"
#include "data/presets.h"
#include "math/kernels.h"
#include "math/rng.h"
#include "math/topk.h"
#include "retrieval/factors.h"
#include "retrieval/index.h"
#include "retrieval/quantize.h"

namespace {

using Clock = std::chrono::steady_clock;
using kgrec::retrieval::BruteForceIndex;
using kgrec::retrieval::ItemFactors;
using kgrec::retrieval::IvfConfig;
using kgrec::retrieval::IvfIndex;
using kgrec::retrieval::QuantizedItemFactors;
using kgrec::retrieval::ScanPrecision;
using kgrec::retrieval::ScanSpec;
using kgrec::retrieval::ScoreKernel;
using kgrec::retrieval::Sq8Query;

constexpr size_t kK = 10;

ScanSpec Sq8Spec() {
  ScanSpec spec;
  spec.precision = ScanPrecision::kSq8;
  return spec;  // default rerank_factor / rerank_slack — what serving uses
}

/// Integer scan scores of every item in `quantized` for `query` (indexed
/// by item id), block by block through either the dispatched block kernel
/// (simd == true) or the scalar reference — the kernels the serve-path
/// scan (QuantizedItemFactors::ScanBlock) calls. Bitwise equality of the
/// two is the cross-build guarantee: integer accumulation has no
/// fold-order sensitivity, so scalar, SSE2 and AVX2 builds must produce
/// identical candidate pools.
void IntegerScanScores(const QuantizedItemFactors& quantized,
                       const Sq8Query& q8, bool simd,
                       std::vector<int32_t>* out) {
  namespace kernels = kgrec::kernels;
  const bool dot = quantized.kernel() == ScoreKernel::kDot;
  const int16_t* operand = dot ? q8.weights.data() : q8.codes.data();
  const auto kernel = dot ? (simd ? kernels::DotBlockI8
                                  : kernels::ref::DotBlockI8)
                          : (simd ? kernels::NegSquaredDistanceBlockI8
                                  : kernels::ref::NegSquaredDistanceBlockI8);
  out->assign(quantized.num_items(), 0);
  int32_t scores[QuantizedItemFactors::kBlockRows];
  for (size_t b = 0; b < quantized.cell_begin(quantized.num_cells()); ++b) {
    kernel(operand, quantized.block_codes(b), quantized.dim_pairs(),
           std::numeric_limits<int32_t>::min(), scores);
    for (size_t r = 0; r < QuantizedItemFactors::kBlockRows; ++r) {
      if ((quantized.live_rows(b) >> r) & 1u) {
        (*out)[quantized.ItemAt(b, r)] = scores[r];
      }
    }
  }
}

bool SameRanking(const std::vector<std::pair<int32_t, float>>& a,
                 const std::vector<std::pair<int32_t, float>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise: NaN == NaN must pass, +0 vs -0 must fail.
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double RecallAt(const std::vector<std::pair<int32_t, float>>& exact,
                const std::vector<std::pair<int32_t, float>>& approx) {
  if (exact.empty()) return 1.0;
  size_t hit = 0;
  for (const auto& [item, score] : approx) {
    for (const auto& [ref_item, ref_score] : exact) {
      if (item == ref_item) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(index, sorted_us.size() - 1)];
}

struct QueryTiming {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Runs every query through `index` and times each Query() call.
QueryTiming TimeQueries(const kgrec::retrieval::ItemIndex& index,
                        const kgrec::Matrix& queries, size_t k,
                        std::vector<std::vector<std::pair<int32_t, float>>>*
                            results) {
  results->clear();
  results->reserve(queries.rows());
  std::vector<double> lat_us;
  lat_us.reserve(queries.rows());
  const auto start = Clock::now();
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto t0 = Clock::now();
    results->push_back(index.Query(
        std::span<const float>(queries.Row(q), queries.cols()), k));
    const auto t1 = Clock::now();
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  QueryTiming timing;
  timing.qps = wall > 0 ? static_cast<double>(queries.rows()) / wall : 0.0;
  std::sort(lat_us.begin(), lat_us.end());
  timing.p50_us = Percentile(lat_us, 0.50);
  timing.p99_us = Percentile(lat_us, 0.99);
  return timing;
}

/// Part 1: for each factorizable registry model, fit on the shared world
/// and gate (a) BruteForceIndex::Query == ScoreAll + TopKScored bitwise,
/// (b) the SQ8 index == the float32 index bitwise, and (c) the
/// dispatched integer kernels == the scalar reference on every scan
/// score.
void RunModelGate(const kgrec::bench::Workbench& bench,
                  kgrec::bench::Report* report) {
  const kgrec::RecContext ctx = bench.Context(17);
  const int32_t num_items = ctx.train->num_items();
  const int32_t num_users = ctx.train->num_users();

  std::printf("%-10s %-14s %-8s %-8s %-8s %10s\n", "model", "kernel",
              "bitwise", "sq8", "int8=ref", "scan QPS");
  kgrec::bench::PrintRule(64);
  for (const std::string& name : kgrec::FactorizableMethodNames()) {
    std::unique_ptr<kgrec::Recommender> model = kgrec::MakeRecommender(name);
    model->Fit(ctx);
    const kgrec::DotProductFactors* factors = kgrec::AsFactorizable(*model);
    BruteForceIndex index(factors->ExportItemFactors());
    BruteForceIndex sq8_index(factors->ExportItemFactors(), Sq8Spec());
    const QuantizedItemFactors* quantized = sq8_index.quantized();

    bool bitwise = index.num_items() == static_cast<size_t>(num_items);
    bool sq8_bitwise = true;
    bool int8_matches_ref = true;
    const int32_t probe_users = std::min<int32_t>(num_users, 32);
    std::vector<float> query(factors->factor_dim());
    Sq8Query q8;
    std::vector<int32_t> dispatched_scores;
    std::vector<int32_t> ref_scores;
    const auto start = Clock::now();
    for (int32_t user = 0; user < probe_users; ++user) {
      const std::vector<float> scores = model->ScoreAll(user, num_items);
      const auto reference = kgrec::TopKScored(scores, kK);
      factors->FillUserQuery(user, query);
      const auto got = index.Query(query, kK);
      if (!SameRanking(reference, got)) {
        bitwise = false;
        std::fprintf(stderr,
                     "FAIL %s user %d: exact index != ScoreAll+TopKScored\n",
                     name.c_str(), user);
        break;
      }
      if (!SameRanking(got, sq8_index.Query(query, kK))) {
        sq8_bitwise = false;
        std::fprintf(stderr,
                     "FAIL %s user %d: SQ8 index != float32 index\n",
                     name.c_str(), user);
        break;
      }
      quantized->PrepareQuery(query, &q8);
      IntegerScanScores(*quantized, q8, /*simd=*/true, &dispatched_scores);
      IntegerScanScores(*quantized, q8, /*simd=*/false, &ref_scores);
      if (dispatched_scores != ref_scores) {
        int8_matches_ref = false;
        std::fprintf(stderr,
                     "FAIL %s user %d: dispatched int8 kernels != scalar "
                     "reference\n",
                     name.c_str(), user);
        break;
      }
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double qps =
        wall > 0 ? static_cast<double>(probe_users) / wall : 0.0;
    const char* kernel =
        kgrec::retrieval::ScoreKernelName(factors->factor_kernel());
    std::printf("%-10s %-14s %-8s %-8s %-8s %10.0f\n", name.c_str(), kernel,
                bitwise ? "yes" : "NO", sq8_bitwise ? "yes" : "NO",
                int8_matches_ref ? "yes" : "NO", qps);
    report->Gate(name + "/bitwise", bitwise);
    report->Gate(name + "/sq8_bitwise", sq8_bitwise);
    report->Gate(name + "/int8_kernels_bitwise", int8_matches_ref);
    report->Metric(name + "/factor_bytes",
                   index.num_items() * index.dim() * sizeof(float));
    report->Metric(name + "/sq8_code_bytes", quantized->code_bytes());
    report->Metric(name + "/candidate_pool", Sq8Spec().PoolSize(kK));
  }
}

/// Records one sweep row's query timings under "<row>/".
void RecordTiming(const std::string& row, const QueryTiming& timing,
                  kgrec::bench::Report* report) {
  report->Timing(row + "/qps", timing.qps);
  report->Timing(row + "/p50_us", timing.p50_us);
  report->Timing(row + "/p99_us", timing.p99_us);
}

/// Part 2: synthetic-embedding sweep, catalog size × probe count. Returns
/// the lowest recall@10 at the default probe setting across catalogs.
double RunSweep(const std::vector<size_t>& catalog_sizes,
                size_t num_queries, bool smoke,
                kgrec::bench::Report* report) {
  constexpr size_t kDim = 32;
  double default_probe_recall = 1.0;

  std::printf("\n%-9s %-9s %-8s %-7s %10s %9s %9s %9s\n", "catalog",
              "clusters", "probes", "recall", "QPS", "p50 us", "p99 us",
              "speedup");
  kgrec::bench::PrintRule(78);
  for (size_t n : catalog_sizes) {
    kgrec::Rng rng(kgrec::Rng(99).Fork(n).NextUint64());
    // Trained item embeddings cluster (the synthetic worlds build items
    // from latent attribute clusters; real catalogs from genres/brands),
    // so the sweep geometry is a Gaussian mixture, not i.i.d. noise —
    // i.i.d. Gaussian is the adversarial no-structure case where *no*
    // cluster-pruned index can work.
    const size_t gen_clusters = std::max<size_t>(8, n / 40);
    kgrec::Matrix centers(gen_clusters, kDim);
    for (size_t i = 0; i < centers.size(); ++i) {
      centers.data()[i] = static_cast<float>(rng.Normal());
    }
    ItemFactors factors;
    factors.kernel = ScoreKernel::kDot;
    factors.items = kgrec::Matrix(n, kDim);
    for (size_t i = 0; i < n; ++i) {
      const float* center = centers.Row(rng.UniformInt(gen_clusters));
      float* row = factors.items.Row(i);
      for (size_t c = 0; c < kDim; ++c) {
        row[c] = center[c] + 0.15f * static_cast<float>(rng.Normal());
      }
    }
    kgrec::Matrix queries(num_queries, kDim);
    for (size_t i = 0; i < queries.size(); ++i) {
      queries.data()[i] = static_cast<float>(rng.Normal());
    }

    ItemFactors exact_copy;
    exact_copy.kernel = factors.kernel;
    exact_copy.items = factors.items;
    BruteForceIndex exact(std::move(exact_copy));
    std::vector<std::vector<std::pair<int32_t, float>>> exact_results;
    const QueryTiming exact_timing =
        TimeQueries(exact, queries, kK, &exact_results);
    std::printf("%-9zu %-9s %-8s %-7s %10.0f %9.1f %9.1f %9s\n", n, "-",
                "exact", "1.000", exact_timing.qps, exact_timing.p50_us,
                exact_timing.p99_us, "1.0x");
    const std::string catalog = std::to_string(n);
    RecordTiming(catalog + "/brute-force", exact_timing, report);

    // SQ8 leg: quantized scan + exact re-rank over the same catalog. The
    // final ranking must be bitwise the float scan's (gate); the recall
    // the pool has *before* the re-rank is reported so the over-fetch
    // margin is visible, not assumed.
    {
      ItemFactors sq8_copy;
      sq8_copy.kernel = factors.kernel;
      sq8_copy.items = factors.items;
      BruteForceIndex sq8(std::move(sq8_copy), Sq8Spec());
      const QuantizedItemFactors* quantized = sq8.quantized();
      std::vector<std::vector<std::pair<int32_t, float>>> sq8_results;
      const QueryTiming sq8_timing =
          TimeQueries(sq8, queries, kK, &sq8_results);

      const size_t pool_size = Sq8Spec().PoolSize(kK);
      bool sq8_bitwise = true;
      double pre_recall = 0.0;
      Sq8Query q8;
      std::vector<int32_t> iscores;
      kgrec::BoundedTopK pool(pool_size);
      for (size_t q = 0; q < exact_results.size(); ++q) {
        sq8_bitwise = sq8_bitwise &&
                      SameRanking(exact_results[q], sq8_results[q]);
        quantized->PrepareQuery(
            std::span<const float>(queries.Row(q), queries.cols()), &q8);
        IntegerScanScores(*quantized, q8, /*simd=*/true, &iscores);
        pool.Reset(pool_size);
        for (size_t i = 0; i < iscores.size(); ++i) {
          pool.Push(static_cast<int32_t>(i),
                    quantized->ApproxScore(q8, iscores[i]));
        }
        pre_recall += RecallAt(exact_results[q], pool.TakeSorted());
      }
      pre_recall /= exact_results.empty()
                        ? 1.0
                        : static_cast<double>(exact_results.size());

      const double speedup =
          exact_timing.qps > 0 ? sq8_timing.qps / exact_timing.qps : 0.0;
      std::printf("%-9zu %-9s %-8s %-7.3f %10.0f %9.1f %9.1f %8.1fx\n", n,
                  "-", "sq8", pre_recall, sq8_timing.qps, sq8_timing.p50_us,
                  sq8_timing.p99_us, speedup);
      const std::string row = catalog + "/brute-sq8";
      report->Gate(row + "/bitwise", sq8_bitwise);
      report->Metric(row + "/recall_before_rerank", pre_recall);
      report->Metric(row + "/candidate_pool", pool_size);
      report->Metric(row + "/factor_bytes", n * kDim * sizeof(float));
      report->Metric(row + "/sq8_code_bytes", quantized->code_bytes());
      RecordTiming(row, sq8_timing, report);
    }

    IvfConfig base;  // num_clusters = 0 -> ceil(sqrt(n))
    IvfIndex probe_of_default(
        [&] {
          ItemFactors copy;
          copy.kernel = factors.kernel;
          copy.items = factors.items;
          return copy;
        }(),
        base);
    const size_t num_clusters = probe_of_default.num_clusters();

    std::vector<size_t> probe_counts =
        smoke ? std::vector<size_t>{2, base.num_probes, num_clusters}
              : std::vector<size_t>{1, 2, 4, base.num_probes, 16,
                                    num_clusters};
    for (size_t probes : probe_counts) {
      if (probes > num_clusters) continue;
      IvfConfig config = base;
      config.num_probes = probes;
      ItemFactors copy;
      copy.kernel = factors.kernel;
      copy.items = factors.items;
      IvfIndex ivf(std::move(copy), config);

      std::vector<std::vector<std::pair<int32_t, float>>> ivf_results;
      const QueryTiming timing = TimeQueries(ivf, queries, kK, &ivf_results);
      double recall = 0.0;
      bool bitwise = true;
      for (size_t q = 0; q < exact_results.size(); ++q) {
        recall += RecallAt(exact_results[q], ivf_results[q]);
        bitwise = bitwise && SameRanking(exact_results[q], ivf_results[q]);
      }
      recall /= exact_results.empty()
                    ? 1.0
                    : static_cast<double>(exact_results.size());

      const std::string row =
          catalog + "/ivf/probes=" + std::to_string(probes);
      if (probes == base.num_probes) {
        default_probe_recall = std::min(default_probe_recall, recall);
      }
      // Probing every cluster must be bitwise the brute-force result.
      if (probes == num_clusters) report->Gate(row + "/bitwise", bitwise);

      const double speedup =
          exact_timing.qps > 0 ? timing.qps / exact_timing.qps : 0.0;
      std::printf("%-9zu %-9zu %-8zu %-7.3f %10.0f %9.1f %9.1f %8.1fx\n", n,
                  num_clusters, probes, recall, timing.qps, timing.p50_us,
                  timing.p99_us, speedup);
      report->Metric(row + "/clusters", num_clusters);
      report->Metric(row + "/recall_at_10", recall);
      RecordTiming(row, timing, report);
    }
  }
  return default_probe_recall;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Part 1: export-contract gate over the factorizable zoo.
  kgrec::WorldConfig config = kgrec::GetPreset("movielens-100k").config;
  if (smoke) {
    config.num_users = 80;
    config.num_items = 150;
    config.avg_interactions_per_user = 12.0;
  }
  const kgrec::bench::Workbench bench = kgrec::bench::MakeWorkbench(config);
  kgrec::bench::Report report("retrieval", smoke);
  report.Metric("k", kK);
  RunModelGate(bench, &report);

  // Part 2: catalog × probes sweep on synthetic embeddings.
  const std::vector<size_t> catalog_sizes =
      smoke ? std::vector<size_t>{2000}
            : std::vector<size_t>{10000, 50000, 200000};
  const double recall =
      RunSweep(catalog_sizes, smoke ? 50 : 200, smoke, &report);
  report.Metric("recall_at_10_at_default_probes", recall);
  report.Gate("recall_at_10_at_default_probes>=0.95", recall >= 0.95);
  return report.Finish();
}
