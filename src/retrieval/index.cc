#include "retrieval/index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "core/check.h"
#include "math/kmeans.h"

namespace kgrec::retrieval {
namespace {

void Flush(ScoreKernel kernel, const float* query, size_t dim,
           SearchScratch& scratch, size_t filled, BoundedTopK& top) {
  KernelScoreBatch(kernel, query, scratch.rows, filled, dim, scratch.scores);
  for (size_t i = 0; i < filled; ++i) {
    top.Push(scratch.ids[i], scratch.scores[i]);
  }
}

}  // namespace

const char* ScanPrecisionName(ScanPrecision precision) {
  switch (precision) {
    case ScanPrecision::kFloat32: return "float32";
    case ScanPrecision::kSq8: return "sq8";
  }
  return "?";
}

Status ValidateScan(const ScanSpec& scan, size_t dim) {
  if (scan.precision == ScanPrecision::kSq8 && dim > kMaxSq8Dim) {
    return Status::InvalidArgument(
        "SQ8 scans at most " + std::to_string(kMaxSq8Dim) +
        " factor dims, got " + std::to_string(dim));
  }
  return Status::OK();
}

ItemIndex::ItemIndex(ItemFactors factors, const ScanSpec& scan)
    : owned_(std::move(factors)), factors_(owned_), scan_(scan) {}

ItemIndex::ItemIndex(ItemFactorView factors, const ScanSpec& scan)
    : factors_(factors), scan_(scan) {}

void ItemIndex::Quantize(std::span<const std::vector<int32_t>> cells) {
  if (scan_.precision == ScanPrecision::kSq8) {
    quantized_ = QuantizedItemFactors::Encode(factors_, cells);
  }
}

std::vector<std::pair<int32_t, float>> ItemIndex::Query(
    std::span<const float> query, size_t k,
    std::span<const int32_t> sorted_exclude) const {
  SearchScratch scratch;
  std::vector<std::pair<int32_t, float>> out;
  QueryInto(query, k, sorted_exclude, scratch, &out);
  return out;
}

void ItemIndex::ScanRange(int32_t begin, int32_t end, const float* query,
                          std::span<const int32_t> sorted_exclude,
                          SearchScratch& scratch, BoundedTopK& top) const {
  size_t filled = 0;
  // Merge walk: `next_excluded` always points at the first exclusion
  // >= the current id, so each id costs O(1).
  const int32_t* next_excluded = std::lower_bound(
      sorted_exclude.data(), sorted_exclude.data() + sorted_exclude.size(),
      begin);
  const int32_t* excluded_end =
      sorted_exclude.data() + sorted_exclude.size();
  for (int32_t id = begin; id < end; ++id) {
    if (next_excluded != excluded_end && *next_excluded == id) {
      ++next_excluded;
      continue;
    }
    scratch.ids[filled] = id;
    scratch.rows[filled] = factors_.Row(id);
    if (++filled == SearchScratch::kBlock) {
      Flush(factors_.kernel, query, dim(), scratch, filled, top);
      filled = 0;
    }
  }
  if (filled > 0) Flush(factors_.kernel, query, dim(), scratch, filled, top);
}

void ItemIndex::ScanList(std::span<const int32_t> ids, const float* query,
                         std::span<const int32_t> sorted_exclude,
                         SearchScratch& scratch, BoundedTopK& top) const {
  size_t filled = 0;
  for (int32_t id : ids) {
    if (std::binary_search(sorted_exclude.begin(), sorted_exclude.end(),
                           id)) {
      continue;
    }
    scratch.ids[filled] = id;
    scratch.rows[filled] = factors_.Row(id);
    if (++filled == SearchScratch::kBlock) {
      Flush(factors_.kernel, query, dim(), scratch, filled, top);
      filled = 0;
    }
  }
  if (filled > 0) Flush(factors_.kernel, query, dim(), scratch, filled, top);
}

void ItemIndex::ScanCellSq8(size_t cell,
                            std::span<const int32_t> sorted_exclude,
                            SearchScratch& scratch) const {
  const QuantizedItemFactors& q = *quantized_;
  const Sq8Query& query = scratch.query8;
  BoundedTopK& pool = scratch.pool;
  const auto floor_of = [&] {
    return pool.size() == pool.k() ? q.ScoreFloor(query, pool.worst().second)
                                   : std::numeric_limits<int32_t>::min();
  };
  int32_t min_score = floor_of();
  alignas(32) int32_t scores[QuantizedItemFactors::kBlockRows];
  for (size_t b = q.cell_begin(cell); b < q.cell_begin(cell + 1); ++b) {
    // The integer scores are bitwise identical across scalar/SSE2/AVX2
    // builds (math/kernels.h) and the expansion is one float multiply-add
    // per survivor, so the candidate pool itself is build-invariant — not
    // only the re-ranked result. Skipping rows below the floor changes
    // nothing: Push would have rejected each of them.
    uint32_t rows = q.ScanBlock(b, query, min_score, scores);
    if (rows == 0) continue;
    while (rows != 0) {
      const int r = std::countr_zero(rows);
      rows &= rows - 1;
      const int32_t id = q.ItemAt(b, static_cast<size_t>(r));
      if (std::binary_search(sorted_exclude.begin(), sorted_exclude.end(),
                             id)) {
        continue;
      }
      if ((q.nonfinite_rows(b) >> r) & 1u) {
        scratch.forced.push_back(id);
        continue;
      }
      pool.Push(id, q.ApproxScore(query, scores[r]));
    }
    // The floor only gates the next block's compare, so it is refreshed
    // once per block with survivors, not once per Push.
    min_score = floor_of();
  }
}

void ItemIndex::RerankPool(std::span<const float> query, size_t k,
                           SearchScratch& scratch,
                           std::vector<std::pair<int32_t, float>>* out) const {
  scratch.pool.TakeSortedInto(scratch.candidates);
  // Forced (non-finite-row) candidates ride along unconditionally; the
  // scans never push them into the pool, so there are no duplicates.
  for (int32_t id : scratch.forced) {
    scratch.candidates.emplace_back(id, 0.0f);
  }
  const size_t count = scratch.candidates.size();
  scratch.rerank_rows.resize(count);
  scratch.rerank_scores.resize(count);
  for (size_t i = 0; i < count; ++i) {
    scratch.rerank_rows[i] =
        factors_.Row(static_cast<size_t>(scratch.candidates[i].first));
  }
  // Full-precision rescore of the pool: per the export contract each
  // score is bitwise the model's Score(), so selecting the top-k of the
  // pool under RankBetter reproduces the float32 index's result exactly
  // whenever the pool contains the true top-k.
  KernelScoreBatch(factors_.kernel, query.data(), scratch.rerank_rows.data(),
                   count, dim(), scratch.rerank_scores.data());
  scratch.top.Reset(k);
  for (size_t i = 0; i < count; ++i) {
    scratch.top.Push(scratch.candidates[i].first, scratch.rerank_scores[i]);
  }
  scratch.top.TakeSortedInto(*out);
}

BruteForceIndex::BruteForceIndex(ItemFactors factors, const ScanSpec& scan)
    : ItemIndex(std::move(factors), scan) {
  Quantize({});
}

BruteForceIndex::BruteForceIndex(ItemFactorView factors, const ScanSpec& scan)
    : ItemIndex(factors, scan) {
  Quantize({});
}

void BruteForceIndex::QueryInto(
    std::span<const float> query, size_t k,
    std::span<const int32_t> sorted_exclude, SearchScratch& scratch,
    std::vector<std::pair<int32_t, float>>* out) const {
  KGREC_CHECK_EQ(query.size(), dim());
  const int32_t end = static_cast<int32_t>(num_items());
  if (scan_.precision == ScanPrecision::kFloat32) {
    scratch.top.Reset(k);
    ScanRange(0, end, query.data(), sorted_exclude, scratch, scratch.top);
    scratch.top.TakeSortedInto(*out);
    return;
  }
  if (k == 0) {
    out->clear();
    return;
  }
  quantized_->PrepareQuery(query, &scratch.query8);
  scratch.pool.Reset(scan_.PoolSize(k));
  scratch.forced.clear();
  ScanCellSq8(0, sorted_exclude, scratch);
  RerankPool(query, k, scratch, out);
}

IvfIndex::IvfIndex(ItemFactors factors, const IvfConfig& config,
                   const ScanSpec& scan)
    : ItemIndex(std::move(factors), scan), config_(config) {
  const size_t n = num_items();
  KGREC_CHECK_GT(n, 0u);
  size_t clusters = config_.num_clusters;
  if (clusters == 0) {
    clusters = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
  }
  clusters = std::max<size_t>(1, std::min(clusters, n));
  const KMeansResult kmeans =
      KMeansDeterministic(owned_.items, clusters, config_.kmeans_iters,
                          config_.seed, config_.num_threads);
  centroids_ = kmeans.centroids;
  lists_.assign(clusters, {});
  // Ascending id order within each cell (the scan feeds ids in list
  // order, and RankBetter's tie rule expects no particular order — but
  // ascending keeps the scan cache-friendly and the layout canonical).
  for (size_t i = 0; i < n; ++i) {
    lists_[kmeans.assignment[i]].push_back(static_cast<int32_t>(i));
  }
  // The SQ8 codes follow the same cells, each a contiguous block run.
  Quantize(lists_);
}

void IvfIndex::QueryInto(std::span<const float> query, size_t k,
                         std::span<const int32_t> sorted_exclude,
                         SearchScratch& scratch,
                         std::vector<std::pair<int32_t, float>>* out) const {
  KGREC_CHECK_EQ(query.size(), dim());
  const size_t clusters = lists_.size();
  const size_t probes = std::max<size_t>(
      1, std::min(config_.num_probes, clusters));
  // Rank cells by the same kernel that ranks items: for kNegSquaredL2
  // that is nearest-centroid, for kDot highest centroid inner product.
  // Always full precision — the centroid pass is O(clusters), not the
  // scan bottleneck, and keeping it float makes probe selection
  // identical across scan precisions.
  scratch.cells.Reset(probes);
  for (size_t c = 0; c < clusters; ++c) {
    scratch.cells.Push(static_cast<int32_t>(c),
                       KernelScore(factors_.kernel, query.data(),
                                   centroids_.Row(c), dim()));
  }
  scratch.cells.TakeSortedInto(scratch.cell_order);
  if (scan_.precision == ScanPrecision::kFloat32) {
    scratch.top.Reset(k);
    for (const auto& [cell, cell_score] : scratch.cell_order) {
      ScanList(lists_[cell], query.data(), sorted_exclude, scratch,
               scratch.top);
    }
    scratch.top.TakeSortedInto(*out);
    return;
  }
  if (k == 0) {
    out->clear();
    return;
  }
  quantized_->PrepareQuery(query, &scratch.query8);
  scratch.pool.Reset(scan_.PoolSize(k));
  scratch.forced.clear();
  for (const auto& [cell, cell_score] : scratch.cell_order) {
    ScanCellSq8(static_cast<size_t>(cell), sorted_exclude, scratch);
  }
  RerankPool(query, k, scratch, out);
}

}  // namespace kgrec::retrieval
