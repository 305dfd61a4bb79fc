#ifndef KGREC_RETRIEVAL_INDEX_H_
#define KGREC_RETRIEVAL_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "math/topk.h"
#include "retrieval/factors.h"
#include "retrieval/quantize.h"

namespace kgrec::retrieval {

/// Which representation the candidate scan streams (DESIGN §12).
///  * kFloat32 — the exact float scan: every scanned item is scored with
///    the full-precision kernel; the result IS the final ranking.
///  * kSq8     — the quantized scan: items are scored approximately from
///    their u8 codes with the integer kernels (4x fewer bytes streamed),
///    an over-fetched candidate pool is kept, and the pool is re-ranked
///    with the float32 kernel to restore the exact RankBetter order.
enum class ScanPrecision { kFloat32, kSq8 };

const char* ScanPrecisionName(ScanPrecision precision);

/// Scan-representation knobs, shared by both index types.
struct ScanSpec {
  ScanPrecision precision = ScanPrecision::kFloat32;
  /// SQ8 candidate pool size: max(k * rerank_factor, k + rerank_slack).
  /// The final top-k equals the float32 index's exactly whenever the
  /// pool contains the true top-k — the widened pool is the safety
  /// margin against quantization reordering near the cut, and the gate
  /// (bench/retrieval_scaling, tests/retrieval_test.cc) holds the
  /// equality bitwise across the model zoo at these defaults.
  size_t rerank_factor = 4;
  size_t rerank_slack = 32;

  size_t PoolSize(size_t k) const {
    return std::max(k * rerank_factor, k + rerank_slack);
  }
};

/// InvalidArgument when an index under `scan` cannot hold `dim`-dim
/// factors: SQ8 scans at most kMaxSq8Dim dims.
Status ValidateScan(const ScanSpec& scan, size_t dim);

/// Caller-owned scratch for ItemIndex::QueryInto: the blocked-scan
/// buffers, the streaming heaps, the prepared quantized query and the
/// re-rank staging vectors. Reusing one instance across queries makes
/// the steady-state query path allocation-free (pinned by
/// tests/retrieval_test.cc RetrievalScratch) — the serve path keeps one
/// per thread, so Router recommend traffic stops paying a block-sized
/// allocation per request.
struct SearchScratch {
  /// Items scored per batched float-kernel call: large enough to amortize
  /// the kernels' SIMD lanes, small enough that the block scratch stays
  /// L1.
  static constexpr size_t kBlock = 256;

  const float* rows[kBlock];
  int32_t ids[kBlock];
  float scores[kBlock];

  BoundedTopK top{0};   // final selection
  BoundedTopK pool{0};  // SQ8 candidate pool
  BoundedTopK cells{0}; // IVF probed-cell selection
  Sq8Query query8;
  std::vector<std::pair<int32_t, float>> candidates;
  /// Scanned items whose factor rows hold non-finite entries: bypass the
  /// approximate pool, re-ranked unconditionally (RerankPool).
  std::vector<int32_t> forced;
  std::vector<std::pair<int32_t, float>> cell_order;
  std::vector<const float*> rerank_rows;
  std::vector<float> rerank_scores;
  /// Serve-path staging for FillUserQuery (serve/serve_handle.cc).
  std::vector<float> user_query;
};

/// A top-K retrieval structure over one ItemFactors export. Queries are
/// user query vectors (DotProductFactors::FillUserQuery); results are
/// (item, score) pairs, best-first under the library ranking order
/// (math/topk.h RankBetter: NaN last, ties toward the smaller item id).
///
/// Thread-safety mirrors the serve path: indexes are immutable after
/// construction, Query()/QueryInto() are const and touch no shared
/// mutable state (per-call state lives in the SearchScratch), so any
/// number of threads may query one index concurrently.
class ItemIndex {
 public:
  /// Owns `factors`.
  ItemIndex(ItemFactors factors, const ScanSpec& scan);
  /// Scans a table owned elsewhere, which must outlive the index
  /// unmodified.
  ItemIndex(ItemFactorView factors, const ScanSpec& scan);
  virtual ~ItemIndex() = default;

  ItemIndex(const ItemIndex&) = delete;
  ItemIndex& operator=(const ItemIndex&) = delete;

  virtual std::string name() const = 0;

  size_t num_items() const { return factors_.rows; }
  size_t dim() const { return factors_.dim; }
  ScoreKernel kernel() const { return factors_.kernel; }
  const ItemFactorView& factors() const { return factors_; }
  const ScanSpec& scan() const { return scan_; }
  ScanPrecision precision() const { return scan_.precision; }
  /// The quantized factors backing the SQ8 scan; nullptr at kFloat32.
  const QuantizedItemFactors* quantized() const {
    return quantized_ ? &*quantized_ : nullptr;
  }

  /// Top-k for the query. `sorted_exclude` must be sorted, deduplicated
  /// and in-range (retrieval::SanitizeExclude); excluded items never
  /// appear in the result. Returns fewer than k pairs only when fewer
  /// than k non-excluded items exist (or, for approximate indexes, were
  /// probed). Convenience form — owns a throwaway scratch.
  std::vector<std::pair<int32_t, float>> Query(
      std::span<const float> query, size_t k,
      std::span<const int32_t> sorted_exclude = {}) const;

  /// Query with caller-owned scratch and output vector; at steady state
  /// (reused scratch, reused out) performs no heap allocation.
  virtual void QueryInto(std::span<const float> query, size_t k,
                         std::span<const int32_t> sorted_exclude,
                         SearchScratch& scratch,
                         std::vector<std::pair<int32_t, float>>* out) const = 0;

 protected:
  /// Scores the contiguous id range [begin, end) in fixed-size blocks
  /// through KernelScoreBatch and streams the results into `top`,
  /// skipping excluded ids with a merge walk. O(block) scratch — no
  /// full-range score vector.
  void ScanRange(int32_t begin, int32_t end, const float* query,
                 std::span<const int32_t> sorted_exclude,
                 SearchScratch& scratch, BoundedTopK& top) const;

  /// Same for an explicit ascending id list (an IVF posting list);
  /// exclusion via binary search.
  void ScanList(std::span<const int32_t> ids, const float* query,
                std::span<const int32_t> sorted_exclude,
                SearchScratch& scratch, BoundedTopK& top) const;

  /// The SQ8 scan of quantized() cell `cell` into scratch.pool, against
  /// scratch.query8: one integer block kernel call per 32 rows, which
  /// also compares every row with the pool's integer score floor
  /// (QuantizedItemFactors::ScoreFloor) and drops the rows Push would
  /// reject. Only the surviving rows pay for the exclusion check, the
  /// float expansion and the Push. Non-finite rows always survive the
  /// block compare and, unless excluded, land in scratch.forced — their
  /// true scores can be ±inf/NaN, which no finite code-space score can
  /// place correctly, so they are always re-ranked exactly.
  /// At ScanPrecision::kSq8, encodes quantized_ with `cells` as its
  /// cell layout (QuantizedItemFactors::Encode); a no-op at kFloat32.
  void Quantize(std::span<const std::vector<int32_t>> cells);

  void ScanCellSq8(size_t cell, std::span<const int32_t> sorted_exclude,
                   SearchScratch& scratch) const;

  /// Drains scratch.pool plus scratch.forced, rescores every candidate
  /// with the float32 kernel (bitwise the model's Score via the export
  /// contract), and writes the exact top-k into `out`. This is what
  /// restores the RankBetter order after an approximate SQ8 scan:
  /// whenever pool ∪ forced contains the true top-k, the result is
  /// bitwise identical to the float32 index's.
  void RerankPool(std::span<const float> query, size_t k,
                  SearchScratch& scratch,
                  std::vector<std::pair<int32_t, float>>* out) const;

  ItemFactors owned_;       // empty when the table is borrowed
  ItemFactorView factors_;  // the scanned table: owned_'s, or borrowed
  ScanSpec scan_;
  std::optional<QuantizedItemFactors> quantized_;
};

/// The exact baseline: a blocked full-catalog scan feeding a bounded
/// streaming heap. Because the export contract makes every block score
/// bitwise equal to the model's Score() and RankBetter is a total order,
/// a float32 Query() is **bitwise identical** to materializing
/// ScoreAll() and running TopKScored() — with O(K + block) memory
/// instead of O(catalog). At ScanPrecision::kSq8 the scan streams the
/// quantized codes instead and the re-rank restores that same order.
class BruteForceIndex : public ItemIndex {
 public:
  explicit BruteForceIndex(ItemFactors factors, const ScanSpec& scan = {});
  /// Borrows `factors` (see ItemIndex).
  explicit BruteForceIndex(ItemFactorView factors, const ScanSpec& scan = {});

  std::string name() const override { return "brute-force"; }

  void QueryInto(std::span<const float> query, size_t k,
                 std::span<const int32_t> sorted_exclude,
                 SearchScratch& scratch,
                 std::vector<std::pair<int32_t, float>>* out) const override;
};

/// IVF (inverted-file) build knobs.
struct IvfConfig {
  /// Number of k-means cells; 0 → ceil(sqrt(num_items)), min 1.
  size_t num_clusters = 0;
  /// Cells probed per query (clamped to num_clusters). The default is
  /// tuned so recall@10 >= 0.95 on the trained-embedding worlds of
  /// bench/retrieval_scaling --smoke.
  size_t num_probes = 8;
  int kmeans_iters = 10;
  uint64_t seed = 13;
  /// Build-time threads; the build is bitwise identical at any count
  /// (math/kmeans.h KMeansDeterministic).
  size_t num_threads = 1;
};

/// Approximate cluster-pruned index: deterministic k-means over the item
/// factor rows partitions the catalog into cells; a query ranks the cell
/// centroids under the same kernel, scans only the best `num_probes`
/// cells exactly, and returns their top-k. Recall@K versus the exact
/// baseline is measured (not assumed) by bench/retrieval_scaling; with
/// num_probes == num_clusters the result is bitwise the brute-force one.
/// Centroid ranking always runs in float32; ScanPrecision only selects
/// the representation streamed by the per-cell scans.
class IvfIndex : public ItemIndex {
 public:
  IvfIndex(ItemFactors factors, const IvfConfig& config,
           const ScanSpec& scan = {});

  std::string name() const override { return "ivf"; }

  size_t num_clusters() const { return lists_.size(); }
  const IvfConfig& config() const { return config_; }

  void QueryInto(std::span<const float> query, size_t k,
                 std::span<const int32_t> sorted_exclude,
                 SearchScratch& scratch,
                 std::vector<std::pair<int32_t, float>>* out) const override;

 private:
  IvfConfig config_;
  Matrix centroids_;                        // [num_clusters, dim]
  std::vector<std::vector<int32_t>> lists_; // ascending item ids per cell
};

}  // namespace kgrec::retrieval

#endif  // KGREC_RETRIEVAL_INDEX_H_
