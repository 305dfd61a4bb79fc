#ifndef KGREC_RETRIEVAL_QUANTIZE_H_
#define KGREC_RETRIEVAL_QUANTIZE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/aligned.h"
#include "math/kernels.h"
#include "retrieval/factors.h"

namespace kgrec::retrieval {

/// Largest factor dimension the SQ8 layer accepts. The kDot block
/// kernel sums |W[d]| * c[d] <= 16256 * 255 per dimension in int32, which
/// stays exact up to 518 dims (math/kernels.h overflow caps); 512 is the
/// power of two under that. Every registry export is far below it
/// (tests/quantize_test.cc QuantizeBound.HoldsForEveryFactorizableModelExport
/// checks), and serving refuses SQ8 above it with a Status.
inline constexpr size_t kMaxSq8Dim = 512;

/// Round to nearest integer, ties to even ("banker's rounding"),
/// implemented with explicit floor/fraction arithmetic so the result
/// never depends on the ambient FP rounding mode (std::rint does) and is
/// identical across compilers and SIMD modes. Exposed for the golden
/// tests in tests/quantize_test.cc.
int64_t RoundHalfEvenToInt(double v);

/// One query, prepared for the integer block scan of a
/// QuantizedItemFactors (PrepareQuery). Reusable scratch: buffers keep
/// their capacity across queries so the steady-state serve path performs
/// no allocation. Both operands are padded with a 0 to an even length
/// (2 * dim_pairs()), matching the zero code of the padded dimension.
struct Sq8Query {
  /// kDot: the per-dim weights w[d] = q[d] * delta[d] quantized to the
  /// 15-bit integer W[d] at scale = max|w| / 16256, so
  ///   approx(item) = bias + scale * sum_d W[d] * c[d],
  /// one exact int32 pass of kernels::DotBlockI8. The 15 bits keep every
  /// dimension's weight where a single i8 weight vector would collapse to
  /// one-hot next to one outlier-stretched delta[d].
  std::vector<int16_t> weights;
  /// kNegSquaredL2: the query on the item grid;
  /// approx(item) = -sum_d (c[d] - code[d])^2 (code-space distance,
  /// kernels::NegSquaredDistanceBlockI8).
  std::vector<int16_t> codes;
  float scale = 0.0f;
  float bias = 0.0f;
};

/// SQ8 (scalar 8-bit) quantization of one ItemFactors export: per
/// dimension d, a uniform 256-step grid
///
///   value(code) = vmin[d] + delta[d] * code,     code in [0, 255],
///
/// where [vmin[d], vmin[d] + 255 * delta[d]] spans the finite values of
/// column d. Codes are one byte per entry — 4x smaller than the float
/// matrix, which is the whole point: the scan streams a quarter of the
/// bytes and reduces them with the integer block kernels.
///
/// # Layout
///
/// Rows are stored in blocks of kBlockRows = 32, dimension pairs
/// interleaved per row: byte [block][dim pair][row][2] (the layout of
/// math/kernels.h DotBlockI8). An odd dim pads its last pair with code 0,
/// and a block's unused rows are zero codes outside live_rows(). The
/// rows are grouped into cells, each starting on a block boundary and
/// holding its items in the order given to Encode: the catalog in id
/// order is the one-cell case (BruteForceIndex), the IVF posting lists
/// are the many-cell case (IvfIndex). A scan is then one pass over a
/// contiguous block range per cell.
///
/// The step size depends on the kernel the factors are scanned under:
///  * kDot: per-dimension delta[d] = (vmax[d] - vmin[d]) / 255 (0 when
///    the column is constant) — the tightest grid per column. The query
///    weights absorb delta[d] exactly (PrepareQuery), so per-dim steps
///    cost the dot approximation nothing.
///  * kNegSquaredL2: one shared delta = max_d (vmax[d] - vmin[d]) / 255
///    for every column (vmin stays per-dimension). With a shared step
///    the code-space squared distance is delta^2 times the grid squared
///    distance — *proportional* to the true metric. Per-dim steps would
///    instead re-weight each dimension by 1/delta[d]^2, an arbitrarily
///    distorted proxy that lets true top-k items sink out of any
///    fixed-size candidate pool.
///
/// # Determinism
///
/// Encoding maps x -> RoundHalfEvenToInt((x - vmin[d]) / delta[d]) with
/// the affine computed in double. Every step (double divide, explicit
/// round-half-even, clamp) is exact IEEE arithmetic with no
/// rounding-mode or fast-math dependence, so the codes — and therefore
/// the integer scan scores and the candidate pool — are bitwise
/// identical across scalar/SSE2/AVX2 builds.
///
/// # Non-finite entries
///
/// Non-finite values are excluded from the per-dimension range; at
/// encode time NaN and -inf map to code 0 and +inf to code 255. The
/// code-space score of such an item is an arbitrary finite
/// approximation — and the item's *true* score can be ±inf or NaN, i.e.
/// pinned to the very top or bottom of the RankBetter order regardless
/// of what its codes say. Such rows therefore cannot be trusted to the
/// approximate pool at all: Encode records them in their block's
/// nonfinite_rows(), and ScanBlock always reports them,
/// so the SQ8 scans force every scanned one into the exact float32
/// re-rank (retrieval/index.h), where its true score places it.
///
/// # Reconstruction error bound
///
/// For finite x in column d, DecodeRow returns x_hat with
///
///   |x - x_hat| <= delta[d] / 2  +  eps_f * (|vmin[d]| + 255 * delta[d])
///
/// — the half-step quantization error plus one float rounding of the
/// decode affine (eps_f = 2^-24). tests/quantize_test.cc verifies the
/// bound over every factorizable model's export.
class QuantizedItemFactors {
 public:
  static constexpr size_t kBlockRows = kernels::kI8BlockRows;

  /// Quantizes an export. `cells` (empty: one cell of the whole catalog
  /// in id order) partitions the item ids; each cell is stored in the
  /// order given. Requires factors.dim <= kMaxSq8Dim (KGREC_CHECK —
  /// programmer error; serving checks it first with ValidateScan).
  static QuantizedItemFactors Encode(
      const ItemFactorView& factors,
      std::span<const std::vector<int32_t>> cells = {});

  size_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }
  ScoreKernel kernel() const { return kernel_; }
  /// Dimension pairs per row: ceil(dim / 2).
  size_t dim_pairs() const { return (dim_ + 1) / 2; }

  /// Cell `cell` occupies blocks [cell_begin(cell), cell_begin(cell + 1)).
  size_t num_cells() const { return cell_begin_.size() - 1; }
  size_t cell_begin(size_t cell) const { return cell_begin_[cell]; }

  /// Code of item `item` in dimension `d` (random access; the scan reads
  /// whole blocks).
  uint8_t Code(size_t item, size_t d) const {
    const size_t slot = slot_of_item_.empty() ? item : slot_of_item_[item];
    return codes_[(slot / kBlockRows) * block_bytes() +
                  ((d / 2) * kBlockRows + slot % kBlockRows) * 2 + d % 2];
  }

  /// Per-dimension grid origin (the "zero point" in affine-quantization
  /// terms) and step size.
  std::span<const float> grid_min() const { return {vmin_.data(), dim_}; }
  std::span<const float> grid_delta() const { return {delta_.data(), dim_}; }

  /// Dequantizes item `item` into `out` (size dim()).
  void DecodeRow(size_t item, std::span<float> out) const;

  /// Prepares `query` (size dim()) for the integer scan, reusing `out`'s
  /// buffers. Non-finite query entries are treated as 0 for the
  /// approximate scan (the exact re-rank sees the original query).
  ///
  /// kDot: the exact score decomposes over the grid as
  ///   Dot(q, decode(c)) = sum_d q[d]*vmin[d] + sum_d (q[d]*delta[d])*c[d]
  /// so with w[d] = q[d]*delta[d] quantized symmetrically to the 15-bit
  /// integer W[d] at scale s = max|w|/16256 (Sq8Query),
  /// approx = bias + s * sum_d W[d]*c[d] — monotone in the integer dot,
  /// exact up to the 15-bit rounding of w.
  ///
  /// kNegSquaredL2: the query is encoded onto the item grid and
  /// approx = -(code-space squared distance). With the shared step the
  /// code-space distance is proportional to the grid distance, so the
  /// only ordering error left is the half-step rounding of items and
  /// query; the residual recall cost is measured by
  /// bench/retrieval_scaling (recall_before_rerank) and the exact
  /// re-rank restores the order.
  void PrepareQuery(std::span<const float> query, Sq8Query* out) const;

  /// The codes of block `block`: dim_pairs() * 2 * kBlockRows bytes in
  /// the [dim pair][row][2] layout of the math/kernels.h block kernels.
  const uint8_t* block_codes(size_t block) const {
    return codes_.data() + block * block_bytes();
  }

  /// Scores the 32 rows of block `block` into `scores` (integer scan
  /// scores, higher is better) and returns the rows the scan must look
  /// at: the live rows scoring >= min_score plus every live non-finite
  /// row, whatever its score (bit r for row r).
  uint32_t ScanBlock(size_t block, const Sq8Query& q, int32_t min_score,
                     int32_t* scores) const;

  /// The item in row `row` of block `block` (a live row).
  int32_t ItemAt(size_t block, size_t row) const {
    const size_t slot = block * kBlockRows + row;
    return slot_items_.empty() ? static_cast<int32_t>(slot)
                               : slot_items_[slot];
  }

  /// Rows of `block` holding an item with a non-finite factor entry (bit
  /// r for row r). Their true scores can be non-finite, so the SQ8 scans
  /// route every scanned one straight to the exact re-rank.
  uint32_t nonfinite_rows(size_t block) const { return rows_[block].nonfinite; }
  /// Rows of `block` holding an item; the rest pad its cell's tail.
  uint32_t live_rows(size_t block) const { return rows_[block].live; }

  /// Approximate score of one candidate from its integer scan score —
  /// the expansion the SQ8 scans push into the candidate pool. The
  /// int32 -> float conversion is one IEEE rounding, identical across
  /// builds, and the expansion is monotone non-decreasing in the score.
  float ApproxScore(const Sq8Query& q, int32_t integer_score) const {
    if (kernel_ == ScoreKernel::kDot) {
      return q.bias + q.scale * static_cast<float>(integer_score);
    }
    return static_cast<float>(integer_score);
  }

  /// An integer score floor for a pool whose worst entry scores `worst`:
  /// every integer score below it expands (ApproxScore) to strictly less
  /// than `worst`, so BoundedTopK::Push would reject it and the scan may
  /// skip it unseen. Ties at `worst` stay above the floor — Push breaks
  /// them by item id. INT32_MIN when nothing can be skipped.
  int32_t ScoreFloor(const Sq8Query& q, float worst) const;

  /// Bytes of the code blocks (the scan working set, padding included).
  size_t code_bytes() const { return codes_.size(); }
  /// Bytes of the grid vectors (vmin + delta, resident but not scanned).
  size_t grid_bytes() const {
    return (vmin_.size() + delta_.size()) * sizeof(float);
  }

 private:
  struct BlockRows {
    uint32_t live = 0;
    uint32_t nonfinite = 0;
  };

  size_t block_bytes() const { return dim_pairs() * 2 * kBlockRows; }

  ScoreKernel kernel_ = ScoreKernel::kDot;
  size_t num_items_ = 0;
  size_t dim_ = 0;
  AlignedVector<uint8_t> codes_;      // [block][dim pair][row][2]
  std::vector<BlockRows> rows_;       // [block]
  std::vector<size_t> cell_begin_;    // [cell + 1], first block of a cell
  /// Slot (block * kBlockRows + row) <-> item maps; both empty when
  /// Encode got no cells, where slot == item.
  std::vector<int32_t> slot_items_;   // [slot], -1 for padding
  std::vector<int32_t> slot_of_item_; // [item]
  std::vector<float> vmin_;           // [dim]
  std::vector<float> delta_;          // [dim]
};

}  // namespace kgrec::retrieval

#endif  // KGREC_RETRIEVAL_QUANTIZE_H_
