#ifndef KGREC_RETRIEVAL_FACTORS_H_
#define KGREC_RETRIEVAL_FACTORS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "math/matrix.h"

namespace kgrec {
namespace retrieval {

/// The two scoring forms a factorizable model may export (DESIGN §10).
/// Both are evaluated by the shared SIMD kernels (math/kernels.h), so a
/// score computed through an exported (query, item-row) pair is bitwise
/// identical however the rows are batched or blocked:
///  * kDot          — score = Dot(query, item_row); inner-product models
///                    (MF/BPR-MF, CKE, KGAT, Hete-MF/CF, DistMult).
///  * kNegSquaredL2 — score = -SquaredDistance(query, item_row); the
///                    translation-distance KGE family (TransE/H/R/D),
///                    where nearest-in-relation-space means best.
enum class ScoreKernel { kDot, kNegSquaredL2 };

const char* ScoreKernelName(ScoreKernel kernel);

/// score of one (query, item_row) pair under the kernel.
float KernelScore(ScoreKernel kernel, const float* query, const float* row,
                  size_t dim);

/// Batched form over `count` row pointers; out[i] is **bitwise** equal to
/// KernelScore(kernel, query, rows[i], dim) — the kDot path delegates to
/// kernels::DotBatch, whose per-output contract is exactly kernels::Dot.
void KernelScoreBatch(ScoreKernel kernel, const float* query,
                      const float* const* rows, size_t count, size_t dim,
                      float* out);

/// A materialized item-side factorization: one row per catalog item, in
/// item-id order. Produced by DotProductFactors::ExportItemFactors() and
/// owned by the index built over it — the index's lifetime is therefore
/// independent of the model's internal tensors.
struct ItemFactors {
  ScoreKernel kernel = ScoreKernel::kDot;
  Matrix items;  // [num_items, dim]
};

/// A read-only view of an item factor table: row-major [rows, dim] in
/// item-id order, owned elsewhere (an ItemFactors, or a model's own
/// table — DotProductFactors::BorrowItemFactors).
struct ItemFactorView {
  ScoreKernel kernel = ScoreKernel::kDot;
  const float* data = nullptr;
  size_t rows = 0;
  size_t dim = 0;

  ItemFactorView() = default;
  ItemFactorView(ScoreKernel kernel, const float* data, size_t rows,
                 size_t dim)
      : kernel(kernel), data(data), rows(rows), dim(dim) {}
  /// Views an export in place.
  ItemFactorView(const ItemFactors& factors)  // NOLINT: implicit by design
      : ItemFactorView(factors.kernel, factors.items.data(),
                       factors.items.rows(), factors.items.cols()) {}

  const float* Row(size_t item) const { return data + item * dim; }
};

/// Sorted, deduplicated, in-range copy of an exclusion list — the
/// canonical form every retrieval selection consumes (binary-search /
/// merge-walk exclusion instead of the old -inf sentinel overwrite).
std::vector<int32_t> SanitizeExclude(std::span<const int32_t> exclude,
                                     int32_t num_items);

}  // namespace retrieval

/// The embedding-export surface of a factorizable recommender: a model
/// whose score is f(u, v) = kernel(q_u, x_v) for a per-user query vector
/// q_u and a per-item factor row x_v.
///
/// Contract (locked down by retrieval_test and the retrieval_scaling
/// smoke gate): for a fitted (or checkpoint-restored) model,
///
///   KernelScore(factor_kernel(), q, X.Row(v), factor_dim())
///     == Score(u, v)   **bitwise**,
///
/// where q is FillUserQuery(u)'s output and X is ExportItemFactors()'s
/// matrix. This is what makes an index an exact drop-in for the
/// exhaustive serve path: a BruteForceIndex scan over the export is
/// bitwise `ScoreAll` + `TopKScored`.
///
/// Implemented alongside Recommender (multiple inheritance); query it
/// through the registry helpers AsFactorizable() / IsFactorizable().
class DotProductFactors {
 public:
  virtual ~DotProductFactors() = default;

  /// Dimensionality of the exported queries and item rows.
  virtual size_t factor_dim() const = 0;

  /// Which kernel evaluates an exported (query, row) pair.
  virtual retrieval::ScoreKernel factor_kernel() const = 0;

  /// Materializes the item-side factors: a copy of BorrowItemFactors(),
  /// safe to hold after the model is gone. Only valid after Fit()/Load().
  /// Virtual only so a forwarding wrapper that lends no table can pass
  /// its inner model's export through.
  virtual retrieval::ItemFactors ExportItemFactors() const;

  /// The item table in place — or an empty view (data == nullptr) when
  /// the model keeps no such table to lend. The view is valid while the
  /// model lives unmodified, so an index built over it must not outlive
  /// the model: ServeHandle, which owns both, borrows it to build its
  /// exact index without a second copy.
  virtual retrieval::ItemFactorView BorrowItemFactors() const { return {}; }

  /// Writes user `user`'s query vector into `out` (size factor_dim()).
  /// Requires 0 <= user < factor_users().
  virtual void FillUserQuery(int32_t user, std::span<float> out) const = 0;

  /// Rows of the user table FillUserQuery reads: any other user id reads
  /// past it. 0 before Fit()/Load(), and for an exporter that does not
  /// report its table (a forwarding wrapper) — serving then refuses it
  /// as a two-stage candidate (serve::ServeHandle::Adopt).
  virtual size_t factor_users() const { return 0; }
};

}  // namespace kgrec

#endif  // KGREC_RETRIEVAL_FACTORS_H_
