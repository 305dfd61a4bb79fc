#include "retrieval/factors.h"

#include <algorithm>

#include "core/check.h"
#include "math/kernels.h"

namespace kgrec::retrieval {

const char* ScoreKernelName(ScoreKernel kernel) {
  switch (kernel) {
    case ScoreKernel::kDot:
      return "dot";
    case ScoreKernel::kNegSquaredL2:
      return "neg-squared-l2";
  }
  return "unknown";
}

float KernelScore(ScoreKernel kernel, const float* query, const float* row,
                  size_t dim) {
  switch (kernel) {
    case ScoreKernel::kDot:
      return kernels::Dot(query, row, dim);
    case ScoreKernel::kNegSquaredL2:
      return -kernels::SquaredDistance(query, row, dim);
  }
  KGREC_CHECK(false);  // unreachable
  return 0.0f;
}

void KernelScoreBatch(ScoreKernel kernel, const float* query,
                      const float* const* rows, size_t count, size_t dim,
                      float* out) {
  switch (kernel) {
    case ScoreKernel::kDot:
      kernels::DotBatch(query, rows, count, dim, out);
      return;
    case ScoreKernel::kNegSquaredL2:
      for (size_t i = 0; i < count; ++i) {
        out[i] = -kernels::SquaredDistance(query, rows[i], dim);
      }
      return;
  }
  KGREC_CHECK(false);  // unreachable
}

std::vector<int32_t> SanitizeExclude(std::span<const int32_t> exclude,
                                     int32_t num_items) {
  std::vector<int32_t> out;
  out.reserve(exclude.size());
  for (int32_t item : exclude) {
    if (item >= 0 && item < num_items) out.push_back(item);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace kgrec::retrieval

namespace kgrec {

retrieval::ItemFactors DotProductFactors::ExportItemFactors() const {
  const retrieval::ItemFactorView table = BorrowItemFactors();
  retrieval::ItemFactors factors;
  factors.kernel = table.kernel;
  factors.items = Matrix(table.rows, table.dim);
  std::copy_n(table.data, table.rows * table.dim, factors.items.data());
  return factors;
}

}  // namespace kgrec
